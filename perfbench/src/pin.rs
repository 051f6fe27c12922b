//! Pinning to one CPU (Linux `sched_getaffinity` / `sched_setaffinity`).
//!
//! `serve-swap` pins its process before it spawns the daemon, so the
//! client and the daemon's threads take turns on one CPU: a round trip
//! then costs its system calls, context switches and lookup, not the
//! time a sleeping CPU takes to wake, which on a shared virtual machine
//! varies with the neighbours' load.

/// `cpu_set_t`: a mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU set in `mask`.
fn last_cpu(mask: &CpuSet) -> Option<usize> {
    (0..mask.len() * 64)
        .rev()
        .find(|c| mask.get(c / 64).is_some_and(|w| w >> (c % 64) & 1 == 1))
}

/// The CPUs the calling thread may run on.
fn allowed() -> Result<CpuSet, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

/// Pin the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it may run on, and return that CPU.
pub fn pin_to_last_cpu() -> Result<usize, String> {
    let cpu = last_cpu(&allowed()?).ok_or("sched_getaffinity: no CPU allowed")?;
    let mut one: CpuSet = [0; 16];
    if let Some(word) = one.get_mut(cpu / 64) {
        *word = 1 << (cpu % 64);
    }
    // SAFETY: `one` is a `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_is_the_highest_set_bit() {
        let mut mask: CpuSet = [0; 16];
        assert_eq!(last_cpu(&mask), None);
        mask[0] = 0b11;
        assert_eq!(last_cpu(&mask), Some(1));
        mask[2] = 1 << 5;
        assert_eq!(last_cpu(&mask), Some(133));
    }

    #[test]
    fn pinning_leaves_exactly_the_chosen_cpu_allowed() {
        let before = allowed().unwrap();
        let (cpu, after) = std::thread::spawn(|| (pin_to_last_cpu().unwrap(), allowed().unwrap()))
            .join()
            .unwrap();
        assert_eq!(last_cpu(&before), Some(cpu));
        assert_eq!(after.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(last_cpu(&after), Some(cpu));
        // The pin applies to the thread that asked, not to this one.
        assert_eq!(allowed().unwrap(), before);
    }
}
