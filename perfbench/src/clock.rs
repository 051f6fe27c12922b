//! The benchmark's only wall-clock reads.
//!
//! Every timing in the benchmark goes through [`Clock`] or [`Tracer`],
//! so the clock (and its lint waiver) lives in one place.

use std::time::Instant;

/// A started wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Start a clock now.
    pub fn start() -> Clock {
        // xtask-allow: RG008 the benchmark's sole clock; it times the library from outside
        Clock(Instant::now())
    }

    /// Seconds since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Whole nanoseconds since [`Clock::start`], saturating at `u64::MAX`.
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Time `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::start();
    let value = f();
    (value, clock.secs())
}

/// Accumulates per-layer spans (seconds) by metric name when enabled;
/// when disabled, [`Tracer::span`] just calls its closure, so a traced
/// and an untraced run execute the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// A tracer that records spans (`true`) or stays silent (`false`).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Run `f`, adding its wall time to the span `name` when enabled.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (value, secs) = timed(f);
        match self.spans.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.spans.push((name, secs)),
        }
        value
    }

    /// Every span recorded, in first-seen order, with its total seconds.
    pub fn spans(&self) -> &[(&'static str, f64)] {
        &self.spans
    }

    /// Sum of every span's seconds.
    pub fn total(&self) -> f64 {
        self.spans.iter().map(|(_, s)| s).sum()
    }
}
