//! The routergeo benchmark: one command, three seeded workloads.
//!
//! ```text
//! usage: perfbench --workload <repro-tenth|resolve-paper|serve-swap>
//!                  --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run measures one workload for `--seconds`, checks the program's
//! outputs, prints host facts and any failed check on stderr, and prints
//! one JSON result line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. It exits 1 when
//! an output check fails and 2 on a usage or set-up error. See
//! `README.md` for the workloads and the metric map.

mod clock;
mod gen;
mod pin;
mod repro;
mod resolve;
mod serve;
mod stats;

use stats::Outcome;

/// The seed at which `repro-tenth` also checks its report digest.
pub const DEFAULT_SEED: u64 = 20_170_301;

/// Metrics a workload measured, by name.
pub type Measured = Vec<(&'static str, f64)>;

/// What a workload run returns: failed output checks, operation counts,
/// and its measured metrics.
pub struct Run {
    /// One line per failed output check.
    pub failures: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Metrics measured.
    pub metrics: Measured,
}

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 75] = [
    ("trace_overhead_s", "s"),
    // repro-tenth: Lab::build's layers.
    ("world.generate_s", "s"),
    ("trace.topology_s", "s"),
    ("trace.ark_trees_s", "s"),
    ("trace.ark_trees", "count"),
    ("trace.ark_extract_s", "s"),
    ("trace.ark_traceroutes", "count"),
    ("trace.ark_interfaces", "count"),
    ("trace.ark_interfaces_per_traceroute", "ratio"),
    ("trace.atlas_trees_s", "s"),
    ("trace.atlas_trees", "count"),
    ("trace.atlas_run_s", "s"),
    ("trace.atlas_records", "count"),
    ("rtt.dataset_s", "s"),
    ("dns.rules_s", "s"),
    ("cymru.mapping_s", "s"),
    ("core.ground_truth_s", "s"),
    ("db.vendor_synth_s", "s"),
    ("gazetteer.build_s", "s"),
    // repro-tenth: the experiments.
    ("core.resolve_ark_s", "s"),
    ("core.resolve_ark_lookups", "count"),
    ("core.resolve_ark_hit_frac", "frac"),
    ("core.resolve_gt_s", "s"),
    ("core.resolve_gt_lookups", "count"),
    ("core.resolve_gt_hit_frac", "frac"),
    ("core.coverage_s", "s"),
    ("core.consistency_s", "s"),
    ("core.accuracy_s", "s"),
    ("experiments.table1_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.fig4_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.split_s", "s"),
    ("experiments.recommend_s", "s"),
    ("experiments.arin_s", "s"),
    ("experiments.validate_s", "s"),
    ("experiments.method_s", "s"),
    ("experiments.majority_s", "s"),
    ("experiments.endpoints_s", "s"),
    ("experiments.cbg_s", "s"),
    ("experiments.hloc_s", "s"),
    ("experiments.temporal_s", "s"),
    ("repro.traced_s", "s"),
    ("unattributed_s", "s"),
    // resolve-paper.
    ("db.write_v21_s", "s"),
    ("db.image_bytes", "bytes"),
    ("db.open_s", "s"),
    ("core.resolve_s", "s"),
    ("core.lookups", "count"),
    ("core.lookups_per_s", "1/s"),
    ("core.hit_frac", "frac"),
    ("core.interned", "count"),
    ("db.lookup_batch_ns", "ns"),
    ("db.lookup_compact_ns", "ns"),
    ("db.batch_gain_x", "x"),
    // serve-swap.
    ("serve.rtt_p50_us", "us"),
    ("serve.rtt_p99_us", "us"),
    ("serve.rtt_tail_us", "us"),
    ("serve.rtt_tail_pct", "pct"),
    ("serve.rtt_samples", "count"),
    ("serve.served_per_s", "1/s"),
    ("serve.swap_ms", "ms"),
    ("serve.client_codec_ns", "ns"),
    ("serve.wire_ns", "ns"),
    ("serve.overhead_x", "x"),
    ("serve.drain_polls", "count"),
    ("serve.requests", "count"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.errors", "count"),
    ("serve.swaps", "count"),
    ("db.try_lookup_ns", "ns"),
    ("db.open_ms", "ms"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["repro-tenth", "resolve-paper", "serve-swap"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <repro-tenth|resolve-paper|serve-swap> \
                     --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of repro-tenth, resolve-paper, serve-swap")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse() {
                Ok(n) if n >= 1 => seconds = Some(n),
                _ => return Err(bad("a positive integer")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set so far (`VmHWM`, Linux), in MiB;
/// `NaN` when unavailable, which fails the result line.
pub fn peak_rss_mib() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u32>().ok()
        });
    kb.map_or(f64::NAN, |kb| f64::from(kb) / 1024.0)
}

/// The CPU model name (Linux), for the host line.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Fill the printed metric set from what the workload measured.
fn outcome(args: &Args, run: Run) -> Result<Outcome, String> {
    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = run
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |m| m.1);
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        let known = |n: &&str| PER_LAYER.iter().chain(&END_TO_END).any(|(k, _)| k == n);
        if let Some((n, _)) = run.metrics.iter().find(|(n, _)| !known(n)) {
            return Err(format!("metric {n} is not declared"));
        }
    } else {
        #[allow(clippy::cast_precision_loss)] // counts sit far below 2^52
        let ok_frac =
            (run.attempted - run.failed.min(run.attempted)) as f64 / run.attempted.max(1) as f64;
        let derived = [("ok_frac", ok_frac)];
        for (name, unit) in END_TO_END {
            let value = run
                .metrics
                .iter()
                .chain(&derived)
                .find(|(n, _)| *n == name)
                .map(|m| m.1)
                .ok_or(format!("{} did not measure {name}", args.workload))?;
            metrics.push((name.to_string(), value, unit.to_string()));
        }
    }
    Ok(Outcome {
        correct: run.failures.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Before anything spawns, so every thread inherits the pin.
    let pinned = if args.workload == "serve-swap" {
        match pin::pin_to_last_cpu() {
            Ok(cpu) => cpu.to_string(),
            Err(e) => {
                eprintln!("{}: {e}", args.workload);
                std::process::exit(2);
            }
        }
    } else {
        "none".to_string()
    };
    let scale = match args.workload.as_str() {
        "repro-tenth" => "tenth",
        "resolve-paper" => "paper",
        _ => "corpus-30720",
    };
    eprintln!(
        "host: workload={} seed={} seconds={} trace={} nproc={nproc} threads={} clients={} \
         pinned_cpu={pinned} scale={scale} cpu={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        repro::THREADS,
        serve::CLIENTS,
        cpu_model()
    );
    #[allow(clippy::cast_precision_loss)] // seconds are small
    let seconds = args.seconds as f64;
    let run = match args.workload.as_str() {
        "repro-tenth" => Ok(repro::run(args.seed, seconds, args.trace)),
        "resolve-paper" => resolve::run(args.seed, seconds, args.trace),
        _ => serve::run(args.seed, seconds, args.trace),
    };
    let result = run.and_then(|run| {
        for f in &run.failures {
            eprintln!("check failed: {f}");
        }
        let outcome = outcome(&args, run)?;
        Ok((outcome.to_json()?, outcome.correct))
    });
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-swap --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-swap", 7, 10, true)
        );
        for bad in [
            "--workload nope --seconds 1",
            "--workload serve-swap --seconds 0",
            "--workload serve-swap --seconds 1 --trace 2",
            "--seconds 1",
            "--workload serve-swap --seconds",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(stats::valid_name(n), "{n}");
            assert!(!all[..i].contains(n), "{n} declared twice");
        }
    }

    /// BENCHMARK.json, one metric per line, must declare exactly these.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<(String, String)> = json
            .lines()
            .filter_map(|l| {
                let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
                let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
