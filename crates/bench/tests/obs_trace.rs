//! End-to-end observability: `repro all --obs` at Tiny scale emits a JSONL
//! trace that passes every structural invariant of
//! `routergeo_obs::check` (the library behind `cargo xtask obs-check`),
//! covers the pipeline stages, carries the cymru bulk-whois counters —
//! and renders byte-identical metric totals at 1 and 4 worker threads,
//! the same contract the rendered report already honours.

use routergeo_obs::check;
use std::path::PathBuf;
use std::process::Command;

/// Run the repro binary at Tiny scale with `--obs`, returning the trace.
fn traced_run(threads: usize, tag: &str) -> String {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "routergeo_obs_{}_{tag}_{threads}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .arg("--obs")
        .arg(&path)
        .arg("--threads")
        .arg(threads.to_string())
        .env("ROUTERGEO_SCALE", "tiny")
        .env("ROUTERGEO_SEED", "20170301")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("repro spawns");
    assert!(status.success(), "repro exited with {status}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    text
}

/// The deterministic metric lines of a trace: counters and histograms,
/// in registration (= render) order. Span lines carry wall-clock times
/// and are excluded by construction.
fn metric_lines(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| l.contains("\"type\":\"counter\"") || l.contains("\"type\":\"histogram\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn tiny_obs_trace_passes_check_and_metrics_match_across_thread_counts() {
    let serial = traced_run(1, "trace");
    let parallel = traced_run(4, "trace");

    for (label, trace) in [("1 thread", &serial), ("4 threads", &parallel)] {
        let report = check::parse(trace).unwrap_or_else(|e| panic!("{label}: {e}"));
        let violations = check::verify(&report);
        assert!(
            violations.is_empty(),
            "{label}: trace violates invariants: {violations:#?}"
        );

        // The trace must cover the pipeline: at least 5 distinct
        // `stage.*` spans (world, topology, ark, atlas_rtt,
        // ground_truth, vendor_dbs, plus the per-experiment stages).
        let stages: Vec<String> = report
            .span_names()
            .into_iter()
            .filter(|n| n.starts_with("stage."))
            .collect();
        assert!(
            stages.len() >= 5,
            "{label}: only {} stage spans: {stages:?}",
            stages.len()
        );
        // Every experiment of the pooled tail is its own stage.
        for tail in [
            "arin",
            "validate",
            "method",
            "majority",
            "endpoints",
            "cbg",
            "hloc",
            "temporal",
        ] {
            let stage = format!("stage.{tail}");
            assert!(stages.contains(&stage), "{label}: no {stage} span");
        }

        // The cymru socket exercise must be visible: requests made, the
        // per-address identity populated, and the degraded counter
        // registered (zero against a healthy in-process server).
        let requested = report
            .counter("cymru.addrs_requested")
            .expect("cymru.addrs_requested counter");
        assert!(requested > 0, "{label}: no bulk-whois requests traced");
        assert!(report.counter("cymru.retries").is_some(), "{label}");
        assert!(report.counter("cymru.chunks").is_some(), "{label}");
        assert_eq!(
            report.counter("gt.rir_degraded"),
            Some(0),
            "{label}: healthy server must not degrade"
        );

        // The pool fan-out is traced with matching plan/run totals.
        let planned = report
            .counter("pool.shards_planned")
            .expect("pool.shards_planned counter");
        assert!(planned > 0, "{label}: no shards traced");
        assert_eq!(report.counter("pool.shards_run"), Some(planned));
    }

    // Metric totals — counters and histogram buckets — are rendered in
    // registration order and must be byte-identical at any thread
    // count; only span timings may differ between the two traces.
    assert_eq!(
        metric_lines(&serial),
        metric_lines(&parallel),
        "metric snapshot must not depend on the thread count"
    );
}
