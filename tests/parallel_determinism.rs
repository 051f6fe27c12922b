//! Integration: the full Tiny-scale report is byte-identical at every
//! thread count. This is the contract behind `routergeo_pool`'s sharded
//! map-reduce — shard boundaries and per-shard seeds depend only on the
//! input, never on how many workers drain the shard queue, and results
//! merge in shard order. CI runs this as its determinism gate.

use routergeo::world::Scale;
use routergeo_bench::{experiments as exp, Lab, LabConfig};

/// Render every parallelised artifact — Table 1, coverage, consistency
/// (with the Figure 1 CDFs), the full accuracy report, and the experiment
/// tail (ARIN, validation, methodology, majority, endpoints, CBG, HLOC,
/// temporal) — into one string for byte comparison.
fn full_report(threads: usize) -> String {
    let mut config = LabConfig::new(20_170_301, Scale::Tiny);
    config.threads = Some(threads);
    let lab = Lab::build(config);
    assert_eq!(lab.pool.threads(), threads);

    let mut out = String::new();
    let (_, _, t) = exp::table1(&lab);
    out.push_str(&t.render());
    let (_, t) = exp::ark_coverage(&lab);
    out.push_str(&t.render());
    let (_, tables) = exp::ark_consistency(&lab);
    for t in &tables {
        out.push_str(&t.render());
    }
    let (_, tables) = exp::gt_accuracy(&lab);
    for t in &tables {
        out.push_str(&t.render());
    }
    out.push_str(&exp::arin(&lab).1.render());
    for t in &exp::validation(&lab).2 {
        out.push_str(&t.render());
    }
    out.push_str(&exp::methodology(&lab).1.render());
    out.push_str(&exp::majority(&lab).render());
    out.push_str(&exp::endpoints(&lab).render());
    out.push_str(&exp::cbg(&lab).render());
    out.push_str(&exp::hloc(&lab).render());
    let (drift, acc) = exp::temporal(&lab);
    out.push_str(&drift.render());
    out.push_str(&acc.render());
    out
}

#[test]
fn tiny_report_is_byte_identical_across_thread_counts() {
    let serial = full_report(1);
    assert!(serial.len() > 1_000, "report suspiciously short:\n{serial}");
    for threads in [2, 8] {
        let parallel = full_report(threads);
        assert_eq!(
            serial, parallel,
            "report bytes differ between 1 and {threads} threads"
        );
    }
}
