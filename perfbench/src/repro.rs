//! `repro-tenth`: build the lab at tenth scale and run every experiment
//! `repro all` runs, rendering the report in memory.

use crate::clock::{Clock, Tracer};
use crate::stats::median;
use crate::{Measured, Run};
use routergeo_bench::{experiments as exp, Lab, LabConfig};
use routergeo_core::groundtruth::{GroundTruth, GtMethod};
use routergeo_core::ResolvedView;
use routergeo_cymru::MappingService;
use routergeo_db::synth::{build_vendor_with, SignalWorld, VendorProfile};
use routergeo_dns::RuleEngine;
use routergeo_gazetteer::Gazetteer;
use routergeo_rtt::{build_dataset, ProximityConfig};
use routergeo_trace::{ArkCampaign, ArkConfig, AtlasBuiltins, AtlasConfig, Topology};
use routergeo_world::{Scale, World, WorldConfig};

/// Worker threads for the lab's pool (the benchmark host's core count
/// when the baseline was recorded; fixed so runs compare across hosts).
pub const THREADS: usize = 2;

/// FNV-1a digest of the rendered report at [`crate::DEFAULT_SEED`]. It
/// equals the digest of `repro all`'s standard output at tenth scale;
/// the reproduction must not change what it prints.
pub const DEFAULT_DIGEST: u64 = 0x6326_dd73_b276_ffc2;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn config(seed: u64) -> LabConfig {
    let mut config = LabConfig::new(seed, Scale::Tenth);
    config.threads = Some(THREADS);
    config
}

/// Counts gathered next to the spans of a traced run.
type Counts = Vec<(&'static str, f64)>;

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// [`Lab::build`] as separate timed calls into each layer, in the same
/// order and with the same arguments, so the lab is identical.
fn build_traced(config: LabConfig, tr: &mut Tracer, counts: &mut Counts) -> Lab {
    let pool = config.pool();
    let seed = config.seed;
    let world = tr.span("world.generate_s", || {
        World::generate(WorldConfig::new(seed, config.scale))
    });
    let topo = tr.span("trace.topology_s", || Topology::build(&world));

    let campaign = tr.span("trace.ark_trees_s", || {
        ArkCampaign::new(
            &world,
            &topo,
            ArkConfig {
                seed: seed ^ 0xA4C,
                monitors: config.ark_monitors,
                traceroutes: config.ark_traceroutes,
            },
        )
    });
    let ark = tr.span("trace.ark_extract_s", || {
        campaign.extract_dataset_with(&pool)
    });
    counts.push(("trace.ark_trees", campaign.monitor_count() as f64));
    drop(campaign);
    counts.push(("trace.ark_traceroutes", ark.traceroutes_run as f64));
    counts.push(("trace.ark_interfaces", ark.len() as f64));
    counts.push((
        "trace.ark_interfaces_per_traceroute",
        ratio(ark.len(), ark.traceroutes_run),
    ));

    let atlas_config = |salt: u64| AtlasConfig {
        seed: seed ^ salt,
        targets: config.atlas_targets,
        instances_per_target: config.atlas_instances,
    };
    let atlas = tr.span("trace.atlas_trees_s", || {
        AtlasBuiltins::new(&world, &topo, atlas_config(0xA71A5))
    });
    let records = tr.span("trace.atlas_run_s", || atlas.run());
    let mut atlas_trees = atlas.target_count() * config.atlas_instances;
    drop(atlas);
    let (rtt, qa) = tr.span("rtt.dataset_s", || {
        build_dataset(&world, &records, &config.proximity)
    });
    let atlas_1ms = tr.span("trace.atlas_trees_s", || {
        AtlasBuiltins::new(&world, &topo, atlas_config(0x16_1A5))
    });
    let records_1ms = tr.span("trace.atlas_run_s", || atlas_1ms.run());
    atlas_trees += atlas_1ms.target_count() * config.atlas_instances;
    drop(atlas_1ms);
    let onems = ProximityConfig {
        threshold_ms: 1.0,
        centroid_radius_km: 0.0,
        nearby_max_km: f64::MAX,
        ..config.proximity.clone()
    };
    let (rtt_1ms, _) = tr.span("rtt.dataset_s", || {
        build_dataset(&world, &records_1ms, &onems)
    });
    counts.push(("trace.atlas_trees", atlas_trees as f64));
    counts.push((
        "trace.atlas_records",
        (records.len() + records_1ms.len()) as f64,
    ));
    drop(records_1ms);

    let engine = tr.span("dns.rules_s", || RuleEngine::with_gt_rules(&world));
    let whois = tr.span("cymru.mapping_s", || MappingService::build(&world));
    let gt = tr.span("core.ground_truth_s", || {
        let dns = GroundTruth::dns_based(&world, &engine, &whois, config.dns_gt_scale);
        GroundTruth::combine(dns, GroundTruth::from_rtt(&rtt, &whois))
    });
    let dbs = tr.span("db.vendor_synth_s", || {
        let signals = SignalWorld::new(&world);
        VendorProfile::all_presets()
            .iter()
            .map(|p| build_vendor_with(&signals, p, &pool))
            .collect()
    });
    let gazetteer = tr.span("gazetteer.build_s", || {
        Gazetteer::from_world(&world, seed ^ 0x6E0, 3.0)
    });
    Lab {
        config,
        world,
        dbs,
        whois,
        engine,
        ark,
        rtt,
        rtt_1ms,
        qa,
        atlas_records: records,
        gt,
        gazetteer,
        pool,
    }
}

/// Appends tables exactly as `repro` prints them (`println!` of each
/// rendered table).
struct Report(String);

impl Report {
    fn table(&mut self, t: &routergeo_core::report::TextTable) {
        self.line(&t.render());
    }

    fn line(&mut self, s: &str) {
        self.0.push_str(s);
        self.0.push('\n');
    }
}

/// Answered (IP, database) pairs of `view` and their share of lookups.
fn view_counts(view: &ResolvedView) -> (usize, f64) {
    let lookups = view.len() * view.db_count();
    let hits: usize = (0..view.db_count())
        .map(|d| view.column(d).iter().filter(|r| r.is_some()).count())
        .sum();
    (lookups, ratio(hits, lookups))
}

/// Everything `repro all` prints, in its order, plus the structural
/// invariants that hold at any seed. Returns the report and the
/// invariant violations found.
fn render(lab: &Lab, tr: &mut Tracer, counts: &mut Counts) -> (String, Vec<String>) {
    let mut out = Report(String::new());
    let mut bad = Vec::new();

    let (_, _, t) = tr.span("experiments.table1_s", || exp::table1(lab));
    out.table(&t);

    let ark_view = tr.span("core.resolve_ark_s", || exp::ark_view(lab));
    let (lookups, hit_frac) = view_counts(&ark_view);
    counts.push(("core.resolve_ark_lookups", lookups as f64));
    counts.push(("core.resolve_ark_hit_frac", hit_frac));
    let (coverage, t) = tr.span("core.coverage_s", || exp::ark_coverage_from(&ark_view));
    out.table(&t);
    for r in &coverage {
        for c in [r.country_coverage(), r.city_coverage()] {
            if !(0.0..=1.0).contains(&c) {
                bad.push(format!("{} coverage {c} outside [0, 1]", r.database));
            }
        }
    }
    let (_, tables) = tr.span("core.consistency_s", || {
        exp::ark_consistency_from(&ark_view)
    });
    for t in tables.iter().take(2) {
        out.table(t);
    }
    drop(ark_view);

    let gt_view = tr.span("core.resolve_gt_s", || exp::gt_view(lab));
    let (lookups, hit_frac) = view_counts(&gt_view);
    counts.push(("core.resolve_gt_lookups", lookups as f64));
    counts.push(("core.resolve_gt_hit_frac", hit_frac));
    let (report, tables) = tr.span("core.accuracy_s", || exp::gt_accuracy_from(lab, &gt_view));
    if let Some(t) = tables.first() {
        out.table(t);
    }
    tr.span("experiments.fig3_s", || out.table(&exp::fig3(&report)));
    tr.span("experiments.fig4_s", || {
        let (common_wrong, t) = exp::fig4_from(lab, &gt_view, &report);
        out.table(&t);
        out.line(&format!(
            "S5.2.2: the three registry-fed databases agree on the same wrong country \
             for {common_wrong} ground-truth addresses\n"
        ));
    });
    tr.span("experiments.fig5_s", || {
        for t in exp::fig5(&report) {
            out.table(&t);
        }
    });
    tr.span("experiments.split_s", || {
        out.table(&exp::method_split(&report))
    });
    tr.span("experiments.recommend_s", || {
        out.line(&exp::recommend(&report))
    });
    drop(gt_view);

    tr.span("experiments.arin_s", || out.table(&exp::arin(lab).1));
    tr.span("experiments.validate_s", || {
        for t in exp::validation(lab).2 {
            out.table(&t);
        }
    });
    tr.span("experiments.method_s", || {
        out.table(&exp::methodology(lab).1)
    });
    tr.span("experiments.majority_s", || out.table(&exp::majority(lab)));
    tr.span("experiments.endpoints_s", || {
        out.table(&exp::endpoints(lab))
    });
    tr.span("experiments.cbg_s", || out.table(&exp::cbg(lab)));
    tr.span("experiments.hloc_s", || out.table(&exp::hloc(lab)));
    tr.span("experiments.temporal_s", || {
        let (drift, acc) = exp::temporal(lab);
        out.table(&drift);
        out.table(&acc);
    });

    let dns = lab.gt.of_method(GtMethod::DnsBased).count();
    if lab.gt.len() + lab.gt.overlap.len() != dns + lab.rtt.len() {
        bad.push(format!(
            "GT {} != DNS {dns} + RTT {} - overlap {}",
            lab.gt.len(),
            lab.rtt.len(),
            lab.gt.overlap.len()
        ));
    }
    if lab.ark.is_empty() {
        bad.push("the Ark interface set is empty".to_string());
    }
    (out.0, bad)
}

/// One `repro all` at tenth scale.
struct ReproPass {
    setup_s: f64,
    repro_s: f64,
    digest: u64,
    violations: Vec<String>,
    tracer: Tracer,
    counts: Counts,
}

fn repro_once(seed: u64, traced: bool) -> ReproPass {
    let mut tracer = Tracer::new(traced);
    let mut counts = Counts::new();
    let clock = Clock::start();
    let lab = if traced {
        build_traced(config(seed), &mut tracer, &mut counts)
    } else {
        Lab::build(config(seed))
    };
    let setup_s = clock.secs();
    let (report, violations) = render(&lab, &mut tracer, &mut counts);
    let repro_s = clock.secs();
    let digest = fnv1a(report.as_bytes());
    ReproPass {
        setup_s,
        repro_s,
        digest,
        violations,
        tracer,
        counts,
    }
}

/// Runs `repro all` passes for `seconds` (at least three; a traced run
/// alternates untraced and traced passes) and checks every report.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut untraced: Vec<ReproPass> = Vec::new();
    let mut traced: Vec<ReproPass> = Vec::new();
    // Peak memory of one `repro all` in a fresh process, as a user runs
    // it; later passes only add allocator fragmentation.
    let mut peak_rss_mib = None;
    let clock = Clock::start();
    while untraced.len() + traced.len() < 3 || clock.secs() < seconds {
        let trace_this = trace && untraced.len() > traced.len();
        let pass = repro_once(seed, trace_this);
        if peak_rss_mib.is_none() {
            peak_rss_mib = Some(crate::peak_rss_mib());
        }
        if trace_this {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    for pass in untraced.iter().chain(&traced) {
        let mut bad = pass.violations.clone();
        if seed == crate::DEFAULT_SEED && pass.digest != DEFAULT_DIGEST {
            bad.push(format!(
                "report digest {:016x} != recorded {DEFAULT_DIGEST:016x}",
                pass.digest
            ));
        }
        if pass.digest != untraced[0].digest {
            bad.push(format!(
                "report digest {:016x} differs from the first pass's {:016x}",
                pass.digest, untraced[0].digest
            ));
        }
        failed += u64::from(!bad.is_empty());
        failures.extend(bad);
    }
    let attempted = (untraced.len() + traced.len()) as u64;

    let col = |passes: &[ReproPass], f: fn(&ReproPass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut metrics: Measured = vec![
        ("setup_s", col(&untraced, |p| p.setup_s)),
        ("run_s", col(&untraced, |p| p.repro_s)),
        ("peak_rss_mib", peak_rss_mib.unwrap_or(f64::NAN)),
    ];
    if let Some(last) = traced.last() {
        for (name, _) in last.tracer.spans() {
            let v: Vec<f64> = traced
                .iter()
                .filter_map(|p| p.tracer.spans().iter().find(|(n, _)| n == name))
                .map(|(_, s)| *s)
                .collect();
            metrics.push((*name, median(&v).unwrap_or(0.0)));
        }
        metrics.extend(last.counts.iter().copied());
        let traced_s = col(&traced, |p| p.repro_s);
        metrics.push(("repro.traced_s", traced_s));
        metrics.push((
            "unattributed_s",
            col(&traced, |p| p.repro_s - p.tracer.total()),
        ));
        metrics.push(("trace_overhead_s", traced_s - col(&untraced, |p| p.repro_s)));
    }
    Run {
        failures,
        attempted,
        failed,
        metrics,
    }
}
