//! Serial reference versions of the experiment tail: the one-thread,
//! one-address-at-a-time loops that the pooled, resolve-once code
//! replaced, kept only as test oracles.
//!
//! [`assert_tail_matches`] runs every tail computation both ways on one
//! lab and demands equal results: the HLOC verdicts, the CBG estimates
//! and database errors, the majority and endpoint scores, the §4
//! methodology tables, the temporal drift and accuracy, and the churn
//! tallies. Tiny labs at several seeds run in `cargo test`; the
//! tenth-scale lab the benchmark pins runs with `--ignored`.

use crate::experiments as exp;
use crate::{Lab, LabConfig};
use routergeo_core::accuracy::{self, VendorAccuracy};
use routergeo_core::endpoint::{endpoint_ground_truth, routers_vs_endpoints, EndpointComparison};
use routergeo_core::groundtruth::{GroundTruth, GtMethod};
use routergeo_core::hloc::{verify_location, HintVerdict, HlocReport};
use routergeo_core::majority::{compare_against_majority, majority_location, MajorityComparison};
use routergeo_core::methodology::MethodologyReport;
use routergeo_core::validation::ChurnStats;
use routergeo_db::diff::{AnswerChange, DiffReport};
use routergeo_db::{GeoDatabase, LocationRecord};
use routergeo_dns::rules::geolocate_interface;
use routergeo_dns::{ChurnConfig, ChurnModel, ChurnOutcome, RuleEngine};
use routergeo_gazetteer::Gazetteer;
use routergeo_geo::{EmpiricalCdf, CITY_RANGE_KM};
use routergeo_pool::Pool;
use routergeo_rtt::cbg::{estimate, evaluate_cbg, CbgEstimate, Constraint};
use routergeo_trace::TracerouteRecord;
use routergeo_world::{InterfaceId, Scale, World};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-target constraints, collected in one pass over the records.
fn collect_constraints(
    world: &World,
    records: &[TracerouteRecord],
    max_rtt_ms: f64,
) -> HashMap<Ipv4Addr, Vec<Constraint>> {
    let mut out: HashMap<Ipv4Addr, Vec<Constraint>> = HashMap::new();
    for rec in records {
        let probe = &world.probes[rec.origin_id as usize];
        for hop in &rec.hops {
            let (Some(ip), Some(rtt)) = (hop.ip, hop.rtt_ms) else {
                continue;
            };
            if rtt > max_rtt_ms || ip == rec.dst_ip {
                continue;
            }
            if world.find_interface(ip).is_none() {
                continue;
            }
            out.entry(ip)
                .or_default()
                .push(Constraint::from_rtt(probe.registered_coord, rtt));
        }
    }
    for constraints in out.values_mut() {
        constraints.sort_by(|a, b| a.radius_km.total_cmp(&b.radius_km));
        constraints.truncate(8);
    }
    out
}

/// One HLOC pass over every interface, with its own constraint map.
fn verify_hints(
    world: &World,
    engine: &RuleEngine,
    records: &[TracerouteRecord],
    max_rtt_ms: f64,
    slack_km: f64,
    hostname_of: Option<&dyn Fn(InterfaceId) -> Option<String>>,
) -> HlocReport {
    let constraints = collect_constraints(world, records, max_rtt_ms);
    let mut report = HlocReport::default();
    for (i, iface) in world.interfaces.iter().enumerate() {
        let id = InterfaceId::from_index(i);
        let decoded = match hostname_of {
            Some(f) => f(id).and_then(|name| engine.decode(&name)),
            None => geolocate_interface(world, engine, id),
        };
        let Some(city) = decoded else { continue };
        report.decoded += 1;
        let cs = constraints.get(&iface.ip).map(Vec::as_slice).unwrap_or(&[]);
        match verify_location(&world.city(city).coord, cs, slack_km) {
            HintVerdict::Confirmed => report.confirmed += 1,
            HintVerdict::Refuted => {
                report.refuted += 1;
                report.refuted_addrs.push(iface.ip);
            }
            HintVerdict::Unverifiable => report.unverifiable += 1,
        }
    }
    report.refuted_addrs.sort();
    report
}

/// The HLOC experiment's two passes: fresh hostnames, then churned ones.
fn hloc_reports(lab: &Lab) -> Vec<HlocReport> {
    let model = ChurnModel::new(&lab.world, ChurnConfig::default());
    let churned = |id: InterfaceId| -> Option<String> {
        match model.evolve(id) {
            ChurnOutcome::Same(h)
            | ChurnOutcome::RenamedSameLocation(h)
            | ChurnOutcome::HintLost(h)
            | ChurnOutcome::Moved(h, _) => Some(h),
            ChurnOutcome::Gone => None,
        }
    };
    let records = &lab.atlas_records;
    vec![
        verify_hints(&lab.world, &lab.engine, records, 20.0, 30.0, None),
        verify_hints(&lab.world, &lab.engine, records, 20.0, 30.0, Some(&churned)),
    ]
}

/// Serial CBG over the constraint map, sorted by address.
fn cbg_results(lab: &Lab) -> Vec<(Ipv4Addr, CbgEstimate, f64)> {
    let mut out = Vec::new();
    for (ip, constraints) in collect_constraints(&lab.world, &lab.atlas_records, 20.0) {
        if constraints.len() < 2 {
            continue;
        }
        let Some(est) = estimate(&constraints) else {
            continue;
        };
        let Some(router) = lab.world.router_of_ip(ip) else {
            continue;
        };
        out.push((ip, est, est.coord.distance_km(&router.coord)));
    }
    out.sort_by_key(|(ip, _, _)| *ip);
    out
}

/// The CBG table's database errors, one `lookup` per (database, target).
fn cbg_db_errors(lab: &Lab, results: &[(Ipv4Addr, CbgEstimate, f64)]) -> Vec<Vec<f64>> {
    lab.dbs
        .iter()
        .map(|db| {
            let mut errs = Vec::new();
            for (ip, _, _) in results {
                let Some(rec) = db.lookup(*ip) else { continue };
                if !rec.has_city() {
                    continue;
                }
                let router = lab.world.router_of_ip(*ip).expect("interface");
                errs.push(rec.coord.expect("city").distance_km(&router.coord));
            }
            errs
        })
        .collect()
}

/// Majority scoring with one `majority_location` and one `lookup` per
/// database for every ground-truth address.
fn majority(dbs: &[routergeo_db::InMemoryDb], gt: &GroundTruth) -> Vec<MajorityComparison> {
    let mut out: Vec<MajorityComparison> = dbs
        .iter()
        .map(|d| MajorityComparison {
            database: d.name().to_string(),
            scored: 0,
            agrees_with_majority: 0,
            correct_per_truth: 0,
            agree_but_wrong: 0,
        })
        .collect();
    for e in &gt.entries {
        let Some(maj_cc) = majority_location(dbs, e.ip).country else {
            continue;
        };
        for (i, db) in dbs.iter().enumerate() {
            let Some(cc) = db.lookup(e.ip).and_then(|r| r.country) else {
                continue;
            };
            out[i].scored += 1;
            let agrees = cc == maj_cc;
            let correct = cc == e.country;
            out[i].agrees_with_majority += usize::from(agrees);
            out[i].correct_per_truth += usize::from(correct);
            out[i].agree_but_wrong += usize::from(agrees && !correct);
        }
    }
    out
}

/// Router and endpoint accuracy, each population resolved per database
/// on a one-thread pool.
fn endpoints(lab: &Lab, sample: usize) -> Vec<EndpointComparison> {
    let hosts = endpoint_ground_truth(&lab.world, sample);
    let serial = Pool::serial();
    lab.dbs
        .iter()
        .map(|db| EndpointComparison {
            database: db.name().to_string(),
            routers: accuracy::evaluate_entries_with(db, &lab.gt.entries, &serial),
            endpoints: accuracy::evaluate_entries_with(db, &hosts, &serial),
        })
        .collect()
}

/// The §4 checks with one `lookup` per (address, database).
fn methodology_checks(
    dbs: &[routergeo_db::InMemoryDb],
    gazetteer: &Gazetteer,
    ips: &[Ipv4Addr],
) -> MethodologyReport {
    type CityTable = HashMap<(String, routergeo_geo::CountryCode), routergeo_geo::Coordinate>;
    let mut per_db_cities: Vec<CityTable> = vec![HashMap::new(); dbs.len()];
    for ip in ips {
        for (i, db) in dbs.iter().enumerate() {
            let Some(rec) = db.lookup(*ip) else { continue };
            if !rec.has_city() {
                continue;
            }
            let (Some(city), Some(country), Some(coord)) = (rec.city, rec.country, rec.coord)
            else {
                continue;
            };
            per_db_cities[i].entry((city, country)).or_insert(coord);
        }
    }
    let gazetteer_check = dbs
        .iter()
        .zip(&per_db_cities)
        .map(|(db, cities)| {
            let (mut total, mut ok) = (0, 0);
            for ((city, country), coord) in cities {
                if let Some(entry) = gazetteer.lookup(city, None, *country) {
                    total += 1;
                    ok += usize::from(coord.distance_km(&entry.coord) <= CITY_RANGE_KM);
                }
            }
            (db.name().to_string(), total, ok)
        })
        .collect();
    let mut cross_db_check = Vec::new();
    for i in 0..dbs.len() {
        for j in i + 1..dbs.len() {
            let (mut total, mut ok) = (0, 0);
            for (key, a) in &per_db_cities[i] {
                if let Some(b) = per_db_cities[j].get(key) {
                    total += 1;
                    ok += usize::from(a.distance_km(b) <= CITY_RANGE_KM);
                }
            }
            cross_db_check.push((
                dbs[i].name().to_string(),
                dbs[j].name().to_string(),
                total,
                ok,
            ));
        }
    }
    MethodologyReport {
        gazetteer_check,
        cross_db_check,
    }
}

/// Classify one address's answers in two snapshots, as owned records.
fn classify(a: Option<LocationRecord>, b: Option<LocationRecord>) -> (AnswerChange, Option<f64>) {
    match (a, b) {
        (None, None) => (AnswerChange::Unchanged, None),
        (None, Some(_)) => (AnswerChange::Added, None),
        (Some(_), None) => (AnswerChange::Removed, None),
        (Some(a), Some(b)) => {
            let moved = match (a.coord, b.coord) {
                (Some(ca), Some(cb)) => Some(ca.distance_km(&cb)),
                _ => None,
            };
            if a == b {
                (AnswerChange::Unchanged, moved)
            } else if a.country != b.country {
                (AnswerChange::CountryChanged, moved)
            } else if moved.is_some_and(|d| d > CITY_RANGE_KM) {
                (AnswerChange::CityMoved, moved)
            } else {
                (AnswerChange::MinorChange, moved)
            }
        }
    }
}

/// Snapshot drift with one `lookup` per (address, snapshot).
fn diff_databases(
    old: &routergeo_db::InMemoryDb,
    new: &routergeo_db::InMemoryDb,
    ips: &[Ipv4Addr],
) -> DiffReport {
    let mut counts: HashMap<AnswerChange, usize> = HashMap::new();
    let mut moves = Vec::new();
    for ip in ips {
        let (change, moved) = classify(old.lookup(*ip), new.lookup(*ip));
        moves.extend(moved.filter(|d| *d > 0.0));
        *counts.entry(change).or_default() += 1;
    }
    let count = |c| counts.get(&c).copied().unwrap_or(0);
    DiffReport {
        database: old.name().to_string(),
        total: ips.len(),
        unchanged: count(AnswerChange::Unchanged),
        added: count(AnswerChange::Added),
        removed: count(AnswerChange::Removed),
        country_changed: count(AnswerChange::CountryChanged),
        city_moved: count(AnswerChange::CityMoved),
        minor: count(AnswerChange::MinorChange),
        move_cdf: EmpiricalCdf::from_iter_lossy(moves).0,
    }
}

/// The temporal experiment: per-database drift, then the overall
/// accuracy of the current and the re-released snapshots, each from a
/// full accuracy report.
fn temporal_results(lab: &Lab) -> (Vec<DiffReport>, Vec<VendorAccuracy>) {
    use routergeo_db::synth::{build_vendor_with, SignalWorld, VendorProfile};
    let signals = SignalWorld::new(&lab.world);
    let later: Vec<_> = VendorProfile::all_presets()
        .into_iter()
        .map(|p| build_vendor_with(&signals, &p.at_epoch(1), &Pool::serial()))
        .collect();
    let ips: Vec<Ipv4Addr> = lab.gt.entries.iter().map(|e| e.ip).collect();
    let drifts = lab
        .dbs
        .iter()
        .zip(&later)
        .map(|(old, new)| diff_databases(old, new, &ips))
        .collect();
    let serial = Pool::serial();
    let mut overall = accuracy::evaluate_with(&lab.dbs, &lab.gt, 5, &serial).overall;
    overall.extend(accuracy::evaluate_with(&later, &lab.gt, 5, &serial).overall);
    (drifts, overall)
}

/// One-pass churn tallies over the DNS-based ground truth.
fn churn_stats(lab: &Lab) -> ChurnStats {
    let model = ChurnModel::new(&lab.world, ChurnConfig::default());
    let mut stats = ChurnStats::default();
    for e in lab.gt.of_method(GtMethod::DnsBased) {
        let Some(iface) = lab.world.find_interface(e.ip) else {
            continue;
        };
        stats.total += 1;
        let renamed = |name: String, stats: &mut ChurnStats| match lab.engine.decode(&name) {
            Some(city) if lab.world.city(city).coord == e.coord => stats.changed_same_location += 1,
            Some(_) => stats.changed_moved += 1,
            None => stats.changed_hint_lost += 1,
        };
        match model.evolve(iface) {
            ChurnOutcome::Same(_) => stats.same += 1,
            ChurnOutcome::Gone => stats.gone += 1,
            ChurnOutcome::RenamedSameLocation(name) => renamed(name, &mut stats),
            ChurnOutcome::Moved(name, _) => renamed(name, &mut stats),
            ChurnOutcome::HintLost(_) => stats.changed_hint_lost += 1,
        }
    }
    stats
}

/// Every tail computation on `lab` equals its serial reference.
fn assert_tail_matches(lab: &Lab) {
    let seed = lab.config.seed;
    assert_eq!(
        exp::hloc_reports(lab),
        hloc_reports(lab),
        "hloc, seed {seed}"
    );

    let results = evaluate_cbg(&lab.world, &lab.atlas_records, 20.0, 2, &lab.pool);
    assert_eq!(results, cbg_results(lab), "cbg estimates, seed {seed}");
    assert_eq!(
        exp::cbg_db_errors(lab, &results),
        cbg_db_errors(lab, &results),
        "cbg database errors, seed {seed}"
    );

    assert_eq!(
        compare_against_majority(&lab.dbs, &lab.gt, &lab.pool),
        majority(&lab.dbs, &lab.gt),
        "majority, seed {seed}"
    );
    assert_eq!(
        routers_vs_endpoints(&lab.dbs, &lab.world, &lab.gt, 5_000, &lab.pool),
        endpoints(lab, 5_000),
        "endpoints, seed {seed}"
    );
    let sample = exp::methodology_sample(lab);
    assert_eq!(
        exp::methodology(lab).0,
        methodology_checks(&lab.dbs, &lab.gazetteer, &sample),
        "methodology, seed {seed}"
    );
    assert_eq!(
        exp::temporal_results(lab),
        temporal_results(lab),
        "temporal, seed {seed}"
    );
    assert_eq!(
        exp::validation(lab).1,
        churn_stats(lab),
        "churn, seed {seed}"
    );
}

fn lab_at(seed: u64, scale: Scale) -> Lab {
    let mut config = LabConfig::new(seed, scale);
    config.threads = Some(2);
    Lab::build(config)
}

#[test]
fn tail_matches_reference_on_tiny_seeds() {
    for seed in [1, 7, 42, 777, 20_170_301] {
        assert_tail_matches(&lab_at(seed, Scale::Tiny));
    }
}

#[test]
#[ignore = "tenth-scale lab; run with --ignored in release"]
fn tail_matches_reference_at_tenth_scale() {
    assert_tail_matches(&lab_at(20_170_301, Scale::Tenth));
}
