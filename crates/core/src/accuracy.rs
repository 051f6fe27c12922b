//! Accuracy against ground truth (§5.2, Figures 2–5).
//!
//! Every breakdown slice is tallied from pre-resolved [`ResolvedView`]
//! columns — never the allocating `GeoDatabase::lookup` (enforced by
//! lint RG009). The view is built once over the ground-truth addresses;
//! the per-slice tallies are cheap serial passes that visit entries in
//! ground-truth order, so the Figure 2/5 CDFs see the exact sample
//! sequence the old per-slice re-query path produced.

use crate::groundtruth::{GroundTruth, GtEntry, GtMethod};
use crate::resolve::ResolvedView;
use routergeo_db::GeoDatabase;
use routergeo_geo::stats::ratio;
use routergeo_geo::{CountryCode, EmpiricalCdf, Rir, CITY_RANGE_KM};
use routergeo_pool::Pool;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Accuracy of one database over one set of ground-truth entries.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorAccuracy {
    /// Database name.
    pub database: String,
    /// Ground-truth entries evaluated.
    pub total: usize,
    /// Entries the database has a country for.
    pub country_covered: usize,
    /// Of those, entries where the country matches the ground truth.
    pub country_correct: usize,
    /// Entries the database answers at city level.
    pub city_covered: usize,
    /// Of those, entries within the 40 km city range of the ground truth.
    pub city_correct: usize,
    /// Geolocation-error samples (km) for the city-covered entries —
    /// the Figure 2 CDF for this database.
    pub error_cdf: EmpiricalCdf,
    /// NaN error samples dropped while building [`VendorAccuracy::error_cdf`].
    /// Structurally 0 on healthy runs (errors are great-circle
    /// distances); a non-zero count is surfaced as a figure footer so a
    /// shrunken denominator is never silent.
    pub dropped_nan: usize,
}

impl VendorAccuracy {
    /// Country coverage fraction.
    pub fn country_coverage(&self) -> f64 {
        ratio(self.country_covered, self.total)
    }

    /// Country accuracy among covered entries.
    pub fn country_accuracy(&self) -> f64 {
        ratio(self.country_correct, self.country_covered)
    }

    /// City coverage fraction.
    pub fn city_coverage(&self) -> f64 {
        ratio(self.city_covered, self.total)
    }

    /// City accuracy (≤ 40 km) among city-covered entries.
    pub fn city_accuracy(&self) -> f64 {
        ratio(self.city_correct, self.city_covered)
    }
}

/// Tally one database column over one slice of ground-truth entries.
/// `picks` pairs each entry with its row index in the view; iteration
/// order is the slice order, so the error CDF sample sequence matches
/// the serial loop over the same filter.
pub(crate) fn evaluate_slice(
    view: &ResolvedView,
    db: usize,
    picks: &[(usize, &GtEntry)],
) -> VendorAccuracy {
    let mut span = routergeo_obs::span!(
        "core.accuracy",
        database = view.databases()[db],
        entries = picks.len()
    );
    routergeo_obs::counter("accuracy.entries").add(picks.len() as u64);

    let mut total = 0usize;
    let mut country_covered = 0usize;
    let mut country_correct = 0usize;
    let mut city_covered = 0usize;
    let mut city_correct = 0usize;
    let mut errors = Vec::new();
    for (row, e) in picks {
        total += 1;
        let Some(rec) = view.record(db, *row) else {
            continue;
        };
        if let Some(cc) = rec.country {
            country_covered += 1;
            if cc == e.country {
                country_correct += 1;
            }
        }
        if rec.has_city() {
            city_covered += 1;
            let d = rec
                .coord
                .expect("has_city implies coord")
                .distance_km(&e.coord);
            errors.push(d);
            if d <= CITY_RANGE_KM {
                city_correct += 1;
            }
        }
    }

    let error_km = routergeo_obs::histogram("accuracy.error_km");
    for e in &errors {
        if e.is_finite() && *e >= 0.0 {
            // Rounded km in log2 buckets: a deterministic quantity, so
            // the metrics snapshot stays byte-identical across thread
            // counts (entries are visited in ground-truth order).
            error_km.record(e.round() as u64);
        }
    }
    let (error_cdf, dropped_nan) = EmpiricalCdf::from_iter_lossy(errors);
    span.attr("city_covered", city_covered);
    VendorAccuracy {
        database: view.databases()[db].clone(),
        total,
        country_covered,
        country_correct,
        city_covered,
        city_correct,
        error_cdf,
        dropped_nan,
    }
}

/// Evaluate one database over a set of ground-truth entries. Thread
/// count from the environment ([`Pool::from_env`]).
pub fn evaluate_entries<'a, D: GeoDatabase + Sync>(
    db: &D,
    entries: impl IntoIterator<Item = &'a GtEntry>,
) -> VendorAccuracy {
    evaluate_entries_with(db, entries, &Pool::from_env())
}

/// [`evaluate_entries`] on an explicit pool: the entries are resolved
/// once into a single-database [`ResolvedView`] and tallied from the
/// column in entry order, so the Figure 2 CDF sees the same sample
/// sequence the serial loop would produce.
pub fn evaluate_entries_with<'a, D: GeoDatabase + Sync>(
    db: &D,
    entries: impl IntoIterator<Item = &'a GtEntry>,
    pool: &Pool,
) -> VendorAccuracy {
    let list: Vec<&GtEntry> = entries.into_iter().collect();
    let ips: Vec<Ipv4Addr> = list.iter().map(|e| e.ip).collect();
    let view = ResolvedView::build_with(std::slice::from_ref(db), &ips, pool);
    let picks: Vec<(usize, &GtEntry)> = list.into_iter().enumerate().collect();
    evaluate_slice(&view, 0, &picks)
}

/// Full accuracy report: overall, by RIR, by country, by method.
#[derive(Debug)]
pub struct AccuracyReport {
    /// Database names in evaluation order.
    pub databases: Vec<String>,
    /// Overall accuracy per database (Figure 2 + §5.2.1 numbers).
    pub overall: Vec<VendorAccuracy>,
    /// Per-RIR accuracy, `by_rir[db][rir]` with RIRs in Table 1 order
    /// (Figures 3, 5).
    pub by_rir: Vec<Vec<VendorAccuracy>>,
    /// Per-country accuracy for the top-N ground-truth countries
    /// (Figure 4), as `(country, gt_count, per-db accuracy)`.
    pub by_country: Vec<(CountryCode, usize, Vec<VendorAccuracy>)>,
    /// Per-method accuracy, `[DnsBased, RttProximity]` per database
    /// (§5.2.4).
    pub by_method: Vec<[VendorAccuracy; 2]>,
    /// Per-database accuracy over the entries whose RIR annotation
    /// degraded (see `GroundTruth::degraded`). Empty totals on a
    /// healthy run; on a partially-down whois service this is the
    /// bucket the per-RIR breakdown lost.
    pub degraded: Vec<VendorAccuracy>,
    /// Fraction of ground-truth entries with a known RIR — the
    /// degraded-coverage number the §5.2 report prints when < 1.
    pub rir_coverage: f64,
}

/// Evaluate all databases over the full ground truth with every breakdown
/// the paper reports. `top_countries` bounds the Figure 4 x-axis (the
/// paper uses 20). Thread count from the environment
/// ([`Pool::from_env`]).
pub fn evaluate<D: GeoDatabase + Sync>(
    dbs: &[D],
    gt: &GroundTruth,
    top_countries: usize,
) -> AccuracyReport {
    evaluate_with(dbs, gt, top_countries, &Pool::from_env())
}

/// [`evaluate`] on an explicit pool: resolves the ground-truth
/// addresses once into a [`ResolvedView`] and delegates to
/// [`evaluate_from_view`], so the whole report is identical at every
/// thread count.
pub fn evaluate_with<D: GeoDatabase + Sync>(
    dbs: &[D],
    gt: &GroundTruth,
    top_countries: usize,
    pool: &Pool,
) -> AccuracyReport {
    let ips: Vec<Ipv4Addr> = gt.entries.iter().map(|e| e.ip).collect();
    let view = ResolvedView::build_with(dbs, &ips, pool);
    evaluate_from_view(&view, gt, top_countries)
}

/// Produce the full report from a pre-built view whose rows correspond
/// 1:1 (in order) to `gt.entries` — the shared-view entry point the
/// pipeline uses. Each breakdown slice's index list is computed once
/// and reused across databases.
pub fn evaluate_from_view(
    view: &ResolvedView,
    gt: &GroundTruth,
    top_countries: usize,
) -> AccuracyReport {
    assert_eq!(
        view.len(),
        gt.entries.len(),
        "view rows must correspond to ground-truth entries"
    );
    let n = view.db_count();
    let all: Vec<(usize, &GtEntry)> = gt.entries.iter().enumerate().collect();

    let overall = overall_from_view(view, gt);

    let rir_picks: Vec<Vec<(usize, &GtEntry)>> = Rir::TABLE1_ORDER
        .iter()
        .map(|rir| {
            all.iter()
                .filter(|(_, e)| e.rir == Some(*rir))
                .copied()
                .collect()
        })
        .collect();
    let by_rir = (0..n)
        .map(|d| {
            rir_picks
                .iter()
                .map(|picks| evaluate_slice(view, d, picks))
                .collect()
        })
        .collect();

    // Figure 4: top countries by ground-truth address count.
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for e in &gt.entries {
        *counts.entry(e.country).or_default() += 1;
    }
    let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top_countries);
    let by_country = ranked
        .into_iter()
        .map(|(cc, count)| {
            let picks: Vec<(usize, &GtEntry)> = all
                .iter()
                .filter(|(_, e)| e.country == cc)
                .copied()
                .collect();
            let accs = (0..n).map(|d| evaluate_slice(view, d, &picks)).collect();
            (cc, count, accs)
        })
        .collect();

    let method_picks: Vec<Vec<(usize, &GtEntry)>> = [GtMethod::DnsBased, GtMethod::RttProximity]
        .iter()
        .map(|m| {
            all.iter()
                .filter(|(_, e)| e.method == *m)
                .copied()
                .collect()
        })
        .collect();
    let by_method = (0..n)
        .map(|d| {
            [
                evaluate_slice(view, d, &method_picks[0]),
                evaluate_slice(view, d, &method_picks[1]),
            ]
        })
        .collect();

    let degraded_set: std::collections::HashSet<Ipv4Addr> = gt.degraded.iter().copied().collect();
    let degraded_picks: Vec<(usize, &GtEntry)> = all
        .iter()
        .filter(|(_, e)| degraded_set.contains(&e.ip))
        .copied()
        .collect();
    let degraded = (0..n)
        .map(|d| evaluate_slice(view, d, &degraded_picks))
        .collect();
    let with_rir = gt.entries.iter().filter(|e| e.rir.is_some()).count();
    let rir_coverage = ratio(with_rir, gt.entries.len());

    AccuracyReport {
        databases: view.databases().to_vec(),
        overall,
        by_rir,
        by_country,
        by_method,
        degraded,
        rir_coverage,
    }
}

/// Overall accuracy of every column of a pre-built view whose rows
/// correspond 1:1 (in order) to `gt.entries` — the [`AccuracyReport`]
/// `overall` row alone, without the breakdowns.
pub fn overall_from_view(view: &ResolvedView, gt: &GroundTruth) -> Vec<VendorAccuracy> {
    assert_eq!(
        view.len(),
        gt.entries.len(),
        "view rows must correspond to ground-truth entries"
    );
    let all: Vec<(usize, &GtEntry)> = gt.entries.iter().enumerate().collect();
    (0..view.db_count())
        .map(|d| evaluate_slice(view, d, &all))
        .collect()
}

/// The three registry-fed databases' common-wrong-answer count (§5.2.2:
/// 2,277 addresses wrong in IP2Location-Lite, MaxMind-GeoLite, and
/// MaxMind-Paid simultaneously, with the same wrong country).
///
/// Resolves the entries once into a compact view — no full
/// `LocationRecord` is ever materialized just to read `.country`.
pub fn common_wrong_country<D: GeoDatabase + Sync>(dbs: &[D; 3], gt: &GroundTruth) -> usize {
    let ips: Vec<Ipv4Addr> = gt.entries.iter().map(|e| e.ip).collect();
    let view = ResolvedView::build(dbs.as_slice(), &ips);
    common_wrong_from_view(&view, [0, 1, 2], gt)
}

/// [`common_wrong_country`] over three columns of a pre-built view whose
/// rows correspond 1:1 (in order) to `gt.entries`.
pub fn common_wrong_from_view(view: &ResolvedView, dbs: [usize; 3], gt: &GroundTruth) -> usize {
    assert_eq!(
        view.len(),
        gt.entries.len(),
        "view rows must correspond to ground-truth entries"
    );
    gt.entries
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            let answer = |d: usize| view.record(dbs[d], *i).and_then(|r| r.country);
            match (answer(0), answer(1), answer(2)) {
                (Some(a), Some(b), Some(c)) => a == b && b == c && a != e.country,
                _ => false,
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    fn gt_entry(ip: &str, cc: &str, lat: f64, lon: f64, rir: Rir, method: GtMethod) -> GtEntry {
        GtEntry {
            ip: ip.parse().unwrap(),
            coord: Coordinate::new(lat, lon).unwrap(),
            country: cc.parse().unwrap(),
            rir: Some(rir),
            method,
            domain: None,
        }
    }

    fn simple_db(name: &str, rows: &[(&str, &str, f64, f64)]) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        for (prefix, cc, lat, lon) in rows {
            b.push_prefix(
                prefix.parse().unwrap(),
                LocationRecord {
                    country: Some(cc.parse().unwrap()),
                    region: None,
                    city: Some("X".into()),
                    coord: Some(Coordinate::new(*lat, *lon).unwrap()),
                    granularity: Granularity::Block24,
                },
            );
        }
        b.build().unwrap()
    }

    fn sample_gt() -> GroundTruth {
        GroundTruth {
            entries: vec![
                gt_entry("6.0.0.1", "US", 40.0, -100.0, Rir::Arin, GtMethod::DnsBased),
                gt_entry("6.0.1.1", "CA", 55.0, -100.0, Rir::Arin, GtMethod::DnsBased),
                gt_entry(
                    "31.0.0.1",
                    "DE",
                    51.5,
                    9.5,
                    Rir::RipeNcc,
                    GtMethod::RttProximity,
                ),
            ],
            ..GroundTruth::default()
        }
    }

    #[test]
    fn perfect_database_scores_perfectly() {
        let db = simple_db(
            "perfect",
            &[
                ("6.0.0.0/24", "US", 40.0, -100.0),
                ("6.0.1.0/24", "CA", 55.0, -100.0),
                ("31.0.0.0/24", "DE", 51.5, 9.5),
            ],
        );
        let gt = sample_gt();
        let acc = evaluate_entries(&db, &gt.entries);
        assert_eq!(acc.total, 3);
        assert_eq!(acc.country_accuracy(), 1.0);
        assert_eq!(acc.city_accuracy(), 1.0);
        assert_eq!(acc.country_coverage(), 1.0);
        assert_eq!(acc.error_cdf.len(), 3);
    }

    #[test]
    fn wrong_country_and_distance_counted() {
        // Database sends the Canadian router to the US, 1700+ km away.
        let db = simple_db(
            "biased",
            &[
                ("6.0.0.0/24", "US", 40.0, -100.0),
                ("6.0.1.0/24", "US", 40.0, -100.0),
            ],
        );
        let gt = sample_gt();
        let acc = evaluate_entries(&db, &gt.entries);
        assert_eq!(acc.total, 3);
        assert_eq!(acc.country_covered, 2);
        assert_eq!(acc.country_correct, 1);
        assert_eq!(acc.city_covered, 2);
        assert_eq!(acc.city_correct, 1);
        assert!(acc.error_cdf.max().unwrap() > 1000.0);
    }

    #[test]
    fn report_breaks_down_by_rir_and_method() {
        let db = simple_db("d", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let gt = sample_gt();
        let report = evaluate(&[db], &gt, 20);
        assert_eq!(report.overall.len(), 1);
        // ARIN slice has 2 entries, RIPE 1.
        assert_eq!(report.by_rir[0][0].total, 2);
        assert_eq!(report.by_rir[0][4].total, 1);
        assert_eq!(report.by_rir[0][2].total, 0); // AFRINIC empty
                                                  // Methods: 2 DNS, 1 RTT.
        assert_eq!(report.by_method[0][0].total, 2);
        assert_eq!(report.by_method[0][1].total, 1);
        // Figure 4 ranking: US/CA/DE with one address each... counts.
        assert_eq!(report.by_country.len(), 3);
    }

    #[test]
    fn degraded_entries_form_their_own_report_slice() {
        let db = simple_db("d", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let mut gt = sample_gt();
        // Simulate a failed RIR annotation for the Canadian entry.
        gt.entries[1].rir = None;
        gt.degraded = vec![gt.entries[1].ip];
        let report = evaluate(&[db], &gt, 20);
        // The degraded entry left the per-RIR breakdown (ARIN down to 1)…
        assert_eq!(report.by_rir[0][0].total, 1);
        // …and landed in the degraded bucket instead of vanishing.
        assert_eq!(report.degraded[0].total, 1);
        assert!((report.rir_coverage - 2.0 / 3.0).abs() < 1e-12);
        // Healthy ground truth reports full coverage and an empty bucket.
        let clean = evaluate(
            &[simple_db("d", &[("6.0.0.0/24", "US", 40.0, -100.0)])],
            &sample_gt(),
            20,
        );
        assert_eq!(clean.rir_coverage, 1.0);
        assert_eq!(clean.degraded[0].total, 0);
    }

    #[test]
    fn common_wrong_requires_all_three_to_agree_on_wrong() {
        let gt = sample_gt();
        let wrong_us = simple_db("w1", &[("6.0.1.0/24", "US", 40.0, -100.0)]);
        let wrong_us2 = simple_db("w2", &[("6.0.1.0/24", "US", 41.0, -100.0)]);
        let right = simple_db("r", &[("6.0.1.0/24", "CA", 55.0, -100.0)]);
        assert_eq!(
            common_wrong_country(&[&wrong_us, &wrong_us2, &wrong_us], &gt),
            1
        );
        assert_eq!(
            common_wrong_country(&[&wrong_us, &wrong_us2, &right], &gt),
            0
        );
    }

    #[test]
    fn uncovered_entries_do_not_poison_accuracy() {
        let db = simple_db("sparse", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let gt = sample_gt();
        let acc = evaluate_entries(&db, &gt.entries);
        assert_eq!(acc.country_covered, 1);
        assert_eq!(acc.country_accuracy(), 1.0);
        assert!((acc.country_coverage() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// The pinned old-vs-new check: the view-based report must match a
    /// naive per-entry `lookup` evaluation exactly (tests are outside
    /// RG009's scope, so the naive path can query directly).
    #[test]
    fn view_report_matches_naive_lookup_evaluation() {
        let dbs = [
            simple_db(
                "d1",
                &[
                    ("6.0.0.0/24", "US", 40.0, -100.0),
                    ("6.0.1.0/24", "US", 40.0, -100.0),
                ],
            ),
            simple_db("d2", &[("6.0.1.0/24", "CA", 55.0, -100.0)]),
        ];
        let gt = sample_gt();
        let report = evaluate(&dbs, &gt, 20);
        for (d, db) in dbs.iter().enumerate() {
            let mut covered = 0usize;
            let mut correct = 0usize;
            let mut errors = Vec::new();
            for e in &gt.entries {
                let Some(rec) = db.lookup(e.ip) else { continue };
                if let Some(cc) = rec.country {
                    covered += 1;
                    if cc == e.country {
                        correct += 1;
                    }
                }
                if rec.has_city() {
                    errors.push(rec.coord.unwrap().distance_km(&e.coord));
                }
            }
            assert_eq!(report.overall[d].country_covered, covered);
            assert_eq!(report.overall[d].country_correct, correct);
            assert_eq!(report.overall[d].error_cdf.len(), errors.len());
        }

        // The majority-vote count matches a naive triple-lookup loop.
        let trio = [&dbs[0], &dbs[0], &dbs[1]];
        let naive = gt
            .entries
            .iter()
            .filter(|e| {
                let answers: Vec<Option<CountryCode>> = trio
                    .iter()
                    .map(|d| d.lookup(e.ip).and_then(|r| r.country))
                    .collect();
                matches!(
                    (&answers[0], &answers[1], &answers[2]),
                    (Some(a), Some(b), Some(c)) if a == b && b == c && *a != e.country
                )
            })
            .count();
        assert_eq!(common_wrong_country(&trio, &gt), naive);
    }
}
