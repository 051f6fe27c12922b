//! Majority-vote evaluation — the methodology of the prior work the paper
//! contrasts itself against (§7: Huffaker et al.'s Geocompare and Shavitt &
//! Zilberman both score databases against a majority vote *of the
//! databases themselves* rather than against independent ground truth).
//!
//! Implementing it lets the harness quantify the paper's headline caveat —
//! "agreement among the databases does not imply correctness" — directly:
//! a database can agree beautifully with the majority while the majority
//! itself is wrong (all registry-fed databases share the same upstream).

use crate::groundtruth::GroundTruth;
use crate::resolve::ResolvedView;
use routergeo_db::GeoDatabase;
use routergeo_geo::stats::ratio;
use routergeo_geo::{Coordinate, CountryCode, CITY_RANGE_KM};
use routergeo_pool::Pool;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The majority's verdict for one address.
#[derive(Debug, Clone, PartialEq)]
pub struct MajorityLocation {
    /// Country agreed by the plurality of databases (ties → none).
    pub country: Option<CountryCode>,
    /// Number of databases voting for that country.
    pub votes: usize,
    /// Representative coordinates: the medoid of the city-level answers
    /// that lie within the city range of at least half of them.
    pub coord: Option<Coordinate>,
}

/// Plurality vote over the databases' country answers: the winning
/// country and its vote count. A tie for first place elects no country
/// but still reports the top count.
fn plurality(answers: impl IntoIterator<Item = CountryCode>) -> (Option<CountryCode>, usize) {
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for cc in answers {
        *counts.entry(cc).or_default() += 1;
    }
    let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    match ranked.as_slice() {
        [] => (None, 0),
        [only] => (Some(only.0), only.1),
        [first, second, ..] if first.1 > second.1 => (Some(first.0), first.1),
        [first, ..] => (None, first.1), // tie
    }
}

/// Compute the majority location for one address across databases.
pub fn majority_location<D: GeoDatabase>(dbs: &[D], ip: Ipv4Addr) -> MajorityLocation {
    let records: Vec<_> = dbs.iter().filter_map(|d| d.lookup(ip)).collect();

    let (country, votes) = plurality(records.iter().filter_map(|r| r.country));

    // Coordinates: medoid of city-level answers — the answer minimizing
    // total distance to the others — provided it sits within the city
    // range of at least half of them.
    let coords: Vec<Coordinate> = records
        .iter()
        .filter(|r| r.has_city())
        .filter_map(|r| r.coord)
        .collect();
    let coord = if coords.len() >= 2 {
        coords
            .iter()
            .map(|c| {
                let total: f64 = coords.iter().map(|o| c.distance_km(o)).sum();
                let near = coords
                    .iter()
                    .filter(|o| c.distance_km(o) <= CITY_RANGE_KM)
                    .count();
                (c, total, near)
            })
            .filter(|(_, _, near)| *near * 2 >= coords.len())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _, _)| *c)
    } else {
        None
    };

    MajorityLocation {
        country,
        votes,
        coord,
    }
}

/// Scoring a database against the majority vs against the ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityComparison {
    /// Database name.
    pub database: String,
    /// Addresses with both a database answer and a majority country.
    pub scored: usize,
    /// Agreement with the majority's country.
    pub agrees_with_majority: usize,
    /// Correct per the actual ground truth (same population).
    pub correct_per_truth: usize,
    /// Addresses where the database agrees with the majority **and** both
    /// are wrong — the blind spot majority-vote evaluation cannot see.
    pub agree_but_wrong: usize,
}

impl MajorityComparison {
    /// Apparent accuracy under majority-vote methodology.
    pub fn apparent_accuracy(&self) -> f64 {
        ratio(self.agrees_with_majority, self.scored)
    }

    /// True accuracy on the same population.
    pub fn true_accuracy(&self) -> f64 {
        ratio(self.correct_per_truth, self.scored)
    }

    /// How much majority-vote evaluation overstates accuracy.
    pub fn overstatement(&self) -> f64 {
        self.apparent_accuracy() - self.true_accuracy()
    }
}

/// Score every database both ways over the ground-truth addresses.
///
/// The addresses are resolved once into a [`ResolvedView`] on `pool`;
/// the majority country and the per-database scores are tallied from
/// its columns, in ground-truth order.
pub fn compare_against_majority<D: GeoDatabase + Sync>(
    dbs: &[D],
    gt: &GroundTruth,
    pool: &Pool,
) -> Vec<MajorityComparison> {
    let ips: Vec<Ipv4Addr> = gt.entries.iter().map(|e| e.ip).collect();
    let view = ResolvedView::build_with(dbs, &ips, pool);
    let mut out: Vec<MajorityComparison> = view
        .databases()
        .iter()
        .map(|name| MajorityComparison {
            database: name.clone(),
            scored: 0,
            agrees_with_majority: 0,
            correct_per_truth: 0,
            agree_but_wrong: 0,
        })
        .collect();

    for (row, e) in gt.entries.iter().enumerate() {
        let answer = |d: usize| view.record(d, row).and_then(|r| r.country);
        let (Some(maj_cc), _) = plurality((0..out.len()).filter_map(answer)) else {
            continue;
        };
        for (d, scores) in out.iter_mut().enumerate() {
            let Some(cc) = answer(d) else {
                continue;
            };
            scores.scored += 1;
            let agrees = cc == maj_cc;
            let correct = cc == e.country;
            if agrees {
                scores.agrees_with_majority += 1;
            }
            if correct {
                scores.correct_per_truth += 1;
            }
            if agrees && !correct {
                scores.agree_but_wrong += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{GtEntry, GtMethod};
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Rir;

    fn db(name: &str, cc: &str, lat: f64) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        b.push_prefix(
            "6.0.0.0/24".parse().unwrap(),
            LocationRecord {
                country: Some(cc.parse().unwrap()),
                region: None,
                city: Some("X".into()),
                coord: Some(Coordinate::new(lat, -100.0).unwrap()),
                granularity: Granularity::Block24,
            },
        );
        b.build().unwrap()
    }

    fn gt(cc: &str) -> GroundTruth {
        GroundTruth {
            entries: vec![GtEntry {
                ip: "6.0.0.1".parse().unwrap(),
                coord: Coordinate::new(55.0, -100.0).unwrap(),
                country: cc.parse().unwrap(),
                rir: Some(Rir::Arin),
                method: GtMethod::DnsBased,
                domain: None,
            }],
            overlap: vec![],
            degraded: vec![],
        }
    }

    #[test]
    fn plurality_country_wins() {
        let dbs = vec![
            db("a", "US", 40.0),
            db("b", "US", 40.1),
            db("c", "CA", 55.0),
        ];
        let m = majority_location(&dbs, "6.0.0.1".parse().unwrap());
        assert_eq!(m.country.unwrap().as_str(), "US");
        assert_eq!(m.votes, 2);
        // Medoid of the two co-located US answers.
        let c = m.coord.unwrap();
        assert!((c.lat() - 40.0).abs() < 0.2);
    }

    #[test]
    fn ties_produce_no_majority() {
        let dbs = vec![db("a", "US", 40.0), db("b", "CA", 55.0)];
        let m = majority_location(&dbs, "6.0.0.1".parse().unwrap());
        assert_eq!(m.country, None);
    }

    #[test]
    fn missing_records_do_not_vote() {
        let empty = InMemoryDbBuilder::new("empty").build().unwrap();
        let dbs = vec![db("a", "US", 40.0), empty];
        let m = majority_location(&dbs, "6.0.0.1".parse().unwrap());
        assert_eq!(m.country.unwrap().as_str(), "US");
        assert_eq!(m.votes, 1);
    }

    #[test]
    fn majority_can_be_confidently_wrong() {
        // Three databases copy the same wrong registry answer (US); the
        // truth is Canada. Majority methodology scores them 100%;
        // ground-truth methodology scores them 0%.
        let dbs = vec![
            db("a", "US", 40.0),
            db("b", "US", 40.0),
            db("c", "US", 40.1),
        ];
        let cmp = compare_against_majority(&dbs, &gt("CA"), &Pool::new(2));
        for c in &cmp {
            assert_eq!(c.apparent_accuracy(), 1.0, "{c:?}");
            assert_eq!(c.true_accuracy(), 0.0);
            assert_eq!(c.agree_but_wrong, 1);
            assert_eq!(c.overstatement(), 1.0);
        }
    }

    #[test]
    fn dissenter_scores_worse_under_majority_even_when_right() {
        // Two wrong databases outvote the one correct one: the correct
        // database gets a *lower* apparent accuracy than the wrong ones.
        let dbs = vec![
            db("a", "US", 40.0),
            db("b", "US", 40.0),
            db("c", "CA", 55.0),
        ];
        let cmp = compare_against_majority(&dbs, &gt("CA"), &Pool::new(2));
        assert_eq!(cmp[2].apparent_accuracy(), 0.0); // right but outvoted
        assert_eq!(cmp[2].true_accuracy(), 1.0);
        assert_eq!(cmp[0].apparent_accuracy(), 1.0); // wrong but conformist
        assert_eq!(cmp[0].true_accuracy(), 0.0);
    }
}
