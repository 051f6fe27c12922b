//! Ground-truth correctness analysis (§3).
//!
//! Two independent pipelines claiming locations for the same addresses
//! should agree; §3.1 checks the DNS-based set against the RTT-proximity
//! set and against a later 1 ms-threshold dataset (Giotsas et al.), and
//! quantifies 16 months of hostname churn. §3.2's probe QA counters live
//! in [`routergeo_rtt::QaReport`]; this module adds the cross-dataset
//! agreement computation used by both sections.

use crate::groundtruth::{GroundTruth, GtEntry, GtMethod};
use routergeo_dns::{ChurnConfig, ChurnModel, ChurnOutcome, RuleEngine};
use routergeo_geo::stats::ratio;
use routergeo_pool::Pool;
use routergeo_rtt::RttProximityDataset;
use routergeo_world::World;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Agreement between two location claims for common addresses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapAgreement {
    /// Addresses claimed by both datasets.
    pub common: usize,
    /// …within 10 km.
    pub within_10km: usize,
    /// …within 40 km (the city range).
    pub within_40km: usize,
    /// …within 100 km (the paper's RTT-nearby bound).
    pub within_100km: usize,
}

impl OverlapAgreement {
    /// Fraction within 40 km.
    pub fn frac_within_40km(&self) -> f64 {
        ratio(self.within_40km, self.common)
    }

    /// Fraction within 100 km.
    pub fn frac_within_100km(&self) -> f64 {
        ratio(self.within_100km, self.common)
    }
}

/// Compare two address→coordinate maps on their common addresses.
pub fn overlap_agreement(
    a: &HashMap<Ipv4Addr, routergeo_geo::Coordinate>,
    b: &HashMap<Ipv4Addr, routergeo_geo::Coordinate>,
) -> OverlapAgreement {
    let mut out = OverlapAgreement::default();
    for (ip, ca) in a {
        let Some(cb) = b.get(ip) else { continue };
        out.common += 1;
        let d = ca.distance_km(cb);
        if d <= 10.0 {
            out.within_10km += 1;
        }
        if d <= 40.0 {
            out.within_40km += 1;
        }
        if d <= 100.0 {
            out.within_100km += 1;
        }
    }
    out
}

/// §3.1 first check: DNS-based vs RTT-proximity on their overlap.
pub fn dns_vs_rtt(gt: &GroundTruth, rtt_full: &RttProximityDataset) -> OverlapAgreement {
    let dns: HashMap<_, _> = gt
        .of_method(GtMethod::DnsBased)
        .map(|e| (e.ip, e.coord))
        .collect();
    let rtt: HashMap<_, _> = rtt_full.entries.iter().map(|e| (e.ip, e.coord)).collect();
    overlap_agreement(&dns, &rtt)
}

/// §3.1 second check: the DNS-based set vs an independent, later
/// 1 ms-threshold dataset (the Giotsas et al. comparison: 384 common
/// addresses, 92.45% within 100 km). The 1 ms threshold loosens the
/// distance bound to ~100 km, so "within 100 km" is the compatible band.
pub fn dns_vs_onems(gt: &GroundTruth, onems: &RttProximityDataset) -> OverlapAgreement {
    let dns: HashMap<_, _> = gt
        .of_method(GtMethod::DnsBased)
        .map(|e| (e.ip, e.coord))
        .collect();
    let one: HashMap<_, _> = onems.entries.iter().map(|e| (e.ip, e.coord)).collect();
    overlap_agreement(&dns, &one)
}

/// §3.2 final check: the QA'd 0.5 ms set vs the 1 ms set (paper: 1,661
/// common addresses, 96.8% within 40 km, 97.4% within 100 km).
pub fn rtt_vs_onems(rtt: &RttProximityDataset, onems: &RttProximityDataset) -> OverlapAgreement {
    let a: HashMap<_, _> = rtt.entries.iter().map(|e| (e.ip, e.coord)).collect();
    let b: HashMap<_, _> = onems.entries.iter().map(|e| (e.ip, e.coord)).collect();
    overlap_agreement(&a, &b)
}

/// §3.1 churn outcome tallies over the DNS-based ground truth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Addresses examined (DNS-based ground truth).
    pub total: usize,
    /// Hostname unchanged.
    pub same: usize,
    /// Hostname changed, still decodes to the same location.
    pub changed_same_location: usize,
    /// Hostname changed, decodes to a different location.
    pub changed_moved: usize,
    /// Hostname changed, no decodable hint any more.
    pub changed_hint_lost: usize,
    /// rDNS record gone.
    pub gone: usize,
}

impl ChurnStats {
    /// Total with changed hostnames.
    pub fn changed(&self) -> usize {
        self.changed_same_location + self.changed_moved + self.changed_hint_lost
    }

    /// The paper's headline: fraction of all DNS-based addresses whose
    /// location moved over the interval (7.4% over 16 months).
    pub fn moved_fraction(&self) -> f64 {
        ratio(self.changed_moved, self.total)
    }

    /// Tally one evolved hostname of a DNS-based ground-truth entry.
    fn tally(&mut self, world: &World, engine: &RuleEngine, e: &GtEntry, outcome: ChurnOutcome) {
        self.total += 1;
        match outcome {
            ChurnOutcome::Same(_) => self.same += 1,
            ChurnOutcome::Gone => self.gone += 1,
            // Confirm the new name with the rules, as the paper does.
            ChurnOutcome::RenamedSameLocation(name) | ChurnOutcome::Moved(name, _) => {
                match engine.decode(&name) {
                    Some(city) if world.city(city).coord == e.coord => {
                        self.changed_same_location += 1
                    }
                    Some(_) => self.changed_moved += 1,
                    None => self.changed_hint_lost += 1,
                }
            }
            ChurnOutcome::HintLost(_) => self.changed_hint_lost += 1,
        }
    }

    fn absorb(&mut self, part: &ChurnStats) {
        self.total += part.total;
        self.same += part.same;
        self.changed_same_location += part.changed_same_location;
        self.changed_moved += part.changed_moved;
        self.changed_hint_lost += part.changed_hint_lost;
        self.gone += part.gone;
    }
}

/// Ground-truth entries per shard of the churn pass. Fixed, never
/// derived from the thread count.
const CHURN_SHARD_SIZE: usize = 1024;

/// Apply the churn model to every DNS-based ground-truth address and
/// verify the new hostnames against the rules, tallying §3.1's outcomes.
/// Shards of the entries run on `pool`; their tallies are summed.
pub fn churn_stats(
    world: &World,
    engine: &RuleEngine,
    gt: &GroundTruth,
    config: ChurnConfig,
    pool: &Pool,
) -> ChurnStats {
    let model = ChurnModel::new(world, config);
    let dns: Vec<&GtEntry> = gt.of_method(GtMethod::DnsBased).collect();
    let mut stats = ChurnStats::default();
    for part in pool.map_shards(0, &dns, CHURN_SHARD_SIZE, |_, chunk| {
        let mut part = ChurnStats::default();
        for e in chunk {
            if let Some(iface) = world.find_interface(e.ip) {
                part.tally(world, engine, e, model.evolve(iface));
            }
        }
        part
    }) {
        stats.absorb(&part);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_cymru::MappingService;
    use routergeo_geo::Coordinate;
    use routergeo_world::WorldConfig;

    #[test]
    fn overlap_agreement_buckets() {
        let c = |lat: f64| Coordinate::new(lat, 0.0).unwrap();
        let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
        let a: HashMap<_, _> = vec![
            (ip("1.0.0.1"), c(0.0)),
            (ip("1.0.0.2"), c(0.0)),
            (ip("1.0.0.3"), c(0.0)),
            (ip("9.0.0.9"), c(0.0)),
        ]
        .into_iter()
        .collect();
        let b: HashMap<_, _> = vec![
            (ip("1.0.0.1"), c(0.05)), // ~5.6 km
            (ip("1.0.0.2"), c(0.3)),  // ~33 km
            (ip("1.0.0.3"), c(0.8)),  // ~89 km
            (ip("8.0.0.8"), c(0.0)),
        ]
        .into_iter()
        .collect();
        let agg = overlap_agreement(&a, &b);
        assert_eq!(agg.common, 3);
        assert_eq!(agg.within_10km, 1);
        assert_eq!(agg.within_40km, 2);
        assert_eq!(agg.within_100km, 3);
        assert!((agg.frac_within_40km() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn churn_stats_sum_to_total() {
        let w = World::generate(WorldConfig::small(221));
        let engine = RuleEngine::with_gt_rules(&w);
        let whois = MappingService::build(&w);
        let dns = GroundTruth::dns_based(&w, &engine, &whois, 0.05);
        let gt = GroundTruth::combine(dns, vec![]);
        let stats = churn_stats(&w, &engine, &gt, ChurnConfig::default(), &Pool::new(2));
        assert!(stats.total > 300, "need entries, got {}", stats.total);
        assert_eq!(
            stats.total,
            stats.same + stats.changed() + stats.gone,
            "{stats:?}"
        );
        // §3.1 shape: ~69% same, ~24% changed, ~7% gone.
        let n = stats.total as f64;
        assert!((stats.same as f64 / n - 0.691).abs() < 0.06, "{stats:?}");
        assert!(
            (stats.changed() as f64 / n - 0.24).abs() < 0.06,
            "{stats:?}"
        );
        // Of the changed, roughly 2/3 keep their location, ~31% move.
        let ch = stats.changed() as f64;
        assert!(
            (stats.changed_same_location as f64 / ch - 0.677).abs() < 0.12,
            "{stats:?}"
        );
        assert!(
            (stats.changed_moved as f64 / ch - 0.308).abs() < 0.12,
            "{stats:?}"
        );
        // Overall moved fraction ≈ 7.4%.
        assert!((stats.moved_fraction() - 0.074).abs() < 0.04, "{stats:?}");
    }
}
