//! HLOC-style hint verification (related work [27], Scheitle et al.):
//! cross-check DNS location hints against latency constraints.
//!
//! A decoded hostname hint claims a location; every RTT measurement to the
//! same address bounds where the address can physically be. A hint whose
//! claimed location violates a constraint is *refuted* — exactly how stale
//! hostnames (the §3.1 churn problem) are caught in practice. Hints with
//! no tight-enough measurements stay *unverifiable*.

use routergeo_dns::rules::geolocate_interface;
use routergeo_dns::RuleEngine;
use routergeo_geo::Coordinate;
use routergeo_pool::Pool;
use routergeo_rtt::cbg::{collect_constraints, Constraint};
use routergeo_trace::TracerouteRecord;
use routergeo_world::{InterfaceId, World};
use std::net::Ipv4Addr;

/// Outcome of verifying one hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintVerdict {
    /// Every constraint is satisfied by the claimed location.
    Confirmed,
    /// At least one constraint is violated beyond the slack.
    Refuted,
    /// No latency constraints available for the address.
    Unverifiable,
}

/// Check a claimed location against distance constraints.
///
/// `slack_km` absorbs intra-city scatter: the hint names a city centre
/// while the constraint bounds the router itself.
pub fn verify_location(
    claimed: &Coordinate,
    constraints: &[Constraint],
    slack_km: f64,
) -> HintVerdict {
    if constraints.is_empty() {
        return HintVerdict::Unverifiable;
    }
    for c in constraints {
        if c.at.distance_km(claimed) > c.radius_km + slack_km {
            return HintVerdict::Refuted;
        }
    }
    HintVerdict::Confirmed
}

/// Aggregate verification results over a set of hint-bearing addresses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HlocReport {
    /// Addresses whose hostname decoded to a location.
    pub decoded: usize,
    /// Hints consistent with every latency constraint.
    pub confirmed: usize,
    /// Hints contradicted by latency.
    pub refuted: usize,
    /// Hints without usable constraints.
    pub unverifiable: usize,
    /// Refuted addresses (for inspection).
    pub refuted_addrs: Vec<Ipv4Addr>,
}

impl HlocReport {
    /// Fraction of verifiable hints that were confirmed.
    pub fn confirmation_rate(&self) -> f64 {
        routergeo_geo::stats::ratio(self.confirmed, self.confirmed + self.refuted)
    }

    fn tally(&mut self, verdict: HintVerdict, ip: Ipv4Addr) {
        self.decoded += 1;
        match verdict {
            HintVerdict::Confirmed => self.confirmed += 1,
            HintVerdict::Refuted => {
                self.refuted += 1;
                self.refuted_addrs.push(ip);
            }
            HintVerdict::Unverifiable => self.unverifiable += 1,
        }
    }

    fn absorb(&mut self, part: HlocReport) {
        self.decoded += part.decoded;
        self.confirmed += part.confirmed;
        self.refuted += part.refuted;
        self.unverifiable += part.unverifiable;
        self.refuted_addrs.extend(part.refuted_addrs);
    }
}

/// Interfaces per shard of the verification pass. Fixed, never derived
/// from the thread count, so the merge order depends only on the world.
const INTERFACE_SHARD_SIZE: usize = 8192;

/// A hostname snapshot: the name an interface carries in it, or `None`
/// when it has no rDNS record.
pub type HostnameFn<'a> = dyn Fn(InterfaceId) -> Option<String> + Sync + 'a;

/// Verify every decodable interface hint against constraints mined from
/// measurement records, once per hostname snapshot: `None` uses the
/// world's current rDNS, `Some(f)` substitutes evolved (churned) names.
/// Returns one report per snapshot, in order.
///
/// The constraint map is built once and shared by every snapshot; one
/// sharded pass over the interfaces on `pool` tallies all snapshots
/// together, and the shard tallies merge in shard order.
pub fn verify_hints(
    world: &World,
    engine: &RuleEngine,
    records: &[TracerouteRecord],
    max_rtt_ms: f64,
    slack_km: f64,
    snapshots: &[Option<&HostnameFn<'_>>],
    pool: &Pool,
) -> Vec<HlocReport> {
    let constraints = collect_constraints(world, records, max_rtt_ms, pool);
    let shards = pool.run_shards(0, world.interfaces.len(), INTERFACE_SHARD_SIZE, |shard| {
        let mut reports = vec![HlocReport::default(); snapshots.len()];
        for i in shard.start..shard.end {
            let id = InterfaceId::from_index(i);
            let ip = world.interfaces[i].ip;
            let mut cs = None;
            for (report, snapshot) in reports.iter_mut().zip(snapshots) {
                let decoded = match snapshot {
                    Some(f) => f(id).and_then(|name| engine.decode(&name)),
                    None => geolocate_interface(world, engine, id),
                };
                let Some(city) = decoded else { continue };
                let cs =
                    *cs.get_or_insert_with(|| constraints.get(&ip).map_or(&[][..], Vec::as_slice));
                report.tally(verify_location(&world.city(city).coord, cs, slack_km), ip);
            }
        }
        reports
    });
    let mut out = vec![HlocReport::default(); snapshots.len()];
    for parts in shards {
        for (report, part) in out.iter_mut().zip(parts) {
            report.absorb(part);
        }
    }
    for report in &mut out {
        report.refuted_addrs.sort();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_dns::{ChurnConfig, ChurnModel, ChurnOutcome};
    use routergeo_trace::{AtlasBuiltins, AtlasConfig, Topology};
    use routergeo_world::{World, WorldConfig};

    fn c(lat: f64, lon: f64) -> Coordinate {
        Coordinate::new(lat, lon).unwrap()
    }

    #[test]
    fn verdict_logic() {
        let claim = c(50.0, 8.0);
        // Constraint satisfied: landmark 30 km away, radius 50 km.
        let near = Constraint {
            at: c(50.0, 8.4),
            radius_km: 50.0,
        };
        // Constraint violated: landmark 1,000+ km away, radius 50 km.
        let far = Constraint {
            at: c(40.0, 8.0),
            radius_km: 50.0,
        };
        assert_eq!(
            verify_location(&claim, &[], 25.0),
            HintVerdict::Unverifiable
        );
        assert_eq!(
            verify_location(&claim, &[near], 25.0),
            HintVerdict::Confirmed
        );
        assert_eq!(
            verify_location(&claim, &[near, far], 25.0),
            HintVerdict::Refuted
        );
    }

    #[test]
    fn fresh_hints_are_confirmed_stale_hints_refuted() {
        let w = World::generate(WorldConfig::tiny(601));
        let topo = Topology::build(&w);
        let records = AtlasBuiltins::new(
            &w,
            &topo,
            AtlasConfig {
                seed: 6,
                targets: 6,
                instances_per_target: 4,
            },
        )
        .run();
        let engine = RuleEngine::with_gt_rules(&w);

        // Current (truthful) hostnames: verifiable hints must be almost
        // entirely confirmed.
        let pool = Pool::new(2);
        let fresh = verify_hints(&w, &engine, &records, 20.0, 30.0, &[None], &pool).remove(0);
        assert!(fresh.decoded > 100, "decoded {}", fresh.decoded);
        // Most verifiable fresh hints confirm; the refuted tail comes from
        // *moved probes* acting as bad landmarks (the same §3.2 problem the
        // paper's QA targets — HLOC inherits it).
        assert!(
            fresh.confirmation_rate() > 0.75,
            "fresh hints refuted: {fresh:?}"
        );

        // Churned hostnames: the moved ones now carry stale hints; the
        // confirmation rate must drop measurably.
        let model = ChurnModel::new(&w, ChurnConfig::default());
        let churned = |id: InterfaceId| -> Option<String> {
            match model.evolve(id) {
                ChurnOutcome::Same(h)
                | ChurnOutcome::RenamedSameLocation(h)
                | ChurnOutcome::HintLost(h) => Some(h),
                // The address kept its OLD hostname but the router moved:
                // model the § 3.1 failure by returning the original name
                // for moved interfaces.
                ChurnOutcome::Moved(h, _) => Some(h),
                ChurnOutcome::Gone => None,
            }
        };
        let evolved =
            verify_hints(&w, &engine, &records, 20.0, 30.0, &[Some(&churned)], &pool).remove(0);
        assert!(
            evolved.confirmation_rate() <= fresh.confirmation_rate(),
            "churn did not reduce confirmation: {} vs {}",
            evolved.confirmation_rate(),
            fresh.confirmation_rate()
        );
    }

    #[test]
    fn planted_stale_hint_is_refuted() {
        // Decode every interface to a fixed distant city: any address with
        // tight constraints must refute it.
        let w = World::generate(WorldConfig::tiny(602));
        let topo = Topology::build(&w);
        let records = AtlasBuiltins::new(
            &w,
            &topo,
            AtlasConfig {
                seed: 7,
                targets: 5,
                instances_per_target: 3,
            },
        )
        .run();
        let constraints = collect_constraints(&w, &records, 5.0, &Pool::new(2));
        let mut refuted = 0usize;
        let mut checked = 0usize;
        for (ip, cs) in &constraints {
            let Some(router) = w.router_of_ip(*ip) else {
                continue;
            };
            // Claim a location ~2,000 km away from the true router.
            let claim = routergeo_geo::distance::destination(&router.coord, 90.0, 2_000.0);
            checked += 1;
            if verify_location(&claim, cs, 30.0) == HintVerdict::Refuted {
                refuted += 1;
            }
        }
        assert!(checked > 50);
        assert!(
            refuted * 10 >= checked * 8,
            "only {refuted}/{checked} planted lies refuted"
        );
    }
}
