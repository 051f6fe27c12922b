//! Constraint-based geolocation (CBG) — the delay-based alternative the
//! paper's introduction points researchers to when databases fall short
//! (Gueye et al., "Constraint-based Geolocation of Internet Hosts").
//!
//! Every landmark that measured an RTT to the target constrains the target
//! to a disk: radius = the distance light can travel in fibre in half the
//! RTT. The target lies in the intersection of all disks; the estimator
//! returns a point in (or nearest to) that intersection together with the
//! tightest constraint radius as a confidence measure.
//!
//! The implementation is measurement-agnostic: feed it any
//! `(landmark, rtt)` pairs — here they come from the Atlas-style built-in
//! traceroutes, turning the probe fleet into a landmark network.

use routergeo_geo::distance::destination;
use routergeo_geo::{rtt_to_max_distance_km, Coordinate};
use routergeo_pool::Pool;
use routergeo_trace::TracerouteRecord;
use routergeo_world::World;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One distance constraint: the target is within `radius_km` of `at`.
#[derive(Debug, Clone, Copy)]
pub struct Constraint {
    /// Landmark position.
    pub at: Coordinate,
    /// Maximum distance implied by the measured RTT.
    pub radius_km: f64,
}

impl Constraint {
    /// Build from a landmark position and a measured RTT.
    pub fn from_rtt(at: Coordinate, rtt_ms: f64) -> Constraint {
        Constraint {
            at,
            radius_km: rtt_to_max_distance_km(rtt_ms),
        }
    }

    /// Signed violation of the constraint at `p` (≤ 0 when satisfied).
    fn violation(&self, p: &Coordinate) -> f64 {
        self.at.distance_km(p) - self.radius_km
    }
}

/// A CBG position estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbgEstimate {
    /// Estimated position.
    pub coord: Coordinate,
    /// Tightest constraint radius — an upper bound on the error when the
    /// constraints are consistent.
    pub confidence_km: f64,
    /// Total constraint violation at the estimate (0 when the constraint
    /// region is non-empty and the estimate is inside it).
    pub residual_km: f64,
    /// Number of constraints used.
    pub landmarks: usize,
}

/// Estimate a position from distance constraints.
///
/// Strategy: start from the centre of the tightest constraint, then refine
/// with a shrinking pattern search minimizing the total violation (which
/// is 0 anywhere inside the feasible intersection). Returns `None` when no
/// constraints are given.
pub fn estimate(constraints: &[Constraint]) -> Option<CbgEstimate> {
    if constraints.is_empty() {
        return None;
    }
    let tightest = constraints
        .iter()
        .min_by(|a, b| a.radius_km.total_cmp(&b.radius_km))
        .expect("non-empty");

    let total_violation = |p: &Coordinate| -> f64 {
        constraints
            .iter()
            .map(|c| c.violation(p).max(0.0))
            .sum::<f64>()
    };

    // Pattern search: probe the four compass directions with a shrinking
    // step, keeping any move that lowers the violation.
    let mut best = tightest.at;
    let mut best_v = total_violation(&best);
    let mut step = tightest.radius_km.max(1.0);
    while step > 0.25 && best_v > 0.0 {
        let mut improved = false;
        for bearing in [0.0, 90.0, 180.0, 270.0, 45.0, 135.0, 225.0, 315.0] {
            let cand = destination(&best, bearing, step);
            let v = total_violation(&cand);
            if v < best_v {
                best = cand;
                best_v = v;
                improved = true;
            }
        }
        if !improved {
            step /= 2.0;
        }
    }

    Some(CbgEstimate {
        coord: best,
        confidence_km: tightest.radius_km,
        residual_km: best_v,
        landmarks: constraints.len(),
    })
}

/// Traceroute records per shard when collecting constraints. Fixed,
/// never derived from the thread count, so the shard plan — and with
/// it the merge order — depends only on the record count.
const RECORD_SHARD_SIZE: usize = 1024;

/// Targets per shard when estimating positions. Each estimate is a
/// pattern search, so small shards keep the workers evenly loaded.
const TARGET_SHARD_SIZE: usize = 256;

/// Collect per-target constraints from measurement records: every
/// responding hop on a probe's traceroute yields a `(probe location, RTT)`
/// constraint for that hop's address. Only router interfaces of the world
/// are kept, and RTTs above `max_rtt_ms` are discarded (loose constraints
/// add nothing but noise).
///
/// Shards of records run on `pool`; their `(address, constraint)` lists
/// are merged in record order before the per-target stable sort, so ties
/// in radius keep record order and the map is the same at any thread
/// count.
pub fn collect_constraints(
    world: &World,
    records: &[TracerouteRecord],
    max_rtt_ms: f64,
    pool: &Pool,
) -> HashMap<Ipv4Addr, Vec<Constraint>> {
    let shards = pool.map_shards(0, records, RECORD_SHARD_SIZE, |_, chunk| {
        let mut found = Vec::new();
        for rec in chunk {
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
                found.push((ip, Constraint::from_rtt(probe.registered_coord, rtt)));
            }
        }
        found
    });
    let mut out: HashMap<Ipv4Addr, Vec<Constraint>> = HashMap::new();
    for (ip, constraint) in shards.into_iter().flatten() {
        out.entry(ip).or_default().push(constraint);
    }
    // Keep only the tightest few constraints per target: CBG's accuracy is
    // set by the nearest landmarks, and dozens of loose disks slow the
    // search without adding information.
    for constraints in out.values_mut() {
        constraints.sort_by(|a, b| a.radius_km.total_cmp(&b.radius_km));
        constraints.truncate(8);
    }
    out
}

/// Geolocate every multi-landmark target and report the error CDF samples
/// against the oracle, in address order. Targets are estimated in shards
/// on `pool` and concatenated in shard order.
pub fn evaluate_cbg(
    world: &World,
    records: &[TracerouteRecord],
    max_rtt_ms: f64,
    min_landmarks: usize,
    pool: &Pool,
) -> Vec<(Ipv4Addr, CbgEstimate, f64)> {
    let mut targets: Vec<(Ipv4Addr, Vec<Constraint>)> =
        collect_constraints(world, records, max_rtt_ms, pool)
            .into_iter()
            .filter(|(_, constraints)| constraints.len() >= min_landmarks)
            .collect();
    targets.sort_unstable_by_key(|(ip, _)| *ip);
    pool.map_shards(0, &targets, TARGET_SHARD_SIZE, |_, chunk| {
        chunk
            .iter()
            .filter_map(|(ip, constraints)| {
                let est = estimate(constraints)?;
                let router = world.router_of_ip(*ip)?;
                Some((*ip, est, est.coord.distance_km(&router.coord)))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_geo::distance::min_rtt_ms;

    fn c(lat: f64, lon: f64) -> Coordinate {
        Coordinate::new(lat, lon).unwrap()
    }

    #[test]
    fn no_constraints_no_estimate() {
        assert!(estimate(&[]).is_none());
    }

    #[test]
    fn single_tight_constraint_centres_on_landmark() {
        let est = estimate(&[Constraint::from_rtt(c(50.0, 8.0), 0.4)]).unwrap();
        assert!(est.coord.distance_km(&c(50.0, 8.0)) < 1.0);
        assert!(est.confidence_km < 45.0);
        assert_eq!(est.landmarks, 1);
        assert_eq!(est.residual_km, 0.0);
    }

    #[test]
    fn triangulation_converges_near_target() {
        // Target at (50, 8); three landmarks ~300 km away in different
        // directions, RTTs exactly at the physical floor (tight disks that
        // intersect only near the target).
        let target = c(50.0, 8.0);
        let landmarks = [
            destination(&target, 0.0, 300.0),
            destination(&target, 120.0, 280.0),
            destination(&target, 240.0, 320.0),
        ];
        let constraints: Vec<Constraint> = landmarks
            .iter()
            .map(|lm| Constraint::from_rtt(*lm, min_rtt_ms(lm.distance_km(&target)) * 1.05))
            .collect();
        let est = estimate(&constraints).unwrap();
        let err = est.coord.distance_km(&target);
        assert!(err < 120.0, "estimate {err} km off");
        assert!(est.residual_km < 1.0, "residual {}", est.residual_km);
    }

    #[test]
    fn contradictory_constraints_leave_residual() {
        // Two disjoint tiny disks 1000 km apart.
        let a = Constraint::from_rtt(c(40.0, 0.0), 0.2);
        let b = Constraint::from_rtt(c(49.0, 0.0), 0.2);
        let est = estimate(&[a, b]).unwrap();
        assert!(est.residual_km > 100.0, "residual {}", est.residual_km);
    }

    #[test]
    fn equal_radius_constraints_keep_record_order_across_shards() {
        use routergeo_trace::Hop;
        use routergeo_world::WorldConfig;
        let w = World::generate(WorldConfig::tiny(402));
        let target = w.interfaces[0].ip;
        let first = w.probes[0].registered_coord;
        let second = (1u32..)
            .find(|&p| w.probes[p as usize].registered_coord != first)
            .expect("two probes at different places");
        let record = |origin_id: u32, hops: Vec<Hop>| TracerouteRecord {
            origin_id,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::new(192, 0, 2, 1),
            hops,
            reached: false,
        };
        // The same RTT to the target from two probes, in the first
        // record of the first and of the second shard: equal radii, so
        // only record order can rank them.
        let mut records: Vec<_> = (0..=RECORD_SHARD_SIZE).map(|_| record(0, vec![])).collect();
        records[0] = record(0, vec![Hop::reply(1, target, 3.0)]);
        records[RECORD_SHARD_SIZE] = record(second, vec![Hop::reply(1, target, 3.0)]);
        for threads in [1, 2] {
            let map = collect_constraints(&w, &records, 20.0, &Pool::new(threads));
            let at: Vec<Coordinate> = map[&target].iter().map(|c| c.at).collect();
            let want = [first, w.probes[second as usize].registered_coord];
            assert_eq!(at, want, "threads={threads}");
        }
    }

    #[test]
    fn end_to_end_cbg_beats_loose_guessing() {
        use routergeo_trace::{AtlasBuiltins, AtlasConfig, Topology};
        use routergeo_world::{World, WorldConfig};
        let w = World::generate(WorldConfig::tiny(401));
        let topo = Topology::build(&w);
        let records = AtlasBuiltins::new(
            &w,
            &topo,
            AtlasConfig {
                seed: 4,
                targets: 5,
                instances_per_target: 3,
            },
        )
        .run();
        let results = evaluate_cbg(&w, &records, 10.0, 2, &Pool::new(2));
        assert!(results.len() > 30, "too few CBG targets: {}", results.len());
        let within_conf = results
            .iter()
            .filter(|(_, est, err)| *err <= est.confidence_km + 25.0)
            .count();
        // The confidence radius is a physical bound (modulo the ≤25 km
        // probe/router scatter): it must hold essentially always.
        assert!(
            within_conf * 100 >= results.len() * 95,
            "{within_conf}/{} within confidence",
            results.len()
        );
        let median = {
            let mut errs: Vec<f64> = results.iter().map(|(_, _, e)| *e).collect();
            errs.sort_by(f64::total_cmp);
            errs[errs.len() / 2]
        };
        assert!(median < 100.0, "median CBG error {median} km");
    }
}
