//! Router vs endpoint accuracy — the paper's closing observation.
//!
//! §8: "comparing our router geolocation accuracy results with previous
//! work on databases evaluation suggests databases geolocate routers with
//! less accuracy compared to end hosts." The synthetic world can test that
//! claim directly: end hosts live in stub blocks alongside the homes and
//! offices the vendors' eyeball corpora are built from, while routers —
//! especially backbone routers — live in infrastructure blocks.
//!
//! This module samples synthetic end-host addresses (non-interface hosts
//! inside stub blocks, whose true location is the block's deployment
//! city), evaluates every database on them, and contrasts the result with
//! the router ground truth.

use crate::accuracy::{evaluate_slice, VendorAccuracy};
use crate::groundtruth::{GroundTruth, GtEntry, GtMethod};
use crate::resolve::ResolvedView;
use routergeo_db::GeoDatabase;
use routergeo_pool::Pool;
use routergeo_world::{OperatorKind, World};
use std::net::Ipv4Addr;

/// Sample up to `max` synthetic end-host addresses with their true
/// locations. Hosts are drawn from stub blocks at host offsets above the
/// interface range, so none of them is a router interface.
pub fn endpoint_ground_truth(world: &World, max: usize) -> Vec<GtEntry> {
    let mut entries = Vec::new();
    for info in world.plan().blocks() {
        if entries.len() >= max {
            break;
        }
        if world.operator(info.op).kind != OperatorKind::Stub {
            continue;
        }
        // Hosts .200-.250 are never assigned to interfaces by the world
        // generator's sequential fill of small stub PoPs; double-check
        // against the interface index anyway.
        for host in [200u64, 225, 250] {
            let ip = match info.block.nth(host) {
                Some(ip) => ip,
                None => continue,
            };
            if world.find_interface(ip).is_some() {
                continue;
            }
            let city = world.city(info.city);
            entries.push(GtEntry {
                ip,
                coord: city.coord,
                country: city.country,
                rir: Some(info.rir),
                method: GtMethod::RttProximity, // nominal; not used here
                domain: None,
            });
            if entries.len() >= max {
                break;
            }
        }
    }
    entries
}

/// Router-vs-endpoint comparison for one database.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointComparison {
    /// Database name.
    pub database: String,
    /// Accuracy over the router ground truth.
    pub routers: VendorAccuracy,
    /// Accuracy over the synthetic endpoint sample.
    pub endpoints: VendorAccuracy,
}

impl EndpointComparison {
    /// Country-accuracy gap (endpoints − routers); positive means routers
    /// are harder, as the paper concludes.
    pub fn country_gap(&self) -> f64 {
        self.endpoints.country_accuracy() - self.routers.country_accuracy()
    }

    /// City-accuracy gap (endpoints − routers).
    pub fn city_gap(&self) -> f64 {
        self.endpoints.city_accuracy() - self.routers.city_accuracy()
    }
}

/// Evaluate every database over both populations.
///
/// The router ground truth and the endpoint sample are resolved together
/// into one [`ResolvedView`] on `pool` (router rows first), and each
/// population is tallied from its rows of the shared columns.
pub fn routers_vs_endpoints<D: GeoDatabase + Sync>(
    dbs: &[D],
    world: &World,
    router_gt: &GroundTruth,
    endpoint_sample: usize,
    pool: &Pool,
) -> Vec<EndpointComparison> {
    let endpoints = endpoint_ground_truth(world, endpoint_sample);
    let rows: Vec<(usize, &GtEntry)> = router_gt
        .entries
        .iter()
        .chain(&endpoints)
        .enumerate()
        .collect();
    let ips: Vec<Ipv4Addr> = rows.iter().map(|(_, e)| e.ip).collect();
    let view = ResolvedView::build_with(dbs, &ips, pool);
    let (routers, hosts) = rows.split_at(router_gt.entries.len());
    (0..view.db_count())
        .map(|d| EndpointComparison {
            database: view.databases()[d].clone(),
            routers: evaluate_slice(&view, d, routers),
            endpoints: evaluate_slice(&view, d, hosts),
        })
        .collect()
}

/// Sanity helper: true when an address belongs to the world's plan but is
/// not a router interface (i.e. an end host).
pub fn is_endpoint(world: &World, ip: Ipv4Addr) -> bool {
    world.block_info(ip).is_some() && world.find_interface(ip).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::synth::{build_vendor, SignalWorld, VendorProfile};
    use routergeo_world::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::small(301))
    }

    #[test]
    fn endpoint_sample_is_hosts_not_interfaces() {
        let w = world();
        let eps = endpoint_ground_truth(&w, 500);
        assert!(eps.len() >= 300, "sample too small: {}", eps.len());
        for e in &eps {
            assert!(is_endpoint(&w, e.ip), "{} is not an endpoint", e.ip);
            // The credited location is the block's deployment city.
            let info = w.block_info(e.ip).unwrap();
            assert_eq!(w.city(info.city).coord, e.coord);
        }
    }

    #[test]
    fn endpoints_are_easier_than_routers_for_every_database() {
        // The paper's §8 claim, tested end to end. Build a small router GT
        // from the transit operators (the hard case) and compare.
        let w = world();
        let signals = SignalWorld::new(&w);
        let dbs: Vec<_> = VendorProfile::all_presets()
            .iter()
            .map(|p| build_vendor(&signals, p))
            .collect();

        // Router population: one interface per transit PoP.
        let mut router_entries = Vec::new();
        for pop in &w.pops {
            if w.operator(pop.op).kind == OperatorKind::Stub {
                continue;
            }
            let Some(rid) = pop.router_ids().next() else {
                continue;
            };
            let r = w.router(rid);
            let Some(idx) = r.interfaces.clone().next() else {
                continue;
            };
            let ip = w.interfaces[idx as usize].ip;
            let city = w.city(pop.city);
            router_entries.push(GtEntry {
                ip,
                coord: city.coord,
                country: city.country,
                rir: w.block_info(ip).map(|b| b.rir),
                method: GtMethod::DnsBased,
                domain: None,
            });
        }
        let router_gt = GroundTruth {
            entries: router_entries,
            overlap: vec![],
            degraded: vec![],
        };
        let cmp = routers_vs_endpoints(&dbs, &w, &router_gt, 1_000, &Pool::new(2));
        assert_eq!(cmp.len(), 4);
        for c in &cmp {
            assert!(
                c.country_gap() > 0.0,
                "{}: routers not harder at country level ({:.3} vs {:.3})",
                c.database,
                c.routers.country_accuracy(),
                c.endpoints.country_accuracy()
            );
        }
        // The registry-fed databases show a much larger gap than
        // NetAcuity, whose hint mining recovers router locations.
        assert!(cmp[0].country_gap() > cmp[3].country_gap());
    }
}
