//! Atlas-style built-in measurements (§2.3.2).
//!
//! Every RIPE Atlas probe continuously traceroutes a set of well-known
//! targets (DNS root servers). The synthetic equivalent: a handful of
//! anycast services, each with instances at several global-transit PoPs;
//! every probe traces to its nearest instance of every service. The
//! resulting records — origin probe, target, intermediate hops, RTTs — are
//! what `routergeo-rtt` mines for 0.5 ms-proximity ground truth.
//!
//! Anycast routing: a probe's traceroute to a service goes to the
//! instance nearest by path distance. Rather than running Dijkstra per
//! probe (thousands of sources), each service gets one multi-source tree
//! seeded at all of its instances at distance 0. Every PoP then hangs off
//! the instance with the shortest path to it, and because the graph is
//! undirected, walking from the probe's PoP back to the tree root is the
//! probe→instance path. On an exact distance tie the instance placed
//! first wins.

use crate::engine::TraceEngine;
use crate::graph::{PathTree, Topology};
use crate::record::TracerouteRecord;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use routergeo_world::{OperatorKind, PopId, World};
use std::net::Ipv4Addr;

/// Built-in measurement configuration.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    /// Campaign seed.
    pub seed: u64,
    /// Number of anycast target services (13 root servers in reality).
    pub targets: usize,
    /// Anycast instances per service.
    pub instances_per_target: usize,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            seed: 0xA71A5,
            targets: 13,
            instances_per_target: 8,
        }
    }
}

/// Prepared built-in measurement campaign.
pub struct AtlasBuiltins<'w> {
    engine: TraceEngine<'w>,
    /// Per service: its address and the shortest-path tree rooted at all
    /// of its instances.
    targets: Vec<(Ipv4Addr, PathTree)>,
}

impl<'w> AtlasBuiltins<'w> {
    /// Place anycast instances and build one path tree per service.
    pub fn new(world: &'w World, topo: &Topology, config: AtlasConfig) -> Self {
        let services = place_services(world, &config);
        let _span = routergeo_obs::span!("atlas.trees", dijkstra_runs = services.len());
        let targets = services
            .into_iter()
            .map(|(addr, instances)| (addr, topo.shortest_paths(&instances)))
            .collect();
        AtlasBuiltins {
            engine: TraceEngine::new(world, config.seed),
            targets,
        }
    }

    /// Number of services configured.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Run the built-ins for every probe in the world: each probe traces
    /// to its nearest instance of every service. Records are returned in
    /// (probe, target) order.
    pub fn run(&self) -> Vec<TracerouteRecord> {
        let world = self.engine.world();
        let _span = routergeo_obs::span!("atlas.run", probes = world.probes.len());
        let mut out = Vec::with_capacity(world.probes.len() * self.targets.len());
        for probe in &world.probes {
            // Probe host address: outside the router plan.
            let src_ip = Ipv4Addr::new(
                240,
                (probe.id.0 >> 16) as u8,
                (probe.id.0 >> 8) as u8,
                probe.id.0 as u8,
            );
            for (addr, tree) in &self.targets {
                if let Some(path) = tree.path_to_root(probe.host_pop) {
                    out.push(self.engine.trace_along(
                        &path,
                        probe.true_coord,
                        probe.id.0,
                        src_ip,
                        *addr,
                    ));
                }
            }
        }
        out
    }
}

/// Place every service: its address and its instance PoPs in rank order,
/// drawn from the global-transit PoPs by the campaign seed.
fn place_services(world: &World, config: &AtlasConfig) -> Vec<(Ipv4Addr, Vec<PopId>)> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0075);
    let global_pops: Vec<PopId> = world
        .pops
        .iter()
        .filter(|p| world.operator(p.op).kind == OperatorKind::GlobalTransit)
        .map(|p| p.id)
        .collect();
    (0..config.targets)
        .map(|t| {
            let mut pool = global_pops.clone();
            pool.shuffle(&mut rng);
            pool.truncate(config.instances_per_target.max(1));
            // Service addresses live outside the router plan
            // (100.64.0.0/10 is never allocated to operators).
            (Ipv4Addr::new(100, 64 + (t as u8 % 64), 0, 53), pool)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{Scale, World, WorldConfig};

    fn run_builtins(seed: u64) -> (World, Vec<TracerouteRecord>) {
        let w = World::generate(WorldConfig::tiny(seed));
        let topo = Topology::build(&w);
        let cfg = AtlasConfig {
            seed: 3,
            targets: 4,
            instances_per_target: 3,
        };
        let records = AtlasBuiltins::new(&w, &topo, cfg).run();
        (w, records)
    }

    #[test]
    fn every_probe_measures_every_target() {
        let (w, records) = run_builtins(51);
        assert_eq!(records.len(), w.probes.len() * 4);
        let probes: std::collections::HashSet<_> = records.iter().map(|r| r.origin_id).collect();
        assert_eq!(probes.len(), w.probes.len());
    }

    #[test]
    fn first_hops_are_near_the_probe() {
        // The property RTT-proximity extraction depends on: hops measured
        // under 0.5 ms are physically within 50 km of the probe.
        let (w, records) = run_builtins(52);
        let mut checked = 0;
        for rec in &records {
            let probe = &w.probes[rec.origin_id as usize];
            for hop in &rec.hops {
                let (Some(ip), Some(rtt)) = (hop.ip, hop.rtt_ms) else {
                    continue;
                };
                if rtt >= 0.5 || ip == rec.dst_ip {
                    continue;
                }
                // Private CPE gateways are not world interfaces.
                let Some(router) = w.router_of_ip(ip) else {
                    assert!(ip.is_private(), "non-interface public hop {ip}");
                    continue;
                };
                let d = probe.true_coord.distance_km(&router.coord);
                assert!(d <= 50.0, "hop {ip} at {d} km with rtt {rtt}");
                checked += 1;
            }
        }
        assert!(checked > 50, "too few sub-0.5ms hops: {checked}");
    }

    #[test]
    fn most_probes_have_multiple_local_hops() {
        // §2.3.2: >80% of RTT-proximity addresses are ≥2 hops from the
        // probe, i.e. the built-ins expose more than just the gateway.
        let (_, records) = run_builtins(53);
        let with_two = records
            .iter()
            .filter(|r| r.hops.iter().filter(|h| h.ip.is_some()).count() >= 2)
            .count();
        assert!(with_two * 10 > records.len() * 7);
    }

    #[test]
    fn target_addresses_are_not_world_interfaces() {
        let (w, records) = run_builtins(54);
        for rec in records.iter().take(100) {
            assert!(w.find_interface(rec.dst_ip).is_none());
        }
    }

    /// The per-instance semantics the multi-source tree replaces: one
    /// tree per instance, the first instance at minimum path distance,
    /// and its instance→probe path reversed.
    fn reference_run(
        world: &World,
        topo: &Topology,
        config: &AtlasConfig,
    ) -> Vec<TracerouteRecord> {
        let engine = TraceEngine::new(world, config.seed);
        let services: Vec<(Ipv4Addr, Vec<PathTree>)> = place_services(world, config)
            .into_iter()
            .map(|(addr, pops)| {
                (
                    addr,
                    pops.iter().map(|p| topo.shortest_paths(&[*p])).collect(),
                )
            })
            .collect();
        let mut out = Vec::new();
        for probe in &world.probes {
            let src_ip = Ipv4Addr::new(
                240,
                (probe.id.0 >> 16) as u8,
                (probe.id.0 >> 8) as u8,
                probe.id.0 as u8,
            );
            for (addr, trees) in &services {
                let Some((_, tree)) = trees
                    .iter()
                    .filter_map(|t| t.distance_km(probe.host_pop).map(|d| (d, t)))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                else {
                    continue;
                };
                let path = tree.path_to(probe.host_pop).expect("reachable");
                let total = path.last().map(|(_, d)| *d).unwrap_or(0.0);
                let reversed: Vec<(PopId, f32)> = path
                    .iter()
                    .rev()
                    .map(|(pop, cum)| (*pop, total - *cum))
                    .collect();
                out.push(engine.trace_along(
                    &reversed,
                    probe.true_coord,
                    probe.id.0,
                    src_ip,
                    *addr,
                ));
            }
        }
        out
    }

    /// The two campaign salts the Lab runs.
    const LAB_SALTS: [u64; 2] = [0xA71A5, 0x16_1A5];

    fn assert_matches_reference(world: &World, targets: usize, instances: usize) {
        let topo = Topology::build(world);
        for salt in LAB_SALTS {
            let cfg = AtlasConfig {
                seed: world.config.seed ^ salt,
                targets,
                instances_per_target: instances,
            };
            let got = AtlasBuiltins::new(world, &topo, cfg.clone()).run();
            let want = reference_run(world, &topo, &cfg);
            assert_eq!(got.len(), want.len(), "salt {salt:#x}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "record {i}, salt {salt:#x}");
            }
        }
    }

    #[test]
    fn multi_source_trees_match_per_instance_nearest_paths() {
        for seed in 0..20 {
            let w = World::generate(WorldConfig::tiny(1000 + seed));
            assert_matches_reference(&w, 4, 8);
        }
    }

    #[test]
    #[ignore = "tenth-scale world; run with --ignored in release"]
    fn multi_source_trees_match_per_instance_nearest_paths_at_tenth_scale() {
        let w = World::generate(WorldConfig::new(20170301, Scale::Tenth));
        assert_matches_reference(&w, 13, 8);
    }

    #[test]
    fn deterministic() {
        let (_, a) = run_builtins(55);
        let (_, b) = run_builtins(55);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }
}
