//! Ark-style topology campaign (§2.1).
//!
//! CAIDA Ark monitors traceroute a randomly selected address in every
//! routed /24. The synthetic campaign does the same over the world's block
//! plan: monitors hosted in stub networks around the world take turns
//! tracing to a random host in randomly drawn /24 blocks; the interface
//! addresses observed on paths form the **Ark-topo-router dataset** the
//! paper's coverage and consistency analysis (§5.1) runs on.

use crate::engine::TraceEngine;
use crate::graph::{PathTree, Topology};
use crate::record::TracerouteRecord;
use crate::rttmodel::SplitMix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use routergeo_pool::{plan_shards, Pool, Shard};
use routergeo_world::{InterfaceId, OperatorKind, PopId, World};
use std::net::Ipv4Addr;

/// Traceroutes per shard. Fixed (never derived from the thread count) so
/// the per-shard destination RNG streams — and therefore the extracted
/// dataset — are identical at every thread count.
const ARK_SHARD_SIZE: usize = 1024;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct ArkConfig {
    /// Campaign RNG seed (independent of the world seed).
    pub seed: u64,
    /// Number of monitors (Ark runs of order dozens).
    pub monitors: usize,
    /// Number of traceroutes to run. `None` = eight passes over every
    /// allocated /24 (the paper probes every routed /24 repeatedly over a
    /// week).
    pub traceroutes: Option<usize>,
}

impl Default for ArkConfig {
    fn default() -> Self {
        ArkConfig {
            seed: 0xA4C,
            monitors: 40,
            traceroutes: None,
        }
    }
}

/// The extracted Ark-topo-router dataset: unique router interface
/// addresses observed on traceroute paths.
#[derive(Debug, Clone)]
pub struct ArkDataset {
    /// Sorted unique interface addresses.
    pub interfaces: Vec<Ipv4Addr>,
    /// Number of traceroutes run to produce it.
    pub traceroutes_run: usize,
}

impl ArkDataset {
    /// Number of interface addresses.
    pub fn len(&self) -> usize {
        self.interfaces.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty()
    }
}

/// A prepared Ark campaign: monitors chosen, shortest-path trees computed.
pub struct ArkCampaign<'w> {
    engine: TraceEngine<'w>,
    monitors: Vec<Monitor>,
    config: ArkConfig,
}

struct Monitor {
    pop: PopId,
    tree: PathTree,
    src_ip: Ipv4Addr,
}

impl<'w> ArkCampaign<'w> {
    /// Prepare a campaign: pick monitors (spread across countries, hosted
    /// in stub networks like real Ark vantage points) and precompute a
    /// shortest-path tree per monitor.
    pub fn new(world: &'w World, topo: &Topology, config: ArkConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x13D0);
        // Group stub PoPs by country, then take one per country in random
        // country order until we have enough monitors.
        let mut by_country: std::collections::HashMap<_, Vec<PopId>> = Default::default();
        for pop in &world.pops {
            if world.operator(pop.op).kind == OperatorKind::Stub {
                by_country
                    .entry(world.city(pop.city).country)
                    .or_default()
                    .push(pop.id);
            }
        }
        let mut countries: Vec<_> = by_country.keys().copied().collect();
        countries.sort();
        countries.shuffle(&mut rng);
        let mut pops = Vec::new();
        'outer: loop {
            for c in &countries {
                let pool = &by_country[c];
                pops.push(pool[rng.gen_range(0..pool.len())]);
                if pops.len() >= config.monitors {
                    break 'outer;
                }
            }
            if countries.is_empty() {
                break;
            }
        }

        let _span = routergeo_obs::span!("ark.trees", dijkstra_runs = pops.len());
        let monitors = pops
            .into_iter()
            .enumerate()
            .map(|(i, pop)| Monitor {
                pop,
                tree: topo.shortest_paths(&[pop]),
                // Monitor host addresses live outside the router plan.
                src_ip: Ipv4Addr::new(203, (i >> 8) as u8, (i & 0xFF) as u8, 10),
            })
            .collect();

        ArkCampaign {
            engine: TraceEngine::new(world, config.seed),
            monitors,
            config,
        }
    }

    /// Number of monitors actually provisioned.
    pub fn monitor_count(&self) -> usize {
        self.monitors.len()
    }

    /// Total traceroutes a full campaign runs (the `traceroutes`
    /// override, or eight passes over every allocated /24).
    pub fn total_traceroutes(&self) -> usize {
        let blocks = self.engine.world().plan().blocks();
        if blocks.is_empty() || self.monitors.is_empty() {
            return 0;
        }
        self.config
            .traceroutes
            .unwrap_or_else(|| blocks.len().saturating_mul(8))
    }

    /// Run one shard of the campaign, invoking `sink` on every record.
    ///
    /// Destination draws come from the shard's private [`SplitMix64`]
    /// stream, so the traceroutes of shard `k` are the same no matter
    /// which worker (or how many workers) executes it. Monitors rotate
    /// round-robin on the *global* traceroute index, mirroring Ark's
    /// team probing.
    pub fn run_shard<F: FnMut(&TracerouteRecord)>(&self, shard: &Shard, mut sink: F) {
        let world = self.engine.world();
        let blocks = world.plan().blocks();
        if blocks.is_empty() || self.monitors.is_empty() {
            return;
        }
        let mut rng = SplitMix64::new(shard.seed);
        for i in shard.start..shard.end {
            let monitor = &self.monitors[i % self.monitors.len()];
            let block = &blocks[(rng.next_u64() % blocks.len() as u64) as usize];
            let host = 1 + rng.next_u64() % 254;
            let dst_ip = block.block.nth(host).expect("host in /24");
            let src_coord = world.city(world.pop(monitor.pop).city).coord;
            if let Some(rec) = self.engine.trace(
                &monitor.tree,
                src_coord,
                (i % self.monitors.len()) as u32,
                monitor.src_ip,
                block.pop,
                dst_ip,
            ) {
                sink(&rec);
            }
        }
    }

    /// Run the whole campaign serially, invoking `sink` on every
    /// traceroute record in global order.
    pub fn run<F: FnMut(&TracerouteRecord)>(&self, mut sink: F) -> usize {
        let total = self.total_traceroutes();
        for shard in plan_shards(self.config.seed ^ 0xDE57, total, ARK_SHARD_SIZE) {
            self.run_shard(&shard, &mut sink);
        }
        total
    }

    /// Run the campaign and extract the unique interface addresses —
    /// the Ark-topo-router dataset. Thread count from the environment
    /// ([`Pool::from_env`]).
    pub fn extract_dataset(&self) -> ArkDataset {
        self.extract_dataset_with(&Pool::from_env())
    }

    /// [`extract_dataset`](ArkCampaign::extract_dataset) on an explicit
    /// pool. Shards run concurrently, each returning the interface ids it
    /// saw; one mark per world interface merges them, so the result is
    /// byte-identical at every thread count.
    pub fn extract_dataset_with(&self, pool: &Pool) -> ArkDataset {
        let world = self.engine.world();
        let total = self.total_traceroutes();
        let mut span = routergeo_obs::span!(
            "ark.extract",
            traceroutes = total,
            monitors = self.monitors.len()
        );
        routergeo_obs::counter("ark.traceroutes").add(total as u64);
        let per_shard: Vec<Vec<InterfaceId>> =
            pool.run_shards(self.config.seed ^ 0xDE57, total, ARK_SHARD_SIZE, |shard| {
                let mut seen = Vec::new();
                self.run_shard(shard, |rec| {
                    // Keep only addresses that are actually router
                    // interfaces; destination hosts that happened to reply
                    // are endpoints.
                    seen.extend(
                        rec.responding_intermediate_ips()
                            .filter_map(|ip| world.find_interface(ip)),
                    );
                });
                seen
            });
        let mut marked = vec![false; world.interfaces.len()];
        for id in per_shard.into_iter().flatten() {
            marked[id.index()] = true;
        }
        // Interface addresses are unique, so the marks need no dedup.
        let mut interfaces: Vec<Ipv4Addr> = world
            .interfaces
            .iter()
            .zip(marked)
            .filter_map(|(interface, seen)| seen.then_some(interface.ip))
            .collect();
        interfaces.sort_unstable();
        routergeo_obs::counter("ark.interfaces").add(interfaces.len() as u64);
        span.attr("interfaces", interfaces.len());
        ArkDataset {
            interfaces,
            traceroutes_run: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{World, WorldConfig};
    use std::collections::{BTreeSet, HashSet};

    fn campaign(world: &World) -> (Topology, ArkConfig) {
        let topo = Topology::build(world);
        let cfg = ArkConfig {
            seed: 5,
            monitors: 10,
            traceroutes: Some(2_000),
        };
        (topo, cfg)
    }

    #[test]
    fn dataset_is_deterministic() {
        let w = World::generate(WorldConfig::tiny(41));
        let (topo, cfg) = campaign(&w);
        let a = ArkCampaign::new(&w, &topo, cfg.clone()).extract_dataset();
        let b = ArkCampaign::new(&w, &topo, cfg).extract_dataset();
        assert_eq!(a.interfaces, b.interfaces);
        assert!(!a.is_empty());
    }

    #[test]
    fn parallel_dataset_is_identical_to_serial() {
        let w = World::generate(WorldConfig::tiny(46));
        let (topo, cfg) = campaign(&w);
        let c = ArkCampaign::new(&w, &topo, cfg);
        let serial = c.extract_dataset_with(&Pool::serial());
        for threads in [2, 8] {
            let parallel = c.extract_dataset_with(&Pool::new(threads));
            assert_eq!(serial.interfaces, parallel.interfaces, "threads={threads}");
            assert_eq!(serial.traceroutes_run, parallel.traceroutes_run);
        }
        assert!(!serial.is_empty());
    }

    #[test]
    fn extraction_matches_serial_reference() {
        // Independent of the shard merge: every interface address the
        // serial run's traceroutes reported, in one ordered set.
        let w = World::generate(WorldConfig::tiny(48));
        let (topo, cfg) = campaign(&w);
        let c = ArkCampaign::new(&w, &topo, cfg);
        let mut want = BTreeSet::new();
        c.run(|rec| {
            let ips = rec.responding_intermediate_ips();
            want.extend(ips.filter(|ip| w.find_interface(*ip).is_some()));
        });
        let want: Vec<Ipv4Addr> = want.into_iter().collect();
        assert!(!want.is_empty());
        for threads in [1, 2, 8] {
            let got = c.extract_dataset_with(&Pool::new(threads));
            assert_eq!(got.interfaces, want, "threads={threads}");
        }
    }

    #[test]
    fn run_matches_sharded_traversal() {
        // `run` must visit exactly the shard plan in order: collecting
        // per-shard records by hand reproduces the serial sink stream.
        let w = World::generate(WorldConfig::tiny(47));
        let (topo, cfg) = campaign(&w);
        let c = ArkCampaign::new(&w, &topo, cfg.clone());
        let mut via_run = Vec::new();
        let total = c.run(|rec| via_run.push(rec.dst_ip));
        let mut via_shards = Vec::new();
        for shard in plan_shards(cfg.seed ^ 0xDE57, total, ARK_SHARD_SIZE) {
            c.run_shard(&shard, |rec| via_shards.push(rec.dst_ip));
        }
        assert_eq!(via_run, via_shards);
    }

    #[test]
    fn dataset_contains_only_real_interfaces() {
        let w = World::generate(WorldConfig::tiny(42));
        let (topo, cfg) = campaign(&w);
        let ds = ArkCampaign::new(&w, &topo, cfg).extract_dataset();
        for ip in &ds.interfaces {
            assert!(w.find_interface(*ip).is_some(), "{ip} not an interface");
        }
    }

    #[test]
    fn more_traceroutes_discover_more_interfaces() {
        let w = World::generate(WorldConfig::tiny(43));
        let topo = Topology::build(&w);
        let small = ArkCampaign::new(
            &w,
            &topo,
            ArkConfig {
                seed: 5,
                monitors: 10,
                traceroutes: Some(200),
            },
        )
        .extract_dataset();
        let large = ArkCampaign::new(
            &w,
            &topo,
            ArkConfig {
                seed: 5,
                monitors: 10,
                traceroutes: Some(4_000),
            },
        )
        .extract_dataset();
        assert!(large.len() > small.len());
    }

    #[test]
    fn campaign_discovers_multiple_operators() {
        let w = World::generate(WorldConfig::tiny(44));
        let (topo, cfg) = campaign(&w);
        let ds = ArkCampaign::new(&w, &topo, cfg).extract_dataset();
        let mut ops = HashSet::new();
        for ip in &ds.interfaces {
            ops.insert(w.block_info(*ip).unwrap().op);
        }
        assert!(ops.len() > 10, "only {} operators discovered", ops.len());
    }

    #[test]
    fn monitors_span_countries() {
        let w = World::generate(WorldConfig::tiny(45));
        let topo = Topology::build(&w);
        let c = ArkCampaign::new(
            &w,
            &topo,
            ArkConfig {
                seed: 5,
                monitors: 12,
                traceroutes: Some(1),
            },
        );
        assert_eq!(c.monitor_count(), 12);
        let countries: HashSet<_> = c
            .monitors
            .iter()
            .map(|m| w.city(w.pop(m.pop).city).country)
            .collect();
        assert!(countries.len() >= 8, "monitors clustered: {countries:?}");
    }
}
