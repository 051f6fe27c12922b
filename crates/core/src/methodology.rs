//! The §4 methodology checks.
//!
//! Before trusting 40 km as "same city", the paper verifies two things
//! over the Ark address set:
//!
//! 1. databases put a city's coordinates within 40 km of the GeoNames
//!    gazetteer entry for that (city, region, country) more than 99% of
//!    the time — i.e. records with city names really carry city-level
//!    coordinates;
//! 2. any two databases place *the same city name* within 40 km of each
//!    other more than 99% of the time — so coordinate comparison is a
//!    sound substitute for city-name comparison.

use routergeo_db::{GeoDatabase, LocationInterner};
use routergeo_gazetteer::Gazetteer;
use routergeo_geo::stats::ratio;
use routergeo_geo::{Coordinate, CountryCode, CITY_RANGE_KM};
use routergeo_pool::Pool;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Result of the §4 sanity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodologyReport {
    /// Per database: (name, city records checked against the gazetteer,
    /// matches within the city range).
    pub gazetteer_check: Vec<(String, usize, usize)>,
    /// Per database pair: (name a, name b, shared city names compared,
    /// pairs within the city range).
    pub cross_db_check: Vec<(String, String, usize, usize)>,
}

impl MethodologyReport {
    /// Worst per-database gazetteer agreement fraction.
    pub fn min_gazetteer_agreement(&self) -> f64 {
        self.gazetteer_check
            .iter()
            .map(|(_, total, ok)| ratio(*ok, *total))
            .fold(1.0, f64::min)
    }

    /// Worst cross-database same-city agreement fraction.
    pub fn min_cross_db_agreement(&self) -> f64 {
        self.cross_db_check
            .iter()
            .map(|(_, _, total, ok)| ratio(*ok, *total))
            .fold(1.0, f64::min)
    }
}

/// Addresses per shard of the city-table pass: a few shards even for
/// small samples, while the batched readers still amortize their
/// per-chunk work. Fixed, never derived from the thread count.
const SAMPLE_SHARD_SIZE: usize = 4096;

/// One database's city coordinate table as observed through lookups:
/// (city name, country) → the first coordinate seen for it.
type CityTable = HashMap<(String, CountryCode), Coordinate>;

/// Run both checks over an address sample.
///
/// Each shard of `ips` resolves its chunk on `pool` and keeps, per
/// database, the first coordinate it sees for each (city, country).
/// The shard tables merge in shard order, first entry wins, which is
/// exactly the first-seen table of a serial pass over the sample. No
/// whole-sample view is built: shard state is bounded by the chunk.
pub fn methodology_checks<D: GeoDatabase + Sync>(
    dbs: &[D],
    gazetteer: &Gazetteer,
    ips: &[Ipv4Addr],
    pool: &Pool,
) -> MethodologyReport {
    let shards = pool.map_shards(0, ips, SAMPLE_SHARD_SIZE, |_, chunk| {
        let mut interner = LocationInterner::new();
        dbs.iter()
            .map(|db| {
                let mut seen: HashMap<(u32, CountryCode), Coordinate> = HashMap::new();
                for rec in db.lookup_batch(chunk, &mut interner).into_iter().flatten() {
                    if let (Some(city), Some(country), Some(coord)) =
                        (rec.city_id, rec.country, rec.coord)
                    {
                        seen.entry((city, country)).or_insert(coord);
                    }
                }
                seen.into_iter()
                    .map(|((city, country), coord)| {
                        let name = interner.resolve(city).expect("interned city id");
                        ((name.to_string(), country), coord)
                    })
                    .collect::<CityTable>()
            })
            .collect::<Vec<_>>()
    });
    let mut per_db_cities: Vec<CityTable> = vec![HashMap::new(); dbs.len()];
    for tables in shards {
        for (merged, table) in per_db_cities.iter_mut().zip(tables) {
            for (key, coord) in table {
                merged.entry(key).or_insert(coord);
            }
        }
    }

    // Check 1: vs the gazetteer.
    let mut gazetteer_check = Vec::new();
    for (i, db) in dbs.iter().enumerate() {
        let mut total = 0usize;
        let mut ok = 0usize;
        for ((city, country), coord) in &per_db_cities[i] {
            if let Some(entry) = gazetteer.lookup(city, None, *country) {
                total += 1;
                if coord.distance_km(&entry.coord) <= CITY_RANGE_KM {
                    ok += 1;
                }
            }
        }
        gazetteer_check.push((db.name().to_string(), total, ok));
    }

    // Check 2: same city name across database pairs.
    let mut cross_db_check = Vec::new();
    for i in 0..dbs.len() {
        for j in i + 1..dbs.len() {
            let mut total = 0usize;
            let mut ok = 0usize;
            for (key, coord_a) in &per_db_cities[i] {
                if let Some(coord_b) = per_db_cities[j].get(key) {
                    total += 1;
                    if coord_a.distance_km(coord_b) <= CITY_RANGE_KM {
                        ok += 1;
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::synth::{build_vendor, SignalWorld, VendorProfile};
    use routergeo_world::{World, WorldConfig};

    #[test]
    fn synthetic_vendors_pass_the_paper_checks() {
        let w = World::generate(WorldConfig::tiny(211));
        let signals = SignalWorld::new(&w);
        let dbs: Vec<_> = VendorProfile::all_presets()
            .iter()
            .map(|p| build_vendor(&signals, p))
            .collect();
        let gazetteer = Gazetteer::from_world(&w, 3, 3.0);
        let ips: Vec<Ipv4Addr> = w.interfaces.iter().step_by(3).map(|i| i.ip).collect();
        let report = methodology_checks(&dbs, &gazetteer, &ips, &Pool::new(2));

        assert_eq!(report.gazetteer_check.len(), 4);
        assert_eq!(report.cross_db_check.len(), 6);
        for (name, total, _) in &report.gazetteer_check {
            assert!(*total > 50, "{name} checked only {total} cities");
        }
        // The paper's ">99% within 40 km" both ways.
        assert!(
            report.min_gazetteer_agreement() > 0.99,
            "gazetteer agreement {}",
            report.min_gazetteer_agreement()
        );
        assert!(
            report.min_cross_db_agreement() > 0.99,
            "cross-db agreement {}",
            report.min_cross_db_agreement()
        );
    }

    #[test]
    fn first_seen_coordinate_wins_across_shards() {
        use routergeo_db::inmem::InMemoryDbBuilder;
        use routergeo_db::{Granularity, LocationRecord};
        let springfield = |lat: f64| LocationRecord {
            country: Some("US".parse().unwrap()),
            region: None,
            city: Some("Springfield".into()),
            coord: Some(Coordinate::new(lat, -90.0).unwrap()),
            granularity: Granularity::Block24,
        };
        // `steady` puts the city at one place everywhere; `drifting` puts
        // it there in the first shard's block and ~1,000 km north in the
        // second shard's block.
        let mut steady = InMemoryDbBuilder::new("steady");
        steady.push_prefix("6.0.0.0/16".parse().unwrap(), springfield(40.0));
        steady.push_prefix("7.0.0.0/24".parse().unwrap(), springfield(40.0));
        let mut drifting = InMemoryDbBuilder::new("drifting");
        drifting.push_prefix("6.0.0.0/16".parse().unwrap(), springfield(40.0));
        drifting.push_prefix("7.0.0.0/24".parse().unwrap(), springfield(49.0));
        let dbs = [steady.build().unwrap(), drifting.build().unwrap()];

        let first_block = (0..SAMPLE_SHARD_SIZE as u32).map(|i| Ipv4Addr::from(0x0600_0000 + i));
        let ips: Vec<Ipv4Addr> = first_block
            .chain((1..10).map(|i| Ipv4Addr::new(7, 0, 0, i)))
            .collect();
        let gazetteer = Gazetteer::from_world(&World::generate(WorldConfig::tiny(213)), 3, 3.0);
        for threads in [1, 2] {
            let report = methodology_checks(&dbs, &gazetteer, &ips, &Pool::new(threads));
            let want = vec![("steady".to_string(), "drifting".to_string(), 1, 1)];
            assert_eq!(report.cross_db_check, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let w = World::generate(WorldConfig::tiny(212));
        let gazetteer = Gazetteer::from_world(&w, 3, 3.0);
        let dbs: Vec<routergeo_db::InMemoryDb> = vec![];
        let report = methodology_checks(&dbs, &gazetteer, &[], &Pool::new(2));
        assert!(report.gazetteer_check.is_empty());
        assert_eq!(report.min_gazetteer_agreement(), 1.0);
    }
}
