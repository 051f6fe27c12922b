//! Seeded input generators. Every output is a pure function of the seed
//! (and a size), so one seed always gives the same inputs.

use routergeo_db::{Granularity, LocationRecord};
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_net::Prefix;
use routergeo_pool::splitmix64;
use routergeo_serve::Corpus;
use std::net::Ipv4Addr;

/// Country pool for the vendor rows.
const COUNTRIES: [&str; 8] = ["US", "DE", "FR", "JP", "BR", "GB", "NL", "AU"];

/// Distinct city names per vendor: capped, as in a real vendor file, so
/// the interner deduplicates.
const CITY_CARDINALITY: u64 = 4096;

/// Distinct region names per vendor.
const REGION_CARDINALITY: u64 = 512;

fn pick(seed: u64, i: u64, modulus: u64) -> u64 {
    splitmix64(seed, i) % modulus
}

/// Vendor `v`'s record for /24 row `i`. Coordinates sit on the
/// micro-degree grid, so the RGDB encoding is exact.
fn vendor_record(seed: u64, v: u64, i: u64) -> LocationRecord {
    let h = splitmix64(seed ^ v.rotate_left(32), i);
    let country = COUNTRIES
        .get(usize::try_from(h % 8).unwrap_or(0))
        .and_then(|c| CountryCode::from_str_exact(c))
        .expect("the pool holds valid country codes");
    let granularity = match (h >> 8) & 0x3 {
        0 => Granularity::Aggregate,
        1 => Granularity::Block24,
        _ => Granularity::SubBlock,
    };
    let lat_micro = i64::try_from(pick(h, 1, 180_000_000)).unwrap_or(0) - 90_000_000;
    let lon_micro = i64::try_from(pick(h, 2, 360_000_000)).unwrap_or(0) - 180_000_000;
    #[allow(clippy::cast_precision_loss)] // |micro| <= 360e6: exact in f64
    let coord = Coordinate::new(lat_micro as f64 / 1e6, lon_micro as f64 / 1e6)
        .expect("the grid stays inside coordinate bounds");
    LocationRecord {
        country: Some(country),
        region: (!h.is_multiple_of(5))
            .then(|| format!("Region-{}", pick(h, 3, REGION_CARDINALITY))),
        city: (!h.is_multiple_of(3)).then(|| format!("City-{}", pick(h, 4, CITY_CARDINALITY))),
        coord: Some(coord),
        granularity,
    }
}

/// Vendor `v`'s rows: `prefixes` /24 blocks tiled over 10.0.0.0/8, with
/// every seventh block missing, phase-shifted by vendor, so the four
/// databases disagree on coverage.
pub fn vendor_rows(seed: u64, v: u64, prefixes: u32) -> Vec<(Prefix, LocationRecord)> {
    (0..prefixes.min(1 << 16))
        .filter(|&i| !(u64::from(i) + v).is_multiple_of(7))
        .map(|i| {
            let prefix = Prefix::new(Ipv4Addr::from(0x0A00_0000 | (i << 8)), 24)
                .expect("an aligned /24 inside 10/8");
            (prefix, vendor_record(seed, v, u64::from(i)))
        })
        .collect()
}

/// `count` probe addresses in random order: 85% inside the tiled /24s
/// (mostly hits), the rest uniform over the address space (mostly misses).
pub fn probe_addresses(seed: u64, count: usize, prefixes: u32) -> Vec<Ipv4Addr> {
    let span = u64::from(prefixes.clamp(1, 1 << 16));
    (0..count as u64)
        .map(|k| {
            let h = splitmix64(seed ^ 0x5EED_ADD2, k);
            let ip = if h % 100 < 85 {
                let block = u32::try_from(pick(h, 1, span)).unwrap_or(0);
                let host = u32::try_from((h >> 32) & 0xFF).unwrap_or(0);
                0x0A00_0000 | (block << 8) | host
            } else {
                u32::try_from(splitmix64(h, 2) & 0xFFFF_FFFF).unwrap_or(0)
            };
            Ipv4Addr::from(ip)
        })
        .collect()
}

/// `count` serve-swap lookup addresses: 70% the first address of a
/// uniformly drawn corpus prefix (a hit), 30% a random address in that
/// record's /16 block (a hit or a miss, the same in every generation).
pub fn serve_addresses(seed: u64, corpus: &Corpus, count: usize) -> Vec<Ipv4Addr> {
    let records = corpus.records() as u64;
    (0..count as u64)
        .map(|j| {
            let r = splitmix64(seed ^ 0x5E_5A7A, j);
            let k = usize::try_from(pick(r, 1, records)).unwrap_or(0);
            if r % 10 < 7 {
                corpus.hit_addr(k)
            } else {
                corpus.block_addr(k, splitmix64(r, 2))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_rows_are_a_pure_function_of_the_seed() {
        let a = vendor_rows(7, 2, 2_000);
        assert_eq!(a, vendor_rows(7, 2, 2_000));
        assert_ne!(a, vendor_rows(8, 2, 2_000));
        // Phase-shifted gaps: vendors differ in which blocks they cover.
        let b = vendor_rows(7, 3, 2_000);
        let firsts = |rows: &[(Prefix, LocationRecord)]| -> Vec<Prefix> {
            rows.iter().take(10).map(|(p, _)| *p).collect()
        };
        assert_ne!(firsts(&a), firsts(&b));
        assert_eq!(a.len(), 2_000 - 285);
    }

    #[test]
    fn probe_addresses_are_a_pure_function_of_the_seed() {
        let a = probe_addresses(7, 10_000, 60_000);
        assert_eq!(a, probe_addresses(7, 10_000, 60_000));
        assert_ne!(a, probe_addresses(8, 10_000, 60_000));
        let in_block = a.iter().filter(|ip| ip.octets()[0] == 10).count();
        assert!((8_200..=8_800).contains(&in_block), "{in_block}");
    }

    #[test]
    fn serve_addresses_are_a_pure_function_of_the_seed() {
        let corpus = Corpus::new(1_000);
        let a = serve_addresses(7, &corpus, 5_000);
        assert_eq!(a, serve_addresses(7, &corpus, 5_000));
        assert_ne!(a, serve_addresses(8, &corpus, 5_000));
    }
}
