//! Integration: format equivalence and robustness across crates — every
//! representation of a vendor database (in-memory, RGDB binary, CSV) must
//! answer identically, and parsers must reject garbage rather than panic.

use proptest::prelude::*;
use routergeo::db::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
use routergeo::db::{csvdb, rgdb2, GeoDatabase, InMemoryDb, Rgdb2Reader};
use routergeo::net::Prefix;
use routergeo::trace::TracerouteRecord;
use routergeo::world::{World, WorldConfig};
use std::net::Ipv4Addr;

fn vendor_db(seed: u64, vendor: VendorId) -> (World, InMemoryDb) {
    let world = World::generate(WorldConfig::tiny(seed));
    let signals = SignalWorld::new(&world);
    let db = build_vendor(&signals, &VendorProfile::preset(vendor));
    (world, db)
}

fn to_rgdb(db: &InMemoryDb) -> Rgdb2Reader {
    let entries: Vec<(Prefix, routergeo::db::LocationRecord)> = db
        .iter()
        .flat_map(|(start, end, rec)| {
            Prefix::cover_range(start, end)
                .into_iter()
                .map(move |p| (p, rec.clone()))
        })
        .collect();
    let image = rgdb2::write_v21(db.name(), entries.iter().map(|(p, r)| (*p, r)));
    Rgdb2Reader::open(image).expect("fresh image is valid")
}

#[test]
fn all_formats_answer_identically_for_all_vendors() {
    for vendor in VendorId::ALL {
        let (world, db) = vendor_db(2001, vendor);
        let reader = to_rgdb(&db);
        let csv_db = csvdb::parse(db.name(), &csvdb::write(&db)).expect("csv roundtrip");
        // Every interface plus unallocated space and boundary addresses.
        let mut probes: Vec<Ipv4Addr> = world.interfaces.iter().map(|i| i.ip).collect();
        probes.extend([
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(203, 0, 113, 1),
        ]);
        for ip in probes.iter().step_by(3) {
            let a = db.lookup(*ip);
            assert_eq!(a, reader.lookup(*ip), "{vendor} RGDB at {ip}");
            assert_eq!(a, csv_db.lookup(*ip), "{vendor} CSV at {ip}");
        }
    }
}

#[test]
fn rgdb_rejects_any_single_byte_corruption_of_the_header() {
    let (_, db) = vendor_db(2002, VendorId::NetAcuity);
    let entries: Vec<(Prefix, routergeo::db::LocationRecord)> = db
        .iter()
        .flat_map(|(s, e, r)| {
            Prefix::cover_range(s, e)
                .into_iter()
                .map(move |p| (p, r.clone()))
        })
        .collect();
    let image = rgdb2::write_v21(db.name(), entries.iter().map(|(p, r)| (*p, r)));
    // Flip each header byte: either the reader errors out, or (for a very
    // few degenerate flips, e.g. name-length changes that still checksum)
    // it must at least not panic.
    for i in 0..28 {
        let mut bytes = image.to_vec();
        bytes[i] ^= 0xA5;
        match Rgdb2Reader::open(bytes.into()) {
            Err(_) => {}
            Ok(reader) => {
                let _ = reader.lookup(Ipv4Addr::new(6, 0, 0, 1));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rgdb_reader_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Rgdb2Reader::open(bytes::Bytes::from(bytes));
    }

    #[test]
    fn csv_parser_never_panics_on_random_text(text in "[ -~\n]{0,400}") {
        let _ = csvdb::parse("fuzz", &text);
    }

    #[test]
    fn atlas_json_parser_never_panics_on_random_text(text in "[ -~]{0,300}") {
        let _ = TracerouteRecord::from_atlas_json(&text);
    }

    #[test]
    fn atlas_json_roundtrips_arbitrary_records(
        prb in any::<u32>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        hops in proptest::collection::vec((any::<u32>(), proptest::option::of(0.0f64..5e3)), 0..20),
        reached in any::<bool>(),
    ) {
        use routergeo::trace::Hop;
        let record = TracerouteRecord {
            origin_id: prb,
            src_ip: Ipv4Addr::from(src),
            dst_ip: Ipv4Addr::from(dst),
            hops: hops
                .iter()
                .enumerate()
                .map(|(i, (ip, rtt))| match rtt {
                    Some(r) => Hop { hop: i as u8 + 1, ip: Some(Ipv4Addr::from(*ip)), rtt_ms: Some(*r) },
                    None => Hop::timeout(i as u8 + 1),
                })
                .collect(),
            reached,
        };
        let json = record.to_atlas_json();
        let back = TracerouteRecord::from_atlas_json(&json).expect("own output parses");
        // Structure is exact; RTTs may round in the last ulp through the
        // JSON float formatter.
        prop_assert_eq!(record.origin_id, back.origin_id);
        prop_assert_eq!(record.src_ip, back.src_ip);
        prop_assert_eq!(record.dst_ip, back.dst_ip);
        prop_assert_eq!(record.reached, back.reached);
        prop_assert_eq!(record.hops.len(), back.hops.len());
        for (a, b) in record.hops.iter().zip(back.hops.iter()) {
            prop_assert_eq!(a.hop, b.hop);
            prop_assert_eq!(a.ip, b.ip);
            match (a.rtt_ms, b.rtt_ms) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() <= x.abs() * 1e-12),
                (None, None) => {}
                other => prop_assert!(false, "rtt presence diverged: {:?}", other),
            }
        }
    }
}

#[test]
fn csv_of_empty_database_roundtrips() {
    let db = routergeo::db::inmem::InMemoryDbBuilder::new("empty")
        .build()
        .unwrap();
    let text = csvdb::write(&db);
    assert!(text.is_empty());
    let back = csvdb::parse("empty", &text).unwrap();
    assert!(back.is_empty());
}
