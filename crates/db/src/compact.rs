//! The zero-allocation lookup path: interned location symbols and the
//! `Copy`-able compact record.
//!
//! The analysis workload resolves every (IP, database) pair and then
//! reads only scalar facts — country, coordinates, resolution — yet the
//! owning [`LocationRecord`](crate::LocationRecord) carries its region
//! and city as `Option<String>`, so each answer costs heap allocations.
//! [`LocationInterner`] maps those strings to dense `u32` symbol ids
//! exactly once, and [`CompactRecord`] carries the ids by value, so an
//! answer needs no per-lookup allocation.
//!
//! A batch resolver need not even copy the record per lookup. It
//! locates each address to a record index
//! ([`GeoDatabase::locate_batch`](crate::GeoDatabase::locate_batch)),
//! decodes each distinct index once
//! ([`GeoDatabase::record_at`](crate::GeoDatabase::record_at)) into one
//! interner, and keeps a 4-byte id per answer. Ids are assigned in
//! first-sighting order, so a resolver that walks its inputs in a
//! fixed order gets the same ids at any thread count.

use crate::record::{Granularity, LocationRecord};
use crate::GeoDatabase;
use routergeo_geo::{Coordinate, CountryCode};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::num::NonZeroU32;

/// FNV-1a as a [`std::hash::Hasher`]: a handful of instructions per
/// byte, no per-hash setup cost. The resolve hot path hashes short
/// location names and small integer keys millions of times; SipHash's
/// HashDoS hardening buys nothing for these private, trusted-key maps
/// and costs most of the lookup. Not for untrusted keys.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

/// [`BuildHasher`] producing [`FnvHasher`]s seeded with the FNV-1a
/// offset basis. Plug into `HashMap` as the third type parameter.
#[derive(Debug, Default, Clone)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xCBF2_9CE4_8422_2325)
    }
}

/// A symbol table for region/city names: each distinct string gets a
/// dense `u32` id, assigned in first-seen order.
#[derive(Debug, Default, Clone)]
pub struct LocationInterner {
    strings: Vec<String>,
    ids: HashMap<String, u32, FnvBuildHasher>,
    refs: u64,
}

impl PartialEq for LocationInterner {
    fn eq(&self, other: &Self) -> bool {
        // The id map is derived from `strings`; the ref counter is
        // bookkeeping, not identity.
        self.strings == other.strings
    }
}

impl LocationInterner {
    /// An empty interner.
    pub fn new() -> LocationInterner {
        LocationInterner::default()
    }

    /// Intern `s`, returning its id. The same string always maps to the
    /// same id; a new string gets the next dense id. This is the only
    /// place the compact path allocates, and it allocates once per
    /// *distinct* string, not once per lookup.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.refs += 1;
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len())
            .expect("interner overflow: more than u32::MAX distinct location names");
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }

    /// The string behind `id`, if assigned.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total [`LocationInterner::intern`] calls served — hit-or-miss —
    /// for the `resolve.interner_refs` metric.
    pub fn ref_count(&self) -> u64 {
        self.refs
    }
}

/// A 1-based index into a table of decoded records, as handed out by
/// [`RecordMemo::answer`]. `Option<AnswerId>` is 4 bytes.
pub type AnswerId = NonZeroU32;

/// One database's `record index → AnswerId` memo: each distinct record
/// decodes once, at its first sighting, into a caller-owned answer
/// table that several memos (one per database) may share. Feeding
/// indices in a fixed order assigns answer and interner ids in that
/// order.
#[derive(Debug, Clone)]
pub struct RecordMemo {
    ids: Vec<Option<AnswerId>>,
}

impl RecordMemo {
    /// An empty memo for a database with `record_count` records. The
    /// table is one zeroed allocation, so pages no record touches are
    /// never faulted in.
    pub fn new(record_count: u32) -> RecordMemo {
        RecordMemo {
            ids: vec![None; record_count as usize],
        }
    }

    /// The answer id of record `idx` of `db`: at its first sighting the
    /// record is decoded ([`GeoDatabase::record_at`]) and pushed onto
    /// `answers`, and later sightings return the same id. `None` for
    /// [`NO_RECORD`](crate::NO_RECORD) and for an index that does not
    /// decode (which is retried, like the per-address lookup would).
    pub fn answer<D: GeoDatabase + ?Sized>(
        &mut self,
        db: &D,
        idx: u32,
        interner: &mut LocationInterner,
        answers: &mut Vec<CompactRecord>,
    ) -> Option<AnswerId> {
        let slot = self.ids.get_mut(idx as usize)?;
        if slot.is_none() {
            answers.push(db.record_at(idx, interner)?);
            *slot = u32::try_from(answers.len()).ok().and_then(AnswerId::new);
        }
        *slot
    }
}

/// A location answer with every field by value: country and coordinates
/// verbatim, region/city as interner ids. `Copy`, 0 heap bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactRecord {
    /// ISO country code, if known.
    pub country: Option<CountryCode>,
    /// Interned admin-region name, if known.
    pub region_id: Option<u32>,
    /// Interned city name, if the record is city-level.
    pub city_id: Option<u32>,
    /// Coordinates, if any.
    pub coord: Option<Coordinate>,
    /// Entry granularity.
    pub granularity: Granularity,
}

impl CompactRecord {
    /// Compact an owning record, interning its region/city names. Takes
    /// the record by reference: the strings are borrowed into the
    /// interner, never cloned into the result.
    pub fn from_record(rec: &LocationRecord, interner: &mut LocationInterner) -> CompactRecord {
        CompactRecord {
            country: rec.country,
            region_id: rec.region.as_deref().map(|s| interner.intern(s)),
            city_id: rec.city.as_deref().map(|s| interner.intern(s)),
            coord: rec.coord,
            granularity: rec.granularity,
        }
    }

    /// Expand back to an owning record — the exact inverse of
    /// [`CompactRecord::from_record`] under the same interner.
    pub fn to_record(self, interner: &LocationInterner) -> LocationRecord {
        LocationRecord {
            country: self.country,
            region: self
                .region_id
                .and_then(|id| interner.resolve(id))
                .map(str::to_string),
            city: self
                .city_id
                .and_then(|id| interner.resolve(id))
                .map(str::to_string),
            coord: self.coord,
            granularity: self.granularity,
        }
    }

    /// Whether the record provides country-level coverage — mirrors
    /// [`LocationRecord::has_country`].
    pub fn has_country(&self) -> bool {
        self.country.is_some()
    }

    /// Whether the record provides city-level coverage (a city name
    /// with coordinates) — mirrors [`LocationRecord::has_city`].
    pub fn has_city(&self) -> bool {
        self.city_id.is_some() && self.coord.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_ids_are_dense_stable_and_round_trip() {
        let mut i = LocationInterner::new();
        let words = ["Berlin", "Hamburg", "Berlin", "Bremen", "Hamburg", "Berlin"];
        let ids: Vec<u32> = words.iter().map(|w| i.intern(w)).collect();
        // Same string → same id, ids dense in first-seen order.
        assert_eq!(ids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.ref_count(), 6);
        // Round-trip exact.
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(i.resolve(*id), Some(*w));
        }
        assert_eq!(i.resolve(3), None);
    }

    #[test]
    fn compact_round_trips_through_the_interner() {
        let mut i = LocationInterner::new();
        let rec = LocationRecord {
            country: Some("DE".parse().unwrap()),
            region: Some("Berlin".into()),
            city: Some("Berlin".into()),
            coord: Some(Coordinate::new(52.5, 13.4).unwrap()),
            granularity: Granularity::SubBlock,
        };
        let c = CompactRecord::from_record(&rec, &mut i);
        // Region and city share one symbol.
        assert_eq!(c.region_id, Some(0));
        assert_eq!(c.city_id, Some(0));
        assert_eq!(i.len(), 1);
        assert!(c.has_country() && c.has_city());
        assert_eq!(c.to_record(&i), rec);

        let empty = LocationRecord::empty();
        let ce = CompactRecord::from_record(&empty, &mut i);
        assert!(!ce.has_country() && !ce.has_city());
        assert_eq!(ce.to_record(&i), empty);
    }
}
