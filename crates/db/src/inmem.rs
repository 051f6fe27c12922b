//! In-memory range database — the working representation every other
//! format converts to or from.

use crate::compact::{CompactRecord, LocationInterner};
use crate::record::LocationRecord;
use crate::{GeoDatabase, NO_RECORD};
use routergeo_net::{Prefix, RangeMap, RangeMapBuilder, RangeOverlap};
use std::net::Ipv4Addr;

/// A named in-memory geolocation database over non-overlapping ranges.
#[derive(Debug, Clone)]
pub struct InMemoryDb {
    name: String,
    map: RangeMap<LocationRecord>,
}

/// Builder for [`InMemoryDb`].
#[derive(Debug, Clone)]
pub struct InMemoryDbBuilder {
    name: String,
    builder: RangeMapBuilder<LocationRecord>,
}

impl InMemoryDbBuilder {
    /// Start a database with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        InMemoryDbBuilder {
            name: name.into(),
            builder: RangeMapBuilder::new(),
        }
    }

    /// Add a record for an inclusive address range.
    pub fn push_range(
        &mut self,
        start: Ipv4Addr,
        end: Ipv4Addr,
        record: LocationRecord,
    ) -> &mut Self {
        self.builder.push(start, end, record);
        self
    }

    /// Add a record for a whole prefix.
    pub fn push_prefix(&mut self, prefix: Prefix, record: LocationRecord) -> &mut Self {
        self.builder.push_prefix(prefix, record);
        self
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.builder.len()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.builder.is_empty()
    }

    /// Validate and build.
    pub fn build(self) -> Result<InMemoryDb, RangeOverlap> {
        Ok(InMemoryDb {
            name: self.name,
            map: self.builder.build()?,
        })
    }
}

impl InMemoryDb {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the database has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate `(start, end, record)` rows in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, Ipv4Addr, &LocationRecord)> {
        self.map.iter()
    }
}

impl GeoDatabase for InMemoryDb {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
        self.map.lookup(ip).cloned()
    }

    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        // Native compact path: compact straight off the borrowed range
        // entry — the record is never cloned.
        self.map
            .lookup(ip)
            .map(|rec| CompactRecord::from_record(rec, interner))
    }

    fn record_count(&self) -> u32 {
        u32::try_from(self.map.len()).unwrap_or(u32::MAX)
    }

    fn locate_batch(&self, ips: &[Ipv4Addr]) -> Vec<u32> {
        // One sorted monotone sweep over the range entries; the entry
        // index is the record index.
        self.map
            .locate_batch(ips)
            .into_iter()
            .map(|slot| {
                slot.and_then(|idx| u32::try_from(idx).ok())
                    .unwrap_or(NO_RECORD)
            })
            .collect()
    }

    fn record_at(&self, idx: u32, interner: &mut LocationInterner) -> Option<CompactRecord> {
        self.map
            .value_at(usize::try_from(idx).ok()?)
            .map(|rec| CompactRecord::from_record(rec, interner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Granularity;

    fn rec(cc: &str) -> LocationRecord {
        LocationRecord::country_level(cc.parse().unwrap(), Granularity::Block24)
    }

    #[test]
    fn build_and_lookup() {
        let mut b = InMemoryDbBuilder::new("test-db");
        b.push_prefix("6.0.0.0/24".parse().unwrap(), rec("US"));
        b.push_prefix("31.0.0.0/24".parse().unwrap(), rec("DE"));
        let db = b.build().unwrap();
        assert_eq!(db.name(), "test-db");
        assert_eq!(db.len(), 2);
        let r = db.lookup("6.0.0.55".parse().unwrap()).unwrap();
        assert_eq!(r.country.unwrap().as_str(), "US");
        assert!(db.lookup("7.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn batched_lookups_match_sequential_ids_and_answers() {
        let mut b = InMemoryDbBuilder::new("batch-db");
        let mut r = rec("US");
        r.region = Some("Texas".into());
        r.city = Some("Dallas".into());
        b.push_prefix("6.0.0.0/24".parse().unwrap(), r);
        let mut r2 = rec("DE");
        r2.city = Some("Berlin".into());
        b.push_prefix("31.0.0.0/24".parse().unwrap(), r2);
        let db = b.build().unwrap();
        let ips: Vec<Ipv4Addr> = [
            "31.0.0.9",
            "6.0.0.1",
            "7.7.7.7",
            "6.0.0.1",
            "31.0.0.200",
            "6.0.0.255",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let mut seq_interner = LocationInterner::new();
        let seq: Vec<_> = ips
            .iter()
            .map(|ip| db.lookup_compact(*ip, &mut seq_interner))
            .collect();
        let mut batch_interner = LocationInterner::new();
        let batch = db.lookup_batch(&ips, &mut batch_interner);
        assert_eq!(seq, batch);
        assert_eq!(seq_interner, batch_interner);
    }

    #[test]
    fn overlap_rejected() {
        let mut b = InMemoryDbBuilder::new("bad");
        b.push_prefix("6.0.0.0/24".parse().unwrap(), rec("US"));
        b.push_range(
            "6.0.0.128".parse().unwrap(),
            "6.0.1.10".parse().unwrap(),
            rec("CA"),
        );
        assert!(b.build().is_err());
    }
}
