//! Geolocation databases: engine, formats, and synthetic vendors.
//!
//! The paper treats each geolocation database as a black box mapping an IP
//! address to a location record of some resolution. This crate provides:
//!
//! * [`record`] — the record model: country / region / city / coordinates,
//!   resolution, and the granularity tag behind the paper's "block-level
//!   location" analysis (§5.2.3).
//! * [`GeoDatabase`] — the lookup trait every backend implements.
//! * [`inmem`] — an in-memory range database (the working representation).
//! * [`csvdb`] — an IP2Location-style CSV format (range rows), reader and
//!   writer.
//! * [`rgdb2`] — **RGDB**, the one binary image format: a checksummed
//!   header, a stride-16 root table, a level-order binary trie over
//!   address bits, fixed-width records and a deduplicated string table.
//!   [`Rgdb2Reader`] validates an image once at open; after that every
//!   lookup is lock-free pointer arithmetic that borrows straight from
//!   the image bytes.
//! * [`image`] — [`FileImage`], the file-backed image loader: one
//!   allocation, positioned reads, attributed I/O errors.
//! * [`diff`] — snapshot drift measurement: classify how answers change
//!   between two releases of a database (the paper's §5.2 50-day
//!   robustness argument, made testable).
//! * [`synth`] — the four synthetic vendor profiles (IP2Location-Lite,
//!   MaxMind-GeoLite, MaxMind-Paid, NetAcuity) that derive per-block
//!   records from modeled signals: shared registry data, measurement
//!   corpora, DNS hostname hints, and default-centroid fallbacks. See
//!   DESIGN.md §4 for the mechanism-to-finding mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod csvdb;
pub mod diff;
pub mod image;
pub mod inmem;
pub mod record;
pub mod rgdb2;
pub mod synth;

pub use compact::{AnswerId, CompactRecord, LocationInterner, RecordMemo};
pub use image::FileImage;
pub use inmem::InMemoryDb;
pub use record::{Granularity, LocationRecord};
pub use rgdb2::Rgdb2Reader;
pub use synth::{build_vendor, SignalWorld, VendorId, VendorProfile};

use std::net::Ipv4Addr;

/// The record index [`GeoDatabase::locate_batch`] reports for an address
/// no record covers.
pub const NO_RECORD: u32 = u32::MAX;

/// A geolocation database: IP in, location record out.
///
/// Besides the per-address lookups, a backend exposes its answers as
/// numbered records: [`GeoDatabase::locate_batch`] maps addresses to
/// record indices without decoding anything, and
/// [`GeoDatabase::record_at`] decodes one record. A caller that resolves
/// many addresses decodes each distinct record once, however many
/// addresses share it.
pub trait GeoDatabase {
    /// Database display name (e.g. `MaxMind-GeoLite`).
    fn name(&self) -> &str;

    /// Look up one address. `None` means the database has no record at all
    /// for the address (no coverage even at country level).
    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord>;

    /// Look up one address on the compact, allocation-free path: the
    /// answer comes back by value with region/city interned into
    /// `interner`. The default implementation bridges through
    /// [`GeoDatabase::lookup`] (one transient record allocation);
    /// backends override it to answer without allocating per call.
    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        self.lookup(ip)
            .map(|rec| CompactRecord::from_record(&rec, interner))
    }

    /// Number of record indices: every index [`GeoDatabase::locate_batch`]
    /// returns, [`NO_RECORD`] aside, is below it.
    fn record_count(&self) -> u32;

    /// Locate a batch of addresses: element `i` is the index of the
    /// record answering `ips[i]`, or [`NO_RECORD`]. Nothing is decoded
    /// and nothing is interned, so shards of one address list may
    /// locate concurrently against a shared `&self`.
    fn locate_batch(&self, ips: &[Ipv4Addr]) -> Vec<u32>;

    /// Decode record `idx` on the compact path, interning its
    /// region/city into `interner`. `record_at(locate(ip))` is exactly
    /// [`GeoDatabase::lookup_compact`]`(ip)`; `None` for an index that
    /// names no record, or one whose record fails to decode.
    fn record_at(&self, idx: u32, interner: &mut LocationInterner) -> Option<CompactRecord>;

    /// Look up a batch of addresses on the compact path.
    ///
    /// The answer vector is element-for-element identical to calling
    /// [`GeoDatabase::lookup_compact`] once per address in order —
    /// including interner id assignment — because each distinct record
    /// decodes at its first sighting in input order, and later
    /// sightings replay the decoded answer.
    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        let mut memo = RecordMemo::new(self.record_count());
        let mut answers = Vec::new();
        self.locate_batch(ips)
            .into_iter()
            .map(|idx| {
                let id = memo.answer(self, idx, interner, &mut answers)?;
                answers.get(id.get() as usize - 1).copied()
            })
            .collect()
    }
}

impl<T: GeoDatabase + ?Sized> GeoDatabase for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
        (**self).lookup(ip)
    }

    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        (**self).lookup_compact(ip, interner)
    }

    fn record_count(&self) -> u32 {
        (**self).record_count()
    }

    fn locate_batch(&self, ips: &[Ipv4Addr]) -> Vec<u32> {
        (**self).locate_batch(ips)
    }

    fn record_at(&self, idx: u32, interner: &mut LocationInterner) -> Option<CompactRecord> {
        (**self).record_at(idx, interner)
    }
}

impl<T: GeoDatabase + ?Sized> GeoDatabase for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
        (**self).lookup(ip)
    }

    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        (**self).lookup_compact(ip, interner)
    }

    fn record_count(&self) -> u32 {
        (**self).record_count()
    }

    fn locate_batch(&self, ips: &[Ipv4Addr]) -> Vec<u32> {
        (**self).locate_batch(ips)
    }

    fn record_at(&self, idx: u32, interner: &mut LocationInterner) -> Option<CompactRecord> {
        (**self).record_at(idx, interner)
    }
}
