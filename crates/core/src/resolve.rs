//! The resolve-once lookup engine (§5 hot path).
//!
//! Coverage, consistency, and accuracy all ask every database about the
//! same address sets. Instead of re-querying per analysis, a
//! [`ResolvedView`] resolves each (IP, database) pair exactly once into
//! columnar storage: one `Vec<Option<AnswerId>>` column per database,
//! where an [`AnswerId`] is a 4-byte index into one table of distinct
//! [`CompactRecord`]s, with region/city names interned into a shared
//! [`LocationInterner`]. This is the shape of a MaxMind `.mmdb` data
//! section: a record is stored once, however many addresses it answers.
//! The analyses then tally over the flat columns without a single
//! per-lookup allocation.
//!
//! Construction runs in two steps:
//!
//! 1. **Locate**, sharded through `routergeo_pool`: each shard asks every
//!    database for the record *index* of each of its addresses
//!    ([`GeoDatabase::locate_batch`]). Nothing is decoded or interned,
//!    so shards share no state and return 4 bytes per answer.
//! 2. **Decode**, one ordered pass over the shard results: shards in
//!    order, then databases, then rows. A dense `record index →
//!    AnswerId` memo per database decodes each distinct record
//!    ([`GeoDatabase::record_at`]) into the global interner at its first
//!    sighting only.
//!
//! Shard boundaries depend only on the input length, and the decode
//! order is fixed, so the view — answer ids and interner ids included —
//! is byte-identical at any thread count.

use routergeo_db::{CompactRecord, GeoDatabase, LocationInterner, RecordMemo};
use routergeo_pool::Pool;
use std::net::Ipv4Addr;

pub use routergeo_db::AnswerId;

/// Addresses per shard for the parallel resolvers and evaluators in
/// this crate. Lookups draw no randomness, so the shard seed is
/// irrelevant; the size is fixed (never thread-derived) to keep merge
/// order stable. Sized so the batched readers amortize their
/// per-chunk work (sort, root-table seeding, frontier walk) over many
/// addresses while still splitting paper-scale inputs into ~90 shards,
/// plenty of parallelism for any realistic pool.
pub(crate) const LOOKUP_SHARD_SIZE: usize = 16384;

/// Columnar resolve-once answers: `column(db)[i]` is database `db`'s
/// answer id for the `i`-th input address.
#[derive(Debug, PartialEq)]
pub struct ResolvedView {
    databases: Vec<String>,
    total: usize,
    interner: LocationInterner,
    answers: Vec<CompactRecord>,
    columns: Vec<Vec<Option<AnswerId>>>,
}

impl ResolvedView {
    /// Resolve every (IP, database) pair once. Thread count from the
    /// environment ([`Pool::from_env`]).
    pub fn build<D: GeoDatabase + Sync>(dbs: &[D], ips: &[Ipv4Addr]) -> ResolvedView {
        ResolvedView::build_with(dbs, ips, &Pool::from_env())
    }

    /// [`ResolvedView::build`] on an explicit pool: shards locate record
    /// indices in parallel, then one pass in shard → database → row
    /// order decodes each distinct record once, so the view is
    /// identical at every thread count.
    pub fn build_with<D: GeoDatabase + Sync>(
        dbs: &[D],
        ips: &[Ipv4Addr],
        pool: &Pool,
    ) -> ResolvedView {
        let n = dbs.len();
        let mut span = routergeo_obs::span!("core.resolve", databases = n, addresses = ips.len());
        // Register every resolve counter on the orchestrating thread in
        // fixed order, before any worker can first-touch one, so the
        // metrics snapshot renders identically at any thread count.
        let c_lookups = routergeo_obs::counter("resolve.lookups");
        let c_hits = routergeo_obs::counter("resolve.hits");
        let c_misses = routergeo_obs::counter("resolve.misses");
        let c_strings = routergeo_obs::counter("resolve.interner_strings");
        let c_refs = routergeo_obs::counter("resolve.interner_refs");
        let c_answers = routergeo_obs::counter("resolve.answers");

        let shards = pool.map_shards(0, ips, LOOKUP_SHARD_SIZE, |_, chunk| {
            let _span = routergeo_obs::span!("resolve.locate", addresses = chunk.len());
            dbs.iter()
                .map(|db| db.locate_batch(chunk))
                .collect::<Vec<_>>()
        });

        let decode_span = routergeo_obs::span!("resolve.decode", shards = shards.len());
        let mut interner = LocationInterner::new();
        let mut answers: Vec<CompactRecord> = Vec::new();
        let mut columns: Vec<Vec<Option<AnswerId>>> =
            (0..n).map(|_| Vec::with_capacity(ips.len())).collect();
        let mut memos: Vec<RecordMemo> = dbs
            .iter()
            .map(|db| RecordMemo::new(db.record_count()))
            .collect();
        let mut hits = 0u64;
        for located in shards {
            for ((column, memo), (db, part)) in columns
                .iter_mut()
                .zip(&mut memos)
                .zip(dbs.iter().zip(located))
            {
                column.extend(part.into_iter().map(|idx| {
                    let id = memo.answer(db, idx, &mut interner, &mut answers);
                    hits += u64::from(id.is_some());
                    id
                }));
            }
        }
        drop(decode_span);

        let lookups = (ips.len() as u64) * (n as u64);
        c_lookups.add(lookups);
        c_hits.add(hits);
        c_misses.add(lookups - hits);
        c_strings.add(interner.len() as u64);
        c_refs.add(interner.ref_count());
        c_answers.add(answers.len() as u64);
        span.attr("hits", hits);
        span.attr("interned", interner.len());
        span.attr("answers", answers.len());

        ResolvedView {
            databases: dbs.iter().map(|d| d.name().to_string()).collect(),
            total: ips.len(),
            interner,
            answers,
            columns,
        }
    }

    /// Database display names, defining the column index order.
    pub fn databases(&self) -> &[String] {
        &self.databases
    }

    /// Number of databases (columns).
    pub fn db_count(&self) -> usize {
        self.databases.len()
    }

    /// Number of resolved addresses (rows).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the view covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The shared symbol table for region/city ids.
    pub fn interner(&self) -> &LocationInterner {
        &self.interner
    }

    /// The full answer-id column of database `db`.
    pub fn column(&self, db: usize) -> &[Option<AnswerId>] {
        &self.columns[db]
    }

    /// The record behind an answer id of this view. Ids are only
    /// meaningful in the view that issued them.
    pub fn answer(&self, id: AnswerId) -> CompactRecord {
        self.answers[id.get() as usize - 1]
    }

    /// Database `db`'s answer for the `i`-th address.
    pub fn record(&self, db: usize, i: usize) -> Option<CompactRecord> {
        self.columns[db][i].map(|id| self.answer(id))
    }

    /// Database `db`'s answers for every address, in row order.
    pub fn records(&self, db: usize) -> impl ExactSizeIterator<Item = Option<CompactRecord>> + '_ {
        self.columns[db]
            .iter()
            .map(|id| id.map(|id| self.answer(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    /// A database whose city names vary per /24 so distinct symbols keep
    /// appearing across shard boundaries.
    fn striped_db(name: &str, blocks: u8, stride: u8) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        for i in (0..blocks).step_by(usize::from(stride)) {
            b.push_prefix(
                format!("10.{i}.0.0/16").parse().unwrap(),
                LocationRecord {
                    country: Some("US".parse().unwrap()),
                    region: Some(format!("region-{}", i % 7)),
                    city: Some(format!("city-{}-{}", name, i % 13)),
                    coord: Some(Coordinate::new(f64::from(i) / 4.0, -100.0).unwrap()),
                    granularity: Granularity::Block24,
                },
            );
        }
        b.build().unwrap()
    }

    fn sample_ips(count: u32) -> Vec<Ipv4Addr> {
        (0..count)
            .map(|i| Ipv4Addr::from(0x0A00_0000u32 + (i << 10)))
            .collect()
    }

    #[test]
    fn parallel_view_is_identical_to_serial() {
        let dbs = [striped_db("a", 120, 1), striped_db("b", 120, 3)];
        // > 2 shards of 4096 so the merge path actually runs.
        let ips = sample_ips(10_000);
        let serial = ResolvedView::build_with(&dbs, &ips, &Pool::new(1));
        for threads in [2, 8] {
            let parallel = ResolvedView::build_with(&dbs, &ips, &Pool::new(threads));
            assert_eq!(
                serial, parallel,
                "view differs between 1 and {threads} threads"
            );
        }
        assert_eq!(serial.len(), 10_000);
        assert_eq!(serial.db_count(), 2);
        assert!(serial.interner().len() > 10, "symbols were interned");
    }

    #[test]
    fn view_answers_match_direct_lookups() {
        let dbs = [striped_db("a", 40, 1), striped_db("b", 40, 2)];
        let ips = sample_ips(500);
        let view = ResolvedView::build_with(&dbs, &ips, &Pool::new(2));
        for (d, db) in dbs.iter().enumerate() {
            for (i, ip) in ips.iter().enumerate() {
                let expanded = view.record(d, i).map(|c| c.to_record(view.interner()));
                assert_eq!(expanded, db.lookup(*ip), "db {d} ip {ip}");
            }
        }
    }

    #[test]
    fn v21_views_are_identical_across_threads_and_image_sources() {
        // The multi-threaded resolve default rests on this: a view
        // built over v2.1 root-table readers — the batched frontier
        // walk, not the per-address loop — must be byte-identical at
        // 1, 2, and 8 threads, and a file-backed image must answer
        // exactly like the heap-backed bytes it was written from.
        use routergeo_db::rgdb2::{self, Rgdb2Reader};
        use routergeo_db::FileImage;
        use routergeo_net::Prefix;

        let sources = [striped_db("a", 120, 1), striped_db("b", 120, 3)];
        let images: Vec<_> = sources
            .iter()
            .map(|db| {
                let entries: Vec<_> = db
                    .iter()
                    .flat_map(|(start, end, rec)| {
                        Prefix::cover_range(start, end)
                            .into_iter()
                            .map(move |p| (p, rec))
                    })
                    .collect();
                rgdb2::write_v21(db.name(), entries)
            })
            .collect();
        let heap: Vec<Rgdb2Reader> = images
            .iter()
            .map(|img| Rgdb2Reader::open(img.clone()).unwrap())
            .collect();

        let dir = std::env::temp_dir();
        let paths: Vec<_> = (0..images.len())
            .map(|ix| {
                dir.join(format!(
                    "routergeo-resolve-det-{}-{ix}.rgdb",
                    std::process::id()
                ))
            })
            .collect();
        for (path, img) in paths.iter().zip(&images) {
            std::fs::write(path, img).unwrap();
        }
        let file_backed: Vec<Rgdb2Reader> = paths
            .iter()
            .map(|p| Rgdb2Reader::open(FileImage::load(p).unwrap().into_bytes()).unwrap())
            .collect();
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }

        let ips = sample_ips(10_000);
        let serial = ResolvedView::build_with(&heap, &ips, &Pool::new(1));
        for threads in [2, 8] {
            let parallel = ResolvedView::build_with(&heap, &ips, &Pool::new(threads));
            assert_eq!(
                serial, parallel,
                "v2.1 view differs between 1 and {threads} threads"
            );
        }
        let from_disk = ResolvedView::build_with(&file_backed, &ips, &Pool::new(2));
        assert_eq!(
            serial, from_disk,
            "file-backed v2.1 images must answer exactly like the heap bytes"
        );
        // And the batched path must agree with the in-memory source dbs.
        for (d, db) in sources.iter().enumerate() {
            for (i, ip) in ips.iter().enumerate().step_by(97) {
                let expanded = serial.record(d, i).map(|c| c.to_record(serial.interner()));
                assert_eq!(expanded, db.lookup(*ip), "db {d} ip {ip}");
            }
        }
    }

    /// Write `db` as a v2.1 image and open it.
    fn to_image(db: &InMemoryDb) -> routergeo_db::Rgdb2Reader {
        use routergeo_net::Prefix;
        let entries: Vec<_> = db
            .iter()
            .flat_map(|(start, end, rec)| {
                Prefix::cover_range(start, end)
                    .into_iter()
                    .map(move |p| (p, rec))
            })
            .collect();
        routergeo_db::Rgdb2Reader::open(routergeo_db::rgdb2::write_v21(db.name(), entries)).unwrap()
    }

    /// The view's contract against the per-address loop: interner
    /// strings in the order a sequential `lookup_compact` pass assigns
    /// them (shard → database → row), and every answer equal to that
    /// pass's, ids included.
    fn check_contract<D: GeoDatabase + Sync>(dbs: &[D], ips: &[Ipv4Addr]) {
        let mut interner = LocationInterner::new();
        let mut expected: Vec<Vec<Option<CompactRecord>>> = vec![Vec::new(); dbs.len()];
        for chunk in ips.chunks(LOOKUP_SHARD_SIZE) {
            for (column, db) in expected.iter_mut().zip(dbs) {
                column.extend(chunk.iter().map(|ip| db.lookup_compact(*ip, &mut interner)));
            }
        }
        for threads in [1, 2, 8] {
            let view = ResolvedView::build_with(dbs, ips, &Pool::new(threads));
            assert_eq!(
                view.interner(),
                &interner,
                "{threads} threads: interner order"
            );
            for (d, column) in expected.iter().enumerate() {
                assert_eq!(view.column(d).len(), ips.len());
                for (i, want) in column.iter().enumerate() {
                    assert_eq!(
                        view.record(d, i),
                        *want,
                        "{threads} threads: db {d} row {i}"
                    );
                }
                assert!(view.records(d).eq(column.iter().copied()));
            }
        }
    }

    #[test]
    fn view_matches_the_sequential_loop_on_both_backends() {
        // The first shard cycles through blocks 0..7 and the later two
        // through 0..200: later shards hit records the first shard did
        // too, and new ones whose names must be interned after every
        // database's first-shard names. The third database covers none
        // of the addresses.
        let ips: Vec<Ipv4Addr> = (0..40_000u32)
            .map(|i| {
                let block = if (i as usize) < LOOKUP_SHARD_SIZE {
                    i % 7
                } else {
                    i % 200
                };
                Ipv4Addr::from(0x0A00_0000 | (block << 16) | (i & 0xFF))
            })
            .collect();
        let mut elsewhere = InMemoryDbBuilder::new("elsewhere");
        elsewhere.push_prefix(
            "192.168.0.0/16".parse().unwrap(),
            LocationRecord::country_level("NL".parse().unwrap(), Granularity::Aggregate),
        );
        let inmem = [
            striped_db("a", 120, 1),
            striped_db("b", 120, 3),
            elsewhere.build().unwrap(),
        ];
        let images: Vec<_> = inmem.iter().map(to_image).collect();

        let view = ResolvedView::build_with(&inmem, &ips, &Pool::new(2));
        // Rows 0 and 16400 sit in different shards and in the same /16,
        // so they share one record — and therefore one answer id.
        let (first, later) = (0, LOOKUP_SHARD_SIZE + 16);
        assert!(later < 2 * LOOKUP_SHARD_SIZE && ips[later] != ips[first]);
        assert!(view.column(0)[first].is_some());
        assert_eq!(view.column(0)[first], view.column(0)[later]);
        assert!(
            view.column(2).iter().all(Option::is_none),
            "all-miss column"
        );

        check_contract(&inmem, &ips);
        check_contract(&images, &ips);
    }

    #[test]
    fn empty_inputs_build_empty_views() {
        let dbs: [InMemoryDb; 0] = [];
        let view = ResolvedView::build_with(&dbs, &[], &Pool::new(1));
        assert!(view.is_empty());
        assert_eq!(view.db_count(), 0);
        assert!(view.interner().is_empty());
    }
}
