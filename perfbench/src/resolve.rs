//! `resolve-paper`: the §5 lookup hot path at paper size — four
//! vendor-style RGDB v2.1 images and 1.5 M addresses resolved through
//! `ResolvedView::build_with`.

use crate::clock::{timed, Clock};
use crate::gen::{probe_addresses, vendor_rows};
use crate::stats::median;
use crate::{Measured, Run};
use routergeo_core::ResolvedView;
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::{GeoDatabase, LocationInterner, LocationRecord};
use routergeo_net::Prefix;
use routergeo_pool::Pool;
use std::net::Ipv4Addr;

/// /24 rows per vendor database before its coverage gaps.
const PREFIXES: u32 = 60_000;
/// Addresses resolved per pass (4 databases: 6 M lookups).
const ADDRESSES: usize = 1_500_000;
/// Vendor database names.
const VENDORS: [&str; 4] = ["vendor-a", "vendor-b", "vendor-c", "vendor-d"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Addresses in the fixed sample checked against `lookup_compact`, and
/// timed per address in a traced run.
const SAMPLE: usize = 4_096;
/// Addresses per serial `lookup_batch` call in a traced run: the size of
/// one `ResolvedView` shard.
const CHUNK: usize = 16_384;
/// Chunks timed per database in a traced run.
const CHUNKS: usize = 16;

type Rows = Vec<(Prefix, LocationRecord)>;

/// One set-up: serialize every vendor as v2.1 and open it.
struct Setup {
    readers: Vec<Rgdb2Reader>,
    write_s: f64,
    open_s: f64,
    image_bytes: usize,
}

fn setup(vendors: &[Rows]) -> Result<Setup, String> {
    let (images, write_s) = timed(|| {
        vendors
            .iter()
            .zip(VENDORS)
            .map(|(rows, name)| rgdb2::write_v21(name, rows.iter().map(|(p, r)| (*p, r))))
            .collect::<Vec<_>>()
    });
    let image_bytes = images.iter().map(bytes::Bytes::len).sum();
    let (readers, open_s) = timed(|| {
        images
            .into_iter()
            .map(Rgdb2Reader::open)
            .collect::<Result<Vec<_>, _>>()
    });
    Ok(Setup {
        readers: readers.map_err(|e| format!("the writer's own image fails to open: {e}"))?,
        write_s,
        open_s,
        image_bytes,
    })
}

/// The fixed sample: evenly spaced addresses of the probe set.
fn sample(ips: &[Ipv4Addr]) -> impl Iterator<Item = (usize, Ipv4Addr)> + '_ {
    let stride = (ips.len() / SAMPLE).max(1);
    ips.iter().copied().enumerate().step_by(stride).take(SAMPLE)
}

/// Sampled answers of `view` that differ from per-address
/// `lookup_compact` on the same reader.
fn mismatches(view: &ResolvedView, readers: &[Rgdb2Reader], ips: &[Ipv4Addr]) -> Vec<String> {
    let mut bad = Vec::new();
    let mut local = LocationInterner::new();
    for (d, reader) in readers.iter().enumerate() {
        for (i, ip) in sample(ips) {
            let want = reader
                .lookup_compact(ip, &mut local)
                .map(|r| r.to_record(&local));
            let got = view.record(d, i).map(|r| r.to_record(view.interner()));
            if got != want {
                bad.push(format!(
                    "{} answers {ip} with {got:?}, lookup_compact with {want:?}",
                    reader.name()
                ));
            }
        }
    }
    bad
}

/// Serial per-lookup costs: `(lookup_batch ns, lookup_compact ns)`.
fn layer_costs(readers: &[Rgdb2Reader], ips: &[Ipv4Addr]) -> (f64, f64) {
    let mut interner = LocationInterner::new();
    let chunks: Vec<&[Ipv4Addr]> = ips.chunks(CHUNK).take(CHUNKS).collect();
    let batched: usize = chunks.iter().map(|c| c.len()).sum::<usize>() * readers.len();
    let (hits, batch_s) = timed(|| {
        let mut hits = 0usize;
        for reader in readers {
            for chunk in &chunks {
                let answers = reader.lookup_batch(std::hint::black_box(chunk), &mut interner);
                hits += answers.iter().filter(|r| r.is_some()).count();
            }
        }
        hits
    });
    std::hint::black_box(hits);
    let sampled: Vec<Ipv4Addr> = sample(ips).map(|(_, ip)| ip).collect();
    let (hits, compact_s) = timed(|| {
        let mut hits = 0usize;
        for reader in readers {
            for ip in &sampled {
                hits += usize::from(
                    reader
                        .lookup_compact(std::hint::black_box(*ip), &mut interner)
                        .is_some(),
                );
            }
        }
        hits
    });
    std::hint::black_box(hits);
    let per = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;
    (
        per(batch_s, batched),
        per(compact_s, sampled.len() * readers.len()),
    )
}

/// Resolve the probe set repeatedly for `seconds` (at least three passes;
/// a traced run alternates untraced and traced passes) and check a fixed
/// sample of every pass.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let vendors: Vec<Rows> = (0..VENDORS.len() as u64)
        .map(|v| vendor_rows(seed, v, PREFIXES))
        .collect();
    let ips = probe_addresses(seed, ADDRESSES, PREFIXES);

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        setups.push(setup(&vendors)?);
    }
    let col =
        |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let (setup_s, write_s, open_s) = (
        col(|s| s.write_s + s.open_s),
        col(|s| s.write_s),
        col(|s| s.open_s),
    );
    let image_bytes = setups.last().map_or(0, |s| s.image_bytes);
    let readers = setups.pop().map(|s| s.readers).unwrap_or_default();
    drop(setups);

    let pool = Pool::new(crate::repro::THREADS);
    let mut failures = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<(usize, usize)> = None;
    let mut passes = 0u64;
    let mut peak_rss_mib = f64::NAN;
    let clock = Clock::start();
    while passes < 3 || clock.secs() < seconds {
        // A traced pass is the same call; its only instrumentation is
        // the clock read around it.
        let trace_this = trace && untraced.len() > traced.len();
        let (view, secs) = timed(|| ResolvedView::build_with(&readers, &ips, &pool));
        if trace_this {
            traced.push(secs);
        } else {
            untraced.push(secs);
        }
        passes += 1;
        if passes == 1 {
            // Peak memory of set-up plus one resolve in a fresh process.
            peak_rss_mib = crate::peak_rss_mib();
        }
        let hits: usize = (0..view.db_count())
            .map(|d| view.column(d).iter().filter(|r| r.is_some()).count())
            .sum();
        let shape = (hits, view.interner().len());
        match first {
            None => first = Some(shape),
            Some(f) if f != shape => failures.push(format!(
                "pass {passes} found {hits} hits / {} names, pass 1 {} / {}",
                shape.1, f.0, f.1
            )),
            Some(_) => {}
        }
        failures.extend(mismatches(&view, &readers, &ips));
    }

    let lookups = ips.len() * readers.len();
    let mut metrics: Measured = vec![
        ("setup_s", setup_s),
        ("run_s", median(&untraced).unwrap_or(0.0)),
        ("peak_rss_mib", peak_rss_mib),
    ];
    if trace {
        let (hits, interned) = first.unwrap_or_default();
        let resolve_s = median(&traced).unwrap_or(0.0);
        let (batch_ns, compact_ns) = layer_costs(&readers, &ips);
        metrics.extend([
            ("db.write_v21_s", write_s),
            ("db.image_bytes", image_bytes as f64),
            ("db.open_s", open_s),
            ("core.resolve_s", resolve_s),
            ("core.lookups", lookups as f64),
            ("core.lookups_per_s", lookups as f64 / resolve_s),
            ("core.hit_frac", hits as f64 / lookups as f64),
            ("core.interned", interned as f64),
            ("db.lookup_batch_ns", batch_ns),
            ("db.lookup_compact_ns", compact_ns),
            ("db.batch_gain_x", compact_ns / batch_ns),
            (
                "trace_overhead_s",
                resolve_s - median(&untraced).unwrap_or(0.0),
            ),
        ]);
    }
    Ok(Run {
        attempted: passes * lookups as u64,
        failed: failures.len() as u64,
        failures,
        metrics,
    })
}
