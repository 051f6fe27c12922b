//! `serve-swap`: a `ServeDaemon` on the default `ServeConfig` serving a
//! 30,720-record v2.1 corpus to one closed-loop client while the
//! database is hot-swapped every 500 ms. `main` pins the process to one
//! CPU first, so the client, the daemon and the swaps share it.

use crate::clock::{timed, Clock};
use crate::gen::serve_addresses;
use crate::stats::{median, Histogram};
use crate::{Measured, Run};
use bytes::Bytes;
use routergeo_db::rgdb2::AnyReader;
use routergeo_db::LocationRecord;
use routergeo_serve::protocol::{self, ProtoError};
use routergeo_serve::{
    Corpus, Request, Response, ServeClient, ServeDaemon, ServeStats, SwapReport,
};
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Records per generation: every disjoint /16 block the corpus has.
const RECORDS: usize = 120 * 256;
/// Closed-loop client connections.
pub const CLIENTS: usize = 1;
/// Seconds between hot swaps.
const SWAP_PERIOD_S: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Distinct addresses in the lookup stream (each client starts at its
/// own offset and cycles through them).
const STREAM: usize = 1 << 16;
/// Idle `AnyReader::open` calls timed in a traced run.
const OPENS: usize = 9;

/// Corpus tags of the two images the daemon alternates between.
const TAGS: [u32; 2] = [1, 2];

/// The image daemon generation `id` serves: generation 1 is the first
/// image, and each swap installs the other one, so odd ids serve image
/// 0 and even ids image 1.
fn image_of(id: u32) -> Option<usize> {
    id.checked_sub(1).map(|g| usize::from(g % 2 == 1))
}

/// A daemon serving image 0, with its clients connected.
struct Setup {
    images: [Bytes; 2],
    daemon: ServeDaemon,
    clients: Vec<ServeClient>,
}

fn setup(corpus: &Corpus) -> Result<(Setup, f64), String> {
    let clock = Clock::start();
    let images = TAGS.map(|tag| corpus.image_v21(tag));
    let daemon = ServeDaemon::spawn(images[0].clone()).map_err(|e| format!("spawn: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| ServeClient::connect(daemon.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((
        Setup {
            images,
            daemon,
            clients,
        },
        clock.secs(),
    ))
}

/// A traced client: the steps of `ServeClient::request`, each timed.
struct TracedClient {
    stream: TcpStream,
    codec_ns: u64,
    wire_ns: u64,
}

impl TracedClient {
    /// Connect exactly as `ServeClient::connect` does.
    fn connect(addr: SocketAddr) -> std::io::Result<TracedClient> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(TracedClient {
            stream,
            codec_ns: 0,
            wire_ns: 0,
        })
    }

    fn request(&mut self, req: &Request) -> Result<Response, ProtoError> {
        let clock = Clock::start();
        let body = protocol::encode_request(req);
        let encoded = clock.nanos();
        protocol::write_frame(&mut self.stream, &body)?;
        self.stream.flush()?;
        let frame = protocol::read_frame(&mut self.stream)?;
        let received = clock.nanos();
        let resp = match frame {
            Some(body) => protocol::parse_response(&body),
            None => Err(ProtoError::Malformed("server closed before answering")),
        };
        self.codec_ns += encoded + clock.nanos() - received;
        self.wire_ns += received - encoded;
        resp
    }
}

/// Either client; the load loop is the same for both.
enum Client {
    Plain(ServeClient),
    Traced(TracedClient),
}

impl Client {
    fn request(&mut self, req: &Request) -> Result<Response, ProtoError> {
        match self {
            Client::Plain(c) => c.request(req),
            Client::Traced(c) => c.request(req),
        }
    }
}

/// One client's view of a load phase.
struct Tally {
    rtt: Histogram,
    hits: u64,
    misses: u64,
    busy: u64,
    errors: u64,
    torn: u64,
    wrong: u64,
    codec_ns: u64,
    wire_ns: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            rtt: Histogram::new(),
            hits: 0,
            misses: 0,
            busy: 0,
            errors: 0,
            torn: 0,
            wrong: 0,
            codec_ns: 0,
            wire_ns: 0,
        }
    }
}

/// Expected answers per image, indexed like the address stream.
type Expected = [Vec<Option<LocationRecord>>; 2];

fn classify(resp: Result<Response, ProtoError>, i: usize, expected: &Expected, t: &mut Tally) {
    let want = |generation: u32| {
        image_of(generation).and_then(|img| expected.get(img).and_then(|e| e.get(i)))
    };
    match resp {
        Ok(Response::Hit { generation, record }) => {
            t.hits += 1;
            let tag_ok = image_of(generation)
                .and_then(|img| TAGS.get(img))
                .zip(record.city.as_deref())
                .is_some_and(|(tag, city)| Corpus::city_matches(*tag, city));
            if !tag_ok {
                t.torn += 1;
            } else if want(generation) != Some(&Some(record)) {
                t.wrong += 1;
            }
        }
        Ok(Response::Miss { generation }) => {
            t.misses += 1;
            if want(generation) != Some(&None) {
                t.wrong += 1;
            }
        }
        Ok(Response::Busy) => t.busy += 1,
        Ok(_) | Err(_) => t.errors += 1,
    }
}

/// Closed loop: send the next lookup as soon as the previous answer
/// arrives, until `stop`.
fn client_loop(
    mut client: Client,
    start: usize,
    ips: &[Ipv4Addr],
    expected: &Expected,
    stop: &AtomicBool,
) -> (Client, Tally) {
    let mut t = Tally::new();
    let mut i = start;
    while !stop.load(Ordering::Relaxed) {
        let req = Request::Lookup(ips[i]);
        let clock = Clock::start();
        let resp = client.request(&req);
        t.rtt.record(clock.nanos());
        let broken = matches!(resp, Err(ProtoError::Io(_)));
        classify(resp, i, expected, &mut t);
        if broken {
            break;
        }
        i = (i + 1) % ips.len();
    }
    if let Client::Traced(c) = &client {
        t.codec_ns = c.codec_ns;
        t.wire_ns = c.wire_ns;
    }
    (client, t)
}

/// A load phase: the clients' merged tally and every swap made.
struct Phase {
    tally: Tally,
    secs: f64,
    swaps: Vec<(Result<SwapReport, String>, f64)>,
}

/// Run `clients` for `seconds` while the main thread swaps images every
/// [`SWAP_PERIOD_S`]; `installed` counts swaps so far (it picks the next
/// image).
fn phase(
    s: &Setup,
    clients: Vec<Client>,
    seconds: f64,
    installed: &mut usize,
    ips: &[Ipv4Addr],
    expected: &Expected,
) -> (Phase, Vec<Client>) {
    let stop = AtomicBool::new(false);
    let mut swaps = Vec::new();
    let clock = Clock::start();
    // xtask-allow: RG007 closed-loop protocol clients are I/O threads, not data-parallel fan-out
    let results: Vec<(Client, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let stop = &stop;
                let start = c * ips.len() / CLIENTS;
                scope.spawn(move || client_loop(client, start, ips, expected, stop))
            })
            .collect();
        let mut due = SWAP_PERIOD_S;
        while due < seconds {
            let wait = due - clock.secs();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let next = s.images[(*installed + 1) % 2].clone();
            let (report, secs) = timed(|| s.daemon.hot_swap(next));
            swaps.push((report.map_err(|e| e.to_string()), secs));
            *installed += 1;
            due += SWAP_PERIOD_S;
        }
        let wait = seconds - clock.secs();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let secs = clock.secs();
    let mut tally = Tally::new();
    let mut clients = Vec::new();
    let lost = CLIENTS - results.len();
    for (client, t) in results {
        tally.rtt.merge(&t.rtt);
        tally.hits += t.hits;
        tally.misses += t.misses;
        tally.busy += t.busy;
        tally.errors += t.errors;
        tally.torn += t.torn;
        tally.wrong += t.wrong;
        tally.codec_ns += t.codec_ns;
        tally.wire_ns += t.wire_ns;
        clients.push(client);
    }
    tally.errors += lost as u64;
    (Phase { tally, secs, swaps }, clients)
}

/// Every broken `ServeStats` identity, given what the clients saw. The
/// daemon's counts equal the clients' only when no request was lost to
/// an error or a shed.
fn stats_violations(stats: &ServeStats, seen: &Tally, swaps: u64) -> Vec<String> {
    let mut checks = vec![
        (
            "requests",
            stats.requests,
            stats.served + stats.shed + stats.malformed,
        ),
        (
            "hits + misses + errors",
            stats.hits + stats.misses + stats.errors,
            stats.served,
        ),
        ("swaps", stats.swaps, swaps),
    ];
    if seen.errors + seen.busy == 0 {
        checks.extend([
            ("served", stats.served, seen.hits + seen.misses),
            ("hits", stats.hits, seen.hits),
            ("misses", stats.misses, seen.misses),
        ]);
    }
    checks
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(what, got, want)| format!("daemon {what} {got} != {want}"))
        .collect()
}

fn per(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Close the clients first: a worker blocked reading an open
/// connection would hold `shutdown` until its read deadline.
fn teardown(s: Setup) -> usize {
    let Setup {
        mut daemon,
        clients,
        ..
    } = s;
    drop(clients);
    daemon.shutdown()
}

fn p50(rtt: &Histogram) -> f64 {
    rtt.percentile(50.0).map_or(0.0, |ns| ns as f64)
}

/// Serve lookups for `seconds` (a traced run: half plain, half traced)
/// and check every answer against the image its generation serves.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let corpus = Corpus::new(RECORDS);
    let ips = serve_addresses(seed, &corpus, STREAM);

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut current: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = current.take() {
            teardown(old);
        }
        let (fresh, secs) = setup(&corpus)?;
        setup_times.push(secs);
        current = Some(fresh);
    }
    let mut s = current.ok_or("no set-up ran")?;

    let readers = s
        .images
        .clone()
        .map(|img| AnyReader::open(img).map_err(|e| e.to_string()));
    let mut expected: Expected = [Vec::new(), Vec::new()];
    for (want, reader) in expected.iter_mut().zip(&readers) {
        let reader = reader
            .as_ref()
            .map_err(|e| format!("image fails to open: {e}"))?;
        *want = ips
            .iter()
            .map(|ip| reader.try_lookup(*ip))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("direct lookup fails: {e}"))?;
    }

    let mut installed = 0usize;
    let plain_s = if trace { seconds / 2.0 } else { seconds };
    let clients = std::mem::take(&mut s.clients)
        .into_iter()
        .map(Client::Plain)
        .collect();
    let (plain, clients) = phase(&s, clients, plain_s, &mut installed, &ips, &expected);
    let peak_rss_mib = crate::peak_rss_mib();
    drop(clients);
    let traced = if trace {
        let clients = (0..CLIENTS)
            .map(|_| TracedClient::connect(s.daemon.addr()).map(Client::Traced))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let (traced, clients) = phase(
            &s,
            clients,
            seconds - plain_s,
            &mut installed,
            &ips,
            &expected,
        );
        drop(clients);
        Some(traced)
    } else {
        None
    };

    let phases: Vec<&Phase> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let mut failures = Vec::new();
    let mut seen = Tally::new();
    let mut lookups = 0u64;
    let mut failed = 0u64;
    let mut drain_polls = 0u64;
    // A refused or failed operation (BUSY, an I/O or server error, a swap
    // that failed or did not drain) counts in `failed`; a wrong answer,
    // a torn read or a broken identity also fails the output check.
    for (k, (report, _)) in phases.iter().flat_map(|p| &p.swaps).enumerate() {
        let want = u32::try_from(k + 2).unwrap_or(u32::MAX);
        match report {
            Ok(r) if r.new_generation != want || r.old_generation + 1 != want => {
                failed += 1;
                failures.push(format!("swap {} gave {r:?}, want generation {want}", k + 1));
            }
            Ok(r) => {
                failed += u64::from(!r.drained);
                drain_polls += u64::from(r.drain_polls);
            }
            Err(_) => failed += 1,
        }
    }
    for p in &phases {
        let t = &p.tally;
        lookups += t.rtt.len() as u64;
        seen.hits += t.hits;
        seen.misses += t.misses;
        seen.errors += t.errors;
        seen.busy += t.busy;
        failed += t.busy + t.errors + t.torn + t.wrong;
        if t.torn + t.wrong > 0 {
            failures.push(format!(
                "{} torn reads, {} answers unlike the generation's image",
                t.torn, t.wrong
            ));
        }
    }
    let swaps = u64::try_from(installed).unwrap_or(u64::MAX);
    let stats = s.daemon.stats();
    failures.extend(stats_violations(&stats, &seen, swaps));
    let live = s.daemon.generation();
    if u64::from(live) != swaps + 1 {
        failures.push(format!(
            "daemon serves generation {live} after {swaps} swaps"
        ));
    }
    let image0 = s.images[0].clone();
    let still_active = teardown(s);
    if still_active > 0 {
        failures.push(format!(
            "{still_active} connections still active after shutdown"
        ));
    }

    let rtt = &plain.tally.rtt;
    let mut metrics: Measured = vec![
        ("setup_s", median(&setup_times).unwrap_or(0.0)),
        ("run_s", p50(rtt) / 1e9),
        ("peak_rss_mib", peak_rss_mib),
    ];
    if let Some(traced) = &traced {
        let reader = readers[0].as_ref().map_err(|e| e.to_string())?;
        let (hits, direct_s) = timed(|| {
            let mut hits = 0u64;
            for _ in 0..4 {
                for ip in &ips {
                    hits += u64::from(matches!(
                        reader.try_lookup(std::hint::black_box(*ip)),
                        Ok(Some(_))
                    ));
                }
            }
            hits
        });
        std::hint::black_box(hits);
        let direct_ns = direct_s * 1e9 / (4 * ips.len()) as f64;
        let opens: Vec<f64> = (0..OPENS)
            .map(|_| timed(|| AnyReader::open(image0.clone())).1 * 1e3)
            .collect();
        let swap_ms: Vec<f64> = plain.swaps.iter().map(|(_, secs)| secs * 1e3).collect();
        let n = rtt.len();
        let (tail_pct, tail_ns) = rtt.tail().unwrap_or((0.0, 0));
        metrics.extend([
            ("serve.rtt_p50_us", p50(rtt) / 1e3),
            (
                "serve.rtt_p99_us",
                rtt.percentile(99.0).map_or(0.0, |ns| ns as f64 / 1e3),
            ),
            ("serve.rtt_tail_us", tail_ns as f64 / 1e3),
            ("serve.rtt_tail_pct", tail_pct),
            ("serve.rtt_samples", n as f64),
            ("serve.served_per_s", n as f64 / plain.secs),
            ("serve.swap_ms", median(&swap_ms).unwrap_or(0.0)),
            (
                "serve.client_codec_ns",
                per(traced.tally.codec_ns, traced.tally.rtt.len()),
            ),
            (
                "serve.wire_ns",
                per(traced.tally.wire_ns, traced.tally.rtt.len()),
            ),
            ("serve.overhead_x", p50(rtt) / direct_ns),
            ("serve.drain_polls", drain_polls as f64),
            ("serve.requests", stats.requests as f64),
            ("serve.served", stats.served as f64),
            ("serve.shed", stats.shed as f64),
            ("serve.hits", stats.hits as f64),
            ("serve.misses", stats.misses as f64),
            ("serve.errors", stats.errors as f64),
            ("serve.swaps", stats.swaps as f64),
            ("db.try_lookup_ns", direct_ns),
            ("db.open_ms", median(&opens).unwrap_or(0.0)),
            (
                "trace_overhead_s",
                (p50(&traced.tally.rtt) - p50(rtt)) / 1e9,
            ),
        ]);
    }
    Ok(Run {
        attempted: lookups + swaps,
        failed,
        failures,
        metrics,
    })
}
