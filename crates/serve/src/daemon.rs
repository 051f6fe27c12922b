//! The lookup daemon: bounded worker pool over hot-swappable RGDB
//! generations.
//!
//! Connections run on the bounded server the bulk-whois server also
//! uses ([`routergeo_faultnet::server`]): an accept thread hands them to
//! a fixed worker pool through a bounded queue; overflow is an
//! **explicit load shed** (one `BUSY` frame, then a gentle close) rather
//! than an unbounded backlog; every connection carries read/write
//! deadlines so a stalled peer can wedge at most one worker for a
//! bounded time. This module supplies only the per-connection handler
//! (RGDB frames with generation pinning) and the `BUSY` reply with its
//! `serve.shed` accounting.
//!
//! Generations: the live database is an `Arc<Generation>` behind an
//! `RwLock`. Lookups clone the `Arc` under a read lock held for
//! nanoseconds, then resolve against that pinned generation — a swap
//! mid-request is invisible to the request. [`ServeDaemon::hot_swap`]
//! opens and validates the next image on the caller's thread (release N
//! keeps serving while N+1 loads), flips the pointer under the write
//! lock, then drains: bounded polling until the old generation's
//! strong count falls to 1, i.e. every in-flight reader has finished.

use crate::protocol::{self, ProtoError, Request, Response};
use bytes::Bytes;
use routergeo_db::rgdb2::{Rgdb2Reader, RgdbError};
use routergeo_db::FileImage;
use routergeo_faultnet::server::{close_gently, Server, DRAIN_BUDGET, DRAIN_POLL, DRAIN_POLLS_MAX};
use std::fmt;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Tuning knobs for [`ServeDaemon::spawn_with`]: worker count, queue
/// depth and socket deadlines. The default (4 workers, queue depth 16,
/// 5 s deadlines) is the daemon's.
pub use routergeo_faultnet::server::ServerConfig as ServeConfig;

/// One immutable database generation: a validated RGDB reader plus the
/// monotonically increasing id responses carry.
pub struct Generation {
    id: u32,
    reader: Rgdb2Reader,
}

impl Generation {
    /// Generation id (1-based; each swap increments).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The underlying validated reader.
    pub fn reader(&self) -> &Rgdb2Reader {
        &self.reader
    }
}

/// Failures spawning or swapping the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The RGDB image did not validate.
    Db(RgdbError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "serve i/o: {err}"),
            ServeError::Db(err) => write!(f, "serve db: {err}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> ServeError {
        ServeError::Io(err)
    }
}

impl From<RgdbError> for ServeError {
    fn from(err: RgdbError) -> ServeError {
        ServeError::Db(err)
    }
}

/// Outcome of one [`ServeDaemon::hot_swap`].
#[derive(Debug, Clone, Copy)]
pub struct SwapReport {
    /// Generation that was retired.
    pub old_generation: u32,
    /// Generation now live.
    pub new_generation: u32,
    /// Whether every in-flight reader of the old generation finished
    /// within the drain budget.
    pub drained: bool,
    /// Drain polls performed (0 = no reader was in flight).
    pub drain_polls: u32,
}

#[derive(Default)]
struct AtomicStats {
    requests: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    swaps: AtomicU64,
}

/// Snapshot of the daemon's request accounting. The conservation law
/// `requests == served + shed + malformed` holds at rest (between
/// requests) — the same identity `cargo xtask obs-check` enforces on
/// the global `serve.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames (or shed connections) that entered accounting.
    pub requests: u64,
    /// Requests answered (hit, miss, generation info, or server error).
    pub served: u64,
    /// Connections shed at accept with `BUSY`.
    pub shed: u64,
    /// Frames rejected as malformed (framing or body).
    pub malformed: u64,
    /// Lookups that matched a prefix.
    pub hits: u64,
    /// Lookups no prefix covered.
    pub misses: u64,
    /// Lookups that failed server-side.
    pub errors: u64,
    /// Completed generation swaps.
    pub swaps: u64,
}

struct Shared {
    current: RwLock<Arc<Generation>>,
    next_gen: AtomicU32,
    stats: AtomicStats,
}

impl Shared {
    /// Pin the live generation: clone the `Arc` under a read lock held
    /// only for the clone itself.
    fn generation(&self) -> Arc<Generation> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    fn count_request(&self) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        routergeo_obs::counter("serve.requests").incr();
    }

    fn count_served(&self) {
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        routergeo_obs::counter("serve.served").incr();
    }

    fn count_malformed(&self) {
        self.stats.malformed.fetch_add(1, Ordering::Relaxed);
        routergeo_obs::counter("serve.malformed").incr();
    }

    /// Account one connection shed at accept and answer it `BUSY`.
    fn shed(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        self.count_request();
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        routergeo_obs::counter("serve.shed").incr();
        protocol::write_frame(stream, &protocol::encode_response(&Response::Busy))
    }
}

/// Handle to a running daemon. Dropping it runs
/// [`ServeDaemon::shutdown`]: it waits about 1 s at most, then leaves
/// workers still serving a connection to finish on their own.
pub struct ServeDaemon {
    shared: Arc<Shared>,
    server: Server,
}

impl ServeDaemon {
    /// Spawn with default tuning; `image` becomes generation 1.
    pub fn spawn(image: Bytes) -> Result<ServeDaemon, ServeError> {
        ServeDaemon::spawn_with(image, ServeConfig::default())
    }

    /// Spawn with generation 1 loaded straight from an on-disk image
    /// via [`FileImage`]: one allocation, no intermediate copy, and an
    /// attributed error if the file is unreadable or invalid.
    pub fn spawn_file(path: impl AsRef<Path>) -> Result<ServeDaemon, ServeError> {
        ServeDaemon::spawn(FileImage::load(path)?.into_bytes())
    }

    /// Validate `image`, bind `127.0.0.1:0`, and start the accept loop
    /// plus `config.workers` connection workers.
    pub fn spawn_with(image: Bytes, config: ServeConfig) -> Result<ServeDaemon, ServeError> {
        let reader = Rgdb2Reader::open(image)?;
        let generation = Arc::new(Generation { id: 1, reader });
        let shared = Arc::new(Shared {
            current: RwLock::new(generation),
            next_gen: AtomicU32::new(2),
            stats: AtomicStats::default(),
        });
        let handler_shared = Arc::clone(&shared);
        let busy_shared = Arc::clone(&shared);
        let server = Server::spawn(
            &config,
            move |stream, stop| handle_connection(stream, &handler_shared, stop),
            move |stream| busy_shared.shed(stream),
        )?;
        Ok(ServeDaemon { shared, server })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Id of the generation currently serving.
    pub fn generation(&self) -> u32 {
        self.shared.generation().id
    }

    /// Snapshot the request accounting.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            served: s.served.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            swaps: s.swaps.load(Ordering::Relaxed),
        }
    }

    /// Atomically replace the live generation with `image`.
    ///
    /// The new image is opened and validated **before** the flip, so the
    /// old generation serves uninterrupted while the new one loads, and
    /// a corrupt image never goes live. After the flip the call drains:
    /// bounded polling until no in-flight request still pins the old
    /// generation.
    pub fn hot_swap(&self, image: Bytes) -> Result<SwapReport, ServeError> {
        let reader = Rgdb2Reader::open(image)?;
        let id = self.shared.next_gen.fetch_add(1, Ordering::SeqCst);
        let fresh = Arc::new(Generation { id, reader });
        let mut guard = match self.shared.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let old = std::mem::replace(&mut *guard, fresh);
        drop(guard);
        self.shared.stats.swaps.fetch_add(1, Ordering::Relaxed);
        routergeo_obs::counter("serve.swaps").incr();
        let mut polls = 0u32;
        while Arc::strong_count(&old) > 1 && polls < DRAIN_POLLS_MAX {
            std::thread::sleep(DRAIN_POLL);
            polls += 1;
        }
        Ok(SwapReport {
            old_generation: old.id,
            new_generation: id,
            drained: Arc::strong_count(&old) == 1,
            drain_polls: polls,
        })
    }

    /// [`ServeDaemon::hot_swap`] from an on-disk image via
    /// [`FileImage`]. The file is read and validated before the flip,
    /// so an unreadable path or corrupt file leaves the current
    /// generation serving untouched.
    pub fn hot_swap_file(&self, path: impl AsRef<Path>) -> Result<SwapReport, ServeError> {
        self.hot_swap(FileImage::load(path)?.into_bytes())
    }

    /// Stop accepting and drain in-flight connections for at most about
    /// 1 s. Returns the connections still active after that (0 in a
    /// healthy shutdown); their workers are left to finish on their own.
    pub fn shutdown(&mut self) -> usize {
        self.server.shutdown()
    }
}

fn framing_reason(err: &ProtoError) -> &'static str {
    match err {
        ProtoError::FrameTooLarge(_) => "frame exceeds size cap",
        ProtoError::EmptyFrame => "zero-length frame",
        ProtoError::Malformed(why) => why,
        ProtoError::Io(_) => "read failed inside frame",
    }
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    // Responses are single small writes; without this, Nagle + delayed
    // ACK turns every round trip into ~40ms on loopback.
    stream.set_nodelay(true)?;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let body = match protocol::read_frame(&mut stream) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(()), // clean close at a frame boundary
            Err(ProtoError::Io(err)) => return Err(err), // peer vanished mid-frame
            Err(err) => {
                // Framing can no longer be trusted: account, answer, close.
                shared.count_request();
                shared.count_malformed();
                let resp = Response::Malformed {
                    reason: framing_reason(&err).to_string(),
                };
                let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&resp));
                close_gently(&mut stream, DRAIN_BUDGET);
                return Ok(());
            }
        };
        let timer = routergeo_obs::stopwatch();
        let resp = respond(&body, shared);
        protocol::write_frame(&mut stream, &protocol::encode_response(&resp))?;
        stream.flush()?;
        routergeo_obs::histogram("serve.latency_us").record(timer.elapsed_us());
    }
}

/// Answer one intact frame. Body-level nonsense gets a `MALFORMED`
/// response but keeps the connection: framing is still synchronized.
fn respond(body: &[u8], shared: &Shared) -> Response {
    shared.count_request();
    match protocol::parse_request(body) {
        Err(err) => {
            shared.count_malformed();
            Response::Malformed {
                reason: framing_reason(&err).to_string(),
            }
        }
        Ok(Request::Generation) => {
            shared.count_served();
            let generation = shared.generation();
            Response::GenerationInfo {
                generation: generation.id,
                record_count: generation.reader.record_count(),
                name: generation.reader.name().to_string(),
            }
        }
        Ok(Request::Lookup(ip)) => {
            // Pin the generation for the whole request: a swap between
            // the lookup and the response cannot mix generations.
            let generation = shared.generation();
            shared.count_served();
            routergeo_obs::counter("serve.lookups").incr();
            match generation.reader.try_lookup(ip) {
                Ok(Some(record)) => {
                    shared.stats.hits.fetch_add(1, Ordering::Relaxed);
                    routergeo_obs::counter("serve.hits").incr();
                    Response::Hit {
                        generation: generation.id,
                        record,
                    }
                }
                Ok(None) => {
                    shared.stats.misses.fetch_add(1, Ordering::Relaxed);
                    routergeo_obs::counter("serve.misses").incr();
                    Response::Miss {
                        generation: generation.id,
                    }
                }
                Err(err) => {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    routergeo_obs::counter("serve.lookup_errors").incr();
                    Response::ServerError {
                        generation: generation.id,
                        reason: err.to_string(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::live::ServeClient;
    use std::time::{Duration, Instant};

    /// A connection the daemon's only worker is serving, plus the number
    /// of `BUSY` sheds it took to get one: with a rendezvous queue the
    /// daemon sheds until the worker waits in `recv`.
    fn hold_worker(daemon: &ServeDaemon) -> (ServeClient, u64) {
        let mut sheds = 0;
        loop {
            let mut client = ServeClient::connect(daemon.addr()).expect("connect");
            match client.request(&Request::Generation) {
                Ok(Response::GenerationInfo { .. }) => return (client, sheds),
                Ok(Response::Busy) if sheds < 100 => sheds += 1,
                other => panic!("no worker took the connection: {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn saturated_daemon_sheds_with_busy_and_keeps_the_books() {
        let corpus = Corpus::new(64);
        let config = ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        };
        let mut daemon = ServeDaemon::spawn_with(corpus.image_v21(1), config).expect("spawn");
        let (held, startup_sheds) = hold_worker(&daemon);

        let mut next = ServeClient::connect(daemon.addr()).expect("connect");
        let answer = next.request(&Request::Lookup(corpus.hit_addr(0)));
        assert!(matches!(answer, Ok(Response::Busy)), "{answer:?}");
        drop(next);

        let stats = daemon.stats();
        assert_eq!(stats.shed, 1 + startup_sheds, "{stats:?}");
        assert_eq!(
            stats.requests,
            stats.served + stats.shed + stats.malformed,
            "{stats:?}"
        );
        drop(held);
        assert_eq!(daemon.shutdown(), 0);
    }

    #[test]
    fn shutdown_reports_a_silent_client_after_about_one_second() {
        let corpus = Corpus::new(64);
        let budget = DRAIN_POLL * DRAIN_POLLS_MAX;
        // The worker checks the stop flag after each response, and no
        // event a client can see marks the moment it has passed that
        // check and blocked reading the next frame. When shutdown wins
        // that race the worker closes the idle connection at once and
        // shutdown reports 0 well inside the budget; try a fresh daemon.
        for _ in 0..10 {
            let mut daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("spawn");
            let mut silent = ServeClient::connect(daemon.addr()).expect("connect");
            let answer = silent.request(&Request::Generation);
            assert!(
                matches!(answer, Ok(Response::GenerationInfo { .. })),
                "{answer:?}"
            );

            let started = Instant::now();
            let still_active = daemon.shutdown();
            let waited = started.elapsed();
            if still_active == 0 && waited < budget {
                continue;
            }
            assert_eq!(still_active, 1, "after {waited:?}");
            assert!(waited >= budget, "{waited:?}");
            assert!(waited < Duration::from_secs(3), "{waited:?}");
            return;
        }
        panic!("the worker never blocked reading from the silent client");
    }

    #[test]
    fn shutdown_after_clients_close_reports_zero() {
        let corpus = Corpus::new(64);
        let mut daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("spawn");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let answer = client.request(&Request::Lookup(corpus.hit_addr(0)));
        assert!(matches!(answer, Ok(Response::Hit { .. })), "{answer:?}");
        drop(client);
        assert_eq!(daemon.shutdown(), 0);
    }
}
