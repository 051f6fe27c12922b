//! The lookup daemon: bounded worker pool over hot-swappable RGDB
//! generations.
//!
//! The concurrency discipline is the bulk-whois server's, transplanted:
//! an accept thread `try_send`s connections into a bounded
//! `sync_channel`; overflow is an **explicit load shed** (one `BUSY`
//! frame, then a gentle close) rather than an unbounded backlog; every
//! connection carries read/write deadlines so a stalled peer can wedge
//! at most one worker for a bounded time.
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
use std::fmt;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`ServeDaemon::spawn_with`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded handoff queue depth; overflow is shed as `BUSY`.
    pub queue_depth: usize,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Sleep between drain polls (swap and shutdown).
    pub drain_poll: Duration,
    /// Maximum drain polls before giving up.
    pub drain_polls_max: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_poll: Duration::from_millis(2),
            drain_polls_max: 500,
        }
    }
}

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
    stop: AtomicBool,
    active: AtomicUsize,
    config: ServeConfig,
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
}

/// Handle to a running daemon. Dropping without [`ServeDaemon::shutdown`]
/// aborts the accept loop but does not wait for workers.
pub struct ServeDaemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            current: RwLock::new(generation),
            next_gen: AtomicU32::new(2),
            stats: AtomicStats::default(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            config: config.clone(),
        });
        let (tx, rx) = sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                // xtask-allow: RG007 long-lived I/O workers, not data-parallel fan-out
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        let shared2 = Arc::clone(&shared);
        // xtask-allow: RG007 accept loop must outlive this call; pool shards are scoped
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shared2.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => shed(stream, &shared2),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        });
        Ok(ServeDaemon {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
        while Arc::strong_count(&old) > 1 && polls < self.shared.config.drain_polls_max {
            std::thread::sleep(self.shared.config.drain_poll);
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

    /// Stop accepting, join workers, and report connections still active
    /// after the bounded drain (0 in a healthy shutdown).
    pub fn shutdown(&mut self) -> usize {
        if self.accept.is_none() {
            return 0;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Nudge the blocked accept() so the loop observes `stop`.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The accept thread owned the only sender; workers drain the
        // queue then see Disconnected and exit.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let mut polls = 0u32;
        while self.shared.active.load(Ordering::SeqCst) > 0
            && polls < self.shared.config.drain_polls_max
        {
            std::thread::sleep(self.shared.config.drain_poll);
            polls += 1;
        }
        self.shared.active.load(Ordering::SeqCst)
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // xtask-allow: RG011 the workers share one Receiver; blocking in recv with the dispatch lock held IS the handoff protocol
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => return,
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        // xtask-allow: RG012 per-connection I/O errors are expected churn; the worker loop must outlive them
        let _ = handle_connection(stream, shared);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shed one connection at accept: one `BUSY` frame, gentle close. The
/// whole rejection is deadline-bounded so a stalling client cannot
/// wedge the accept loop.
fn shed(mut stream: TcpStream, shared: &Shared) {
    shared.count_request();
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    routergeo_obs::counter("serve.shed").incr();
    let deadline = shared.config.write_timeout.min(Duration::from_secs(1));
    let _ = stream.set_write_timeout(Some(deadline));
    let _ = stream.set_read_timeout(Some(deadline));
    let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&Response::Busy));
    // Drain before closing: closing with unread bytes in the receive
    // buffer makes the kernel answer with RST, which can destroy the
    // BUSY frame in flight.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    drain_bounded(&mut stream);
}

/// Swallow at most 1 MiB of a peer's pending bytes so close does not RST.
fn drain_bounded<R: Read>(r: &mut R) {
    const DRAIN_CAP: usize = 1 << 20;
    let mut sink = [0u8; 4096];
    let mut seen = 0usize;
    while seen < DRAIN_CAP {
        match r.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => seen += n,
        }
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

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    // Responses are single small writes; without this, Nagle + delayed
    // ACK turns every round trip into ~40ms on loopback.
    stream.set_nodelay(true)?;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
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
                let _ = stream.shutdown(std::net::Shutdown::Write);
                drain_bounded(&mut stream);
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
