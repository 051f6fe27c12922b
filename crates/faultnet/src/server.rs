//! `Server` — the bounded TCP connection server behind the bulk-whois
//! server and the lookup daemon.
//!
//! One accept thread hands each connection to a fixed pool of
//! long-lived workers through a `sync_channel(queue_depth)`. When every
//! worker is busy and the queue is full, the accept thread **sheds** the
//! connection instead of queueing it: the caller's busy hook writes its
//! protocol's refusal, the server half-closes and drains the peer, all
//! within one time budget, so a slow client cannot hold the accept loop.
//! Every handed-off socket carries read/write deadlines, so a stalled
//! peer holds one worker for a bounded time. [`Server::shutdown`] stops
//! accepting, polls the in-flight count for a bounded time, and reports
//! the connections it had to leave behind.
//!
//! A caller supplies only its per-connection handler and its busy hook;
//! `WhoisServer` (`routergeo-cymru`) and `ServeDaemon`
//! (`routergeo-serve`) are the two callers.

use crate::clock::{Clock, SystemClock};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sleep between drain polls (shutdown here, generation swaps in the
/// lookup daemon).
pub const DRAIN_POLL: Duration = Duration::from_millis(2);

/// Drain polls before giving up: [`DRAIN_POLL`] × 500 = 1 s.
pub const DRAIN_POLLS_MAX: u32 = 500;

/// Longest time a handler should spend in [`close_gently`]; a shed
/// also spends at most this long (or the write deadline, if shorter) on
/// its whole rejection.
pub const DRAIN_BUDGET: Duration = Duration::from_secs(1);

/// Most bytes [`close_gently`] swallows before closing regardless.
const DRAIN_CAP: usize = 1 << 20;

/// Worker-pool sizing and per-connection deadlines.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections that may wait for a worker; beyond this the
    /// server sheds. 0 is a rendezvous: a connection is handed off only
    /// to a worker already waiting for one.
    pub queue_depth: usize,
    /// Per-connection read deadline (per read, not per request).
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    /// 4 workers behind a 16-deep queue, 5 s read and write deadlines.
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// State the accept thread, the workers and the handle share.
#[derive(Default)]
struct State {
    stop: AtomicBool,
    /// Connections accepted and not yet finished: queued, being served,
    /// or being shed.
    active: AtomicUsize,
}

/// Handle to a running server. Dropping it runs [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `127.0.0.1:0` and serve until [`Server::shutdown`] or drop.
    ///
    /// `handler` serves one connection on a worker; its socket already
    /// carries the configured deadlines, and it may poll the stop flag
    /// between requests. Its error is the client's problem and is
    /// discarded. `busy` writes the protocol's refusal to a connection
    /// being shed; the server then closes it gently.
    pub fn spawn<H, B>(config: &ServerConfig, handler: H, busy: B) -> io::Result<Server>
    where
        H: Fn(TcpStream, &AtomicBool) -> io::Result<()> + Send + Sync + 'static,
        B: Fn(&mut TcpStream) -> io::Result<()> + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State::default());
        let (tx, rx) = sync_channel::<TcpStream>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let handler = Arc::new(handler);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                let handler = Arc::clone(&handler);
                let config = config.clone();
                // xtask-allow: RG007 long-lived I/O workers, not data-parallel fan-out
                std::thread::spawn(move || worker_loop(&rx, &state, &config, &*handler))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let shed_budget = config.write_timeout.min(DRAIN_BUDGET);
        // xtask-allow: RG007 accept loop must outlive this call; pool shards are scoped
        let accept = std::thread::spawn(move || {
            // `tx` lives in this closure: when the loop exits the sender
            // drops, and idle workers see `recv` fail and exit.
            for conn in listener.incoming() {
                if accept_state.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                accept_state.active.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                        shed(stream, shed_budget, &busy);
                        accept_state.active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        });
        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address to connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn active(&self) -> usize {
        self.state.active.load(Ordering::SeqCst)
    }

    /// Stop accepting, then poll the in-flight count for at most
    /// [`DRAIN_POLL`] × [`DRAIN_POLLS_MAX`]. If it reached 0 the workers
    /// are joined; otherwise they are detached (each exits once its
    /// connection ends) so the caller never waits on a silent peer.
    /// Returns the connections still active: 0 on a clean shutdown.
    pub fn shutdown(&mut self) -> usize {
        let Some(accept) = self.accept.take() else {
            return 0;
        };
        self.state.stop.store(true, Ordering::SeqCst);
        // Nudge the blocked accept so the loop observes `stop`.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = accept.join();
        let mut polls = 0u32;
        while self.active() > 0 && polls < DRAIN_POLLS_MAX {
            std::thread::sleep(DRAIN_POLL);
            polls += 1;
        }
        let leaked = self.active();
        if leaked == 0 {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        } else {
            self.workers.clear();
        }
        leaked
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pool worker: serve queued connections until the sender drops.
fn worker_loop<H>(
    rx: &Mutex<Receiver<TcpStream>>,
    state: &State,
    config: &ServerConfig,
    handler: &H,
) where
    H: Fn(TcpStream, &AtomicBool) -> io::Result<()>,
{
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
        // Deadlines first: a stalled client is dropped when a read
        // exceeds `read_timeout`, freeing the worker. A socket that
        // cannot take them is already dead.
        let deadlines = stream
            .set_read_timeout(Some(config.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(config.write_timeout)));
        if deadlines.is_ok() {
            // Per-connection I/O errors are expected churn; the worker
            // outlives them.
            let _ = handler(stream, &state.stop);
        }
        state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shed one connection on the accept thread: the busy reply, then a
/// gentle close, all inside `budget` counted from the start of the
/// rejection, so a peer that trickles bytes cannot hold the accept loop
/// past it.
fn shed<B>(mut stream: TcpStream, budget: Duration, busy: &B)
where
    B: Fn(&mut TcpStream) -> io::Result<()>,
{
    let clock = SystemClock::new();
    if stream.set_write_timeout(Some(budget)).is_ok() && busy(&mut stream).is_ok() {
        close_gently(&mut stream, budget.saturating_sub(clock.now()));
    }
}

/// Half-close `stream`, then read and discard the peer's pending bytes
/// until EOF, an error, 1 MiB, or `budget` has passed, so the caller
/// can drop it after a final reply. Closing with unread bytes in the
/// receive buffer makes the kernel answer with RST, which can destroy
/// the last reply in flight; past the caps the RST is accepted as the
/// lesser evil.
pub fn close_gently(stream: &mut TcpStream, budget: Duration) {
    let _ = stream.shutdown(Shutdown::Write);
    let clock = SystemClock::new();
    let mut sink = [0u8; 4096];
    let mut seen = 0usize;
    while seen < DRAIN_CAP {
        let left = budget.saturating_sub(clock.now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => seen += n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    /// One worker behind a rendezvous queue whose handler greets, then
    /// holds its connection until the peer closes (or 30 s); busy
    /// replies `busy`.
    fn one_worker() -> Server {
        let config = ServerConfig {
            workers: 1,
            queue_depth: 0,
            ..ServerConfig::default()
        };
        Server::spawn(
            &config,
            |mut stream, _stop| {
                stream.write_all(b"hello\n")?;
                close_gently(&mut stream, Duration::from_secs(30));
                Ok(())
            },
            |stream| stream.write_all(b"busy\n"),
        )
        .expect("bind")
    }

    /// The first line the server sends, or what arrived of it within 5 s.
    fn first_line(stream: TcpStream) -> String {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut line = String::new();
        let _ = BufReader::new(stream).read_line(&mut line);
        line
    }

    /// Connect until the worker greets: right after spawn the worker may
    /// not wait in `recv` yet, and a rendezvous queue sheds until it does.
    fn hold_worker(addr: SocketAddr) -> TcpStream {
        for _ in 0..100 {
            let stream = TcpStream::connect(addr).unwrap();
            if first_line(stream.try_clone().unwrap()) == "hello\n" {
                return stream;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("the worker never took a connection");
    }

    #[test]
    fn trickling_shed_client_cannot_hold_the_accept_loop() {
        let mut srv = one_worker();
        let held = hold_worker(srv.addr());

        // Shed a client that keeps sending a byte every 50 ms: without a
        // budget on the whole rejection, the drain reads it forever.
        let trickler = TcpStream::connect(srv.addr()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let mut trickler = trickler.try_clone().unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) && trickler.write_all(b".").is_ok() {
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        };
        assert_eq!(first_line(trickler), "busy\n");

        let started = Instant::now();
        let next = TcpStream::connect(srv.addr()).unwrap();
        let reply = first_line(next);
        let waited = started.elapsed();
        // Stop trickling before asserting, so a failure cannot leave the
        // accept thread draining forever.
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert_eq!(reply, "busy\n");
        assert!(
            waited < DRAIN_BUDGET + Duration::from_secs(1),
            "second shed waited {waited:?}"
        );
        drop(held);
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn shutdown_reports_a_silent_connection_after_the_bounded_drain() {
        let mut srv = one_worker();
        let held = hold_worker(srv.addr());
        let started = Instant::now();
        assert_eq!(srv.shutdown(), 1);
        let waited = started.elapsed();
        assert!(waited >= DRAIN_POLL * DRAIN_POLLS_MAX, "{waited:?}");
        assert!(waited < Duration::from_secs(3), "{waited:?}");
        assert_eq!(srv.shutdown(), 0, "shutdown is idempotent");
        drop(held);
    }
}
