//! TCP bulk whois server.
//!
//! Protocol (the netcat-style interface Team Cymru documents):
//!
//! ```text
//! client: begin
//! client: verbose          (optional)
//! client: 6.1.2.3
//! client: 31.0.0.9
//! client: end
//! server: Bulk mode; whois.routergeo.test [synthetic]
//! server: 1007 | 6.1.2.3 | 6.1.2.0/24 | US | arin
//! server: 1012 | 31.0.0.9 | 31.0.0.0/24 | DE | ripencc
//! ```
//!
//! Connections run on the shared bounded server
//! ([`routergeo_faultnet::server`]): a fixed worker pool behind a
//! bounded queue. When both are saturated the server answers
//! `Error: busy` and closes instead of queueing without limit, so load
//! shedding is explicit and clients can back off. Every connection
//! carries read/write deadlines — a client that sends `begin` and then
//! stalls is dropped when its read deadline fires, it cannot pin a
//! worker forever. [`WhoisServer::shutdown`] drains in-flight
//! connections (bounded wait) and reports how many leaked.

use crate::client::{read_line_bounded, LineRead, MAX_LINE};
use crate::MappingService;
use routergeo_faultnet::server::{close_gently, Server, DRAIN_BUDGET};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

pub use routergeo_faultnet::server::ServerConfig;

/// Maximum addresses accepted per bulk request (protocol hygiene: a
/// misbehaving client cannot hold a worker forever).
pub const MAX_BULK: usize = 100_000;

/// Handle to a running whois server. Dropping it shuts it down.
pub struct WhoisServer {
    server: Server,
}

impl WhoisServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and serve the given
    /// mapping with 16 workers behind a 32-deep queue.
    pub fn spawn(service: Arc<MappingService>) -> std::io::Result<WhoisServer> {
        let config = ServerConfig {
            workers: 16,
            queue_depth: 32,
            ..ServerConfig::default()
        };
        WhoisServer::spawn_with(service, config)
    }

    /// Bind to `127.0.0.1:0` and serve with explicit pool sizing and
    /// deadlines. The service runs until [`WhoisServer::shutdown`] or
    /// drop.
    pub fn spawn_with(
        service: Arc<MappingService>,
        config: ServerConfig,
    ) -> std::io::Result<WhoisServer> {
        let server = Server::spawn(
            &config,
            move |stream, _stop| handle_connection(stream, &service),
            |stream| stream.write_all(b"Error: busy\n"),
        )?;
        Ok(WhoisServer { server })
    }

    /// The bound address to connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop accepting and wait about 1 s at most for in-flight
    /// connections. Returns the number still active after that — 0 on
    /// a clean shutdown; their workers are left to finish on their own.
    pub fn shutdown(&mut self) -> usize {
        self.server.shutdown()
    }
}

fn handle_connection(stream: TcpStream, service: &MappingService) -> std::io::Result<()> {
    let peer = stream.try_clone()?;
    let mut reader = BufReader::new(peer);
    let mut writer = BufWriter::new(stream);

    // Every request line goes through the bounded reader: a client
    // streaming one endless line is shed at `MAX_LINE` bytes instead of
    // growing the line buffer until the process dies.
    let mut raw = Vec::new();

    // Expect `begin`.
    match read_line_bounded(&mut reader, &mut raw)? {
        LineRead::Eof | LineRead::Line => {}
        LineRead::TooLong => {
            writeln!(writer, "Error: line exceeds {MAX_LINE} bytes")?;
            writer.flush()?;
            close_gently(reader.get_mut(), DRAIN_BUDGET);
            return Ok(());
        }
    }
    if String::from_utf8_lossy(&raw).trim() != "begin" {
        writeln!(writer, "Error: expected 'begin'")?;
        return writer.flush();
    }

    // Flushed at once, so a client can see it has a worker before it
    // sends its addresses.
    writeln!(writer, "Bulk mode; whois.routergeo.test [synthetic]")?;
    writer.flush()?;

    let mut count = 0usize;
    loop {
        match read_line_bounded(&mut reader, &mut raw)? {
            LineRead::Eof => break, // client hung up
            LineRead::TooLong => {
                writeln!(writer, "Error: line exceeds {MAX_LINE} bytes")?;
                writer.flush()?;
                close_gently(reader.get_mut(), DRAIN_BUDGET);
                return Ok(());
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&raw);
        let trimmed = line.trim();
        if trimmed == "end" {
            break;
        }
        if trimmed.is_empty() || trimmed == "verbose" {
            continue; // verbose changes nothing in the synthetic service
        }
        count += 1;
        if count > MAX_BULK {
            writeln!(writer, "Error: bulk limit exceeded")?;
            break;
        }
        match trimmed.parse::<std::net::Ipv4Addr>() {
            Ok(ip) => writeln!(writer, "{}", service.format_row(ip))?,
            Err(_) => writeln!(writer, "Error: bad address {trimmed:?}")?,
        }
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{World, WorldConfig};
    use std::io::{BufRead, Read};
    use std::time::Duration;

    fn server() -> (World, WhoisServer) {
        let w = World::generate(WorldConfig::tiny(141));
        let svc = Arc::new(MappingService::build(&w));
        let srv = WhoisServer::spawn(svc).expect("bind");
        (w, srv)
    }

    fn talk(addr: SocketAddr, input: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(input.as_bytes()).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_bulk_queries() {
        let (w, mut srv) = server();
        let ip = w.interfaces[0].ip;
        let out = talk(srv.addr(), &format!("begin\nverbose\n{ip}\nend\n"));
        assert!(out.starts_with("Bulk mode;"), "{out}");
        assert!(out.contains(&ip.to_string()), "{out}");
        let info = w.block_info(ip).unwrap();
        assert!(out.contains(&info.rir.name().to_ascii_lowercase()), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn rejects_missing_begin() {
        let (_, mut srv) = server();
        let out = talk(srv.addr(), "1.2.3.4\nend\n");
        assert!(out.starts_with("Error: expected 'begin'"), "{out}");
        srv.shutdown();
    }

    #[test]
    fn reports_bad_addresses_without_dying() {
        let (w, mut srv) = server();
        let ip = w.interfaces[0].ip;
        let out = talk(srv.addr(), &format!("begin\nnot-an-ip\n{ip}\nend\n"));
        assert!(out.contains("Error: bad address"), "{out}");
        assert!(out.contains(&ip.to_string()), "{out}");
        srv.shutdown();
    }

    #[test]
    fn endless_line_is_shed_not_buffered() {
        // A client streaming one line forever must be cut off at the
        // line cap, not buffered into memory until the process dies.
        let (_, mut srv) = server();
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(b"begin\n").unwrap();
        let garbage = vec![b'a'; MAX_LINE * 4];
        s.write_all(&garbage).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("Bulk mode;"), "{out}");
        assert!(out.contains("Error: line exceeds"), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn handles_concurrent_clients() {
        let (w, mut srv) = server();
        let addr = srv.addr();
        let ips: Vec<_> = w.interfaces.iter().take(8).map(|i| i.ip).collect();
        let handles: Vec<_> = ips
            .iter()
            .map(|ip| {
                let ip = *ip;
                std::thread::spawn(move || talk(addr, &format!("begin\n{ip}\nend\n")))
            })
            .collect();
        for (h, ip) in handles.into_iter().zip(ips) {
            let out = h.join().unwrap();
            assert!(out.contains(&ip.to_string()), "{out}");
        }
        srv.shutdown();
    }

    #[test]
    fn sustains_thousands_of_sequential_connections() {
        // Regression test: worker threads must be reaped as connections
        // finish, not accumulated until shutdown (which exhausted memory
        // under benchmark load).
        let (w, mut srv) = server();
        let ip = w.interfaces[0].ip;
        let req = format!("begin\n{ip}\nend\n");
        for _ in 0..2_000 {
            let out = talk(srv.addr(), &req);
            assert!(out.contains(&ip.to_string()));
        }
        // All workers drain within shutdown's bounded wait once the last
        // connection closes.
        assert_eq!(srv.shutdown(), 0);
    }

    /// Send `request` until the answer is not `Error: busy`, at most 100
    /// times. With a rendezvous queue the server hands a connection off
    /// only to a worker already waiting in `recv`, which it may not be
    /// yet right after spawn or after finishing a connection.
    fn talk_until_served(addr: SocketAddr, request: &str) -> String {
        let mut out = String::new();
        for _ in 0..100 {
            out = talk(addr, request);
            if !out.starts_with("Error: busy") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        out
    }

    #[test]
    fn saturated_pool_sheds_load_with_busy() {
        let w = World::generate(WorldConfig::tiny(142));
        let svc = Arc::new(MappingService::build(&w));
        // One worker, rendezvous queue: a single held connection
        // saturates the server.
        let config = ServerConfig {
            workers: 1,
            queue_depth: 0,
            ..ServerConfig::default()
        };
        let mut srv = WhoisServer::spawn_with(svc, config).expect("bind");

        // Hold the only worker: send `begin` and stall mid-request. The
        // banner proves the worker has the connection.
        let mut held = None;
        for _ in 0..100 {
            let mut s = BufReader::new(TcpStream::connect(srv.addr()).unwrap());
            s.get_mut().write_all(b"begin\n").unwrap();
            let mut banner = String::new();
            s.read_line(&mut banner).unwrap();
            if banner.starts_with("Bulk mode;") {
                held = Some(s);
                break;
            }
            assert!(banner.starts_with("Error: busy"), "{banner}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut held = held.expect("the worker takes a connection");

        let ip = w.interfaces[0].ip;
        let out = talk(srv.addr(), &format!("begin\n{ip}\nend\n"));
        assert!(out.starts_with("Error: busy"), "{out}");

        // Release the worker; once it has closed the held connection the
        // next request is served normally.
        held.get_mut().write_all(b"end\n").unwrap();
        let mut rest = String::new();
        held.read_to_string(&mut rest).unwrap();
        let out = talk_until_served(srv.addr(), &format!("begin\n{ip}\nend\n"));
        assert!(out.contains(&ip.to_string()), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn stalled_client_is_dropped_at_the_read_deadline() {
        let w = World::generate(WorldConfig::tiny(143));
        let svc = Arc::new(MappingService::build(&w));
        let config = ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let mut srv = WhoisServer::spawn_with(svc, config).expect("bind");
        // Send `begin` and stall: the server must hang up on us.
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"begin\n").unwrap();
        let mut out = String::new();
        // Banner arrives, then the connection closes at the deadline
        // instead of holding the worker forever.
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("Bulk mode;"), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (_, mut srv) = server();
        assert_eq!(srv.shutdown(), 0);
        assert_eq!(srv.shutdown(), 0);
    }
}
