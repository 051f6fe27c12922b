//! routergeo-faultnet — deterministic fault injection for socket paths.
//!
//! Resilience claims need a hostile network to test against. This crate
//! provides the two pieces the workspace's fault-matrix tests are built
//! on, plus the bounded server those tests run against:
//!
//! - [`proxy::ChaosProxy`], a loopback TCP proxy executing a scripted
//!   [`proxy::FaultPlan`] — connection refusal, accept-then-silence,
//!   mid-stream truncation at byte N, per-chunk latency, seeded byte
//!   corruption, early FIN. Fault assignment is by accepted-connection
//!   index, so a fixed plan yields the same failure schedule every run.
//! - [`clock::Clock`], an injectable time source. Retry/backoff code
//!   sleeps through it; [`clock::TestClock`] makes those sleeps virtual
//!   and records the exact schedule, keeping the fault matrix free of
//!   wall-clock sleeps (and therefore deterministic in CI).
//! - [`server::Server`], the one bounded TCP connection server: accept
//!   thread, fixed worker pool behind a bounded queue, explicit
//!   time-budgeted load shedding, per-socket deadlines and a bounded
//!   shutdown. The bulk-whois server and the lookup daemon each supply
//!   only a connection handler and a busy reply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod proxy;
pub mod server;

pub use clock::{Clock, SystemClock, TestClock};
pub use proxy::{ChaosProxy, ConnRecord, Fault, FaultPlan, ProxyStats};
pub use server::{Server, ServerConfig};
