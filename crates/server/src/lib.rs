//! **funseeker-server** — the analysis daemon: analysis-as-a-service
//! over the batch engine.
//!
//! [`Server`] binds a unix or TCP socket and serves the version-1
//! framed protocol defined in [`funseeker_client::proto`] (normative
//! spec: `DESIGN.md` §5). Each connection gets a handler thread; each
//! `ANALYZE` request flows through the same layers the batch scheduler
//! uses, in order:
//!
//! 1. **Probe** — [`funseeker_batch::probe`] checks the in-memory
//!    [`funseeker_batch::ResultCache`] and optional
//!    [`funseeker_batch::DiskCache`]; a hit replies without parsing.
//! 2. **Ballast** — large request bodies acquire
//!    [`funseeker_batch::Ballast`] *before* being read off the socket,
//!    so resident memory stays bounded under any submission flood;
//!    refusal is an explicit `BUSY` reply.
//! 3. **Single-flight** — concurrent identical submissions collapse to
//!    one computation ([`singleflight`]); followers share the leader's
//!    result.
//! 4. **Gate** — at most `analyze_slots` analyses run concurrently,
//!    with a bounded wait queue; overflow replies `BUSY` immediately.
//! 5. **Analyze** — [`funseeker_batch::analyze_hashed`] on the handler
//!    thread, reusing its thread-local scratch arena; results are
//!    bit-identical to a local [`funseeker::FunSeeker`] run and land in
//!    the caches on the way out.
//!
//! The accept thread blocks in `accept`, so a new connection costs no
//! polling delay; each request frame must arrive within a deadline
//! counted from its first byte (see [`ServerConfig::poll_interval`]) or
//! its connection is closed. Live counters are served over the wire ([`stats`]).
//! Shutdown (the `SHUTDOWN` request or [`Server::shutdown`]) wakes the
//! blocked accept with a connection to the daemon's own address, and
//! the drain waits on a condition variable until in-flight work has
//! completed and the last handler has exited.
//!
//! ```
//! use funseeker_client::Client;
//! use funseeker_server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
//! let mut client = Client::connect(&server.addr().to_string()).unwrap();
//! let image = std::fs::read("/proc/self/exe").unwrap();
//! let reply = client.analyze(&image).unwrap();
//! assert!(!reply.analysis.functions.is_empty());
//! server.join();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod server;
pub mod singleflight;
pub mod stats;

pub use server::{Server, ServerConfig};
