//! The daemon: socket handling, admission, and request dispatch.
//!
//! The accept thread blocks in `accept` and hands each connection to
//! its own OS thread; shutdown wakes it with one connection to its own
//! bound address. Handlers read frames with a short receive timeout
//! (so an idle connection observes shutdown within one tick, and a
//! frame that outlives its deadline is reaped), admit large request
//! bodies through the shared [`Ballast`] *before* allocating them,
//! dedup concurrent identical submissions through the [`FlightTable`],
//! and bound analysis concurrency with the [`Gate`]. Waiting for
//! shutdown and draining are condition-variable waits, never sleeps.
//! Every refusal is an explicit wire reply (`BUSY` or a typed `ERROR`)
//! — the daemon never queues without bound and never drops a request
//! silently.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use funseeker::{Analysis, Config, Diagnostics};
use funseeker_batch::admission::{Ballast, Gate};
use funseeker_batch::{cache, cache_key, hash_bytes, DiskCache, ResultCache};
use funseeker_client::proto::{self, ErrorCode, ProtoError, Request, Source};
use funseeker_client::Addr;

use crate::singleflight::{FlightTable, Outcome, Role};
use crate::stats::{Counters, Gauges};

/// Frames at or under this payload size bypass ballast admission: they
/// are bodyless control requests or tiny submissions whose buffering
/// cost is noise next to the per-connection overhead.
const SMALL_FRAME: usize = 4096;

/// How many poll ticks a handler keeps reading a partially received
/// frame after shutdown begins before giving up on the sender.
const SHUTDOWN_GRACE_POLLS: u32 = 50;

/// How long a single-flight follower waits for its leader before
/// replying with an internal error instead of hanging.
const FOLLOWER_TIMEOUT: Duration = Duration::from_secs(300);

/// The base of every request frame's deadline, in poll ticks
/// ([`ServerConfig::poll_interval`]), counted from the frame's first
/// byte: 30 s at the default 200 ms tick.
const FRAME_DEADLINE_POLLS: u32 = 150;

/// The slowest steady upload, in bytes per second, that a frame's
/// deadline always allows: once the length prefix is read, the deadline
/// grows by the declared length at this rate. A sender keeping up
/// 1 MiB/s (8 Mbit/s) is never reaped, however large its frame.
const MIN_FRAME_RATE: f64 = (1 << 20) as f64;

/// How long [`Server::join`] waits for the accept thread to exit after
/// the shutdown wake. The wake only fails when the listening address
/// is gone (say, the socket file was unlinked); past this bound the
/// blocked accept thread is detached rather than waited on forever.
const ACCEPT_EXIT_WAIT: Duration = Duration::from_secs(1);

/// Daemon configuration. Start from [`ServerConfig::unix`] or
/// [`ServerConfig::tcp`] and override fields as needed.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen (`unix:<path>` or `tcp:<host>:<port>`; TCP port
    /// 0 binds an ephemeral port, reported by [`Server::addr`]).
    pub listen: Addr,
    /// Directory for the persistent result cache; `None` disables the
    /// disk layer (the in-memory cache still serves the process).
    pub disk_cache: Option<PathBuf>,
    /// Concurrent analyses (the [`Gate`]'s slots). At least 1. Defaults
    /// to the worker-pool width (so `FUNSEEKER_CORES`/`--cores` scale
    /// the serving layer with the sweep layer), floored at 2.
    pub analyze_slots: usize,
    /// Followers allowed to park on one single-flight key before
    /// further identical submissions are refused `Busy`. Bounds the
    /// handler threads a thundering herd on one image can occupy.
    pub max_followers: usize,
    /// Analyses allowed to wait for a slot before further leaders are
    /// refused `Busy`.
    pub queue_cap: usize,
    /// Cap on estimated request bytes admitted at once (the
    /// [`Ballast`]'s capacity).
    pub max_inflight_bytes: usize,
    /// Requests allowed to block awaiting ballast before further large
    /// requests are refused `Busy` without reading their bodies.
    pub ballast_waiters: usize,
    /// Open connections before new accepts are refused `Busy`.
    pub max_connections: usize,
    /// Cap on one frame's payload length.
    pub max_frame: usize,
    /// Receive-timeout granularity: how quickly idle handlers observe
    /// shutdown, and how late past its deadline a stalled frame is
    /// reaped. A request frame must arrive within 150 ticks of its
    /// first byte, plus one second per MiB it declares; a sender still
    /// short of the last byte then has its connection closed, releasing
    /// any ballast the frame held (`frames_reaped_total` in `STATS`).
    /// Idle time between frames is not limited.
    pub poll_interval: Duration,
}

impl ServerConfig {
    fn with_listen(listen: Addr) -> ServerConfig {
        ServerConfig {
            listen,
            disk_cache: None,
            analyze_slots: funseeker_pool::global().workers().max(2),
            max_followers: 256,
            queue_cap: 256,
            max_inflight_bytes: 1 << 30,
            ballast_waiters: 512,
            max_connections: 4096,
            max_frame: proto::DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(200),
        }
    }

    /// A default configuration listening on a unix socket at `path`.
    pub fn unix(path: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig::with_listen(Addr::Unix(path.into()))
    }

    /// A default configuration listening on a TCP `host:port`.
    pub fn tcp(hostport: impl Into<String>) -> ServerConfig {
        ServerConfig::with_listen(Addr::Tcp(hostport.into()))
    }
}

/// What [`Server::wait`] and the drain block on, guarded by
/// `Inner::lifecycle` and signalled through `Inner::changed`.
#[derive(Default)]
struct Lifecycle {
    /// Connections with a live handler thread.
    open: u64,
    /// The accept thread has returned and dropped the listener.
    accept_exited: bool,
}

/// Shared daemon state: caches, admission gates, counters, shutdown.
struct Inner {
    config: ServerConfig,
    counters: Counters,
    mem: ResultCache,
    disk: Option<DiskCache>,
    ballast: Ballast,
    gate: Gate,
    flights: FlightTable,
    shutdown: AtomicBool,
    lifecycle: Mutex<Lifecycle>,
    /// Notified when shutdown begins, when the last handler exits, and
    /// when the accept thread exits.
    changed: Condvar,
    waker: Waker,
    started: Instant,
}

impl Inner {
    // The flag is set with `Release` and read with `Acquire`, so a
    // thread that sees it also sees what preceded `begin_shutdown`.
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn state(&self) -> MutexGuard<'_, Lifecycle> {
        self.lifecycle.lock().expect("no thread panics holding the lifecycle lock")
    }

    /// Flips the daemon into draining, once: wakes everything waiting
    /// on the lifecycle, then the accept thread blocked in `accept`.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Notify under the lock, so a waiter between its check of the
        // flag and its wait cannot miss the signal.
        self.signal(|_| {});
        self.waker.wake();
    }

    /// Updates the lifecycle and signals its waiters.
    fn signal(&self, update: impl FnOnce(&mut Lifecycle)) {
        let mut state = self.state();
        update(&mut state);
        self.changed.notify_all();
    }

    /// Retires one connection's handler; the last one out signals the
    /// drain.
    fn connection_closed(&self) {
        let mut state = self.state();
        state.open -= 1;
        if state.open == 0 {
            self.changed.notify_all();
        }
    }

    fn gauges(&self) -> Gauges {
        Gauges {
            uptime_us: self.started.elapsed().as_micros() as u64,
            cache_hits: self.mem.hits(),
            cache_misses: self.mem.misses(),
            cache_entries: self.mem.len() as u64,
            connections_open: self.state().open,
            queue_depth: self.gate.queued() as u64,
            running: self.gate.running() as u64,
            analyze_slots: self.gate.slots() as u64,
            inflight_bytes: self.ballast.inflight() as u64,
            peak_inflight_bytes: self.ballast.peak() as u64,
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }
}

/// Where shutdown connects to wake the accept thread out of its
/// blocking `accept`.
enum Waker {
    /// The socket path, and the identity of the socket file bound there.
    Unix(PathBuf, Option<(u64, u64)>),
    Tcp(SocketAddr),
}

impl Waker {
    /// Connects once and closes at once. The accept thread sees the
    /// shutdown flag on whatever it accepts next and exits. A failed
    /// connect is ignored: [`Server::join`] bounds its wait for the
    /// accept thread instead. A unix path that no longer holds this
    /// daemon's socket is not connected to at all, since another
    /// process's listener there might never accept.
    fn wake(&self) {
        match self {
            Waker::Unix(..) => {
                if let Some(path) = self.own_socket_file() {
                    let _ = UnixStream::connect(path);
                }
            }
            Waker::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, ACCEPT_EXIT_WAIT);
            }
        }
    }

    /// The unix socket path, if the file there is still the one this
    /// daemon bound.
    fn own_socket_file(&self) -> Option<&Path> {
        match self {
            Waker::Unix(path, id) if id.is_some() && file_id(path) == *id => Some(path),
            _ => None,
        }
    }
}

/// Identifies a socket file, so shutdown unlinks only the file this
/// daemon bound and never one another process put at the same path.
fn file_id(path: &Path) -> Option<(u64, u64)> {
    std::fs::metadata(path).ok().map(|m| (m.dev(), m.ino()))
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A running daemon. Dropping (or [`Server::join`]ing) it initiates
/// shutdown and drains in-flight work.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<std::thread::JoinHandle<()>>,
    addr: Addr,
}

impl Server {
    /// Binds the configured socket and starts accepting.
    ///
    /// A stale unix socket file left by a dead daemon is removed and
    /// rebound; a *live* one (something answers a connect) is an
    /// `AddrInUse` error.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let (listener, addr, waker) = match &config.listen {
            Addr::Unix(path) => {
                let listener = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                        if UnixStream::connect(path).is_ok() {
                            return Err(e);
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(e),
                };
                let waker = Waker::Unix(path.clone(), file_id(path));
                (Listener::Unix(listener), Addr::Unix(path.clone()), waker)
            }
            Addr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let actual = listener.local_addr()?;
                (Listener::Tcp(listener), Addr::Tcp(actual.to_string()), Waker::Tcp(actual))
            }
        };

        let inner = Arc::new(Inner {
            counters: Counters::new(),
            mem: ResultCache::new(),
            disk: config.disk_cache.as_ref().map(DiskCache::new),
            ballast: Ballast::new(config.max_inflight_bytes),
            gate: Gate::new(config.analyze_slots, config.queue_cap),
            flights: FlightTable::new(),
            shutdown: AtomicBool::new(false),
            lifecycle: Mutex::new(Lifecycle::default()),
            changed: Condvar::new(),
            waker,
            started: Instant::now(),
            config,
        });

        let accept_inner = inner.clone();
        let accept = std::thread::Builder::new().name("fs-accept".into()).spawn(move || {
            accept_loop(&accept_inner, listener);
            accept_inner.signal(|s| s.accept_exited = true);
        })?;
        Ok(Server { inner, accept: Some(accept), addr })
    }

    /// The bound address (with the actual port when TCP port 0 was
    /// requested). Hand its `to_string()` to [`funseeker_client::Client::connect`].
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Initiates shutdown: no new work is admitted, and handlers drain.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Whether shutdown has been initiated (by [`Server::shutdown`] or
    /// a client's `SHUTDOWN` request).
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down()
    }

    /// Initiates shutdown and blocks until in-flight work has drained
    /// and every handler has exited.
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Blocks until a client's `SHUTDOWN` request initiates shutdown,
    /// then drains. This is what `funseeker serve` sits in.
    pub fn wait(self) {
        let state = self.inner.state();
        let wait = self.inner.changed.wait_while(state, |_| !self.inner.shutting_down());
        drop(wait.expect("no thread panics holding the lifecycle lock"));
        self.join();
    }

    fn join_inner(&mut self) {
        self.inner.begin_shutdown();
        if let Some(handle) = self.accept.take() {
            let state = self.inner.state();
            let (state, _) = self
                .inner
                .changed
                .wait_timeout_while(state, ACCEPT_EXIT_WAIT, |s| !s.accept_exited)
                .expect("no thread panics holding the lifecycle lock");
            let exited = state.accept_exited;
            drop(state);
            // An accept thread the wake never reached stays blocked on a
            // listener nobody can connect to; dropping its handle
            // detaches it.
            if exited {
                let _ = handle.join();
            }
        }
        // Handlers observe shutdown within one poll tick; in-flight
        // analyses run to completion first.
        let state = self.inner.state();
        let wait = self.inner.changed.wait_while(state, |s| s.open > 0);
        drop(wait.expect("no thread panics holding the lifecycle lock"));
        if let Some(path) = self.inner.waker.own_socket_file() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.join_inner();
        }
    }
}

/// Accepts until shutdown. The listener blocks; shutdown wakes it with
/// a connection of its own, and whatever is accepted once the flag is
/// up — the wake included — is closed uncounted, without a handler.
fn accept_loop(inner: &Arc<Inner>, listener: Listener) {
    while !inner.shutting_down() {
        match listener.accept() {
            Ok(_) if inner.shutting_down() => return,
            Ok(mut conn) => {
                let admitted = {
                    let mut state = inner.state();
                    let admitted = state.open < inner.config.max_connections as u64;
                    state.open += u64::from(admitted);
                    admitted
                };
                if !admitted {
                    // Connection-level backpressure: refuse before
                    // spawning, so a connect flood cannot exhaust
                    // threads.
                    Counters::bump(&inner.counters.busy_total);
                    let _ = proto::write_busy(
                        &mut conn,
                        inner.gate.queued() as u32,
                        inner.ballast.inflight() as u64,
                    );
                    continue;
                }
                Counters::bump(&inner.counters.connections_total);
                let handler_inner = inner.clone();
                let spawned = std::thread::Builder::new()
                    .name("fs-serve".into())
                    .stack_size(1 << 20)
                    .spawn(move || {
                        handle_connection(&handler_inner, conn);
                        handler_inner.connection_closed();
                    });
                if spawned.is_err() {
                    inner.connection_closed();
                }
            }
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back
                // off and keep serving existing connections.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Releases ballast when the request that acquired it retires.
struct BallastHold<'a> {
    ballast: &'a Ballast,
    amount: usize,
}

impl Drop for BallastHold<'_> {
    fn drop(&mut self) {
        self.ballast.release(self.amount);
    }
}

/// The outcome of trying to read one request frame off a connection.
enum Step<'a> {
    /// A complete frame, with the ballast held for its body (large
    /// frames only).
    Frame(Vec<u8>, Option<BallastHold<'a>>),
    /// Ballast admission refused the frame; its body was read and
    /// discarded, and the connection stays usable.
    AdmissionBusy,
    /// Clean end-of-stream between frames.
    Eof,
    /// Shutdown observed while idle between frames.
    Drain,
    /// The frame missed its deadline; any ballast it held is released.
    Reaped,
    /// A framing defect.
    Fail(ProtoError),
}

fn would_block(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Fills `buf` completely, polling across receive timeouts, unless the
/// frame's `deadline` passes first: the receive timeout bounds how late
/// a silent sender is noticed, and a check per read catches one that
/// drips bytes faster than the timeout. Once shutdown begins, at most
/// [`SHUTDOWN_GRACE_POLLS`] further timeouts are tolerated before the
/// sender is abandoned. `Ok(false)` reports end-of-stream; an `Err` is
/// the step ending the frame (`Reaped` or `Fail`).
fn read_full(
    inner: &Inner,
    conn: &mut Conn,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<bool, Step<'static>> {
    let mut filled = 0;
    let mut grace = SHUTDOWN_GRACE_POLLS;
    while filled < buf.len() {
        if Instant::now() >= deadline {
            return Err(Step::Reaped);
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if would_block(&e) => {
                if inner.shutting_down() {
                    grace -= 1;
                    if grace == 0 {
                        return Err(Step::Fail(ProtoError::Truncated));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Step::Fail(ProtoError::Io(e))),
        }
    }
    Ok(true)
}

/// Reads and discards `len` body bytes after an admission refusal, so
/// the connection stays frame-aligned without ever buffering the body.
fn discard_body(
    inner: &Inner,
    conn: &mut Conn,
    len: usize,
    deadline: Instant,
) -> Result<(), Step<'static>> {
    let mut sink = [0u8; 8192];
    let mut remaining = len;
    while remaining > 0 {
        let chunk = remaining.min(sink.len());
        if !read_full(inner, conn, &mut sink[..chunk], deadline)? {
            return Err(Step::Fail(ProtoError::Truncated));
        }
        remaining -= chunk;
    }
    Ok(())
}

fn read_step<'a>(inner: &'a Inner, conn: &mut Conn) -> Step<'a> {
    // Length prefix, one byte first so idle shutdown is distinguishable
    // from a frame in progress.
    let mut prefix = [0u8; 4];
    loop {
        if inner.shutting_down() {
            return Step::Drain;
        }
        match conn.read(&mut prefix[..1]) {
            Ok(0) => return Step::Eof,
            Ok(_) => break,
            Err(e) if would_block(&e) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Step::Fail(ProtoError::Io(e)),
        }
    }
    let base = Instant::now() + inner.config.poll_interval * FRAME_DEADLINE_POLLS;
    match read_full(inner, conn, &mut prefix[1..], base) {
        Ok(true) => {}
        Ok(false) => return Step::Fail(ProtoError::Truncated),
        Err(step) => return step,
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > inner.config.max_frame {
        return Step::Fail(ProtoError::TooLarge { len: len as u64, max: inner.config.max_frame });
    }
    if len < 2 {
        return Step::Fail(ProtoError::Malformed("payload shorter than version + type"));
    }
    let deadline = base + Duration::from_secs_f64(len as f64 / MIN_FRAME_RATE);

    // Ballast admission for large bodies happens *before* the body is
    // read or allocated: a refused request costs the daemon one 8 KiB
    // discard buffer, never `len` bytes of resident memory.
    let hold = if len > SMALL_FRAME {
        let amount = funseeker_batch::inflight_estimate(len);
        if !inner.ballast.acquire_bounded(amount, inner.config.ballast_waiters) {
            return match discard_body(inner, conn, len, deadline) {
                Ok(()) => Step::AdmissionBusy,
                Err(step) => step,
            };
        }
        Some(BallastHold { ballast: &inner.ballast, amount })
    } else {
        None
    };

    let mut payload = vec![0u8; len];
    match read_full(inner, conn, &mut payload, deadline) {
        Ok(true) => {
            Counters::add(&inner.counters.bytes_in_total, 4 + len as u64);
            Step::Frame(payload, hold)
        }
        Ok(false) => Step::Fail(ProtoError::Truncated),
        Err(step) => step,
    }
}

/// Writes a reply, accounting bytes out. `false` means the peer is
/// gone and the connection should be torn down.
fn send(inner: &Inner, written: io::Result<usize>) -> bool {
    match written {
        Ok(n) => {
            Counters::add(&inner.counters.bytes_out_total, n as u64);
            true
        }
        Err(_) => false,
    }
}

fn send_error(inner: &Inner, conn: &mut Conn, code: ErrorCode, message: &str) -> bool {
    Counters::bump(&inner.counters.errors_total);
    send(inner, proto::write_error(conn, code, message))
}

fn send_busy(inner: &Inner, conn: &mut Conn) -> bool {
    Counters::bump(&inner.counters.busy_total);
    send(
        inner,
        proto::write_busy(conn, inner.gate.queued() as u32, inner.ballast.inflight() as u64),
    )
}

fn handle_connection(inner: &Arc<Inner>, mut conn: Conn) {
    if conn.set_read_timeout(Some(inner.config.poll_interval)).is_err() {
        return;
    }
    loop {
        match read_step(inner, &mut conn) {
            Step::Eof => return,
            Step::Drain => {
                let _ = send_error(inner, &mut conn, ErrorCode::ShuttingDown, "draining");
                return;
            }
            Step::AdmissionBusy => {
                if !send_busy(inner, &mut conn) {
                    return;
                }
            }
            Step::Reaped => {
                // The sender is too slow to answer: close without a
                // reply, as for a truncated frame.
                Counters::bump(&inner.counters.frames_reaped_total);
                return;
            }
            Step::Fail(err) => {
                Counters::bump(&inner.counters.proto_errors_total);
                match err {
                    ProtoError::TooLarge { len, max } => {
                        let msg = format!("frame length {len} exceeds cap {max}");
                        let _ = send_error(inner, &mut conn, ErrorCode::TooLarge, &msg);
                    }
                    ProtoError::Malformed(what) => {
                        let _ = send_error(inner, &mut conn, ErrorCode::BadFrame, what);
                    }
                    // Truncated / transport errors: the peer is gone or
                    // incoherent; nothing useful can be written.
                    _ => {}
                }
                return;
            }
            Step::Frame(payload, hold) => {
                if !dispatch(inner, &mut conn, &payload, hold) {
                    return;
                }
            }
        }
    }
}

/// Decodes and serves one request frame. `false` closes the connection.
fn dispatch(inner: &Inner, conn: &mut Conn, payload: &[u8], hold: Option<BallastHold<'_>>) -> bool {
    let t0 = Instant::now();
    let request = match proto::decode_request(payload) {
        Ok(r) => r,
        Err(ProtoError::BadVersion(v)) => {
            Counters::bump(&inner.counters.proto_errors_total);
            let _ = send_error(inner, conn, ErrorCode::BadVersion, &format!("version {v}"));
            return false;
        }
        Err(ProtoError::UnknownType(t)) => {
            Counters::bump(&inner.counters.proto_errors_total);
            return send_error(inner, conn, ErrorCode::BadRequest, &format!("type {t:#04x}"));
        }
        Err(e) => {
            Counters::bump(&inner.counters.proto_errors_total);
            return send_error(inner, conn, ErrorCode::BadRequest, &e.to_string());
        }
    };
    Counters::bump(&inner.counters.requests_total);
    match request {
        Request::Ping => send(inner, proto::write_simple_response(conn, proto::T_PONG)),
        Request::Stats => {
            let text = inner.counters.render(&inner.gauges());
            send(inner, proto::write_stats(conn, &text))
        }
        Request::Shutdown => {
            inner.begin_shutdown();
            let _ = send(inner, proto::write_simple_response(conn, proto::T_BYE));
            false
        }
        Request::Analyze { config, flags, image } => {
            handle_analyze(inner, conn, config, flags, image, hold, t0)
        }
    }
}

/// The encoded v3 reply record for `key`. Duplicate requests — the
/// single-flight-dedup hot case — find the bytes already attached to
/// the result-cache entry and memcpy them to the socket; the first
/// reply pays for one encode and caches it. Diagnostics are stripped
/// if an exotic component makes the full record non-encodable (the
/// function set and every count survive).
fn reply_record(
    inner: &Inner,
    image_hash: u64,
    config_fp: u64,
    key: u64,
    analysis: &Analysis,
) -> Arc<Vec<u8>> {
    if let Some(bytes) = inner.mem.wire(key) {
        Counters::bump(&inner.counters.reply_bytes_hits);
        return bytes;
    }
    let record = cache::encode(image_hash, config_fp, analysis).unwrap_or_else(|| {
        let mut stripped = analysis.clone();
        stripped.diagnostics = Diagnostics::new();
        cache::encode(image_hash, config_fp, &stripped)
            .expect("analysis without diagnostics encodes")
    });
    // Racing first replies converge on one allocation; a key evicted
    // from the cache between probe and here just serves unattached.
    inner.mem.set_wire(key, Arc::new(record))
}

#[allow(clippy::too_many_arguments)]
fn send_result(
    inner: &Inner,
    conn: &mut Conn,
    image_hash: u64,
    config_fp: u64,
    key: u64,
    t0: Instant,
    source: Source,
    analysis: &Analysis,
) -> bool {
    let record = reply_record(inner, image_hash, config_fp, key, analysis);
    let elapsed_us = t0.elapsed().as_micros().min(u128::from(u32::MAX)) as u32;
    Counters::bump(&inner.counters.results_total);
    send(inner, proto::write_result(conn, image_hash, key, elapsed_us, source, &record))
}

fn handle_analyze(
    inner: &Inner,
    conn: &mut Conn,
    config_id: u8,
    flags: u8,
    image: &[u8],
    hold: Option<BallastHold<'_>>,
    t0: Instant,
) -> bool {
    Counters::bump(&inner.counters.analyze_total);
    if inner.shutting_down() {
        return send_error(inner, conn, ErrorCode::ShuttingDown, "no new work admitted");
    }
    let config: Config =
        proto::wire_config(config_id, flags).expect("decode_request validated config and flags");
    let image_hash = hash_bytes(image);
    let config_fp = cache::config_fingerprint(&config);
    let key = cache_key(image_hash, &config);

    // Fully cached submissions skip single-flight and the gate.
    if let Some((analysis, layer)) =
        funseeker_batch::probe(&inner.mem, inner.disk.as_ref(), image_hash, &config)
    {
        let source = match layer {
            funseeker_batch::CacheSource::Memory => Source::Memory,
            funseeker_batch::CacheSource::Disk => {
                Counters::bump(&inner.counters.disk_hits);
                Source::Disk
            }
        };
        drop(hold);
        return send_result(inner, conn, image_hash, config_fp, key, t0, source, &analysis);
    }

    match inner.flights.join(key, inner.config.max_followers) {
        Role::Saturated { .. } => {
            // The flight's condvar already carries a full complement of
            // parked handler threads; refusing here keeps the herd's
            // tail bounded, and the client's retry will normally land in
            // the result cache after the leader publishes.
            drop(hold);
            send_busy(inner, conn)
        }
        Role::Follower(flight) => {
            // The leader holds the only copy that matters: release this
            // request's bytes and admission before the (possibly long)
            // wait.
            drop(hold);
            match flight.wait(FOLLOWER_TIMEOUT) {
                Some(Outcome::Done(analysis)) => {
                    Counters::bump(&inner.counters.singleflight_shared);
                    send_result(
                        inner,
                        conn,
                        image_hash,
                        config_fp,
                        key,
                        t0,
                        Source::Shared,
                        &analysis,
                    )
                }
                Some(Outcome::Failed(code, message)) => send_error(inner, conn, code, &message),
                Some(Outcome::Busy { .. }) => send_busy(inner, conn),
                None => {
                    send_error(inner, conn, ErrorCode::Internal, "single-flight wait timed out")
                }
            }
        }
        Role::Leader => {
            let outcome = match inner.gate.enter() {
                None => Outcome::Busy {
                    queue_depth: inner.gate.queued() as u32,
                    inflight_bytes: inner.ballast.inflight() as u64,
                },
                Some(pass) => {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        funseeker_batch::analyze_hashed(
                            image,
                            image_hash,
                            std::slice::from_ref(&config),
                            Some(&inner.mem),
                            inner.disk.as_ref(),
                        )
                    }));
                    drop(pass);
                    match run {
                        Ok(Ok(result)) => {
                            Counters::add(&inner.counters.parse_ns_total, result.parse_ns);
                            Counters::add(&inner.counters.sweep_ns_total, result.sweep_ns);
                            Counters::add(&inner.counters.analyze_ns_total, result.analyze_ns);
                            Counters::add(&inner.counters.disk_hits, result.disk_hits as u64);
                            if result.cache_hits == 0 {
                                Counters::bump(&inner.counters.images_analyzed);
                            }
                            let analysis =
                                result.per_config.into_iter().next().expect("one config in");
                            Outcome::Done(analysis)
                        }
                        Ok(Err(e)) => Outcome::Failed(ErrorCode::ParseFailed, e.to_string()),
                        Err(_) => Outcome::Failed(ErrorCode::Internal, "analysis panicked".into()),
                    }
                }
            };
            // Publish before replying: followers must never outlive the
            // leader's connection.
            inner.flights.publish(key, outcome.clone());
            drop(hold);
            match outcome {
                Outcome::Done(analysis) => send_result(
                    inner,
                    conn,
                    image_hash,
                    config_fp,
                    key,
                    t0,
                    Source::Computed,
                    &analysis,
                ),
                Outcome::Failed(code, message) => send_error(inner, conn, code, &message),
                Outcome::Busy { .. } => send_busy(inner, conn),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker_client::Client;

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fs-server-{tag}-{}.sock", std::process::id()))
    }

    #[test]
    fn starts_serves_and_drains_on_unix_socket() {
        let path = sock_path("basic");
        let server = Server::start(ServerConfig::unix(&path)).unwrap();
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        client.ping().unwrap();
        let image = std::fs::read("/proc/self/exe").unwrap();
        let reply = client.analyze(&image).unwrap();
        let local = funseeker::FunSeeker::new().identify(&image).unwrap();
        assert_eq!(reply.analysis, local);
        assert_eq!(reply.source, Source::Computed);
        let again = client.analyze(&image).unwrap();
        assert_eq!(again.source, Source::Memory);
        assert_eq!(again.analysis, local);
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("images_analyzed"), Some(1));
        // The duplicate was served from the pre-encoded reply bytes
        // attached by the first reply, not re-serialized.
        assert_eq!(stats.get("reply_bytes_hits"), Some(1));
        server.join();
        assert!(!path.exists(), "socket unlinked on shutdown");
    }

    #[test]
    fn tcp_ephemeral_port_is_reported_and_stale_unix_socket_is_reclaimed() {
        let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
        let addr = server.addr().to_string();
        assert!(addr.starts_with("tcp:127.0.0.1:"), "{addr}");
        let mut client = Client::connect(&addr).unwrap();
        client.ping().unwrap();
        drop(client);
        server.join();

        // A dead daemon's socket file must not block a restart.
        let path = sock_path("stale");
        let first = Server::start(ServerConfig::unix(&path)).unwrap();
        drop(first); // unlinks — recreate the stale file by hand
        std::fs::write(&path, b"").unwrap();
        let second = Server::start(ServerConfig::unix(&path)).unwrap();
        let mut client = Client::connect(&second.addr().to_string()).unwrap();
        client.ping().unwrap();
        drop(client);
        second.join();
    }

    /// Shuts `server` down and checks the wake ended the accept thread
    /// promptly without being counted as a connection or given a
    /// handler.
    fn assert_wake_is_uncounted(server: Server) {
        server.shutdown();
        let state = server.inner.state();
        let (state, _) = server
            .inner
            .changed
            .wait_timeout_while(state, Duration::from_secs(5), |s| !s.accept_exited)
            .unwrap();
        assert!(state.accept_exited, "the wake reached the blocked accept");
        assert_eq!(state.open, 0);
        drop(state);
        assert_eq!(server.inner.counters.connections_total.load(Ordering::Relaxed), 0);
        server.join();
    }

    #[test]
    fn shutdown_wake_is_closed_uncounted() {
        // A wildcard TCP bind is woken by a connect to its own address.
        assert_wake_is_uncounted(Server::start(ServerConfig::tcp("0.0.0.0:0")).unwrap());
        assert_wake_is_uncounted(Server::start(ServerConfig::unix(sock_path("wake"))).unwrap());
    }

    #[test]
    fn shutdown_leaves_a_replaced_socket_path_alone() {
        let path = sock_path("replaced");
        let server = Server::start(ServerConfig::unix(&path)).unwrap();
        std::fs::remove_file(&path).unwrap();
        // Another listener takes the path; one that never accepts
        // could stall a wake that connected to it.
        let foreign = UnixListener::bind(&path).unwrap();
        server.join();
        foreign.set_nonblocking(true).unwrap();
        let pending = foreign.accept().map(drop);
        assert!(matches!(&pending, Err(e) if e.kind() == io::ErrorKind::WouldBlock), "{pending:?}");
        assert!(path.exists(), "the foreign socket file stays");
        std::fs::remove_file(&path).unwrap();
    }
}
