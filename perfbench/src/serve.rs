//! `serve_mixed` and `serve_submit`: a `funseeker serve` child process
//! on a unix socket, driven by one generator thread on one connection
//! at a time.
//!
//! Requests carry real-size hot images (tens of thousands of
//! instructions each): on tiny images the round trip is a few tens of
//! microseconds and wake-up noise decides the result. Nine in ten
//! requests repeat a hot image, which the daemon answers from its
//! reply cache after an untimed warm-up; one in ten is a content-unique
//! padded variant that forces a full analysis.
//!
//! - `serve_mixed` holds one persistent SDK connection and sends open
//!   loop at 100 req/s for the first 60% of the run, then 400 req/s.
//!   Latency is charged by the rule in [`crate::openloop`].
//! - `serve_submit` does what every `funseeker submit` does: connect,
//!   analyze one image, close, back to back (closed loop). It pays the
//!   daemon's accept path on every request.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use funseeker::{Analysis, Config, FunSeeker};
use funseeker_client::proto::{self, Response, Source};
use funseeker_client::{AnalyzeReply, Client, ClientError, ServerStats};
use funseeker_disasm::SweepStats;
use funseeker_elf::Image;

use crate::inputs::{self, Rng};
use crate::openloop::{charge, sleep_until, Schedule};
use crate::trace::{Span, Tracer};
use crate::{ms, stats, EndbrKept, Layers, Metric, Opts, Outcome, Workdir};

/// `serve_mixed`'s phases: name, request rate, share of the run.
const PHASES: [(&str, f64, f64); 2] = [("low", 100.0, 0.6), ("high", 400.0, 0.4)];

/// One request in this many is a content-unique miss.
const MISS_ONE_IN: u64 = 10;

/// The load comes from one thread holding at most one connection, so
/// it never needs more CPUs than the host has.
const GENERATOR_THREADS: usize = 1;

/// A running daemon, shut down and waited for when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(funseeker: &Path, sock: &Path) -> Result<Daemon, String> {
        let addr = format!("unix:{}", sock.display());
        let child = Command::new(funseeker)
            .args(["serve", "--listen", &addr])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {} serve: {e}", funseeker.display()))?;
        let mut daemon = Daemon { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&daemon.addr) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("funseeker serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("funseeker serve did not answer within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The daemon's counters, over a connection of their own that is
    /// closed again before any request is sent.
    fn stats(&self) -> Result<ServerStats, String> {
        self.connect()?.stats().map_err(|e| format!("stats: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A hot image and what the daemon must answer for it.
struct Hot {
    path: PathBuf,
    expected: Analysis,
    sweep: SweepStats,
}

struct Setup {
    // Field order is drop order: stop the daemon before removing its
    // directory.
    daemon: Daemon,
    dir: Workdir,
    paths: Vec<PathBuf>,
    digest: u64,
    bytes: usize,
}

fn setup(opts: &Opts) -> Result<Setup, String> {
    let dir = Workdir::new(opts.workload.name())?;
    let images = inputs::hot_images(opts.sizes.hot_images, opts.sizes.hot_programs, opts.seed);
    let mut paths = Vec::with_capacity(images.len());
    for (i, built) in images.iter().enumerate() {
        let path = dir.path().join(format!("hot{i:02}.elf"));
        crate::write_file(&path, &built.bytes)?;
        paths.push(path);
    }
    let daemon = Daemon::start(&opts.funseeker, &dir.path().join("d.sock"))?;
    // Warm-up: the first round computes every hot image, the second
    // fills the reply cache.
    let mut client = daemon.connect()?;
    for _ in 0..2 {
        for path in &paths {
            let image = Image::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
            client.analyze(&image).map_err(|e| format!("warm-up request: {e}"))?;
        }
    }
    Ok(Setup {
        digest: inputs::digest(images.iter().map(|b| &b.bytes[..])),
        bytes: images.iter().map(|b| b.bytes.len()).sum(),
        daemon,
        dir,
        paths,
    })
}

/// The independent answer for each hot image, plus the counters of
/// sweeping it in-process.
fn hot_expectations(paths: &[PathBuf]) -> Result<Vec<Hot>, String> {
    paths
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let prepared =
                funseeker::prepare(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            let expected = FunSeeker::with_config(Config::c4()).identify_prepared(&prepared);
            Ok(Hot { path: path.clone(), expected, sweep: *prepared.sweep_stats() })
        })
        .collect()
}

/// The request stream: which hot image each request carries, and
/// whether it is a content-unique miss. Exactly one request in each
/// run of [`MISS_ONE_IN`] is a miss, at a seeded place, so every run
/// has the same share of misses.
struct Requests {
    rng: Rng,
    hot: usize,
    sent: u64,
    miss_at: u64,
}

impl Requests {
    fn new(seed: u64, hot: usize) -> Requests {
        Requests { rng: Rng::new(seed, 0x5e7e), hot, sent: 0, miss_at: 0 }
    }

    fn next(&mut self) -> (usize, Option<u64>) {
        let slot = self.sent % MISS_ONE_IN;
        if slot == 0 {
            self.miss_at = self.rng.below(MISS_ONE_IN as usize) as u64;
        }
        self.sent += 1;
        // The request number makes every miss's content unique.
        let miss = (slot == self.miss_at).then_some(self.sent);
        (self.rng.below(self.hot), miss)
    }
}

/// Latencies and counts of one measured stretch.
#[derive(Default)]
struct Sample {
    latencies: Vec<f64>,
    lags: Vec<f64>,
    failed: u64,
    attempted: u64,
}

/// Checks one reply; `None` is a refusal.
fn check(
    reply: Result<AnalyzeReply, ClientError>,
    hot: &Hot,
) -> Result<Option<AnalyzeReply>, String> {
    match reply {
        Ok(reply) if reply.analysis == hot.expected => Ok(Some(reply)),
        Ok(_) => {
            Err(format!("daemon answer for {} differs from direct analysis", hot.path.display()))
        }
        Err(ClientError::Busy { .. }) => Ok(None),
        Err(e) => Err(format!("request failed: {e}")),
    }
}

/// Runs `serve_mixed` (`submit == false`) or `serve_submit`.
pub fn run(opts: &Opts, submit: bool) -> Result<Outcome, String> {
    // The independent reference analysis is part of set-up.
    let ((setup, hot), setup_s) = crate::repeated_setup(|| {
        let s = setup(opts)?;
        let hot = hot_expectations(&s.paths)?;
        Ok((s, hot))
    })?;
    let mut requests = Requests::new(opts.seed, hot.len());
    let mut notes = vec![
        Metric::new("hot_images", hot.len() as f64, "count"),
        Metric::new("hot_mib", setup.bytes as f64 / (1 << 20) as f64, "MiB"),
        Metric::new("input_digest", (setup.digest >> 11) as f64, "hash"),
    ];
    let tail = opts.workload.tail();
    if GENERATOR_THREADS > crate::sys::nproc() {
        return Err(format!("{GENERATOR_THREADS} generator threads exceed nproc"));
    }

    if !opts.trace {
        let before = setup.daemon.stats()?;
        let t = if submit {
            submit_loop(&setup, &hot, &mut requests, opts.seconds, None)?
        } else {
            mixed_loop(&setup, &hot, &mut requests, opts.seconds, None, &mut notes)?
        };
        let after = setup.daemon.stats()?;
        let delta = |k: &str| after.get(k).unwrap_or(0).saturating_sub(before.get(k).unwrap_or(0));
        notes.push(Metric::new("busy_replies", delta("busy_total") as f64, "count"));
        notes.push(Metric::new("images_analyzed", delta("images_analyzed") as f64, "count"));
        if !t.lags.is_empty() {
            let lag = stats::percentile(&t.lags, 0.99).unwrap_or(0.0);
            notes.push(Metric::new("loadgen.lag_p99_ms", lag, "ms"));
        }
        notes.extend(crate::sample_notes(&t.latencies, tail));
        return Ok(Outcome {
            attempted: t.attempted,
            failed: t.failed,
            metrics: crate::end_to_end(&setup_s, &t.latencies, tail)?,
            notes,
        });
    }

    // Traced run: the first half untraced through the SDK, the second
    // half through the same protocol calls the SDK makes, with a span
    // around each.
    let half = opts.seconds / 2.0;
    let mut ignored = Vec::new();
    let untraced = if submit {
        submit_loop(&setup, &hot, &mut requests, half, None)?
    } else {
        mixed_loop(&setup, &hot, &mut requests, half, None, &mut ignored)?
    };
    let tracer = Tracer::new();
    let mut trace = Traced { tracer: &tracer, spans: Vec::new(), replies: Vec::new(), unit: 0 };
    let before = setup.daemon.stats()?;
    let t0 = Instant::now();
    let traced = if submit {
        submit_loop(&setup, &hot, &mut requests, half, Some(&mut trace))?
    } else {
        mixed_loop(&setup, &hot, &mut requests, half, Some(&mut trace), &mut ignored)?
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let after = setup.daemon.stats()?;
    let peak = crate::sys::vm_hwm_mib(Some(setup.daemon.child.id())).ok_or("no daemon VmHWM")?;
    crate::write_trace(opts, &trace.spans)?;
    let layers = trace.layers(&hot, &before, &after, wall_ns, peak, &traced, &untraced)?;
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: layers.metrics(),
        notes,
    })
}

/// Span recording for the traced half.
struct Traced<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
    /// `(hot image, server-attributed µs, source)` per answered request.
    replies: Vec<(usize, u32, Source)>,
    unit: u64,
}

impl Traced<'_> {
    /// One request over a raw stream, with spans around the protocol
    /// calls the SDK's `analyze` makes. `connect` opens a fresh stream
    /// first (inside the request span), as `submit` does.
    fn request(
        &mut self,
        stream: Option<&mut UnixStream>,
        sock: &Path,
        bytes: &[u8],
    ) -> Result<Result<AnalyzeReply, ClientError>, String> {
        let (tracer, unit) = (self.tracer, self.unit);
        let spans = &mut self.spans;
        let root = tracer.id();
        let start = Instant::now();
        let mut fresh;
        let stream = match stream {
            Some(s) => s,
            None => {
                fresh = tracer
                    .time(spans, root, unit, "client.connect", || UnixStream::connect(sock))
                    .map_err(|e| format!("connect {}: {e}", sock.display()))?;
                &mut fresh
            }
        };
        let io = |e: std::io::Error| format!("request: {e}");
        tracer
            .time(spans, root, unit, "client.write", || proto::write_analyze(stream, 4, 0, bytes))
            .map_err(io)?;
        let frame = tracer
            .time(spans, root, unit, "client.read", || {
                proto::read_frame(stream, proto::DEFAULT_MAX_FRAME)
            })
            .map_err(|e| format!("read reply: {e}"))?
            .ok_or("daemon closed the connection")?;
        let response = tracer
            .time(spans, root, unit, "client.decode", || proto::decode_response(&frame))
            .map_err(|e| format!("decode reply: {e}"))?;
        tracer.push(spans, root, None, unit, "serve.request", start, Instant::now());
        self.unit += 1;
        Ok(match response {
            Response::Result(reply) => Ok(reply),
            Response::Busy { queue_depth, inflight_bytes } => {
                Err(ClientError::Busy { queue_depth, inflight_bytes })
            }
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            _ => Err(ClientError::Unexpected("non-result reply to analyze")),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn layers(
        &self,
        hot: &[Hot],
        before: &ServerStats,
        after: &ServerStats,
        wall_ns: u64,
        peak_rss_mib: f64,
        traced: &Sample,
        untraced: &Sample,
    ) -> Result<Layers, String> {
        let delta = |k: &str| after.get(k).unwrap_or(0).saturating_sub(before.get(k).unwrap_or(0));
        let analyzed = delta("images_analyzed").max(1) as f64;
        let (parse_ns, sweep_ns, analyze_ns) =
            (delta("parse_ns_total"), delta("sweep_ns_total"), delta("analyze_ns_total"));
        let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
        let mut sweep = SweepStats::default();
        let mut endbr = EndbrKept::default();
        let (mut server_us, mut cached_us, mut computed) = (0u64, 0u64, 0u64);
        for &(k, us, source) in &self.replies {
            server_us += u64::from(us);
            if source == Source::Computed {
                sweep.merge(&hot[k].sweep);
                endbr.add(&hot[k].expected);
                computed += 1;
            } else {
                cached_us += u64::from(us);
            }
        }
        let t = crate::trace::tally(&self.spans);
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        let request = get("serve.request");
        let children: u64 = ["client.connect", "client.write", "client.read", "client.decode"]
            .iter()
            .map(|n| get(n).total_ns)
            .sum();
        let requests = request.count.max(1) as f64;
        let slots = after.get("analyze_slots").unwrap_or(1).max(1);
        Ok(Layers {
            load_ms: get("elf.load").mean_ms(),
            parse_ms: parse_ns as f64 / 1e6 / analyzed,
            sweep_ms: sweep_ns as f64 / 1e6 / analyzed,
            analyze_ms: analyze_ns as f64 / 1e6 / analyzed,
            other_ms: (request.total_ns as f64 / 1e3 - server_us as f64) / 1e3 / requests,
            sweep_mib_per_s: crate::mib_per_s(sweep.bytes, sweep_ns),
            fast_path_ratio: sweep.fast_path_rate(),
            shards: sweep.shards as f64 / computed.max(1) as f64,
            endbr_kept_ratio: endbr.ratio(),
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            cache_share: cached_us as f64 / server_us.max(1) as f64,
            busy_share: (parse_ns + sweep_ns + analyze_ns) as f64 / (slots * wall_ns.max(1)) as f64,
            peak_rss_mib,
            coverage: children as f64 / request.total_ns.max(1) as f64,
            overhead_pct: crate::overhead_pct(&traced.latencies, &untraced.latencies),
        })
    }
}

/// The next request: which hot image, and its bytes — the mapped
/// image, or a padded copy for a miss. Traced runs time the load.
fn prepare(
    hot: &[Hot],
    requests: &mut Requests,
    trace: &mut Option<&mut Traced<'_>>,
) -> Result<(usize, Image), String> {
    let (k, miss) = requests.next();
    let path = &hot[k].path;
    let start = Instant::now();
    let image = Image::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    if let Some(t) = trace {
        let (tracer, unit) = (t.tracer, t.unit);
        tracer.push(&mut t.spans, tracer.id(), None, unit, "elf.load", start, Instant::now());
    }
    let bytes = match miss {
        Some(tag) => Image::from(inputs::padded(&image, tag)),
        None => image,
    };
    Ok((k, bytes))
}

/// `serve_submit`: connect, analyze, close, back to back.
fn submit_loop(
    setup: &Setup,
    hot: &[Hot],
    requests: &mut Requests,
    seconds: f64,
    mut trace: Option<&mut Traced<'_>>,
) -> Result<Sample, String> {
    let sock = setup.dir.path().join("d.sock");
    let mut t = Sample::default();
    t.attempted = crate::for_seconds(seconds, || {
        let (k, bytes) = prepare(hot, requests, &mut trace)?;
        let t0 = Instant::now();
        let reply = match trace.as_deref_mut() {
            Some(tr) => tr.request(None, &sock, &bytes)?,
            None => setup.daemon.connect()?.analyze(&bytes),
        };
        let latency = ms(t0.elapsed());
        record(&mut t, &mut trace, check(reply, &hot[k])?, k, latency);
        Ok(())
    })?;
    Ok(t)
}

fn record(
    t: &mut Sample,
    trace: &mut Option<&mut Traced<'_>>,
    reply: Option<AnalyzeReply>,
    k: usize,
    latency: f64,
) {
    match reply {
        Some(reply) => {
            t.latencies.push(latency);
            if let Some(tr) = trace {
                tr.replies.push((k, reply.elapsed_us, reply.source));
            }
        }
        None => t.failed += 1,
    }
}

/// `serve_mixed`: one persistent connection, open loop through
/// [`PHASES`], each phase `share × seconds` long.
fn mixed_loop(
    setup: &Setup,
    hot: &[Hot],
    requests: &mut Requests,
    seconds: f64,
    mut trace: Option<&mut Traced<'_>>,
    notes: &mut Vec<Metric>,
) -> Result<Sample, String> {
    let sock = setup.dir.path().join("d.sock");
    // One connection: the SDK's, or for a traced run a raw stream.
    let (mut client, mut stream) = match trace {
        Some(_) => (None, Some(UnixStream::connect(&sock).map_err(|e| format!("connect: {e}"))?)),
        None => (Some(setup.daemon.connect()?), None),
    };
    let mut total = Sample::default();
    for (name, rate, share) in PHASES {
        let mut t = Sample::default();
        let count = (rate * share * seconds).round().max(1.0) as u64;
        let schedule = Schedule { start: Instant::now(), rate };
        let mut ready = schedule.start;
        for i in 0..count {
            let (k, bytes) = prepare(hot, requests, &mut trace)?;
            let due = schedule.due(i);
            sleep_until(due);
            let sent = Instant::now();
            let reply = match (trace.as_deref_mut(), stream.as_mut(), client.as_mut()) {
                (Some(tr), Some(s), _) => tr.request(Some(s), &sock, &bytes)?,
                (_, _, Some(c)) => c.analyze(&bytes),
                _ => unreachable!("one connection is always open"),
            };
            let done = Instant::now();
            let (start, lag) = charge(due, ready, sent);
            ready = done;
            t.lags.extend(lag.map(ms));
            record(&mut t, &mut trace, check(reply, &hot[k])?, k, ms(done - start));
        }
        t.attempted = count;
        let p = |q| stats::percentile(&t.latencies, q).unwrap_or(0.0);
        notes.push(Metric::new(&format!("sdk_p50_ms_{name}"), p(0.5), "ms"));
        notes.push(Metric::new(&format!("sdk_p95_ms_{name}"), p(0.95), "ms"));
        total.latencies.extend(t.latencies);
        total.lags.extend(t.lags);
        total.failed += t.failed;
        total.attempted += t.attempted;
    }
    Ok(total)
}
