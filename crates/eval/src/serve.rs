//! Serving-layer load test — the `experiments -- serve` subcommand.
//!
//! Starts an in-process daemon on a unix socket and drives it with a
//! fleet of client threads (1,024 in full mode), each holding one
//! connection and submitting corpus binaries back-to-back. Two
//! workloads bracket the cache behavior a long-running service sees:
//!
//! | row | traffic shape |
//! |---|---|
//! | `serve_dup` | duplicate-heavy: the batch corpus (each image recurring), so single-flight and the result cache absorb almost everything |
//! | `serve_distinct` | distinct-heavy: every submission content-unique, so every request is a fresh analysis and the admission gate's `Busy` backpressure does real work |
//!
//! Every reply is checked **bit-identical** to the direct batch-engine
//! analysis of the same image before it counts. `Busy` refusals are
//! retried with bounded backoff and tallied — backpressure is part of
//! the measurement, not an error. Results append to `BENCH_batch.json`
//! (rows `serve_dup` / `serve_distinct`); `--check` gates CI on the
//! newest committed `serve_dup` throughput.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use funseeker::{Analysis, Config};
use funseeker_batch::BatchOptions;
use funseeker_client::{AnalyzeReply, Client, ClientError};
use funseeker_server::{Server, ServerConfig};

use crate::batch::peak_rss_kb;
use crate::bench::{self, Entry, Host, Report, Row, Value};

/// Give up on a request after this many consecutive `Busy` refusals —
/// a server this saturated for this long is a harness failure, not
/// backpressure.
const MAX_BUSY_RETRIES: usize = 10_000;

/// One measured workload.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Row name (`serve_dup`, `serve_distinct`).
    pub label: String,
    /// Best-of-N wall time for the whole barrage, milliseconds.
    pub ms: f64,
    /// Sample standard deviation of the wall time over the reps, ms.
    pub sd_ms: f64,
    /// Completed requests per second on the best rep.
    pub req_per_s: f64,
    /// Median client-observed latency (including retries), µs.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency, µs.
    pub p99_us: u64,
    /// `Busy` refusals absorbed by retries on the best rep.
    pub busy: u64,
    /// Daemon result-cache hit rate after the workload.
    pub hit_rate: f64,
    /// Most concurrently open client connections observed by the
    /// daemon's own gauge across all reps of this workload.
    pub peak_open: u64,
    /// Requests completed per rep.
    pub requests: usize,
}

/// The full measurement.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Concurrent client threads (one connection each).
    pub threads: usize,
    /// Requests each thread submits per rep.
    pub per_thread: usize,
    /// Distinct images in the duplicate-heavy corpus.
    pub distinct: usize,
    /// Repetitions per workload (best is reported).
    pub reps: usize,
    /// `VmHWM` of the whole process (daemon + clients + corpus), KiB.
    pub peak_rss_kb: u64,
    /// Execution environment of the run (pool width, host cores,
    /// kernel tier).
    pub host: Host,
    /// Measured workloads.
    pub rows: Vec<ServeRow>,
}

/// A content-unique variant of `image`: the tag lands outside every
/// ELF-described region, so the analysis is unchanged (asserted against
/// the unpadded expectation) while every cache key differs.
fn padded(image: &[u8], tag: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(image.len() + 8);
    v.extend_from_slice(image);
    v.extend_from_slice(&tag.to_le_bytes());
    v
}

pub(crate) struct Barrage {
    pub(crate) elapsed_s: f64,
    pub(crate) latencies_us: Vec<u64>,
    pub(crate) busy: u64,
    pub(crate) peak_open: u64,
}

/// One timed barrage: `threads` clients, each submitting its
/// round-robin share of `images`, verifying every reply against
/// `expected`. `distinct_salt` salts each submission into a fresh cache
/// key (the distinct-heavy shape).
pub(crate) fn barrage(
    addr: &str,
    images: &[Vec<u8>],
    expected: &[Arc<Analysis>],
    threads: usize,
    per_thread: usize,
    distinct_salt: Option<u64>,
) -> Barrage {
    let busy_total = AtomicU64::new(0);
    let peak_open = AtomicU64::new(0);
    let stop_monitor = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let all_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(threads * per_thread));
    // Every client connects before anyone submits; the timer covers
    // submissions only.
    let connected = Barrier::new(threads + 1);
    let started = Barrier::new(threads + 1);

    let elapsed_s = std::thread::scope(|s| {
        for t in 0..threads {
            let (busy_total, all_latencies, done) = (&busy_total, &all_latencies, &done);
            let (connected, started) = (&connected, &started);
            std::thread::Builder::new()
                .stack_size(256 << 10)
                .name(format!("fs-load-{t}"))
                .spawn_scoped(s, move || {
                    let mut client = connect_retry(addr);
                    connected.wait();
                    started.wait();
                    let mut latencies = Vec::with_capacity(per_thread);
                    let mut busy = 0u64;
                    for i in 0..per_thread {
                        let request_no = (t * per_thread + i) as u64;
                        let idx = request_no as usize % images.len();
                        let salted;
                        let image: &[u8] = match distinct_salt {
                            Some(salt) => {
                                salted = padded(&images[idx], salt ^ request_no);
                                &salted
                            }
                            None => &images[idx],
                        };
                        let t0 = Instant::now();
                        let reply = submit_counting_busy(&mut client, image, &mut busy);
                        latencies.push(t0.elapsed().as_micros() as u64);
                        assert_eq!(
                            reply.analysis, *expected[idx],
                            "daemon result diverged from direct batch analysis (image {idx})"
                        );
                    }
                    busy_total.fetch_add(busy, Ordering::Relaxed);
                    all_latencies.lock().unwrap().extend(latencies);
                    done.fetch_add(1, Ordering::Release);
                })
                .expect("spawn load thread");
        }

        // Monitor: samples the daemon's open-connection gauge while the
        // barrage runs (evidence for the ≥1,000-concurrent requirement).
        let (peak_open, stop_monitor) = (&peak_open, &stop_monitor);
        let monitor = s.spawn(move || {
            let mut client = connect_retry(addr);
            while !stop_monitor.load(Ordering::Relaxed) {
                if let Ok(stats) = client.stats() {
                    let open = stats.get("connections_open").unwrap_or(0);
                    peak_open.fetch_max(open, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        connected.wait();
        // Between the barriers the whole fleet provably holds open
        // connections; one deterministic sample here anchors peak_open
        // even if the monitor never lands a mid-run poll.
        {
            let mut probe = connect_retry(addr);
            if let Ok(stats) = probe.stats() {
                peak_open.fetch_max(stats.get("connections_open").unwrap_or(0), Ordering::Relaxed);
            }
        }
        let t0 = Instant::now();
        started.wait();
        let elapsed = loop {
            if done.load(Ordering::Acquire) == threads as u64 {
                break t0.elapsed().as_secs_f64();
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        stop_monitor.store(true, Ordering::Relaxed);
        let _ = monitor.join();
        elapsed
    });

    let mut latencies_us = all_latencies.into_inner().unwrap();
    latencies_us.sort_unstable();
    Barrage {
        elapsed_s,
        latencies_us,
        busy: busy_total.into_inner(),
        peak_open: peak_open.into_inner(),
    }
}

/// Connects, retrying briefly: a thousand simultaneous connects can
/// overflow the listener's backlog, which is itself backpressure, not
/// failure.
pub(crate) fn connect_retry(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Submits one image, absorbing `Busy` refusals with bounded backoff
/// and counting them. Any other failure is a harness failure.
fn submit_counting_busy(client: &mut Client, image: &[u8], busy: &mut u64) -> AnalyzeReply {
    let mut backoff = Duration::from_millis(1);
    for _ in 0..MAX_BUSY_RETRIES {
        match client.analyze(image) {
            Ok(reply) => return reply,
            Err(ClientError::Busy { .. }) => {
                *busy += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(64));
            }
            Err(other) => panic!("load request failed: {other}"),
        }
    }
    panic!("request refused Busy {MAX_BUSY_RETRIES} times");
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (p * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

/// A daemon on a fresh unix socket and the corpus its client fleet
/// submits, with the answers every reply must match.
struct Fleet {
    server: Server,
    addr: String,
    images: Vec<Vec<u8>>,
    /// The direct batch-engine analysis of every image — the daemon
    /// must reproduce these bit for bit.
    expected: Vec<Arc<Analysis>>,
    threads: usize,
    per_thread: usize,
}

impl Fleet {
    fn start(images: Vec<Vec<u8>>, sock_tag: &str, threads: usize, per_thread: usize) -> Fleet {
        let config = Config::c4();
        let expected =
            funseeker_batch::run(&images, std::slice::from_ref(&config), &BatchOptions::default())
                .results
                .into_iter()
                .map(|mut per_config| per_config.remove(0).expect("benchmark corpus parses"))
                .collect();
        let sock = std::env::temp_dir().join(format!("{sock_tag}-{}.sock", std::process::id()));
        let mut server_config = ServerConfig::unix(&sock);
        server_config.max_connections = threads + 8;
        let server = Server::start(server_config).expect("bind benchmark socket");
        let addr = server.addr().to_string();
        Fleet { server, addr, images, expected, threads, per_thread }
    }

    /// The best of `reps` barrages as one row. `distinct_salt` makes
    /// every submission content-unique; it folds in the rep index, so
    /// reps stay distinct from each other too.
    fn row(&self, label: &str, reps: usize, distinct_salt: Option<u64>) -> ServeRow {
        let mut best: Option<Barrage> = None;
        let mut samples = Vec::with_capacity(reps);
        let mut peak_open = 0u64;
        for rep in 0..reps as u64 {
            let salt = distinct_salt.map(|s| s ^ (rep << 56));
            let (threads, per_thread) = (self.threads, self.per_thread);
            let sample =
                barrage(&self.addr, &self.images, &self.expected, threads, per_thread, salt);
            samples.push(sample.elapsed_s);
            peak_open = peak_open.max(sample.peak_open);
            if best.as_ref().is_none_or(|b| sample.elapsed_s < b.elapsed_s) {
                best = Some(sample);
            }
        }
        let best = best.expect("at least one rep");
        let (best_s, sd_s) = bench::best_and_sd(&samples);
        let requests = self.threads * self.per_thread;
        let hit_rate = connect_retry(&self.addr).stats().map(|s| s.hit_rate()).unwrap_or(0.0);
        ServeRow {
            label: label.to_owned(),
            ms: best_s * 1e3,
            sd_ms: sd_s * 1e3,
            req_per_s: requests as f64 / best_s,
            p50_us: percentile(&best.latencies_us, 0.50),
            p99_us: percentile(&best.latencies_us, 0.99),
            busy: best.busy,
            hit_rate,
            peak_open,
            requests,
        }
    }

    fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// Runs the measurement. `quick` shrinks the fleet, corpus, and
/// repetition count for CI smoke use.
pub fn run(quick: bool) -> ServeReport {
    let (images, distinct) = crate::batch::corpus(quick);
    let threads = if quick { 16 } else { 1024 };
    let per_thread = if quick { 8 } else { 4 };
    let reps = 2;
    let fleet = Fleet::start(images, "fs-serve-bench", threads, per_thread);
    let rows = vec![
        fleet.row("serve_dup", reps, None),
        fleet.row("serve_distinct", reps, Some(0x5eed_d157_1c47)),
    ];
    fleet.stop();
    ServeReport {
        threads,
        per_thread,
        distinct,
        reps,
        peak_rss_kb: peak_rss_kb(),
        host: bench::host(),
        rows,
    }
}

/// Distinct-heavy-only probe for the [`crate::multicore`] bench: a
/// moderate fleet against a fresh daemon, every submission
/// content-unique, so each request costs a real analysis and the row's
/// latency tail reflects analysis queueing rather than cache hits. The
/// daemon inherits the current global pool width, so this measures the
/// serving layer at whatever `--cores` the bench configured. Returns
/// the measured row (throughput, p50/p99, `Busy` count).
pub(crate) fn distinct_probe(quick: bool) -> ServeRow {
    let (images, _) = crate::batch::corpus(quick);
    let threads = if quick { 16 } else { 256 };
    let per_thread = if quick { 4 } else { 8 };
    let fleet = Fleet::start(images, "fs-mc-bench", threads, per_thread);
    let row = fleet.row("mc_serve_distinct", 2, Some(0x3c0_7e5));
    fleet.stop();
    row
}

impl Report for ServeReport {
    const SCHEMA: &'static str = bench::BATCH;
    const DOING: &'static str = "load-testing the daemon";
    const TITLE: &'static str = "Serving-layer load test";

    fn entry(&self) -> Entry {
        let rows = self.rows.iter().map(|r| {
            Row::new(
                &r.label,
                vec![
                    ("ms", Value::F3(r.ms)),
                    ("sd_ms", Value::F3(r.sd_ms)),
                    ("req_per_s", Value::F1(r.req_per_s)),
                    ("p50_us", r.p50_us.into()),
                    ("p99_us", r.p99_us.into()),
                    ("busy", r.busy.into()),
                    ("hit_rate", Value::F4(r.hit_rate)),
                    ("peak_open", r.peak_open.into()),
                    ("requests", r.requests.into()),
                ],
            )
        });
        Entry {
            header: vec![
                ("threads", self.threads.into()),
                ("per_thread", self.per_thread.into()),
                ("distinct", self.distinct.into()),
                ("reps", self.reps.into()),
                ("peak_rss_kb", self.peak_rss_kb.into()),
            ],
            host: self.host.clone(),
            rows: rows.collect(),
        }
    }

    fn render(&self) -> String {
        format!(
            "fleet: {} concurrent clients × {} requests, {} distinct corpus images, best of {} \
             reps, peak RSS {:.1} MiB\n\n{}",
            self.threads,
            self.per_thread,
            self.distinct,
            self.reps,
            self.peak_rss_kb as f64 / 1024.0,
            self.entry().table().render(),
        )
    }

    /// Gates duplicate-heavy throughput (req/s) against the newest
    /// committed entry.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        bench::ratio_gate(committed, &self.entry(), "serve_dup", "req_per_s", min_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_report() -> ServeReport {
        ServeReport {
            threads: 16,
            per_thread: 8,
            distinct: 12,
            reps: 2,
            peak_rss_kb: 50_000,
            host: bench::host(),
            rows: vec![
                ServeRow {
                    label: "serve_dup".into(),
                    ms: 80.0,
                    sd_ms: 4.0,
                    req_per_s: 1600.0,
                    p50_us: 900,
                    p99_us: 9000,
                    busy: 0,
                    hit_rate: 0.93,
                    peak_open: 17,
                    requests: 128,
                },
                ServeRow {
                    label: "serve_distinct".into(),
                    ms: 300.0,
                    sd_ms: 10.0,
                    req_per_s: 426.0,
                    p50_us: 2000,
                    p99_us: 40_000,
                    busy: 210,
                    hit_rate: 0.5,
                    peak_open: 17,
                    requests: 128,
                },
            ],
        }
    }

    impl ServeReport {
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report();
            r.host.cores_used = g.cores;
            let dup = &mut r.rows[0];
            (dup.req_per_s, dup.ms, dup.sd_ms) = (g.value, g.ms, g.sd_ms);
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = ServeReport { host: bench::test_host(), ..fake_report() };
        assert_eq!(r.entry().write("golden"), GOLDEN);
    }

    const GOLDEN: &str = r#"    {"label": "golden", "threads": 16, "per_thread": 8, "distinct": 12, "reps": 2, "peak_rss_kb": 50000, "cores_used": 2, "avail_par": 8, "tier": "avx2", "rows": [
      {"config": "serve_dup", "ms": 80.000, "sd_ms": 4.000, "req_per_s": 1600.0, "p50_us": 900, "p99_us": 9000, "busy": 0, "hit_rate": 0.9300, "peak_open": 17, "requests": 128},
      {"config": "serve_distinct", "ms": 300.000, "sd_ms": 10.000, "req_per_s": 426.0, "p50_us": 2000, "p99_us": 40000, "busy": 210, "hit_rate": 0.5000, "peak_open": 17, "requests": 128}
    ]}"#;

    #[test]
    fn percentiles_are_sane() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn quick_load_test_serves_correctly_under_concurrency() {
        let report = run(true);
        let dup = report.rows.iter().find(|r| r.label == "serve_dup").expect("dup row");
        let distinct =
            report.rows.iter().find(|r| r.label == "serve_distinct").expect("distinct row");
        assert_eq!(dup.requests, report.threads * report.per_thread);
        assert!(dup.req_per_s > 0.0 && distinct.req_per_s > 0.0);
        assert!(dup.p50_us <= dup.p99_us);
        // The fleet really was concurrent: the daemon saw (nearly) the
        // whole fleet connected at once.
        assert!(
            dup.peak_open as usize >= report.threads,
            "peak_open {} vs {} threads",
            dup.peak_open,
            report.threads
        );
        // Duplicate-heavy traffic must be absorbed by the cache.
        assert!(dup.hit_rate > 0.5, "dup hit rate {}", dup.hit_rate);
        assert!(!report.render().is_empty());
    }
}
