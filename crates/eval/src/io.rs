//! Zero-copy I/O path measurement — the `experiments -- io`
//! subcommand.
//!
//! Quantifies the legs of the zero-copy path introduced with the `FSC3`
//! cache format (DESIGN.md §7):
//!
//! | row | what it measures |
//! |---|---|
//! | `ingest_mmap` | cold ingestion via memory-mapped [`Image`]s: map + content-hash every corpus file (MB/s) |
//! | `ingest_read` | the same files through the buffered `fs::read` fallback (MB/s) |
//! | `decode_v3` | decoding `FSC3` binary cache records back into `Analysis` values (records/s) |
//! | `io_serve_dup` | a duplicate-heavy daemon barrage where every repeat reply is a memcpy of the cached pre-encoded record (req/s) |
//!
//! Every decoded analysis and every daemon reply is checked
//! bit-identical to the direct computation before it counts. Results
//! append to the `BENCH_io.json` trajectory; `--check` gates CI on the
//! newest committed `decode_v3` throughput. Older entries also carry a
//! `decode_v2` row: the retired v2 text codec, since deleted.

use std::sync::Arc;
use std::time::Instant;

use funseeker::{Analysis, Config};
use funseeker_batch::{cache, hash_bytes, mix64, BatchOptions};
use funseeker_elf::Image;
use funseeker_server::{Server, ServerConfig};

use crate::batch::peak_rss_kb;
use crate::bench::{self, Entry, Host, Report, Row, Value};

/// One measured leg of the I/O path.
#[derive(Debug, Clone)]
pub struct IoRow {
    /// Row name (`ingest_mmap`, `ingest_read`, `decode_v3`,
    /// `io_serve_dup`).
    pub label: String,
    /// Best-of-N wall time in milliseconds.
    pub ms: f64,
    /// Sample standard deviation of the wall time over the reps, ms.
    pub sd_ms: f64,
    /// Throughput on the best rep, in `unit`s.
    pub rate: f64,
    /// Unit of `rate` (`MB/s`, `records/s`, `req/s`).
    pub unit: &'static str,
    /// Per-row auxiliary ratio: mmap coverage for `ingest_mmap`
    /// (fraction of files actually mapped), pre-encoded-reply coverage
    /// for `io_serve_dup` (fraction of results served from cached
    /// bytes), 0 elsewhere.
    pub aux: f64,
}

/// The full measurement.
#[derive(Debug, Clone)]
pub struct IoReport {
    /// Distinct corpus binaries measured.
    pub binaries: usize,
    /// Total corpus bytes (the ingestion rows' numerator).
    pub total_bytes: u64,
    /// Repetitions per row (the best is reported).
    pub reps: usize,
    /// `VmHWM` of the process at the end, KiB.
    pub peak_rss_kb: u64,
    /// Execution environment of the run.
    pub host: Host,
    /// Measured rows.
    pub rows: Vec<IoRow>,
}

/// Runs the measurement. `quick` shrinks the corpus, fleet, and
/// repetition count for CI smoke use.
pub fn run(quick: bool) -> IoReport {
    let (images, _) = crate::batch::corpus(quick);
    // The ingestion and codec rows work on the distinct prefix (the
    // corpus interleaves duplicates; one copy each is the honest
    // denominator for byte throughput).
    let config = Config::c4();
    let expected: Vec<Arc<Analysis>> =
        funseeker_batch::run(&images, std::slice::from_ref(&config), &BatchOptions::default())
            .results
            .into_iter()
            .map(|mut per_config| per_config.remove(0).expect("benchmark corpus parses"))
            .collect();
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<(&[u8], &Analysis)> = images
        .iter()
        .zip(&expected)
        .filter(|(img, _)| seen.insert(hash_bytes(img)))
        .map(|(img, a)| (img.as_slice(), a.as_ref()))
        .collect();
    let total_bytes: u64 = distinct.iter().map(|(img, _)| img.len() as u64).sum();
    let reps = if quick { 2 } else { 5 };

    let mut rows: Vec<IoRow> = Vec::new();
    let mut push = |label: &str, samples: &[f64], per_s_of: f64, unit: &'static str, aux: f64| {
        let (best_s, sd_s) = bench::best_and_sd(samples);
        rows.push(IoRow {
            label: label.to_owned(),
            ms: best_s * 1e3,
            sd_ms: sd_s * 1e3,
            rate: per_s_of / best_s,
            unit,
            aux,
        });
    };

    // ---- ingestion: the same corpus written once to disk, then pulled
    // back through both paths. Both run against a warm page cache, so
    // the delta is the copy + allocation, not the disk.
    let dir = std::env::temp_dir().join(format!("funseeker-io-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create io bench dir");
    let paths: Vec<std::path::PathBuf> = distinct
        .iter()
        .enumerate()
        .map(|(i, (img, _))| {
            let path = dir.join(format!("{i:05}.bin"));
            std::fs::write(&path, img).expect("write io bench binary");
            path
        })
        .collect();

    let mut samples = Vec::with_capacity(reps);
    let mut mapped = 0usize;
    for _ in 0..reps {
        mapped = 0;
        let t = Instant::now();
        let mut sum = 0u64;
        for path in &paths {
            let image = Image::load(path).expect("io bench file readable");
            mapped += usize::from(image.is_mapped());
            sum ^= hash_bytes(&image);
        }
        samples.push(t.elapsed().as_secs_f64());
        assert_ne!(sum, 0, "hash mix is never zero over a real corpus");
    }
    let mb = total_bytes as f64 / 1e6;
    push("ingest_mmap", &samples, mb, "MB/s", mapped as f64 / paths.len() as f64);

    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut sum = 0u64;
        for path in &paths {
            let bytes = std::fs::read(path).expect("io bench file readable");
            sum ^= hash_bytes(&bytes);
        }
        samples.push(t.elapsed().as_secs_f64());
        assert_ne!(sum, 0, "hash mix is never zero over a real corpus");
    }
    push("ingest_read", &samples, mb, "MB/s", 0.0);
    let _ = std::fs::remove_dir_all(&dir);

    // ---- codec: the same analyses as v3 records, decode verified
    // bit-identical to the original.
    let fp = cache::config_fingerprint(&config);
    let v3: Vec<(u64, Vec<u8>, &Analysis)> = distinct
        .iter()
        .map(|&(img, a)| {
            let h = hash_bytes(img);
            (mix64(h, fp), cache::encode(h, fp, a).expect("corpus analyses encode"), a)
        })
        .collect();

    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for (key, record, a) in &v3 {
            let decoded = cache::decode(*key, record).expect("round trip");
            assert_eq!(&decoded, *a, "v3 decode diverged");
        }
        samples.push(t.elapsed().as_secs_f64());
    }
    push("decode_v3", &samples, v3.len() as f64, "records/s", 0.0);

    // ---- serving: duplicate-heavy traffic, where after the first
    // computation every reply body is a memcpy of the cached
    // pre-encoded record.
    let threads = if quick { 8 } else { 64 };
    let per_thread = if quick { 8 } else { 48 };
    let sock = std::env::temp_dir().join(format!("fs-io-bench-{}.sock", std::process::id()));
    let mut server_config = ServerConfig::unix(&sock);
    server_config.max_connections = threads + 8;
    let server = Server::start(server_config).expect("bind io bench socket");
    let addr = server.addr().to_string();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sample = crate::serve::barrage(&addr, &images, &expected, threads, per_thread, None);
        samples.push(sample.elapsed_s);
    }
    let reply_cached = {
        let mut probe = crate::serve::connect_retry(&addr);
        let stats = probe.stats().expect("io bench stats");
        let results = stats.get("results_total").unwrap_or(0);
        let hits = stats.get("reply_bytes_hits").unwrap_or(0);
        if results == 0 {
            0.0
        } else {
            hits as f64 / results as f64
        }
    };
    server.shutdown();
    server.join();
    push("io_serve_dup", &samples, (threads * per_thread) as f64, "req/s", reply_cached);

    IoReport {
        binaries: distinct.len(),
        total_bytes,
        reps,
        peak_rss_kb: peak_rss_kb(),
        host: bench::host(),
        rows,
    }
}

impl Report for IoReport {
    const SCHEMA: &'static str = bench::IO;
    const DOING: &'static str = "measuring the zero-copy I/O path";
    const TITLE: &'static str = "Zero-copy I/O path";

    fn entry(&self) -> Entry {
        let rows = self.rows.iter().map(|r| {
            Row::new(
                &r.label,
                vec![
                    ("ms", Value::F3(r.ms)),
                    ("sd_ms", Value::F3(r.sd_ms)),
                    ("rate", Value::F1(r.rate)),
                    ("unit", r.unit.into()),
                    ("aux", Value::F4(r.aux)),
                ],
            )
        });
        Entry {
            header: vec![
                ("binaries", self.binaries.into()),
                ("total_bytes", self.total_bytes.into()),
                ("reps", self.reps.into()),
                ("peak_rss_kb", self.peak_rss_kb.into()),
            ],
            host: self.host.clone(),
            rows: rows.collect(),
        }
    }

    fn render(&self) -> String {
        format!(
            "corpus: {} distinct binaries ({:.1} MB), best of {} reps, peak RSS {:.1} MiB\n\n{}",
            self.binaries,
            self.total_bytes as f64 / 1e6,
            self.reps,
            self.peak_rss_kb as f64 / 1024.0,
            self.entry().table().render(),
        )
    }

    /// Gates `decode_v3` throughput (records/s) against the newest
    /// committed entry.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String> {
        bench::ratio_gate(committed, &self.entry(), "decode_v3", "rate", min_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Gated;

    fn fake_report() -> IoReport {
        let row = |label: &str, rate: f64, unit: &'static str| IoRow {
            label: label.into(),
            ms: 50.0,
            sd_ms: 1.0,
            rate,
            unit,
            aux: 0.0,
        };
        IoReport {
            binaries: 100,
            total_bytes: 5_000_000,
            reps: 2,
            peak_rss_kb: 80_000,
            host: bench::host(),
            rows: vec![
                row("ingest_mmap", 900.0, "MB/s"),
                row("ingest_read", 600.0, "MB/s"),
                row("decode_v3", 50_000.0, "records/s"),
                row("io_serve_dup", 12_000.0, "req/s"),
            ],
        }
    }

    impl IoReport {
        pub(crate) fn fake(g: Gated) -> Self {
            let mut r = fake_report();
            r.host.cores_used = g.cores;
            let v3 = &mut r.rows[2];
            (v3.rate, v3.ms, v3.sd_ms) = (g.value, g.ms, g.sd_ms);
            r
        }
    }

    #[test]
    fn entry_bytes_are_unchanged() {
        let r = IoReport { host: bench::test_host(), ..fake_report() };
        assert_eq!(r.entry().write("golden"), GOLDEN);
    }

    const GOLDEN: &str = r#"    {"label": "golden", "binaries": 100, "total_bytes": 5000000, "reps": 2, "peak_rss_kb": 80000, "cores_used": 2, "avail_par": 8, "tier": "avx2", "rows": [
      {"config": "ingest_mmap", "ms": 50.000, "sd_ms": 1.000, "rate": 900.0, "unit": "MB/s", "aux": 0.0000},
      {"config": "ingest_read", "ms": 50.000, "sd_ms": 1.000, "rate": 600.0, "unit": "MB/s", "aux": 0.0000},
      {"config": "decode_v3", "ms": 50.000, "sd_ms": 1.000, "rate": 50000.0, "unit": "records/s", "aux": 0.0000},
      {"config": "io_serve_dup", "ms": 50.000, "sd_ms": 1.000, "rate": 12000.0, "unit": "req/s", "aux": 0.0000}
    ]}"#;

    #[test]
    fn quick_measurement_covers_every_row() {
        let report = run(true);
        let get = |label: &str| {
            report
                .rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label} missing"))
        };
        for label in ["ingest_mmap", "ingest_read", "decode_v3", "io_serve_dup"] {
            assert!(get(label).rate > 0.0, "{label} measured nothing");
        }
        if std::env::var("FUNSEEKER_MMAP").as_deref() != Ok("0") {
            assert!(get("ingest_mmap").aux > 0.99, "regular files must map");
        }
        // The duplicate-heavy barrage must actually exercise the
        // pre-encoded reply path.
        assert!(get("io_serve_dup").aux > 0.5, "reply-bytes coverage too low");
        assert!(!report.render().is_empty());
    }
}
