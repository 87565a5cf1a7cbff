//! The pipelined corpus scheduler.
//!
//! [`run`] decomposes each binary into the three stages of Algorithm 1's
//! front and back ends — **parse** → **sweep** → **analyze** — and
//! executes them as individually-scheduled tasks on the persistent
//! worker pool via [`funseeker_pool::Pool::scope`]: a parse task spawns
//! its binary's sweep task, which spawns its analyze task. While one
//! binary is in its (serial, allocation-heavy) parse stage, others are
//! sweeping or analyzing, so the pool's workers stay busy even when the
//! corpus mixes tiny and huge images.
//!
//! Three further mechanisms make the batch path fast without changing
//! its output:
//!
//! - **content dedup** — images are hashed up front and byte-identical
//!   duplicates are analyzed once, sharing one `Arc`'d result;
//! - **result caching** — completed analyses land in a
//!   [`ResultCache`] keyed by content (see [`crate::cache`]), with an
//!   optional disk layer for cross-run reuse;
//! - **scratch reuse** — each worker thread owns one
//!   [`funseeker::Scratch`] arena, so per-binary stage runs stop
//!   allocating once the arenas reach the workload's high-water mark.
//!
//! In-flight memory is bounded: the submitter admits a binary into the
//! pipeline only when the estimated footprint of everything currently
//! in flight fits under [`BatchOptions::max_inflight_bytes`], blocking
//! otherwise until analyses retire. One binary is always admitted, so
//! a single image larger than the bound still processes.
//!
//! The contract, enforced by proptests in `tests/`: for every input and
//! configuration, the result is **identical** to a fresh sequential
//! [`funseeker::prepare`] + [`funseeker::FunSeeker::identify_prepared`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use funseeker::parse::{parse, Parsed};
use funseeker::{Analysis, AnalysisPlan, Config, Prepared, Scratch, StageStats};

use crate::admission::Ballast;
use crate::cache::{cache_key, DiskCache, ResultCache};
use crate::hash::hash_bytes;

/// Tuning knobs for one batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Use the in-memory result cache (and dedup identical images).
    /// Off, every binary is fully re-analyzed — the configuration the
    /// evaluation harness uses to isolate pipeline + scratch gains.
    pub cache: bool,
    /// Directory for the persistent disk layer; `None` disables it.
    /// Ignored when `cache` is off.
    pub disk_cache: Option<PathBuf>,
    /// Admission bound on the estimated bytes of all in-flight parses,
    /// sweep indexes, and images. `usize::MAX` disables the bound.
    pub max_inflight_bytes: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            cache: true,
            disk_cache: None,
            // Enough for ~dozens of typical corpus binaries in flight;
            // small enough to keep a million-binary corpus from
            // ballooning resident memory.
            max_inflight_bytes: 256 << 20,
        }
    }
}

/// Per-stage and cache accounting for one batch run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Binaries submitted.
    pub binaries: usize,
    /// Distinct images after content dedup (== `binaries` when the
    /// cache is disabled).
    pub unique_images: usize,
    /// Binaries whose parse stage failed (their results are `None`).
    pub parse_errors: usize,
    /// Result-cache hits during this run.
    pub cache_hits: u64,
    /// Result-cache misses during this run.
    pub cache_misses: u64,
    /// Misses that the disk layer served.
    pub disk_hits: u64,
    /// Wall nanoseconds summed over all parse-stage tasks.
    pub parse_ns: u64,
    /// Wall nanoseconds summed over all sweep-stage tasks.
    pub sweep_ns: u64,
    /// Wall nanoseconds summed over all analyze-stage tasks.
    pub analyze_ns: u64,
    /// Core-analyzer per-stage counters (FILTERENDBR, SELECTTAILCALL,
    /// candidate-set algebra, interprocedural), summed over every
    /// non-cached (image, configuration) computation.
    pub stage: StageStats,
    /// High-water mark of the in-flight memory estimate.
    pub peak_inflight_bytes: usize,
}

impl BatchStats {
    /// Hits as a fraction of this run's lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Results of one batch run.
#[derive(Debug)]
pub struct BatchOutput {
    /// `results[i][j]` is binary `i` analyzed under configuration `j`;
    /// `None` when the image failed to parse. Duplicate images and
    /// cache hits share `Arc`s.
    pub results: Vec<Vec<Option<Arc<Analysis>>>>,
    /// Accounting for the run.
    pub stats: BatchStats,
}

/// Rough in-flight footprint of one binary mid-pipeline: the borrowed
/// image plus parsed metadata plus the packed sweep index (~6 bytes per
/// instruction, instructions averaging ~4 bytes).
///
/// Public so admission decisions elsewhere (the serving layer gates a
/// request *before* reading its body off the socket) use the same
/// estimate the scheduler charges against its [`Ballast`].
pub fn inflight_estimate(image_len: usize) -> usize {
    4096 + image_len.saturating_mul(3)
}

thread_local! {
    /// One scratch arena plus one [`AnalysisPlan`] per pool worker (and
    /// per submitter thread): the plan is rebuilt once per distinct
    /// image and every required configuration is derived from it by set
    /// algebra; both grow to the workload's high-water mark and never
    /// shrink, so the warm path allocates nothing.
    static WORKSPACE: RefCell<(Scratch, AnalysisPlan)> =
        RefCell::new((Scratch::new(), AnalysisPlan::new()));
}

/// Runs the batch engine over `images`, analyzing each under every
/// configuration in `configs`, with a private result cache.
pub fn run<I: AsRef<[u8]> + Sync>(
    images: &[I],
    configs: &[Config],
    opts: &BatchOptions,
) -> BatchOutput {
    run_with_cache(images, configs, opts, &ResultCache::new())
}

/// [`run`] against a caller-owned [`ResultCache`], which is how warm
/// reruns share results across calls.
pub fn run_with_cache<I: AsRef<[u8]> + Sync>(
    images: &[I],
    configs: &[Config],
    opts: &BatchOptions,
    cache: &ResultCache,
) -> BatchOutput {
    let pool = funseeker_pool::global();
    let disk = opts.disk_cache.as_ref().map(DiskCache::new);
    let (hits0, misses0) = (cache.hits(), cache.misses());

    // ---- Content dedup: hash every image, group exact duplicates. ----
    // Hashing runs at memory speed and parallelizes trivially, so it
    // happens as one flat pool batch before the pipeline starts.
    let hashes: Vec<u64> = pool.run(images.iter().map(|b| || hash_bytes(b.as_ref())).collect());
    let mut unique_of_hash: HashMap<u64, usize> = HashMap::new();
    let mut uniques: Vec<(usize, u64)> = Vec::new(); // (first image idx, hash)
    let mut group: Vec<usize> = Vec::with_capacity(images.len());
    for (i, &h) in hashes.iter().enumerate() {
        if opts.cache {
            let next = uniques.len();
            let u = *unique_of_hash.entry(h).or_insert(next);
            if u == next {
                uniques.push((i, h));
            }
            group.push(u);
        } else {
            // Cache off: no dedup either, every submission pays full
            // price (the measurement the `nocache` eval row wants).
            uniques.push((i, h));
            group.push(i);
        }
    }

    // ---- Pipeline the unique images through parse → sweep → analyze. ----
    let slots: Vec<OnceLock<Option<Vec<Arc<Analysis>>>>> =
        (0..uniques.len()).map(|_| OnceLock::new()).collect();
    let ballast = Ballast::new(if pool.workers() == 0 {
        // Zero workers means tasks only run when the submitter drains
        // the queue at scope exit; blocking admission would deadlock.
        usize::MAX
    } else {
        opts.max_inflight_bytes
    });
    let parse_ns = AtomicU64::new(0);
    let sweep_ns = AtomicU64::new(0);
    let analyze_ns = AtomicU64::new(0);
    let stage_stats = Mutex::new(StageStats::default());
    let parse_errors = AtomicUsize::new(0);
    let disk_hits = AtomicU64::new(0);
    let mem_cache = opts.cache.then_some(cache);

    pool.scope(|s| {
        for (u, &(img_idx, image_hash)) in uniques.iter().enumerate() {
            let bytes: &[u8] = images[img_idx].as_ref();

            // Probe the cache hierarchy *before* admitting the binary
            // into the pipeline: a fully-cached image costs its hash
            // plus one map lookup per configuration — no parse, no
            // sweep, no admission. Partial hits carry their resolved
            // prefix into the analyze stage so nothing is looked up
            // twice.
            let mut resolved: Vec<Option<Arc<Analysis>>> = Vec::with_capacity(configs.len());
            let mut missing = 0usize;
            for cfg in configs {
                let hit = mem_cache.and_then(|mem| {
                    let (analysis, source) = probe(mem, disk.as_ref(), image_hash, cfg)?;
                    if source == CacheSource::Disk {
                        disk_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(analysis)
                });
                missing += hit.is_none() as usize;
                resolved.push(hit);
            }
            if missing == 0 {
                let _ = slots[u].set(Some(resolved.into_iter().flatten().collect()));
                continue;
            }

            let est = inflight_estimate(bytes.len());
            ballast.acquire(est);
            let (slots, ballast) = (&slots, &ballast);
            let (parse_ns, sweep_ns, analyze_ns) = (&parse_ns, &sweep_ns, &analyze_ns);
            let (parse_errors, stage_stats) = (&parse_errors, &stage_stats);
            let disk = disk.as_ref(); // Option<&DiskCache> is Copy
            s.spawn(move || {
                // Stage 1: PARSE.
                let t = Instant::now();
                let parsed = parse(bytes);
                parse_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let parsed = match parsed {
                    Ok(p) => p,
                    Err(_) => {
                        // Failures are never cached: a future fixed
                        // image hashes differently anyway, and hostile
                        // inputs must not leave residue behind.
                        parse_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = slots[u].set(None);
                        ballast.release(est);
                        return;
                    }
                };
                s.spawn(move || {
                    // Stage 2: SWEEP (the shared disassembly pass).
                    let t = Instant::now();
                    let prepared = prepare_for(parsed, configs, &resolved);
                    sweep_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    s.spawn(move || {
                        // Stage 3: ANALYZE the configurations the probe
                        // left unresolved — one plan rebuild over the
                        // shared sweep, then per-config set algebra.
                        let t = Instant::now();
                        let (per_config, stage) = compute_missing(
                            image_hash, configs, resolved, &prepared, mem_cache, disk,
                        );
                        analyze_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        stage_stats.lock().unwrap().merge(&stage);
                        let _ = slots[u].set(Some(per_config));
                        ballast.release(est);
                    });
                });
            });
        }
    });

    // ---- Fan results back out to the submission order. ----
    let results = group
        .iter()
        .map(|&u| match slots[u].get().expect("scope joined every pipeline stage") {
            None => vec![None; configs.len()],
            Some(per_config) => per_config.iter().cloned().map(Some).collect(),
        })
        .collect();

    BatchOutput {
        results,
        stats: BatchStats {
            binaries: images.len(),
            unique_images: uniques.len(),
            parse_errors: parse_errors.into_inner(),
            cache_hits: cache.hits() - hits0,
            cache_misses: cache.misses() - misses0,
            disk_hits: disk_hits.into_inner(),
            parse_ns: parse_ns.into_inner(),
            sweep_ns: sweep_ns.into_inner(),
            analyze_ns: analyze_ns.into_inner(),
            stage: stage_stats.into_inner().unwrap(),
            peak_inflight_bytes: ballast.peak(),
        },
    }
}

/// Which cache layer served a [`probe`] hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// The in-memory [`ResultCache`].
    Memory,
    /// The on-disk layer (the entry was promoted into memory on the way
    /// out, so a repeat probe hits [`CacheSource::Memory`]).
    Disk,
}

/// Probes the cache hierarchy for one (image, configuration) result —
/// the *probe-before-admission* step the scheduler runs before letting
/// a binary into the pipeline, public so a long-running server can
/// serve fully-cached submissions without paying parse, sweep, or
/// admission.
///
/// A memory hit costs one sharded map lookup. On a memory miss the disk
/// layer (when given) is consulted, and a disk hit is promoted into the
/// memory cache. Hit/miss counters on `mem` are updated as usual.
pub fn probe(
    mem: &ResultCache,
    disk: Option<&DiskCache>,
    image_hash: u64,
    config: &Config,
) -> Option<(Arc<Analysis>, CacheSource)> {
    let key = cache_key(image_hash, config);
    if let Some(hit) = mem.get(key) {
        return Some((hit, CacheSource::Memory));
    }
    let analysis = disk?.load(key)?;
    let shared = Arc::new(analysis);
    mem.insert(key, shared.clone());
    Some((shared, CacheSource::Disk))
}

/// One image analyzed under a set of configurations by
/// [`analyze_hashed`], with the same per-stage accounting the batch
/// scheduler keeps.
#[derive(Debug)]
pub struct ImageAnalysis {
    /// `per_config[j]` is the analysis under `configs[j]`; cache hits
    /// and duplicate submissions share `Arc`s.
    pub per_config: Vec<Arc<Analysis>>,
    /// Configurations served from a cache layer without recomputation.
    pub cache_hits: usize,
    /// Cache hits the disk layer (rather than memory) served.
    pub disk_hits: usize,
    /// Wall nanoseconds in the parse stage (0 when fully cached).
    pub parse_ns: u64,
    /// Wall nanoseconds in the sweep stage (0 when fully cached).
    pub sweep_ns: u64,
    /// Wall nanoseconds in the analyze stage (0 when fully cached).
    pub analyze_ns: u64,
    /// Core-analyzer per-stage counters for the non-cached
    /// configurations (all-zero when fully cached).
    pub stage: StageStats,
}

/// Analyzes one already-hashed image under every configuration in
/// `configs` — the synchronous single-submission path of the serving
/// layer, equivalent to a one-image [`run_with_cache`] on the calling
/// thread.
///
/// Probes the cache hierarchy first; parse and sweep run only when at
/// least one configuration misses. Results land in the caches on the
/// way out, and the calling thread's scratch arena is reused across
/// calls (one arena per long-lived handler thread). `image_hash` must
/// be [`hash_bytes`]`(bytes)` — it is the content half of the cache
/// key, so a wrong hash would poison the cache.
///
/// The output is **identical** to a fresh sequential
/// [`funseeker::prepare`] + [`funseeker::FunSeeker::identify_prepared`]; parse
/// failures return the underlying error and leave no cache residue.
pub fn analyze_hashed(
    bytes: &[u8],
    image_hash: u64,
    configs: &[Config],
    mem: Option<&ResultCache>,
    disk: Option<&DiskCache>,
) -> Result<ImageAnalysis, funseeker::Error> {
    let mut out = ImageAnalysis {
        per_config: Vec::with_capacity(configs.len()),
        cache_hits: 0,
        disk_hits: 0,
        parse_ns: 0,
        sweep_ns: 0,
        analyze_ns: 0,
        stage: StageStats::default(),
    };
    let mut resolved: Vec<Option<Arc<Analysis>>> = Vec::with_capacity(configs.len());
    let mut missing = 0usize;
    for cfg in configs {
        let hit = mem.and_then(|m| probe(m, disk, image_hash, cfg));
        match &hit {
            Some((_, CacheSource::Disk)) => {
                out.cache_hits += 1;
                out.disk_hits += 1;
            }
            Some((_, CacheSource::Memory)) => out.cache_hits += 1,
            None => missing += 1,
        }
        resolved.push(hit.map(|(a, _)| a));
    }
    if missing == 0 {
        out.per_config = resolved.into_iter().flatten().collect();
        return Ok(out);
    }

    let t = Instant::now();
    let parsed = parse(bytes)?;
    out.parse_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let prepared = prepare_for(parsed, configs, &resolved);
    out.sweep_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let (per_config, stage) = compute_missing(image_hash, configs, resolved, &prepared, mem, disk);
    out.per_config = per_config;
    out.stage = stage;
    out.analyze_ns = t.elapsed().as_nanos() as u64;
    Ok(out)
}

/// The shared sweep for the configurations the cache probe left
/// unresolved: with the instruction stream, in the same pass, when one
/// of them reads it.
fn prepare_for<'a>(
    parsed: Parsed<'a>,
    configs: &[Config],
    resolved: &[Option<Arc<Analysis>>],
) -> Prepared<'a> {
    if configs.iter().zip(resolved).any(|(c, hit)| hit.is_none() && c.reads_stream()) {
        Prepared::from_parsed_with_stream(parsed)
    } else {
        Prepared::from_parsed(parsed)
    }
}

/// Analyzes every configuration the cache probe left unresolved, with
/// the worker's scratch arena, and fills the cache layers on the way
/// out. The caller has already established that the cache hierarchy
/// misses each unresolved key.
///
/// This is where the shared [`AnalysisPlan`] pays off: the plan is
/// rebuilt **once** per image, on the first miss — one pass over the
/// parse and the sweep that materializes every config-invariant
/// primitive — and each missing configuration is then derived from it
/// by set algebra. Also returns the per-stage counters this call
/// charged.
fn compute_missing(
    image_hash: u64,
    configs: &[Config],
    resolved: Vec<Option<Arc<Analysis>>>,
    prepared: &Prepared<'_>,
    cache: Option<&ResultCache>,
    disk: Option<&DiskCache>,
) -> (Vec<Arc<Analysis>>, StageStats) {
    WORKSPACE.with(|w| {
        let (scratch, plan) = &mut *w.borrow_mut();
        let mut rebuilt = false;
        let per_config = configs
            .iter()
            .zip(resolved)
            .map(|(config, hit)| {
                hit.unwrap_or_else(|| {
                    if !rebuilt {
                        plan.rebuild(&prepared.parsed, &prepared.index, scratch);
                        rebuilt = true;
                    }
                    let analysis = plan.derive(config, &prepared.parsed, &prepared.index, scratch);
                    let shared = Arc::new(analysis);
                    if let Some(mem) = cache {
                        mem.insert(cache_key(image_hash, config), shared.clone());
                        if let Some(d) = disk {
                            d.store(image_hash, config, &shared);
                        }
                    }
                    shared
                })
            })
            .collect();
        (per_config, scratch.take_stats())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use funseeker::FunSeeker;

    fn own_exe() -> Vec<u8> {
        std::fs::read("/proc/self/exe").unwrap()
    }

    #[test]
    fn matches_fresh_sequential_analysis() {
        let image = own_exe();
        let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
        let out = run(std::slice::from_ref(&image), &configs, &BatchOptions::default());
        let prepared = funseeker::prepare(&image).unwrap();
        for (j, cfg) in configs.iter().enumerate() {
            let fresh = FunSeeker::with_config(*cfg).identify_prepared(&prepared);
            assert_eq!(*out.results[0][j].as_ref().unwrap().as_ref(), fresh, "config {j}");
        }
        assert_eq!(out.stats.binaries, 1);
        assert_eq!(out.stats.unique_images, 1);
        assert_eq!(out.stats.parse_errors, 0);
        assert!(out.stats.parse_ns > 0 && out.stats.sweep_ns > 0 && out.stats.analyze_ns > 0);
        // The plan-derived analyze stage charges the per-stage counters.
        assert!(out.stats.stage.total_ns() > 0);
        assert!(out.stats.stage.entry_candidates > 0);
        assert!(out.stats.stage.final_candidates > 0);
    }

    #[test]
    fn the_sweep_builds_the_stream_only_for_a_missing_reader() {
        let image = own_exe();
        let sweep = |configs: &[Config], resolved: &[Option<Arc<Analysis>>]| {
            prepare_for(parse(&image).unwrap(), configs, resolved).index.has_stream()
        };
        let interproc = Config { interproc: true, ..Config::c4() };
        let hit = Some(Arc::new(FunSeeker::new().identify(&image).unwrap()));
        assert!(!sweep(&[Config::c4()], &[None]), "Algorithm 1 reads no stream");
        assert!(sweep(&[Config::c4(), interproc], &[None, None]), "one pass for both");
        assert!(!sweep(&[Config::c4(), interproc], &[None, hit]), "the reader was a cache hit");
        assert!(
            !sweep(&[Config { reach_prune: true, ..Config::c4() }], &[None]),
            "nothing to prune"
        );
        assert!(sweep(&[Config { reach_prune: true, ..Config::c3() }], &[None]), "J can be pruned");
    }

    #[test]
    fn extension_configs_match_fresh_sequential_analysis() {
        // Mixes the extension toggles with the pattern-scan `E` input
        // (which re-keys the plan) and unfiltered tail-call selection,
        // through the full batch path.
        let image = own_exe();
        let configs = [
            Config::c4(),
            Config { reach_prune: true, ..Config::c4() },
            Config { interproc: true, ..Config::c4() },
            Config { endbr_pattern_scan: true, ..Config::c4() },
            Config { filter_endbr: false, ..Config::c4() },
        ];
        let out = run(std::slice::from_ref(&image), &configs, &BatchOptions::default());
        let prepared = funseeker::prepare(&image).unwrap();
        for (j, cfg) in configs.iter().enumerate() {
            let fresh = FunSeeker::with_config(*cfg).identify_prepared(&prepared);
            assert_eq!(*out.results[0][j].as_ref().unwrap().as_ref(), fresh, "config {j}");
        }
    }

    #[test]
    fn duplicates_are_analyzed_once_and_share_arcs() {
        let image = own_exe();
        let corpus = vec![image.clone(), image.clone(), image];
        let out = run(&corpus, &[Config::c4()], &BatchOptions::default());
        assert_eq!(out.stats.unique_images, 1);
        let a0 = out.results[0][0].as_ref().unwrap();
        let a2 = out.results[2][0].as_ref().unwrap();
        assert!(Arc::ptr_eq(a0, a2));
    }

    #[test]
    fn warm_rerun_hits_the_shared_cache() {
        let image = own_exe();
        let cache = ResultCache::new();
        let opts = BatchOptions::default();
        let configs = [Config::c4(), Config::c1()];
        let cold = run_with_cache(&[&image[..]], &configs, &opts, &cache);
        assert_eq!(cold.stats.cache_hits, 0);
        let warm = run_with_cache(&[&image[..]], &configs, &opts, &cache);
        assert_eq!(warm.stats.cache_hits, configs.len() as u64);
        assert_eq!(warm.stats.cache_misses, 0);
        for j in 0..configs.len() {
            assert!(Arc::ptr_eq(
                cold.results[0][j].as_ref().unwrap(),
                warm.results[0][j].as_ref().unwrap(),
            ));
        }
        assert!((warm.stats.hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parse_failures_yield_none_and_never_poison() {
        let image = own_exe();
        let garbage = b"not an elf at all".to_vec();
        let cache = ResultCache::new();
        let opts = BatchOptions::default();
        let corpus = vec![garbage.clone(), image, garbage];
        let out = run_with_cache(&corpus, &[Config::c4()], &opts, &cache);
        assert!(out.results[0][0].is_none());
        assert!(out.results[1][0].is_some());
        assert!(out.results[2][0].is_none());
        assert_eq!(out.stats.parse_errors, 1, "dedup parses the garbage once");
        // Only the successful analysis was cached.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tight_memory_bound_still_completes() {
        let image = own_exe();
        let corpus = vec![image.clone(), image.clone(), image.clone(), image];
        let opts = BatchOptions {
            cache: false, // no dedup: four full pipelines contend
            max_inflight_bytes: 1,
            ..Default::default()
        };
        let out = run(&corpus, &[Config::c4()], &opts);
        assert!(out.results.iter().all(|r| r[0].is_some()));
        assert_eq!(out.stats.unique_images, 4);
        // One-at-a-time admission: the peak is a single binary's estimate.
        assert_eq!(out.stats.peak_inflight_bytes, inflight_estimate(corpus[0].len()));
    }

    #[test]
    fn analyze_hashed_matches_run_and_fills_cache() {
        let image = own_exe();
        let configs: Vec<Config> = Config::table2().iter().map(|&(_, c)| c).collect();
        let cache = ResultCache::new();
        let hash = hash_bytes(&image);
        let one = analyze_hashed(&image, hash, &configs, Some(&cache), None).unwrap();
        assert_eq!(one.cache_hits, 0);
        let out = run(std::slice::from_ref(&image), &configs, &BatchOptions::default());
        for j in 0..configs.len() {
            assert_eq!(one.per_config[j].as_ref(), out.results[0][j].as_ref().unwrap().as_ref());
        }
        // A repeat call is fully served by the cache, skipping the
        // front end entirely.
        let again = analyze_hashed(&image, hash, &configs, Some(&cache), None).unwrap();
        assert_eq!(again.cache_hits, configs.len());
        assert_eq!(again.parse_ns, 0);
        for j in 0..configs.len() {
            assert!(Arc::ptr_eq(&one.per_config[j], &again.per_config[j]));
        }
        // Parse failures propagate and leave no cache residue.
        let before = cache.len();
        let bad = analyze_hashed(b"junk", hash_bytes(b"junk"), &configs, Some(&cache), None);
        assert!(bad.is_err());
        assert_eq!(cache.len(), before);
    }

    #[test]
    fn empty_corpus_and_empty_configs() {
        let out = run::<Vec<u8>>(&[], &[Config::c4()], &BatchOptions::default());
        assert!(out.results.is_empty());
        let image = own_exe();
        let out = run(&[image], &[], &BatchOptions::default());
        assert_eq!(out.results.len(), 1);
        assert!(out.results[0].is_empty());
    }

    #[test]
    fn disk_layer_serves_a_fresh_memory_cache() {
        let dir =
            std::env::temp_dir().join(format!("funseeker-batch-sched-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let image = own_exe();
        let opts = BatchOptions { disk_cache: Some(dir.clone()), ..Default::default() };
        let first = run(&[&image[..]], &[Config::c4()], &opts);
        assert_eq!(first.stats.disk_hits, 0);
        // New in-memory cache (fresh `run`), same disk directory.
        let second = run(&[&image[..]], &[Config::c4()], &opts);
        assert_eq!(second.stats.disk_hits, 1);
        assert_eq!(second.results[0][0].as_ref().unwrap(), first.results[0][0].as_ref().unwrap(),);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
