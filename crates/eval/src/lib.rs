//! Evaluation harness reproducing the paper's tables and figures.
//!
//! One module per experiment:
//!
//! * [`table1`] — end-branch location distribution (Table I),
//! * [`fig3`] — syntactic-property Venn over all functions (Figure 3),
//! * [`table2`] — configuration ablation ①–④ (Table II),
//! * [`table3`] — tool comparison incl. timing (Table III),
//! * [`failures`] — FN/FP breakdown (§V-C),
//! * [`perf`] — sweep throughput + per-stage counters (`BENCH_sweep.json`),
//! * [`batch`] — batch-engine throughput: flat/nocache/cold/warm/disk
//!   drivers over a duplicated corpus (`BENCH_batch.json`),
//! * [`callgraph`] — call-edge precision/recall vs corpus ground truth
//!   plus graph-build throughput (extension),
//! * [`serve`] — daemon load test: a concurrent client fleet against
//!   the serving layer, duplicate-heavy vs distinct-heavy traffic
//!   (`BENCH_batch.json` rows `serve_dup`/`serve_distinct`),
//! * [`multicore`] — multi-core scaling ladder: morsel-sharded sweep,
//!   corpus aggregate, and distinct-heavy serving vs worker-pool width
//!   (entries in both `BENCH_sweep.json` and `BENCH_batch.json`),
//! * [`manual_endbr`] — the §VI `-mmanual-endbr` ablation,
//! * [`robustness`] — hostile-input mutation campaign (extension).
//!
//! The benchmark harnesses (`perf`, `batch`, `analyze`, `callgraph`,
//! `serve`, `io`, `multicore`) only measure; [`bench`](mod@bench) is the one report
//! layer under them: the trajectory entry writer and reader, the host
//! stamp, and the `--check` ratio gate.
//!
//! Run everything with the `experiments` binary:
//!
//! ```text
//! cargo run --release -p funseeker-eval --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod arm;
pub mod batch;
pub mod bench;
pub mod by_opt;
pub mod callgraph;
pub mod failures;
pub mod fig3;
pub mod groundtruth;
pub mod io;
pub mod manual_endbr;
pub mod metrics;
pub mod multicore;
pub mod perf;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;

pub use metrics::Score;
pub use report::Table;
