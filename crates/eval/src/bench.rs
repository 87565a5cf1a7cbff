//! The report layer under every `experiments` benchmark harness.
//!
//! A *trajectory* is a committed JSON document (`BENCH_sweep.json`,
//! `BENCH_batch.json`, `BENCH_io.json`) that accumulates one entry per
//! measured run, so the repository records how throughput evolved across
//! changes and CI can gate on the newest committed entry. The workspace
//! has no serde; the format is line-oriented by construction — an entry
//! starts at `    {"label":`, holds one row object per line and closes at
//! `    ]}` — so this module writes and reads documents as lines.
//!
//! A harness only measures. It describes its run as an [`Entry`] (header
//! fields, the [`Host`], one [`Row`] per measured configuration) and
//! implements [`Report`]; everything else is shared: [`Entry::write`]
//! renders the entry, [`append`] adds it to a document, [`last_value`] and
//! [`last_row_meta`] read a committed document back, and [`ratio_gate`]
//! is the one `--check` throughput gate.

use std::fmt;

use funseeker_disasm::KernelTier;

use crate::report::Table;

/// Schema tag of `BENCH_sweep.json` (perf, callgraph and multicore
/// sweep entries).
pub const SWEEP: &str = "funseeker-bench-sweep-v1";
/// Schema tag of `BENCH_batch.json` (batch, analyze, serve and multicore
/// aggregate entries).
pub const BATCH: &str = "funseeker-bench-batch-v1";
/// Schema tag of `BENCH_io.json`.
pub const IO: &str = "funseeker-bench-io-v1";

/// One field value, in one of the number formats the trajectory files
/// use.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, written as an integer.
    Int(u64),
    /// A string, written JSON-quoted.
    Str(String),
    /// A float with one decimal (throughputs).
    F1(f64),
    /// A float with three decimals (milliseconds).
    F3(f64),
    /// A float with four decimals (ratios).
    F4(f64),
}

impl Value {
    /// The numeric value, unrounded; `None` for strings.
    fn num(&self) -> Option<f64> {
        match *self {
            Value::Int(v) => Some(v as f64),
            Value::Str(_) => None,
            Value::F1(v) | Value::F3(v) | Value::F4(v) => Some(v),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::F1(v) => write!(f, "{v:.1}"),
            Value::F3(v) => write!(f, "{v:.3}"),
            Value::F4(v) => write!(f, "{v:.4}"),
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

/// A named value: one `"name": value` pair of a header or row.
pub type Field = (&'static str, Value);

/// One measured configuration: the `config` name and its fields, in the
/// order they are written.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The row's `config` name, which gates look rows up by.
    pub config: String,
    /// Every other field.
    pub fields: Vec<Field>,
}

impl Row {
    /// A row named `config`.
    pub fn new(config: impl Into<String>, fields: Vec<Field>) -> Row {
        Row { config: config.into(), fields }
    }

    fn value(&self, field: &str) -> Option<f64> {
        self.fields.iter().find(|(name, _)| *name == field)?.1.num()
    }
}

/// One run of a harness as a trajectory entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Fields describing the run as a whole, written before the host.
    pub header: Vec<Field>,
    /// Execution environment of the run.
    pub host: Host,
    /// One row per measured configuration.
    pub rows: Vec<Row>,
}

impl Entry {
    /// The entry as the JSON object literal a document holds; `label`
    /// names the code state being measured.
    pub fn write(&self, label: &str) -> String {
        let mut s = format!("    {{\"label\": {label:?}, ");
        for (name, value) in &self.header {
            s.push_str(&format!("\"{name}\": {value}, "));
        }
        let h = &self.host;
        s.push_str(&format!(
            "\"cores_used\": {}, \"avail_par\": {}, \"tier\": {:?}, \"rows\": [\n",
            h.cores_used, h.available_parallelism, h.tier
        ));
        for (i, row) in self.rows.iter().enumerate() {
            s.push_str(&format!("      {{\"config\": {:?}", row.config));
            for (name, value) in &row.fields {
                s.push_str(&format!(", \"{name}\": {value}"));
            }
            s.push_str(if i + 1 < self.rows.len() { "},\n" } else { "}\n" });
        }
        s.push_str("    ]}");
        s
    }

    /// The fresh value of `field` on the row named `config`.
    pub fn value(&self, config: &str, field: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.config == config)?.value(field)
    }

    /// The rows as a table: a `config` column, then one column per field
    /// of the first row, in the trajectory's number formats. Every row
    /// must carry the same fields.
    pub fn table(&self) -> Table {
        let names = self.rows.first().map_or(&[][..], |r| &r.fields[..]);
        let mut t = Table::new(std::iter::once("config").chain(names.iter().map(|(n, _)| *n)));
        for r in &self.rows {
            t.row(std::iter::once(r.config.clone()).chain(r.fields.iter().map(|(_, v)| match v {
                Value::Str(s) => s.clone(),
                v => v.to_string(),
            })));
        }
        t
    }
}

/// What every benchmark harness's report offers the `experiments`
/// driver.
pub trait Report {
    /// Schema of the trajectory document the entry appends to.
    const SCHEMA: &'static str;
    /// What the measurement does, for the progress line on stderr.
    const DOING: &'static str;
    /// The heading the report prints under.
    const TITLE: &'static str;

    /// The run as a trajectory entry.
    fn entry(&self) -> Entry;

    /// Human-readable report.
    fn render(&self) -> String;

    /// The `--check` verdict against a committed document: the
    /// harness's own checks, then [`ratio_gate`] on its gated row.
    fn check(&self, committed: &str, min_ratio: f64) -> Result<String, String>;

    /// Appends this run as entry `label` to an existing document, or
    /// starts a fresh one when `existing` is `None` or unparsable.
    fn append_to(&self, existing: Option<&str>, label: &str) -> String {
        append(existing, Self::SCHEMA, self.entry().write(label))
    }
}

/// Appends one written entry to an existing document (or starts a fresh
/// one when `existing` is `None` or unparsable).
pub fn append(existing: Option<&str>, schema: &str, entry: String) -> String {
    let mut entries = existing.map(extract_entries).unwrap_or_default();
    entries.push(entry);
    format!("{{\n  \"schema\": {schema:?},\n  \"entries\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Pulls the written entries back out of a document.
fn extract_entries(doc: &str) -> Vec<String> {
    let mut entries = Vec::new();
    let mut current: Option<String> = None;
    for line in doc.lines() {
        if line.starts_with("    {\"label\":") {
            current = Some(line.to_owned());
        } else if let Some(cur) = current.as_mut() {
            cur.push('\n');
            if line.trim_start().starts_with("]}") {
                // Strip only the comma that separates entry objects;
                // commas *inside* an entry (between its row objects)
                // are part of the entry and must survive a round trip.
                cur.push_str(line.trim_end_matches(','));
                entries.push(current.take().expect("current entry exists"));
            } else {
                cur.push_str(line);
            }
        }
    }
    entries
}

/// The number at the start of `rest`.
fn leading_number(rest: &str) -> Option<f64> {
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The newest value of numeric `field` on the row named `config`,
/// scanning the whole document so later entries win. A `config` row
/// without the field ends the scan with `None`.
pub fn last_value(doc: &str, config: &str, field: &str) -> Option<f64> {
    let needle = format!("\"config\": {config:?}");
    let field_key = format!("\"{field}\": ");
    let mut last = None;
    for line in doc.lines().filter(|l| l.contains(&needle)) {
        let (_, rest) = line.split_once(&field_key)?;
        last = leading_number(rest).or(last);
    }
    last
}

/// The newest value of numeric `field` on the *entry header* line of the
/// newest entry whose rows include `config`. This is how gates read the
/// host metadata (`cores_used`, `avail_par`) recorded next to a row:
/// older entries predating the metadata return `None`, which gates treat
/// as "comparable" for continuity.
pub fn last_row_meta(doc: &str, config: &str, field: &str) -> Option<f64> {
    let needle = format!("\"config\": {config:?}");
    let field_key = format!("\"{field}\": ");
    let mut header: Option<&str> = None;
    let mut last = None;
    for line in doc.lines() {
        if line.starts_with("    {\"label\":") {
            header = Some(line);
        } else if line.contains(&needle) {
            let rest = header.and_then(|h| h.split_once(&field_key)).map(|(_, rest)| rest);
            last = rest.and_then(leading_number).or(last);
        }
    }
    last
}

/// Minimum and sample standard deviation of a set of wall-time samples
/// (seconds in, seconds out). One sample has zero spread by definition.
///
/// Each row reports the **best-of-N** wall time (the least noisy point
/// estimate on a busy machine) plus the spread, which [`ratio_gate`]
/// turns into a wider threshold.
pub fn best_and_sd(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "no samples");
    let best = samples.iter().copied().fold(f64::MAX, f64::min);
    if samples.len() < 2 {
        return (best, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var =
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (samples.len() - 1) as f64;
    (best, var.sqrt())
}

/// Extra allowance from measurement noise: three combined relative
/// standard deviations of the two runs, capped at 25 % so a wildly noisy
/// run cannot excuse an arbitrary slowdown. A side that recorded no
/// spread contributes zero.
fn noise_tolerance(rel_committed: f64, rel_fresh: f64) -> f64 {
    let combined = (rel_committed * rel_committed + rel_fresh * rel_fresh).sqrt();
    (3.0 * combined).clamp(0.0, 0.25)
}

/// The `--check` throughput gate shared by every harness.
///
/// Compares `field` on the fresh entry's `config` row against the newest
/// committed value of the same row:
///
/// * no committed value, or no fresh one, is an `Err`;
/// * a committed entry measured at another pool width (`cores_used`) is
///   not comparable, and the gate passes with a note;
/// * otherwise the run fails when `fresh / committed` falls below
///   `min_ratio`, widened by the rows' recorded noise (`sd_ms / ms` on
///   each side; a row without `ms`/`sd_ms` has none).
pub fn ratio_gate(
    committed: &str,
    fresh: &Entry,
    config: &str,
    field: &str,
    min_ratio: f64,
) -> Result<String, String> {
    let Some(baseline) = last_value(committed, config, field) else {
        return Err(format!("committed trajectory has no {config} {field} entry"));
    };
    let Some(now) = fresh.value(config, field) else {
        return Err(format!("fresh measurement has no {config} {field} row"));
    };
    let committed_cores = last_row_meta(committed, config, "cores_used");
    if !fresh.host.comparable_with(committed_cores) {
        return Ok(format!(
            "{config} skipped: committed entry was measured with {} cores, this run uses {} — \
             not comparable",
            committed_cores.unwrap_or(0.0),
            fresh.host.cores_used
        ));
    }
    let rel = |sd: Option<f64>, ms: Option<f64>| {
        sd.zip(ms).map_or(0.0, |(sd, ms)| if ms > 0.0 { sd / ms } else { 0.0 })
    };
    let tol = noise_tolerance(
        rel(last_value(committed, config, "sd_ms"), last_value(committed, config, "ms")),
        rel(fresh.value(config, "sd_ms"), fresh.value(config, "ms")),
    );
    let threshold = min_ratio * (1.0 - tol);
    let ratio = now / baseline;
    let msg = format!(
        "{config} {field}: {now:.1} vs committed {baseline:.1} ({:.0}% of baseline, threshold \
         {:.0}% incl. {:.0}% noise tolerance)",
        ratio * 100.0,
        threshold * 100.0,
        tol * 100.0,
    );
    if ratio < threshold {
        Err(msg)
    } else {
        Ok(msg)
    }
}

/// The execution environment of one bench run, stamped onto every
/// entry.
///
/// Throughput comparisons across different pool widths are meaningless
/// (a "regression" that is really a narrower host would mask real ones
/// and fail good runs), so [`ratio_gate`] compares the committed entry's
/// `cores_used` with the fresh run's before comparing numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Worker-pool width the run used (after `FUNSEEKER_CORES` /
    /// `--cores` plumbing).
    pub cores_used: usize,
    /// `available_parallelism()` on the host.
    pub available_parallelism: usize,
    /// Active kernel tier name (`avx2`, `sse2`, `swar`, `scalar`).
    pub tier: String,
}

/// Snapshot of the current process's execution environment.
pub fn host() -> Host {
    Host {
        cores_used: funseeker_pool::global().workers(),
        available_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        tier: format!("{:?}", KernelTier::active()).to_ascii_lowercase(),
    }
}

impl Host {
    /// Whether a committed entry's recorded width (from
    /// [`last_row_meta`]) is comparable with this run. `None` — an entry
    /// written before host metadata existed — is treated as comparable.
    pub fn comparable_with(&self, committed_cores: Option<f64>) -> bool {
        committed_cores.is_none_or(|c| c == self.cores_used as f64)
    }
}

/// A fixed host, so golden entries do not depend on the test machine.
#[cfg(test)]
pub(crate) fn test_host() -> Host {
    Host { cores_used: 2, available_parallelism: 8, tier: "avx2".into() }
}

/// The gated row of a synthetic run, for the gate tests: its value, its
/// `ms ± sd_ms` spread and the run's pool width.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gated {
    pub(crate) value: f64,
    pub(crate) ms: f64,
    pub(crate) sd_ms: f64,
    pub(crate) cores: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cold: f64) -> Entry {
        Entry {
            header: vec![("reps", 2usize.into())],
            host: test_host(),
            rows: vec![
                Row::new("cold", vec![("bins_per_s", Value::F1(cold))]),
                Row::new("warm", vec![("bins_per_s", Value::F1(cold * 10.0))]),
            ],
        }
    }

    #[test]
    fn values_use_the_trajectory_formats() {
        let row = Row::new(
            "x",
            vec![
                ("n", 7usize.into()),
                ("unit", "MB/s".into()),
                ("a", Value::F1(2.25)),
                ("b", Value::F3(1.0)),
                ("c", Value::F4(0.5)),
            ],
        );
        let e = Entry { header: vec![], host: test_host(), rows: vec![row] };
        assert_eq!(
            e.write("l"),
            "    {\"label\": \"l\", \"cores_used\": 2, \"avail_par\": 8, \"tier\": \"avx2\", \
             \"rows\": [\n      {\"config\": \"x\", \"n\": 7, \"unit\": \"MB/s\", \"a\": 2.2, \
             \"b\": 1.000, \"c\": 0.5000}\n    ]}"
        );
        assert_eq!(e.value("x", "a"), Some(2.25), "fresh values are unrounded");
        assert_eq!(e.value("x", "unit"), None);
        let table = e.table().render();
        assert!(table.contains("| config | n | unit | a   | b     | c      |"), "{table}");
        assert!(table.contains("| x      | 7 | MB/s | 2.2 | 1.000 | 0.5000 |"), "{table}");
    }

    #[test]
    fn document_append_and_extract_round_trip() {
        let doc = append(None, "test-v1", entry(10.0).write("pre"));
        assert!(doc.starts_with("{\n  \"schema\": \"test-v1\",\n  \"entries\": [\n"));
        assert!(doc.ends_with("    ]}\n  ]\n}\n"));
        assert_eq!(extract_entries(&doc), vec![entry(10.0).write("pre")]);
        let doc2 = append(Some(&doc), "test-v1", entry(20.0).write("post"));
        // Entries survive a round trip byte for byte — in particular the
        // commas between an entry's row objects.
        assert_eq!(
            extract_entries(&doc2),
            vec![entry(10.0).write("pre"), entry(20.0).write("post")]
        );
    }

    #[test]
    fn last_value_prefers_newest_entry() {
        let doc = append(None, "test-v1", entry(10.0).write("pre"));
        let doc = append(Some(&doc), "test-v1", entry(20.0).write("post"));
        assert_eq!(last_value(&doc, "cold", "bins_per_s"), Some(20.0));
        assert_eq!(last_value(&doc, "warm", "bins_per_s"), Some(200.0));
        assert_eq!(last_value(&doc, "absent_config", "bins_per_s"), None);
        assert_eq!(last_value(&doc, "cold", "absent_field"), None);
    }

    #[test]
    fn rows_sharing_a_name_suffix_do_not_alias() {
        // `batch` and `analyze` append to one document: the batch gate's
        // `cold` lookup must never pick up analyze's `analyze_cold` row.
        let analyze = |bins: f64| Entry {
            header: vec![],
            host: test_host(),
            rows: vec![Row::new("analyze_cold", vec![("bins_per_s", Value::F1(bins))])],
        };
        let doc = append(None, "test-v1", analyze(1066.0).write("analyze"));
        assert_eq!(last_value(&doc, "analyze_cold", "bins_per_s"), Some(1066.0));
        assert_eq!(last_value(&doc, "cold", "bins_per_s"), None);
        assert_eq!(last_row_meta(&doc, "cold", "cores_used"), None);
        let doc = append(Some(&doc), "test-v1", entry(20.0).write("batch"));
        let mut newer = analyze(5000.0);
        newer.host.cores_used = 1;
        let doc = append(Some(&doc), "test-v1", newer.write("analyze2"));
        assert_eq!(last_value(&doc, "cold", "bins_per_s"), Some(20.0));
        assert_eq!(last_row_meta(&doc, "cold", "cores_used"), Some(2.0));
        assert_eq!(last_value(&doc, "analyze_cold", "bins_per_s"), Some(5000.0));
    }

    #[test]
    fn row_meta_comes_from_owning_entry_header() {
        let old = "    {\"label\": \"pre\", \"rows\": [\n      \
                   {\"config\": \"cold\", \"bins_per_s\": 10.0},\n      \
                   {\"config\": \"warm\", \"bins_per_s\": 100.0}\n    ]}";
        let doc = append(None, "test-v1", old.to_owned());
        assert_eq!(last_row_meta(&doc, "cold", "cores_used"), None, "pre-metadata entry");
        let mut new = entry(20.0);
        new.host.cores_used = 4;
        new.rows.truncate(1);
        let doc = append(Some(&doc), "test-v1", new.write("post"));
        assert_eq!(last_row_meta(&doc, "cold", "cores_used"), Some(4.0));
        assert_eq!(last_row_meta(&doc, "cold", "avail_par"), Some(8.0));
        assert_eq!(last_row_meta(&doc, "warm", "cores_used"), None, "row only in old entry");
        assert_eq!(last_row_meta(&doc, "cold", "absent"), None);
    }

    #[test]
    fn best_and_sd_basics() {
        let (best, sd) = best_and_sd(&[3.0, 1.0, 2.0]);
        assert_eq!(best, 1.0);
        assert!((sd - 1.0).abs() < 1e-12);
        assert_eq!(best_and_sd(&[5.0]), (5.0, 0.0));
        assert_eq!(best_and_sd(&[2.0, 2.0, 2.0, 2.0]).1, 0.0);
    }

    #[test]
    fn host_snapshot_is_sane_and_comparability_rules_hold() {
        let h = host();
        assert!(h.cores_used >= 1 && h.available_parallelism >= 1);
        assert!(["avx2", "sse2", "swar", "scalar"].contains(&h.tier.as_str()));
        let h = test_host();
        assert!(h.comparable_with(None), "pre-metadata entries stay comparable");
        assert!(h.comparable_with(Some(2.0)));
        assert!(!h.comparable_with(Some(1.0)), "different width is not comparable");
    }

    const fn gated(value: f64, sd_ms: f64, cores: usize) -> Gated {
        Gated { value, ms: 10.0, sd_ms, cores }
    }

    /// The gate's behaviour, one scenario per line: the committed
    /// entries (oldest first), the fresh run, and whether the check
    /// passes — for a harness that records spread and for one that does
    /// not. A document without the gated row is checked separately.
    #[allow(clippy::type_complexity)]
    const SCENARIOS: &[(&str, &[Gated], Gated, bool, bool)] = &[
        ("same value passes", &[gated(100.0, 0.0, 2)], gated(100.0, 0.0, 2), true, true),
        ("faster passes", &[gated(100.0, 0.0, 2)], gated(500.0, 0.0, 2), true, true),
        ("at the floor passes", &[gated(100.0, 0.0, 2)], gated(70.0, 0.0, 2), true, true),
        ("below the floor fails", &[gated(100.0, 0.0, 2)], gated(65.0, 0.0, 2), false, false),
        // 3% and 4% relative noise widen the 70% floor by 15% to 59.5%.
        ("noise widens the floor", &[gated(100.0, 0.3, 2)], gated(65.0, 0.4, 2), true, false),
        ("beyond the widening fails", &[gated(100.0, 0.3, 2)], gated(58.0, 0.4, 2), false, false),
        // 50% noise on both sides is capped at 25%: the floor is 52.5%.
        ("the cap holds a noisy run", &[gated(100.0, 5.0, 2)], gated(50.0, 5.0, 2), false, false),
        ("inside the cap passes", &[gated(100.0, 5.0, 2)], gated(55.0, 5.0, 2), true, false),
        ("other width skips", &[gated(100.0, 0.0, 4)], gated(10.0, 0.0, 2), true, true),
        (
            "newest entry is the baseline",
            &[gated(1000.0, 0.0, 2), gated(100.0, 0.0, 2)],
            gated(100.0, 0.0, 2),
            true,
            true,
        ),
        (
            "newest entry's width decides",
            &[gated(100.0, 0.0, 4), gated(100.0, 0.0, 2)],
            gated(10.0, 0.0, 2),
            false,
            false,
        ),
        (
            "newest entry's noise widens",
            &[gated(100.0, 0.0, 2), gated(100.0, 0.3, 2)],
            gated(65.0, 0.4, 2),
            true,
            false,
        ),
    ];

    /// Runs every scenario through one harness's real `check`.
    /// `fake(gated)` builds a report whose gated row reads `gated`;
    /// `spread` says whether its rows record `ms`/`sd_ms`;
    /// `missing_ok` whether a document without the row passes.
    fn gate_table<R: Report>(
        name: &str,
        fake: impl Fn(Gated) -> R,
        spread: bool,
        missing_ok: bool,
    ) {
        for &(scenario, committed, fresh, pass, pass_unspread) in SCENARIOS {
            let doc = committed
                .iter()
                .fold(None, |doc: Option<String>, &g| Some(fake(g).append_to(doc.as_deref(), "c")))
                .expect("at least one committed entry");
            let verdict = fake(fresh).check(&doc, 0.7);
            let want = if spread { pass } else { pass_unspread };
            assert_eq!(verdict.is_ok(), want, "{name}: {scenario}: {verdict:?}");
            if scenario == "other width skips" {
                assert!(verdict.unwrap().contains("not comparable"), "{name}: skip note");
            }
        }
        let verdict = fake(gated(100.0, 0.0, 2)).check("", 0.7);
        assert_eq!(verdict.is_ok(), missing_ok, "{name}: missing baseline: {verdict:?}");
    }

    #[test]
    fn every_harness_gates_through_the_shared_ratio_gate() {
        gate_table("perf", crate::perf::PerfReport::fake, true, false);
        gate_table("batch", crate::batch::BatchReport::fake, true, false);
        gate_table("serve", crate::serve::ServeReport::fake, true, false);
        gate_table("io", crate::io::IoReport::fake, true, false);
        gate_table("analyze", crate::analyze::AnalyzeReport::fake, true, false);
        gate_table("callgraph", crate::callgraph::CallGraphReport::fake, true, false);
        gate_table("multicore", crate::multicore::MulticoreReport::fake, false, true);
    }
}
