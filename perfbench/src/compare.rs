//! `funseeker-bench compare A.jsonl B.jsonl`: applies the bounds in
//! `BENCHMARK.json` to two sets of runs, A the parent and B the change.
//!
//! For every workload and end-to-end metric it reports each side's
//! median and quartiles, B's change against A as a share of A's median
//! (positive = worse), and the fraction of pairs B wins. A metric whose
//! spread on either side exceeds its bound is "unresolved", unless
//! every run of B beats every run of A. Otherwise it is a "regression"
//! when B is worse by more than the bound, "improved" when B wins nine
//! tenths of the pairs and the medians differ by more than A's
//! interquartile range, and "within bound" else.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::stats;

/// One end-to-end metric's contract from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Value::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or_else(|| format!("end_to_end entry lacks {k}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Untraced runs of one side, grouped as workload → metric → values in
/// file order, plus failures per workload.
#[derive(Debug, Default)]
pub struct Runs {
    /// Metric values.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Failed units summed per workload.
    pub failed: BTreeMap<String, u64>,
}

/// Parses a run file: one `--json` record per line.
pub fn runs(text: &str) -> Result<Runs, String> {
    let mut out = Runs::default();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let failed = rec.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        *out.failed.entry(workload.to_owned()).or_default() += failed;
        let metrics =
            rec.get("metrics").and_then(Value::as_object).ok_or("record without metrics")?;
        for (name, m) in metrics {
            let v = m.get("value").and_then(Value::as_f64).ok_or("metric without value")?;
            out.values
                .entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Regression,
    /// A spread exceeds the bound: no claim either way.
    Unresolved,
    /// Better, by the pair-win rule.
    Improved,
    /// Not worse by more than the bound.
    WithinBound,
}

/// The comparison of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `(median, q1, q3, n)` of A and of B.
    pub a: (f64, f64, f64, usize),
    /// Same for B.
    pub b: (f64, f64, f64, usize),
    /// B's change against A's median; positive is worse.
    pub worse_by: f64,
    /// Pairs B wins, pairs compared.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(v: &[f64]) -> (f64, f64, f64, usize) {
    let med = stats::median(v).unwrap_or(f64::NAN);
    let (q1, q3) = stats::quartiles(v).unwrap_or((med, med));
    (med, q1, q3, v.len())
}

/// Compares A's and B's values of one metric.
pub fn compare_metric(a: &[f64], b: &[f64], bound: &Bound) -> Row {
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let (sa, sb) = (summary(a), summary(b));
    let worse_by = if bound.lower_is_better { sb.0 - sa.0 } else { sa.0 - sb.0 } / sa.0.abs();
    let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    let spread = |s: (f64, f64, f64, usize)| (s.2 - s.1) / s.0.abs();
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread(sa) > bound.bound || spread(sb) > bound.bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Regression
    } else if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (sb.0 - sa.0).abs() > sa.2 - sa.1
    {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Row { a: sa, b: sb, worse_by, wins: (wins, pairs.len()), verdict }
}

/// Compares two run sets under `bounds`; returns the report and whether
/// any metric regressed or B failed more units than A.
pub fn compare(a: &Runs, b: &Runs, bounds: &[Bound]) -> (String, bool) {
    let mut report = String::new();
    let mut bad = false;
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            let _ = writeln!(report, "{workload}: no runs in B");
            continue;
        };
        for bound in bounds {
            let (Some(va), Some(vb)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                continue;
            };
            let r = compare_metric(va, vb, bound);
            bad |= r.verdict == Verdict::Regression;
            let _ = writeln!(
                report,
                "{workload}/{}: A {:.4} [{:.4}, {:.4}] n={}  B {:.4} [{:.4}, {:.4}] n={}  \
                 worse by {:+.1}% (bound {:.0}%)  B wins {}/{}  {:?}",
                bound.name,
                r.a.0,
                r.a.1,
                r.a.2,
                r.a.3,
                r.b.0,
                r.b.1,
                r.b.2,
                r.b.3,
                100.0 * r.worse_by,
                100.0 * bound.bound,
                r.wins.0,
                r.wins.1,
                r.verdict
            );
        }
        let (fa, fb) = (
            a.failed.get(workload).copied().unwrap_or(0),
            b.failed.get(workload).copied().unwrap_or(0),
        );
        if fb > fa {
            bad = true;
            let _ = writeln!(report, "{workload}: B failed {fb} units, A {fa}");
        }
    }
    (report, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound { name: "latency_mean_ms".into(), lower_is_better: true, bound }
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.02, 9.98, 10.0, 10.1, 9.95];
        assert_eq!(compare_metric(&a, &same, &lower(0.05)).verdict, Verdict::WithinBound);
        let slower = [11.0, 11.1, 10.9, 11.0, 11.05];
        let r = compare_metric(&a, &slower, &lower(0.05));
        assert_eq!(r.verdict, Verdict::Regression);
        assert!((r.worse_by - 0.1).abs() < 1e-9);
        let faster = [9.0, 9.1, 8.9, 9.0, 9.05];
        let r = compare_metric(&a, &faster, &lower(0.05));
        assert_eq!((r.verdict, r.wins), (Verdict::Improved, (5, 5)));
        // Spread wider than the bound: unresolved, unless B beats every A.
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        assert_eq!(compare_metric(&a, &noisy, &lower(0.05)).verdict, Verdict::Unresolved);
        let noisy_fast = [5.0, 7.0, 6.0, 5.5, 6.5];
        assert_eq!(compare_metric(&a, &noisy_fast, &lower(0.05)).verdict, Verdict::Improved);
        // Higher-is-better metrics flip the sign.
        let up = Bound { lower_is_better: false, ..lower(0.05) };
        assert_eq!(compare_metric(&a, &slower, &up).verdict, Verdict::Improved);
    }

    #[test]
    fn reads_run_files_and_bounds() {
        let text = "{\"workload\": \"w\", \"trace\": false, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n\
                    {\"workload\": \"w\", \"trace\": true, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 99, \"unit\": \"ms\"}}}\n\
                    {\"workload\": \"w\", \"trace\": false, \"failed\": 2, \"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"ms\"}}}\n";
        let r = runs(text).unwrap();
        assert_eq!(r.values["w"]["m"], vec![1.5, 2.5]);
        assert_eq!(r.failed["w"], 2);
        let b = bounds("{\"end_to_end\": [{\"name\": \"m\", \"unit\": \"ms\", \"better\": \"lower\", \"bound\": 0.1}]}").unwrap();
        assert_eq!(b, vec![Bound { name: "m".into(), lower_is_better: true, bound: 0.1 }]);
        let (report, bad) = compare(&r, &r, &b);
        assert!(!bad, "{report}");
        assert!(report.contains("w/m"));
    }
}
