//! `--compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, the delta, the declared bound and a verdict. This is
//! how two sets of runs — of one commit, or of a parent and a change — are
//! judged.

use std::collections::BTreeMap;

use crate::driver::Res;
use crate::report::{Declared, MetricDecl, ResultFile};
use crate::stats::{median, spread};

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so the
    /// medians cannot tell.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median and spread (IQR ÷ median) of A, and its run count.
    pub a: (f64, f64, usize),
    /// The same for B.
    pub b: (f64, f64, usize),
    /// How much worse B is, as a share of A's median (negative = better).
    pub worse_by: f64,
    /// Declared bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from its values in A and in B.
pub fn judge(decl: &MetricDecl, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if decl.better == "higher" { (ma - mb) / ma } else { (mb - ma) / ma };
    let bound = decl.bound.unwrap_or(0.0);
    // `setup_s` is the median of a few set-ups of very different workloads
    // and is judged on its medians alone, as the acceptance rule does.
    let steady = decl.name == "setup_s" || (spread(a) <= bound && spread(b) <= bound);
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if !steady {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Values of every end-to-end metric per workload, from a file's untraced
/// runs.
fn collect(file: &ResultFile) -> BTreeMap<(String, String), Vec<f64>> {
    let mut values = BTreeMap::<(String, String), Vec<f64>>::new();
    for run in file.runs.iter().filter(|r| !r.trace) {
        for (name, m) in &run.metrics {
            values.entry((run.workload.clone(), name.clone())).or_default().push(m.value);
        }
    }
    values
}

/// Compares two result files metric by metric.
pub fn compare(declared: &Declared, a: &ResultFile, b: &ResultFile) -> Res<Vec<Row>> {
    let (va, vb) = (collect(a), collect(b));
    let mut rows = Vec::new();
    for workload in &declared.workloads {
        for decl in &declared.end_to_end {
            let key = (workload.name.clone(), decl.name.clone());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else { continue };
            let (worse_by, verdict) = judge(decl, xa, xb);
            rows.push(Row {
                workload: workload.name.clone(),
                metric: decl.name.clone(),
                unit: decl.unit.clone(),
                a: (median(xa), spread(xa), xa.len()),
                b: (median(xb), spread(xb), xb.len()),
                worse_by,
                bound: decl.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no untraced (workload, metric) pair".into());
    }
    Ok(rows)
}

/// Prints the rows; returns whether any regressed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<12} {:<13} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "spread", "B median", "spread", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<12} {:<13} {:>14.4} {:>6.1}% {:>14.4} {:>6.1}% {:>7.1}% {:>5.0}%  {} ({} vs {} runs, {})",
            r.workload,
            r.metric,
            r.a.0,
            100.0 * r.a.1,
            r.b.0,
            100.0 * r.b.1,
            100.0 * r.worse_by,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            },
            r.a.2,
            r.b.2,
            r.unit,
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, better: &str, bound: f64) -> MetricDecl {
        MetricDecl {
            name: name.into(),
            unit: "us".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn a_lower_is_better_metric_regresses_when_it_grows_past_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let d = decl("op_p50_us", "lower", 0.10);
        assert_eq!(judge(&d, &a, &[105.0, 106.0, 104.0, 105.0]).1, Verdict::Ok);
        assert_eq!(judge(&d, &a, &[115.0, 116.0, 114.0, 115.0]).1, Verdict::Regressed);
        assert_eq!(judge(&d, &a, &[80.0, 81.0, 79.0, 80.0]).1, Verdict::Ok);
    }

    #[test]
    fn a_higher_is_better_metric_regresses_when_it_shrinks() {
        let a = [1000.0, 1010.0, 990.0, 1000.0];
        let d = decl("work_per_s", "higher", 0.10);
        assert_eq!(judge(&d, &a, &[850.0, 860.0, 840.0, 850.0]).1, Verdict::Regressed);
        assert_eq!(judge(&d, &a, &[1200.0, 1210.0, 1190.0, 1200.0]).1, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_except_for_setup() {
        let noisy = [80.0, 100.0, 120.0, 100.0, 90.0, 110.0];
        let d = decl("op_p50_us", "lower", 0.10);
        assert_eq!(judge(&d, &noisy, &noisy).1, Verdict::Unresolved);
        assert_eq!(judge(&decl("setup_s", "lower", 0.25), &noisy, &noisy).1, Verdict::Ok);
    }
}
