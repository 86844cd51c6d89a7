//! `wfbench compare A.json B.json`: is set B worse than set A?
//!
//! Each file is a `result.json` holding one or more untraced runs per
//! workload. Per (workload, end-to-end metric) the row gives both
//! medians and quartiles, the ratio B/A with its base, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the
//!   metric's bound;
//! * `unresolved` — it is not, but a side's run-to-run spread is wider
//!   than the bound and the two sides' runs interleave, so "unchanged"
//!   cannot be claimed either;
//! * `ok` — otherwise.
//!
//! Exit is non-zero on any `regressed` row, or when B fails a larger
//! share of its operations than A.

use crate::common::{EndToEnd, Res, END_TO_END};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for one metric from the two sides' per-run values.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    if med_a.is_nan() || med_b.is_nan() || med_a == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive when B is worse, as a share of A's median.
    let worse_by =
        if metric.higher_is_better { (med_a - med_b) / med_a } else { (med_b - med_a) / med_a };
    if worse_by > metric.bound {
        return Verdict::Regressed;
    }
    let noisy = stats::spread_frac(a) > metric.bound || stats::spread_frac(b) > metric.bound;
    let better = |x: f64, y: f64| if metric.higher_is_better { x > y } else { x < y };
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let a_all_better = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    if noisy && !b_all_better && !a_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Per-workload values of a result file's untraced runs.
pub struct RunSet {
    /// workload -> metric -> one value per run.
    pub metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> (attempted, failed) summed over runs.
    pub ops: BTreeMap<String, (f64, f64)>,
    pub header: String,
}

pub fn load(doc: &Json) -> Res<RunSet> {
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("result file has no 'runs' array")?;
    let mut set = RunSet { metrics: BTreeMap::new(), ops: BTreeMap::new(), header: String::new() };
    for run in runs {
        if run.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let wl = run.get("workload").and_then(Json::as_str).ok_or("run without a workload")?;
        let metrics = run.get("metrics").and_then(Json::as_obj).ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.metrics.entry(wl.into()).or_default().entry(name.clone()).or_default().push(v);
            }
        }
        let ops = set.ops.entry(wl.into()).or_insert((0.0, 0.0));
        ops.0 += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        ops.1 += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    }
    if let Some(h) = doc.get("header") {
        let field = |k: &str| match h.get(k) {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(v)) => v.to_string(),
            Some(Json::Bool(b)) => b.to_string(),
            _ => "?".into(),
        };
        set.header = format!(
            "commit {}{} nproc {} par_threads {} seed {}",
            field("git_commit"),
            if h.get("git_dirty").and_then(Json::as_bool) == Some(true) { "+dirty" } else { "" },
            field("nproc"),
            field("par_threads"),
            field("seed")
        );
    }
    Ok(set)
}

/// Renders the comparison; the flag says whether B regressed.
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut text = format!("A: {}\nB: {}\n", a.header, b.header);
    let mut regressed = false;
    text.push_str(&format!(
        "{:<16} {:<17} {:>11} {:>23} {:>11} {:>23} {:>9}  {}\n",
        "workload",
        "metric",
        "A median",
        "A q1..q3 (n)",
        "B median",
        "B q1..q3 (n)",
        "B/A",
        "verdict"
    ));
    for (wl, a_metrics) in &a.metrics {
        let Some(b_metrics) = b.metrics.get(wl) else {
            text.push_str(&format!("{wl:<16} missing from B\n"));
            regressed = true;
            continue;
        };
        for metric in &END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(metric.name), b_metrics.get(metric.name))
            else {
                continue;
            };
            let v = verdict(metric, av, bv);
            regressed |= v == Verdict::Regressed;
            let (aq1, am, aq3) = stats::quartiles(av);
            let (bq1, bm, bq3) = stats::quartiles(bv);
            text.push_str(&format!(
                "{wl:<16} {:<17} {am:>11.4} {:>23} {bm:>11.4} {:>23} {:>9.4}  {}\n",
                metric.name,
                format!("{aq1:.4}..{aq3:.4} ({})", av.len()),
                format!("{bq1:.4}..{bq3:.4} ({})", bv.len()),
                bm / am,
                v.label()
            ));
        }
        let (a_ops, b_ops) = (a.ops[wl], b.ops.get(wl).copied().unwrap_or((0.0, 0.0)));
        let rate = |(attempted, failed): (f64, f64)| {
            if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }
        };
        let more_failures = rate(b_ops) > rate(a_ops);
        regressed |= more_failures;
        text.push_str(&format!(
            "{wl:<16} {:<17} {:>11} {:>23} {:>11} {:>23} {:>9}  {}\n",
            "ops_failed/att",
            format!("{}/{}", a_ops.1, a_ops.0),
            "",
            format!("{}/{}", b_ops.1, b_ops.0),
            "",
            "",
            if more_failures { "regressed" } else { "ok" }
        ));
    }
    (text, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test metrics with a 10% bound, whatever the real table says.
    const WALL: EndToEnd =
        EndToEnd { name: "wall_s", unit: "s", bound: 0.10, higher_is_better: false };
    const GOODPUT: EndToEnd =
        EndToEnd { name: "goodput_per_s", unit: "1/s", bound: 0.10, higher_is_better: true };

    fn run(workload: &str, wall: f64, goodput: f64, failed: f64) -> Json {
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("trace", Json::Bool(false)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj([
                    (
                        "wall_s",
                        Json::obj([("value", Json::Num(wall)), ("unit", Json::Str("s".into()))]),
                    ),
                    (
                        "goodput_per_s",
                        Json::obj([
                            ("value", Json::Num(goodput)),
                            ("unit", Json::Str("1/s".into())),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    fn set(runs: Vec<Json>) -> RunSet {
        load(&Json::obj([("runs", Json::Arr(runs))])).unwrap()
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let wall = &WALL;
        let tight = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(wall, &tight, &[1.03, 1.04, 1.02, 1.03, 1.05]), Verdict::Ok);
        assert_eq!(verdict(wall, &tight, &[1.15, 1.16, 1.14, 1.15, 1.17]), Verdict::Regressed);
        assert_eq!(
            verdict(wall, &tight, &[0.5, 0.5, 0.5, 0.5, 0.5]),
            Verdict::Ok,
            "faster is fine"
        );
        // Medians agree but A's runs spread 40% and the sides interleave.
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(verdict(wall, &noisy, &[1.0, 1.05, 0.95, 1.0, 1.0]), Verdict::Unresolved);
        // Noisy, but every B run beats every A run: resolved in B's favour.
        assert_eq!(verdict(wall, &noisy, &[0.5, 0.6, 0.7, 0.55, 0.65]), Verdict::Ok);

        let goodput = &GOODPUT;
        assert_eq!(
            verdict(goodput, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(goodput, &[100.0, 101.0, 99.0], &[130.0, 131.0, 129.0]), Verdict::Ok);
        assert_eq!(verdict(wall, &[], &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn compare_flags_regressions_and_failure_rates() {
        let a = set(vec![run("wf_staged", 4.0, 45.0, 0.0), run("wf_staged", 4.1, 44.0, 0.0)]);
        let same = set(vec![run("wf_staged", 4.05, 44.5, 0.0), run("wf_staged", 4.0, 45.0, 0.0)]);
        let (text, regressed) = compare(&a, &same);
        assert!(!regressed, "{text}");
        assert!(text.contains("wall_s") && text.contains("ok"));

        let slow = set(vec![run("wf_staged", 6.0, 30.0, 0.0), run("wf_staged", 6.1, 29.0, 0.0)]);
        let (text, regressed) = compare(&a, &slow);
        assert!(regressed);
        assert!(text.lines().any(|l| l.contains("wall_s") && l.ends_with("regressed")), "{text}");

        let failing = set(vec![run("wf_staged", 4.0, 45.0, 3.0), run("wf_staged", 4.1, 44.0, 0.0)]);
        let (text, regressed) = compare(&a, &failing);
        assert!(regressed, "a higher failed/attempted share fails the comparison");
        assert!(text.lines().any(|l| l.contains("ops_failed/att") && l.ends_with("regressed")));

        let (_, regressed) = compare(&a, &set(vec![run("cube_analytics", 0.4, 200.0, 0.0)]));
        assert!(regressed, "a workload missing from B cannot pass");
    }

    #[test]
    fn traced_runs_are_not_compared() {
        let mut traced = run("wf_staged", 9.0, 1.0, 0.0);
        if let Json::Obj(pairs) = &mut traced {
            pairs.iter_mut().find(|(k, _)| k == "trace").unwrap().1 = Json::Bool(true);
        }
        let s = set(vec![run("wf_staged", 4.0, 45.0, 0.0), traced]);
        assert_eq!(s.metrics["wf_staged"]["wall_s"], vec![4.0]);
    }
}
