//! `compare A.json B.json`: one row per (metric, workload), judged against
//! the direction and bound `BENCHMARK.json` fixes for the metric.

use crate::json::Json;
use crate::report::human;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse before it is a regression.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json`.
pub fn rules(spec: &Json) -> Result<Vec<Rule>, String> {
    let list =
        spec.get("end_to_end").and_then(Json::as_arr).ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let higher_is_better = match better {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: `better` is {other:?}")),
            };
            Ok(Rule { name: name.to_string(), higher_is_better, bound })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between the repetitions' quartiles is wider than the
    /// bound: the runs cannot tell "unchanged" from "changed".
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pairing: the reported value (the best cycle) and the spread
/// of the run's own repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    /// (q3 - q1) / median over the cycles.
    pub spread: f64,
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when it is
/// better.
pub fn worse_by(rule: &Rule, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if rule.higher_is_better {
        -change
    } else {
        change
    }
}

/// A change counts only beyond both the metric's bound and the wider of the
/// two spreads; short of that, a spread wider than the bound leaves the
/// pairing unresolved.
pub fn judge(rule: &Rule, a: Side, b: Side) -> Verdict {
    let worse = worse_by(rule, a.value, b.value);
    let spread = a.spread.max(b.spread);
    let threshold = rule.bound.max(spread);
    if worse > threshold {
        Verdict::Regressed
    } else if -worse > threshold {
        Verdict::Improved
    } else if spread > rule.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed-operation share is higher in B, with both.
    pub more_failures: Vec<(String, f64, f64)>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    pub fn count(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }
}

fn side(metric: &Json) -> Option<Side> {
    let num = |key: &str| metric.get(key).and_then(Json::as_f64);
    let (value, median) = (num("value")?, num("median")?);
    let spread = if median == 0.0 { 0.0 } else { (num("q3")? - num("q1")?) / median.abs() };
    Some(Side { value, spread })
}

/// Joins two `run` result files on (metric, workload).
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Comparison, String> {
    let rules = rules(spec)?;
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc.get("workloads").and_then(Json::as_arr).ok_or("results have no workloads")?.to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let name_of = |w: &Json| w.get("name").and_then(Json::as_str).unwrap_or("").to_string();
    let mut out = Comparison { rows: Vec::new(), more_failures: Vec::new() };
    for a in &wa {
        let workload = name_of(a);
        let Some(b) = wb.iter().find(|b| name_of(b) == workload) else { continue };
        let failed = |w: &Json| w.get("failed_op_share").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(b) > failed(a) {
            out.more_failures.push((workload.clone(), failed(a), failed(b)));
        }
        for rule in &rules {
            let pick = |w: &Json| w.get("metrics").and_then(|m| m.get(&rule.name)).and_then(side);
            let (Some(sa), Some(sb)) = (pick(a), pick(b)) else { continue };
            out.rows.push(Row {
                workload: workload.clone(),
                metric: rule.name.clone(),
                a: sa,
                b: sb,
                worse_by: worse_by(rule, sa.value, sb.value),
                bound: rule.bound,
                verdict: judge(rule, sa, sb),
            });
        }
    }
    if out.rows.is_empty() {
        return Err("the two files share no (metric, workload) pairing".into());
    }
    Ok(out)
}

/// One row per pairing, every ratio beside its base.
pub fn print(c: &Comparison) {
    println!(
        "{:<17} {:<26} {:>14} {:>14} {:>8} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "worse by", "bound", "spread"
    );
    for r in &c.rows {
        println!(
            "{:<17} {:<26} {:>14} {:>14} {:>8.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            human(r.a.value),
            human(r.b.value),
            r.b.value / r.a.value,
            100.0 * r.worse_by,
            100.0 * r.bound,
            100.0 * r.a.spread.max(r.b.spread),
            r.verdict.word()
        );
    }
    for (workload, a, b) in &c.more_failures {
        println!("{workload:<17} failed_op_share rose from {a} (base) to {b}  regressed");
    }
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved{}",
        c.count(Verdict::Improved),
        c.count(Verdict::Unchanged),
        c.count(Verdict::Regressed),
        c.count(Verdict::Unresolved),
        if c.more_failures.is_empty() { "" } else { ", failed_op_share higher" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule { name: "m".into(), higher_is_better: higher, bound }
    }

    fn tight(value: f64) -> Side {
        Side { value, spread: 0.01 }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(&rule(false, 0.05), 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(&rule(true, 0.05), 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(&rule(true, 0.05), 100.0, 90.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn bound_separates_unchanged_from_changed() {
        let lower = rule(false, 0.05);
        assert_eq!(judge(&lower, tight(100.0), tight(104.0)), Verdict::Unchanged);
        assert_eq!(judge(&lower, tight(100.0), tight(106.0)), Verdict::Regressed);
        assert_eq!(judge(&lower, tight(100.0), tight(94.0)), Verdict::Improved);
        let higher = rule(true, 0.05);
        assert_eq!(judge(&higher, tight(100.0), tight(94.0)), Verdict::Regressed);
        assert_eq!(judge(&higher, tight(100.0), tight(106.0)), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let r = rule(false, 0.05);
        let noisy = Side { value: 100.0, spread: 0.20 };
        assert_eq!(judge(&r, noisy, tight(104.0)), Verdict::Unresolved);
        // Within the noise a 10 % difference proves nothing either way.
        assert_eq!(judge(&r, noisy, tight(110.0)), Verdict::Unresolved);
        // Beyond bound and noise it is a change.
        assert_eq!(judge(&r, noisy, tight(130.0)), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_flag_any_difference() {
        let exact = Side { value: 3.0, spread: 0.0 };
        let r = rule(false, 0.0);
        assert_eq!(judge(&r, exact, exact), Verdict::Unchanged);
        assert_eq!(judge(&r, exact, Side { value: 3.001, spread: 0.0 }), Verdict::Regressed);
        assert_eq!(judge(&r, exact, Side { value: 2.999, spread: 0.0 }), Verdict::Improved);
    }

    fn results(ops: f64, failed_share: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": [{{"name": "w", "failed_op_share": {failed_share}, "metrics":
                {{"ops_per_s": {{"value": {ops}, "median": {ops}, "q1": {ops}, "q3": {ops}}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_joins_files_and_flags_more_failures() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let same = compare(&spec, &results(100.0, 0.0), &results(95.0, 0.0)).unwrap();
        assert_eq!(same.rows.len(), 1);
        assert!(!same.regressed());
        let slower = compare(&spec, &results(100.0, 0.0), &results(80.0, 0.0)).unwrap();
        assert!(slower.regressed());
        let broken = compare(&spec, &results(100.0, 0.0), &results(100.0, 0.5)).unwrap();
        assert!(broken.regressed());
        assert!(compare(
            &spec,
            &results(100.0, 0.0),
            &Json::obj([("workloads", Json::Arr(vec![]))])
        )
        .is_err());
    }
}
