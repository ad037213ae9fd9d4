//! `--compare PARENT.json… -- CHANGE.json…`: for every workload and
//! end-to-end metric, the medians and quartiles of both sides, the pairs
//! the change wins, and a verdict by the rules the manifest's bounds are
//! meant for. A metric's tolerance is its bound times the parent's median,
//! or its absolute floor if that is larger (see [`crate::manifest`]):
//!
//! - `unresolved` when the parent's quartile distance is wider than the
//!   tolerance, unless every change run beats every parent run, and when
//!   the parent has fewer than [`MIN_RUNS`] runs to measure a spread from;
//! - `worse` when the change's median is worse than the parent's by more
//!   than the tolerance;
//! - `no worse` otherwise.
//!
//! A gain is flagged only over at least [`MIN_PAIRS`] pairs, when the
//! change wins at least nine tenths of them (ties count for neither) and
//! the medians differ by more than the parent's quartile spread. Pairs
//! are formed in the order the files are given, so alternate which side
//! runs first when making them.

use crate::manifest::{Better, Manifest};
use crate::stats;
use proto::json::Json;
use std::fmt::Write as _;

/// The comparison of one workload × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent runs' values, in file order.
    pub parent: Vec<f64>,
    /// Change runs' values, in file order.
    pub change: Vec<f64>,
    /// Pairs (`parent[i]`, `change[i]`) the change reads better in.
    pub wins: usize,
    /// `worse`, `no worse` or `unresolved`.
    pub verdict: &'static str,
    /// Whether the change shows a gain by the nine-tenths rule.
    pub gain: bool,
}

/// Parent runs needed before a spread, and so a verdict, means anything.
pub const MIN_RUNS: usize = 3;

/// Pairs needed before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// `true` when `a` reads strictly better than `b`.
fn better(dir: Better, a: f64, b: f64) -> bool {
    match dir {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Decides one metric from the two sides' values. The change may be
/// worse by `max(bound × parent median, floor)` — the tolerance — and
/// the parent's quartile distance is held to the same tolerance.
#[must_use]
pub fn judge(
    dir: Better,
    bound: f64,
    floor: f64,
    parent: &[f64],
    change: &[f64],
) -> (&'static str, usize, bool) {
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let (q1, q3) = stats::quartiles(parent);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better(dir, change[i], parent[i]))
        .count();
    let tolerance = (bound * pm.abs()).max(floor);
    let worse_by = match dir {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(dir, c, p)));
    let verdict = if parent.len() < MIN_RUNS {
        "unresolved"
    } else if (q3 - q1).abs() > tolerance {
        if all_better {
            "no worse"
        } else {
            "unresolved"
        }
    } else if worse_by > tolerance {
        "worse"
    } else {
        "no worse"
    };
    let gain = pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(dir, cm, pm)
        && (cm - pm).abs() > (q3 - q1).abs();
    (verdict, wins, gain)
}

fn metric_values(runs: &[Json], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|run| {
            run.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("a run has no {workload} {metric}"))
        })
        .collect()
}

/// Compares parent runs with change runs (parsed `--out` files) on every
/// workload × end-to-end metric of `manifest`.
///
/// # Errors
///
/// A message naming a workload or metric some run lacks.
pub fn compare(
    manifest: &Manifest,
    parents: &[Json],
    changes: &[Json],
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let parent = metric_values(parents, workload, &def.name)?;
            let change = metric_values(changes, workload, &def.name)?;
            let (verdict, wins, gain) = judge(
                def.better,
                def.bound.unwrap_or(0.0),
                def.floor,
                &parent,
                &change,
            );
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                parent,
                change,
                wins,
                verdict,
                gain,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one row per workload × metric.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<14} {:>12} {:>25} {:>12} {:>25} {:>6} {:<10} {}\n",
        "workload",
        "metric",
        "parent_med",
        "parent_q1..q3",
        "change_med",
        "change_q1..q3",
        "wins",
        "verdict",
        "gain"
    );
    for r in rows {
        let (pq1, pq3) = stats::quartiles(&r.parent);
        let (cq1, cq3) = stats::quartiles(&r.change);
        let _ = writeln!(
            out,
            "{:<15} {:<14} {:>12.6} {:>25} {:>12.6} {:>25} {:>6} {:<10} {}",
            r.workload,
            r.metric,
            stats::median(&r.parent),
            format!("{pq1:.6}..{pq3:.6}"),
            stats::median(&r.change),
            format!("{cq1:.6}..{cq3:.6}"),
            format!("{}/{}", r.wins, r.parent.len().min(r.change.len())),
            r.verdict,
            if r.gain { "yes" } else { "no" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        let judge =
            |dir, bound, parent: &[f64], change: &[f64]| judge(dir, bound, 0.0, parent, change);
        // Within a 10 % bound.
        assert_eq!(judge(Better::Lower, 0.1, &parent, &[10.5; 5]).0, "no worse");
        // Beyond it.
        assert_eq!(judge(Better::Lower, 0.1, &parent, &[11.5; 5]).0, "worse");
        // Higher-is-better metrics flip the direction.
        assert_eq!(judge(Better::Higher, 0.1, &parent, &[8.5; 5]).0, "worse");
        assert_eq!(
            judge(Better::Higher, 0.1, &parent, &[11.5; 5]).0,
            "no worse"
        );
        // A noisy parent leaves a small bound unresolved...
        let noisy = [5.0, 10.0, 15.0, 7.0, 12.0];
        assert_eq!(
            judge(Better::Lower, 0.1, &noisy, &[10.0; 5]).0,
            "unresolved"
        );
        // ...unless every change run beats every parent run.
        assert_eq!(judge(Better::Lower, 0.1, &noisy, &[4.0; 5]).0, "no worse");
        // Too few parent runs to know their spread.
        assert_eq!(
            judge(Better::Lower, 0.1, &[10.0, 10.0], &[20.0; 2]).0,
            "unresolved"
        );
    }

    #[test]
    fn an_absolute_floor_widens_a_small_bound() {
        // Set-up in milliseconds, spread 0.4 of its median: unresolved by
        // the relative bound alone, decided once the 0.05 s floor applies.
        let parent = [0.010, 0.012, 0.008, 0.014, 0.009];
        assert_eq!(
            judge(Better::Lower, 0.25, 0.0, &parent, &[0.011; 5]).0,
            "unresolved"
        );
        assert_eq!(
            judge(Better::Lower, 0.25, 0.05, &parent, &[0.04; 5]).0,
            "no worse"
        );
        assert_eq!(
            judge(Better::Lower, 0.25, 0.05, &parent, &[0.07; 5]).0,
            "worse"
        );
        // Above the floor the relative bound decides.
        let slow = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            judge(Better::Lower, 0.25, 0.05, &slow, &[1.2; 5]).0,
            "no worse"
        );
        assert_eq!(
            judge(Better::Lower, 0.25, 0.05, &slow, &[1.3; 5]).0,
            "worse"
        );
    }

    #[test]
    fn gains_need_nine_tenths_of_the_pairs() {
        let judge =
            |dir, bound, parent: &[f64], change: &[f64]| judge(dir, bound, 0.0, parent, change);
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let (_, wins, gain) = judge(Better::Lower, 0.1, &parent, &change);
        assert_eq!(wins, 10);
        assert!(gain);
        // Two lost pairs out of ten: no gain claimed.
        change[0] = 20.0;
        change[1] = 20.0;
        let (_, wins, gain) = judge(Better::Lower, 0.1, &parent, &change);
        assert_eq!(wins, 8);
        assert!(!gain);
        // Ties count for neither side.
        let (_, wins, gain) = judge(Better::Lower, 0.1, &parent, &parent);
        assert_eq!(wins, 0);
        assert!(!gain);
        // Nine pairs are too few, however clear the win.
        let (_, wins, gain) = judge(Better::Lower, 0.1, &parent[..9], &[1.0; 9]);
        assert_eq!(wins, 9);
        assert!(!gain);
    }
}
