//! The benchmark's contract, read from `BENCHMARK.json` at the root of
//! the repository — the one place workloads, metrics, units, directions
//! and regression bounds are written down. The file is embedded at
//! build time, so the binary and the manifest cannot disagree.

use proto::json::{self, Json};
use std::sync::OnceLock;

const MANIFEST_TEXT: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, work, memory).
    Lower,
    /// Larger values are better (yields, rewrites landed).
    Higher,
}

/// One metric of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Which way the metric improves.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for layer
    /// metrics).
    pub bound: Option<f64>,
    /// Absolute amount, in the metric's unit, by which it may always
    /// worsen: a change counts as worse only beyond
    /// `max(bound × parent median, floor)`. `0` for most metrics.
    pub floor: f64,
}

/// Absolute floors under the relative bounds. `BENCHMARK.json` holds only
/// relative bounds, so they are kept here. Set-up takes milliseconds, and
/// its run-to-run spread is a large share of that, so its bound is
/// "+25 % or +0.05 s, whichever is larger".
const FLOORS: &[(&str, f64)] = &[("setup_s", 0.05)];

/// The parsed manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Workload names, in manifest order.
    pub workloads: Vec<String>,
    /// Metrics a user of the system sees.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricDef>,
}

/// The manifest embedded in this build.
///
/// # Panics
///
/// Panics if `BENCHMARK.json` is malformed — a broken build input.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| parse(MANIFEST_TEXT).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Manifest, String> {
    let v = json::parse(text)?;
    let str_field = |o: &Json, key: &str| -> Result<String, String> {
        o.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string {key:?}"))
    };
    let items = |key: &str| -> Result<&[Json], String> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        items(key)?
            .iter()
            .map(|m| {
                let better = match str_field(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("bad direction {other:?}")),
                };
                let name = str_field(m, "name")?;
                let floor = FLOORS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, f)| f);
                Ok(MetricDef {
                    unit: str_field(m, "unit")?,
                    better,
                    bound: m.get("bound").and_then(Json::as_f64),
                    floor,
                    name,
                })
            })
            .collect()
    };
    Ok(Manifest {
        run_seconds: v
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("missing run_seconds")?,
        workloads: items("workloads")?
            .iter()
            .map(|w| str_field(w, "name"))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_manifest_parses_and_bounds_every_end_to_end_metric() {
        let m = manifest();
        assert!(m.run_seconds >= 1);
        assert_eq!(m.workloads.len(), crate::Workload::ALL.len());
        for (w, name) in crate::Workload::ALL.iter().zip(&m.workloads) {
            assert_eq!(w.name(), name);
        }
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        let setup = m.end_to_end.iter().find(|d| d.name == "setup_s");
        assert_eq!(
            setup.map(|d| (d.unit.as_str(), d.better, d.floor)),
            Some(("s", Better::Lower, 0.05))
        );
        let widest = m
            .end_to_end
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.and_then(|d| d.bound), Some(widest));
    }
}
