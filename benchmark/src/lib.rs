//! `gdo-benchmark`: the end-to-end and per-layer benchmark of the GDO
//! optimizer, its partition driver and its serving stack.
//!
//! The benchmark measures every layer from outside, by timing its calls
//! into public functions and by reading the telemetry spans and counters
//! the program already records. See `README.md` next to this crate for
//! the workloads, the metrics and the rules they are reported by.

pub mod batch;
pub mod compare;
pub mod manifest;
pub mod pace;
pub mod plan;
pub mod serve;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's workloads, in manifest order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// x3 random control logic: proof-dominated.
    ProofBound,
    /// Circuits where rewrites land, plus dp96 with resubstitution.
    RewriteHeavy,
    /// A layered datapath optimized region by region.
    XlPartitioned,
    /// A gateway and one worker under a closed-loop client.
    ServeMix,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 4] = [
        Workload::ProofBound,
        Workload::RewriteHeavy,
        Workload::XlPartitioned,
        Workload::ServeMix,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProofBound => "proof_bound",
            Workload::RewriteHeavy => "rewrite_heavy",
            Workload::XlPartitioned => "xl_partitioned",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name; the error lists the valid ones.
    ///
    /// # Errors
    ///
    /// A message naming every workload.
    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (valid: {})", names.join(", "))
            })
    }
}

/// What one run of a workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs run (every pass, every round).
    pub attempted: u64,
    /// Jobs whose output failed a check.
    pub failed: u64,
    /// Every failed check, job-level and workload-level, as a message.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// One row per input job (or per circuit for `serve_mix`).
    pub rows: Vec<proto::json::Json>,
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// True when every output passed every check.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// in `defs`, each with its unit, in manifest order.
    ///
    /// # Errors
    ///
    /// A message naming a metric in `defs` the run did not produce, or
    /// produced as a non-finite number — a benchmark bug.
    pub fn result_line(&self, defs: &[manifest::MetricDef]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = *self
                .metrics
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{v},\"unit\":{}}}",
                telemetry::json_escaped(&d.name),
                telemetry::json_escaped(&d.unit)
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// One result row: the job's name and its numbers.
#[must_use]
pub fn row(job: &str, fields: &[(&str, f64)]) -> proto::json::Json {
    use proto::json::Json;
    let mut m: BTreeMap<String, Json> = fields
        .iter()
        .map(|&(k, v)| (k.to_string(), Json::Num(v)))
        .collect();
    m.insert("job".to_string(), Json::Str(job.to_string()));
    Json::Obj(m)
}

/// FNV-1a hash of `text`: a fingerprint of netlist text, and the mixer
/// for seed tags.
#[must_use]
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Serializes a parsed JSON value back to text (non-finite numbers as
/// `null`).
#[must_use]
pub fn to_json(v: &proto::json::Json) -> String {
    use proto::json::Json;
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(x) if x.is_finite() => x.to_string(),
        Json::Num(_) => "null".to_string(),
        Json::Str(s) => telemetry::json_escaped(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(to_json).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(m) => format!(
            "{{{}}}",
            m.iter()
                .map(|(k, x)| format!("{}:{}", telemetry::json_escaped(k), to_json(x)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from `/proc`.
///
/// # Errors
///
/// A message when the status file cannot be read or has no `VmHWM`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// How many times set-up is repeated to report its median. Set-up
/// takes milliseconds, so a few samples move with every page fault.
pub const SETUP_REPEATS: usize = 21;

/// Runs one workload for about `seconds` (traced or not) and returns
/// what it measured. `exe` is this binary, re-executed for the serving
/// roles. A traced run reports 0 for the layers the workload does not
/// run.
///
/// Batch times are scaled to the reference host's speed
/// ([`pace`]); `serve_mix` times are raw, because its latency is mostly
/// waiting on timers and other processes, which the reference's speed
/// does not predict.
#[must_use]
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    exe: &std::path::Path,
) -> Outcome {
    let mut outcome = if workload == Workload::ServeMix {
        serve::run(seed, seconds, trace, smoke, exe)
    } else {
        // Set-up is the library build plus generating and seeding the
        // inputs, repeated so its median is steady; the last
        // repetition's inputs are the ones measured.
        let mut pace = pace::Pace::new();
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        let mut prepared = None;
        let mut before = pace.sample();
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let lib = library::standard_library();
            let plan = plan::batch_plan(workload, seed, smoke);
            let raw = t.elapsed().as_secs_f64();
            let after = pace.sample();
            setups.push(raw * pace::speed(before, after));
            before = after;
            prepared = Some((lib, plan));
        }
        let (lib, plan) = prepared.expect("set-up ran at least once");
        let mut outcome = batch::run(&plan, &lib, &mut pace, seconds, trace);
        outcome.set("setup_s", stats::median(&setups));
        outcome
    };
    if trace {
        for def in &manifest::manifest().per_layer {
            outcome.metrics.entry(def.name.clone()).or_insert(0.0);
        }
    }
    outcome
}
