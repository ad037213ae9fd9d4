//! `gdo-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! gdo-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! gdo-benchmark [--seed N] [--seconds S] [--smoke] --out run.json
//! gdo-benchmark --compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! With `--workload` it runs one workload and prints, as its last line,
//! `{"correct","attempted","failed","metrics"}` — the end-to-end metrics,
//! or with `--trace 1` the layer metrics. Without it, it runs every
//! workload, each in a child process (this binary re-executed, so the
//! process-global telemetry collector and peak memory stay per
//! workload), once untraced and once traced, and writes all of it to
//! `--out`. Exit code 0 means every output passed its checks.

use gdo_benchmark::manifest::manifest;
use gdo_benchmark::{compare, serve, Workload};
use proto::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn usage() -> String {
    "usage:\n  \
     gdo-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n  \
     gdo-benchmark [--seed N] [--seconds S] [--smoke] --out run.json\n  \
     gdo-benchmark --compare PARENT.json... -- CHANGE.json...\n"
        .to_string()
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
    role: Option<String>,
    gateway: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1995,
        ..Args::default()
    };
    let mut it = argv.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag} needs a number, got {text:?}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(Workload::from_name(value(&mut it, arg)?)?),
            "--seed" => a.seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => {
                let s: f64 = number(value(&mut it, arg)?, arg)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value(&mut it, arg)?.into()),
            "--compare" => {
                let rest: Vec<&String> = it.by_ref().collect();
                let split = rest
                    .iter()
                    .position(|s| s.as_str() == "--")
                    .ok_or("--compare needs PARENT.json... -- CHANGE.json...")?;
                let parents: Vec<PathBuf> = rest[..split].iter().map(PathBuf::from).collect();
                let changes: Vec<PathBuf> = rest[split + 1..].iter().map(PathBuf::from).collect();
                if parents.is_empty() || changes.is_empty() {
                    return Err("--compare needs at least one file on each side".to_string());
                }
                a.compare = Some((parents, changes));
            }
            "--role" => a.role = Some(value(&mut it, arg)?.clone()),
            "--gateway" => a.gateway = Some(value(&mut it, arg)?.clone()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(a)
}

/// One workload, in this process: stderr gets a readable table,
/// stdout a line of rows and problems, then the result line.
fn run_one(workload: Workload, a: &Args, exe: &Path) -> ExitCode {
    let seconds = a.seconds.unwrap_or(manifest().run_seconds as f64);
    let outcome = gdo_benchmark::run_workload(workload, a.seed, seconds, a.trace, a.smoke, exe);
    let defs = if a.trace {
        &manifest().per_layer
    } else {
        &manifest().end_to_end
    };
    let line = match outcome.result_line(defs) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("gdo-benchmark: {e}");
            for p in &outcome.problems {
                eprintln!("gdo-benchmark: check failed: {p}");
            }
            return ExitCode::FAILURE;
        }
    };
    let mut table = format!(
        "{} (seed {}, {}): {} jobs, {} failed\n",
        workload.name(),
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for d in defs {
        let _ = writeln!(
            table,
            "  {:<28} {:>16.6} {}",
            d.name, outcome.metrics[&d.name], d.unit
        );
    }
    for p in &outcome.problems {
        let _ = writeln!(table, "  CHECK FAILED: {p}");
    }
    eprint!("{table}");
    let extras: BTreeMap<String, Json> = [
        ("rows".to_string(), Json::Arr(outcome.rows.clone())),
        (
            "problems".to_string(),
            Json::Arr(outcome.problems.iter().cloned().map(Json::Str).collect()),
        ),
    ]
    .into_iter()
    .collect();
    println!("{}", gdo_benchmark::to_json(&Json::Obj(extras)));
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process; returns its extras line and
/// its result line, parsed.
fn child(
    exe: &Path,
    workload: Workload,
    a: &Args,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let parse = |line: &str| {
        proto::json::parse(line).map_err(|e| format!("{}: bad output line: {e}", workload.name()))
    };
    match lines.as_slice() {
        [.., extras, result] => Ok((parse(extras)?, parse(result)?)),
        _ => Err(format!(
            "{} ({}) printed no result ({})",
            workload.name(),
            if trace { "traced" } else { "untraced" },
            output.status
        )),
    }
}

/// Every workload, each untraced for `--seconds` and then traced for one
/// untraced/traced pass pair, into `--out`.
fn run_all(a: &Args, out: &Path, exe: &Path) -> ExitCode {
    let seconds = a.seconds.unwrap_or(manifest().run_seconds as f64);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut workloads = BTreeMap::new();
    let mut ok = true;
    let mut summary = String::new();
    for w in Workload::ALL {
        let runs =
            child(exe, w, a, seconds, false).and_then(|u| Ok((u, child(exe, w, a, 0.0, true)?)));
        let ((extras, e2e), (traced_extras, layers)) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("gdo-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        let flag = |v: &Json, k: &str| v.get(k).and_then(Json::as_bool).unwrap_or(false);
        let num = |k: &str| {
            [&e2e, &layers]
                .iter()
                .map(|v| v.get(k).and_then(Json::as_f64).unwrap_or(0.0))
                .sum::<f64>()
        };
        let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Arr(Vec::new()));
        let correct = flag(&e2e, "correct") && flag(&layers, "correct");
        ok &= correct;
        let problems: Vec<Json> = [&extras, &traced_extras]
            .iter()
            .filter_map(|v| v.get("problems").and_then(Json::as_arr))
            .flatten()
            .cloned()
            .collect();
        let entry: BTreeMap<String, Json> = [
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(num("attempted"))),
            ("failed", Json::Num(num("failed"))),
            ("end_to_end", field(&e2e, "metrics")),
            ("per_layer", field(&layers, "metrics")),
            ("rows", field(&extras, "rows")),
            ("problems", Json::Arr(problems)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let _ = writeln!(summary, "{:<15} correct={correct}", w.name());
        for d in &manifest().end_to_end {
            let v = e2e
                .get("metrics")
                .and_then(|m| m.get(&d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let _ = writeln!(summary, "  {:<16} {:>14.6} {}", d.name, v, d.unit);
        }
        workloads.insert(w.name().to_string(), Json::Obj(entry));
    }
    let run: BTreeMap<String, Json> = [
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(a.smoke)),
        ("host_cores", Json::Num(host_cores as f64)),
        ("workloads", Json::Obj(workloads)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if let Err(e) = std::fs::write(out, gdo_benchmark::to_json(&Json::Obj(run)) + "\n") {
        eprintln!("gdo-benchmark: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    print!("{summary}");
    println!("wrote {}", out.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(parents: &[PathBuf], changes: &[PathBuf]) -> ExitCode {
    let load = |paths: &[PathBuf]| -> Result<Vec<Json>, String> {
        paths
            .iter()
            .map(|p| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                proto::json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    };
    let rows = match load(parents)
        .and_then(|p| Ok((p, load(changes)?)))
        .and_then(|(p, c)| compare::compare(manifest(), &p, &c))
    {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("gdo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", compare::render(&rows));
    if rows.iter().any(|r| r.verdict == "worse") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gdo-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let role = match a.role.as_deref() {
        None => None,
        Some("gateway") => Some(serve::gateway_role()),
        Some("worker") => Some(match &a.gateway {
            Some(addr) => serve::worker_role(addr),
            None => Err("--role worker needs --gateway ADDR".to_string()),
        }),
        Some(other) => Some(Err(format!("unknown role {other:?}"))),
    };
    if let Some(result) = role {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gdo-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some((parents, changes)) = &a.compare {
        return run_compare(parents, changes);
    }
    match (a.workload, &a.out) {
        (Some(w), _) => run_one(w, &a, &exe),
        (None, Some(out)) => run_all(&a, out, &exe),
        (None, None) => {
            eprintln!(
                "gdo-benchmark: give --workload NAME or --out FILE\n{}",
                usage()
            );
            ExitCode::from(2)
        }
    }
}
