//! Shared harness code for the table-regeneration binaries and the
//! criterion micro-benchmarks.

use gdo::{optimize, GdoConfig, GdoStats, OptimizeReport};
use library::{standard_library, Library, MapGoal, Mapper};
use netlist::Netlist;
use workloads::{script_delay, script_rugged, SuiteEntry};

/// Which preparation flow to run before mapping — Table 1 uses the area
/// flow, Table 2 the delay flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// `script.rugged` stand-in + area-oriented mapping.
    Area,
    /// `script.delay` stand-in + delay-oriented mapping.
    Delay,
}

/// Prepares one suite circuit: generate → script → map.
///
/// # Panics
///
/// Panics only on internal generator bugs (generated circuits are valid
/// by construction and covered by tests).
#[must_use]
pub fn prepare(entry: &SuiteEntry, lib: &Library, flow: Flow) -> Netlist {
    let raw = entry.build();
    // `map -n 1` is read as "fanout optimization off" (the paper: "mapping
    // was done without fanout optimization"), i.e. SIS's default
    // area-oriented covering; the Table 2 flow maps delay-oriented as its
    // depth-reduction script prescribes.
    let (prepared, goal) = match flow {
        Flow::Area => (
            script_rugged(&raw).expect("generated circuits are acyclic"),
            MapGoal::Area,
        ),
        Flow::Delay => (
            script_delay(&raw).expect("generated circuits are acyclic"),
            MapGoal::Delay,
        ),
    };
    Mapper::new(lib)
        .goal(goal)
        .map(&prepared)
        .expect("mapping succeeds on valid circuits")
}

/// One instrumented GDO run: the table row plus the telemetry
/// [`RunReport`](telemetry::RunReport) it was tallied from.
#[derive(Debug, Clone)]
pub struct GdoRun {
    /// The Table-1/2-style row.
    pub row: OptimizeReport,
    /// The aggregated telemetry snapshot (counters, spans, summary).
    pub report: telemetry::RunReport,
}

/// Runs GDO on one prepared circuit with telemetry capture: enables the
/// collector around the run, snapshots the aggregated
/// [`telemetry::RunReport`], merges the optimizer summary into it, and
/// cross-checks the candidate funnel against the optimizer's own tallies
/// before returning. With `verify`, the optimized netlist is checked
/// against the input with [`gdo::netlists_equivalent`] — a soundness
/// tripwire, run after the collector stops so the check's own `sweep.*`
/// counters stay out of the report.
///
/// The telemetry collector is process-global, so concurrent instrumented
/// runs in one process would tally into each other's reports; the bench
/// binaries run one circuit at a time.
///
/// # Panics
///
/// Panics on internal optimizer errors (all suite circuits are valid),
/// when verification refutes equivalence, and when the telemetry funnel
/// disagrees with the optimizer's returned statistics — a probe
/// placement bug worth failing loudly on.
#[must_use]
pub fn run_gdo_reported(
    name: &str,
    mapped: &mut Netlist,
    lib: &Library,
    cfg: &GdoConfig,
    verify: bool,
) -> GdoRun {
    let reference = if verify { Some(mapped.clone()) } else { None };
    telemetry::reset();
    telemetry::enable();
    let stats = optimize(lib, cfg.clone(), mapped).expect("optimizer succeeds on mapped netlists");
    telemetry::disable();
    if let Some(reference) = reference {
        assert!(
            gdo::netlists_equivalent(&reference, mapped).expect("acyclic netlists"),
            "SOUNDNESS VIOLATION: {name} is not equivalent after optimization"
        );
    }
    let row = OptimizeReport::new(name, stats);
    let mut report = telemetry::snapshot();
    telemetry::reset();
    report.meta.insert("circuit".into(), name.into());
    row.stats.merge_into_report(&mut report);
    let errors = funnel_consistency_errors(&report);
    assert!(
        errors.is_empty(),
        "telemetry funnel inconsistent for {name}: {}",
        errors.join("; ")
    );
    GdoRun { row, report }
}

/// The clause classes tracked by the `gdo.funnel.*` counters.
pub const FUNNEL_CLASSES: [&str; 3] = ["c2", "c3", "const"];

/// The funnel stages tracked per class, in pipeline order.
pub const FUNNEL_STAGES: [&str; 6] = [
    "enumerated",
    "filtered",
    "bpfs_survived",
    "proofs",
    "proved",
    "applied",
];

/// Reads one `gdo.funnel.{class}.{stage}` counter (0 when absent).
#[must_use]
pub fn funnel_count(report: &telemetry::RunReport, class: &str, stage: &str) -> u64 {
    report
        .counters
        .get(&format!("gdo.funnel.{class}.{stage}"))
        .copied()
        .unwrap_or(0)
}

/// Checks the invariants the funnel counters guarantee by construction:
/// per class `filtered <= enumerated`, `proved <= proofs` and
/// `applied <= proved`, and — against the merged optimizer summary —
/// `Σ proofs == proofs`, `Σ proved == proofs_valid`, and per-class
/// `applied` equal to the corresponding `*_mods` count. Returns the
/// violations (empty means consistent).
#[must_use]
pub fn funnel_consistency_errors(report: &telemetry::RunReport) -> Vec<String> {
    let mut errors = Vec::new();
    let mut check = |cond: bool, msg: String| {
        if !cond {
            errors.push(msg);
        }
    };
    for class in FUNNEL_CLASSES {
        let enumerated = funnel_count(report, class, "enumerated");
        let filtered = funnel_count(report, class, "filtered");
        let proofs = funnel_count(report, class, "proofs");
        let proved = funnel_count(report, class, "proved");
        let applied = funnel_count(report, class, "applied");
        check(
            filtered <= enumerated,
            format!("{class}: filtered {filtered} > enumerated {enumerated}"),
        );
        check(
            proved <= proofs,
            format!("{class}: proved {proved} > proofs {proofs}"),
        );
        check(
            applied <= proved,
            format!("{class}: applied {applied} > proved {proved}"),
        );
    }
    let class_sum = |stage: &str| -> u64 {
        FUNNEL_CLASSES
            .iter()
            .map(|c| funnel_count(report, c, stage))
            .sum()
    };
    let summary = |key: &str| -> Option<u64> {
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        report.summary.get(key).map(|v| *v as u64)
    };
    for (stage, key) in [("proofs", "proofs"), ("proved", "proofs_valid")] {
        if let Some(expect) = summary(key) {
            let got = class_sum(stage);
            check(
                got == expect,
                format!("sum of class {stage} is {got}, summary {key} is {expect}"),
            );
        }
    }
    for (class, key) in [
        ("c2", "sub2_mods"),
        ("c3", "sub3_mods"),
        ("const", "const_mods"),
    ] {
        if let Some(expect) = summary(key) {
            let got = funnel_count(report, class, "applied");
            check(
                got == expect,
                format!("{class}.applied is {got}, summary {key} is {expect}"),
            );
        }
    }
    errors
}

/// Prints the candidate funnel aggregated over a set of instrumented
/// runs: one row per clause class, one column per stage. This is the
/// enumerate → filter → BPFS → prove → apply attrition the paper's
/// Section 4 argues for, tallied from the telemetry counters.
pub fn print_funnel(title: &str, reports: &[telemetry::RunReport]) {
    println!("\n{title}");
    println!(
        "{:<7} {:>12} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "class", "enumerated", "filtered", "bpfs-survived", "proofs", "proved", "applied"
    );
    for class in FUNNEL_CLASSES {
        let sums: Vec<u64> = FUNNEL_STAGES
            .iter()
            .map(|stage| reports.iter().map(|r| funnel_count(r, class, stage)).sum())
            .collect();
        println!(
            "{:<7} {:>12} {:>12} {:>14} {:>10} {:>10} {:>10}",
            class, sums[0], sums[1], sums[2], sums[3], sums[4], sums[5]
        );
    }
}

/// Prints a full table in the paper's format, with the Σ and reduction
/// rows, and returns the totals.
pub fn print_table(title: &str, rows: &[OptimizeReport]) -> GdoStats {
    println!("\n{title}");
    println!("{}", OptimizeReport::header());
    for row in rows {
        println!("{row}");
    }
    let t = OptimizeReport::totals(rows);
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>7} {:>8.1} {:>8.1} {:>7} {:>7} {:>8.1}",
        "SUM",
        t.gates_before,
        t.gates_after,
        t.literals_before,
        t.literals_after,
        t.delay_before,
        t.delay_after,
        t.sub2_mods,
        t.sub3_mods,
        t.cpu_seconds
    );
    let pct = |b: f64, a: f64| if b > 0.0 { 100.0 * (1.0 - a / b) } else { 0.0 };
    println!(
        "{:<10} {:>13.1}% {:>14.1}% {:>17.1}%",
        "red.",
        pct(t.gates_before as f64, t.gates_after as f64),
        pct(t.literals_before as f64, t.literals_after as f64),
        pct(t.delay_before, t.delay_after),
    );
    t
}

/// The standard library shared by all harnesses.
#[must_use]
pub fn bench_library() -> Library {
    standard_library()
}

/// Parses the common `--circuit NAME`, `--no-os3`, `--vectors N`,
/// `--quick` flags used by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Restrict to one circuit.
    pub only: Option<String>,
    /// The optimizer configuration after flag application.
    pub cfg: GdoConfig,
    /// Skip the largest circuits (smoke-test mode).
    pub quick: bool,
    /// SAT-verify every optimized circuit against its input.
    pub verify: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`-style flags.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    #[must_use]
    pub fn parse(args: impl Iterator<Item = String>) -> HarnessArgs {
        let mut only = None;
        let mut cfg = GdoConfig::builder();
        let mut quick = false;
        let mut verify = false;
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--circuit" => {
                    only = Some(args.next().expect("--circuit needs a name"));
                }
                "--no-os3" => cfg = cfg.enable_sub3(false),
                "--no-area-phase" => cfg = cfg.area_phase(false),
                "--xor-direct" => cfg = cfg.xor_direct(true),
                "--no-xor-direct" => cfg = cfg.xor_direct(false),
                "--budget" => {
                    cfg = cfg.conflict_budget(
                        args.next()
                            .expect("--budget needs a count")
                            .parse()
                            .expect("--budget needs an integer"),
                    );
                }
                "--vectors" => {
                    cfg = cfg.vectors(
                        args.next()
                            .expect("--vectors needs a count")
                            .parse()
                            .expect("--vectors needs an integer"),
                    );
                }
                "--threads" => {
                    cfg = cfg.threads(
                        args.next()
                            .expect("--threads needs a count")
                            .parse()
                            .expect("--threads needs an integer"),
                    );
                }
                "--quick" => quick = true,
                "--verify" => verify = true,
                other => panic!(
                    "unknown flag {other:?}; known: --circuit NAME --no-os3 \
                     --no-area-phase --xor-direct --vectors N --budget N --threads N \
                     --quick --verify"
                ),
            }
        }
        HarnessArgs {
            only,
            cfg: cfg.build().unwrap_or_else(|e| panic!("{e}")),
            quick,
            verify,
        }
    }
}

/// Serializes tests that touch the process-global telemetry collector
/// (or run optimizers while another test may have it enabled).
#[cfg(test)]
pub(crate) static TELEMETRY_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::circuit_by_name;

    #[test]
    fn prepare_and_optimize_smallest_circuit() {
        let _guard = TELEMETRY_TEST_LOCK.lock().unwrap();
        let lib = bench_library();
        let entry = circuit_by_name("Z5xp1").unwrap();
        let mut mapped = prepare(&entry, &lib, Flow::Area);
        assert!(mapped.stats().gates > 0);
        let run = run_gdo_reported("Z5xp1", &mut mapped, &lib, &GdoConfig::default(), false);
        assert!(run.row.stats.delay_after <= run.row.stats.delay_before);
        mapped.validate().unwrap();
    }

    /// Disabled probes cost one relaxed atomic load each. Their total —
    /// the cost of one disabled call times the probes an instrumented run
    /// fires — must stay within 2 % of the same run untraced.
    #[test]
    fn disabled_telemetry_costs_at_most_two_percent() {
        let _guard = TELEMETRY_TEST_LOCK.lock().unwrap();
        let lib = bench_library();
        let entry = circuit_by_name("Z5xp1").unwrap();
        let mapped = prepare(&entry, &lib, Flow::Area);
        let run = |traced: bool| {
            let mut nl = mapped.clone();
            telemetry::reset();
            if traced {
                telemetry::enable();
            }
            let t = std::time::Instant::now();
            optimize(&lib, GdoConfig::default(), &mut nl).unwrap();
            let seconds = t.elapsed().as_secs_f64();
            telemetry::disable();
            seconds
        };
        telemetry::disable();
        let untraced_s = run(false);
        run(true);
        let probe_calls = telemetry::probe_calls();
        telemetry::reset();
        assert!(probe_calls > 0, "the instrumented run fired no probes");

        const CALLS: u32 = 1_000_000;
        let t = std::time::Instant::now();
        for _ in 0..CALLS {
            telemetry::counter_add(std::hint::black_box("bench.overhead_probe"), 1);
        }
        let probe_s = t.elapsed().as_secs_f64() / f64::from(CALLS);
        let overhead_pct = 100.0 * probe_s * probe_calls as f64 / untraced_s;
        assert!(
            overhead_pct <= 2.0,
            "disabled telemetry costs {overhead_pct:.4} % of an untraced run"
        );
    }

    #[test]
    fn reported_run_funnel_matches_summary() {
        let _guard = TELEMETRY_TEST_LOCK.lock().unwrap();
        let lib = bench_library();
        let entry = circuit_by_name("Z5xp1").unwrap();
        let mut mapped = prepare(&entry, &lib, Flow::Area);
        let run = run_gdo_reported("Z5xp1", &mut mapped, &lib, &GdoConfig::default(), false);
        // run_gdo_reported already asserts funnel consistency; spot-check
        // the report contents beyond the funnel.
        assert_eq!(
            run.report.meta.get("circuit").map(String::as_str),
            Some("Z5xp1")
        );
        assert!(run.report.counters.contains_key("sta.full_recomputes"));
        // One full build per optimize() call — everything after is
        // incremental.
        assert_eq!(
            run.report.counters.get("sta.full_recomputes").copied(),
            Some(1)
        );
        assert!(run.report.spans.contains_key("gdo.optimize"));
        assert_eq!(
            funnel_count(&run.report, "c2", "applied"),
            run.row.stats.sub2_mods as u64
        );
        assert_eq!(
            run.report.summary.get("proofs").copied(),
            Some(run.row.stats.proofs as f64)
        );
        telemetry::json::parse(&run.report.to_json()).expect("report serializes validly");
    }

    #[test]
    fn args_parse() {
        let args = HarnessArgs::parse(
            [
                "--circuit",
                "C432",
                "--no-os3",
                "--vectors",
                "128",
                "--quick",
            ]
            .iter()
            .map(|s| (*s).to_string()),
        );
        assert_eq!(args.only.as_deref(), Some("C432"));
        assert!(!args.cfg.enable_sub3);
        assert_eq!(args.cfg.vectors, 128);
        assert!(args.quick);
    }
}
