//! Implementation of the `gdo-opt` command-line driver: argument parsing,
//! the read → map → optimize → write pipeline, and reporting. Split into
//! a library so the pipeline is unit-testable without spawning processes.

use gdo::snapshot::peek_remainders;
use gdo::{Budget, EngineId, GdoConfig, GdoStats, ProverKind, VerifyPolicy};
use library::{parse_genlib, standard_library, Library, MapGoal, Mapper};
use netlist::Netlist;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;
use timing::{LibDelay, TimingGraph};

/// Errors surfaced to the command line.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad flags or arguments.
    Usage(String),
    /// File IO failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Input netlist or library failed to parse.
    Parse(String),
    /// The optimized netlist cannot be expressed in the requested
    /// output format.
    Write(String),
    /// The optimizer failed (internal invariant — should not happen on
    /// valid inputs).
    Optimize(gdo::GdoError),
    /// Post-optimization verification refuted equivalence (would indicate
    /// a soundness bug; the run aborts loudly).
    VerificationFailed,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CliError::Parse(m) => write!(f, "{m}"),
            CliError::Write(m) => write!(f, "{m}"),
            CliError::Optimize(e) => write!(f, "optimization failed: {e}"),
            CliError::VerificationFailed => {
                write!(f, "verification failed: output is not equivalent to input")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Maps a pipeline error to the documented process exit code: `2`
/// usage/config, `3` parse, invalid netlist or unusable resume snapshot,
/// `5` file IO, `6` unwritable output, `1` internal failures.
/// (Exit `0` covers success *and* budget exhaustion with a valid output;
/// exit `4` — degraded result after a verification rollback — is decided
/// by the caller from [`RunOutcome`], not from an error.)
#[must_use]
pub fn exit_code(e: &CliError) -> i32 {
    match e {
        CliError::Usage(_) => 2,
        CliError::Parse(_) => 3,
        CliError::Io { .. } => 5,
        CliError::Write(_) => 6,
        _ => 1,
    }
}

/// What a successful [`run`] produced, for exit-code and scripting
/// decisions.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// The optimizer's statistics (budget and verification outcomes
    /// included).
    pub stats: GdoStats,
}

impl RunOutcome {
    /// True when a checkpoint verification failed and the run fell back
    /// to an earlier netlist — the output is correct but possibly less
    /// optimized than requested (exit code 4 unless `--allow-degraded`).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.stats.verify_rollbacks > 0
    }
}

/// The netlist file formats the driver reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// ISCAS `.bench`.
    Bench,
    /// Berkeley BLIF.
    Blif,
    /// Structural Verilog (write-only).
    Verilog,
}

impl Format {
    /// Guesses the format from a file extension.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unknown extensions.
    pub fn from_path(path: &Path) -> Result<Format, CliError> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("bench") => Ok(Format::Bench),
            Some("blif") => Ok(Format::Blif),
            Some("v") => Ok(Format::Verilog),
            other => Err(CliError::Usage(format!(
                "cannot infer format from extension {other:?} (use .bench, .blif or .v)"
            ))),
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input netlist path.
    pub input: PathBuf,
    /// Optional output path.
    pub output: Option<PathBuf>,
    /// Optional genlib library path (embedded library when absent).
    pub library: Option<PathBuf>,
    /// Mapping objective.
    pub map_goal: MapGoal,
    /// Skip mapping (input already mapped / treat gates as cells).
    pub no_map: bool,
    /// Optimizer configuration.
    pub cfg: GdoConfig,
    /// Write the output as mapped BLIF (`.gate` lines) instead of
    /// generic `.names` BLIF.
    pub mapped_output: bool,
    /// Verify input/output equivalence with a SAT miter at the end.
    pub verify: bool,
    /// Required arrival time at every primary output; reports MET or
    /// VIOLATED with the worst slack after optimization.
    pub require: Option<f64>,
    /// Print the detailed statistics block.
    pub stats: bool,
    /// Suppress the normal summary.
    pub quiet: bool,
    /// Stream telemetry events as NDJSON to this file.
    pub trace_out: Option<PathBuf>,
    /// Write the aggregated telemetry [`telemetry::RunReport`] as JSON.
    pub report_json: Option<PathBuf>,
    /// Pretty-print telemetry events to stderr as they happen.
    pub verbose: bool,
    /// Treat a verification rollback as an acceptable (exit 0) outcome
    /// instead of the degraded-result exit code 4.
    pub allow_degraded: bool,
    /// Engine pipeline run over the netlist, in order (default GDO
    /// alone).
    pub engines: Vec<EngineId>,
    /// Partitioned optimization: cluster into roughly this many regions
    /// and optimize them on a worker pool (`0` = whole-netlist run).
    pub partitions: usize,
    /// Explicit region size cap (gates) for partitioned runs; implies
    /// partitioning even with `partitions == 0`.
    pub region_size: Option<usize>,
    /// Write crash-safe run snapshots to this path (atomic temp-file +
    /// rename; resumable with `--resume-from`).
    pub checkpoint_out: Option<PathBuf>,
    /// Snapshot cadence: engine-iteration boundaries for whole-netlist
    /// runs, finished regions for partitioned runs (default 1).
    pub checkpoint_every: usize,
    /// Resume from a snapshot written by a previous `--checkpoint-out`
    /// run. The input file and optimizer flags must match the original
    /// run (digest-checked); explicit budget flags override the
    /// snapshot's recorded remainders.
    pub resume_from: Option<PathBuf>,
}

impl Options {
    /// Parses CLI arguments. Returns `Ok(None)` when `--help` was asked.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on malformed flags.
    pub fn parse(args: &[String]) -> Result<Option<Options>, CliError> {
        let mut input: Option<PathBuf> = None;
        let mut cfg = GdoConfig::builder();
        let mut out = Options {
            input: PathBuf::new(),
            output: None,
            library: None,
            map_goal: MapGoal::Area,
            no_map: false,
            cfg: GdoConfig::default(),
            mapped_output: false,
            verify: false,
            require: None,
            stats: false,
            quiet: false,
            trace_out: None,
            report_json: None,
            verbose: false,
            allow_degraded: false,
            engines: vec![EngineId::Gdo],
            partitions: 0,
            region_size: None,
            checkpoint_out: None,
            checkpoint_every: 1,
            resume_from: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut need = |what: &str| -> Result<String, CliError> {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{what} needs a value")))
            };
            match a.as_str() {
                "--help" | "-h" => {
                    println!("{}", usage());
                    return Ok(None);
                }
                "--list-circuits" => {
                    println!("{:<8} {:>8} {:>6} {:>6}", "name", "gates", "pis", "pos");
                    for name in workloads::circuit_names() {
                        let nl = workloads::lookup_circuit(name)
                            .expect("listed names resolve")
                            .build();
                        let s = nl.stats();
                        println!("{name:<8} {:>8} {:>6} {:>6}", s.gates, s.inputs, s.outputs);
                    }
                    return Ok(None);
                }
                "-o" | "--output" => out.output = Some(PathBuf::from(need("--output")?)),
                "-l" | "--library" => out.library = Some(PathBuf::from(need("--library")?)),
                "--map-goal" => {
                    out.map_goal = match need("--map-goal")?.as_str() {
                        "area" => MapGoal::Area,
                        "delay" => MapGoal::Delay,
                        other => {
                            return Err(CliError::Usage(format!(
                                "--map-goal must be area or delay, got {other:?}"
                            )))
                        }
                    }
                }
                "--no-map" => out.no_map = true,
                "--no-os3" => cfg = cfg.enable_sub3(false),
                "--no-xor-direct" => cfg = cfg.xor_direct(false),
                "--no-area-phase" => cfg = cfg.area_phase(false),
                "--vectors" => {
                    cfg = cfg.vectors(
                        need("--vectors")?
                            .parse()
                            .map_err(|_| CliError::Usage("--vectors needs an integer".into()))?,
                    );
                }
                "--seed" => {
                    cfg = cfg.seed(
                        need("--seed")?
                            .parse()
                            .map_err(|_| CliError::Usage("--seed needs an integer".into()))?,
                    );
                }
                "--threads" => {
                    cfg = cfg.threads(
                        need("--threads")?
                            .parse()
                            .map_err(|_| CliError::Usage("--threads needs an integer".into()))?,
                    );
                }
                "--prover" => {
                    cfg = cfg.prover(match need("--prover")?.as_str() {
                        "sat" => ProverKind::SatClause,
                        "bdd" => ProverKind::BddEquiv {
                            node_limit: 1 << 22,
                        },
                        "miter" => ProverKind::SatEquiv,
                        other => {
                            return Err(CliError::Usage(format!(
                                "--prover must be sat, bdd or miter, got {other:?}"
                            )))
                        }
                    });
                }
                "--engine" => {
                    out.engines = EngineId::parse_list(&need("--engine")?)
                        .map_err(|e| CliError::Usage(e.to_string()))?;
                }
                "--mapped-output" => out.mapped_output = true,
                "--require" => {
                    out.require = Some(
                        need("--require")?
                            .parse::<f64>()
                            .ok()
                            .filter(|t| t.is_finite())
                            .ok_or_else(|| {
                                CliError::Usage("--require needs a finite number".into())
                            })?,
                    );
                }
                "--time-budget-ms" => {
                    let ms: u64 = need("--time-budget-ms")?
                        .parse()
                        .map_err(|_| CliError::Usage("--time-budget-ms needs an integer".into()))?;
                    cfg = cfg.deadline(Duration::from_millis(ms));
                }
                "--work-limit" => {
                    cfg =
                        cfg.work_limit(need("--work-limit")?.parse().map_err(|_| {
                            CliError::Usage("--work-limit needs an integer".into())
                        })?);
                }
                "--verify" => {
                    out.verify = true;
                    cfg = cfg.verify_policy(VerifyPolicy::Final);
                }
                "--verify-each" => cfg = cfg.verify_policy(VerifyPolicy::EachSubstitution),
                "--verify-every" => {
                    cfg = cfg.verify_policy(VerifyPolicy::EveryN(
                        need("--verify-every")?.parse().map_err(|_| {
                            CliError::Usage("--verify-every needs an integer".into())
                        })?,
                    ));
                }
                "--partitions" => {
                    out.partitions = need("--partitions")?
                        .parse()
                        .map_err(|_| CliError::Usage("--partitions needs an integer".into()))?;
                }
                "--region-size" => {
                    let size: usize = need("--region-size")?
                        .parse()
                        .map_err(|_| CliError::Usage("--region-size needs an integer".into()))?;
                    if size == 0 {
                        return Err(CliError::Usage("--region-size must be positive".into()));
                    }
                    out.region_size = Some(size);
                }
                "--checkpoint-out" => {
                    out.checkpoint_out = Some(PathBuf::from(need("--checkpoint-out")?));
                }
                "--checkpoint-every" => {
                    let every: usize = need("--checkpoint-every")?.parse().map_err(|_| {
                        CliError::Usage("--checkpoint-every needs an integer".into())
                    })?;
                    if every == 0 {
                        return Err(CliError::Usage(
                            "--checkpoint-every must be positive".into(),
                        ));
                    }
                    out.checkpoint_every = every;
                }
                "--resume-from" => {
                    out.resume_from = Some(PathBuf::from(need("--resume-from")?));
                }
                "--allow-degraded" => out.allow_degraded = true,
                "--stats" => out.stats = true,
                "--trace-out" => out.trace_out = Some(PathBuf::from(need("--trace-out")?)),
                "--report-json" => out.report_json = Some(PathBuf::from(need("--report-json")?)),
                "-v" | "--verbose" => out.verbose = true,
                "-q" | "--quiet" => out.quiet = true,
                flag if flag.starts_with('-') => {
                    return Err(CliError::Usage(format!("unknown flag {flag:?}")))
                }
                positional => {
                    if input.replace(PathBuf::from(positional)).is_some() {
                        return Err(CliError::Usage("more than one input file".into()));
                    }
                }
            }
        }
        out.cfg = cfg.build().map_err(|e| CliError::Usage(e.to_string()))?;
        match input {
            Some(i) => {
                out.input = i;
                Ok(Some(out))
            }
            None => Err(CliError::Usage("missing input netlist".into())),
        }
    }
}

/// The `--help` text.
#[must_use]
pub fn usage() -> String {
    format!(
        "gdo-opt — delay optimization of mapped netlists by logic clause analysis\n\
     \n\
     usage: gdo-opt [OPTIONS] <INPUT.bench|INPUT.blif>\n\
     \n\
     -o, --output FILE        write the optimized netlist (.bench or .blif)\n\
     -l, --library FILE       genlib library (default: embedded gdo-std)\n\
     --map-goal area|delay    technology-mapping objective (default area)\n\
     --no-map                 skip mapping (input treated as mapped)\n\
     --no-os3                 disable inserted-gate (OS3/IS3) substitutions\n\
     --no-xor-direct          skip direct XOR/XNOR triple enumeration\n\
     --no-area-phase          skip the area-recovery phase\n\
     --vectors N              BPFS vectors per round (default {vectors})\n\
     --seed N                 BPFS seed (default 1995)\n\
     --threads N              BPFS worker threads (default 0 = all cores)\n\
     --prover sat|bdd|miter   validity prover (default sat)\n\
     --engine LIST            engine pipeline, comma-separated: gdo, resub\n\
                              (default gdo; e.g. --engine gdo,resub)\n\
     --mapped-output          write .gate (mapped) BLIF\n\
     --require T              report MET/VIOLATED for output required time T\n\
     --time-budget-ms N       wall-clock budget; past it the run unwinds and\n\
                              keeps the best netlist found so far (exit 0)\n\
     --work-limit N           deterministic work-unit ceiling (same unwinding)\n\
     --verify                 SAT-verify end-to-end equivalence afterwards\n\
                              (also re-proves the final checkpoint in-run)\n\
     --verify-each            re-prove equivalence after every substitution,\n\
                              rolling back and quarantining on failure\n\
     --verify-every N         like --verify-each, every N substitutions\n\
     --allow-degraded         exit 0 even when a verification rollback fired\n\
     --partitions N           cluster into ~N regions and optimize them on a\n\
                              worker pool (0 = whole-netlist run; default 0)\n\
     --region-size S          cap partitioned regions at S gates (implies\n\
                              partitioning)\n\
     --checkpoint-out FILE    write crash-safe run snapshots to FILE (atomic\n\
                              temp-file + rename; also written on budget\n\
                              exhaustion or cancel)\n\
     --checkpoint-every N     snapshot cadence: every N engine iterations\n\
                              (whole-netlist) or finished regions\n\
                              (partitioned); default 1\n\
     --resume-from FILE       resume an interrupted run from FILE; input and\n\
                              flags must match the original run, and explicit\n\
                              budget flags override the snapshot remainders\n\
     --list-circuits          print the workload suite (name, gates, PIs, POs)\n\
     --stats                  print detailed statistics\n\
     --trace-out FILE         stream telemetry events as NDJSON to FILE\n\
     --report-json FILE       write the aggregated telemetry report as JSON\n\
     -v, --verbose            pretty-print telemetry events to stderr\n\
     -q, --quiet              only errors",
        vectors = GdoConfig::default().vectors
    )
}

/// Reads a netlist in either format.
///
/// # Errors
///
/// [`CliError::Io`] / [`CliError::Parse`].
pub fn read_netlist(path: &Path) -> Result<Netlist, CliError> {
    let format = Format::from_path(path)?;
    let text = std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    match format {
        Format::Bench => formats::parse_bench(&text).map_err(|e| CliError::Parse(e.to_string())),
        Format::Blif => formats::parse_blif(&text).map_err(|e| CliError::Parse(e.to_string())),
        Format::Verilog => Err(CliError::Usage(
            "verilog is write-only; provide .bench or .blif input".into(),
        )),
    }
}

/// Writes a netlist in the format implied by the path.
///
/// # Errors
///
/// [`CliError::Io`] / [`CliError::Usage`] / [`CliError::Write`].
pub fn write_netlist(path: &Path, nl: &Netlist) -> Result<(), CliError> {
    let format = Format::from_path(path)?;
    let to_write = |e: formats::FormatError| CliError::Write(e.to_string());
    let text = match format {
        Format::Bench => formats::write_bench(nl).map_err(to_write)?,
        Format::Blif => formats::write_blif(nl).map_err(to_write)?,
        Format::Verilog => formats::write_verilog(nl),
    };
    std::fs::write(path, text).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Loads the genlib library (embedded default when `path` is `None`).
///
/// # Errors
///
/// [`CliError::Io`] / [`CliError::Parse`].
pub fn load_library(path: Option<&Path>) -> Result<Library, CliError> {
    match path {
        None => Ok(standard_library()),
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|source| CliError::Io {
                path: p.to_path_buf(),
                source,
            })?;
            parse_genlib(
                p.file_stem().and_then(|s| s.to_str()).unwrap_or("user"),
                &text,
            )
            .map_err(|e| CliError::Parse(e.to_string()))
        }
    }
}

/// The full pipeline behind `gdo-opt`.
///
/// BLIF inputs containing `.gate` lines are parsed as *mapped* netlists
/// against the library and skip the mapping step.
///
/// # Errors
///
/// Any [`CliError`]; see the variants.
pub fn run(options: &Options) -> Result<RunOutcome, CliError> {
    let lib = load_library(options.library.as_deref())?;
    // Sniff mapped BLIF: .gate lines bind cells from the library.
    let mapped_input = Format::from_path(&options.input)? == Format::Blif && {
        let text = std::fs::read_to_string(&options.input).map_err(|source| CliError::Io {
            path: options.input.clone(),
            source,
        })?;
        text.lines().any(|l| l.trim_start().starts_with(".gate"))
    };
    let source = if mapped_input {
        let text = std::fs::read_to_string(&options.input).map_err(|source| CliError::Io {
            path: options.input.clone(),
            source,
        })?;
        library::parse_mapped_blif(&lib, &text).map_err(|e| CliError::Parse(e.to_string()))?
    } else {
        read_netlist(&options.input)?
    };
    // Reject structurally broken inputs (cycles, dangling drivers, …)
    // with their offending signal names before any optimization runs.
    source
        .validate()
        .map_err(|e| CliError::Parse(format!("invalid input netlist: {e}")))?;
    let mut nl = if options.no_map || mapped_input {
        source.clone()
    } else {
        Mapper::new(&lib)
            .goal(options.map_goal)
            .map(&source)
            .map_err(|e| CliError::Parse(format!("mapping failed: {e}")))?
    };

    let model = LibDelay::new(&lib);
    let before = TimingGraph::from_scratch(&nl, &model)
        .map_err(|e| CliError::Parse(format!("timing failed: {e}")))?;
    if !options.quiet {
        println!(
            "in : {} — {} gates, {} literals, delay {:.2}",
            nl.name(),
            nl.stats().gates,
            nl.stats().literals,
            before.circuit_delay()
        );
    }

    let telemetry_on =
        options.verbose || options.trace_out.is_some() || options.report_json.is_some();
    if telemetry_on {
        telemetry::reset();
        if let Some(path) = &options.trace_out {
            let file = std::fs::File::create(path).map_err(|source| CliError::Io {
                path: path.clone(),
                source,
            })?;
            telemetry::install_sink(Box::new(telemetry::NdjsonSink::new(
                std::io::BufWriter::new(file),
            )));
        }
        if options.verbose {
            telemetry::install_sink(Box::new(telemetry::StderrSink));
        }
        telemetry::enable();
    }

    // Regions follow the flags, their schedule seeded by `--seed`. A
    // resumed leg keeps the snapshot's remaining budget (its deadline was
    // absolute) unless budget flags are given; a snapshot that cannot be
    // read is the run's to reject.
    let regions = (options.partitions > 0 || options.region_size.is_some()).then(|| {
        let mut cluster = if options.partitions > 0 {
            partition::ClusterConfig::for_partitions(nl.stats().gates, options.partitions)
        } else {
            partition::ClusterConfig::default()
        };
        cluster.max_region_size = options.region_size.unwrap_or(cluster.max_region_size);
        cluster.seed = options.cfg.seed;
        (cluster, options.cfg.threads)
    });
    let left = options.resume_from.as_deref().map(peek_remainders);
    let (time_ms, work) = left.and_then(Result::ok).unwrap_or_default();
    let budget = Budget::new(
        options.cfg.deadline.or(time_ms.map(Duration::from_millis)),
        options.cfg.work_limit.or(work),
    );
    let plan = partition::RunPlan {
        cfg: options.cfg.clone(),
        engines: options.engines.clone(),
        regions,
        checkpoint: options
            .checkpoint_out
            .as_ref()
            .map(|p| gdo::CheckpointSpec::new(p.clone()).every(options.checkpoint_every)),
        resume: options.resume_from.clone(),
    };
    let run_stats = partition::run(&lib, &plan, &mut nl, &budget).map_err(|e| match e {
        rejected @ partition::RunError::Rejected { .. } => CliError::Parse(rejected.to_string()),
        partition::RunError::Failed(partition::PartitionError::Gdo(g)) => CliError::Optimize(g),
        partition::RunError::Failed(partition::PartitionError::Netlist(n)) => {
            CliError::Parse(format!("partitioning failed: {n}"))
        }
    })?;
    let stats = *run_stats.gdo();

    if telemetry_on {
        // Flushes the NDJSON sink and stops probes; the collected
        // aggregates stay available for the report below.
        telemetry::disable();
    }
    if let Some(path) = &options.report_json {
        let mut report = telemetry::snapshot();
        report.meta.insert("circuit".into(), nl.name().to_string());
        report
            .meta
            .insert("input".into(), options.input.display().to_string());
        run_stats.merge_into_report(&mut report);
        std::fs::write(path, report.to_json()).map_err(|source| CliError::Io {
            path: path.clone(),
            source,
        })?;
        if !options.quiet {
            println!("wrote {}", path.display());
        }
    }

    if !options.quiet {
        if let partition::RunStats::Regions(ps) = &run_stats {
            println!(
                "partition: {} regions ({} boundary signals), {} rewrites stitched, \
                 {} quarantined, {} skipped",
                ps.regions,
                ps.boundary_signals,
                ps.region_rewrites,
                ps.stitch_conflicts,
                ps.regions_skipped
            );
        }
    }
    if !options.quiet && stats.budget_exhausted {
        println!("note: budget exhausted — kept the best netlist found so far");
    }
    if !options.quiet && stats.verify_rollbacks > 0 {
        println!(
            "note: {} verification rollback(s) — output is correct but degraded",
            stats.verify_rollbacks
        );
    }
    if !options.quiet {
        println!(
            "out: {} — {} gates, {} literals, delay {:.2} ({:+.1}% delay, {:+.1}% literals)",
            nl.name(),
            stats.gates_after,
            stats.literals_after,
            stats.delay_after,
            -100.0 * stats.delay_reduction(),
            -100.0 * stats.literal_reduction(),
        );
    }
    if options.stats {
        println!(
            "     {} OS/IS2 + {} OS/IS3 + {} const mods; {} proofs ({} valid); \
             {} rounds; {:.2}s",
            stats.sub2_mods,
            stats.sub3_mods,
            stats.const_mods,
            stats.proofs,
            stats.proofs_valid,
            stats.rounds,
            stats.cpu_seconds
        );
        if stats.verify_checks > 0 {
            println!(
                "     {} checkpoint verifications ({} failed, {} rollbacks, \
                 {} kinds quarantined)",
                stats.verify_checks,
                stats.verify_failures,
                stats.verify_rollbacks,
                stats.quarantined_kinds
            );
        }
        // The remaining critical path, signal by signal.
        let after = TimingGraph::from_scratch(&nl, &model)
            .map_err(|e| CliError::Parse(format!("timing failed: {e}")))?;
        let path = after.worst_path(&nl);
        let names = nl.unique_names("n");
        println!("     critical path ({} stages):", path.len());
        for s in path {
            let cell = nl
                .cell(s)
                .lib()
                .map(|tag| {
                    lib.cell(library::LibCellId::from_tag(tag))
                        .name()
                        .to_string()
                })
                .unwrap_or_else(|| nl.kind(s).to_string());
            println!(
                "       {:>8.2}  {}  ({})",
                after.arrival(s),
                names[s.index()],
                cell
            );
        }
    }

    if let Some(required) = options.require {
        let tg = TimingGraph::from_scratch_region(
            &nl,
            &model,
            None,
            &vec![required; nl.outputs().len()],
        )
        .map_err(|e| CliError::Parse(format!("timing failed: {e}")))?;
        let slack = tg.worst_slack();
        if !options.quiet {
            println!(
                "constraint {required}: {} (worst slack {slack:+.2})",
                if slack >= -tg.eps() {
                    "MET"
                } else {
                    "VIOLATED"
                }
            );
        }
    }

    if options.verify {
        if !gdo::netlists_equivalent(&source, &nl)
            .map_err(|e| CliError::Parse(format!("verification setup failed: {e}")))?
        {
            return Err(CliError::VerificationFailed);
        }
        if !options.quiet {
            println!("verified: output equivalent to input");
        }
    }

    if let Some(out) = &options.output {
        if options.mapped_output {
            let text = library::write_mapped_blif(&lib, &nl)
                .map_err(|e| CliError::Parse(e.to_string()))?;
            std::fs::write(out, text).map_err(|source| CliError::Io {
                path: out.clone(),
                source,
            })?;
        } else {
            write_netlist(out, &nl)?;
        }
        if !options.quiet {
            println!("wrote {}", out.display());
        }
    }
    Ok(RunOutcome { stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Option<Options>, CliError> {
        Options::parse(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn usage_names_the_default_vector_count() {
        let want = format!("(default {})", GdoConfig::default().vectors);
        let text = usage();
        let line = text
            .lines()
            .find(|l| l.contains("--vectors"))
            .expect("usage documents --vectors");
        assert!(line.contains(&want), "{line}");
    }

    #[test]
    fn parses_typical_invocation() {
        let o = opts(&[
            "in.bench",
            "-o",
            "out.blif",
            "--map-goal",
            "delay",
            "--vectors",
            "128",
            "--verify",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(o.input, PathBuf::from("in.bench"));
        assert_eq!(o.output, Some(PathBuf::from("out.blif")));
        assert_eq!(o.map_goal, MapGoal::Delay);
        assert_eq!(o.cfg.vectors, 128);
        assert!(o.verify);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(matches!(opts(&["--frob"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            opts(&["a.bench", "b.bench"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            opts(&["a.bench", "--map-goal", "fast"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn invalid_config_is_a_usage_error() {
        // The validating builder runs at parse time: impossible budgets
        // are reported as usage errors, not as late optimizer failures.
        match opts(&["a.bench", "--vectors", "0"]) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("vectors"), "{msg}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn help_short_circuits() {
        assert!(opts(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn list_circuits_short_circuits() {
        // Like --help: prints (the suite names) and asks the caller to
        // exit successfully without running the pipeline.
        assert!(opts(&["--list-circuits"]).unwrap().is_none());
    }

    #[test]
    fn parses_engine_lists_and_rejects_unknown_engines() {
        let o = opts(&["in.bench", "--engine", "gdo,resub"])
            .unwrap()
            .unwrap();
        assert_eq!(o.engines, vec![EngineId::Gdo, EngineId::Resub]);
        let o = opts(&["in.bench"]).unwrap().unwrap();
        assert_eq!(o.engines, vec![EngineId::Gdo]);
        match opts(&["in.bench", "--engine", "gdo,frob"]) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("valid engines"), "{msg}");
                assert!(msg.contains("resub"), "{msg}");
            }
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_budget_and_verify_flags() {
        let o = opts(&[
            "in.bench",
            "--time-budget-ms",
            "250",
            "--work-limit",
            "1000",
            "--verify-every",
            "8",
            "--allow-degraded",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(o.cfg.deadline, Some(std::time::Duration::from_millis(250)));
        assert_eq!(o.cfg.work_limit, Some(1000));
        assert_eq!(o.cfg.verify_policy, VerifyPolicy::EveryN(8));
        assert!(o.allow_degraded);

        let o = opts(&["in.bench", "--verify-each"]).unwrap().unwrap();
        assert_eq!(o.cfg.verify_policy, VerifyPolicy::EachSubstitution);
        assert!(
            !o.verify,
            "--verify-each alone must not imply the end check"
        );

        // --verify both requests the end-to-end miter and a final
        // checkpoint verification.
        let o = opts(&["in.bench", "--verify"]).unwrap().unwrap();
        assert!(o.verify);
        assert_eq!(o.cfg.verify_policy, VerifyPolicy::Final);
    }

    #[test]
    fn parses_partition_flags() {
        let o = opts(&["in.bench", "--partitions", "8", "--region-size", "512"])
            .unwrap()
            .unwrap();
        assert_eq!(o.partitions, 8);
        assert_eq!(o.region_size, Some(512));

        let o = opts(&["in.bench"]).unwrap().unwrap();
        assert_eq!(o.partitions, 0, "whole-netlist run by default");
        assert_eq!(o.region_size, None);

        assert!(matches!(
            opts(&["a.bench", "--partitions", "many"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            opts(&["a.bench", "--region-size", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_checkpoint_flags() {
        let o = opts(&[
            "in.bench",
            "--checkpoint-out",
            "run.ckpt",
            "--checkpoint-every",
            "4",
            "--resume-from",
            "old.ckpt",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(o.checkpoint_out, Some(PathBuf::from("run.ckpt")));
        assert_eq!(o.checkpoint_every, 4);
        assert_eq!(o.resume_from, Some(PathBuf::from("old.ckpt")));

        let o = opts(&["in.bench"]).unwrap().unwrap();
        assert_eq!(o.checkpoint_out, None);
        assert_eq!(o.checkpoint_every, 1);
        assert_eq!(o.resume_from, None);

        assert!(matches!(
            opts(&["a.bench", "--checkpoint-every", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            opts(&["a.bench", "--checkpoint-out"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn budget_flags_reject_garbage() {
        assert!(matches!(
            opts(&["a.bench", "--time-budget-ms", "soon"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            opts(&["a.bench", "--work-limit", "-3"]),
            Err(CliError::Usage(_))
        ));
        // EveryN(0) is rejected by the validating config builder.
        assert!(matches!(
            opts(&["a.bench", "--verify-every", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn require_takes_finite_numbers_only() {
        for bad in ["inf", "-inf", "NaN", "soon"] {
            assert!(
                matches!(
                    opts(&["a.bench", "--require", bad]),
                    Err(CliError::Usage(_))
                ),
                "--require {bad} must be a usage error"
            );
        }
        let o = opts(&["a.bench", "--require", "-1.5"]).unwrap().unwrap();
        assert_eq!(o.require, Some(-1.5));
    }

    #[test]
    fn exit_codes_match_the_documented_table() {
        assert_eq!(exit_code(&CliError::Usage(String::new())), 2);
        assert_eq!(exit_code(&CliError::Parse(String::new())), 3);
        assert_eq!(
            exit_code(&CliError::Io {
                path: PathBuf::from("x"),
                source: std::io::Error::other("x"),
            }),
            5
        );
        assert_eq!(exit_code(&CliError::Write(String::new())), 6);
        assert_eq!(exit_code(&CliError::VerificationFailed), 1);
    }

    #[test]
    fn format_detection() {
        assert_eq!(
            Format::from_path(Path::new("x.bench")).unwrap(),
            Format::Bench
        );
        assert_eq!(
            Format::from_path(Path::new("x.blif")).unwrap(),
            Format::Blif
        );
        assert_eq!(
            Format::from_path(Path::new("x.v")).unwrap(),
            Format::Verilog
        );
        assert!(Format::from_path(Path::new("x.vhdl")).is_err());
    }

    #[test]
    fn pipeline_end_to_end_via_files() {
        let dir = std::env::temp_dir().join(format!("gdo_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.bench");
        let output = dir.join("out.blif");
        let nl = workloads::sym_detector(5, 1, 3);
        let subject = library::to_subject_graph(&nl).unwrap();
        std::fs::write(&input, formats::write_bench(&subject).unwrap()).unwrap();

        let o = Options {
            input: input.clone(),
            output: Some(output.clone()),
            library: None,
            map_goal: MapGoal::Area,
            no_map: false,
            cfg: GdoConfig::default(),
            mapped_output: false,
            verify: true,
            require: None,
            stats: false,
            quiet: true,
            trace_out: None,
            report_json: None,
            verbose: false,
            allow_degraded: false,
            engines: vec![EngineId::Gdo],
            partitions: 0,
            region_size: None,
            checkpoint_out: None,
            checkpoint_every: 1,
            resume_from: None,
        };
        run(&o).unwrap();
        let written = read_netlist(&output).unwrap();
        assert!(sat::check_equiv(&subject, &written).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partitioned_pipeline_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gdo_cli_part_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.bench");
        let output = dir.join("out.blif");
        let report = dir.join("report.json");
        let nl = workloads::datapath(8);
        let subject = library::to_subject_graph(&nl).unwrap();
        std::fs::write(&input, formats::write_bench(&subject).unwrap()).unwrap();

        let o = Options {
            input: input.clone(),
            output: Some(output.clone()),
            library: None,
            map_goal: MapGoal::Area,
            no_map: false,
            cfg: GdoConfig::default(),
            mapped_output: false,
            verify: true,
            require: None,
            stats: false,
            quiet: true,
            trace_out: None,
            report_json: Some(report.clone()),
            verbose: false,
            allow_degraded: false,
            engines: vec![EngineId::Gdo],
            partitions: 4,
            region_size: None,
            checkpoint_out: None,
            checkpoint_every: 1,
            resume_from: None,
        };
        run(&o).unwrap();
        let written = read_netlist(&output).unwrap();
        assert!(sat::check_equiv(&subject, &written).unwrap());
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("partition.regions"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `gdo-opt` quietly on `input` with `args`.
    fn run_args(input: &Path, args: &[&str]) -> Result<RunOutcome, CliError> {
        let mut all = vec![input.to_str().unwrap(), "-q"];
        all.extend_from_slice(args);
        run(&opts(&all)?.expect("not --help"))
    }

    /// Interrupts a run of `layout` under `--work-limit leg1_limit`,
    /// resumes it, and checks which snapshots the resumed leg refuses.
    /// `other` is the other layout, for a snapshot of the other kind.
    fn check_resume(tag: &str, layout: &[&str], other: &[&str], leg1_limit: &str) {
        let dir = std::env::temp_dir().join(format!("gdo_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.bench");
        let subject = library::to_subject_graph(&workloads::datapath(8)).unwrap();
        std::fs::write(&input, formats::write_bench(&subject).unwrap()).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let ckpt = path("leg1.ckpt");
        let leg = |out: &str, args: &[&str]| {
            let out = path(out);
            let mut all = vec!["-o", out.as_str()];
            all.extend_from_slice(layout);
            all.extend_from_slice(args);
            run_args(&input, &all).map(|_| std::fs::read(&out).unwrap())
        };

        let full = leg("full.blif", &[]).unwrap();
        let leg1 = leg(
            "leg1.blif",
            &["--work-limit", leg1_limit, "--checkpoint-out", &ckpt],
        )
        .unwrap();
        assert_ne!(leg1, full, "{tag}: the work limit must cut leg 1 short");
        let resumed = leg(
            "leg2.blif",
            &["--work-limit", "100000000", "--resume-from", &ckpt],
        )
        .unwrap();
        assert!(resumed == full, "{tag}: a resumed leg must finish the run");
        // Without budget flags the resumed leg keeps the snapshot's
        // remaining budget, which leg 1 used up.
        let kept = leg("leg2n.blif", &["--resume-from", &ckpt]).unwrap();
        assert!(kept == leg1, "{tag}: the snapshot's budget must apply");

        let scratch = path("scratch.blif");
        let refused = |input: &Path, what: &str, args: &[&str]| {
            let mut all = vec!["-o", scratch.as_str()];
            all.extend_from_slice(layout);
            all.extend_from_slice(args);
            match run_args(input, &all) {
                Err(e) => {
                    assert_eq!(exit_code(&e), 3, "{tag}, {what}: {e}");
                    assert!(e.to_string().starts_with("cannot resume from"), "{e}");
                }
                Ok(_) => panic!("{tag}, {what}: the snapshot must be refused"),
            }
        };
        refused(
            &input,
            "another seed",
            &["--seed", "7", "--resume-from", &ckpt],
        );
        let other_input = dir.join("other.bench");
        let subject = library::to_subject_graph(&workloads::datapath(6)).unwrap();
        std::fs::write(&other_input, formats::write_bench(&subject).unwrap()).unwrap();
        refused(&other_input, "another input", &["--resume-from", &ckpt]);
        let corrupt = path("corrupt.ckpt");
        let text = std::fs::read(&ckpt).unwrap();
        std::fs::write(&corrupt, &text[..text.len() / 2]).unwrap();
        refused(&input, "a corrupt snapshot", &["--resume-from", &corrupt]);
        let other_kind = path("other-kind.ckpt");
        let mut args = vec!["-o", &scratch, "--work-limit", "1"];
        args.extend_from_slice(other);
        args.extend_from_slice(&["--checkpoint-out", &other_kind]);
        run_args(&input, &args).unwrap();
        refused(&input, "the other kind", &["--resume-from", &other_kind]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn whole_run_resumes_byte_identically() {
        check_resume("resume_whole", &[], &["--partitions", "4"], "30");
    }

    #[test]
    fn partitioned_run_resumes_byte_identically() {
        check_resume(
            "resume_part",
            &["--partitions", "4", "--threads", "2"],
            &[],
            "4",
        );
    }

    #[test]
    fn mapped_blif_input_and_output() {
        let dir = std::env::temp_dir().join(format!("gdo_cli_mapped_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.blif");
        let output = dir.join("out.blif");
        // A mapped netlist, written as .gate BLIF.
        let lib = standard_library();
        let nl = workloads::datapath(3);
        let mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        std::fs::write(&input, library::write_mapped_blif(&lib, &mapped).unwrap()).unwrap();

        let o = Options {
            input: input.clone(),
            output: Some(output.clone()),
            library: None,
            map_goal: MapGoal::Area,
            no_map: false, // mapped input is auto-detected
            cfg: GdoConfig::default(),
            mapped_output: true,
            verify: true,
            require: None,
            stats: false,
            quiet: true,
            trace_out: None,
            report_json: None,
            verbose: false,
            allow_degraded: false,
            engines: vec![EngineId::Gdo],
            partitions: 0,
            region_size: None,
            checkpoint_out: None,
            checkpoint_every: 1,
            resume_from: None,
        };
        run(&o).unwrap();
        let text = std::fs::read_to_string(&output).unwrap();
        assert!(text.contains(".gate"), "output should be mapped BLIF");
        let back = library::parse_mapped_blif(&lib, &text).unwrap();
        assert!(sat::check_equiv(&mapped, &back).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let o = Options {
            input: PathBuf::from("/nonexistent/x.bench"),
            output: None,
            library: None,
            map_goal: MapGoal::Area,
            no_map: false,
            cfg: GdoConfig::default(),
            mapped_output: false,
            verify: false,
            require: None,
            stats: false,
            quiet: true,
            trace_out: None,
            report_json: None,
            verbose: false,
            allow_degraded: false,
            engines: vec![EngineId::Gdo],
            partitions: 0,
            region_size: None,
            checkpoint_out: None,
            checkpoint_every: 1,
            resume_from: None,
        };
        assert!(matches!(run(&o), Err(CliError::Io { .. })));
    }
}
