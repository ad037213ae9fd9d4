//! Job execution: how a worker runs one submitted optimization (load →
//! map → optimize under a [`Budget`] → per-job [`RunReport`]).

use gdo::{Budget, EngineId, GdoConfig, GdoStats};
use library::{Library, MapGoal, Mapper};
use netlist::Netlist;
use proto::{verify_name, InputFormat, ShippedInput, SubmitRequest};
use std::time::Duration;
use telemetry::RunReport;

// `JobSource` lives in the shared protocol crate (it is named on the
// wire by every submit request); re-exported here for job execution.
pub use proto::JobSource;

/// Snapshot cadence of checkpointed jobs, in optimizer round
/// boundaries. A job whose budget trips writes a final snapshot as well.
pub const CHECKPOINT_EVERY: usize = 4;

/// How a finished job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Full run, nothing cut short.
    Done,
    /// Valid result, but the budget expired or a verification rolled
    /// back — the serving analogue of `gdo-opt` exit code 4.
    Degraded,
    /// Cancelled through the job's [`gdo::CancelHandle`].
    Cancelled,
}

/// What a worker hands back for a job that ran.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Resolved circuit name.
    pub circuit: String,
    /// Optimizer statistics.
    pub stats: GdoStats,
    /// The per-job report (stats merged, job metadata filled).
    pub report: RunReport,
    /// How the run ended.
    pub outcome: JobOutcome,
    /// The optimized netlist as mapped BLIF text — what a client with
    /// `"netlist":true` receives, and what the gateway's result cache
    /// stores for byte-identical replay.
    pub blif: String,
}

/// Loads a job's netlist: suite entries are generated, files parsed by
/// extension (`.bench` / `.blif`; BLIF with `.gate` lines is read as a
/// mapped netlist against `lib`). Returns the netlist, whether it is
/// already mapped, and for file sources the file's text — what the
/// gateway reads at admission and ships to the worker, so the worker's
/// parse is byte-identical.
///
/// # Errors
///
/// A display string naming the source: unknown suite entries list the
/// valid names, file problems carry the IO/parse error.
pub fn load_job_netlist(
    lib: &Library,
    source: &JobSource,
) -> Result<(Netlist, bool, Option<ShippedInput>), String> {
    match source {
        JobSource::Suite(name) => {
            let entry = workloads::lookup_circuit(name).map_err(|e| e.to_string())?;
            validate(entry.build(), source).map(|nl| (nl, false, None))
        }
        JobSource::File(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let ext = path.extension().and_then(|e| e.to_str());
            let format = ext.and_then(InputFormat::from_name).ok_or_else(|| {
                format!(
                    "{}: cannot infer format from extension {ext:?} (use .bench or .blif)",
                    path.display()
                )
            })?;
            let shipped = ShippedInput { format, text };
            let (nl, mapped) = parse_job_input(lib, source, &shipped)?;
            Ok((nl, mapped, Some(shipped)))
        }
    }
}

/// Parses and validates a file job's text, read by [`load_job_netlist`]
/// or shipped to a worker with the job; errors name `source`. BLIF with
/// `.gate` lines is read as a mapped netlist against `lib`. Returns the
/// netlist and whether it is already mapped.
fn parse_job_input(
    lib: &Library,
    source: &JobSource,
    input: &ShippedInput,
) -> Result<(Netlist, bool), String> {
    let text = input.text.as_str();
    let mapped = input.format == InputFormat::Blif
        && text.lines().any(|l| l.trim_start().starts_with(".gate"));
    let nl = match input.format {
        _ if mapped => library::parse_mapped_blif(lib, text).map_err(|e| e.to_string()),
        InputFormat::Bench => formats::parse_bench(text).map_err(|e| e.to_string()),
        InputFormat::Blif => formats::parse_blif(text).map_err(|e| e.to_string()),
    };
    let nl = nl.map_err(|e| format!("{}: {e}", source.describe()))?;
    validate(nl, source).map(|nl| (nl, mapped))
}

/// Rejects a structurally broken job input, naming its source.
fn validate(nl: Netlist, source: &JobSource) -> Result<Netlist, String> {
    match nl.validate() {
        Ok(()) => Ok(nl),
        Err(e) => Err(format!("invalid input netlist {}: {e}", source.describe())),
    }
}

/// Runs one submitted job on a worker's library: load (parsing the text
/// the gateway shipped with a file job, `input`, in memory; without it
/// through [`load_job_netlist`]), map (area goal, skipped for pre-mapped
/// inputs), optimize through [`partition::run`], and assemble the
/// per-job [`RunReport`].
///
/// `spec` is the submit as the gateway assigns it, defaults resolved; a
/// seed or verify policy it leaves unset takes the optimizer's default,
/// an unset engine list runs GDO alone. `budget` is the job's own, built
/// by the caller from the submit's `deadline_ms`/`work_limit`, so the
/// caller holds its cancel handle and reads the work charged to it. A
/// job that resumes from a snapshot runs under the snapshot's budget
/// remainders, where it has them, on a [relimited](Budget::relimited)
/// view of `budget`: a requeued or recovered job does not get its budget
/// refreshed. A snapshot the run rejects is counted (`snapshot.rejected`,
/// `resume_rejected` meta) and the job runs again from its input under
/// `budget` itself.
///
/// # Errors
///
/// A display string (engine list, load/parse/map/optimizer failure) for
/// the job's `failed` event.
pub fn run_job(
    lib: &Library,
    spec: &SubmitRequest,
    input: Option<&ShippedInput>,
    budget: &Budget,
) -> Result<JobResult, String> {
    let engines = match &spec.engines {
        None => vec![EngineId::Gdo],
        Some(list) => EngineId::parse_list(list).map_err(|e| e.to_string())?,
    };
    let (source_nl, mapped_input) = match input {
        Some(shipped) => parse_job_input(lib, &spec.source, shipped)?,
        None => load_job_netlist(lib, &spec.source).map(|(nl, mapped, _)| (nl, mapped))?,
    };
    let mut nl = if mapped_input {
        source_nl
    } else {
        Mapper::new(lib)
            .goal(MapGoal::Area)
            .map(&source_nl)
            .map_err(|e| format!("mapping {} failed: {e}", source_nl.name()))?
    };

    let mut cfg = GdoConfig::builder();
    if let Some(seed) = spec.seed {
        cfg = cfg.seed(seed);
    }
    if let Some(verify) = spec.verify {
        cfg = cfg.verify_policy(verify);
    }
    if let Some(vectors) = spec.vectors {
        cfg = cfg.vectors(vectors);
    }
    // One BPFS thread per job: the workers are the parallelism axis of
    // the service, and a single-threaded inner loop keeps a job's cost
    // predictable no matter how many workers share the machine.
    let cfg = cfg.threads(1).build().map_err(|e| e.to_string())?;

    let circuit = nl.name().to_string();
    let mut report = RunReport::default();
    let meta = [
        ("job", spec.id.clone().unwrap_or_default()),
        ("circuit", circuit.clone()),
        ("seed", cfg.seed.to_string()),
        ("verify", verify_name(cfg.verify_policy)),
        ("engines", EngineId::render_list(&engines)),
    ];
    report
        .meta
        .extend(meta.map(|(key, value)| (key.to_string(), value)));
    // Partitioned jobs run their regions on one thread, so a partitioned
    // job costs one worker slot like any other.
    let partitions = spec.partitions.unwrap_or(0);
    let cluster = partition::ClusterConfig::for_partitions(nl.stats().gates, partitions);
    let mut plan = partition::RunPlan {
        cfg,
        engines,
        regions: (partitions > 0).then_some((cluster, 1)),
        checkpoint: spec
            .checkpoint
            .as_ref()
            .map(|p| gdo::CheckpointSpec::new(p.clone()).every(CHECKPOINT_EVERY)),
        resume: spec.resume.clone(),
    };
    let resumed = spec.resume.as_deref().map(|path| {
        let (time_ms, work) = gdo::snapshot::peek_remainders(path).unwrap_or_default();
        budget.relimited(
            time_ms
                .map(Duration::from_millis)
                .or_else(|| budget.remaining_time()),
            work.or_else(|| budget.remaining_work()),
        )
    });
    let mut ran_under = resumed.as_ref().unwrap_or(budget);
    // A rejected snapshot may leave its own netlist in `nl`, so the rerun
    // starts from a copy of the input.
    let input_copy = spec.resume.is_some().then(|| nl.clone());
    let mut run = partition::run(lib, &plan, &mut nl, ran_under);
    if let (Err(partition::RunError::Rejected { path, error }), Some(input)) = (&run, input_copy) {
        let why = format!("{}: {error}", path.display());
        report.counters.insert("snapshot.rejected".into(), 1);
        report.meta.insert("resume_rejected".into(), why);
        (nl, plan.resume, ran_under) = (input, None, budget);
        run = partition::run(lib, &plan, &mut nl, budget);
    }
    let run = run.map_err(|e| format!("optimizing {circuit} failed: {e}"))?;
    run.merge_into_report(&mut report);
    let stats = *run.gdo();

    let outcome = if ran_under.was_cancelled_externally() {
        JobOutcome::Cancelled
    } else if stats.budget_exhausted || stats.verify_rollbacks > 0 {
        JobOutcome::Degraded
    } else {
        JobOutcome::Done
    };
    let blif = library::write_mapped_blif(lib, &nl)
        .map_err(|e| format!("writing {circuit} result netlist failed: {e}"))?;
    Ok(JobResult {
        circuit,
        stats,
        report,
        outcome,
        blif,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The assigned spec of a job `t1` on `source`: seed 1995, 64
    /// vectors, verify off, GDO alone, no budget.
    fn spec(source: JobSource) -> SubmitRequest {
        SubmitRequest {
            id: Some("t1".to_string()),
            source,
            deadline_ms: None,
            work_limit: None,
            seed: Some(1995),
            vectors: Some(64),
            verify: Some(gdo::VerifyPolicy::Off),
            engines: Some("gdo".to_string()),
            partitions: None,
            priority: proto::Priority::Normal,
            resume: None,
            checkpoint: None,
            want_netlist: false,
            want_progress: false,
            panic_attempts: None,
        }
    }

    #[test]
    fn suite_job_runs_end_to_end() {
        let lib = library::standard_library();
        let s = spec(JobSource::Suite("Z5xp1".to_string()));
        let budget = Budget::unlimited();
        let result = run_job(&lib, &s, None, &budget).unwrap();
        assert_eq!(result.circuit, "Z5xp1");
        assert_eq!(result.outcome, JobOutcome::Done);
        assert!(result.stats.gates_after > 0);
        assert_eq!(result.report.meta["job"], "t1");
        assert_eq!(result.report.meta["circuit"], "Z5xp1");
        telemetry::json::parse(&result.report.to_json()).unwrap();
    }

    #[test]
    fn partitioned_job_reports_region_counters() {
        let lib = library::standard_library();
        let mut s = spec(JobSource::Suite("C880".to_string()));
        s.partitions = Some(4);
        let result = run_job(&lib, &s, None, &Budget::unlimited()).unwrap();
        assert_eq!(result.outcome, JobOutcome::Done);
        let regions = result.report.counters["partition.regions"];
        assert!(regions >= 4, "expected several regions, got {regions}");
        assert!(result
            .report
            .counters
            .contains_key("partition.regions_done"));
        telemetry::json::parse(&result.report.to_json()).unwrap();
    }

    #[test]
    fn unknown_suite_entry_lists_valid_names() {
        let lib = library::standard_library();
        let s = spec(JobSource::Suite("nope".to_string()));
        let err = run_job(&lib, &s, None, &Budget::unlimited()).unwrap_err();
        assert!(err.contains("valid names"), "{err}");
        assert!(err.contains("Z5xp1"), "{err}");
    }

    #[test]
    fn file_job_reads_bench() {
        let dir = std::env::temp_dir().join(format!("gdo_serve_job_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sym.bench");
        let nl = workloads::sym_detector(5, 1, 3);
        let subject = library::to_subject_graph(&nl).unwrap();
        std::fs::write(&path, formats::write_bench(&subject).unwrap()).unwrap();
        let lib = library::standard_library();
        let result = run_job(
            &lib,
            &spec(JobSource::File(path)),
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(result.outcome, JobOutcome::Done);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_work_limit_reports_degraded() {
        let lib = library::standard_library();
        let s = spec(JobSource::Suite("9sym".to_string()));
        let budget = Budget::new(None, Some(1));
        let result = run_job(&lib, &s, None, &budget).unwrap();
        assert_eq!(result.outcome, JobOutcome::Degraded);
        assert!(result.stats.budget_exhausted);
        assert_eq!(result.report.counters["budget.exhausted"], 1);
    }

    #[test]
    fn a_resumed_job_keeps_the_snapshot_budget_and_a_rejected_one_its_own() {
        let dir = std::env::temp_dir().join(format!("gdo_serve_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("9sym.ckpt");
        let lib = library::standard_library();
        let mut leg = spec(JobSource::Suite("9sym".to_string()));
        leg.checkpoint = Some(ckpt.clone());
        let first = run_job(&lib, &leg, None, &Budget::new(None, Some(60))).unwrap();
        assert_eq!(first.outcome, JobOutcome::Degraded);
        // Resumed under a budget of its own, the job still has only the
        // work its snapshot had left: none.
        let mut resumed = spec(JobSource::Suite("9sym".to_string()));
        resumed.resume = Some(ckpt.clone());
        let second = run_job(&lib, &resumed, None, &Budget::unlimited()).unwrap();
        assert_eq!(second.outcome, JobOutcome::Degraded);
        assert!(!second.report.counters.contains_key("snapshot.rejected"));
        // Another input rejects the snapshot and reruns under its own
        // budget, not under the snapshot's remainders.
        let mut other = spec(JobSource::Suite("Z5xp1".to_string()));
        other.resume = Some(ckpt);
        let third = run_job(&lib, &other, None, &Budget::unlimited()).unwrap();
        assert_eq!(third.report.counters["snapshot.rejected"], 1);
        assert_eq!(third.outcome, JobOutcome::Done);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_budget_reports_cancelled() {
        let lib = library::standard_library();
        let s = spec(JobSource::Suite("9sym".to_string()));
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let result = run_job(&lib, &s, None, &budget).unwrap();
        assert_eq!(result.outcome, JobOutcome::Cancelled);
    }

    #[test]
    fn missing_file_fails_with_path() {
        let lib = library::standard_library();
        let s = spec(JobSource::File("/nonexistent/x.bench".into()));
        let err = run_job(&lib, &s, None, &Budget::unlimited()).unwrap_err();
        assert!(err.contains("/nonexistent/x.bench"), "{err}");
    }
}
