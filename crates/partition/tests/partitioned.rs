//! End-to-end partitioned-optimization checks on real workloads:
//! equivalence, slack safety, determinism, and budget aggregation.

use gdo::{Budget, GdoConfig};
use library::{standard_library, MapGoal, Mapper};
use netlist::Netlist;
use partition::{optimize_partitioned, ClusterConfig, PartitionOptions, PartitionStats};
use std::time::Instant;

fn mapped_datapath(width: usize) -> (library::Library, Netlist) {
    let lib = standard_library();
    let nl = workloads::datapath(width);
    let mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
    (lib, mapped)
}

fn run(
    lib: &library::Library,
    nl: &mut Netlist,
    partitions: usize,
    threads: usize,
    budget: &Budget,
) -> PartitionStats {
    let cfg = GdoConfig::builder().vectors(256).seed(7).build().unwrap();
    let opts = PartitionOptions {
        cluster: ClusterConfig {
            seed: 7,
            ..ClusterConfig::for_partitions(nl.stats().gates, partitions)
        },
        threads,
        verify_regions: true,
        ..PartitionOptions::default()
    };
    optimize_partitioned(lib, &cfg, nl, &opts, budget).unwrap()
}

#[test]
fn partitioned_run_is_equivalent_and_slack_safe() {
    let (lib, mut nl) = mapped_datapath(12);
    let reference = nl.clone();
    let stats = run(&lib, &mut nl, 4, 2, &Budget::unlimited());
    assert!(stats.regions >= 4, "expected several regions: {stats:?}");
    assert!(
        sat::check_equiv(&reference, &nl).unwrap(),
        "stitched result must stay equivalent"
    );
    // Region acceptance freezes boundary requireds, so the parent's
    // critical path may only shrink.
    assert!(
        stats.delay_after <= stats.delay_before + 1e-9,
        "delay {} -> {}",
        stats.delay_before,
        stats.delay_after
    );
    assert!(stats.slack_after >= stats.slack_before - 1e-9);
}

#[test]
fn thread_count_does_not_change_the_result() {
    let (lib, mut a) = mapped_datapath(10);
    let (_, mut b) = mapped_datapath(10);
    let s1 = run(&lib, &mut a, 4, 1, &Budget::unlimited());
    let s4 = run(&lib, &mut b, 4, 4, &Budget::unlimited());
    assert_eq!(s1.region_rewrites, s4.region_rewrites);
    assert_eq!(s1.gdo.gates_after, s4.gdo.gates_after);
    assert_eq!(a.stats(), b.stats());
    assert!(sat::check_equiv(&a, &b).unwrap());
}

#[test]
fn worker_budgets_aggregate_into_the_callers_budget() {
    // Satellite: `--work-ceiling` accounting must see the sum of all
    // region workers' work on the caller's budget.
    let (lib, mut nl) = mapped_datapath(10);
    let budget = Budget::unlimited();
    assert_eq!(budget.work_done(), 0);
    let stats = run(&lib, &mut nl, 4, 2, &budget);
    assert!(
        budget.work_done() > 0,
        "region work must be charged to the caller's budget"
    );
    assert_eq!(
        budget.work_done(),
        stats.work_done,
        "stats mirror the aggregated budget"
    );
    // The optimizer did real work in several regions: the aggregate must
    // be at least as large as the proofs issued (1 unit each).
    assert!(budget.work_done() >= stats.gdo.proofs as u64);
}

#[test]
fn exhausted_budget_skips_regions_without_breaking_the_netlist() {
    let (lib, mut nl) = mapped_datapath(12);
    let reference = nl.clone();
    // A zero work ceiling trips immediately: no region may be optimized,
    // but the run must still finish cleanly and keep the netlist intact.
    let budget = Budget::new(None, Some(1));
    budget.charge(1);
    let stats = run(&lib, &mut nl, 4, 2, &budget);
    assert!(stats.budget_exhausted);
    assert!(sat::check_equiv(&reference, &nl).unwrap());
}

#[test]
fn single_region_degenerates_to_whole_netlist_optimization() {
    let (lib, mut nl) = mapped_datapath(8);
    let reference = nl.clone();
    let stats = run(&lib, &mut nl, 1, 1, &Budget::unlimited());
    assert!(stats.regions >= 1);
    assert!(sat::check_equiv(&reference, &nl).unwrap());
    assert!(stats.delay_after <= stats.delay_before + 1e-9);
}

#[test]
fn cancelling_the_parent_budget_stops_running_regions() {
    // C1908's three regions keep two region threads busy for about two
    // seconds in a debug build.
    let lib = standard_library();
    let source = workloads::lookup_circuit("C1908").unwrap().build();
    let input = Mapper::new(&lib).goal(MapGoal::Area).map(&source).unwrap();

    let mut whole = input.clone();
    let started = Instant::now();
    let full = run(&lib, &mut whole, 2, 2, &Budget::unlimited());
    let uncancelled = started.elapsed();
    assert!(!full.budget_exhausted);

    let budget = Budget::unlimited();
    let cancel = budget.cancel_handle();
    let mut nl = input.clone();
    let started = Instant::now();
    let stats = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(uncancelled / 10);
            cancel.cancel();
        });
        run(&lib, &mut nl, 2, 2, &budget)
    });
    let cancelled = started.elapsed();
    assert!(stats.budget_exhausted, "{stats:?}");
    assert!(
        cancelled < uncancelled / 2,
        "cancelled after {:?}, the run took {cancelled:?}; uncancelled it takes {uncancelled:?}",
        uncancelled / 10
    );
    assert!(
        sat::check_equiv(&input, &nl).unwrap(),
        "a cancelled run must leave an equivalent netlist"
    );
}
