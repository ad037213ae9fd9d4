//! Observability work is counted for every engine that makes it, not
//! only for GDO's BPFS rounds.
//!
//! This file holds one test on purpose: the telemetry collector is
//! process-global, so a concurrent test's queries would leak into the
//! counts.

use gdo::{Budget, EngineId, GdoConfig, OptimizeRequest, Pipeline};
use library::{standard_library, MapGoal, Mapper};

#[test]
fn a_resub_only_run_records_its_observability_queries() {
    let lib = standard_library();
    let nl = workloads::lookup_circuit("C432").expect("exists").build();
    let mut mapped = Mapper::new(&lib)
        .goal(MapGoal::Area)
        .map(&nl)
        .expect("maps");
    // No GDO engine, so no BPFS round: every query comes from the resub
    // engine's target ranking.
    let req = OptimizeRequest::new(GdoConfig::default()).engines(vec![EngineId::Resub]);
    telemetry::reset();
    telemetry::enable();
    Pipeline::new(&lib)
        .run(&req, &mut mapped, &Budget::unlimited())
        .expect("optimizes");
    telemetry::disable();
    let counters = telemetry::snapshot().counters;
    telemetry::reset();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(count("sim.obs_queries") > 0, "{counters:?}");
    assert!(count("sim.obs_cone_gates") > 0, "{counters:?}");
    assert_eq!(count("gdo.funnel.c2.enumerated"), 0, "GDO did not run");
}
