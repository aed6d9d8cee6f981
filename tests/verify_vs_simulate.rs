//! Table-driven cross-check of the three mapping oracles.
//!
//! `Mapping::verify` is the *static* oracle: it checks structure —
//! placement legality, dependence timing, route endpoints, latency, and
//! resource capacity. `panorama_sim::simulate` replays the *routes*: it
//! walks the pipelined loop and checks arrival cycles, route endpoints
//! and per-cycle resource occupancy. `panorama_sim::exec::execute`
//! replays the emitted *configware* on the data-carrying machine and
//! compares every token against the reference interpreter.
//!
//! Each test takes a known-good SPR\* mapping, applies one targeted
//! corruption, and asserts the oracles reject it. `execute` must come
//! back with `Err` or a recorded divergence — never a pass, never a
//! panic. The table documents what each oracle reports on the fixture:
//!
//! | mutation              | verify                 | simulate      | execute                       |
//! |-----------------------|------------------------|---------------|-------------------------------|
//! | swap two placements   | RouteEndpoint          | Misrouted     | reads a bubble                |
//! | truncate a route      | RouteLatency/Endpoint  | Misrouted     | selects the FU's own result   |
//! | drop a route entirely | RouteMissing           | Misrouted     | selects the FU's own result   |
//! | alias another route   | RouteEndpoint/Disconn. | Misrouted     | reads a bubble                |
//! | break dependence time | DependenceViolated     | Misrouted     | reads a bubble                |
//! | collide two FU slots  | FuConflict             | Misrouted     | reads a bubble                |
//! | op table one short    | WrongShape             | WrongShape    | WrongShape                    |
//! | register wrap hazard  | CapacityExceeded       | ValueCollision{Reg, cycle 4} | `v` diverges at iteration 0 |
//!
//! The register wrap hazard is hand-built in `panorama-sim`'s
//! `wrap_hazard_tests`, next to the machines it exercises.
//!
//! The oracles overlap on most structural defects (a broken route also
//! produces wrong dynamics), which is exactly what makes differential
//! fuzzing informative: a case where they *disagree* — like the
//! `route-dwell-link-collision` corpus entry, where a route dwelling on a
//! link across II windows passed the old per-producer verify but failed
//! simulation — is a bug in one of the oracles or in the mapper. Both
//! machines stay because each sees what the other cannot: only route
//! replay names the resource and the cycle of a collision, and it does so
//! even on mappings that failed verify, where configware generation is
//! not meaningful; only configware replay checks that the emitted control
//! words compute the right values.

use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{DfgBuilder, OpKind};
use panorama_mapper::{LowerLevelMapper, Mapping, SprMapper, VerifyError};
use panorama_sim::exec::{execute, ExecError, ExecOptions};
use panorama_sim::{simulate, SimError};

/// A small diamond with a recurrence: enough edges for every mutation.
fn fixture() -> (panorama_dfg::Dfg, Cgra, Mapping) {
    let mut b = DfgBuilder::new("diamond");
    let a = b.op(OpKind::Load, "a");
    let l = b.op(OpKind::Add, "l");
    let r = b.op(OpKind::Shift, "r");
    let j = b.op(OpKind::Add, "j");
    let s = b.op(OpKind::Store, "s");
    b.data(a, l);
    b.data(a, r);
    b.data(l, j);
    b.data(r, j);
    b.data(j, s);
    b.back(j, j, 1);
    let dfg = b.build().unwrap();
    let cgra = Cgra::new(CgraConfig::small_4x4()).unwrap();
    let mapping = SprMapper::default()
        .map(&dfg, &cgra, None)
        .expect("fixture maps");
    mapping.verify(&dfg, &cgra).expect("fixture verifies");
    simulate(&dfg, &cgra, &mapping, 4).expect("fixture simulates");
    assert!(execute(&dfg, &cgra, &mapping, &ExecOptions::default())
        .expect("fixture executes")
        .passed());
    (dfg, cgra, mapping)
}

/// Configware replay must refuse the mutant or record a divergence:
/// never a pass, never a panic.
fn execute_rejects(dfg: &panorama_dfg::Dfg, cgra: &Cgra, mutant: &Mapping) {
    if let Ok(outcome) = execute(dfg, cgra, mutant, &ExecOptions::default()) {
        assert!(!outcome.passed(), "execution must not pass the mutant");
    }
}

/// Rebuilds the fixture mapping with one field replaced.
fn rebuild(
    m: &Mapping,
    dfg: &panorama_dfg::Dfg,
    time_of: Option<Vec<usize>>,
    pe_of: Option<Vec<panorama_arch::PeId>>,
    routes: Option<Vec<panorama_mapper::Route>>,
) -> Mapping {
    let _ = dfg;
    Mapping::from_parts(
        "mutated",
        m.ii(),
        m.mii(),
        time_of.unwrap_or_else(|| m.assignments().map(|(t, _)| t).collect()),
        pe_of.unwrap_or_else(|| m.assignments().map(|(_, pe)| pe).collect()),
        Some(routes.unwrap_or_else(|| m.routes().unwrap().to_vec())),
    )
}

#[test]
fn swapping_two_placements_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut pe_of: Vec<_> = m.assignments().map(|(_, pe)| pe).collect();
    // find two ops on different PEs so the swap matters
    let (i, j) = (0..pe_of.len())
        .flat_map(|i| (i + 1..pe_of.len()).map(move |j| (i, j)))
        .find(|&(i, j)| pe_of[i] != pe_of[j])
        .expect("fixture spreads ops");
    pe_of.swap(i, j);
    let mutant = rebuild(&m, &dfg, None, Some(pe_of), None);
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RouteEndpoint { .. }
                | VerifyError::MemOpOnComputePe { .. }
                | VerifyError::MulOnPlainPe { .. }
                | VerifyError::FuConflict { .. }
        ),
        "swap must break endpoints or placement legality, got {err:?}"
    );
    assert!(
        simulate(&dfg, &cgra, &mutant, 4).is_err(),
        "simulation must reject swapped placements"
    );
    execute_rejects(&dfg, &cgra, &mutant);
}

#[test]
fn truncating_a_route_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut routes = m.routes().unwrap().to_vec();
    let victim = routes
        .iter_mut()
        .find(|r| r.nodes.len() >= 2)
        .expect("some route has at least two nodes");
    victim.nodes.pop();
    let mutant = rebuild(&m, &dfg, None, None, Some(routes));
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RouteLatency { .. } | VerifyError::RouteEndpoint { .. }
        ),
        "truncation must break latency or the terminal endpoint, got {err:?}"
    );
    assert!(
        simulate(&dfg, &cgra, &mutant, 4).is_err(),
        "simulation must reject a truncated route"
    );
    execute_rejects(&dfg, &cgra, &mutant);
}

#[test]
fn dropping_a_route_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut routes = m.routes().unwrap().to_vec();
    routes[0].nodes.clear();
    let mutant = rebuild(&m, &dfg, None, None, Some(routes));
    assert!(
        matches!(
            mutant.verify(&dfg, &cgra).unwrap_err(),
            VerifyError::RouteMissing { edge: 0 }
        ),
        "an empty route is a missing route"
    );
    assert!(simulate(&dfg, &cgra, &mutant, 4).is_err());
    execute_rejects(&dfg, &cgra, &mutant);
}

#[test]
fn aliasing_another_routes_path_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut routes = m.routes().unwrap().to_vec();
    // point edge 1's signal down edge 0's wires: endpoints no longer match
    // edge 1's producer/consumer placement
    let donor = routes[0].nodes.clone();
    let distinct = routes
        .iter()
        .position(|r| r.edge_index != 0 && r.nodes != donor)
        .expect("fixture has distinct routes");
    routes[distinct].nodes = donor;
    let mutant = rebuild(&m, &dfg, None, None, Some(routes));
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::RouteEndpoint { .. }
                | VerifyError::RouteLatency { .. }
                | VerifyError::RouteDisconnected { .. }
        ),
        "an aliased path must break endpoints, latency, or adjacency, got {err:?}"
    );
    assert!(simulate(&dfg, &cgra, &mutant, 4).is_err());
    execute_rejects(&dfg, &cgra, &mutant);
}

#[test]
fn breaking_dependence_timing_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut time_of: Vec<usize> = m.assignments().map(|(t, _)| t).collect();
    // pull a consumer to cycle 0; some forward edge then has
    // t(dst) < t(src) + lat
    let e = dfg
        .deps()
        .find(|e| !e.weight.is_back() && time_of[e.dst.index()] > 0)
        .expect("fixture has a forward edge with a late consumer");
    time_of[e.dst.index()] = 0;
    let mutant = rebuild(&m, &dfg, Some(time_of), None, None);
    let err = mutant.verify(&dfg, &cgra).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::DependenceViolated { .. } | VerifyError::FuConflict { .. }
        ),
        "retiming must violate a dependence (or collide a slot), got {err:?}"
    );
    assert!(
        simulate(&dfg, &cgra, &mutant, 4).is_err(),
        "simulation must reject broken dependence timing"
    );
    execute_rejects(&dfg, &cgra, &mutant);
}

#[test]
fn colliding_two_fu_slots_is_rejected() {
    let (dfg, cgra, m) = fixture();
    let mut time_of: Vec<usize> = m.assignments().map(|(t, _)| t).collect();
    let mut pe_of: Vec<_> = m.assignments().map(|(_, pe)| pe).collect();
    // land op 1 on op 0's exact (PE, slot)
    pe_of[1] = pe_of[0];
    time_of[1] = time_of[0];
    let mutant = rebuild(&m, &dfg, Some(time_of), Some(pe_of), None);
    assert!(
        matches!(
            mutant.verify(&dfg, &cgra).unwrap_err(),
            VerifyError::FuConflict { .. } | VerifyError::MemOpOnComputePe { .. }
        ),
        "two ops on one FU slot must conflict"
    );
    assert!(simulate(&dfg, &cgra, &mutant, 4).is_err());
    execute_rejects(&dfg, &cgra, &mutant);
}

#[test]
fn shortening_the_op_table_is_rejected_as_wrong_shape() {
    let (dfg, cgra, m) = fixture();
    let mut time_of: Vec<usize> = m.assignments().map(|(t, _)| t).collect();
    let mut pe_of: Vec<_> = m.assignments().map(|(_, pe)| pe).collect();
    time_of.pop();
    pe_of.pop();
    let mutant = rebuild(&m, &dfg, Some(time_of), Some(pe_of), None);
    assert_eq!(mutant.verify(&dfg, &cgra), Err(VerifyError::WrongShape));
    assert!(matches!(
        simulate(&dfg, &cgra, &mutant, 4),
        Err(SimError::WrongShape(_))
    ));
    assert!(matches!(
        execute(&dfg, &cgra, &mutant, &ExecOptions::default()),
        Err(ExecError::WrongShape(_))
    ));
}
