//! Deterministic event-log replay: for random clauses, decompositions,
//! and seeded recoverable fault plans, the captured trace must
//!
//! 1. pass the replay checker (every planned send matched by a recv,
//!    retransmits within the NACK budget, packet sizes equal to the
//!    planned `CommRun` lengths), and
//! 2. serialize to a **byte-identical** deterministic JSONL log across
//!    two runs of the same configuration — thread scheduling and the
//!    reliability machinery must never leak into the deterministic
//!    stream.
//!
//! The CI trace job runs this suite once per communication mode via
//! `VCAL_FAULT_MODE=element|vectorized`; unset, both modes run.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    replay_check, run_distributed, CollectingTracer, CommMode, DistArray, DistOptions, EventKind,
    FaultPlan, ReplayError, ReplaySummary, RetryPolicy, TraceLog, TransportKind,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

/// Communication modes to exercise, honouring the CI matrix filter.
fn modes() -> Vec<CommMode> {
    match std::env::var("VCAL_FAULT_MODE").as_deref() {
        Ok("element") => vec![CommMode::Element],
        Ok("vectorized") => vec![CommMode::Vectorized],
        _ => vec![CommMode::Element, CommMode::Vectorized],
    }
}

/// Transport backend under test (`VCAL_TRANSPORT=inproc|uds|tcp`,
/// unset means in-process): the trace/replay properties double as the
/// cross-backend regression harness, since worker processes ship their
/// buffered trace events back over the wire.
fn transport() -> TransportKind {
    static WORKER_BIN: std::sync::Once = std::sync::Once::new();
    let kind = match std::env::var("VCAL_TRANSPORT").as_deref() {
        Ok("uds") => TransportKind::Uds,
        Ok("tcp") => TransportKind::Tcp,
        _ => return TransportKind::InProc,
    };
    WORKER_BIN.call_once(|| std::env::set_var("VCAL_WORKER_BIN", env!("CARGO_BIN_EXE_vcalc")));
    kind
}

/// Build `A[i] := B[g(i)] + 1` with A/B decomposed by `(dec_kind % 3)`.
fn build_case(n: i64, pmax: i64, g: Fn1, dec_kind: usize) -> (SpmdPlan, Clause, DecompMap, Env) {
    // image of g over 0..n-1 must stay inside B's extent
    let (lo, hi) = (g.eval(0).min(g.eval(n - 1)), g.eval(0).max(g.eval(n - 1)));
    let b_lo = lo.min(0);
    let b_hi = hi.max(n - 1);
    let cl = Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(1.0)),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(b_lo, b_hi), |i| {
            (i.scalar() % 23) as f64 * 0.5 - 5.0
        }),
    );
    let a_ext = Bounds::range(0, n - 1);
    let b_ext = Bounds::range(b_lo, b_hi);
    let dec = |ext: Bounds| match dec_kind % 3 {
        0 => Decomp1::block(pmax, ext),
        1 => Decomp1::scatter(pmax, ext),
        _ => Decomp1::block_scatter(3, pmax, ext),
    };
    let mut dm = DecompMap::new();
    dm.insert("A".into(), dec(a_ext));
    dm.insert("B".into(), Decomp1::scatter(pmax, b_ext));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    (plan, cl, dm, env0)
}

/// One traced execution; returns the replay summary and the
/// deterministic JSONL serialization.
fn traced_run(
    plan: &SpmdPlan,
    cl: &Clause,
    env0: &Env,
    dm: &DecompMap,
    mode: CommMode,
    faults: Option<FaultPlan>,
) -> Result<(ReplaySummary, String, TraceLog), String> {
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let opts = DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults,
        mode,
        retry: if faults.is_some() {
            RetryPolicy::fast()
        } else {
            RetryPolicy::default()
        },
        transport: transport(),
        ..DistOptions::default()
    };
    let tracer = CollectingTracer::new();
    run_distributed(plan, cl, &mut arrays, opts, &tracer).map_err(|e| e.to_string())?;
    let log = tracer.finish();
    let summary = replay_check(&log, plan, mode, opts.retry).map_err(|e| e.to_string())?;
    Ok((summary, log.to_jsonl(), log))
}

/// The PR's acceptance configuration: a 1024-element scatter `a·i+c`
/// run emits a replay-valid, seed-deterministic event log with per-node
/// phase timings for every participating node.
#[test]
fn acceptance_1024_scatter_affine() {
    let n = 1024i64;
    let (plan, cl, dm, env0) = build_case(n / 2, 8, Fn1::affine(2, 1), 1);
    for mode in modes() {
        let (s1, jsonl1, log) = traced_run(&plan, &cl, &env0, &dm, mode, None).unwrap();
        let (s2, jsonl2, _) = traced_run(&plan, &cl, &env0, &dm, mode, None).unwrap();
        assert_eq!(jsonl1, jsonl2, "{mode:?}: log not deterministic");
        assert_eq!(s1.send_elems, s1.recv_elems, "{mode:?}");
        assert_eq!(s1.det_events, s2.det_events, "{mode:?}");
        assert_eq!(s1.retransmits, 0, "{mode:?}: faultless run retransmitted");
        // every node timed its send and update phases; wall-time never
        // appears in the log body, only in the side-band timings
        let timed_nodes: std::collections::BTreeSet<i64> =
            log.timings.iter().map(|t| t.node).collect();
        for p in 0..8 {
            assert!(timed_nodes.contains(&p), "{mode:?}: node {p} untimed");
        }
        assert!(!jsonl1.contains("nanos"), "wall-time leaked into the log");
    }
}

/// The Jacobi stencil on a block layout — the canonical config with
/// both interior runs (owner-local) and boundary runs (halo traffic).
fn stencil_case(n: i64, pmax: i64) -> (SpmdPlan, Clause, DecompMap, Env) {
    let cl = Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::mul(
            Expr::add(
                Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
                Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
            ),
            Expr::Lit(0.5),
        ),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| {
            (i.scalar() % 13) as f64 * 0.75 - 2.0
        }),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
    dm.insert("B".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    (plan, cl, dm, env0)
}

/// With compiled kernels + overlap enabled (the defaults) the stencil
/// log carries interior/boundary run completions, still replays against
/// its plan, and stays byte-identical across runs; overlap-off replays
/// too, and both settings trace the same send/recv multiset.
#[test]
fn overlap_log_has_runs_replays_and_is_deterministic() {
    let (plan, cl, dm, env0) = stencil_case(160, 8);
    for mode in modes() {
        let (s_on, j_on1, log) = traced_run(&plan, &cl, &env0, &dm, mode, None).unwrap();
        let (_, j_on2, _) = traced_run(&plan, &cl, &env0, &dm, mode, None).unwrap();
        assert_eq!(j_on1, j_on2, "{mode:?}: overlap-on log not deterministic");
        assert!(
            j_on1.contains("\"kind\":\"interior_run\""),
            "{mode:?}: no interior runs traced"
        );
        assert!(
            j_on1.contains("\"kind\":\"boundary_run\""),
            "{mode:?}: no boundary runs traced"
        );
        // interior completions precede every boundary completion on each
        // node: overlap schedules owner-local work while halo packets fly
        let mut boundary_seen: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
        for e in log.deterministic() {
            match &e.kind {
                EventKind::BoundaryRun { .. } => {
                    boundary_seen.insert(e.node);
                }
                EventKind::InteriorRun { run, .. } => {
                    assert!(
                        !boundary_seen.contains(&e.node),
                        "{mode:?}: node {} interior run {run} after a boundary run",
                        e.node
                    );
                }
                _ => {}
            }
        }

        // overlap-off: replay-valid with the identical send/recv multiset
        let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.to_string(),
                DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
            );
        }
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(10),
            mode,
            overlap: false,
            transport: transport(),
            ..DistOptions::default()
        };
        let tracer = CollectingTracer::new();
        run_distributed(&plan, &cl, &mut arrays, opts, &tracer).unwrap();
        let off_log = tracer.finish();
        let s_off = replay_check(&off_log, &plan, mode, opts.retry).unwrap();
        assert_eq!(s_on.send_elems, s_off.send_elems, "{mode:?}");
        assert_eq!(s_on.recv_elems, s_off.recv_elems, "{mode:?}");
    }
}

/// The checker's interior/boundary phase-ordering rule: a log where a
/// boundary run completes *before* the receives it depends on were
/// consumed must be rejected.
#[test]
fn replay_rejects_boundary_run_before_its_receives() {
    let (plan, cl, dm, env0) = stencil_case(96, 4);
    for mode in modes() {
        let (_, _, mut log) = traced_run(&plan, &cl, &env0, &dm, mode, None).unwrap();
        // find a boundary-run completion that consumed remote operands…
        let bidx = log
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::BoundaryRun { recvs, .. } if recvs > 0))
            .expect("stencil trace must contain a boundary run with receives");
        let node = log.events[bidx].node;
        // …and hoist it ahead of that node's first consumed receive
        let ridx = log
            .events
            .iter()
            .position(|e| e.node == node && matches!(e.kind, EventKind::RecvValue { .. }))
            .expect("boundary node must have consumed a receive");
        assert!(ridx < bidx, "{mode:?}: receive should precede completion");
        let ev = log.events.remove(bidx);
        log.events.insert(ridx, ev);
        match replay_check(&log, &plan, mode, RetryPolicy::default()) {
            Err(ReplayError::Phase { node: n, why }) => {
                assert_eq!(n, node, "{mode:?}");
                assert!(why.contains("boundary run"), "{mode:?}: {why}");
            }
            other => panic!("{mode:?}: expected a phase rejection, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random clause/decomposition: the event log replays against the
    /// plan and serializes byte-identically across two fault-free runs.
    #[test]
    fn random_case_replays_and_is_deterministic(
        n_sel in 0usize..3,
        pmax_sel in 0usize..3,
        a in 1i64..4,
        c in -3i64..8,
        dec_kind in 0usize..3,
        mode_ix in 0usize..2,
    ) {
        let n = [96i64, 160, 288][n_sel];
        let pmax = [2i64, 4, 8][pmax_sel];
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let (plan, cl, dm, env0) = build_case(n, pmax, Fn1::affine(a, c), dec_kind);
        let (s1, j1, _) = traced_run(&plan, &cl, &env0, &dm, mode, None)
            .map_err(TestCaseError::fail)?;
        let (_, j2, _) = traced_run(&plan, &cl, &env0, &dm, mode, None)
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(j1, j2, "log not byte-identical (n={}, pmax={})", n, pmax);
        prop_assert_eq!(s1.send_elems, s1.recv_elems);
        prop_assert_eq!(s1.retransmits, 0);
    }

    /// Under a recoverable seeded fault plan the deterministic stream is
    /// *still* byte-identical across same-seed runs — retransmits, dups
    /// and NACKs live in the auxiliary stream and the replay budget
    /// still holds.
    #[test]
    fn recoverable_faults_keep_log_deterministic(
        seed in any::<u64>(),
        p_drop in 0u32..12,
        p_dup in 0u32..12,
        dec_kind in 0usize..3,
        mode_ix in 0usize..2,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let (plan, cl, dm, env0) = build_case(160, 4, Fn1::shift(3), dec_kind);
        let fp = FaultPlan::seeded(seed)
            .with_drop(f64::from(p_drop) / 100.0)
            .with_duplicate(f64::from(p_dup) / 100.0);
        let (s1, j1, _) = traced_run(&plan, &cl, &env0, &dm, mode, Some(fp))
            .map_err(TestCaseError::fail)?;
        let (s2, j2, _) = traced_run(&plan, &cl, &env0, &dm, mode, Some(fp))
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&j1, &j2, "same-seed logs differ (seed={})", seed);
        prop_assert_eq!(s1.send_elems, s2.send_elems);
        // stronger still: drops/dups are pure reliability traffic, so
        // the deterministic stream equals the fault-free run's stream
        // (retransmit *counts* are wall-clock dependent and are only
        // bounded — by the replay check above — never compared)
        let (_, j_clean, _) = traced_run(&plan, &cl, &env0, &dm, mode, None)
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(j1, j_clean, "faults leaked into the deterministic stream");
    }
}
