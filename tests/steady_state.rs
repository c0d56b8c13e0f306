//! Steady-state executor properties: the warm path (plan cache +
//! persistent worker pool behind [`DistSession::run`]) must be
//! *observationally identical* to the cold path (a fresh
//! [`run_distributed`] per call) — bit-identical array states, identical
//! deterministic trace streams, identical fault recovery — while the
//! cache counters prove the warm path was actually taken.
//!
//! Covered properties:
//!
//! * N warm executions of a timestep loop are bit-identical to N cold
//!   executions, in both communication modes, with and without a seeded
//!   recoverable fault plan;
//! * a traced warm run emits a byte-identical deterministic JSONL log to
//!   a traced cold run and passes the replay checker;
//! * the first run of a clause is a cache miss, every repeat is a hit,
//!   and `redistribute` (layout change or decomposition replacement)
//!   invalidates;
//! * a crashed pooled worker surfaces as a typed `NodePanicked` without
//!   poisoning the session: the next run succeeds with correct results.
//!
//! The CI fault matrix runs this suite once per communication mode via
//! `VCAL_FAULT_MODE=element|vectorized`; unset, both modes run.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    replay_check, run_distributed, CollectingTracer, CommMode, DistArray, DistOptions, DistSession,
    FaultPlan, MachineError, RetryPolicy, NULL_TRACER,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 96;
const PMAX: i64 = 4;

/// Communication modes to exercise, honouring the CI matrix filter.
fn modes() -> Vec<CommMode> {
    match std::env::var("VCAL_FAULT_MODE").as_deref() {
        Ok("element") => vec![CommMode::Element],
        Ok("vectorized") => vec![CommMode::Vectorized],
        _ => vec![CommMode::Element, CommMode::Vectorized],
    }
}

/// The Jacobi-style timestep pair: `V[i] := 0.5*(U[i-1]+U[i+1])` then
/// `U[i] := V[i]` — the second clause feeds the first, so every step
/// depends on the previous one and any divergence compounds.
fn timestep_clauses() -> (Clause, Clause) {
    let sweep = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("V", Fn1::identity()),
        rhs: Expr::mul(
            Expr::add(
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
            ),
            Expr::Lit(0.5),
        ),
    };
    let back = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("U", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
    };
    (sweep, back)
}

fn timestep_env() -> Env {
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, N - 1), |i| {
            let v = i.scalar();
            if v % 3 == 0 {
                -(v as f64)
            } else {
                v as f64 * 0.5
            }
        }),
    );
    env.insert("V", Array::zeros(Bounds::range(0, N - 1)));
    env
}

fn dec_of(kind: u8, ext: Bounds) -> Decomp1 {
    match kind % 3 {
        0 => Decomp1::block(PMAX, ext),
        1 => Decomp1::scatter(PMAX, ext),
        _ => Decomp1::block_scatter(3, PMAX, ext),
    }
}

fn timestep_decomps(u_kind: u8, v_kind: u8) -> DecompMap {
    let ext = Bounds::range(0, N - 1);
    let mut dm = DecompMap::new();
    dm.insert("U".into(), dec_of(u_kind, ext));
    dm.insert("V".into(), dec_of(v_kind, ext));
    dm
}

fn dist_arrays(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["U", "V"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

fn opts_for(mode: CommMode, faults: Option<FaultPlan>) -> DistOptions {
    DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults,
        mode,
        retry: if faults.is_some() {
            RetryPolicy::fast()
        } else {
            RetryPolicy::default()
        },
        ..DistOptions::default()
    }
}

/// N cold steps: a fresh plan/execute cycle per call, the baseline the
/// warm path must match bit-for-bit.
fn run_cold(
    steps: usize,
    mode: CommMode,
    faults: Option<FaultPlan>,
    dm: &DecompMap,
) -> (Array, Array) {
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut arrays = dist_arrays(&env0, dm);
    let opts = opts_for(mode, faults);
    for _ in 0..steps {
        let plan = SpmdPlan::build(&sweep, dm).unwrap();
        run_distributed(&plan, &sweep, &mut arrays, opts, &NULL_TRACER).unwrap();
        let plan = SpmdPlan::build(&back, dm).unwrap();
        run_distributed(&plan, &back, &mut arrays, opts, &NULL_TRACER).unwrap();
    }
    (arrays["U"].gather(), arrays["V"].gather())
}

/// N warm steps through the session: plan cache + persistent pool.
/// Asserts the cache counters prove the warm path engaged.
fn run_warm(
    steps: usize,
    mode: CommMode,
    faults: Option<FaultPlan>,
    dm: &DecompMap,
) -> (Array, Array) {
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut session = DistSession::new(&env0, dm.clone())
        .unwrap()
        .with_options(opts_for(mode, faults));
    for step in 0..steps {
        let r1 = session.run(&sweep, &NULL_TRACER).unwrap();
        let r2 = session.run(&back, &NULL_TRACER).unwrap();
        if step == 0 {
            assert_eq!((r1.cache_hits, r1.cache_misses), (0, 1), "first sweep");
            assert_eq!((r2.cache_hits, r2.cache_misses), (0, 1), "first back");
        } else {
            assert_eq!((r1.cache_hits, r1.cache_misses), (1, 0), "step {step}");
            assert_eq!((r2.cache_hits, r2.cache_misses), (1, 0), "step {step}");
        }
    }
    (session.gather("U").unwrap(), session.gather("V").unwrap())
}

/// The acceptance configuration: a faultless 8-step timestep loop in
/// both communication modes, warm bit-identical to cold.
#[test]
fn warm_timestep_loop_bit_identical_to_cold() {
    let dm = timestep_decomps(0, 1);
    for mode in modes() {
        let (cold_u, cold_v) = run_cold(8, mode, None, &dm);
        let (warm_u, warm_v) = run_warm(8, mode, None, &dm);
        assert_eq!(warm_u.max_abs_diff(&cold_u), 0.0, "{mode:?}: U differs");
        assert_eq!(warm_v.max_abs_diff(&cold_v), 0.0, "{mode:?}: V differs");
    }
}

/// A traced warm run must emit the same deterministic JSONL stream as a
/// traced cold run of the same configuration, and pass the replay
/// checker — buffered worker events replayed after the join cannot be
/// distinguished from live cold-path tracing.
#[test]
fn warm_trace_matches_cold_and_replays() {
    let dm = timestep_decomps(0, 1);
    let (sweep, _) = timestep_clauses();
    let env0 = timestep_env();
    for mode in modes() {
        let opts = opts_for(mode, None);

        let mut arrays = dist_arrays(&env0, &dm);
        let plan = SpmdPlan::build(&sweep, &dm).unwrap();
        let cold_tracer = CollectingTracer::new();
        run_distributed(&plan, &sweep, &mut arrays, opts, &cold_tracer).unwrap();
        let cold_log = cold_tracer.finish();

        let mut session = DistSession::new(&env0, dm.clone())
            .unwrap()
            .with_options(opts);
        // prime the cache so the traced run below is a warm (pooled) run
        session.run(&sweep, &NULL_TRACER).unwrap();
        let warm_tracer = CollectingTracer::new();
        let report = session.run(&sweep, &warm_tracer).unwrap();
        assert_eq!(report.cache_hits, 1, "{mode:?}: traced run was not warm");
        let warm_log = warm_tracer.finish();

        assert_eq!(
            warm_log.to_jsonl(),
            cold_log.to_jsonl(),
            "{mode:?}: warm trace diverges from cold"
        );
        let summary = replay_check(&warm_log, &plan, mode, opts.retry).unwrap();
        assert_eq!(summary.send_elems, summary.recv_elems, "{mode:?}");
    }
}

/// Redistributing a referenced array invalidates the cache: the next run
/// is a miss, replans against the new layout, and stays correct.
#[test]
fn redistribute_invalidates_cache() {
    let dm = timestep_decomps(0, 0);
    let (sweep, back) = timestep_clauses();
    let env0 = timestep_env();
    let mut reference = env0.clone();
    for _ in 0..3 {
        reference.exec_clause(&sweep);
        reference.exec_clause(&back);
    }

    let mut session = DistSession::new(&env0, dm).unwrap();
    session.run(&sweep, &NULL_TRACER).unwrap();
    session.run(&back, &NULL_TRACER).unwrap();
    let r = session.run(&sweep, &NULL_TRACER).unwrap();
    assert_eq!(r.cache_hits, 1);

    // layout change: block -> scatter (decomposition replacement)
    session
        .redistribute("U", Decomp1::scatter(PMAX, Bounds::range(0, N - 1)))
        .unwrap();
    let r = session.run(&back, &NULL_TRACER).unwrap();
    assert_eq!(
        (r.cache_hits, r.cache_misses),
        (0, 1),
        "redistribute must invalidate"
    );
    session.run(&sweep, &NULL_TRACER).unwrap();
    session.run(&back, &NULL_TRACER).unwrap();

    assert_eq!(
        session
            .gather("U")
            .unwrap()
            .max_abs_diff(reference.get("U").unwrap()),
        0.0
    );
}

/// A crashed pooled worker surfaces as `NodePanicked{node}`, leaves the
/// arrays untouched, and does NOT poison the session: after clearing
/// the fault plan, the same session runs correctly again.
#[test]
fn crashed_worker_retires_cleanly() {
    let dm = timestep_decomps(0, 1);
    let (sweep, _) = timestep_clauses();
    let env0 = timestep_env();
    let mut reference = env0.clone();
    reference.exec_clause(&sweep);
    for mode in modes() {
        for node in 0..PMAX {
            let mut session = DistSession::new(&env0, dm.clone())
                .unwrap()
                .with_options(opts_for(mode, None));
            // warm the pool and the cache with a clean run first
            session.run(&sweep, &NULL_TRACER).unwrap();
            // inject a crash into the pooled path
            session.set_options(opts_for(
                mode,
                Some(FaultPlan::seeded(7).with_crash(node, 1)),
            ));
            match session.run(&sweep, &NULL_TRACER) {
                Err(MachineError::NodePanicked { node: n }) => assert_eq!(n, node, "{mode:?}"),
                other => panic!("{mode:?} node {node}: expected NodePanicked, got {other:?}"),
            }
            // the session must survive: clear the faults and run again
            session.set_options(opts_for(mode, None));
            let report = session.run(&sweep, &NULL_TRACER).unwrap();
            assert_eq!(report.cache_hits, 1, "{mode:?}: plan cache lost");
            assert_eq!(
                session
                    .gather("V")
                    .unwrap()
                    .max_abs_diff(reference.get("V").unwrap()),
                0.0,
                "{mode:?} node {node}: post-crash run incorrect"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N warm executions are bit-identical to N cold executions across
    /// decomposition layouts and communication modes, with or without a
    /// seeded recoverable fault plan.
    #[test]
    fn warm_equals_cold_under_fault_soup(
        seed in any::<u64>(),
        steps in 1usize..6,
        u_kind in 0u8..3,
        v_kind in 0u8..3,
        faulty in any::<bool>(),
        p_drop in 0u32..10,
        mode_ix in 0usize..2,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let dm = timestep_decomps(u_kind, v_kind);
        let faults = if faulty {
            Some(
                FaultPlan::seeded(seed)
                    .with_drop(f64::from(p_drop) / 100.0)
                    .with_duplicate(0.05)
                    .with_reorder(0.05),
            )
        } else {
            None
        };
        let (cold_u, cold_v) = run_cold(steps, mode, faults, &dm);
        let (warm_u, warm_v) = run_warm(steps, mode, faults, &dm);
        prop_assert_eq!(warm_u.max_abs_diff(&cold_u), 0.0, "{:?}: U differs", mode);
        prop_assert_eq!(warm_v.max_abs_diff(&cold_v), 0.0, "{:?}: V differs", mode);
    }
}
