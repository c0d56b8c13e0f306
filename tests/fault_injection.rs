//! Seeded fault-injection sweep over the reliable transport layer.
//!
//! Two families of properties, both driven by deterministic seeded
//! [`FaultPlan`]s:
//!
//! * **recoverable** faults — drop / duplicate / reorder / delay under a
//!   retry budget — must leave the distributed result bit-identical to
//!   the sequential reference, in both communication modes and across
//!   redistribution, with the recovery visible in the reliability
//!   counters;
//! * **unrecoverable** faults — an injected node crash, or a link so
//!   lossy the retry budget exhausts — must surface as a *typed*
//!   [`MachineError`] within a bounded time, never a hang or a host
//!   abort, and must leave the destination array untouched.
//!
//! The CI fault matrix runs this suite once per communication mode by
//! setting `VCAL_FAULT_MODE=element|vectorized`; unset, both modes run.
//! Orthogonally, `VCAL_TRANSPORT=inproc|uds|tcp` selects the transport
//! backend, so the same sweep doubles as the real-wire regression
//! harness: every property here must hold bit-for-bit when the nodes
//! are worker OS processes behind a socket.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::{Decomp1, RedistPlan};
use vcal_suite::machine::{
    build_dag, run_distributed, run_redistribution, CommMode, DistArray, DistOptions, DistSession,
    ExecReport, FaultPlan, MachineError, ProgramStep, RetryPolicy, ScheduleMode, TransportKind,
    NULL_TRACER,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 192;
const PMAX: i64 = 4;

/// A fault probability drawn uniformly from `{0, 0.01, …, (hi_pct-1)%}`.
fn prob(hi_pct: u32) -> impl Strategy<Value = f64> {
    (0u32..hi_pct).prop_map(|p| f64::from(p) / 100.0)
}

/// Communication modes to exercise, honouring the CI matrix filter.
fn modes() -> Vec<CommMode> {
    match std::env::var("VCAL_FAULT_MODE").as_deref() {
        Ok("element") => vec![CommMode::Element],
        Ok("vectorized") => vec![CommMode::Vectorized],
        _ => vec![CommMode::Element, CommMode::Vectorized],
    }
}

/// Transport backend under test, honouring the CI matrix filter
/// (`VCAL_TRANSPORT=inproc|uds|tcp`; unset means in-process). The
/// socket backends spawn real worker processes from the prebuilt
/// `vcalc` binary. Redistribution stays in-process regardless — only
/// the 1-D clause machine has a wire backend.
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

/// `A[i] := B[i+3] * 2 - 1` — A block-decomposed, B scattered, so almost
/// every read is remote and every node both sends and receives.
fn fixture() -> (SpmdPlan, Clause, DecompMap, Env, Env) {
    let cl = Clause {
        iter: IndexSet::range(0, N - 1),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(
            Expr::mul(Expr::Ref(ArrayRef::d1("B", Fn1::shift(3))), Expr::Lit(2.0)),
            Expr::Lit(-1.0),
        ),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(0, N + 3), |i| {
            (i.scalar() * 13 % 101) as f64 - 50.0
        }),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, N + 3)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let mut reference = env0.clone();
    reference.exec_clause(&cl);
    (plan, cl, dm, env0, reference)
}

fn dist_arrays(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

fn run_faulty(
    plan: &SpmdPlan,
    cl: &Clause,
    env0: &Env,
    dm: &DecompMap,
    mode: CommMode,
    faults: FaultPlan,
    retry: RetryPolicy,
) -> (
    Result<ExecReport, MachineError>,
    BTreeMap<String, DistArray>,
) {
    let mut arrays = dist_arrays(env0, dm);
    let opts = DistOptions {
        recv_timeout: Duration::from_secs(10),
        faults: Some(faults),
        mode,
        retry,
        transport: transport(),
        ..DistOptions::default()
    };
    let res = run_distributed(plan, cl, &mut arrays, opts, &NULL_TRACER);
    (res, arrays)
}

/// The acceptance configuration: a seeded ~5% per-packet drop + reorder
/// plan in both communication modes must finish bit-identical to the
/// sequential reference and must actually have gone through the
/// retransmission path.
#[test]
fn seeded_drop_reorder_sweep_is_bit_identical() {
    let (plan, cl, dm, env0, reference) = fixture();
    for mode in modes() {
        // retransmissions are asserted over the whole seed sweep: a 5%
        // drop rate may leave an individual low-traffic vectorized run
        // untouched, but the sweep as a whole must exercise recovery
        let mut retransmits = 0u64;
        for seed in [1u64, 7, 23, 1991] {
            let ctx = format!("seed={seed} mode={mode:?}");
            let fp = FaultPlan::seeded(seed).with_drop(0.05).with_reorder(0.05);
            let (res, arrays) = run_faulty(&plan, &cl, &env0, &dm, mode, fp, RetryPolicy::fast());
            let report = res.unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let total = report.total();
            retransmits += total.retransmits;
            assert!(total.acks_sent > 0, "{ctx}: no acks recorded");
            assert_eq!(
                arrays["A"]
                    .gather()
                    .max_abs_diff(reference.get("A").unwrap()),
                0.0,
                "{ctx}: result differs from sequential reference"
            );
        }
        assert!(
            retransmits > 0,
            "{mode:?}: seed sweep never exercised retransmission"
        );
    }
}

/// A node crash inside one DAG wave of several jobs is typed, leaves
/// every array bitwise at its pre-wave image (no job of the wave
/// commits, and the parts the workers shared come back untouched), and
/// the same session's next `run_program` matches the sequential oracle.
#[test]
fn crash_inside_multi_job_wave_rolls_back_and_session_recovers() {
    // three pairwise-independent clauses: block lhs arrays reading
    // scattered sources, so every job sends and receives on every node
    let n = 64;
    let at = |name: &str, shift: i64| Expr::Ref(ArrayRef::d1(name, Fn1::shift(shift)));
    let par = |lhs: &str, rhs: Expr| Clause {
        iter: IndexSet::range(0, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1(lhs, Fn1::identity()),
        rhs,
    };
    let clauses = [
        par("A", Expr::add(at("B", 1), Expr::Lit(1.0))),
        par("C", Expr::mul(at("D", 1), Expr::Lit(2.0))),
        par("E", Expr::add(at("B", 0), at("D", 1))),
    ];
    let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
    let mut dm = DecompMap::new();
    let mut env0 = Env::new();
    for (k, name) in ["A", "B", "C", "D", "E"].into_iter().enumerate() {
        let bounds = Bounds::range(0, n - 1);
        let dec = if k % 2 == 0 {
            Decomp1::block(PMAX, bounds)
        } else {
            Decomp1::scatter(PMAX, bounds)
        };
        dm.insert(name.into(), dec);
        env0.insert(
            name,
            Array::from_fn(bounds, |i| (i.scalar() * 7 + k as i64) as f64 * 0.25 - 3.0),
        );
    }
    let dag = build_dag(&steps, &dm);
    assert_eq!(dag.waves.len(), 1, "the clauses must share one wave");
    assert_eq!(dag.width(), clauses.len());
    let mut oracle = env0.clone();
    for cl in &clauses {
        oracle.exec_clause(cl);
    }
    let bits = |env: &Env, name: &str| -> Vec<u64> {
        env.get(name)
            .unwrap()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let clean = DistOptions {
        recv_timeout: Duration::from_secs(10),
        retry: RetryPolicy::fast(),
        transport: transport(),
        ..DistOptions::default()
    };
    for mode in modes() {
        for (node, after) in [(0, 0), (PMAX - 1, 2)] {
            let ctx = format!("{mode:?}, crash node {node} after {after} packets");
            let mut session = DistSession::new(&env0, dm.clone()).unwrap();
            let before = session.gather_all();
            session.set_options(DistOptions {
                mode,
                faults: Some(FaultPlan::seeded(5).with_crash(node, after)),
                ..clean
            });
            match session.run_program(&steps, ScheduleMode::Dag, &NULL_TRACER) {
                Err(MachineError::NodePanicked { node: n }) => assert_eq!(n, node, "{ctx}"),
                other => panic!("{ctx}: expected NodePanicked, got {other:?}"),
            }
            let after_crash = session.gather_all();
            for name in dm.keys() {
                assert_eq!(
                    bits(&after_crash, name),
                    bits(&before, name),
                    "{ctx}: `{name}` changed by the failed wave"
                );
            }
            session.set_options(DistOptions { mode, ..clean });
            session
                .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
                .unwrap_or_else(|e| panic!("{ctx}: run after the crash failed: {e}"));
            let got = session.gather_all();
            for name in dm.keys() {
                assert_eq!(
                    bits(&got, name),
                    bits(&oracle, name),
                    "{ctx}: `{name}` diverged from the oracle"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded soup of recoverable faults under a retry budget keeps
    /// the distributed result bit-identical to the sequential reference,
    /// and fresh-delivery accounting stays intact (every first
    /// transmission is received exactly once).
    #[test]
    fn recoverable_fault_soup_matches_sequential(
        seed in any::<u64>(),
        p_drop in prob(15),
        p_dup in prob(15),
        p_reorder in prob(15),
        p_delay in prob(10),
        mode_ix in 0usize..2,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let (plan, cl, dm, env0, reference) = fixture();
        let fp = FaultPlan::seeded(seed)
            .with_drop(p_drop)
            .with_duplicate(p_dup)
            .with_reorder(p_reorder)
            .with_delay(p_delay);
        let (res, arrays) =
            run_faulty(&plan, &cl, &env0, &dm, mode, fp, RetryPolicy::fast());
        let report = match res {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("{mode:?}: {e}"))),
        };
        let total = report.total();
        // reliability machinery never changes *which* values arrive
        prop_assert_eq!(total.msgs_received, total.msgs_sent);
        prop_assert_eq!(
            arrays["A"].gather().max_abs_diff(reference.get("A").unwrap()),
            0.0,
            "{:?}: result differs from sequential reference", mode
        );
    }

    /// An injected node crash — possibly amid link noise — surfaces as
    /// `NodePanicked` naming the crashed node, within a bounded time,
    /// with the destination array left untouched.
    #[test]
    fn crash_fault_is_typed_and_bounded(
        seed in any::<u64>(),
        node in 0i64..PMAX,
        after in 0u64..5,
        p_drop in prob(10),
        mode_ix in 0usize..2,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let (plan, cl, dm, env0, _) = fixture();
        let fp = FaultPlan::seeded(seed)
            .with_drop(p_drop)
            .with_crash(node, after);
        let t0 = Instant::now();
        let (res, arrays) =
            run_faulty(&plan, &cl, &env0, &dm, mode, fp, RetryPolicy::fast());
        let elapsed = t0.elapsed();
        prop_assert!(elapsed < Duration::from_secs(30), "took {:?}", elapsed);
        match res {
            Err(MachineError::NodePanicked { node: n }) => prop_assert_eq!(n, node),
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected NodePanicked, got {other:?}"
                )))
            }
        }
        // failed runs must not leave partial writes behind
        prop_assert_eq!(
            arrays["A"].gather().max_abs_diff(env0.get("A").unwrap()),
            0.0,
            "destination array mutated by a failed run"
        );
    }

    /// A link that drops everything from one node exhausts the retry
    /// budget and surfaces as `Unrecoverable` naming that peer — within
    /// a bounded time, never a hang.
    #[test]
    fn exhausted_retry_budget_is_typed_and_bounded(
        seed in any::<u64>(),
        victim in 0i64..PMAX,
        mode_ix in 0usize..2,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let (plan, cl, dm, env0, _) = fixture();
        let fp = FaultPlan::seeded(seed).with_drop(1.0).with_from_only(victim);
        let t0 = Instant::now();
        let (res, arrays) =
            run_faulty(&plan, &cl, &env0, &dm, mode, fp, RetryPolicy::fast());
        let elapsed = t0.elapsed();
        prop_assert!(elapsed < Duration::from_secs(30), "took {:?}", elapsed);
        match res {
            Err(MachineError::Unrecoverable { peer, retries, .. }) => {
                prop_assert_eq!(peer, victim);
                prop_assert!(retries > 0, "budget must have been spent");
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected Unrecoverable, got {other:?}"
                )))
            }
        }
        prop_assert_eq!(
            arrays["A"].gather().max_abs_diff(env0.get("A").unwrap()),
            0.0,
            "destination array mutated by a failed run"
        );
    }

    /// Redistribution between arbitrary layout pairs survives a seeded
    /// fault soup with every element intact.
    #[test]
    fn redistribution_survives_fault_soup(
        seed in any::<u64>(),
        p_drop in prob(15),
        p_dup in prob(15),
        p_reorder in prob(15),
        from_kind in 0u8..3,
        to_kind in 0u8..3,
    ) {
        let e = Bounds::range(0, N - 1);
        let mk = |kind: u8| match kind {
            0 => Decomp1::block(PMAX, e),
            1 => Decomp1::scatter(PMAX, e),
            _ => Decomp1::block_scatter(3, PMAX, e),
        };
        let (from, to) = (mk(from_kind), mk(to_kind));
        let original = Array::from_fn(e, |i| (i.scalar() * 31 % 89) as f64 + 0.25);
        let src = DistArray::scatter_from(&original, from.clone());
        let plan = RedistPlan::build(&from, &to);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(10),
            faults: Some(
                FaultPlan::seeded(seed)
                    .with_drop(p_drop)
                    .with_duplicate(p_dup)
                    .with_reorder(p_reorder),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let (dst, _report) = match run_redistribution(&plan, &src, opts, &NULL_TRACER) {
            Ok(ok) => ok,
            Err(e) => return Err(TestCaseError::fail(format!("redistribution: {e}"))),
        };
        prop_assert_eq!(
            dst.gather().max_abs_diff(&original),
            0.0,
            "redistribution lost or corrupted elements"
        );
    }
}
