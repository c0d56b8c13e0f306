//! Equivalence and fault-detection suite for the vectorized
//! communication path of the distributed machine.
//!
//! For every (decomposition × access-function) combination of the
//! paper's Table I shapes, element mode (one tagged message per remote
//! value) and vectorized mode (one packet per planned run) must produce
//! bit-identical arrays and identical element-traffic totals — the
//! batching may only change *how* values travel, never *which* values.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    run_distributed, CommMode, DistArray, DistOptions, FaultPlan, MachineError, NodeStats,
    RetryPolicy, NULL_TRACER,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;

/// `A[f(i)] := B[g(i)] + 0.5` over `[0, imax]`.
fn clause(f: Fn1, g: Fn1, imax: i64) -> Clause {
    Clause {
        iter: IndexSet::range(0, imax),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", f),
        rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(0.5)),
    }
}

/// A over `[0, N-1]`, B over `[0, 3N]` (roomy enough for `a·i+c`).
fn env() -> Env {
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, 3 * N), |i| {
            (i.scalar() * 7 % 97) as f64 - 40.0
        }),
    );
    env
}

fn decomp_menu(e: Bounds) -> Vec<(&'static str, Decomp1)> {
    vec![
        ("block", Decomp1::block(PMAX, e)),
        ("scatter", Decomp1::scatter(PMAX, e)),
        ("bs4", Decomp1::block_scatter(4, PMAX, e)),
    ]
}

/// Run one (plan, mode) combination, check the result against the
/// sequential reference, and return the summed node stats.
fn run_mode(
    plan: &SpmdPlan,
    cl: &Clause,
    env0: &Env,
    dm: &DecompMap,
    reference: &Env,
    mode: CommMode,
    ctx: &str,
) -> NodeStats {
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let opts = DistOptions {
        mode,
        ..DistOptions::default()
    };
    let report = run_distributed(plan, cl, &mut arrays, opts, &NULL_TRACER)
        .unwrap_or_else(|e| panic!("{ctx} [{mode:?}]: {e}"));
    assert_eq!(
        arrays["A"]
            .gather()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0,
        "{ctx} [{mode:?}]: result differs from sequential reference"
    );
    report.total()
}

#[test]
fn element_and_vectorized_agree_on_all_combos() {
    let env0 = env();
    let fns: Vec<(&str, Fn1, Fn1, i64)> = vec![
        ("f=i, g=i+c", Fn1::identity(), Fn1::shift(3), N - 1),
        ("f=i, g=a*i+c", Fn1::identity(), Fn1::affine(3, 1), N - 1),
        (
            "f=a*i+c, g=i+c",
            Fn1::affine(2, 1),
            Fn1::shift(3),
            (N - 2) / 2,
        ),
        (
            "f=a*i+c, g=a*i+c",
            Fn1::affine(2, 1),
            Fn1::affine(3, 1),
            (N - 2) / 2,
        ),
    ];
    for (da_name, dec_a) in decomp_menu(Bounds::range(0, N - 1)) {
        for (db_name, dec_b) in decomp_menu(Bounds::range(0, 3 * N)) {
            for (fname, f, g, imax) in &fns {
                let cl = clause(f.clone(), g.clone(), *imax);
                let mut reference = env0.clone();
                reference.exec_clause(&cl);
                let mut dm = DecompMap::new();
                dm.insert("A".into(), dec_a.clone());
                dm.insert("B".into(), dec_b.clone());
                for naive in [false, true] {
                    let plan = if naive {
                        SpmdPlan::build_naive(&cl, &dm).unwrap()
                    } else {
                        SpmdPlan::build(&cl, &dm).unwrap()
                    };
                    let ctx = format!("A={da_name} B={db_name} {fname} naive={naive}");
                    let elem =
                        run_mode(&plan, &cl, &env0, &dm, &reference, CommMode::Element, &ctx);
                    let vect = run_mode(
                        &plan,
                        &cl,
                        &env0,
                        &dm,
                        &reference,
                        CommMode::Vectorized,
                        &ctx,
                    );
                    // identical element totals: batching changes the wire
                    // layout, never the set of communicated values
                    assert_eq!(elem.msgs_sent, vect.msgs_sent, "{ctx}");
                    assert_eq!(elem.msgs_received, vect.msgs_received, "{ctx}");
                    assert_eq!(vect.msgs_received, vect.msgs_sent, "{ctx}");
                    // element mode is one wire message per element
                    assert_eq!(elem.packets_sent, elem.msgs_sent, "{ctx}");
                    // vectorized never sends more wire messages
                    assert!(vect.packets_sent <= elem.packets_sent, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn scatter_affine_meets_ten_x_aggregation() {
    // The acceptance configuration: 1024 elements, scatter decomposition,
    // a·i+c access, 8 nodes — vectorized mode must put at least 10×
    // fewer messages on the wire than element mode.
    let env0 = env();
    let cl = clause(Fn1::identity(), Fn1::affine(3, 1), N - 1);
    let mut reference = env0.clone();
    reference.exec_clause(&cl);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::scatter(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let ctx = "scatter a*i+c acceptance";
    let elem = run_mode(&plan, &cl, &env0, &dm, &reference, CommMode::Element, ctx);
    let vect = run_mode(
        &plan,
        &cl,
        &env0,
        &dm,
        &reference,
        CommMode::Vectorized,
        ctx,
    );
    assert!(elem.msgs_sent > 0, "config must actually communicate");
    assert!(
        elem.packets_sent >= 10 * vect.packets_sent,
        "aggregation below 10x: element packets {} vs vectorized {}",
        elem.packets_sent,
        vect.packets_sent
    );
    assert!(vect.bytes_sent < elem.bytes_sent);
}

/// Shared setup for the packet-loss tests: a plan where node 1's first
/// packet carries a whole multi-element run, plus the scattered arrays.
fn drop_setup() -> (SpmdPlan, Clause, BTreeMap<String, DistArray>) {
    let env0 = env();
    let cl = clause(Fn1::identity(), Fn1::identity(), N - 1);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    // node 1 must really have a multi-element first run, so the drop
    // removes a packet, not a single value
    let first_run = &plan.nodes[1].comm.sends[0].runs[0];
    assert!(first_run.count > 1, "first run should batch elements");

    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.into(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    (plan, cl, arrays)
}

#[test]
fn dropped_packet_recovered_by_retransmission() {
    // Drop node 1's first *packet* (a whole run). With a retry budget
    // the receiver NACKs the gap, node 1 retransmits, and the run
    // completes bit-identically to the fault-free result.
    let (plan, cl, mut arrays) = drop_setup();
    let mut reference = env();
    reference.exec_clause(&cl);
    let opts = DistOptions {
        recv_timeout: Duration::from_secs(5),
        faults: Some(FaultPlan::drop_nth(1, 0)),
        mode: CommMode::Vectorized,
        retry: RetryPolicy::fast(),
        ..DistOptions::default()
    };
    let report =
        run_distributed(&plan, &cl, &mut arrays, opts, &NULL_TRACER).expect("recoverable drop");
    let total = report.total();
    assert!(
        total.retransmits > 0,
        "recovery must go through retransmission"
    );
    assert!(total.nacks_sent > 0, "receiver must have NACKed the gap");
    assert_eq!(
        arrays["A"]
            .gather()
            .max_abs_diff(reference.get("A").unwrap()),
        0.0,
        "recovered run differs from sequential reference"
    );
}

#[test]
fn dropped_packet_detected_within_timeout() {
    // With retries disabled (legacy behaviour) the same dropped packet
    // must surface as a typed MissingPacket error carrying the wire
    // coordinates (peer, slot, run) within the configured receive
    // timeout instead of hanging.
    let (plan, cl, mut arrays) = drop_setup();
    let timeout = Duration::from_millis(250);
    let opts = DistOptions {
        recv_timeout: timeout,
        faults: Some(FaultPlan::drop_nth(1, 0)),
        mode: CommMode::Vectorized,
        retry: RetryPolicy::none(),
        ..DistOptions::default()
    };
    let t0 = Instant::now();
    let err = run_distributed(&plan, &cl, &mut arrays, opts, &NULL_TRACER).unwrap_err();
    let elapsed = t0.elapsed();
    match err {
        MachineError::MissingPacket { peer, .. } => {
            assert_eq!(peer, 1, "loss should be attributed to the dropping peer")
        }
        other => panic!("expected MissingPacket, got {other}"),
    }
    // detection happens within the receive timeout (plus scheduling
    // slack), not after a hang
    assert!(
        elapsed < timeout * 10,
        "loss detection took {elapsed:?} with a {timeout:?} timeout"
    );
}
