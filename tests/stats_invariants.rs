//! Cross-mode counter invariants for the distributed machine — the
//! counter-coverage gap left by the comm-schedule and reliable-transport
//! PRs, closed as part of the observability layer.
//!
//! The same plan executed under [`CommMode::Element`] and
//! [`CommMode::Vectorized`] must agree on everything the paper's cost
//! model depends on:
//!
//! * identical *element* traffic (`msgs_sent` / `msgs_received`),
//!   independent of how elements are batched onto the wire;
//! * `bytes_sent` derivable from `packets_sent` and the planned
//!   `CommRun` lengths (24 bytes per element message; 16-byte header
//!   plus 8 bytes per element for packed runs);
//! * every reliability counter exactly zero when no `FaultPlan` is
//!   installed ([`NodeStats::reliability_quiet`]).

use std::collections::BTreeMap;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    run_distributed, CommMode, DistArray, DistOptions, DistSession, ExecReport, FaultPlan,
    NodeStats, ProgramReport, ProgramStep, RetryPolicy, ScheduleMode, TuneOptions, NULL_TRACER,
};
use vcal_suite::spmd::{DecompMap, SpmdPlan};

const N: i64 = 256;
const PMAX: i64 = 4;

/// Wire-format constants mirrored from the distributed machine's docs:
/// a 24-byte element message, a 16-byte packet header + 8 bytes/element.
const ELEM_MSG_BYTES: u64 = 24;
const PACK_HEADER_BYTES: u64 = 16;

fn fixture(g: Fn1, imin: i64, imax: i64) -> (SpmdPlan, Clause, DecompMap, Env) {
    let cl = Clause {
        iter: IndexSet::range(imin, imax),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(1.0)),
    };
    let mut env0 = Env::new();
    env0.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env0.insert(
        "B",
        Array::from_fn(Bounds::range(0, 6 * N), |i| (i.scalar() % 17) as f64 - 8.0),
    );
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 6 * N)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    (plan, cl, dm, env0)
}

fn run_mode(
    plan: &SpmdPlan,
    cl: &Clause,
    env0: &Env,
    dm: &DecompMap,
    mode: CommMode,
) -> ExecReport {
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    run_distributed(
        plan,
        cl,
        &mut arrays,
        DistOptions {
            mode,
            ..DistOptions::default()
        },
        &NULL_TRACER,
    )
    .unwrap()
}

/// The access functions exercised: shift, strided, gcd-degenerate.
fn accesses() -> Vec<(Fn1, i64, i64)> {
    vec![
        (Fn1::shift(3), 0, N - 1),
        (Fn1::affine(3, 2), 0, N - 1),
        (Fn1::affine(6, 1), 0, N - 1), // gcd(6, pmax) > 1
    ]
}

#[test]
fn element_counts_agree_across_modes() {
    for (g, imin, imax) in accesses() {
        let (plan, cl, dm, env0) = fixture(g.clone(), imin, imax);
        let el = run_mode(&plan, &cl, &env0, &dm, CommMode::Element).total();
        let vec = run_mode(&plan, &cl, &env0, &dm, CommMode::Vectorized).total();
        assert_eq!(el.msgs_sent, vec.msgs_sent, "g={g:?}");
        assert_eq!(el.msgs_received, vec.msgs_received, "g={g:?}");
        assert_eq!(el.msgs_sent, el.msgs_received, "g={g:?}");
        assert_eq!(el.iterations, vec.iterations, "g={g:?}");
        assert_eq!(el.local_reads, vec.local_reads, "g={g:?}");
        // both must agree with the plan's committed communication volume
        let planned: u64 = plan.nodes.iter().map(|n| n.comm.send_elems()).sum();
        assert_eq!(el.msgs_sent, planned, "g={g:?}");
    }
}

#[test]
fn bytes_consistent_with_packets_and_run_lengths() {
    for (g, imin, imax) in accesses() {
        let (plan, cl, dm, env0) = fixture(g.clone(), imin, imax);

        // element mode: one 24-byte wire message per element, max run 1
        let el = run_mode(&plan, &cl, &env0, &dm, CommMode::Element).total();
        assert_eq!(el.packets_sent, el.msgs_sent, "g={g:?}");
        assert_eq!(el.bytes_sent, ELEM_MSG_BYTES * el.msgs_sent, "g={g:?}");
        assert!(el.max_packet_elems <= 1, "g={g:?}");

        // vectorized mode: packets = planned coalesced runs, bytes =
        // header per packet + 8 per element
        let vec = run_mode(&plan, &cl, &env0, &dm, CommMode::Vectorized).total();
        let planned_packets: u64 = plan.nodes.iter().map(|n| n.comm.send_packets()).sum();
        assert_eq!(vec.packets_sent, planned_packets, "g={g:?}");
        assert_eq!(
            vec.bytes_sent,
            PACK_HEADER_BYTES * vec.packets_sent + 8 * vec.msgs_sent,
            "g={g:?}"
        );
        // the longest packet equals the longest planned run
        let longest_run: u64 = plan
            .nodes
            .iter()
            .flat_map(|n| n.comm.sends.iter())
            .flat_map(|pc| pc.runs.iter())
            .map(|r| r.len())
            .max()
            .unwrap_or(0);
        assert_eq!(vec.max_packet_elems, longest_run, "g={g:?}");
        // aggregation can only shrink wire traffic
        assert!(vec.packets_sent <= el.packets_sent, "g={g:?}");
        assert!(vec.bytes_sent <= el.bytes_sent, "g={g:?}");
    }
}

#[test]
fn reliability_counters_zero_without_faults() {
    for (g, imin, imax) in accesses() {
        let (plan, cl, dm, env0) = fixture(g.clone(), imin, imax);
        for mode in [CommMode::Element, CommMode::Vectorized] {
            let report = run_mode(&plan, &cl, &env0, &dm, mode);
            assert!(
                report.reliability_quiet(),
                "g={g:?} mode={mode:?}: {:?}",
                report.total()
            );
            for (p, n) in report.nodes.iter().enumerate() {
                assert!(n.reliability_quiet(), "node {p} g={g:?}: {n:?}");
            }
        }
    }
}

#[test]
fn reliability_counters_fire_with_faults_and_quiet_predicate_flips() {
    let (plan, cl, dm, env0) = fixture(Fn1::shift(3), 0, N - 1);
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
        );
    }
    let report = run_distributed(
        &plan,
        &cl,
        &mut arrays,
        DistOptions {
            mode: CommMode::Vectorized,
            faults: Some(FaultPlan::seeded(7).with_drop(0.4)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        },
        &NULL_TRACER,
    )
    .unwrap();
    let t = report.total();
    assert!(t.retransmits > 0, "{t:?}");
    assert!(t.nacks_sent > 0, "{t:?}");
    assert!(!report.reliability_quiet());
    // a default NodeStats is quiet by construction
    assert!(NodeStats::default().reliability_quiet());
}

/// Tuner counters are quiet on every untuned path (default
/// `ProgramReport`, `run_program` under both schedules) and consistent
/// on the tuned path: the priced-candidate count covers at least the
/// enumerated-plus-incumbent floor, cache hits never exceed the
/// clause-price lookups made, and both reports agree.
#[test]
fn tuner_counters_quiet_untuned_and_consistent_tuned() {
    let d = ProgramReport::default();
    assert_eq!(
        (
            d.candidates_priced,
            d.redistributions_inserted,
            d.tune_cache_hits
        ),
        (0, 0, 0)
    );

    let n = 64i64;
    let step = ProgramStep::Clause(Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("V", Fn1::identity()),
        rhs: Expr::add(
            Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
        ),
    });
    let steps = vec![step.clone(), step];
    let mut env = Env::new();
    for a in ["U", "V"] {
        env.insert(
            a,
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
    }
    let mut dm = DecompMap::new();
    for a in ["U", "V"] {
        dm.insert(a.into(), Decomp1::block(PMAX, Bounds::range(0, n - 1)));
    }

    // untuned program runs never touch the tuner counters
    for schedule in [ScheduleMode::Seq, ScheduleMode::Dag] {
        let mut session = DistSession::new(&env, dm.clone()).unwrap();
        let r = session.run_program(&steps, schedule, &NULL_TRACER).unwrap();
        assert_eq!(r.candidates_priced, 0, "{schedule:?}");
        assert_eq!(r.redistributions_inserted, 0, "{schedule:?}");
        assert_eq!(r.tune_cache_hits, 0, "{schedule:?}");
    }

    // tuned run: counters flow into both reports identically
    let mut session = DistSession::new(&env, dm).unwrap();
    let budget = 5;
    let (report, tune) = session
        .run_program_tuned(
            &steps,
            4,
            ScheduleMode::Seq,
            TuneOptions {
                budget,
                ..TuneOptions::default()
            },
            &NULL_TRACER,
        )
        .unwrap();
    assert_eq!(report.candidates_priced, tune.candidates_priced);
    assert_eq!(
        report.redistributions_inserted,
        tune.redistributions_inserted
    );
    assert_eq!(report.tune_cache_hits, tune.tune_cache_hits);
    assert!(
        tune.candidates_priced >= 2 && tune.candidates_priced <= budget as u64 + 1,
        "priced {} with budget {budget} (+1 incumbent)",
        tune.candidates_priced
    );
    // two identical clauses per candidate: the second is always a
    // cache hit, so hits ≥ candidates and hits < total lookups (2 per
    // candidate)
    assert!(tune.tune_cache_hits >= tune.candidates_priced);
    assert!(tune.tune_cache_hits < 2 * tune.candidates_priced);
}
