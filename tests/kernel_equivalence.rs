//! Compiled-kernel equivalence: the plan-time bytecode/fused-shape
//! execution path must be **bit-identical** to the tree interpreter
//! ([`Env::eval_expr`]) it replaces, and communication/computation
//! overlap must be purely a scheduling change — never a value change.
//!
//! Covered properties, over random expression trees × Table I
//! index-function classes × block/scatter/block-scatter decompositions:
//!
//! * [`CompiledKernel::eval`] reproduces `Env::eval_expr` bit-for-bit at
//!   every loop index (unit level — no machine involved);
//! * the distributed machine's compiled update path produces arrays
//!   bit-identical to the sequential reference executor, with overlap on
//!   and off, in both communication modes;
//! * overlap-on is bit-identical to overlap-off under recoverable
//!   seeded `FaultPlan`s — a dropped boundary packet is retransmitted
//!   and consumed, never satisfied from stale staging by an interior
//!   run;
//! * the plan-time interior/boundary split is exhaustive: interior plus
//!   boundary elements equal the clause's iteration count;
//! * the SIMD lane tier is bit-identical to the scalar path — and both
//!   to `eval_expr` — across every policy (AVX2 auto, forced chunk
//!   loops at 4/8/16 lanes, off), with iteration counts chosen to cover
//!   remainder-lane tails (n not a multiple of the lane width) and
//!   single-element runs, with and without recoverable fault plans.
//!
//! The CI fault matrix runs this suite once per communication mode via
//! `VCAL_FAULT_MODE=element|vectorized`; the SIMD matrix once per
//! policy via `VCAL_SIMD=on|off|auto`. Unset, all variants run.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{
    Array, ArrayRef, BinOp, Bounds, Clause, CmpOp, Env, Expr, Guard, IndexSet, Ix, Ordering,
};
use vcal_suite::decomp::Decomp1;
use vcal_suite::machine::{
    run_distributed, CommMode, DistArray, DistOptions, FaultPlan, RetryPolicy, SimdMode,
    SimdPolicy, NULL_TRACER,
};
use vcal_suite::spmd::{CompiledKernel, CompiledSchedule, DecompMap, SpmdPlan};

const N: i64 = 64;
const PMAX: i64 = 4;
/// Operand extent covering every vocabulary access over `0..N-1`
/// (worst case: `2i+1` at `i = N-1`, `i-2` at `i = 0`).
const OP_LO: i64 = -2;
const OP_HI: i64 = 2 * (N - 1) + 1;

/// Communication modes to exercise, honouring the CI matrix filter.
fn modes() -> Vec<CommMode> {
    match std::env::var("VCAL_FAULT_MODE").as_deref() {
        Ok("element") => vec![CommMode::Element],
        Ok("vectorized") => vec![CommMode::Vectorized],
        _ => vec![CommMode::Element, CommMode::Vectorized],
    }
}

/// SIMD policies to exercise, honouring the CI matrix filter. Unset,
/// every case compares the auto tier (AVX2 where detected), a forced
/// portable chunk path at a case-chosen lane width, and scalar off.
fn simd_policies(lanes: usize) -> Vec<SimdPolicy> {
    match std::env::var("VCAL_SIMD").as_deref() {
        Ok("on") => vec![SimdPolicy::on()],
        Ok("off") => vec![SimdPolicy::off()],
        Ok("auto") => vec![SimdPolicy::auto()],
        _ => vec![
            SimdPolicy::auto(),
            SimdPolicy {
                mode: SimdMode::On,
                lanes,
            },
            SimdPolicy::off(),
        ],
    }
}

/// The read-reference vocabulary random expressions draw from — Table I
/// index-function classes (`i`, `i+c`, `a·i+c`) over two operand arrays.
fn vocab() -> Vec<(&'static str, Fn1)> {
    vec![
        ("B", Fn1::identity()),
        ("B", Fn1::shift(-1)),
        ("B", Fn1::shift(1)),
        ("B", Fn1::shift(2)),
        ("B", Fn1::affine(2, 1)),
        ("C", Fn1::identity()),
        ("C", Fn1::shift(-2)),
    ]
}

/// Random expression trees over the vocabulary: literals, the loop
/// index, negation and every scalar binary operator, to depth 3.
fn arb_expr() -> BoxedStrategy<Expr> {
    let mut leaves: Vec<Expr> = vocab()
        .into_iter()
        .map(|(a, g)| Expr::Ref(ArrayRef::d1(a, g)))
        .collect();
    leaves.extend([
        Expr::Lit(-2.5),
        Expr::Lit(0.0),
        Expr::Lit(0.5),
        Expr::Lit(3.25),
        Expr::LoopVar { dim: 0 },
    ]);
    let ops = vec![
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
    ];
    let leaf = prop::sample::select(leaves);
    leaf.prop_recursive(3, 24, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            (prop::sample::select(ops.clone()), inner.clone(), inner)
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
        ]
    })
}

/// Deduplicated `(array, g)` read list of an expression — the slot
/// numbering the machines hand to [`CompiledKernel::compile`].
fn read_list(e: &Expr) -> Vec<(String, Fn1)> {
    let mut out: Vec<(String, Fn1)> = Vec::new();
    for r in e.refs() {
        if let Some(g) = r.map.as_fn1() {
            if !out.iter().any(|(a, h)| *a == r.array && h == g) {
                out.push((r.array.clone(), g.clone()));
            }
        }
    }
    out
}

/// Operand arrays with value mixes that expose sign/NaN-sensitive
/// divergence (negatives, zeros, a spread of magnitudes).
fn operand_env() -> Env {
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, N - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(OP_LO, OP_HI), |i| {
            (i.scalar() % 23) as f64 * 0.5 - 5.0
        }),
    );
    env.insert(
        "C",
        Array::from_fn(Bounds::range(OP_LO, OP_HI), |i| {
            let v = i.scalar();
            if v % 7 == 0 {
                0.0
            } else {
                v as f64 * -0.37 + 1.25
            }
        }),
    );
    env
}

fn dec_of(kind: u8, ext: Bounds) -> Decomp1 {
    match kind % 3 {
        0 => Decomp1::block(PMAX, ext),
        1 => Decomp1::scatter(PMAX, ext),
        _ => Decomp1::block_scatter(3, PMAX, ext),
    }
}

fn decomps(a_kind: u8, b_kind: u8, c_kind: u8) -> DecompMap {
    let mut dm = DecompMap::new();
    dm.insert("A".into(), dec_of(a_kind, Bounds::range(0, N - 1)));
    dm.insert("B".into(), dec_of(b_kind, Bounds::range(OP_LO, OP_HI)));
    dm.insert("C".into(), dec_of(c_kind, Bounds::range(OP_LO, OP_HI)));
    dm
}

/// `A[i] := rhs` over `0..n-1`, optionally guarded by a data-dependent
/// comparison on `B[i]` (the paper's Fig. 1 shape). `n` below `N`
/// shrinks per-node runs off lane-width multiples, so the SIMD tier's
/// remainder tails — down to single-element runs at `n = 1` — are
/// exercised against the same scalar oracle.
fn clause_of_n(rhs: Expr, guarded: bool, n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(0, n - 1),
        ordering: Ordering::Par,
        guard: if guarded {
            Guard::Cmp {
                lhs: ArrayRef::d1("B", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            }
        } else {
            Guard::Always
        },
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs,
    }
}

/// One distributed execution; returns the gathered `A`.
fn run_dist(
    cl: &Clause,
    dm: &DecompMap,
    env0: &Env,
    mode: CommMode,
    overlap: bool,
    simd: SimdPolicy,
    faults: Option<FaultPlan>,
) -> Result<Array, String> {
    let plan = SpmdPlan::build(cl, dm).map_err(|e| e.to_string())?;
    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for name in ["A", "B", "C"] {
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
        overlap,
        simd,
        ..DistOptions::default()
    };
    run_distributed(&plan, cl, &mut arrays, opts, &NULL_TRACER).map_err(|e| e.to_string())?;
    Ok(arrays["A"].gather())
}

/// Bit pattern of every element — `-0.0` vs `0.0` and NaN payloads
/// included, which `max_abs_diff` cannot distinguish.
fn bits(a: &Array) -> Vec<u64> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// The plan-time interior/boundary split covers the stencil's iteration
/// space exactly and both classes are non-empty on a block layout.
#[test]
fn interior_boundary_split_is_exhaustive() {
    let rhs = Expr::mul(
        Expr::add(
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        ),
        Expr::Lit(0.5),
    );
    let cl = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs,
    };
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
    assert!(cs.has_exec(), "stencil clause must compile");
    let census = cs.overlap_census();
    assert_eq!(
        census.interior_elems + census.boundary_elems,
        (N - 2) as u64,
        "split must cover the iteration space exactly"
    );
    assert!(census.interior_elems > 0, "block stencil has interior work");
    assert!(
        census.boundary_runs > 0,
        "block stencil has halo boundaries"
    );
    assert!(
        census.remote_elems >= census.boundary_runs,
        "every boundary run consumes at least one remote element"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unit level: the compiled bytecode reproduces the tree interpreter
    /// bit-for-bit at every loop index, for random expression trees.
    #[test]
    fn bytecode_bitwise_equals_eval_expr(e in arb_expr()) {
        let env = operand_env();
        let reads = read_list(&e);
        let k = CompiledKernel::compile(&e, reads.len(), |r: &ArrayRef| {
            let g = r.map.as_fn1()?;
            reads.iter().position(|(a, h)| *a == r.array && h == g)
        });
        let k = k.expect("every vocabulary reference resolves");
        let mut stack = Vec::with_capacity(k.stack_capacity());
        for i in 0..N {
            let vals: Vec<f64> = reads
                .iter()
                .map(|(a, g)| env.get(a).unwrap().get(&Ix::d1(g.eval(i))))
                .collect();
            let want = env.eval_expr(&e, &Ix::d1(i));
            let got = k.eval(&[i], &vals, &mut stack);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "expr={:?} i={} got={} want={}",
                &e, i, got, want
            );
        }
    }

    /// Machine level: the compiled update path is bit-identical to the
    /// sequential reference — overlap-on to overlap-off, and every SIMD
    /// policy to the scalar path — across random expressions, guards,
    /// decomposition layouts, and iteration extents (including extents
    /// that leave remainder-lane tails or single-element runs).
    #[test]
    fn distributed_matches_sequential_bitwise(
        e in arb_expr(),
        guarded in any::<bool>(),
        n in 1i64..=N,
        a_kind in 0u8..3,
        b_kind in 0u8..3,
        c_kind in 0u8..3,
        mode_ix in 0usize..2,
        lanes_ix in 0usize..3,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let cl = clause_of_n(e, guarded, n);
        let dm = decomps(a_kind, b_kind, c_kind);
        let env0 = operand_env();
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());

        for simd in simd_policies([4, 8, 16][lanes_ix]) {
            let on = run_dist(&cl, &dm, &env0, mode, true, simd, None)
                .map_err(TestCaseError::fail)?;
            let off = run_dist(&cl, &dm, &env0, mode, false, simd, None)
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                &bits(&on), &want,
                "{:?} overlap=on simd={:?} n={} diverges: {}", mode, simd, n, cl
            );
            prop_assert_eq!(
                &bits(&off), &want,
                "{:?} overlap=off simd={:?} n={} diverges: {}", mode, simd, n, cl
            );
        }
    }

    /// Under a recoverable seeded fault plan the results are *still*
    /// bit-identical to the sequential reference with overlap on and
    /// off and under every SIMD policy — a dropped boundary packet is
    /// recovered and consumed, never replaced by stale staging in an
    /// interior-first schedule, and retry loops never re-enter the
    /// vector tier with partial state.
    #[test]
    fn overlap_invariant_under_recoverable_faults(
        e in arb_expr(),
        seed in any::<u64>(),
        p_drop in 0u32..15,
        n in 1i64..=N,
        a_kind in 0u8..3,
        b_kind in 0u8..3,
        mode_ix in 0usize..2,
        lanes_ix in 0usize..3,
    ) {
        let all = modes();
        let mode = all[mode_ix % all.len()];
        let cl = clause_of_n(e, false, n);
        let dm = decomps(a_kind, b_kind, 0);
        let env0 = operand_env();
        let mut reference = env0.clone();
        reference.exec_clause(&cl);
        let want = bits(reference.get("A").unwrap());

        let fp = FaultPlan::seeded(seed)
            .with_drop(f64::from(p_drop) / 100.0)
            .with_duplicate(0.05)
            .with_reorder(0.05);
        for simd in simd_policies([4, 8, 16][lanes_ix]) {
            let on = run_dist(&cl, &dm, &env0, mode, true, simd, Some(fp))
                .map_err(TestCaseError::fail)?;
            let off = run_dist(&cl, &dm, &env0, mode, false, simd, Some(fp))
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(
                &bits(&on), &want,
                "{:?} overlap=on simd={:?} under faults: {}", mode, simd, cl
            );
            prop_assert_eq!(
                &bits(&off), &want,
                "{:?} overlap=off simd={:?} under faults: {}", mode, simd, cl
            );
        }
    }
}

/// The plan-time SIMD census and the runtime per-node counters agree:
/// same lane width, same vectorized/fallback run split, same lane/tail
/// element accounting. This pins the shared eligibility predicate —
/// what the planner promises is exactly what the machine executes.
#[test]
fn simd_census_plan_matches_runtime() {
    let rhs = Expr::mul(
        Expr::add(
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::shift(1))),
        ),
        Expr::Lit(0.5),
    );
    let cl = Clause {
        iter: IndexSet::range(1, N - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs,
    };
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    let plan = SpmdPlan::build(&cl, &dm).unwrap();
    let cs = CompiledSchedule::compile_exec(&plan, &cl, &dm);
    assert!(cs.has_exec(), "stencil clause must compile");

    for simd in [SimdPolicy::auto(), SimdPolicy::on(), SimdPolicy::off()] {
        let planned = cs.simd_census(simd);
        let mut env0 = Env::new();
        env0.insert("A", Array::zeros(Bounds::range(0, N - 1)));
        env0.insert(
            "B",
            Array::from_fn(Bounds::range(0, N - 1), |i| i.scalar() as f64 * 0.25 - 3.0),
        );
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
                simd,
                ..DistOptions::default()
            },
            &NULL_TRACER,
        )
        .unwrap();
        let ran = report.simd_census();
        assert_eq!(ran.vector_runs, planned.vector_runs, "simd={simd:?}");
        assert_eq!(ran.fallback_runs, planned.fallback_runs, "simd={simd:?}");
        assert_eq!(ran.lane_elems, planned.lane_elems, "simd={simd:?}");
        assert_eq!(ran.tail_elems, planned.tail_elems, "simd={simd:?}");
        if simd.enabled() {
            assert!(planned.vector_runs > 0, "interior stencil must vectorize");
            assert_eq!(ran.lanes, planned.lanes, "lane width must agree");
        } else {
            assert_eq!(planned.vector_runs, 0, "off policy never vectorizes");
        }
    }
}
