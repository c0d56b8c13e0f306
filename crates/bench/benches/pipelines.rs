//! Extension ablations: DOACROSS pipelining (Section 2.6's remark) and
//! halo sweeps (Section 5's overlapped decompositions) against their
//! baselines.
//!
//! * recurrence `A[i] := A[i-1] + B[i]`: single-node sequential vs the
//!   DOACROSS pipeline over increasing processor counts;
//! * Jacobi sweep: the plain Section 2.10 template (per-element
//!   boundary messages every sweep) vs one ghost exchange + pure local
//!   compute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::stencil_clause;
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::{Decomp1, OverlapDecomp};
use vcal_machine::{
    exchange_ghosts, run_distributed, run_doacross, run_halo_sweep, DistArray, DistOptions,
    HaloArray, NULL_TRACER,
};
use vcal_spmd::{DecompMap, SpmdPlan};

fn recurrence(n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(1, n - 1),
        ordering: Ordering::Seq,
        guard: Guard::Always,
        lhs: ArrayRef::d1("A", Fn1::identity()),
        rhs: Expr::add(
            Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))),
            Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        ),
    }
}

fn bench_doacross(c: &mut Criterion) {
    let n: i64 = 1 << 13;
    let clause = recurrence(n);
    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() % 9) as f64),
    );

    let mut group = c.benchmark_group("pipelines/doacross");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut e = env.clone();
            e.exec_clause(&clause);
            black_box(e.get("A").unwrap().data()[10])
        })
    });
    for pmax in [2i64, 4, 8] {
        let dec = Decomp1::block(pmax, Bounds::range(0, n - 1));
        group.bench_with_input(BenchmarkId::new("pipeline", pmax), &pmax, |b, _| {
            b.iter(|| {
                let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
                for name in ["A", "B"] {
                    arrays.insert(
                        name.into(),
                        DistArray::scatter_from(env.get(name).unwrap(), dec.clone()),
                    );
                }
                let r = run_doacross(&clause, &mut arrays).unwrap();
                black_box(r.total().msgs_sent)
            })
        });
    }
    group.finish();
}

fn bench_halo_vs_template(c: &mut Criterion) {
    let n: i64 = 1 << 12;
    let pmax = 8i64;
    let clause = stencil_clause(n);
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() % 11) as f64),
    );
    env.insert("V", Array::zeros(Bounds::range(0, n - 1)));

    // baseline: plain distributed template, per-element boundary messages
    let dec = Decomp1::block(pmax, Bounds::range(0, n - 1));
    let mut dm = DecompMap::new();
    dm.insert("U".into(), dec.clone());
    dm.insert("V".into(), dec.clone());
    let plan = SpmdPlan::build(&clause, &dm).unwrap();

    let mut group = c.benchmark_group("pipelines/halo_vs_template");
    group.bench_function("template", |b| {
        b.iter(|| {
            let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
            for a in ["U", "V"] {
                arrays.insert(
                    a.into(),
                    DistArray::scatter_from(env.get(a).unwrap(), dm[a].clone()),
                );
            }
            let r = run_distributed(
                &plan,
                &clause,
                &mut arrays,
                DistOptions::default(),
                &NULL_TRACER,
            )
            .unwrap();
            black_box(r.total().msgs_sent)
        })
    });
    group.bench_function("halo_sweep", |b| {
        b.iter(|| {
            let ov = OverlapDecomp::new(dec.clone(), 1);
            let mut u = HaloArray::scatter_from(env.get("U").unwrap(), ov.clone());
            let mut v = HaloArray::scatter_from(env.get("V").unwrap(), ov);
            let x = exchange_ghosts(&mut u, &NULL_TRACER);
            let mut reads = BTreeMap::new();
            reads.insert("U".to_string(), u);
            let r = run_halo_sweep(&clause, &mut v, &reads).unwrap();
            black_box(x.total().msgs_sent + r.total().iterations)
        })
    });
    group.finish();

    eprintln!(
        "\nhalo ablation (n={n}, pmax={pmax}): template sends {} element messages per \
         sweep; halo exchange sends {} boundary messages.",
        {
            let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
            for a in ["U", "V"] {
                arrays.insert(
                    a.into(),
                    DistArray::scatter_from(env.get(a).unwrap(), dm[a].clone()),
                );
            }
            run_distributed(
                &plan,
                &clause,
                &mut arrays,
                DistOptions::default(),
                &NULL_TRACER,
            )
            .unwrap()
            .total()
            .msgs_sent
        },
        {
            let ov = OverlapDecomp::new(dec.clone(), 1);
            let mut u = HaloArray::scatter_from(env.get("U").unwrap(), ov);
            exchange_ghosts(&mut u, &NULL_TRACER).total().msgs_sent
        }
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1200))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_doacross, bench_halo_vs_template
}
criterion_main!(benches);
