//! E14 — steady-state iteration: cold vs warm per-timestep cost.
//!
//! A Jacobi timestep loop (`V[i] := 0.5*(U[i-1]+U[i+1])` then
//! `U[i] := V[i]`, 1024 elements, 8 nodes) is the paper's canonical
//! "pay the enumeration once, replay it every sweep" workload (§4
//! amortization). Two executions of the *same* loop are measured:
//!
//! * **cold** — every timestep rebuilds the SPMD plan and spawns a fresh
//!   set of node threads ([`run_distributed`] per clause call);
//! * **warm** — a [`DistSession`] timestep loop: the plan is cached by
//!   `(clause signature, decomposition fingerprint)` and executed on the
//!   session's persistent worker pool, so steady-state steps pay neither
//!   planning nor thread spawning.
//!
//! The acceptance bar is a ≥ 2× warm-over-cold per-timestep speedup; the
//! measured ratio is written to `BENCH_iteration.json` and recorded in
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use vcal_bench::{stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::{run_distributed, CommMode, DistArray, DistOptions, DistSession, NULL_TRACER};
use vcal_spmd::{DecompMap, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;
const STEPS: usize = 20;

/// `U[i] := V[i]` — copies the sweep result back so the next timestep
/// reads it, closing the Jacobi iteration.
fn back_clause(n: i64) -> Clause {
    Clause {
        iter: IndexSet::range(1, n - 2),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::d1("U", Fn1::identity()),
        rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
    }
}

fn workload() -> (Clause, Clause, Env, DecompMap) {
    let sweep = stencil_clause(N);
    let back = back_clause(N);
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, N - 1), |i| {
            (i.scalar() % 17) as f64 * 0.25 - 2.0
        }),
    );
    env.insert("V", Array::zeros(Bounds::range(0, N - 1)));
    let mut dm = DecompMap::new();
    dm.insert("U".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    dm.insert("V".into(), Decomp1::block(PMAX, Bounds::range(0, N - 1)));
    (sweep, back, env, dm)
}

fn dist_arrays(env: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["U", "V"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

/// `steps` cold timesteps: replan + fresh thread set per clause call.
fn cold_loop(
    steps: usize,
    sweep: &Clause,
    back: &Clause,
    env: &Env,
    dm: &DecompMap,
    mode: CommMode,
) -> f64 {
    let mut arrays = dist_arrays(env, dm);
    let opts = DistOptions {
        mode,
        ..DistOptions::default()
    };
    for _ in 0..steps {
        let plan = SpmdPlan::build(sweep, dm).unwrap();
        run_distributed(&plan, sweep, &mut arrays, opts, &NULL_TRACER).unwrap();
        let plan = SpmdPlan::build(back, dm).unwrap();
        run_distributed(&plan, back, &mut arrays, opts, &NULL_TRACER).unwrap();
    }
    arrays["U"].read_local(0, 1)
}

/// `steps` warm timesteps on an already-primed session: plan-cache hits
/// on a persistent pool.
fn warm_loop(steps: usize, sweep: &Clause, back: &Clause, session: &mut DistSession) -> f64 {
    for _ in 0..steps {
        session.run(sweep, &NULL_TRACER).unwrap();
        session.run(back, &NULL_TRACER).unwrap();
    }
    session.gather("U").unwrap().get(&vcal_core::Ix::d1(1))
}

fn bench_iteration(c: &mut Criterion) {
    let (sweep, back, env, dm) = workload();
    let mut rows = Vec::new();

    let mut group = c.benchmark_group("iteration");
    for mode in [CommMode::Element, CommMode::Vectorized] {
        let label = match mode {
            CommMode::Element => "element",
            CommMode::Vectorized => "vectorized",
        };
        group.bench_with_input(BenchmarkId::new("cold", label), &mode, |b, &m| {
            b.iter(|| black_box(cold_loop(STEPS, &sweep, &back, &env, &dm, m)))
        });
        group.bench_with_input(BenchmarkId::new("warm", label), &mode, |b, &m| {
            let mut session =
                DistSession::new(&env, dm.clone())
                    .unwrap()
                    .with_options(DistOptions {
                        mode: m,
                        ..DistOptions::default()
                    });
            // prime: first run pays the cache miss and pool spawn once
            session.run(&sweep, &NULL_TRACER).unwrap();
            session.run(&back, &NULL_TRACER).unwrap();
            b.iter(|| black_box(warm_loop(STEPS, &sweep, &back, &mut session)))
        });

        // hand-timed per-timestep numbers for the JSON report (the
        // acceptance ratio): one warm session, generous step counts
        let reps = 5;
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(cold_loop(STEPS, &sweep, &back, &env, &dm, mode));
        }
        let cold_per_step = t0.elapsed().as_secs_f64() / (reps * STEPS) as f64;

        let mut session = DistSession::new(&env, dm.clone())
            .unwrap()
            .with_options(DistOptions {
                mode,
                ..DistOptions::default()
            });
        session.run(&sweep, &NULL_TRACER).unwrap();
        session.run(&back, &NULL_TRACER).unwrap();
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(warm_loop(STEPS, &sweep, &back, &mut session));
        }
        let warm_per_step = t0.elapsed().as_secs_f64() / (reps * STEPS) as f64;

        println!(
            "[{label}] per-timestep: cold {:.1} µs, warm {:.1} µs — {:.2}× speedup",
            cold_per_step * 1e6,
            warm_per_step * 1e6,
            cold_per_step / warm_per_step
        );
        rows.push(ReportRow::new(
            "BENCH_iteration",
            format!("{label}: per-timestep seconds (cold -> warm), n={N} pmax={PMAX}"),
            cold_per_step,
            warm_per_step,
        ));
    }
    group.finish();
    write_report("BENCH_iteration", &rows);
}

criterion_group!(benches, bench_iteration);
criterion_main!(benches);
