//! E15 — fused compute kernels + communication/computation overlap.
//!
//! Two measurements on the Jacobi workload (`V[i] := 0.5*(U[i-1]+U[i+1])`
//! then `U[i] := V[i]`, 1024 elements, 8 nodes — the E14 configuration):
//!
//! * **per-element kernel throughput** — the update-phase inner loop in
//!   isolation: the tree interpreter ([`Env::eval_expr`]: recursion, `Box`
//!   chasing, a `BTreeMap` lookup per array reference) against the
//!   compiled path ([`CompiledKernel`] postfix bytecode and the fused
//!   [`FusedShape::Stencil`] loop reading straight off the local slice).
//!   Acceptance bar: ≥ 3× compiled over interpreted.
//! * **warm steady-state step time, overlap on vs off** — a primed
//!   [`DistSession`] timestep loop with the plan-time interior/boundary
//!   split enabled (interior kernels execute while halo packets are in
//!   flight) vs strict schedule visit order. Also reports the cold→warm
//!   per-step ratio in the same configuration so `BENCH_kernel_overlap.json`
//!   is directly comparable against PR 4's `BENCH_iteration.json`
//!   baseline (warm step time must be no worse).
//!
//! Results land in `target/vcal-reports/BENCH_kernel_overlap.json` and
//! EXPERIMENTS.md E15.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use vcal_bench::{stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ix, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::{run_distributed, CommMode, DistArray, DistOptions, DistSession, NULL_TRACER};
use vcal_spmd::{CompiledKernel, DecompMap, FusedShape, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;
const STEPS: usize = 20;

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

// ---------------------------------------------------------------------
// per-element kernel throughput: interpreted vs compiled update loop
// ---------------------------------------------------------------------

/// The tree-interpreter inner loop: exactly what the legacy update phase
/// pays per element — `Env::eval_expr` recursion with a name lookup per
/// array reference.
fn interpreted_sweep(env: &Env, rhs: &Expr, out: &mut [f64]) {
    for i in 1..N - 1 {
        out[(i - 1) as usize] = env.eval_expr(rhs, &Ix::d1(i));
    }
}

/// The compiled bytecode loop: slot values gathered off the local slice,
/// one postfix evaluation per element — no recursion, no map lookups.
fn bytecode_sweep(u: &[f64], kernel: &CompiledKernel, stack: &mut Vec<f64>, out: &mut [f64]) {
    for i in 1..N - 1 {
        let vals = [u[(i - 1) as usize], u[(i + 1) as usize]];
        out[(i - 1) as usize] = kernel.eval(&[i], &vals, stack);
    }
}

/// The fused fast path the machines run for recognized shapes: the
/// stencil arithmetic applied straight off the slice.
fn fused_sweep(u: &[f64], shape: &FusedShape, out: &mut [f64]) {
    for i in 1..N - 1 {
        let vals = [u[(i - 1) as usize], u[(i + 1) as usize]];
        out[(i - 1) as usize] = shape.apply(&vals).expect("fused arity");
    }
}

fn per_second(elems: u64, secs: f64) -> f64 {
    elems as f64 / secs
}

// ---------------------------------------------------------------------
// steady-state step time: overlap on vs off, cold vs warm
// ---------------------------------------------------------------------

fn cold_loop(
    steps: usize,
    sweep: &Clause,
    back: &Clause,
    env: &Env,
    dm: &DecompMap,
    opts: DistOptions,
) -> f64 {
    let mut arrays = dist_arrays(env, dm);
    for _ in 0..steps {
        let plan = SpmdPlan::build(sweep, dm).unwrap();
        run_distributed(&plan, sweep, &mut arrays, opts, &NULL_TRACER).unwrap();
        let plan = SpmdPlan::build(back, dm).unwrap();
        run_distributed(&plan, back, &mut arrays, opts, &NULL_TRACER).unwrap();
    }
    arrays["U"].read_local(0, 1)
}

fn warm_loop(steps: usize, sweep: &Clause, back: &Clause, session: &mut DistSession) -> f64 {
    for _ in 0..steps {
        session.run(sweep, &NULL_TRACER).unwrap();
        session.run(back, &NULL_TRACER).unwrap();
    }
    session.gather("U").unwrap().get(&Ix::d1(1))
}

fn primed_session(env: &Env, dm: &DecompMap, opts: DistOptions) -> DistSession {
    let (sweep, back) = (stencil_clause(N), back_clause(N));
    let mut session = DistSession::new(env, dm.clone())
        .unwrap()
        .with_options(opts);
    session.run(&sweep, &NULL_TRACER).unwrap();
    session.run(&back, &NULL_TRACER).unwrap();
    session
}

/// Hand-timed warm per-step seconds over `reps × STEPS` timesteps.
fn measure_warm(session: &mut DistSession, sweep: &Clause, back: &Clause, reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(warm_loop(STEPS, sweep, back, session));
    }
    t0.elapsed().as_secs_f64() / (reps * STEPS) as f64
}

fn bench_kernel_overlap(c: &mut Criterion) {
    let (sweep, back, env, dm) = workload();
    let mut rows = Vec::new();

    // ---- kernel throughput ------------------------------------------
    let rhs = sweep.rhs.clone();
    let reads = [
        ("U".to_string(), Fn1::shift(-1)),
        ("U".to_string(), Fn1::shift(1)),
    ];
    let kernel = CompiledKernel::compile(&rhs, reads.len(), |r: &ArrayRef| {
        let g = r.map.as_fn1()?;
        reads.iter().position(|(a, h)| *a == r.array && h == g)
    })
    .expect("stencil compiles");
    assert!(
        matches!(kernel.fused, FusedShape::Stencil { .. }),
        "Jacobi must hit the fused stencil path"
    );
    let u: Vec<f64> = env.get("U").unwrap().data().to_vec();
    let mut out = vec![0.0f64; (N - 2) as usize];
    let mut stack = Vec::with_capacity(kernel.stack_capacity());

    let mut group = c.benchmark_group("kernel");
    group.bench_function("interpreted", |b| {
        b.iter(|| interpreted_sweep(black_box(&env), &rhs, &mut out))
    });
    group.bench_function("bytecode", |b| {
        b.iter(|| bytecode_sweep(black_box(&u), &kernel, &mut stack, &mut out))
    });
    group.bench_function("fused", |b| {
        b.iter(|| fused_sweep(black_box(&u), &kernel.fused, &mut out))
    });
    group.finish();

    // hand-timed per-element throughput for the JSON report
    let reps = 2_000u64;
    let elems = reps * (N - 2) as u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        interpreted_sweep(black_box(&env), &rhs, &mut out);
    }
    let interp = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        bytecode_sweep(black_box(&u), &kernel, &mut stack, &mut out);
    }
    let bytec = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        fused_sweep(black_box(&u), &kernel.fused, &mut out);
    }
    let fused = t0.elapsed().as_secs_f64();
    black_box(&out);
    println!(
        "[kernel] per-element: interpreted {:.1} Melem/s, bytecode {:.1} Melem/s ({:.2}x), fused {:.1} Melem/s ({:.2}x)",
        per_second(elems, interp) / 1e6,
        per_second(elems, bytec) / 1e6,
        interp / bytec,
        per_second(elems, fused) / 1e6,
        interp / fused,
    );
    rows.push(ReportRow::new(
        "BENCH_kernel_overlap",
        format!("jacobi per-element seconds (interpreted -> compiled bytecode), n={N}"),
        interp / elems as f64,
        bytec / elems as f64,
    ));
    rows.push(ReportRow::new(
        "BENCH_kernel_overlap",
        format!("jacobi per-element seconds (interpreted -> fused stencil), n={N}"),
        interp / elems as f64,
        fused / elems as f64,
    ));

    // ---- steady-state step time: overlap on vs off ------------------
    let mut group = c.benchmark_group("overlap");
    for mode in [CommMode::Element, CommMode::Vectorized] {
        let label = match mode {
            CommMode::Element => "element",
            CommMode::Vectorized => "vectorized",
        };
        for overlap in [false, true] {
            let opts = DistOptions {
                mode,
                overlap,
                ..DistOptions::default()
            };
            group.bench_with_input(
                BenchmarkId::new(if overlap { "warm-on" } else { "warm-off" }, label),
                &opts,
                |b, &o| {
                    let mut session = primed_session(&env, &dm, o);
                    b.iter(|| black_box(warm_loop(STEPS, &sweep, &back, &mut session)))
                },
            );
        }

        // hand-timed rows: overlap off -> on, and cold -> warm (E14 shape)
        let reps = 5;
        let opts_off = DistOptions {
            mode,
            overlap: false,
            ..DistOptions::default()
        };
        let opts_on = DistOptions {
            mode,
            overlap: true,
            ..DistOptions::default()
        };
        let mut s_off = primed_session(&env, &dm, opts_off);
        let off_per_step = measure_warm(&mut s_off, &sweep, &back, reps);
        drop(s_off);
        let mut s_on = primed_session(&env, &dm, opts_on);
        let on_per_step = measure_warm(&mut s_on, &sweep, &back, reps);
        drop(s_on);
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(cold_loop(STEPS, &sweep, &back, &env, &dm, opts_on));
        }
        let cold_per_step = t0.elapsed().as_secs_f64() / (reps * STEPS) as f64;
        println!(
            "[{label}] per-timestep: cold {:.1} µs, warm overlap-off {:.1} µs, warm overlap-on {:.1} µs ({:.2}x off->on)",
            cold_per_step * 1e6,
            off_per_step * 1e6,
            on_per_step * 1e6,
            off_per_step / on_per_step
        );
        rows.push(ReportRow::new(
            "BENCH_kernel_overlap",
            format!("{label}: warm per-timestep seconds (overlap off -> on), n={N} pmax={PMAX}"),
            off_per_step,
            on_per_step,
        ));
        rows.push(ReportRow::new(
            "BENCH_kernel_overlap",
            format!("{label}: per-timestep seconds (cold -> warm), n={N} pmax={PMAX}"),
            cold_per_step,
            on_per_step,
        ));
    }
    group.finish();
    write_report("BENCH_kernel_overlap", &rows);
}

criterion_group!(benches, bench_kernel_overlap);
criterion_main!(benches);
