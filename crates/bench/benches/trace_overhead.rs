//! E13 — observability overhead and perfmodel validation.
//!
//! Two questions about the `vcal-machine::obs` layer:
//!
//! 1. **Is the disabled path free?** The same 1024-element scatter
//!    `a·i+c` distributed run is measured under the [`NullTracer`]
//!    (the default every untraced caller gets) and under a live
//!    [`CollectingTracer`]. The NullTracer path must stay within noise
//!    of the pre-obs machine (< 2% is the PR's acceptance bar); the
//!    collecting path buys the full event log for the reported ratio.
//! 2. **Does the analytical model §4 predict reality?** One traced run
//!    is replay-checked and its per-phase wall-clock totals are printed
//!    next to the [`PerfModel`] prediction — the comparison recorded in
//!    EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::{copy_clause, env_ab, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Bounds, Clause, Env};
use vcal_decomp::Decomp1;
use vcal_machine::{
    replay_check, run_distributed, CollectingTracer, CommMode, DistArray, DistOptions, PerfModel,
    Tracer, NULL_TRACER,
};
use vcal_spmd::{DecompMap, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;

/// The acceptance workload: scatter-decomposed `A[2i+1] := B[3i+2]`.
fn workload() -> (Clause, Env, DecompMap) {
    let clause = copy_clause(Fn1::affine(2, 1), Fn1::affine(3, 2), 0, (N - 2) / 2);
    let env = env_ab(N, 3 * N + 1);
    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::scatter(PMAX, Bounds::range(0, N - 1)));
    dm.insert("B".into(), Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)));
    (clause, env, dm)
}

fn arrays_for(env: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
    let mut arrays = BTreeMap::new();
    for name in ["A", "B"] {
        arrays.insert(
            name.to_string(),
            DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
        );
    }
    arrays
}

fn run_once(
    plan: &SpmdPlan,
    clause: &Clause,
    env: &Env,
    dm: &DecompMap,
    mode: CommMode,
    tracer: &dyn Tracer,
) -> f64 {
    let mut arrays = arrays_for(env, dm);
    let opts = DistOptions {
        mode,
        ..DistOptions::default()
    };
    run_distributed(plan, clause, &mut arrays, opts, tracer).unwrap();
    arrays["A"].read_local(0, 0)
}

fn bench_trace_overhead(c: &mut Criterion) {
    let (clause, env, dm) = workload();
    let plan = SpmdPlan::build(&clause, &dm).unwrap();
    let mut rows = Vec::new();

    let mut group = c.benchmark_group("trace_overhead");
    for mode in [CommMode::Element, CommMode::Vectorized] {
        let label = match mode {
            CommMode::Element => "element",
            CommMode::Vectorized => "vectorized",
        };
        group.bench_with_input(BenchmarkId::new("null_tracer", label), &mode, |b, &m| {
            b.iter(|| black_box(run_once(&plan, &clause, &env, &dm, m, &NULL_TRACER)))
        });
        group.bench_with_input(
            BenchmarkId::new("collecting_tracer", label),
            &mode,
            |b, &m| {
                b.iter(|| {
                    let tracer = CollectingTracer::new();
                    let v = black_box(run_once(&plan, &clause, &env, &dm, m, &tracer));
                    black_box(tracer.finish());
                    v
                })
            },
        );

        // one traced run per mode: replay-check the log and line the
        // measured phase timings up against the §4 model prediction
        let tracer = CollectingTracer::new();
        let mut arrays = arrays_for(&env, &dm);
        let opts = DistOptions {
            mode,
            ..DistOptions::default()
        };
        let report = run_distributed(&plan, &clause, &mut arrays, opts, &tracer).unwrap();
        let log = tracer.finish();
        let summary = replay_check(&log, &plan, mode, opts.retry).expect("replay must validate");
        let predicted = PerfModel::default().price_report(&report);
        println!(
            "[{label}] replay OK: {} det events, {} elems; perfmodel {:.1} units \
             (bottleneck node {})",
            summary.det_events, summary.send_elems, predicted.total, predicted.bottleneck
        );
        let bottlenecks = log.phase_bottlenecks();
        for (phase, total) in log.phase_totals() {
            println!(
                "[{label}]   {:<12} total {:>10.3?}  bottleneck {:>10.3?}",
                phase.name(),
                total,
                bottlenecks[&phase]
            );
        }
        rows.push(ReportRow::new(
            "trace_overhead",
            format!("{label}: planned send elems (replay-validated)"),
            summary.send_elems as f64,
            summary.recv_elems as f64,
        ));
    }
    group.finish();
    write_report("trace_overhead", &rows);
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
