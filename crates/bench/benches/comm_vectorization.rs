//! E11 — communication vectorization: element-wise vs run-aggregated
//! message traffic on the distributed machine.
//!
//! For each Table I decomposition (block, scatter, block-scatter) and
//! access function (`i+c`, `a·i+c`), measures end-to-end wall clock of
//! both [`CommMode`]s and reports the wire-message reduction the
//! plan-time communication schedules buy (packets vs per-element
//! messages, plus modeled bytes). The architecture-independent quantity
//! is the message-count ratio — on real message-passing hardware each
//! wire message pays a latency `α`, so the ratio bounds the latency
//! saving of vectorized aggregation directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::{copy_clause, env_ab, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Bounds, Clause, Env};
use vcal_decomp::Decomp1;
use vcal_machine::{run_distributed, CommMode, DistArray, DistOptions, NULL_TRACER};
use vcal_spmd::{DecompMap, SpmdPlan};

const N: i64 = 1024;
const PMAX: i64 = 8;

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

fn run_once(plan: &SpmdPlan, clause: &Clause, env: &Env, dm: &DecompMap, mode: CommMode) -> f64 {
    let mut arrays = arrays_for(env, dm);
    let opts = DistOptions {
        mode,
        ..DistOptions::default()
    };
    run_distributed(plan, clause, &mut arrays, opts, &NULL_TRACER).unwrap();
    arrays["A"].read_local(0, 0)
}

fn bench_comm_vectorization(c: &mut Criterion) {
    let env0 = env_ab(N, 3 * N + 1);
    let decomps: Vec<(&str, Decomp1, Decomp1)> = vec![
        (
            "block",
            Decomp1::block(PMAX, Bounds::range(0, N - 1)),
            Decomp1::block(PMAX, Bounds::range(0, 3 * N)),
        ),
        (
            "scatter",
            Decomp1::scatter(PMAX, Bounds::range(0, N - 1)),
            Decomp1::scatter(PMAX, Bounds::range(0, 3 * N)),
        ),
        (
            "bs4",
            Decomp1::block_scatter(4, PMAX, Bounds::range(0, N - 1)),
            Decomp1::block_scatter(4, PMAX, Bounds::range(0, 3 * N)),
        ),
    ];
    let fns: Vec<(&str, Fn1)> = vec![("i+c", Fn1::shift(3)), ("a*i+c", Fn1::affine(3, 1))];

    let mut rows = Vec::new();
    for (dname, dec_a, dec_b) in &decomps {
        for (fname, g) in &fns {
            let clause = copy_clause(Fn1::identity(), g.clone(), 0, N - 1);
            let mut dm = DecompMap::new();
            dm.insert("A".into(), dec_a.clone());
            dm.insert("B".into(), dec_b.clone());
            let plan = SpmdPlan::build(&clause, &dm).unwrap();

            // traffic shape (deterministic, measured once)
            let totals = |mode| {
                let mut arrays = arrays_for(&env0, &dm);
                let opts = DistOptions {
                    mode,
                    ..DistOptions::default()
                };
                run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER)
                    .unwrap()
                    .total()
            };
            let elem = totals(CommMode::Element);
            let vect = totals(CommMode::Vectorized);
            println!(
                "comm_vectorization {dname}/{fname}: elements={} packets {} -> {} \
                 ({:.1}x), bytes {} -> {}, max packet {} elems",
                elem.msgs_sent,
                elem.packets_sent,
                vect.packets_sent,
                elem.packets_sent as f64 / (vect.packets_sent.max(1)) as f64,
                elem.bytes_sent,
                vect.bytes_sent,
                vect.max_packet_elems,
            );
            rows.push(ReportRow::new(
                "comm_vectorization_packets",
                format!("{dname}/{fname}"),
                elem.packets_sent as f64,
                vect.packets_sent as f64,
            ));

            // wall clock of both modes
            let mut group = c.benchmark_group(format!("comm_vectorization/{dname}/{fname}"));
            group.bench_function(BenchmarkId::from_parameter("element"), |b| {
                b.iter(|| black_box(run_once(&plan, &clause, &env0, &dm, CommMode::Element)))
            });
            group.bench_function(BenchmarkId::from_parameter("vectorized"), |b| {
                b.iter(|| black_box(run_once(&plan, &clause, &env0, &dm, CommMode::Vectorized)))
            });
            group.finish();
        }
    }
    write_report("comm_vectorization", &rows);
}

criterion_group!(benches, bench_comm_vectorization);
criterion_main!(benches);
