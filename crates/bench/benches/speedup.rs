//! Modeled speedup curves — the classic evaluation figure of the paper's
//! era, regenerated from exact event counts priced by the analytic
//! performance model (`vcal_machine::PerfModel`): closed-form vs naive
//! plans on shared memory, and block vs scatter stencils on a
//! message-passing hypercube.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use vcal_bench::{copy_clause, decomps_ab, stencil_clause, write_report, ReportRow};
use vcal_core::func::Fn1;
use vcal_core::{Array, Bounds, Env};
use vcal_decomp::Decomp1;
use vcal_machine::{run_distributed, DistArray, DistOptions, PerfModel, NULL_TRACER};
use vcal_spmd::{DecompMap, SpmdPlan};

fn speedup_tables(c: &mut Criterion) {
    let model = PerfModel::default();
    let mut rows = Vec::new();

    // ---- shared memory: naive vs closed form ----------------------------
    let n: i64 = 1 << 16;
    let clause = copy_clause(Fn1::identity(), Fn1::identity(), 0, n - 1);
    eprintln!("\nmodeled shared-memory speedup, copy of n = {n}:");
    eprintln!("{:>6} {:>14} {:>14}", "pmax", "closed-form", "naive-guard");
    for pmax in [1i64, 2, 4, 8, 16, 32, 64] {
        let dm = decomps_ab(
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
        );
        let s_opt = model.speedup_of_plan(&SpmdPlan::build(&clause, &dm).unwrap());
        let s_naive = model.speedup_of_plan(&SpmdPlan::build_naive(&clause, &dm).unwrap());
        eprintln!("{pmax:>6} {s_opt:>14.2} {s_naive:>14.2}");
        rows.push(ReportRow::new(
            "speedup_shared",
            format!("pmax={pmax}"),
            s_naive,
            s_opt,
        ));
    }
    eprintln!("(naive saturates near t_iter/t_test = 4; closed form tracks pmax)");

    // ---- distributed: block vs scatter stencil on a hypercube -----------
    let n: i64 = 1 << 12;
    let clause = stencil_clause(n);
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
    );
    env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
    eprintln!("\nmodeled distributed speedup, stencil of n = {n} (hypercube):");
    eprintln!("{:>6} {:>10} {:>10}", "pmax", "block", "scatter");
    for pmax in [2i64, 4, 8, 16] {
        let mut line = format!("{pmax:>6}");
        for dec in [
            Decomp1::block(pmax, Bounds::range(0, n - 1)),
            Decomp1::scatter(pmax, Bounds::range(0, n - 1)),
        ] {
            let mut dm = DecompMap::new();
            dm.insert("U".into(), dec.clone());
            dm.insert("V".into(), dec.clone());
            let plan = SpmdPlan::build(&clause, &dm).unwrap();
            let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
            for a in ["U", "V"] {
                arrays.insert(
                    a.into(),
                    DistArray::scatter_from(env.get(a).unwrap(), dm[a].clone()),
                );
            }
            let report = run_distributed(
                &plan,
                &clause,
                &mut arrays,
                DistOptions::default(),
                &NULL_TRACER,
            )
            .unwrap();
            let s = model.speedup_of_report(&report, (n - 2) as u64);
            line.push_str(&format!(" {s:>10.2}"));
        }
        eprintln!("{line}");
    }
    eprintln!("(scatter's per-element messages price it below 1: slower than sequential)");
    write_report("speedup", &rows);

    // keep Criterion busy with something tiny so the target registers
    c.bench_function("speedup/model_eval", |b| {
        let dm = decomps_ab(
            Decomp1::block(8, Bounds::range(0, (1 << 16) - 1)),
            Decomp1::block(8, Bounds::range(0, (1 << 16) - 1)),
        );
        let clause = copy_clause(Fn1::identity(), Fn1::identity(), 0, (1 << 16) - 1);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        b.iter(|| black_box(PerfModel::default().speedup_of_plan(&plan)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(150));
    targets = speedup_tables
}
criterion_main!(benches);
