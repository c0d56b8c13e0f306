//! Domain example 2 — rotate and shuffle views (paper Section 3.3).
//!
//! Index functions like `f(i) = (i+6) mod 20` are only *piecewise*
//! monotonic; the paper splits them at breakpoints into de-modded
//! monotonic pieces and optimizes each piece with its own Table I row.
//! This example shows the split, the resulting schedules, and a verified
//! distributed execution of a rotate assignment.
//!
//! Run with: `cargo run --example rotate`

use std::collections::BTreeMap;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::{Array, Bounds, Env};
use vcal_suite::decomp::Decomp1;
use vcal_suite::lang;
use vcal_suite::machine::{run_distributed, DistArray, DistOptions, NULL_TRACER};
use vcal_suite::spmd::{optimize, DecompMap, SpmdPlan};

fn main() {
    let n: i64 = 20;
    let pmax = 4;

    // the paper's own example: f(i) = (i+6) mod 20
    let f = Fn1::rotate(6, 20);
    println!("f(i) = (i+6) mod 20 on 0..=19 — breakpoint analysis:");
    for piece in f.monotone_pieces(0, n - 1).unwrap() {
        println!(
            "  piece [{:>2}, {:>2}]: f(i) = {}",
            piece.lo,
            piece.hi,
            vcal_suite::core::map::display_fn1(&piece.f, "i")
        );
    }
    println!();

    // schedules under block and scatter decompositions
    for dec in [
        Decomp1::block(pmax, Bounds::range(0, n - 1)),
        Decomp1::scatter(pmax, Bounds::range(0, n - 1)),
    ] {
        println!("{dec}:");
        for p in 0..pmax {
            let opt = optimize(&f, &dec, 0, n - 1, p);
            println!(
                "  p{p}: {:?}  via {}",
                opt.schedule.to_sorted_vec(),
                opt.kind.name()
            );
        }
        println!();
    }

    // a rotate assignment, executed on the distributed machine
    let src = "for i := 0 to 19 do A[i] := B[(i+6) mod 20]; od;";
    let clause = lang::compile(src).expect("compiles")[0].clone();
    println!("clause: {}\n", lang::to_vcal(&clause));

    let mut env = Env::new();
    env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
    env.insert(
        "B",
        Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
    );

    let mut expect = env.clone();
    expect.exec_clause(&clause);

    let mut dm = DecompMap::new();
    dm.insert("A".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
    dm.insert("B".into(), Decomp1::scatter(pmax, Bounds::range(0, n - 1)));
    let plan = SpmdPlan::build(&clause, &dm).expect("plan");

    let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
    for a in ["A", "B"] {
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
    let got = arrays["A"].gather();
    assert_eq!(got.max_abs_diff(expect.get("A").unwrap()), 0.0);
    println!(
        "distributed rotate verified: A = B rotated by 6 ({} messages).",
        report.total().msgs_sent
    );
    println!("A = {:?}", got.data());
}
