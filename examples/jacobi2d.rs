//! Domain example 4 — a 2-D Jacobi sweep on a processor grid.
//!
//! The paper's derivations are 1-D "for reasons of clarity"; the natural
//! generalization decomposes each array axis independently onto one axis
//! of a processor grid, and the ownership condition factorizes into a
//! Cartesian product of per-axis Table I schedules. This example runs a
//! 2-D five-point stencil over a 2x2 grid with a different decomposition
//! per axis and verifies against the sequential reference.
//!
//! Run with: `cargo run --example jacobi2d`

use vcal_suite::core::func::Fn1;
use vcal_suite::core::map::IndexMap;
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::{Decomp1, DecompNd};
use vcal_suite::machine::run_shared_nd;
use vcal_suite::spmd::optimize_nd;

fn main() {
    let n: i64 = 64;
    let sweeps = 5;

    // V[i,j] := 0.25 * (U[i-1,j] + U[i+1,j] + U[i,j-1] + U[i,j+1])
    let u = |di: i64, dj: i64| {
        Expr::Ref(ArrayRef::new(
            "U",
            IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]),
        ))
    };
    let sweep = Clause {
        iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new("V", IndexMap::identity(2)),
        rhs: Expr::mul(
            Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
            Expr::Lit(0.25),
        ),
    };
    let copy_back = Clause {
        iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs: ArrayRef::new("U", IndexMap::identity(2)),
        rhs: Expr::Ref(ArrayRef::new("V", IndexMap::identity(2))),
    };

    // rows block-decomposed, columns block-scatter — a 2x2 grid
    let dec = DecompNd::new(vec![
        Decomp1::block(2, Bounds::range(0, n - 1)),
        Decomp1::block_scatter(8, 2, Bounds::range(0, n - 1)),
    ]);
    println!(
        "grid: {} processors = {:?} over a {n}x{n} domain",
        dec.pmax(),
        dec.axes().iter().map(|a| a.pmax()).collect::<Vec<_>>()
    );

    // show the per-axis schedule factorization for one processor
    let s = optimize_nd(&sweep.lhs.map, &dec, &sweep.iter.bounds, 3).unwrap();
    println!("\nprocessor 3 schedule factorization:");
    for (axis, (sched, kind)) in s.axes.iter().zip(&s.kinds).enumerate() {
        println!(
            "  axis {axis}: {} iterations via {} ({})",
            sched.count(),
            sched.kind_name(),
            kind.name()
        );
    }
    println!(
        "  product: {} of {} total points\n",
        s.count(),
        (n - 2) * (n - 2)
    );

    // run the sweeps and verify
    let mut env = Env::new();
    env.insert(
        "U",
        Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
            if i[0] == 0 || i[0] == n - 1 || i[1] == 0 || i[1] == n - 1 {
                1.0
            } else {
                0.0
            }
        }),
    );
    env.insert("V", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));

    let mut reference = env.clone();
    for _ in 0..sweeps {
        reference.exec_clause(&sweep);
        reference.exec_clause(&copy_back);
    }

    let mut total_iters = 0;
    for _ in 0..sweeps {
        total_iters += run_shared_nd(&sweep, &dec, &mut env)
            .unwrap()
            .total()
            .iterations;
        run_shared_nd(&copy_back, &dec, &mut env).unwrap();
    }
    let diff = env
        .get("U")
        .unwrap()
        .max_abs_diff(reference.get("U").unwrap());
    assert!(
        diff < 1e-12,
        "parallel and sequential results differ by {diff}"
    );
    println!(
        "{sweeps} sweeps on the 2x2 grid: {total_iters} stencil updates, result matches the \
         sequential reference exactly."
    );
    // near-boundary value after diffusion from the hot boundary
    let c = env.get("U").unwrap().get(&vcal_suite::core::Ix::d2(2, 2));
    println!("value at (2,2) after {sweeps} sweeps: {c:.6}");

    // ---- the same sweeps on the distributed grid machine ---------------
    use std::collections::BTreeMap;
    use vcal_suite::machine::{run_distributed_nd, DistArrayNd, DistOptions, NULL_TRACER};
    let mut env2 = Env::new();
    env2.insert(
        "U",
        Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
            if i[0] == 0 || i[0] == n - 1 || i[1] == 0 || i[1] == n - 1 {
                1.0
            } else {
                0.0
            }
        }),
    );
    env2.insert("V", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
    let mut arrays: BTreeMap<String, DistArrayNd> = BTreeMap::new();
    for a in ["U", "V"] {
        arrays.insert(
            a.into(),
            DistArrayNd::scatter_from(env2.get(a).unwrap(), dec.clone()),
        );
    }
    let mut msgs = 0;
    for _ in 0..sweeps {
        msgs += run_distributed_nd(&sweep, &mut arrays, DistOptions::default(), &NULL_TRACER)
            .unwrap()
            .total()
            .msgs_sent;
        msgs += run_distributed_nd(
            &copy_back,
            &mut arrays,
            DistOptions::default(),
            &NULL_TRACER,
        )
        .unwrap()
        .total()
        .msgs_sent;
    }
    let diff2 = arrays["U"]
        .gather()
        .max_abs_diff(reference.get("U").unwrap());
    assert!(diff2 < 1e-12);
    println!(
        "\ndistributed grid machine: same result, {msgs} boundary messages over \
         {sweeps} sweeps\n(row halos cross the block axis; column traffic follows the \
         block-scatter axis)."
    );
}
