//! Multi-dimensional integration: per-axis schedule products are exact
//! for randomized grids and access maps, and the grid machines agree
//! with the sequential reference on randomized 2-D clauses.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
use vcal_suite::core::func::Fn1;
use vcal_suite::core::map::{DimFn, IndexMap};
use vcal_suite::core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_suite::decomp::{Decomp1, DecompNd};
use vcal_suite::machine::{
    run_distributed_nd, run_shared_nd, DistArrayNd, DistOptions, NULL_TRACER,
};
use vcal_suite::spmd::optimize_nd;

fn axis_decomp(kind: u8, pmax: i64, n: i64) -> Decomp1 {
    let e = Bounds::range(0, n - 1);
    match kind % 3 {
        0 => Decomp1::block(pmax, e),
        1 => Decomp1::scatter(pmax, e),
        _ => Decomp1::block_scatter(2, pmax, e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn optimize_nd_is_exact(
        k0 in 0u8..3, k1 in 0u8..3,
        p0 in 1i64..4, p1 in 1i64..4,
        shift0 in -2i64..3, a1 in 1i64..3, c1 in 0i64..3,
        swap in any::<bool>(),
    ) {
        let (n0, n1) = (18i64, 15i64);
        let dec = DecompNd::new(vec![
            axis_decomp(k0, p0, n0),
            axis_decomp(k1, p1, n1),
        ]);
        // access map, optionally transposing the loop dims
        let f0 = Fn1::shift(shift0);
        let f1 = Fn1::affine(a1, c1);
        let (s0, s1) = if swap { (1, 0) } else { (0, 1) };
        let map = IndexMap::new(2, vec![
            DimFn { src: s0, f: f0.clone() },
            DimFn { src: s1, f: f1.clone() },
        ]);
        // loop box keeping accesses inside both extents
        let (l0_lo, l0_hi, l1_lo, l1_hi);
        {
            // output axis 0 reads loop dim s0 through f0 into [0, n0-1]
            let d0 = ((0 - shift0).max(0), n0 - 1 - shift0.max(0));
            let d1 = ((0 - c1 + a1 - 1) / a1, (n1 - 1 - c1) / a1);
            if swap {
                // loop dim 0 feeds output 1 (f1), loop dim 1 feeds output 0 (f0)
                l0_lo = d1.0.max(0); l0_hi = d1.1;
                l1_lo = d0.0; l1_hi = d0.1;
            } else {
                l0_lo = d0.0; l0_hi = d0.1;
                l1_lo = d1.0.max(0); l1_hi = d1.1;
            }
        }
        prop_assume!(l0_lo <= l0_hi && l1_lo <= l1_hi);
        let lb = Bounds::range2(l0_lo, l0_hi, l1_lo, l1_hi);
        let mut covered = 0u64;
        for p in 0..dec.pmax() {
            let Some(s) = optimize_nd(&map, &dec, &lb, p) else {
                return Err(TestCaseError::fail("factorizable map rejected"));
            };
            let mut got = Vec::new();
            s.for_each(|i| got.push(*i));
            got.sort();
            let mut want: Vec<_> =
                lb.iter().filter(|i| dec.proc_of(&map.eval(i)) == p).collect();
            want.sort();
            prop_assert_eq!(&got, &want, "p={} dec axes ({},{})", p, k0, k1);
            covered += got.len() as u64;
        }
        prop_assert_eq!(covered, lb.count());
    }
}

#[test]
fn randomized_grid_machine_equivalence() {
    let mut rng = StdRng::seed_from_u64(0xd00d);
    for trial in 0..20 {
        let (n0, n1) = (rng.gen_range(8..20), rng.gen_range(8..20));
        let (p0, p1) = (rng.gen_range(1..3), rng.gen_range(1..4));
        let dec_w = DecompNd::new(vec![
            axis_decomp(rng.gen(), p0, n0),
            axis_decomp(rng.gen(), p1, n1),
        ]);
        let dec_r = DecompNd::new(vec![
            axis_decomp(rng.gen(), p0, n0),
            axis_decomp(rng.gen(), p1, n1),
        ]);
        // interior shift access
        let (di, dj) = (rng.gen_range(-1..2i64), rng.gen_range(-1..2i64));
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(1, n0 - 2, 1, n1 - 2)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("W", IndexMap::identity(2)),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::new(
                    "R",
                    IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]),
                )),
                Expr::LoopVar { dim: 0 },
            ),
        };
        let mut env = Env::new();
        env.insert("W", Array::zeros(Bounds::range2(0, n0 - 1, 0, n1 - 1)));
        env.insert(
            "R",
            Array::from_fn(Bounds::range2(0, n0 - 1, 0, n1 - 1), |i| {
                ((i[0] * 13 + i[1] * 5) % 17) as f64
            }),
        );
        let mut reference = env.clone();
        reference.exec_clause(&clause);

        // shared grid machine (owner-computes on the write decomposition)
        let mut shm = env.clone();
        run_shared_nd(&clause, &dec_w, &mut shm).unwrap();
        assert_eq!(
            shm.get("W")
                .unwrap()
                .max_abs_diff(reference.get("W").unwrap()),
            0.0,
            "shared trial {trial}"
        );

        // distributed grid machine
        let mut arrays: BTreeMap<String, DistArrayNd> = BTreeMap::new();
        arrays.insert(
            "W".into(),
            DistArrayNd::scatter_from(env.get("W").unwrap(), dec_w.clone()),
        );
        arrays.insert(
            "R".into(),
            DistArrayNd::scatter_from(env.get("R").unwrap(), dec_r.clone()),
        );
        run_distributed_nd(
            &clause,
            &mut arrays,
            DistOptions {
                recv_timeout: Duration::from_secs(10),
                ..DistOptions::default()
            },
            &NULL_TRACER,
        )
        .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert_eq!(
            arrays["W"]
                .gather()
                .max_abs_diff(reference.get("W").unwrap()),
            0.0,
            "distributed trial {trial}"
        );
    }
}
