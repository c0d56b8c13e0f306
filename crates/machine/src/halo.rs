//! Executable overlapped (halo) decompositions — Section 5's second
//! "further research" item, run end to end.
//!
//! A [`HaloArray`] stores, per node, the owned block of a block
//! decomposition *plus* `h` ghost cells per side. One
//! [`exchange_ghosts`] per sweep refreshes the ghosts (the messages of
//! the [`vcal_decomp::OverlapDecomp`] plan); after that, a stencil
//! clause with shifts `|s| <= h` executes with **zero** per-iteration
//! communication — the contrast to the Section 2.10 template that the
//! `machines` bench and `stencil` example measure.

use crate::error::MachineError;
use crate::obs::{EventKind, Phase, Tracer};
use crate::stats::{ExecReport, NodeStats};
use vcal_core::{Array, Clause, Expr, Guard, Ix, Ordering};
use vcal_decomp::OverlapDecomp;

/// A block-decomposed array with per-node ghost regions.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloArray {
    decomp: OverlapDecomp,
    /// `parts[p]` covers the *stored* (ghost-inclusive) range of node `p`.
    parts: Vec<Vec<f64>>,
}

impl HaloArray {
    /// Scatter a global array into halo-extended per-node storage
    /// (ghosts initialized from the global image, i.e. pre-exchanged).
    pub fn scatter_from(global: &Array, decomp: OverlapDecomp) -> HaloArray {
        assert_eq!(global.bounds(), decomp.base().extent());
        let pmax = decomp.base().pmax();
        let parts = (0..pmax)
            .map(|p| match decomp.stored_range(p) {
                Some((lo, hi)) => (lo..=hi).map(|g| global.get(&Ix::d1(g))).collect(),
                None => Vec::new(),
            })
            .collect();
        HaloArray { decomp, parts }
    }

    /// The overlap decomposition.
    pub fn decomp(&self) -> &OverlapDecomp {
        &self.decomp
    }

    /// Gather owned regions back to a global array (ghosts ignored).
    pub fn gather(&self) -> Array {
        let mut out = Array::zeros(self.decomp.base().extent());
        for p in 0..self.decomp.base().pmax() {
            if let Some((olo, ohi)) = self.decomp.owned_range(p) {
                for g in olo..=ohi {
                    out.set(&Ix::d1(g), self.read(p, g));
                }
            }
        }
        out
    }

    /// Read global `g` from node `p`'s storage (owned or ghost).
    #[inline]
    pub fn read(&self, p: i64, g: i64) -> f64 {
        self.parts[p as usize][self.decomp.local_of(g, p) as usize]
    }

    /// Write global `g` into node `p`'s storage. Panics if `p` does not
    /// own `g` (ghosts are written only by [`exchange_ghosts`]).
    #[inline]
    pub fn write_owned(&mut self, p: i64, g: i64, v: f64) {
        let (olo, ohi) = self.decomp.owned_range(p).expect("node owns nothing");
        assert!((olo..=ohi).contains(&g), "node {p} does not own global {g}");
        let off = self.decomp.local_of(g, p) as usize;
        self.parts[p as usize][off] = v;
    }
}

/// Refresh every ghost cell from its owner, following the decomposition's
/// exchange plan. Returns per-node message statistics. One
/// [`EventKind::HaloMsg`] per planned boundary message (at the sending
/// node) and the whole exchange's wall-clock as a host-side
/// [`Phase::Halo`] timing are recorded through `tracer`.
pub fn exchange_ghosts(array: &mut HaloArray, tracer: &dyn Tracer) -> ExecReport {
    let trace_on = tracer.enabled();
    if trace_on {
        tracer.record(crate::obs::HOST, EventKind::PhaseStart(Phase::Halo));
    }
    let halo_t0 = trace_on.then(std::time::Instant::now);
    let pmax = array.decomp.base().pmax();
    let mut report = ExecReport {
        nodes: vec![NodeStats::default(); pmax as usize],
        traffic: vec![vec![0u64; pmax as usize]; pmax as usize],
        ..Default::default()
    };
    for msg in array.decomp.exchange_plan() {
        // copy owner's values into the receiver's ghost slots
        for g in msg.global_lo..=msg.global_hi {
            let v = array.read(msg.src, g);
            let off = array.decomp.local_of(g, msg.dst) as usize;
            array.parts[msg.dst as usize][off] = v;
        }
        if trace_on {
            tracer.record(
                msg.src,
                EventKind::HaloMsg {
                    dst: msg.dst,
                    elems: (msg.global_hi - msg.global_lo + 1) as u64,
                },
            );
        }
        report.nodes[msg.src as usize].msgs_sent += 1;
        report.nodes[msg.dst as usize].msgs_received += 1;
        report.traffic[msg.src as usize][msg.dst as usize] += 1;
    }
    if let Some(t0) = halo_t0 {
        tracer.timing(crate::obs::HOST, Phase::Halo, t0.elapsed());
        tracer.record(crate::obs::HOST, EventKind::PhaseEnd(Phase::Halo));
    }
    report
}

/// Execute one `//` stencil sweep entirely from local + ghost storage:
/// `lhs[i] := Expr(reads[i ± s])`, all shifts within the halo width.
///
/// `reads` maps array names to their halo images; the written array must
/// have an identity access. Returns an error if any access would leave
/// the stored range (halo too small — the caller should widen it).
pub fn run_halo_sweep(
    clause: &Clause,
    lhs: &mut HaloArray,
    reads: &std::collections::BTreeMap<String, HaloArray>,
) -> Result<ExecReport, MachineError> {
    if clause.ordering != Ordering::Par {
        return Err(MachineError::SequentialClause);
    }
    if clause.iter.dims() != 1 {
        return Err(MachineError::PlanMismatch("halo sweeps are 1-D".into()));
    }
    let id = vcal_core::Fn1::identity();
    if clause.lhs.map.as_fn1() != Some(&id) {
        return Err(MachineError::PlanMismatch(
            "halo sweeps write through the identity".into(),
        ));
    }
    let (imin, imax) = (clause.iter.bounds.lo()[0], clause.iter.bounds.hi()[0]);
    let pmax = lhs.decomp.base().pmax();
    let mut report = ExecReport::default();

    // validate reachability once, then compute
    for r in clause.read_refs() {
        let src = reads
            .get(&r.array)
            .ok_or_else(|| MachineError::UnknownArray(r.array.clone()))?;
        let g = r
            .map
            .as_fn1()
            .ok_or_else(|| MachineError::PlanMismatch("1-D accesses only".into()))?;
        for p in 0..pmax {
            let Some((olo, ohi)) = lhs.decomp.owned_range(p) else {
                continue;
            };
            for i in olo.max(imin)..=ohi.min(imax) {
                if !src.decomp.readable_locally(g.eval(i), p) {
                    return Err(MachineError::PlanMismatch(format!(
                        "{}[{}] is outside node {p}'s halo — widen h",
                        r.array,
                        g.eval(i)
                    )));
                }
            }
        }
    }

    // resolve the guard once so the sweep loop has no fallible lookups
    let hguard = match &clause.guard {
        Guard::Always => None,
        Guard::Cmp { lhs: gref, op, rhs } => {
            let gfn = gref
                .map
                .as_fn1()
                .ok_or_else(|| MachineError::PlanMismatch("1-D accesses only".into()))?
                .clone();
            let src = reads
                .get(&gref.array)
                .ok_or_else(|| MachineError::UnknownArray(gref.array.clone()))?;
            Some((src, gfn, *op, *rhs))
        }
    };

    for p in 0..pmax {
        let mut stats = NodeStats::default();
        let Some((olo, ohi)) = lhs.decomp.owned_range(p) else {
            report.nodes.push(stats);
            continue;
        };
        let mut writes: Vec<(i64, f64)> = Vec::new();
        for i in olo.max(imin)..=ohi.min(imax) {
            stats.iterations += 1;
            let guard_ok = match &hguard {
                None => true,
                Some((src, gfn, op, rhs)) => {
                    stats.local_reads += 1;
                    op.holds(src.read(p, gfn.eval(i)), *rhs)
                }
            };
            if guard_ok {
                let v = eval_halo(&clause.rhs, i, p, reads, &mut stats);
                writes.push((i, v));
            }
        }
        for (g, v) in writes {
            lhs.write_owned(p, g, v);
        }
        report.nodes.push(stats);
    }
    report.barriers = 1;
    Ok(report)
}

fn eval_halo(
    e: &Expr,
    i: i64,
    p: i64,
    reads: &std::collections::BTreeMap<String, HaloArray>,
    stats: &mut NodeStats,
) -> f64 {
    match e {
        Expr::Ref(r) => {
            stats.local_reads += 1;
            reads[&r.array].read(p, r.map.as_fn1().expect("1-D").eval(i))
        }
        Expr::Lit(v) => *v,
        Expr::LoopVar { .. } => i as f64,
        Expr::Neg(inner) => -eval_halo(inner, i, p, reads, stats),
        Expr::Bin(op, a, b) => op.apply(
            eval_halo(a, i, p, reads, stats),
            eval_halo(b, i, p, reads, stats),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NULL_TRACER;
    use std::collections::BTreeMap;
    use vcal_core::func::Fn1;
    use vcal_core::{ArrayRef, Bounds, Env, IndexSet};
    use vcal_decomp::Decomp1;

    fn stencil(n: i64) -> Clause {
        Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::mul(
                Expr::add(
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
                    Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
                ),
                Expr::Lit(0.5),
            ),
        }
    }

    fn halo_pair(n: i64, pmax: i64, h: i64, env: &Env) -> (HaloArray, HaloArray) {
        let ov = OverlapDecomp::new(Decomp1::block(pmax, Bounds::range(0, n - 1)), h);
        (
            HaloArray::scatter_from(env.get("U").unwrap(), ov.clone()),
            HaloArray::scatter_from(env.get("V").unwrap(), ov),
        )
    }

    #[test]
    fn halo_sweeps_match_reference() {
        let (n, pmax, sweeps) = (64i64, 4i64, 6);
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() == 20 {
                    9.0
                } else {
                    0.0
                }
            }),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
        let sweep = stencil(n);
        let back = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        };
        let mut reference = env.clone();
        for _ in 0..sweeps {
            reference.exec_clause(&sweep);
            reference.exec_clause(&back);
        }

        let (mut u, mut v) = halo_pair(n, pmax, 1, &env);
        let mut total_msgs = 0;
        for _ in 0..sweeps {
            total_msgs += exchange_ghosts(&mut u, &NULL_TRACER).total().msgs_sent;
            let mut reads = BTreeMap::new();
            reads.insert("U".to_string(), u.clone());
            run_halo_sweep(&sweep, &mut v, &reads).unwrap();
            total_msgs += exchange_ghosts(&mut v, &NULL_TRACER).total().msgs_sent;
            let mut reads = BTreeMap::new();
            reads.insert("V".to_string(), v.clone());
            run_halo_sweep(&back, &mut u, &reads).unwrap();
        }
        assert_eq!(u.gather().max_abs_diff(reference.get("U").unwrap()), 0.0);
        // 2*(pmax-1) boundary messages per exchange, 2 exchanges per sweep
        assert_eq!(total_msgs, (sweeps * 2 * 2 * (pmax - 1)) as u64);
    }

    #[test]
    fn too_small_halo_detected() {
        let n = 32i64;
        let mut env = Env::new();
        env.insert("U", Array::zeros(Bounds::range(0, n - 1)));
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
        // stencil reads i±2 but halo is 1
        let wide = Clause {
            iter: IndexSet::range(2, n - 3),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("U", Fn1::shift(-2))),
        };
        let (u, mut v) = halo_pair(n, 4, 1, &env);
        let mut reads = BTreeMap::new();
        reads.insert("U".to_string(), u);
        let err = run_halo_sweep(&wide, &mut v, &reads).unwrap_err();
        assert!(matches!(err, MachineError::PlanMismatch(_)), "{err}");
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let n = 40i64;
        let global = Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64 * 1.5);
        let ov = OverlapDecomp::new(Decomp1::block(4, Bounds::range(0, n - 1)), 2);
        let h = HaloArray::scatter_from(&global, ov);
        assert_eq!(h.gather().max_abs_diff(&global), 0.0);
        // ghost reads see the initial exchange-equivalent values
        assert_eq!(h.read(1, 9), 9.0 * 1.5); // ghost of node 1 (owns 10..19)
    }

    #[test]
    fn guarded_halo_sweep() {
        let n = 48i64;
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            }),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
        let clause = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("U", Fn1::identity()),
                op: vcal_core::CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("U", Fn1::shift(1))),
        };
        let mut reference = env.clone();
        reference.exec_clause(&clause);
        let (u, mut v) = halo_pair(n, 4, 1, &env);
        let mut reads = BTreeMap::new();
        reads.insert("U".to_string(), u);
        run_halo_sweep(&clause, &mut v, &reads).unwrap();
        assert_eq!(v.gather().max_abs_diff(reference.get("V").unwrap()), 0.0);
    }
}
