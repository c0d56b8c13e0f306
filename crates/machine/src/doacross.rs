//! DOACROSS pipelining for `•`-ordered clauses.
//!
//! The paper notes that interchanging parameter expressions under "more
//! complicated orderings" yields "DOACROSS-style synchronization
//! patterns" (Section 2.6) but does not elaborate. This module makes the
//! classic case executable: a first-order-style recurrence
//!
//! ```text
//! ∆(i ∈ (imin:imax)) • ([i](A) := Expr([i-d](A), [g(i)](B), ...))
//! ```
//!
//! with carried distances `d > 0`, block-decomposed `A`: each processor
//! runs its contiguous range *in order*, blocking only on the boundary
//! values owned by its predecessor — a software pipeline where processor
//! `p` starts as soon as the last `max(d)` values of `p-1` arrive,
//! instead of after `p-1` finishes everything.

use crate::darray::DistArray;
use crate::distributed::zero_part;
use crate::error::MachineError;
use crate::stats::{ExecReport, NodeStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use vcal_core::func::Fn1;
use vcal_core::{BinOp, Clause, CmpOp, Expr, Guard, Ordering};
use vcal_decomp::{Decomp1, Distribution};
use vcal_spmd::CompiledKernel;

/// One deduplicated read access of the pipelined clause.
struct PipeSlot {
    array: String,
    g: Fn1,
    /// Whether this slot reads the recurrence array (and may therefore
    /// resolve through the predecessor halo instead of the local part).
    is_rec: bool,
}

/// The clause guard with its read slot resolved at plan time.
enum PipeGuard {
    Always,
    Cmp { slot: usize, op: CmpOp, rhs: f64 },
}

/// A value of the recurrence array crossing a block boundary.
#[derive(Debug, Clone, Copy)]
struct BoundaryMsg {
    /// Global index of the value.
    g: i64,
    /// The value.
    value: f64,
}

/// Carried-dependence analysis: the distances `d` at which the clause
/// reads its own output (`f = identity`, reads `A[i-d]` with `d >= 1`).
/// Returns `None` if the clause is not a forward recurrence of that
/// shape.
pub fn carried_distances(clause: &Clause) -> Option<Vec<i64>> {
    if clause.iter.dims() != 1 {
        return None;
    }
    if clause.lhs.map.as_fn1()? != &Fn1::identity() {
        return None;
    }
    let mut dists = Vec::new();
    for r in clause.read_refs() {
        if r.array != clause.lhs.array {
            continue;
        }
        match r.map.as_fn1()?.simplify() {
            Fn1::Affine { a: 1, c } if c < 0 => {
                if !dists.contains(&(-c)) {
                    dists.push(-c);
                }
            }
            _ => return None, // non-shift self-reference: not pipelinable
        }
    }
    if dists.is_empty() {
        None
    } else {
        dists.sort_unstable();
        Some(dists)
    }
}

/// Execute a `•` recurrence clause with DOACROSS pipelining.
///
/// Requirements (checked): carried distances per [`carried_distances`];
/// the recurrence array block-decomposed; every *other* read array
/// resident wherever it is needed (replicated, or block-decomposed with
/// an identity-like access that stays on-node — verified element-wise).
///
/// The carried dependence serializes every element — lane parallelism
/// would read values the pipeline has not produced yet — so the SIMD
/// tier always declines: the report's census shows one fallback run per
/// non-empty pipeline stage and zero vector runs.
pub fn run_doacross(
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArray>,
) -> Result<ExecReport, MachineError> {
    if clause.ordering != Ordering::Seq {
        return Err(MachineError::PlanMismatch(
            "DOACROSS executes `•` clauses; use the SPMD machines for `//`".into(),
        ));
    }
    let dists = carried_distances(clause).ok_or_else(|| {
        MachineError::PlanMismatch(
            "clause is not a forward recurrence A[i] := Expr(A[i-d], ...)".into(),
        )
    })?;
    let Some(&max_d) = dists.last() else {
        return Err(MachineError::PlanMismatch(
            "recurrence has no carried distances".into(),
        ));
    };

    let rec_name = clause.lhs.array.clone();
    let rec = arrays
        .get(&rec_name)
        .ok_or_else(|| MachineError::UnknownArray(rec_name.clone()))?;
    let dec = rec.decomp().clone();
    if !matches!(dec.dist(), Distribution::Block { .. }) {
        return Err(MachineError::PlanMismatch(
            "DOACROSS pipelining requires a block decomposition of the recurrence array".into(),
        ));
    }
    let pmax = dec.pmax();
    if let Distribution::Block { b } = dec.dist() {
        if b < max_d {
            return Err(MachineError::PlanMismatch(format!(
                "carried distance {max_d} exceeds the block size {b}: values would \
                 cross more than one boundary"
            )));
        }
    }
    let (imin, imax) = (clause.iter.bounds.lo()[0], clause.iter.bounds.hi()[0]);

    // locality check for the non-recurrence reads
    for r in clause.read_refs() {
        if r.array == rec_name {
            continue;
        }
        let da = arrays
            .get(&r.array)
            .ok_or_else(|| MachineError::UnknownArray(r.array.clone()))?;
        let g = r
            .map
            .as_fn1()
            .ok_or_else(|| MachineError::PlanMismatch("1-D accesses only".into()))?;
        for i in imin..=imax {
            let owner = dec.proc_of(i);
            if !da.decomp().resides_on(g.eval(i), owner) {
                return Err(MachineError::PlanMismatch(format!(
                    "operand {}[{}] not local to the owner of iteration {i}; \
                     replicate it or align its decomposition",
                    r.array,
                    g.eval(i)
                )));
            }
        }
    }

    // compile the clause body once into flat postfix bytecode over the
    // deduplicated read slots — the pipeline's inner loop then gathers
    // operands (local part or predecessor halo) and runs the bytecode
    // instead of recursing through the `Expr` tree per element
    let mut slots: Vec<PipeSlot> = Vec::new();
    for r in clause.read_refs() {
        if let Some(g) = r.map.as_fn1() {
            if !slots.iter().any(|s| s.array == r.array && s.g == *g) {
                slots.push(PipeSlot {
                    array: r.array.clone(),
                    g: g.clone(),
                    is_rec: r.array == rec_name,
                });
            }
        }
    }
    let kernel = CompiledKernel::compile(&clause.rhs, slots.len(), |r| {
        let g = r.map.as_fn1()?;
        slots.iter().position(|s| s.array == r.array && s.g == *g)
    });
    let pguard: Option<PipeGuard> = match &clause.guard {
        Guard::Always => Some(PipeGuard::Always),
        Guard::Cmp { lhs, op, rhs } => lhs.map.as_fn1().and_then(|g| {
            slots
                .iter()
                .position(|s| s.array == lhs.array && s.g == *g)
                .map(|slot| PipeGuard::Cmp {
                    slot,
                    op: *op,
                    rhs: *rhs,
                })
        }),
    };
    // both the body and the guard must have resolved for the compiled
    // inner loop; otherwise the tree walker remains (naive fallback)
    let compiled = match (&kernel, &pguard) {
        (Some(k), Some(g)) => Some((k, g)),
        _ => None,
    };

    // disassemble
    let names: Vec<String> = arrays.keys().cloned().collect();
    let mut decomps: BTreeMap<String, Decomp1> = BTreeMap::new();
    let mut per_node: Vec<BTreeMap<String, Vec<f64>>> =
        (0..pmax).map(|_| BTreeMap::new()).collect();
    for (name, da) in std::mem::take(arrays) {
        decomps.insert(name.clone(), da.decomp().clone());
        let (_, parts) = da.into_parts();
        for (p, part) in parts.into_iter().enumerate() {
            per_node[p].insert(name.clone(), part);
        }
    }

    // successor channels: node p receives boundary values from p-1
    let mut txs: Vec<Option<Sender<BoundaryMsg>>> = Vec::new();
    let mut rxs: Vec<Option<Receiver<BoundaryMsg>>> = Vec::new();
    rxs.push(None); // node 0 has no predecessor
    for _ in 1..pmax {
        let (tx, rx) = unbounded();
        txs.push(Some(tx));
        rxs.push(Some(rx));
    }
    txs.push(None); // last node has no successor

    type DoacrossOutcome = (
        i64,
        BTreeMap<String, Vec<f64>>,
        NodeStats,
        Result<(), MachineError>,
    );
    let mut results: Vec<DoacrossOutcome> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (p, mut locals) in per_node.into_iter().enumerate() {
            let p = p as i64;
            let rx = rxs[p as usize].take();
            let tx = txs[p as usize].take();
            let dec = &dec;
            let decomps = &decomps;
            let rec_name = &rec_name;
            let dists = &dists;
            let slots = &slots;
            handles.push(scope.spawn(move || {
                let mut stats = NodeStats::default();
                let mut halo: HashMap<i64, f64> = HashMap::new();
                let mut vals = vec![0.0f64; slots.len()];
                let mut stack: Vec<f64> =
                    Vec::with_capacity(compiled.map_or(0, |(k, _)| k.stack_capacity()));
                let res = (|| -> Result<(), MachineError> {
                    // iteration sub-range owned by p
                    let my_cnt = dec.local_count(p);
                    let my_lo = if my_cnt > 0 { dec.global_of(p, 0) } else { 0 };
                    let my_hi = if my_cnt > 0 {
                        dec.global_of(p, my_cnt - 1)
                    } else {
                        -1
                    };
                    let lo = my_lo.max(imin);
                    let hi = my_hi.min(imax);
                    if lo <= hi {
                        // SIMD census: the stage's serial stretch is one
                        // scalar fallback run (carried dependence)
                        stats.simd_fallback_runs += 1;
                    }
                    // forward the *initial* (never-to-be-computed) values in
                    // the boundary window first, so the successor's earliest
                    // iterations can read pre-state data across the boundary.
                    if let (Some(tx), true) = (tx.as_ref(), my_cnt > 0) {
                        for g in (my_hi - max_d + 1).max(my_lo)..=my_hi {
                            if g < lo || g > hi {
                                let off = dec.local_of(g) as usize;
                                stats.msgs_sent += 1;
                                let _ = tx.send(BoundaryMsg {
                                    g,
                                    value: locals[rec_name][off],
                                });
                            }
                        }
                    }
                    for i in lo..=hi {
                        // gather carried operands
                        for &d in dists.iter() {
                            let src = i - d;
                            if src >= my_lo || src < dec.extent().lo()[0] {
                                continue; // local or out of array (guarded by caller)
                            }
                            if !halo.contains_key(&src) {
                                let rx = rx.as_ref().ok_or_else(|| {
                                    MachineError::PlanMismatch(format!(
                                        "node {p} needs predecessor values but has no \
                                         predecessor channel"
                                    ))
                                })?;
                                loop {
                                    let msg =
                                        rx.recv().map_err(|_| MachineError::PeerDisconnected {
                                            node: p,
                                            peer: p - 1,
                                        })?;
                                    stats.msgs_received += 1;
                                    halo.insert(msg.g, msg.value);
                                    if msg.g == src {
                                        break;
                                    }
                                }
                            }
                        }
                        // evaluate
                        stats.iterations += 1;
                        if let Some((kernel, pguard)) = compiled {
                            // compiled inner loop: gather each slot once
                            // (local part, or predecessor halo for
                            // carried reads), then run the bytecode
                            for (slot, ps) in slots.iter().enumerate() {
                                let g = ps.g.eval(i);
                                let dec_r = &decomps[&ps.array];
                                vals[slot] = if ps.is_rec && !dec_r.resides_on(g, p) {
                                    halo.get(&g).copied().ok_or_else(|| {
                                        MachineError::MissingMessage {
                                            node: p,
                                            array: ps.array.clone(),
                                            index: i,
                                        }
                                    })?
                                } else {
                                    locals[&ps.array][dec_r.local_of(g) as usize]
                                };
                            }
                            let guard_ok = match pguard {
                                PipeGuard::Always => true,
                                PipeGuard::Cmp { slot, op, rhs } => op.holds(vals[*slot], *rhs),
                            };
                            if guard_ok {
                                let v = kernel.eval(&[i], &vals, &mut stack);
                                let off = dec.local_of(i) as usize;
                                if let Some(rec) = locals.get_mut(rec_name) {
                                    rec[off] = v;
                                }
                            }
                        } else {
                            let guard_ok = eval_guard_local(
                                &clause.guard,
                                i,
                                p,
                                &locals,
                                decomps,
                                rec_name,
                                &halo,
                            )?;
                            if guard_ok {
                                let v = eval_local(
                                    &clause.rhs,
                                    i,
                                    p,
                                    &locals,
                                    decomps,
                                    rec_name,
                                    &halo,
                                )?;
                                let off = dec.local_of(i) as usize;
                                if let Some(rec) = locals.get_mut(rec_name) {
                                    rec[off] = v;
                                }
                            }
                        }
                        // forward boundary values the successor will need:
                        // successor's first max_d iterations read back to
                        // my_hi - max_d + 1.
                        if i > my_hi - max_d {
                            if let Some(tx) = tx.as_ref() {
                                let off = dec.local_of(i) as usize;
                                let value = locals[rec_name][off];
                                stats.msgs_sent += 1;
                                let _ = tx.send(BoundaryMsg { g: i, value });
                            }
                        }
                    }
                    Ok(())
                })();
                (p, locals, stats, res)
            }));
        }
        for (p, h) in handles.into_iter().enumerate() {
            // the supervisor: an escaped panic becomes a typed error,
            // never a host abort
            results.push(h.join().unwrap_or_else(|_| {
                (
                    p as i64,
                    BTreeMap::new(),
                    NodeStats::default(),
                    Err(MachineError::NodePanicked { node: p as i64 }),
                )
            }));
        }
    });
    results.sort_by_key(|(p, ..)| *p);

    // a panic (or the disconnect it causes downstream) is the root cause
    let mut first_err: Option<MachineError> = None;
    for (.., res) in &results {
        if let Err(e) = res {
            match (&first_err, e) {
                (None, _) => first_err = Some(e.clone()),
                (Some(MachineError::NodePanicked { .. }), _) => {}
                (Some(_), MachineError::NodePanicked { .. }) => first_err = Some(e.clone()),
                _ => {}
            }
        }
    }

    // reassemble even on error so the session keeps its arrays; the
    // pipeline mutates locals in place, so a failed run is reported as
    // a typed error over best-effort state, never a panic
    let mut report = ExecReport::default();
    let mut parts_by_name: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
    for (p, mut locals, stats, _res) in results {
        for name in &names {
            let part = match locals.remove(name) {
                Some(part) => part,
                None => match zero_part(&decomps[name], p) {
                    Ok(part) => part,
                    Err(e) => {
                        // a negative local count is a plan-shape bug;
                        // surface it unless a node error already won
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        Vec::new()
                    }
                },
            };
            parts_by_name.entry(name.clone()).or_default().push(part);
        }
        report.nodes.push(stats);
    }
    for (name, parts) in parts_by_name {
        let d = decomps[&name].clone();
        arrays.insert(name, DistArray::from_parts(d, parts));
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_local(
    e: &Expr,
    i: i64,
    p: i64,
    locals: &BTreeMap<String, Vec<f64>>,
    decomps: &BTreeMap<String, Decomp1>,
    rec_name: &str,
    halo: &HashMap<i64, f64>,
) -> Result<f64, MachineError> {
    match e {
        Expr::Ref(r) => {
            let g = r
                .map
                .as_fn1()
                .ok_or_else(|| {
                    MachineError::PlanMismatch(format!(
                        "read ref `{}` is not 1-D but the pipeline is",
                        r.array
                    ))
                })?
                .eval(i);
            let dec = &decomps[&r.array];
            if r.array == rec_name && !dec.resides_on(g, p) {
                halo.get(&g)
                    .copied()
                    .ok_or_else(|| MachineError::MissingMessage {
                        node: p,
                        array: r.array.clone(),
                        index: i,
                    })
            } else {
                Ok(locals[&r.array][dec.local_of(g) as usize])
            }
        }
        Expr::Lit(v) => Ok(*v),
        Expr::LoopVar { .. } => Ok(i as f64),
        Expr::Neg(inner) => Ok(-eval_local(inner, i, p, locals, decomps, rec_name, halo)?),
        Expr::Bin(op, a, b) => {
            let va = eval_local(a, i, p, locals, decomps, rec_name, halo)?;
            let vb = eval_local(b, i, p, locals, decomps, rec_name, halo)?;
            Ok(match op {
                BinOp::Add => va + vb,
                BinOp::Sub => va - vb,
                BinOp::Mul => va * vb,
                BinOp::Div => va / vb,
                BinOp::Min => va.min(vb),
                BinOp::Max => va.max(vb),
            })
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_guard_local(
    g: &Guard,
    i: i64,
    p: i64,
    locals: &BTreeMap<String, Vec<f64>>,
    decomps: &BTreeMap<String, Decomp1>,
    rec_name: &str,
    halo: &HashMap<i64, f64>,
) -> Result<bool, MachineError> {
    match g {
        Guard::Always => Ok(true),
        Guard::Cmp { lhs, op, rhs } => {
            let v = eval_local(
                &Expr::Ref(lhs.clone()),
                i,
                p,
                locals,
                decomps,
                rec_name,
                halo,
            )?;
            Ok(op.holds(v, *rhs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::{Array, ArrayRef, Bounds, Env, IndexSet};

    fn recurrence(n: i64, d: i64) -> Clause {
        // A[i] := A[i-d] + B[i]
        Clause {
            iter: IndexSet::range(d, n - 1),
            ordering: Ordering::Seq,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1("A", Fn1::shift(-d))),
                Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
            ),
        }
    }

    fn setup(n: i64, pmax: i64, d: i64) -> (Clause, Env, BTreeMap<String, DistArray>) {
        let clause = recurrence(n, d);
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() % 5) as f64),
        );
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| 0.5 * i.scalar() as f64),
        );
        let dec = Decomp1::block(pmax, Bounds::range(0, n - 1));
        let mut arrays = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.to_string(),
                DistArray::scatter_from(env.get(name).unwrap(), dec.clone()),
            );
        }
        (clause, env, arrays)
    }

    #[test]
    fn carried_distance_analysis() {
        assert_eq!(carried_distances(&recurrence(10, 1)), Some(vec![1]));
        assert_eq!(carried_distances(&recurrence(10, 3)), Some(vec![3]));
        // non-recurrence: no self read
        let c = Clause {
            iter: IndexSet::range(0, 9),
            ordering: Ordering::Seq,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        };
        assert_eq!(carried_distances(&c), None);
        // backward dependence (i+1): not a forward recurrence
        let c = Clause {
            iter: IndexSet::range(0, 8),
            ordering: Ordering::Seq,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("A", Fn1::shift(1))),
        };
        assert_eq!(carried_distances(&c), None);
    }

    #[test]
    fn pipeline_matches_sequential_reference() {
        for (n, pmax, d) in [(64i64, 4i64, 1i64), (63, 4, 2), (40, 8, 3), (32, 1, 1)] {
            let (clause, env, mut arrays) = setup(n, pmax, d);
            let mut reference = env.clone();
            reference.exec_clause(&clause);
            let report = run_doacross(&clause, &mut arrays)
                .unwrap_or_else(|e| panic!("n={n} pmax={pmax} d={d}: {e}"));
            assert_eq!(
                arrays["A"]
                    .gather()
                    .max_abs_diff(reference.get("A").unwrap()),
                0.0,
                "n={n} pmax={pmax} d={d}"
            );
            assert_eq!(report.total().iterations, (n - d) as u64);
        }
    }

    #[test]
    fn boundary_messages_are_minimal() {
        let (clause, _, mut arrays) = setup(64, 4, 1);
        let report = run_doacross(&clause, &mut arrays).unwrap();
        // each of the 3 interior boundaries carries d = 1 value
        assert_eq!(report.total().msgs_received, 3);
    }

    #[test]
    fn guarded_recurrence() {
        // running sum only over positive B values
        let n = 48;
        let clause = Clause {
            iter: IndexSet::range(1, n - 1),
            ordering: Ordering::Seq,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("B", Fn1::identity()),
                op: vcal_core::CmpOp::Gt,
                rhs: 10.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::add(Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))), Expr::Lit(1.0)),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        let dec = Decomp1::block(4, Bounds::range(0, n - 1));
        let mut arrays = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.to_string(),
                DistArray::scatter_from(env.get(name).unwrap(), dec.clone()),
            );
        }
        let mut reference = env.clone();
        reference.exec_clause(&clause);
        run_doacross(&clause, &mut arrays).unwrap();
        assert_eq!(
            arrays["A"]
                .gather()
                .max_abs_diff(reference.get("A").unwrap()),
            0.0
        );
    }

    #[test]
    fn rejects_parallel_clause_and_bad_layouts() {
        let (mut clause, env, mut arrays) = setup(32, 4, 1);
        clause.ordering = Ordering::Par;
        assert!(matches!(
            run_doacross(&clause, &mut arrays),
            Err(MachineError::PlanMismatch(_))
        ));
        clause.ordering = Ordering::Seq;
        // scatter layout of the recurrence array is rejected
        let dec = Decomp1::scatter(4, Bounds::range(0, 31));
        let mut arrays2 = BTreeMap::new();
        for name in ["A", "B"] {
            arrays2.insert(
                name.to_string(),
                DistArray::scatter_from(env.get(name).unwrap(), dec.clone()),
            );
        }
        assert!(matches!(
            run_doacross(&clause, &mut arrays2),
            Err(MachineError::PlanMismatch(_))
        ));
    }

    #[test]
    fn misaligned_operand_rejected() {
        let (clause, env, _) = setup(32, 4, 1);
        let mut arrays = BTreeMap::new();
        arrays.insert(
            "A".to_string(),
            DistArray::scatter_from(
                env.get("A").unwrap(),
                Decomp1::block(4, Bounds::range(0, 31)),
            ),
        );
        arrays.insert(
            "B".to_string(),
            DistArray::scatter_from(
                env.get("B").unwrap(),
                Decomp1::scatter(4, Bounds::range(0, 31)),
            ),
        );
        assert!(matches!(
            run_doacross(&clause, &mut arrays),
            Err(MachineError::PlanMismatch(_))
        ));
    }
}
