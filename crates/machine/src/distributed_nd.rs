//! The distributed-memory machine for multi-dimensional clauses on
//! processor grids — the Section 2.10 template with d-dimensional
//! Modify/Reside sets (Cartesian products of per-axis Table I schedules,
//! `vcal_spmd::optimize_nd`).
//!
//! Like the 1-D machine, it supports two [`CommMode`]s: **Element**
//! ships one `(read-slot, Ix)`-tagged message per remote value;
//! **Vectorized** (default) derives the per-ordered-pair send sets up
//! front — here by enumerating each ownership set once and bucketing by
//! the write target's owner, since the grid schedules have no 1-D
//! lattice algebra — and ships one vector message per `(source,
//! destination, slot)` with values in a deterministic order both sides
//! compute from the same shared plan.
//!
//! Both modes run over the reliable transport of [`crate::transport`]
//! (sequencing, checksums, duplicate suppression, NACK/retransmit
//! recovery) with the same seeded fault injection, typed errors, and
//! panic-safe supervision as the 1-D machine — configure them through
//! [`run_distributed_nd`]'s options.

use crate::darray_nd::DistArrayNd;
use crate::distributed::{CommMode, DistOptions, ELEM_MSG_BYTES, PACK_HEADER_BYTES};
use crate::error::MachineError;
use crate::obs::{EventKind, Phase, Tracer};
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{await_until, AwaitFail, Endpoint, Frame, WirePayload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use vcal_core::map::IndexMap;
use vcal_core::{BinOp, Clause, CmpOp, Expr, Guard, Ix, Ordering};
use vcal_decomp::DecompNd;
use vcal_spmd::{optimize_nd, simd, CompiledKernel, FusedShape};

#[derive(Debug, Clone, Copy)]
struct Msg {
    slot: usize,
    i: Ix,
    value: f64,
}

/// The machine-level payload of an nd wire packet.
#[derive(Debug, Clone)]
enum Wire {
    Elem(Msg),
    /// All values of one planned run, tagged by the run's ordinal in the
    /// `(src, dst)` pair's run list (the source id rides on the packet
    /// envelope).
    Pack {
        run_ord: usize,
        values: Vec<f64>,
    },
}

impl WirePayload for Wire {
    fn digest(&self) -> u64 {
        let mut h = 0u64;
        match self {
            Wire::Elem(m) => {
                h ^= 1;
                h = h.rotate_left(7).wrapping_add(m.slot as u64);
                for d in 0..m.i.dims() {
                    h = h.rotate_left(7).wrapping_add(m.i[d] as u64);
                }
                h = h.rotate_left(7).wrapping_add(m.value.to_bits());
            }
            Wire::Pack { run_ord, values } => {
                h ^= 2;
                h = h.rotate_left(7).wrapping_add(*run_ord as u64);
                for v in values {
                    h = h.rotate_left(7).wrapping_add(v.to_bits());
                }
            }
        }
        h
    }

    fn corrupt(&mut self, bits: u64) {
        match self {
            Wire::Elem(m) => {
                m.value = f64::from_bits(m.value.to_bits() ^ (1 << (bits % 52)));
            }
            Wire::Pack { values, .. } => {
                if !values.is_empty() {
                    let k = (bits as usize) % values.len();
                    values[k] = f64::from_bits(values[k].to_bits() ^ (1 << (bits % 52)));
                }
            }
        }
    }
}

/// One planned vector message: the multi-indices whose values it
/// carries, in packing order.
struct NdRun {
    slot: usize,
    elems: Vec<Ix>,
}

/// `send_plan[src][dst]` = that pair's runs in wire order. Derived once
/// on the coordinating thread and shared read-only by every node, so
/// sender packing order and receiver expectations agree by construction.
type SendPlan = Vec<Vec<Vec<NdRun>>>;

/// What one nd node thread returns: id, its (unmodified) local
/// memories, the local writes it wants committed, statistics, and its
/// error state.
type NodeOutcomeNd = (
    i64,
    BTreeMap<String, Vec<f64>>,
    Vec<(usize, f64)>,
    NodeStats,
    Result<(), MachineError>,
);

/// One deduplicated read access of the clause.
struct ReadSlot {
    array: String,
    map: IndexMap,
}

enum RExpr {
    Slot(usize),
    Lit(f64),
    LoopVar(usize),
    Neg(Box<RExpr>),
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
}

fn resolve(e: &Expr, slots: &[ReadSlot]) -> Result<RExpr, MachineError> {
    match e {
        Expr::Ref(r) => slots
            .iter()
            .position(|s| s.array == r.array && s.map == r.map)
            .map(RExpr::Slot)
            .ok_or_else(|| {
                MachineError::PlanMismatch(format!(
                    "read ref `{}` missing from the collected slot list",
                    r.array
                ))
            }),
        Expr::Lit(v) => Ok(RExpr::Lit(*v)),
        Expr::LoopVar { dim } => Ok(RExpr::LoopVar(*dim)),
        Expr::Neg(inner) => Ok(RExpr::Neg(Box::new(resolve(inner, slots)?))),
        Expr::Bin(op, a, b) => Ok(RExpr::Bin(
            *op,
            Box::new(resolve(a, slots)?),
            Box::new(resolve(b, slots)?),
        )),
    }
}

fn eval_r(e: &RExpr, i: &Ix, vals: &[f64]) -> f64 {
    match e {
        RExpr::Slot(s) => vals[*s],
        RExpr::Lit(v) => *v,
        RExpr::LoopVar(d) => i[*d] as f64,
        RExpr::Neg(inner) => -eval_r(inner, i, vals),
        RExpr::Bin(op, a, b) => op.apply(eval_r(a, i, vals), eval_r(b, i, vals)),
    }
}

enum RGuard {
    Always,
    Cmp { slot: usize, op: CmpOp, rhs: f64 },
}

/// One plan-time-resolved read access of a compiled nd element.
enum NdSlotRef {
    /// Owner-local: linear offset into the slot array's local part.
    Local(usize),
    /// Remote: the owning node the value arrives from.
    Remote(i64),
}

/// One iteration of a node's modify set with every per-element decision
/// — write offset, per-slot owner/offset, interior/boundary class —
/// hoisted to plan time. The node loop does no `proc_of` calls at all.
struct NdElem {
    i: Ix,
    lhs_off: usize,
    reads: Vec<NdSlotRef>,
    /// Whether any operand is remote (the element must wait on the
    /// transport; interior elements never do).
    boundary: bool,
}

/// L1 column-tile width for the nd SIMD tier, in f64 elements (8 KiB
/// per operand stream). Must be a multiple of the widest lane width
/// (16) so only a segment's final tile carries a remainder tail —
/// keeping the census accounting exact.
const ND_TILE: usize = 1024;

/// One coalesced unit-stride stretch of interior [`NdElem`]s — for a
/// row-major 2-D decomposition, an interior row segment. Elements
/// `k0..k0+len` write `lhs0..lhs0+len` and read each fused slot `j`
/// from `bases[j]..bases[j]+len`.
struct NdSeg {
    k0: usize,
    len: usize,
    lhs0: usize,
    /// Per fused *read slot* (in `FusedShape::read_slots` order), the
    /// local offset of the segment's first element.
    bases: Vec<usize>,
}

fn nd_local_off(el: &NdElem, slot: usize) -> Option<usize> {
    match el.reads.get(slot) {
        Some(NdSlotRef::Local(off)) => Some(*off),
        _ => None,
    }
}

/// Coalesce consecutive interior elements with +1-striding write and
/// fused-read offsets into maximal segments (register + L1 tiling
/// happens inside [`exec_nd_segment`]; streaming segments in row order
/// is the L2 level). Single elements stay on the scalar path — a
/// one-element "vector" would be pure dispatch overhead.
fn find_nd_segments(elems: &[NdElem], fused: &FusedShape) -> Vec<NdSeg> {
    let mut segs = Vec::new();
    if matches!(fused, FusedShape::Generic) {
        return segs;
    }
    let rslots = fused.read_slots();
    let mut k = 0usize;
    while k < elems.len() {
        let el = &elems[k];
        if el.boundary || rslots.iter().any(|s| nd_local_off(el, *s).is_none()) {
            k += 1;
            continue;
        }
        let bases: Vec<usize> = rslots
            .iter()
            .map(|s| nd_local_off(el, *s).unwrap_or(0))
            .collect();
        let lhs0 = el.lhs_off;
        let mut len = 1usize;
        while k + len < elems.len() {
            let e2 = &elems[k + len];
            if e2.boundary || e2.lhs_off != lhs0 + len {
                break;
            }
            let strided = rslots
                .iter()
                .zip(&bases)
                .all(|(s, b)| nd_local_off(e2, *s) == Some(b + len));
            if !strided {
                break;
            }
            len += 1;
        }
        if len >= 2 {
            segs.push(NdSeg {
                k0: k,
                len,
                lhs0,
                bases,
            });
        }
        k += len;
    }
    segs
}

/// Execute one coalesced segment through the lane kernels, one L1 tile
/// at a time, staging results into the ordinal-indexed `out` exactly
/// where the scalar loop would have put them.
#[allow(clippy::too_many_arguments)]
fn exec_nd_segment(
    seg: &NdSeg,
    fused: &FusedShape,
    slots: &[ReadSlot],
    locals: &BTreeMap<String, Vec<f64>>,
    opts: &DistOptions,
    tile: &mut [f64],
    out: &mut [Option<(usize, f64)>],
) {
    let rslots = fused.read_slots();
    let mut t0 = 0usize;
    while t0 < seg.len {
        let tl = ND_TILE.min(seg.len - t0);
        let buf = &mut tile[..tl];
        let src = |j: usize| -> &[f64] {
            let s = rslots[j];
            let part = &locals[&slots[s].array];
            &part[seg.bases[j] + t0..seg.bases[j] + t0 + tl]
        };
        match fused {
            FusedShape::Copy { .. } => simd::copy(opts.simd, src(0), buf),
            FusedShape::Axpy { a, b, .. } => simd::axpy(opts.simd, *a, *b, src(0), buf),
            FusedShape::Stencil {
                slots: ss,
                left_assoc,
                scale,
                offset,
            } => {
                if ss.len() == 3 {
                    simd::stencil3(
                        opts.simd,
                        *left_assoc,
                        *scale,
                        *offset,
                        src(0),
                        src(1),
                        src(2),
                        buf,
                    );
                } else {
                    simd::stencil2(opts.simd, *scale, *offset, src(0), src(1), buf);
                }
            }
            FusedShape::Generic => unreachable!("generic shapes never form segments"),
        }
        for (j, v) in buf.iter().enumerate() {
            out[seg.k0 + t0 + j] = Some((seg.lhs0 + t0 + j, *v));
        }
        t0 += tl;
    }
}

/// Iterate the ownership set `{ i ∈ loop_box | proc(map(i)) = p }`, using
/// the factorized Nd schedule when available and brute-force filtering
/// otherwise.
fn for_each_owned(
    map: &IndexMap,
    dec: &DecompNd,
    loop_box: &vcal_core::Bounds,
    p: i64,
    mut visit: impl FnMut(&Ix),
) {
    match optimize_nd(map, dec, loop_box, p) {
        Some(s) => s.for_each(&mut visit),
        None => {
            for i in loop_box.iter() {
                if dec.proc_of(&map.eval(&i)) == p {
                    visit(&i);
                }
            }
        }
    }
}

/// Execute a `//` clause of any dimensionality on the distributed grid
/// machine. All referenced arrays must be in `arrays`, decomposed over
/// grids with the same total processor count. `opts` selects the
/// timeout, communication mode, seeded fault injection, and retry
/// policy. Per-node phase events and wall-clock timings are recorded
/// through `tracer` (the nd machine traces at phase granularity; its
/// per-element indices are [`Ix`] and never enter the event log).
pub fn run_distributed_nd(
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArrayNd>,
    opts: DistOptions,
    tracer: &dyn Tracer,
) -> Result<ExecReport, MachineError> {
    if clause.ordering != Ordering::Par {
        return Err(MachineError::SequentialClause);
    }
    // collect read slots (deduplicated)
    let mut slots: Vec<ReadSlot> = Vec::new();
    for r in clause.read_refs() {
        if !slots.iter().any(|s| s.array == r.array && s.map == r.map) {
            slots.push(ReadSlot {
                array: r.array.clone(),
                map: r.map.clone(),
            });
        }
    }
    let lhs_name = clause.lhs.array.clone();
    let mut referenced: Vec<String> = vec![lhs_name.clone()];
    for s in &slots {
        if !referenced.contains(&s.array) {
            referenced.push(s.array.clone());
        }
    }
    let mut decomps: BTreeMap<String, DecompNd> = BTreeMap::new();
    let mut pmax = None;
    for name in &referenced {
        let da = arrays
            .get(name)
            .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
        match pmax {
            None => pmax = Some(da.decomp().pmax()),
            Some(p) if p == da.decomp().pmax() => {}
            _ => {
                return Err(MachineError::PlanMismatch(
                    "all arrays must use the same total processor count".into(),
                ))
            }
        }
        decomps.insert(name.clone(), da.decomp().clone());
    }
    let pmax =
        pmax.ok_or_else(|| MachineError::PlanMismatch("clause references no arrays".into()))?;
    let dec_lhs = decomps[&lhs_name].clone();

    let rexpr = resolve(&clause.rhs, &slots)?;
    let rguard = match &clause.guard {
        Guard::Always => RGuard::Always,
        Guard::Cmp { lhs, op, rhs } => RGuard::Cmp {
            slot: slots
                .iter()
                .position(|s| s.array == lhs.array && s.map == lhs.map)
                .ok_or_else(|| {
                    MachineError::PlanMismatch(format!(
                        "guard ref `{}` missing from the collected slot list",
                        lhs.array
                    ))
                })?,
            op: *op,
            rhs: *rhs,
        },
    };

    // compile the clause body once into flat postfix bytecode; when it
    // resolves, the node loops run it (plus the plan-time owner tables
    // below) instead of the recursive tree walker
    let kernel = CompiledKernel::compile(&clause.rhs, slots.len(), |r| {
        slots
            .iter()
            .position(|s| s.array == r.array && s.map == r.map)
    });

    // plan-time communication schedule: enumerate each ownership set
    // once, bucket by the write target's owner. Vectorized mode packs
    // these runs; the compiled element path sends from them too (the
    // bucket index *is* the destination — no per-element `proc_of`)
    let loop_box = &clause.iter.bounds;
    let send_plan: SendPlan = if opts.mode == CommMode::Vectorized || kernel.is_some() {
        let mut sp: SendPlan = (0..pmax)
            .map(|_| (0..pmax).map(|_| Vec::new()).collect())
            .collect();
        for p in 0..pmax {
            for (slot, rs) in slots.iter().enumerate() {
                let dec_r = &decomps[&rs.array];
                let mut buckets: Vec<Vec<Ix>> = vec![Vec::new(); pmax as usize];
                for_each_owned(&rs.map, dec_r, loop_box, p, |i| {
                    let owner = dec_lhs.proc_of(&clause.lhs.map.eval(i));
                    if owner != p {
                        buckets[owner as usize].push(*i);
                    }
                });
                for (q, elems) in buckets.into_iter().enumerate() {
                    if !elems.is_empty() {
                        sp[p as usize][q].push(NdRun { slot, elems });
                    }
                }
            }
        }
        sp
    } else {
        Vec::new()
    };

    // per-node execution tables: every modify element with its write
    // offset, per-slot local offset or owner, and interior/boundary
    // class resolved at plan time
    let exec_plan: Vec<Vec<NdElem>> = if kernel.is_some() {
        (0..pmax)
            .map(|p| {
                let lhs_local_bounds = dec_lhs.local_bounds(p);
                let mut elems = Vec::new();
                for_each_owned(&clause.lhs.map, &dec_lhs, loop_box, p, |i| {
                    let target = clause.lhs.map.eval(i);
                    let lhs_off = lhs_local_bounds.linear_offset(&dec_lhs.local_of(&target));
                    let mut boundary = false;
                    let reads = slots
                        .iter()
                        .map(|rs| {
                            let dec_r = &decomps[&rs.array];
                            let g = rs.map.eval(i);
                            let owner = dec_r.proc_of(&g);
                            if owner == p {
                                NdSlotRef::Local(
                                    dec_r.local_bounds(p).linear_offset(&dec_r.local_of(&g)),
                                )
                            } else {
                                boundary = true;
                                NdSlotRef::Remote(owner)
                            }
                        })
                        .collect();
                    elems.push(NdElem {
                        i: *i,
                        lhs_off,
                        reads,
                        boundary,
                    });
                });
                elems
            })
            .collect()
    } else {
        Vec::new()
    };

    // disassemble arrays (two-phase so a missing array cannot leave a
    // partial removal behind)
    let mut taken: Vec<(String, DistArrayNd)> = Vec::with_capacity(referenced.len());
    for name in &referenced {
        match arrays.remove(name) {
            Some(da) => taken.push((name.clone(), da)),
            None => {
                for (n, da) in taken {
                    arrays.insert(n, da);
                }
                return Err(MachineError::UnknownArray(name.clone()));
            }
        }
    }
    let mut per_node: Vec<BTreeMap<String, Vec<f64>>> =
        (0..pmax).map(|_| BTreeMap::new()).collect();
    for (name, da) in taken {
        let (_, parts) = da.into_parts();
        for (p, part) in parts.into_iter().enumerate() {
            per_node[p].insert(name.clone(), part);
        }
    }

    let mut txs: Vec<Sender<Frame<Wire>>> = Vec::with_capacity(pmax as usize);
    let mut rxs: Vec<Receiver<Frame<Wire>>> = Vec::with_capacity(pmax as usize);
    for _ in 0..pmax {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }

    let mut results: Vec<NodeOutcomeNd> = Vec::with_capacity(pmax as usize);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (p, locals) in per_node.into_iter().enumerate() {
            let p = p as i64;
            let rx = rxs.remove(0);
            let txs = txs.clone();
            let decomps = &decomps;
            let dec_lhs = &dec_lhs;
            let slots = &slots;
            let rexpr = &rexpr;
            let rguard = &rguard;
            let send_plan = &send_plan;
            let exec = match (&kernel, exec_plan.get(p as usize)) {
                (Some(k), Some(elems)) => Some((elems.as_slice(), k)),
                _ => None,
            };
            handles.push(scope.spawn(move || {
                run_node_nd(
                    p, locals, rx, txs, clause, slots, exec, rexpr, rguard, decomps, dec_lhs,
                    &opts, send_plan, tracer,
                )
            }));
        }
        drop(txs);
        for (p, h) in handles.into_iter().enumerate() {
            // supervisor: an escaped panic becomes a typed error
            results.push(h.join().unwrap_or_else(|_| {
                (
                    p as i64,
                    BTreeMap::new(),
                    Vec::new(),
                    NodeStats::default(),
                    Err(MachineError::NodePanicked { node: p as i64 }),
                )
            }));
        }
    });
    results.sort_by_key(|(p, ..)| *p);

    // pick the run's error (a panic is the root cause, it wins)
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

    // validate every write before committing any (all-or-nothing)
    if first_err.is_none() {
        'validate: for (p, locals, writes, ..) in &results {
            let len = locals.get(&lhs_name).map_or(0, Vec::len);
            for (off, _) in writes {
                if *off >= len {
                    first_err = Some(MachineError::PlanMismatch(format!(
                        "write offset {off} outside node {p}'s local part (len {len})"
                    )));
                    break 'validate;
                }
            }
        }
    }
    let commit = first_err.is_none();

    let mut report = ExecReport::default();
    let mut parts_by_name: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
    for (p, mut locals, writes, stats, _res) in results {
        if commit {
            if let Some(lhs_local) = locals.get_mut(&lhs_name) {
                for (off, v) in writes {
                    lhs_local[off] = v; // validated above
                }
            }
        }
        for name in &referenced {
            let part = locals
                .remove(name)
                .unwrap_or_else(|| vec![0.0; decomps[name].local_bounds(p).count() as usize]);
            parts_by_name.entry(name.clone()).or_default().push(part);
        }
        report.nodes.push(stats);
    }
    for (name, parts) in parts_by_name {
        let d = decomps[&name].clone();
        arrays.insert(name, DistArrayNd::from_parts(d, parts));
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Receive-side state of one nd node, by mode.
enum RecvStateNd {
    /// Element mode: out-of-order arrivals in an ordered pending buffer.
    Element { pending: BTreeMap<(usize, Ix), f64> },
    /// Vectorized mode: packets staged whole by `(source, run)`; each
    /// remote element resolves through the plan-expanded `origin` map.
    /// Staging rows are indexed by source processor id directly.
    Packed {
        staging: Vec<Vec<Option<Vec<f64>>>>,
        origin: BTreeMap<(usize, Ix), (usize, usize, usize)>,
    },
}

impl RecvStateNd {
    fn new(mode: CommMode, send_plan: &SendPlan, p: i64, pmax: usize) -> RecvStateNd {
        match mode {
            CommMode::Element => RecvStateNd::Element {
                pending: BTreeMap::new(),
            },
            CommMode::Vectorized => {
                let mut staging = Vec::with_capacity(pmax);
                let mut origin = BTreeMap::new();
                for (src, runs) in send_plan.iter().map(|row| &row[p as usize]).enumerate() {
                    staging.push(vec![None; runs.len()]);
                    for (run_ord, run) in runs.iter().enumerate() {
                        for (off, i) in run.elems.iter().enumerate() {
                            origin.insert((run.slot, *i), (src, run_ord, off));
                        }
                    }
                }
                RecvStateNd::Packed { staging, origin }
            }
        }
    }

    /// Produce the remote operand for `(slot, i)` owed by `owner`,
    /// receiving (and recovering) through the transport as needed.
    #[allow(clippy::too_many_arguments)]
    fn remote_value(
        &mut self,
        ep: &mut Endpoint<Wire>,
        slot: usize,
        i: &Ix,
        owner: i64,
        opts: &DistOptions,
        stats: &mut NodeStats,
    ) -> Result<f64, RecvFailNd> {
        match self {
            RecvStateNd::Element { pending } => await_until(
                ep,
                owner,
                opts.recv_timeout,
                opts.retry,
                stats,
                pending,
                |pending| pending.remove(&(slot, *i)).map(Ok),
                |pending, _src, _seq, wire| match wire {
                    Wire::Elem(m) => {
                        pending.insert((m.slot, m.i), m.value);
                        Ok(())
                    }
                    Wire::Pack { .. } => Err("vector packet in element mode"),
                },
            )
            .map_err(|e| match e {
                AwaitFail::Timeout => RecvFailNd::Timeout,
                AwaitFail::Exhausted { retries } => RecvFailNd::Exhausted {
                    peer: owner,
                    retries,
                },
                AwaitFail::BadWire(w) => RecvFailNd::BadWire(w),
            }),
            RecvStateNd::Packed { staging, origin } => {
                let &(src, ro, off) = origin
                    .get(&(slot, *i))
                    .ok_or(RecvFailNd::BadWire("no planned packet covers this element"))?;
                let peer = src as i64;
                await_until(
                    ep,
                    peer,
                    opts.recv_timeout,
                    opts.retry,
                    stats,
                    staging,
                    |staging| {
                        staging[src][ro].as_ref().map(|vals| {
                            vals.get(off)
                                .copied()
                                .ok_or("packet shorter than its planned run")
                        })
                    },
                    |staging, s, _seq, wire| match wire {
                        Wire::Pack { run_ord, values } => {
                            let row = staging
                                .get_mut(s as usize)
                                .ok_or("packet from unplanned source")?;
                            let cell = row.get_mut(run_ord).ok_or("packet run tag out of range")?;
                            if cell.is_none() {
                                *cell = Some(values);
                            }
                            Ok(())
                        }
                        Wire::Elem(_) => Err("element message in vectorized mode"),
                    },
                )
                .map_err(|e| match e {
                    AwaitFail::Timeout => RecvFailNd::PacketTimeout { peer, run: ro },
                    AwaitFail::Exhausted { retries } => RecvFailNd::Exhausted { peer, retries },
                    AwaitFail::BadWire(w) => RecvFailNd::BadWire(w),
                })
            }
        }
    }
}

/// Why an nd remote value could not be produced.
enum RecvFailNd {
    Timeout,
    PacketTimeout { peer: i64, run: usize },
    Exhausted { peer: i64, retries: u32 },
    BadWire(&'static str),
}

/// The nd machine's uniform receive-failure → typed-error mapping
/// (identical wording to the legacy update loop's inline arms).
fn map_recv_fail_nd(f: RecvFailNd, p: i64, array: &str, i: &Ix, slot: usize) -> MachineError {
    match f {
        RecvFailNd::Timeout => MachineError::MissingMessage {
            node: p,
            array: array.to_string(),
            index: i[0],
        },
        RecvFailNd::PacketTimeout { peer, run } => MachineError::MissingPacket {
            node: p,
            peer,
            slot,
            run,
        },
        RecvFailNd::Exhausted { peer, retries } => MachineError::Unrecoverable {
            node: p,
            peer,
            retries,
        },
        RecvFailNd::BadWire(why) => {
            MachineError::PlanMismatch(format!("node {p}, array `{array}`: {why}"))
        }
    }
}

/// One nd node thread: run the phases under a panic guard, then
/// announce completion and service late retransmit requests.
#[allow(clippy::too_many_arguments)]
fn run_node_nd(
    p: i64,
    locals: BTreeMap<String, Vec<f64>>,
    rx: Receiver<Frame<Wire>>,
    txs: Vec<Sender<Frame<Wire>>>,
    clause: &Clause,
    slots: &[ReadSlot],
    exec: Option<(&[NdElem], &CompiledKernel)>,
    rexpr: &RExpr,
    rguard: &RGuard,
    decomps: &BTreeMap<String, DecompNd>,
    dec_lhs: &DecompNd,
    opts: &DistOptions,
    send_plan: &SendPlan,
    tracer: &dyn Tracer,
) -> NodeOutcomeNd {
    let mut locals = locals;
    let mut stats = NodeStats::default();
    let mut writes: Vec<(usize, f64)> = Vec::new();
    let mut ep = Endpoint::in_proc(p, txs, rx, opts.faults, tracer);
    let trace_on = tracer.enabled();

    let phases = catch_unwind(AssertUnwindSafe(|| {
        node_phases_nd(
            p,
            &mut locals,
            &mut ep,
            clause,
            slots,
            exec,
            rexpr,
            rguard,
            decomps,
            dec_lhs,
            opts,
            send_plan,
            &mut stats,
            &mut writes,
            tracer,
        )
    }));
    let res = match phases {
        Ok(r) => {
            ep.announce_done();
            if trace_on {
                tracer.record(p, EventKind::PhaseStart(Phase::Drain));
                let t0 = std::time::Instant::now();
                ep.drain(opts.recv_timeout, &mut stats);
                tracer.timing(p, Phase::Drain, t0.elapsed());
                tracer.record(p, EventKind::PhaseEnd(Phase::Drain));
            } else {
                ep.drain(opts.recv_timeout, &mut stats);
            }
            r
        }
        Err(_) => {
            ep.announce_done();
            Err(MachineError::NodePanicked { node: p })
        }
    };
    if res.is_err() {
        writes.clear();
    }
    (p, locals, writes, stats, res)
}

/// The send + update phases of one nd node (panics are caught by the
/// caller's supervisor). Writes are collected for the host to commit.
#[allow(clippy::too_many_arguments)]
fn node_phases_nd(
    p: i64,
    locals: &mut BTreeMap<String, Vec<f64>>,
    ep: &mut Endpoint<Wire>,
    clause: &Clause,
    slots: &[ReadSlot],
    exec: Option<(&[NdElem], &CompiledKernel)>,
    rexpr: &RExpr,
    rguard: &RGuard,
    decomps: &BTreeMap<String, DecompNd>,
    dec_lhs: &DecompNd,
    opts: &DistOptions,
    send_plan: &SendPlan,
    stats: &mut NodeStats,
    writes: &mut Vec<(usize, f64)>,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let loop_box = &clause.iter.bounds;
    let pmax = ep.peer_count();
    let trace_on = tracer.enabled();

    // ---- send phase ------------------------------------------------------
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Send));
    }
    let send_t0 = trace_on.then(std::time::Instant::now);
    match (opts.mode, exec.is_some()) {
        (CommMode::Element, true) => {
            // compiled: the plan buckets already know every destination —
            // the per-element `proc_of(lhs(i))` owner test is hoisted to
            // plan time (the bucket index is the destination)
            for (q, runs) in send_plan[p as usize].iter().enumerate() {
                for run in runs {
                    let rs = &slots[run.slot];
                    let dec_r = &decomps[&rs.array];
                    let local_part = &locals[&rs.array];
                    let local_bounds = dec_r.local_bounds(p);
                    for i in &run.elems {
                        let g = rs.map.eval(i);
                        let off = local_bounds.linear_offset(&dec_r.local_of(&g));
                        stats.msgs_sent += 1;
                        stats.packets_sent += 1;
                        stats.bytes_sent += ELEM_MSG_BYTES;
                        stats.max_packet_elems = stats.max_packet_elems.max(1);
                        ep.send(
                            q,
                            Wire::Elem(Msg {
                                slot: run.slot,
                                i: *i,
                                value: local_part[off],
                            }),
                        );
                    }
                }
            }
        }
        (CommMode::Element, false) => {
            // naive fallback: per-element ownership test + tagged send
            for (slot, rs) in slots.iter().enumerate() {
                let dec_r = &decomps[&rs.array];
                let local_part = &locals[&rs.array];
                let local_bounds = dec_r.local_bounds(p);
                for_each_owned(&rs.map, dec_r, loop_box, p, |i| {
                    let owner = dec_lhs.proc_of(&clause.lhs.map.eval(i));
                    if owner != p {
                        let g = rs.map.eval(i);
                        let off = local_bounds.linear_offset(&dec_r.local_of(&g));
                        stats.msgs_sent += 1;
                        stats.packets_sent += 1;
                        stats.bytes_sent += ELEM_MSG_BYTES;
                        stats.max_packet_elems = stats.max_packet_elems.max(1);
                        ep.send(
                            owner as usize,
                            Wire::Elem(Msg {
                                slot,
                                i: *i,
                                value: local_part[off],
                            }),
                        );
                    }
                });
            }
        }
        (CommMode::Vectorized, _) => {
            for (q, runs) in send_plan[p as usize].iter().enumerate() {
                for (run_ord, run) in runs.iter().enumerate() {
                    let rs = &slots[run.slot];
                    let dec_r = &decomps[&rs.array];
                    let local_part = &locals[&rs.array];
                    let local_bounds = dec_r.local_bounds(p);
                    let mut values = Vec::with_capacity(run.elems.len());
                    for i in &run.elems {
                        let g = rs.map.eval(i);
                        values.push(local_part[local_bounds.linear_offset(&dec_r.local_of(&g))]);
                    }
                    let elems = values.len() as u64;
                    stats.msgs_sent += elems;
                    stats.packets_sent += 1;
                    stats.bytes_sent += PACK_HEADER_BYTES + 8 * elems;
                    stats.max_packet_elems = stats.max_packet_elems.max(elems);
                    ep.send(q, Wire::Pack { run_ord, values });
                }
            }
        }
    }
    ep.end_send_phase(); // flush delayed packets; crash point
    if let Some(t0) = send_t0 {
        tracer.timing(p, Phase::Send, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Send));
    }

    // ---- update phase ----------------------------------------------------
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Update));
    }
    let update_t0 = trace_on.then(std::time::Instant::now);

    // compiled path: bytecode kernel over the plan-time element tables.
    // With overlap, every interior element (all operands owner-local)
    // executes before any boundary element blocks on the transport;
    // writes are staged by visit ordinal so the commit order — and the
    // result, even for a non-injective write map — is overlap-invariant.
    if let Some((elems, kernel)) = exec {
        let mut recv = RecvStateNd::new(opts.mode, send_plan, p, pmax);
        // per-run scratch, allocated once for the whole update phase
        let mut vals = vec![0.0f64; slots.len()];
        let mut stack: Vec<f64> = Vec::with_capacity(kernel.stack_capacity());
        let mut out: Vec<Option<(usize, f64)>> = vec![None; elems.len()];
        let n_slots = slots.len();
        // Cache-blocked SIMD tier (DESIGN.md §14): coalesce consecutive
        // interior elements whose write offset and every fused read
        // offset advance by +1 — for a row-major 2-D grid these are
        // exactly the interior row segments — then stream each segment
        // through L1-sized column tiles of lane chunks. Staging by
        // ordinal `out[k]` keeps the commit order identical to the
        // scalar path, so results are bitwise unchanged.
        let segs = if opts.simd.enabled() && matches!(rguard, RGuard::Always) {
            find_nd_segments(elems, &kernel.fused)
        } else {
            Vec::new()
        };
        let mut tile = vec![0.0f64; ND_TILE];
        let passes: &[Option<bool>] = if opts.overlap {
            &[Some(false), Some(true)]
        } else {
            &[None]
        };
        for pass in passes {
            let mut si = 0usize;
            // advance past segments while scalar elements run, counting
            // each maximal scalar stretch as one fallback "run"
            let mut in_fallback = false;
            let mut k = 0usize;
            while k < elems.len() {
                if let Some(seg) = segs.get(si) {
                    if seg.k0 == k {
                        // segments are interior-only: execute them on the
                        // interior (or single) pass, skip on the boundary pass
                        if pass.is_none_or(|want_boundary| !want_boundary) {
                            exec_nd_segment(
                                seg,
                                &kernel.fused,
                                slots,
                                locals,
                                opts,
                                &mut tile,
                                &mut out,
                            );
                            stats.iterations += seg.len as u64;
                            stats.local_reads += (seg.len * n_slots) as u64;
                            stats.data_guards += seg.len as u64;
                            let lanes = opts.simd.census_lanes() as u64;
                            stats.simd_runs += 1;
                            stats.simd_lane_elems += seg.len as u64 / lanes * lanes;
                            stats.simd_tail_elems += seg.len as u64 % lanes;
                            stats.simd_lanes = stats.simd_lanes.max(lanes);
                        }
                        in_fallback = false;
                        k += seg.len;
                        si += 1;
                        continue;
                    }
                }
                let el = &elems[k];
                if let Some(want_boundary) = pass {
                    if el.boundary != *want_boundary {
                        in_fallback = false;
                        k += 1;
                        continue;
                    }
                }
                if !in_fallback {
                    stats.simd_fallback_runs += 1;
                    in_fallback = true;
                }
                stats.iterations += 1;
                for (slot, r) in el.reads.iter().enumerate() {
                    vals[slot] = match r {
                        NdSlotRef::Local(off) => {
                            stats.local_reads += 1;
                            locals[&slots[slot].array][*off]
                        }
                        NdSlotRef::Remote(owner) => {
                            match recv.remote_value(ep, slot, &el.i, *owner, opts, stats) {
                                Ok(v) => {
                                    stats.msgs_received += 1;
                                    v
                                }
                                Err(f) => {
                                    let res = Err(map_recv_fail_nd(
                                        f,
                                        p,
                                        &slots[slot].array,
                                        &el.i,
                                        slot,
                                    ));
                                    if let Some(t0) = update_t0 {
                                        tracer.timing(p, Phase::Update, t0.elapsed());
                                        tracer.record(p, EventKind::PhaseEnd(Phase::Update));
                                    }
                                    return res;
                                }
                            }
                        }
                    };
                }
                stats.data_guards += 1;
                let ok = match rguard {
                    RGuard::Always => true,
                    RGuard::Cmp { slot, op, rhs } => op.holds(vals[*slot], *rhs),
                };
                if ok {
                    out[k] = Some((el.lhs_off, kernel.eval(el.i.coords(), &vals, &mut stack)));
                }
                k += 1;
            }
        }
        writes.extend(out.into_iter().flatten());
        if trace_on {
            tracer.record(
                p,
                EventKind::SimdCensus {
                    vector_runs: stats.simd_runs,
                    fallback_runs: stats.simd_fallback_runs,
                    lane_elems: stats.simd_lane_elems,
                    tail_elems: stats.simd_tail_elems,
                },
            );
        }
        if let Some(t0) = update_t0 {
            tracer.timing(p, Phase::Update, t0.elapsed());
            tracer.record(p, EventKind::PhaseEnd(Phase::Update));
        }
        return Ok(());
    }

    let mut recv = RecvStateNd::new(opts.mode, send_plan, p, pmax);
    let mut vals = vec![0.0f64; slots.len()];
    let mut err: Option<MachineError> = None;
    let lhs_local_bounds = dec_lhs.local_bounds(p);

    for_each_owned(&clause.lhs.map, dec_lhs, loop_box, p, |i| {
        if err.is_some() {
            return;
        }
        stats.iterations += 1;
        for (slot, rs) in slots.iter().enumerate() {
            let dec_r = &decomps[&rs.array];
            let g = rs.map.eval(i);
            let owner = dec_r.proc_of(&g);
            if owner == p {
                stats.local_reads += 1;
                let off = dec_r.local_bounds(p).linear_offset(&dec_r.local_of(&g));
                vals[slot] = locals[&rs.array][off];
            } else {
                vals[slot] = match recv.remote_value(ep, slot, i, owner, opts, stats) {
                    Ok(v) => {
                        stats.msgs_received += 1;
                        v
                    }
                    Err(RecvFailNd::Timeout) => {
                        err = Some(MachineError::MissingMessage {
                            node: p,
                            array: rs.array.clone(),
                            index: i[0],
                        });
                        return;
                    }
                    Err(RecvFailNd::PacketTimeout { peer, run }) => {
                        err = Some(MachineError::MissingPacket {
                            node: p,
                            peer,
                            slot,
                            run,
                        });
                        return;
                    }
                    Err(RecvFailNd::Exhausted { peer, retries }) => {
                        err = Some(MachineError::Unrecoverable {
                            node: p,
                            peer,
                            retries,
                        });
                        return;
                    }
                    Err(RecvFailNd::BadWire(why)) => {
                        err = Some(MachineError::PlanMismatch(format!(
                            "node {p}, array `{}`: {why}",
                            rs.array
                        )));
                        return;
                    }
                };
            }
        }
        stats.data_guards += 1;
        let ok = match rguard {
            RGuard::Always => true,
            RGuard::Cmp { slot, op, rhs } => op.holds(vals[*slot], *rhs),
        };
        if ok {
            let target = clause.lhs.map.eval(i);
            let off = lhs_local_bounds.linear_offset(&dec_lhs.local_of(&target));
            writes.push((off, eval_r(rexpr, i, &vals)));
        }
    });
    if let Some(t0) = update_t0 {
        tracer.timing(p, Phase::Update, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Update));
    }

    err.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NULL_TRACER;
    use crate::transport::FaultPlan;
    use crate::transport::RetryPolicy;
    use std::time::Duration;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, Env, IndexSet};
    use vcal_decomp::Decomp1;

    fn grid(r: i64, c: i64, n0: i64, n1: i64) -> DecompNd {
        DecompNd::new(vec![
            Decomp1::block(r, Bounds::range(0, n0 - 1)),
            Decomp1::scatter(c, Bounds::range(0, n1 - 1)),
        ])
    }

    fn run_and_check(clause: &Clause, env: &Env, decs: &BTreeMap<String, DecompNd>) {
        let mut reference = env.clone();
        reference.exec_clause(clause);
        let mut arrays: BTreeMap<String, DistArrayNd> = BTreeMap::new();
        for (name, d) in decs {
            arrays.insert(
                name.clone(),
                DistArrayNd::scatter_from(env.get(name).unwrap(), d.clone()),
            );
        }
        run_distributed_nd(clause, &mut arrays, DistOptions::default(), &NULL_TRACER).unwrap();
        let got = arrays[&clause.lhs.array].gather();
        assert_eq!(
            got.max_abs_diff(reference.get(&clause.lhs.array).unwrap()),
            0.0
        );
    }

    #[test]
    fn jacobi2d_distributed() {
        let n = 20i64;
        let u = |di: i64, dj: i64| {
            Expr::Ref(ArrayRef::new(
                "U",
                IndexMap::per_dim(vec![Fn1::shift(di), Fn1::shift(dj)]),
            ))
        };
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(1, n - 2, 1, n - 2)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("V", IndexMap::identity(2)),
            rhs: Expr::mul(
                Expr::add(Expr::add(u(-1, 0), u(1, 0)), Expr::add(u(0, -1), u(0, 1))),
                Expr::Lit(0.25),
            ),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                ((i[0] * 7 + i[1] * 3) % 11) as f64
            }),
        );
        env.insert("V", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        let mut decs = BTreeMap::new();
        decs.insert("U".to_string(), grid(2, 2, n, n));
        decs.insert("V".to_string(), grid(2, 2, n, n));
        run_and_check(&clause, &env, &decs);
    }

    #[test]
    fn transpose_across_grids() {
        // B[j,i] := A[i,j] with DIFFERENT grid decompositions for A and B
        let n = 12i64;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("B", IndexMap::permutation(2, &[1, 0])),
            rhs: Expr::Ref(ArrayRef::new("A", IndexMap::identity(2))),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        );
        env.insert("B", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        let mut decs = BTreeMap::new();
        decs.insert("A".to_string(), grid(2, 2, n, n));
        decs.insert(
            "B".to_string(),
            DecompNd::new(vec![
                Decomp1::scatter(2, Bounds::range(0, n - 1)),
                Decomp1::block(2, Bounds::range(0, n - 1)),
            ]),
        );
        run_and_check(&clause, &env, &decs);
    }

    #[test]
    fn guarded_2d_clause() {
        let n = 10i64;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::new("C", IndexMap::identity(2)),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::new("A", IndexMap::identity(2)),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::new("B", IndexMap::identity(2))),
                Expr::LoopVar { dim: 1 },
            ),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        env.insert(
            "B",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| (i[0] + i[1]) as f64),
        );
        env.insert(
            "C",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                if (i[0] + i[1]) % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            }),
        );
        let mut decs = BTreeMap::new();
        decs.insert("A".to_string(), grid(2, 2, n, n));
        decs.insert(
            "B".to_string(),
            DecompNd::new(vec![
                Decomp1::block(4, Bounds::range(0, n - 1)),
                Decomp1::block(1, Bounds::range(0, n - 1)),
            ]),
        );
        decs.insert("C".to_string(), grid(4, 1, n, n));
        run_and_check(&clause, &env, &decs);
    }

    #[test]
    fn modes_agree_and_vectorized_batches() {
        // transpose across different grids forces all-to-all traffic
        let n = 16i64;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("B", IndexMap::permutation(2, &[1, 0])),
            rhs: Expr::Ref(ArrayRef::new("A", IndexMap::identity(2))),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        );
        env.insert("B", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        let mut reference = env.clone();
        reference.exec_clause(&clause);
        let mut decs = BTreeMap::new();
        decs.insert("A".to_string(), grid(2, 2, n, n));
        decs.insert(
            "B".to_string(),
            DecompNd::new(vec![
                Decomp1::scatter(2, Bounds::range(0, n - 1)),
                Decomp1::block(2, Bounds::range(0, n - 1)),
            ]),
        );
        let mut totals = Vec::new();
        for mode in [CommMode::Element, CommMode::Vectorized] {
            let mut arrays: BTreeMap<String, DistArrayNd> = BTreeMap::new();
            for (name, d) in &decs {
                arrays.insert(
                    name.clone(),
                    DistArrayNd::scatter_from(env.get(name).unwrap(), d.clone()),
                );
            }
            let report = run_distributed_nd(
                &clause,
                &mut arrays,
                DistOptions {
                    mode,
                    ..DistOptions::default()
                },
                &NULL_TRACER,
            )
            .unwrap();
            assert_eq!(
                arrays["B"]
                    .gather()
                    .max_abs_diff(reference.get("B").unwrap()),
                0.0,
                "{mode:?}"
            );
            totals.push(report.total());
        }
        let (elem, vect) = (totals[0], totals[1]);
        assert_eq!(elem.msgs_sent, vect.msgs_sent);
        assert_eq!(elem.msgs_received, vect.msgs_received);
        assert_eq!(elem.packets_sent, elem.msgs_sent);
        assert!(vect.packets_sent < vect.msgs_sent);
        assert!(vect.max_packet_elems > 1);
    }

    #[test]
    fn faulty_transpose_recovers_bit_exact() {
        // a noisy seeded link on the all-to-all transpose still converges
        let n = 12i64;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("B", IndexMap::permutation(2, &[1, 0])),
            rhs: Expr::Ref(ArrayRef::new("A", IndexMap::identity(2))),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range2(0, n - 1, 0, n - 1), |i| {
                (i[0] * 100 + i[1]) as f64
            }),
        );
        env.insert("B", Array::zeros(Bounds::range2(0, n - 1, 0, n - 1)));
        let mut reference = env.clone();
        reference.exec_clause(&clause);
        let mut decs = BTreeMap::new();
        decs.insert("A".to_string(), grid(2, 2, n, n));
        decs.insert(
            "B".to_string(),
            DecompNd::new(vec![
                Decomp1::scatter(2, Bounds::range(0, n - 1)),
                Decomp1::block(2, Bounds::range(0, n - 1)),
            ]),
        );
        for mode in [CommMode::Element, CommMode::Vectorized] {
            let mut arrays: BTreeMap<String, DistArrayNd> = BTreeMap::new();
            for (name, d) in &decs {
                arrays.insert(
                    name.clone(),
                    DistArrayNd::scatter_from(env.get(name).unwrap(), d.clone()),
                );
            }
            let opts = DistOptions {
                recv_timeout: Duration::from_secs(5),
                faults: Some(
                    FaultPlan::seeded(42)
                        .with_drop(0.1)
                        .with_duplicate(0.1)
                        .with_reorder(0.1),
                ),
                mode,
                retry: RetryPolicy::fast(),
                ..DistOptions::default()
            };
            let report = run_distributed_nd(&clause, &mut arrays, opts, &NULL_TRACER)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(
                arrays["B"]
                    .gather()
                    .max_abs_diff(reference.get("B").unwrap()),
                0.0,
                "{mode:?}"
            );
            assert!(report.total().acks_sent > 0);
        }
    }

    #[test]
    fn nd_crash_fault_is_typed_error() {
        let n = 12i64;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("B", IndexMap::permutation(2, &[1, 0])),
            rhs: Expr::Ref(ArrayRef::new("A", IndexMap::identity(2))),
        };
        let mut arrays: BTreeMap<String, DistArrayNd> = BTreeMap::new();
        arrays.insert("A".to_string(), DistArrayNd::zeros(grid(2, 2, n, n)));
        arrays.insert("B".to_string(), DistArrayNd::zeros(grid(2, 2, n, n)));
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(500),
            faults: Some(FaultPlan::seeded(1).with_crash(3, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let err = run_distributed_nd(&clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
        assert_eq!(err, MachineError::NodePanicked { node: 3 });
    }

    #[test]
    fn mismatched_pmax_rejected() {
        let n = 8i64;
        let clause = Clause {
            iter: IndexSet::full(Bounds::range2(0, n - 1, 0, n - 1)),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::new("A", IndexMap::identity(2)),
            rhs: Expr::Ref(ArrayRef::new("B", IndexMap::identity(2))),
        };
        let mut arrays = BTreeMap::new();
        arrays.insert("A".to_string(), DistArrayNd::zeros(grid(2, 2, n, n)));
        arrays.insert("B".to_string(), DistArrayNd::zeros(grid(2, 3, n, n)));
        assert!(matches!(
            run_distributed_nd(
                &clause,
                &mut arrays,
                DistOptions {
                    recv_timeout: Duration::from_millis(100),
                    ..DistOptions::default()
                },
                &NULL_TRACER
            ),
            Err(MachineError::PlanMismatch(_))
        ));
    }
}
