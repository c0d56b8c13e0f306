//! The distributed-memory SPMD machine (paper Section 2.10).
//!
//! Each virtual processor is an OS thread owning private local memories
//! (the machine images `A'`, `B'` of Section 2.6), connected by
//! unbounded channels giving the paper's assumed semantics: non-blocking
//! `send`, blocking `receive`. Every node executes the template:
//!
//! ```text
//! p := my_node;
//! -- send phase: i ∈ Reside_p with proc_A(f(i)) ≠ p
//! send(proc_A(f(i)), B_L[local_B(g(i))]);
//! -- update phase: i ∈ Modify_p
//! tmp := if proc_B(g(i)) = p then B_L[local_B(g(i))] else receive(...);
//! A_L[local_A(f(i))] := Expr(tmp);
//! ```
//!
//! The iteration sets come from the plan's schedules (naive or
//! closed-form), so the machine measures exactly the run-time the paper's
//! compile-time optimizations buy. The node threads and the template's
//! phases live in the execution engine ([`crate::executor`]);
//! [`run_distributed`] is its cold entry point. This module holds the
//! wire format, the options, and the compiled update and receive paths
//! the engine runs.
//!
//! Two communication modes implement the template
//! ([`CommMode`], selected via [`DistOptions`]):
//!
//! * **Element** — the literal template: one tagged `(read-slot,
//!   loop-index)` message per remote element, destination resolved by an
//!   ownership test at run time, out-of-order arrivals absorbed by an
//!   ordered pending buffer.
//! * **Vectorized** (default) — the plan's communication schedule
//!   ([`vcal_spmd::NodeCommPlan`], derived at plan time from
//!   `Reside_p ∩ Modify_q`) drives the send phase directly: one vector
//!   message per coalesced run, packed in run order. The receiver stages
//!   each packet by its `(source, run)` tag — derived from the *same*
//!   plan, so no per-element matching happens — and the update phase
//!   reads values by plan-computed offsets.
//!
//! Both modes ship their messages through the reliable transport of
//! [`crate::transport`] (per-flow sequence numbers, checksums, duplicate
//! suppression, NACK/retransmit recovery with bounded retries), so runs
//! survive transient faults injected by a seeded [`FaultPlan`] and
//! degrade into typed [`MachineError`]s — never a hang — when a fault is
//! permanent. A panicking node thread is caught by the supervisor and
//! surfaced as [`MachineError::NodePanicked`]; local writes are
//! committed by the host only when *every* node succeeded, so a failed
//! run leaves the distributed arrays exactly as they were.
//!
//! Wire traffic is modeled in [`NodeStats`]: `msgs_sent`/`msgs_received`
//! always count payload *elements* (identical across modes), while
//! `packets_sent`/`bytes_sent`/`max_packet_elems` expose the batching
//! (an element message costs 24 modeled bytes — slot, index, value — and
//! a vector message 16 header bytes plus 8 per element). Reliability
//! traffic is counted separately (`retransmits`, `dups_dropped`,
//! `corrupt_detected`, `acks_sent`, `nacks_sent`).

use crate::darray::DistArray;
use crate::error::MachineError;
use crate::executor::{prepare_run, DistExecutor};
use crate::net::ChaosPlan;
use crate::obs::{EventKind, Tracer};
use crate::proc::ProcPool;
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{
    await_until, AwaitFail, Endpoint, FaultPlan, ProtoTimeouts, RetryPolicy, TransportKind,
    WirePayload,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use vcal_core::{BinOp, Clause, CmpOp, Expr, Guard};
use vcal_decomp::Decomp1;
use vcal_spmd::{
    simd, AccessPattern, CompiledKernel, CompiledNode, ExecRun, FusedShape, NodePlan, SimdPolicy,
    SlotAccess, SlotRef, SpmdPlan,
};

/// A tagged value message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Msg {
    /// Index into the node's reside/read slot list.
    pub(crate) slot: usize,
    /// Loop index the value belongs to.
    pub(crate) i: i64,
    /// The payload.
    pub(crate) value: f64,
}

/// Modeled wire cost of one element message (slot + index + value).
pub(crate) const ELEM_MSG_BYTES: u64 = 24;
/// Modeled header cost of one vector message (source + run tag).
pub(crate) const PACK_HEADER_BYTES: u64 = 16;

/// The machine-level payload of a wire packet.
#[derive(Debug, Clone)]
pub(crate) enum Wire {
    /// Element mode: one tagged value.
    Elem(Msg),
    /// Vectorized mode: all values of one planned run, packed in run
    /// order. `run_ord` indexes the sender's run list for this pair,
    /// which the plan guarantees is identical to the receiver's.
    Pack { run_ord: usize, values: Vec<f64> },
}

impl WirePayload for Wire {
    fn digest(&self) -> u64 {
        let mut h = 0u64;
        match self {
            Wire::Elem(m) => {
                h ^= 1;
                h = h
                    .rotate_left(7)
                    .wrapping_add(m.slot as u64)
                    .rotate_left(7)
                    .wrapping_add(m.i as u64)
                    .rotate_left(7)
                    .wrapping_add(m.value.to_bits());
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

/// How remote operands travel between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// One tagged message per element (the literal Section 2.10
    /// template; kept as the baseline and fallback).
    Element,
    /// One vector message per planned communication run.
    #[default]
    Vectorized,
}

/// Execution options for the distributed machine.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// How long a blocking receive waits, in total, before reporting a
    /// lost message (also caps the post-run drain that services late
    /// retransmit requests).
    pub recv_timeout: Duration,
    /// Optional seed-driven fault injection.
    pub faults: Option<FaultPlan>,
    /// How remote operands are shipped.
    pub mode: CommMode,
    /// NACK/retransmit recovery policy; [`RetryPolicy::none`] restores
    /// the legacy fail-on-first-timeout behavior.
    pub retry: RetryPolicy,
    /// Communication/computation overlap: execute *interior* compiled
    /// runs (all operands owner-local) while boundary packets are in
    /// flight, finishing *boundary* runs as receives land. `false`
    /// executes the compiled runs strictly in schedule visit order.
    /// Results and the deterministic trace class are identical either
    /// way; only applies when the plan compiled execution tables.
    pub overlap: bool,
    /// SIMD lane policy for fused interior runs (see
    /// `vcal_spmd::simd`). Lane parallelism never re-associates any
    /// per-element computation, so results are bitwise identical to the
    /// scalar path under every mode.
    pub simd: SimdPolicy,
    /// Which carrier moves frames between nodes. [`TransportKind::InProc`]
    /// (the default) runs nodes as threads over channels; `Uds`/`Tcp`
    /// run every node as a real OS process exchanging length-prefixed
    /// frames through a host-side router (DESIGN.md §15). Results,
    /// statistics, and the deterministic trace class are identical
    /// across backends.
    pub transport: TransportKind,
    /// Byte-level wire chaos (truncate/bitflip/stall/sever), injected by
    /// a proxy between the workers and the router. Only meaningful on
    /// the socket backends; ignored under `InProc`.
    pub chaos: Option<ChaosPlan>,
    /// Socket-backend protocol timeouts (heartbeat, spawn deadline, run
    /// grace, job resend). Per-run before; service-level now, so a
    /// resident `vcalc serve` can tighten failure detection without a
    /// recompile. Ignored under [`TransportKind::InProc`].
    pub timeouts: ProtoTimeouts,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            recv_timeout: Duration::from_secs(5),
            faults: None,
            mode: CommMode::default(),
            retry: RetryPolicy::default(),
            overlap: true,
            simd: SimdPolicy::default(),
            transport: TransportKind::default(),
            chaos: None,
            timeouts: ProtoTimeouts::default(),
        }
    }
}

/// Expression with read references resolved to slot indices (so the hot
/// loop never touches array names).
pub(crate) enum RExpr {
    Slot(usize),
    Lit(f64),
    LoopVar,
    Neg(Box<RExpr>),
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
}

pub(crate) fn resolve_expr(e: &Expr, node: &NodePlan) -> Result<RExpr, MachineError> {
    match e {
        Expr::Ref(r) => {
            let g = r.map.as_fn1().ok_or_else(|| {
                MachineError::PlanMismatch(format!(
                    "read ref `{}` is not 1-D but the plan is",
                    r.array
                ))
            })?;
            let slot = node
                .resides
                .iter()
                .position(|rp| rp.array == r.array && rp.g == *g)
                .ok_or_else(|| {
                    MachineError::PlanMismatch(format!(
                        "read ref `{}` missing from the plan's reside list",
                        r.array
                    ))
                })?;
            Ok(RExpr::Slot(slot))
        }
        Expr::Lit(v) => Ok(RExpr::Lit(*v)),
        Expr::LoopVar { dim } => {
            if *dim != 0 {
                return Err(MachineError::PlanMismatch(format!(
                    "loop variable of dimension {dim} in a 1-D plan"
                )));
            }
            Ok(RExpr::LoopVar)
        }
        Expr::Neg(inner) => Ok(RExpr::Neg(Box::new(resolve_expr(inner, node)?))),
        Expr::Bin(op, a, b) => Ok(RExpr::Bin(
            *op,
            Box::new(resolve_expr(a, node)?),
            Box::new(resolve_expr(b, node)?),
        )),
    }
}

pub(crate) fn eval_rexpr(e: &RExpr, i: i64, vals: &[f64]) -> f64 {
    match e {
        RExpr::Slot(s) => vals[*s],
        RExpr::Lit(v) => *v,
        RExpr::LoopVar => i as f64,
        RExpr::Neg(inner) => -eval_rexpr(inner, i, vals),
        RExpr::Bin(op, a, b) => op.apply(eval_rexpr(a, i, vals), eval_rexpr(b, i, vals)),
    }
}

pub(crate) enum RGuard {
    Always,
    Cmp { slot: usize, op: CmpOp, rhs: f64 },
}

pub(crate) fn resolve_guard(g: &Guard, node: &NodePlan) -> Result<RGuard, MachineError> {
    match g {
        Guard::Always => Ok(RGuard::Always),
        Guard::Cmp { lhs, op, rhs } => {
            let gf = lhs.map.as_fn1().ok_or_else(|| {
                MachineError::PlanMismatch(format!(
                    "guard ref `{}` is not 1-D but the plan is",
                    lhs.array
                ))
            })?;
            let slot = node
                .resides
                .iter()
                .position(|rp| rp.array == lhs.array && rp.g == *gf)
                .ok_or_else(|| {
                    MachineError::PlanMismatch(format!(
                        "guard ref `{}` missing from the plan's reside list",
                        lhs.array
                    ))
                })?;
            Ok(RGuard::Cmp {
                slot,
                op: *op,
                rhs: *rhs,
            })
        }
    }
}

/// One collected local write of a node: committed by the host, in
/// collection order, only when the whole run succeeded. The dense form
/// is the pure-copy fused kernel's `copy_from_slice` degradation — a
/// unit-stride run commits as one slice copy instead of per-element
/// stores.
#[derive(Debug, Clone)]
pub(crate) enum WriteOp {
    /// One element: `lhs_local[offset] = value`.
    El(usize, f64),
    /// A contiguous span:
    /// `lhs_local[base..base+values.len()].copy_from_slice(values)`.
    Dense {
        /// First local offset of the span.
        base: usize,
        /// The values, in offset order.
        values: Vec<f64>,
    },
}

/// A zero part of the right local size — the doacross machine's
/// placeholder when a node thread died without returning its memories. A negative
/// local count means the decomposition does not cover node `p` at all:
/// that is a plan/decomposition mismatch and is reported as a typed
/// error instead of being silently clamped to an empty part.
pub(crate) fn zero_part(dec: &Decomp1, p: i64) -> Result<Vec<f64>, MachineError> {
    let count = dec.local_count(p);
    if count < 0 {
        return Err(MachineError::PlanMismatch(format!(
            "decomposition reports negative local count {count} for node {p}"
        )));
    }
    Ok(vec![0.0; count as usize])
}

/// Remove every referenced image from `arrays` and split it into
/// per-node local memories. Two-phase: a missing array restores the
/// already-removed images and reports a typed error, so the map is
/// never left partially disassembled.
pub(crate) fn disassemble(
    arrays: &mut BTreeMap<String, DistArray>,
    referenced: &[(&str, &Decomp1)],
    pmax: i64,
) -> Result<Vec<BTreeMap<String, Vec<f64>>>, MachineError> {
    let mut taken: Vec<(String, DistArray)> = Vec::with_capacity(referenced.len());
    for &(name, _) in referenced {
        match arrays.remove_entry(name) {
            Some(entry) => taken.push(entry),
            None => {
                for (n, da) in taken {
                    arrays.insert(n, da);
                }
                return Err(MachineError::UnknownArray(name.to_string()));
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
    Ok(per_node)
}

/// Execute a `//` clause on the distributed-memory machine.
///
/// `arrays` maps every referenced array to its distributed image; the
/// decompositions of those images must be the ones the plan was built
/// with. On success the images are updated in place; on *any* error the
/// images are restored to their pre-run state (writes are committed by
/// the host only after every node succeeded).
///
/// Dispatch decisions, phase spans, per-element/packet traffic, and
/// transport reliability events are reported to `tracer` (see
/// [`crate::obs`]); with [`crate::obs::NULL_TRACER`] the instrumented
/// paths cost one cached branch each.
///
/// A cold run is the persistent engine with a throwaway pool: the plan
/// is prepared ([`crate::prepare_run`]) against the arrays' current
/// decompositions and executed as a 1-job wave on a fresh
/// [`crate::DistExecutor`] (or, for the socket backends, a fresh pool of
/// worker processes), which is torn down on return.
pub fn run_distributed(
    plan: &SpmdPlan,
    clause: &Clause,
    arrays: &mut BTreeMap<String, DistArray>,
    opts: DistOptions,
    tracer: &dyn Tracer,
) -> Result<ExecReport, MachineError> {
    let decomps: BTreeMap<String, Decomp1> = arrays
        .iter()
        .map(|(name, da)| (name.clone(), da.decomp().clone()))
        .collect();
    let prepared = Arc::new(prepare_run(plan.clone(), clause, &decomps)?);
    let reports = if opts.transport == TransportKind::InProc {
        DistExecutor::new(plan.pmax).run(std::slice::from_ref(&prepared), arrays, opts, tracer)?
    } else {
        let pmax = plan.pmax.max(0) as usize;
        ProcPool::new(opts.transport, pmax, opts.chaos, opts.timeouts)?
            .run(&prepared, arrays, opts, tracer)?
    };
    reports
        .into_iter()
        .next()
        .ok_or_else(|| MachineError::PlanMismatch("a 1-job wave produced no report".into()))
}

/// Element-mode send phase over the plan's pair runs: the wire multiset
/// is identical to the literal template's reside scan (`Send_{p→q} =
/// Reside_p ∩ Modify_q`), but the destination is the pair's peer — the
/// per-element `proc_of(f(i))` owner recomputation is gone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_phase_element_compiled(
    p: i64,
    locals: &BTreeMap<String, Vec<f64>>,
    node: &NodePlan,
    cn: &CompiledNode,
    decomps: &BTreeMap<String, Decomp1>,
    ep: &mut Endpoint<Wire>,
    stats: &mut NodeStats,
    sent_to: &mut [u64],
    tracer: &dyn Tracer,
) {
    let trace_on = tracer.enabled();
    // the reside scans' loop-overhead accounting, unchanged from the
    // literal template (the scan itself is what the pair runs replace)
    for (slot, rp) in node.resides.iter().enumerate() {
        if !rp.replicated {
            stats.guard_tests += cn.reside_work.get(slot).copied().unwrap_or(0);
        }
    }
    for pair in &node.comm.sends {
        let owner = pair.peer; // hoisted: constant across the pair's runs
        for run in &pair.runs {
            let Some(rp) = node.resides.get(run.slot) else {
                continue;
            };
            let slot = run.slot;
            let (Some(dec_r), Some(local_part)) = (decomps.get(&rp.array), locals.get(&rp.array))
            else {
                continue;
            };
            run.for_each(|i| {
                let value = local_part[dec_r.local_of(rp.g.eval(i)) as usize];
                ep.send(owner as usize, Wire::Elem(Msg { slot, i, value }));
                if trace_on {
                    tracer.record(
                        p,
                        EventKind::ElemSend {
                            dst: owner,
                            slot,
                            i,
                        },
                    );
                }
                sent_to[owner as usize] += 1;
                stats.msgs_sent += 1;
                stats.packets_sent += 1;
                stats.bytes_sent += ELEM_MSG_BYTES;
                stats.max_packet_elems = stats.max_packet_elems.max(1);
            });
        }
    }
}

/// The compiled update phase: execute the node's [`ExecRun`] tables with
/// the compiled kernel. With `opts.overlap` every *interior* run (all
/// operands owner-local by the Table I dispatch) executes before any
/// *boundary* run touches the transport, so compute proceeds while
/// packets are in flight; without it, runs execute in schedule visit
/// order. Writes are staged per run and flattened back into visit order
/// before returning, so the commit order — and therefore the result,
/// even for non-injective `f` — is identical either way.
/// The buffers come from the caller so the worker can reuse its
/// scratch allocations across runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_update_phase(
    p: i64,
    locals: &BTreeMap<String, Vec<f64>>,
    node: &NodePlan,
    cn: &CompiledNode,
    kernel: &CompiledKernel,
    rguard: &RGuard,
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    vals: &mut [f64],
    stack: &mut Vec<f64>,
    opts: &DistOptions,
    stats: &mut NodeStats,
    writes: &mut Vec<WriteOp>,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let mut parts: Vec<&[f64]> = Vec::with_capacity(node.resides.len());
    for rp in &node.resides {
        parts.push(
            locals
                .get(&rp.array)
                .map(Vec::as_slice)
                .ok_or_else(|| MachineError::UnknownArray(rp.array.clone()))?,
        );
    }
    // baseline for the per-phase SIMD census event (the executor's warm
    // path may hand us stats that already carry earlier counts)
    let simd0 = (
        stats.simd_runs,
        stats.simd_fallback_runs,
        stats.simd_lane_elems,
        stats.simd_tail_elems,
    );
    let mut chunks: Vec<Vec<WriteOp>> = vec![Vec::new(); cn.exec.len()];
    if opts.overlap {
        // interior first — boundary runs block on receives, interior
        // runs never do
        for boundary_pass in [false, true] {
            for (k, er) in cn.exec.iter().enumerate() {
                if er.boundary != boundary_pass {
                    continue;
                }
                exec_one_run(
                    p,
                    k,
                    er,
                    &parts,
                    node,
                    cn,
                    kernel,
                    rguard,
                    ep,
                    rcv,
                    vals,
                    stack,
                    opts,
                    stats,
                    &mut chunks[k],
                    tracer,
                )?;
            }
        }
    } else {
        for (k, er) in cn.exec.iter().enumerate() {
            exec_one_run(
                p,
                k,
                er,
                &parts,
                node,
                cn,
                kernel,
                rguard,
                ep,
                rcv,
                vals,
                stack,
                opts,
                stats,
                &mut chunks[k],
                tracer,
            )?;
        }
    }
    // flatten in visit order: commit order is overlap-independent
    writes.reserve(chunks.iter().map(Vec::len).sum());
    for c in &mut chunks {
        writes.append(c);
    }
    if tracer.enabled() {
        tracer.record(
            p,
            EventKind::SimdCensus {
                vector_runs: stats.simd_runs - simd0.0,
                fallback_runs: stats.simd_fallback_runs - simd0.1,
                lane_elems: stats.simd_lane_elems - simd0.2,
                tail_elems: stats.simd_tail_elems - simd0.3,
            },
        );
    }
    Ok(())
}

#[inline]
fn read_local(part: &[f64], off: i64, p: i64, array: &str) -> Result<f64, MachineError> {
    usize::try_from(off)
        .ok()
        .and_then(|o| part.get(o))
        .copied()
        .ok_or_else(|| {
            MachineError::PlanMismatch(format!(
                "node {p}: local offset {off} outside `{array}` part (len {})",
                part.len()
            ))
        })
}

#[inline]
fn write_off(off: i64, p: i64) -> Result<usize, MachineError> {
    usize::try_from(off)
        .map_err(|_| MachineError::PlanMismatch(format!("node {p}: negative write offset {off}")))
}

fn fused_local_pattern(er: &ExecRun, slot: usize, p: i64) -> Result<&AccessPattern, MachineError> {
    match er.slots.get(slot) {
        Some(SlotAccess::Local(pat)) => Ok(pat),
        _ => Err(MachineError::PlanMismatch(format!(
            "node {p}: fused kernel slot {slot} is not owner-local in an interior run"
        ))),
    }
}

pub(crate) fn map_recv_fail(f: RecvFail, p: i64, array: &str, i: i64, slot: usize) -> MachineError {
    match f {
        RecvFail::Timeout => MachineError::MissingMessage {
            node: p,
            array: array.to_string(),
            index: i,
        },
        RecvFail::PacketTimeout { peer, run } => MachineError::MissingPacket {
            node: p,
            peer,
            slot,
            run,
        },
        RecvFail::Exhausted { peer, retries } => MachineError::Unrecoverable {
            node: p,
            peer,
            retries,
        },
        RecvFail::BadWire(why) => {
            MachineError::PlanMismatch(format!("node {p}, array `{array}`, i={i}: {why}"))
        }
    }
}

/// Execute one compiled run: fused fast path for interior runs of
/// recognized shapes, generic gather + bytecode everywhere else.
#[allow(clippy::too_many_arguments)]
fn exec_one_run(
    p: i64,
    k: usize,
    er: &ExecRun,
    parts: &[&[f64]],
    node: &NodePlan,
    cn: &CompiledNode,
    kernel: &CompiledKernel,
    rguard: &RGuard,
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    vals: &mut [f64],
    stack: &mut Vec<f64>,
    opts: &DistOptions,
    stats: &mut NodeStats,
    out: &mut Vec<WriteOp>,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let trace_on = tracer.enabled();
    let n = er.run.len() as usize;
    let n_slots = node.resides.len();
    // fused paths need every operand owner-local and an always-true
    // guard; the stats they charge are exactly what the per-element
    // template would have charged (one gather per slot per iteration)
    let fused = (!er.boundary && matches!(rguard, RGuard::Always) && n > 0)
        .then_some(&kernel.fused)
        .filter(|f| !matches!(f, FusedShape::Generic));
    // SIMD lane tier: the plan-time predicate (unit-stride writes, all
    // read slots local unit-stride) plus the runtime guard/policy. The
    // lane kernels perform the exact per-element operation sequence of
    // the scalar arms below, so results are bitwise identical; only the
    // WriteOp batching differs (one Dense run instead of n Els), which
    // `finalize_run` commits identically.
    let simd_ok =
        opts.simd.enabled() && matches!(rguard, RGuard::Always) && er.simd_eligible(&kernel.fused);
    let mut vectorized = false;
    match fused {
        Some(FusedShape::Copy { slot }) => {
            stats.iterations += n as u64;
            stats.data_guards += n as u64;
            stats.local_reads += (n * n_slots) as u64;
            let pat = fused_local_pattern(er, *slot, p)?;
            let src = parts.get(*slot).copied().unwrap_or(&[]);
            match (&er.lhs, pat) {
                // both runs unit-stride: degrade to one slice copy
                (
                    AccessPattern::Affine { base: lb, step: 1 },
                    AccessPattern::Affine { base: sb, step: 1 },
                ) => {
                    let sb_us =
                        write_off(*sb, p).map_err(|_| read_oob(p, &node.resides[*slot].array))?;
                    let seg = src
                        .get(sb_us..sb_us + n)
                        .ok_or_else(|| read_oob(p, &node.resides[*slot].array))?;
                    let mut values = vec![0.0f64; n];
                    values.copy_from_slice(seg);
                    out.push(WriteOp::Dense {
                        base: write_off(*lb, p)?,
                        values,
                    });
                    // the slice copy predates the lane tier; the census
                    // claims it only when the policy is on
                    vectorized = simd_ok;
                }
                _ => {
                    for t in 0..n {
                        let v = read_local(src, pat.offset(t), p, &node.resides[*slot].array)?;
                        out.push(WriteOp::El(write_off(er.lhs.offset(t), p)?, v));
                    }
                }
            }
        }
        Some(FusedShape::Axpy { a, slot, b }) => {
            stats.iterations += n as u64;
            stats.data_guards += n as u64;
            stats.local_reads += (n * n_slots) as u64;
            let pat = fused_local_pattern(er, *slot, p)?;
            let src = parts.get(*slot).copied().unwrap_or(&[]);
            if simd_ok {
                let seg = fused_seg(src, pat, n)
                    .ok_or_else(|| read_oob(p, &node.resides[*slot].array))?;
                let mut values = vec![0.0f64; n];
                simd::axpy(opts.simd, *a, *b, seg, &mut values);
                out.push(WriteOp::Dense {
                    base: write_off(er.lhs.offset(0), p)?,
                    values,
                });
                vectorized = true;
            } else {
                for t in 0..n {
                    let mut v = read_local(src, pat.offset(t), p, &node.resides[*slot].array)?;
                    if let Some(a) = a {
                        v *= *a;
                    }
                    if let Some(b) = b {
                        v += *b;
                    }
                    out.push(WriteOp::El(write_off(er.lhs.offset(t), p)?, v));
                }
            }
        }
        Some(FusedShape::Stencil {
            slots,
            left_assoc,
            scale,
            offset,
        }) => {
            stats.iterations += n as u64;
            stats.data_guards += n as u64;
            stats.local_reads += (n * n_slots) as u64;
            let mut pats = Vec::with_capacity(slots.len());
            for s in slots {
                pats.push((
                    fused_local_pattern(er, *s, p)?,
                    parts.get(*s).copied().unwrap_or(&[][..]),
                    *s,
                ));
            }
            let segs = if simd_ok {
                pats.iter()
                    .map(|(pat, src, s)| {
                        fused_seg(src, pat, n).ok_or_else(|| read_oob(p, &node.resides[*s].array))
                    })
                    .collect::<Result<Vec<&[f64]>, _>>()?
            } else {
                Vec::new()
            };
            match segs.as_slice() {
                [s0, s1] => {
                    let mut values = vec![0.0f64; n];
                    simd::stencil2(opts.simd, *scale, *offset, s0, s1, &mut values);
                    out.push(WriteOp::Dense {
                        base: write_off(er.lhs.offset(0), p)?,
                        values,
                    });
                    vectorized = true;
                }
                [s0, s1, s2] => {
                    let mut values = vec![0.0f64; n];
                    simd::stencil3(
                        opts.simd,
                        *left_assoc,
                        *scale,
                        *offset,
                        s0,
                        s1,
                        s2,
                        &mut values,
                    );
                    out.push(WriteOp::Dense {
                        base: write_off(er.lhs.offset(0), p)?,
                        values,
                    });
                    vectorized = true;
                }
                _ => {
                    for t in 0..n {
                        let read = |j: usize| -> Result<f64, MachineError> {
                            let (pat, src, s) = &pats[j];
                            read_local(src, pat.offset(t), p, &node.resides[*s].array)
                        };
                        let x0 = read(0)?;
                        let x1 = read(1)?;
                        let mut v = if slots.len() == 3 {
                            let x2 = read(2)?;
                            if *left_assoc {
                                (x0 + x1) + x2
                            } else {
                                x0 + (x1 + x2)
                            }
                        } else {
                            x0 + x1
                        };
                        if let Some(s) = scale {
                            v *= *s;
                        }
                        if let Some(b) = offset {
                            v += *b;
                        }
                        out.push(WriteOp::El(write_off(er.lhs.offset(t), p)?, v));
                    }
                }
            }
        }
        Some(FusedShape::Generic) | None => {
            // generic: gather every slot (local by precomputed offset,
            // remote through the transport), then run the bytecode
            let mut i = er.run.start;
            for t in 0..n {
                stats.iterations += 1;
                for slot in 0..n_slots {
                    let rp = &node.resides[slot];
                    let v = match &er.slots[slot] {
                        SlotAccess::Local(pat) => {
                            stats.local_reads += 1;
                            read_local(parts[slot], pat.offset(t), p, &rp.array)?
                        }
                        SlotAccess::Mixed(refs) => {
                            match refs.get(t).copied().unwrap_or(SlotRef::Local(0)) {
                                SlotRef::Local(off) => {
                                    stats.local_reads += 1;
                                    read_local(parts[slot], off, p, &rp.array)?
                                }
                                SlotRef::Remote(owner) => {
                                    let res = match opts.mode {
                                        CommMode::Element => {
                                            recv_element(ep, rcv, slot, i, owner, opts, stats)
                                        }
                                        CommMode::Vectorized => recv_packed(
                                            ep,
                                            rcv,
                                            &cn.src_peers,
                                            &cn.origin,
                                            slot,
                                            i,
                                            opts,
                                            stats,
                                        ),
                                    };
                                    match res {
                                        Ok(v) => {
                                            if trace_on {
                                                tracer.record(
                                                    p,
                                                    EventKind::RecvValue {
                                                        src: owner,
                                                        slot,
                                                        i,
                                                    },
                                                );
                                            }
                                            stats.msgs_received += 1;
                                            v
                                        }
                                        Err(f) => {
                                            return Err(map_recv_fail(f, p, &rp.array, i, slot))
                                        }
                                    }
                                }
                            }
                        }
                    };
                    vals[slot] = v;
                }
                stats.data_guards += 1;
                let guard_ok = match rguard {
                    RGuard::Always => true,
                    RGuard::Cmp { slot, op, rhs } => {
                        op.holds(vals.get(*slot).copied().unwrap_or(0.0), *rhs)
                    }
                };
                if guard_ok {
                    let v = kernel.eval(&[i], vals, stack);
                    out.push(WriteOp::El(write_off(er.lhs.offset(t), p)?, v));
                }
                i += er.run.step;
            }
        }
    }
    // SIMD census: every executed run is either vectorized or fallback,
    // and vectorized elements split into full lanes plus a scalar tail.
    if vectorized {
        let lanes = opts.simd.census_lanes() as u64;
        stats.simd_runs += 1;
        stats.simd_lane_elems += n as u64 / lanes * lanes;
        stats.simd_tail_elems += n as u64 % lanes;
        stats.simd_lanes = stats.simd_lanes.max(lanes);
    } else {
        stats.simd_fallback_runs += 1;
    }
    if trace_on {
        tracer.record(
            p,
            if er.boundary {
                EventKind::BoundaryRun {
                    run: k,
                    elems: n as u64,
                    recvs: er.remote_elems,
                }
            } else {
                EventKind::InteriorRun {
                    run: k,
                    elems: n as u64,
                }
            },
        );
    }
    Ok(())
}

/// The owner-local slice a unit-stride fused run reads: `src[base..base+n]`.
/// `None` exactly when any per-element `read_local` of the scalar path
/// would have failed (the range check subsumes every element check).
fn fused_seg<'a>(src: &'a [f64], pat: &AccessPattern, n: usize) -> Option<&'a [f64]> {
    let base = usize::try_from(pat.offset(0)).ok()?;
    src.get(base..base + n)
}

fn read_oob(p: i64, array: &str) -> MachineError {
    MachineError::PlanMismatch(format!(
        "node {p}: compiled fused run reads outside `{array}` part"
    ))
}

/// Why a remote value could not be produced.
pub(crate) enum RecvFail {
    /// The wire message never arrived within the timeout (recovery
    /// disabled) — element mode.
    Timeout,
    /// The planned packet never arrived within the timeout (recovery
    /// disabled) — vectorized mode, identified by the wire protocol's
    /// own coordinates.
    PacketTimeout { peer: i64, run: usize },
    /// The NACK/retransmit budget was exhausted.
    Exhausted { peer: i64, retries: u32 },
    /// The wire carried something the mode/plan does not account for.
    BadWire(&'static str),
}

/// One wave job's private receive buffers. Lanes are strictly per job:
/// two jobs may await the same `(slot, i)` key from the same owner, so
/// a shared map would overwrite one job's value and starve the other.
#[derive(Default)]
pub(crate) struct JobLane {
    /// source processor id → ordinal in this job's recv pair list
    /// (`usize::MAX` when the source owes this job nothing).
    pub src_ord: Vec<usize>,
    /// element-mode arrivals keyed `(slot, i)`.
    pub pending: BTreeMap<(usize, i64), f64>,
    /// vectorized-mode packet staging, `[source ordinal][run]`.
    pub staging: Vec<Vec<Option<Vec<f64>>>>,
}

/// The receive router of one node for one wave. A wave is ONE transport
/// run: every job's frames share the per-source sequence space
/// back-to-back, and frames may surface out of order (reorder faults),
/// so arrival counting is unsound. Senders assign dense per-flow seqnos
/// in job-ordinal send order, which makes plan-derived cumulative frame
/// counts an exact demultiplexer: the frame with sequence number `s`
/// from source `src` belongs to the unique job `j` with `cuts[src][j] <=
/// s < cuts[src][j+1]`, regardless of delivery order.
#[derive(Default)]
pub(crate) struct WaveRecv {
    /// ordinal of the job currently executing on this node.
    pub cur: usize,
    /// per-job receive buffers; kept across waves, so entries past the
    /// current wave's job count are idle spares.
    pub lanes: Vec<JobLane>,
    /// `cuts[src][j]` = total data frames `src` sends this node across
    /// jobs `0..j` (length `jobs + 1`, `cuts[src][0] == 0`).
    pub cuts: Vec<Vec<u64>>,
}

impl WaveRecv {
    /// The job owning sequence number `seq` of flow `src → self`.
    fn lane_of(&self, src: i64, seq: u64) -> Result<usize, &'static str> {
        let col = self
            .cuts
            .get(usize::try_from(src).map_err(|_| "frame from unknown source")?)
            .ok_or("frame from unknown source")?;
        let j = col.partition_point(|&c| c <= seq);
        if j == 0 || j >= col.len() {
            return Err("data frame outside the wave's planned windows");
        }
        Ok(j - 1)
    }

    /// Stage one element-mode arrival into its owning job's lane.
    fn stage_elem(&mut self, src: i64, seq: u64, m: Msg) -> Result<(), &'static str> {
        let lane = self.lane_of(src, seq)?;
        self.lanes[lane].pending.insert((m.slot, m.i), m.value);
        Ok(())
    }

    /// Stage one packet into its owning job's staging row, routed with
    /// that job's own source table (jobs generally disagree about source
    /// ordinals).
    fn stage_pack(
        &mut self,
        src: i64,
        seq: u64,
        run_ord: usize,
        values: Vec<f64>,
    ) -> Result<(), &'static str> {
        let lane = self.lane_of(src, seq)?;
        let l = &mut self.lanes[lane];
        let ord = l
            .src_ord
            .get(usize::try_from(src).map_err(|_| "packet from unplanned source")?)
            .copied()
            .filter(|&o| o != usize::MAX)
            .ok_or("packet from unplanned source")?;
        let row = l
            .staging
            .get_mut(ord)
            .ok_or("packet from unplanned source")?;
        let cell = row.get_mut(run_ord).ok_or("packet run tag out of range")?;
        if cell.is_none() {
            // first arrival wins; retransmitted duplicates carry
            // identical payloads
            *cell = Some(values);
        }
        Ok(())
    }
}

/// Element-mode blocking receive: stage tagged arrivals in their job's
/// lane until `(slot, i)` from `owner` is available to the current job.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recv_element(
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    slot: usize,
    i: i64,
    owner: i64,
    opts: &DistOptions,
    stats: &mut NodeStats,
) -> Result<f64, RecvFail> {
    await_until(
        ep,
        owner,
        opts.recv_timeout,
        opts.retry,
        stats,
        rcv,
        |rcv| rcv.lanes[rcv.cur].pending.remove(&(slot, i)).map(Ok),
        |rcv, src, seq, wire| match wire {
            Wire::Elem(m) => rcv.stage_elem(src, seq, m),
            Wire::Pack { .. } => Err("vector packet in element mode"),
        },
    )
    .map_err(|e| match e {
        AwaitFail::Timeout => RecvFail::Timeout,
        AwaitFail::Exhausted { retries } => RecvFail::Exhausted {
            peer: owner,
            retries,
        },
        AwaitFail::BadWire(w) => RecvFail::BadWire(w),
    })
}

/// Vectorized-mode blocking receive: stage whole packets by
/// `(source, run)` in their job's lane and resolve `(slot, i)` through
/// the plan-computed `origin` addressing of the compiled schedule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recv_packed(
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    peers: &[i64],
    origin: &BTreeMap<(usize, i64), (usize, usize, usize)>,
    slot: usize,
    i: i64,
    opts: &DistOptions,
    stats: &mut NodeStats,
) -> Result<f64, RecvFail> {
    let &(so, ro, off) = origin
        .get(&(slot, i))
        .ok_or(RecvFail::BadWire("no planned packet covers this element"))?;
    let peer = peers
        .get(so)
        .copied()
        .ok_or(RecvFail::BadWire("source ordinal out of range"))?;
    await_until(
        ep,
        peer,
        opts.recv_timeout,
        opts.retry,
        stats,
        rcv,
        |rcv| {
            rcv.lanes[rcv.cur]
                .staging
                .get(so)
                .and_then(|row| row.get(ro))
                .and_then(Option::as_ref)
                .map(|vals| {
                    vals.get(off)
                        .copied()
                        .ok_or("packet shorter than its planned run")
                })
        },
        |rcv, src, seq, wire| match wire {
            Wire::Pack { run_ord, values } => rcv.stage_pack(src, seq, run_ord, values),
            Wire::Elem(_) => Err("element message in vectorized mode"),
        },
    )
    .map_err(|e| match e {
        AwaitFail::Timeout => RecvFail::PacketTimeout { peer, run: ro },
        AwaitFail::Exhausted { retries } => RecvFail::Exhausted { peer, retries },
        AwaitFail::BadWire(w) => RecvFail::BadWire(w),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NULL_TRACER;
    use std::time::Instant;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, Env, IndexSet, Ordering};
    use vcal_spmd::DecompMap;

    fn copy_setup(
        n: i64,
        f: Fn1,
        g: Fn1,
        dec_a: Decomp1,
        dec_b: Decomp1,
        imin: i64,
        imax: i64,
    ) -> (Clause, Env, DecompMap) {
        let clause = Clause {
            iter: IndexSet::range(imin, imax),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", f),
            rhs: Expr::add(Expr::Ref(ArrayRef::d1("B", g)), Expr::Lit(0.5)),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(dec_a.extent()));
        env.insert(
            "B",
            Array::from_fn(dec_b.extent(), |i| (i.scalar() * 3) as f64),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), dec_a);
        dm.insert("B".into(), dec_b);
        let _ = n;
        (clause, env, dm)
    }

    fn scatter_arrays(env0: &Env, dm: &DecompMap) -> BTreeMap<String, DistArray> {
        let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
        for name in ["A", "B"] {
            arrays.insert(
                name.into(),
                DistArray::scatter_from(env0.get(name).unwrap(), dm[name].clone()),
            );
        }
        arrays
    }

    fn run_and_compare(clause: &Clause, env0: &Env, dm: &DecompMap, naive: bool) -> ExecReport {
        let mut expect = env0.clone();
        expect.exec_clause(clause);

        let plan = if naive {
            SpmdPlan::build_naive(clause, dm).unwrap()
        } else {
            SpmdPlan::build(clause, dm).unwrap()
        };
        let mut arrays = scatter_arrays(env0, dm);
        let report = run_distributed(
            &plan,
            clause,
            &mut arrays,
            DistOptions::default(),
            &NULL_TRACER,
        )
        .unwrap();
        let got = arrays["A"].gather();
        assert_eq!(
            got.max_abs_diff(expect.get("A").unwrap()),
            0.0,
            "distributed result differs (naive={naive})"
        );
        report
    }

    #[test]
    fn block_to_scatter_copy() {
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let report = run_and_compare(&clause, &env, &dm, false);
        // comm matches the analytic count: 48 remote of 64
        assert_eq!(report.total().msgs_sent, 48);
        assert_eq!(report.total().msgs_received, 48);
        run_and_compare(&clause, &env, &dm, true);
    }

    #[test]
    fn stencil_block_block() {
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::shift(-1),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            1,
            n - 1,
        );
        let report = run_and_compare(&clause, &env, &dm, false);
        assert_eq!(report.total().msgs_sent, 3); // one halo value per boundary
    }

    #[test]
    fn strided_access_under_scatter() {
        let n = 128;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::affine(2, 1),
            Fn1::affine(3, 0),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            Decomp1::block_scatter(4, 4, Bounds::range(0, 3 * n)),
            0,
            n / 2 - 1,
        );
        run_and_compare(&clause, &env, &dm, false);
        run_and_compare(&clause, &env, &dm, true);
    }

    #[test]
    fn rotate_view_piecewise() {
        let n = 20;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::rotate(6, 20),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        run_and_compare(&clause, &env, &dm, false);
    }

    #[test]
    fn replicated_read_no_messages() {
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::replicated(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let report = run_and_compare(&clause, &env, &dm, false);
        assert_eq!(report.total().msgs_sent, 0);
    }

    #[test]
    fn guarded_clause_still_consumes_messages() {
        // guard reads C (scatter) while A is block: values must flow even
        // for iterations whose guard fails, or the pairing deadlocks.
        let n = 32;
        let clause = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Cmp {
                lhs: ArrayRef::d1("C", Fn1::identity()),
                op: CmpOp::Gt,
                rhs: 0.0,
            },
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        };
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range(0, n - 1)));
        env.insert(
            "B",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        env.insert(
            "C",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            }),
        );
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("B".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("C".into(), Decomp1::scatter(4, Bounds::range(0, n - 1)));

        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays: BTreeMap<String, DistArray> = BTreeMap::new();
        for name in ["A", "B", "C"] {
            arrays.insert(
                name.into(),
                DistArray::scatter_from(env.get(name).unwrap(), dm[name].clone()),
            );
        }
        run_distributed(
            &plan,
            &clause,
            &mut arrays,
            DistOptions::default(),
            &NULL_TRACER,
        )
        .unwrap();
        assert_eq!(
            arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
    }

    #[test]
    fn vectorized_aggregates_packets() {
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut totals = Vec::new();
        for mode in [CommMode::Element, CommMode::Vectorized] {
            let mut arrays = scatter_arrays(&env, &dm);
            let opts = DistOptions {
                mode,
                ..DistOptions::default()
            };
            let report = run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap();
            totals.push(report.total());
        }
        let (elem, vect) = (totals[0], totals[1]);
        // element totals are identical across modes
        assert_eq!(elem.msgs_sent, vect.msgs_sent);
        assert_eq!(elem.msgs_received, vect.msgs_received);
        // element mode: one wire message per element
        assert_eq!(elem.packets_sent, elem.msgs_sent);
        assert_eq!(elem.max_packet_elems, 1);
        // vectorized mode: strictly fewer, larger messages
        assert!(vect.packets_sent < vect.msgs_sent);
        assert!(vect.max_packet_elems > 1);
        assert!(vect.bytes_sent < elem.bytes_sent);
    }

    #[test]
    fn element_mode_still_exact() {
        let n = 128;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::affine(2, 1),
            Fn1::affine(3, 0),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            Decomp1::block_scatter(4, 4, Bounds::range(0, 3 * n)),
            0,
            n / 2 - 1,
        );
        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            mode: CommMode::Element,
            ..DistOptions::default()
        };
        run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap();
        assert_eq!(
            arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
    }

    #[test]
    fn dropped_message_recovered_by_retransmit() {
        // the legacy fatal fault is now transient: the receiver NACKs,
        // the sender retransmits, and the run completes bit-for-bit
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(2),
            faults: Some(FaultPlan::drop_nth(1, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let report = run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap();
        assert_eq!(
            arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
            0.0
        );
        let t = report.total();
        assert!(t.retransmits > 0, "recovery must retransmit: {t:?}");
        assert!(t.nacks_sent > 0);
        assert!(t.acks_sent > 0);
    }

    #[test]
    fn dropped_message_detected_without_retries() {
        // with recovery disabled the legacy typed error comes back
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(200),
            faults: Some(FaultPlan::drop_nth(1, 0)),
            mode: CommMode::Element,
            retry: RetryPolicy::none(),
            ..DistOptions::default()
        };
        let err = run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
        assert!(matches!(err, MachineError::MissingMessage { .. }), "{err}");
    }

    #[test]
    fn dropped_packet_reports_wire_coordinates() {
        // vectorized mode + no retries: the error names (peer, slot, run)
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(200),
            faults: Some(FaultPlan::drop_nth(1, 0)),
            mode: CommMode::Vectorized,
            retry: RetryPolicy::none(),
            ..DistOptions::default()
        };
        let err = run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
        match err {
            MachineError::MissingPacket { peer, .. } => assert_eq!(peer, 1),
            e => panic!("expected MissingPacket, got {e}"),
        }
    }

    #[test]
    fn crashed_node_reported_not_aborted() {
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let before = arrays["A"].gather();
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(500),
            faults: Some(FaultPlan::seeded(7).with_crash(2, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let t0 = Instant::now();
        let err = run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
        assert_eq!(err, MachineError::NodePanicked { node: 2 }, "{err}");
        // bounded detection, no hang
        assert!(t0.elapsed() < Duration::from_secs(10));
        // transactional: the failed run left the array untouched
        assert_eq!(arrays["A"].gather().max_abs_diff(&before), 0.0);
    }

    #[test]
    fn persistent_drop_exhausts_budget() {
        // drop *everything* node 1 sends (including retransmits): the
        // waiting peers must give up with a typed error, quickly
        let n = 32;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(2),
            faults: Some(FaultPlan::seeded(3).with_drop(1.0).with_from_only(1)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let t0 = Instant::now();
        let err = run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER).unwrap_err();
        match err {
            MachineError::Unrecoverable { peer, retries, .. } => {
                assert_eq!(peer, 1);
                assert!(retries > 0);
            }
            e => panic!("expected Unrecoverable, got {e}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(15));
    }

    #[test]
    fn noisy_link_recovered_in_both_modes() {
        // seeded drop+dup+reorder+corrupt+delay soup, still bit-exact
        let n = 64;
        let (clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::affine(3, 1),
            Decomp1::scatter(4, Bounds::range(0, n - 1)),
            Decomp1::scatter(4, Bounds::range(0, 3 * n)),
            0,
            n - 1,
        );
        let mut expect = env.clone();
        expect.exec_clause(&clause);
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        for mode in [CommMode::Element, CommMode::Vectorized] {
            let mut arrays = scatter_arrays(&env, &dm);
            let opts = DistOptions {
                recv_timeout: Duration::from_secs(5),
                faults: Some(
                    FaultPlan::seeded(11)
                        .with_drop(0.08)
                        .with_duplicate(0.08)
                        .with_reorder(0.08)
                        .with_corrupt(0.05)
                        .with_delay(0.08),
                ),
                mode,
                retry: RetryPolicy::fast(),
                ..DistOptions::default()
            };
            run_distributed(&plan, &clause, &mut arrays, opts, &NULL_TRACER)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(
                arrays["A"].gather().max_abs_diff(expect.get("A").unwrap()),
                0.0,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn sequential_clause_rejected() {
        let n = 16;
        let (mut clause, env, dm) = copy_setup(
            n,
            Fn1::identity(),
            Fn1::identity(),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            Decomp1::block(4, Bounds::range(0, n - 1)),
            0,
            n - 1,
        );
        clause.ordering = Ordering::Seq;
        let plan = SpmdPlan::build(&clause, &dm).unwrap();
        let mut arrays = scatter_arrays(&env, &dm);
        assert_eq!(
            run_distributed(
                &plan,
                &clause,
                &mut arrays,
                DistOptions::default(),
                &NULL_TRACER
            )
            .unwrap_err(),
            MachineError::SequentialClause
        );
    }
}
