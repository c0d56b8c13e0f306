//! Executable dynamic redistribution (Section 5 extension).
//!
//! Takes a [`RedistPlan`] (the compile-time message schedule from
//! `vcal-decomp`) and actually performs it on a [`DistArray`]: every node
//! thread sends its outgoing coalesced runs as single messages, receives
//! the runs destined to it, and copies its stationary elements locally.
//! Returns the re-laid-out array plus an [`ExecReport`] whose traffic
//! matrix can be priced under any [`crate::topology::Topology`].
//!
//! Redistribution traffic rides the same reliable transport as the
//! distributed machines ([`crate::transport`]): runs are sequenced,
//! checksummed, deduplicated, and recovered via NACK/retransmit, and a
//! panicking node surfaces as [`MachineError::NodePanicked`] instead of
//! aborting the host. Configure faults and retries through
//! [`run_redistribution`]'s options — the [`DistOptions::mode`] field is
//! ignored here because redistribution is always run-vectorized.

use crate::darray::DistArray;
use crate::distributed::{DistOptions, PACK_HEADER_BYTES};
use crate::error::MachineError;
use crate::obs::{EventKind, Phase, Tracer};
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{await_until, AwaitFail, Endpoint, Frame, WirePayload};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use vcal_decomp::redistribute::{RedistPlan, Transfer};

/// One coalesced run of values in flight.
#[derive(Debug, Clone)]
struct RunMsg {
    global_start: i64,
    global_stride: i64,
    values: Vec<f64>,
}

impl WirePayload for RunMsg {
    fn digest(&self) -> u64 {
        let mut h = (self.global_start as u64)
            .rotate_left(7)
            .wrapping_add(self.global_stride as u64);
        for v in &self.values {
            h = h.rotate_left(7).wrapping_add(v.to_bits());
        }
        h
    }

    fn corrupt(&mut self, bits: u64) {
        if self.values.is_empty() {
            self.global_start ^= 1 << (bits % 63);
        } else {
            let k = (bits as usize) % self.values.len();
            self.values[k] = f64::from_bits(self.values[k].to_bits() ^ (1 << (bits % 52)));
        }
    }
}

/// Execute a redistribution plan on `src`. The source array's
/// decomposition must equal `plan.from`. `opts` supplies the receive
/// timeout, seeded fault injection and retry policy; `opts.mode` is
/// ignored, because redistribution always ships coalesced runs.
/// [`EventKind::RedistSend`] / [`EventKind::RedistRecv`] events and a
/// per-node [`Phase::Redistribute`] timing are recorded through `tracer`.
pub fn run_redistribution(
    plan: &RedistPlan,
    src: &DistArray,
    opts: DistOptions,
    tracer: &dyn Tracer,
) -> Result<(DistArray, ExecReport), MachineError> {
    if src.decomp() != &plan.from {
        return Err(MachineError::PlanMismatch(
            "source array layout differs from the plan's `from` decomposition".into(),
        ));
    }
    let pmax = plan.from.pmax();
    let (_, src_parts) = src.clone().into_parts();
    let (to_dec, mut dst_parts) = DistArray::zeros(plan.to.clone()).into_parts();
    let from_dec = plan.from.clone();

    // group transfers by sender; count expectations per (receiver, sender)
    let mut outgoing: Vec<Vec<&Transfer>> = vec![Vec::new(); pmax as usize];
    let mut incoming_from: Vec<Vec<usize>> = vec![vec![0usize; pmax as usize]; pmax as usize];
    for t in &plan.transfers {
        outgoing[t.src as usize].push(t);
        incoming_from[t.dst as usize][t.src as usize] += 1;
    }

    let mut txs: Vec<Sender<Frame<RunMsg>>> = Vec::with_capacity(pmax as usize);
    let mut rxs: Vec<Receiver<Frame<RunMsg>>> = Vec::with_capacity(pmax as usize);
    for _ in 0..pmax {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }

    type NodeOut = (i64, Vec<f64>, NodeStats, Result<(), MachineError>);
    let mut results: Vec<NodeOut> = Vec::with_capacity(pmax as usize);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (p, (src_local, dst_local)) in
            src_parts.into_iter().zip(dst_parts.drain(..)).enumerate()
        {
            let p = p as i64;
            let rx = rxs.remove(0);
            let txs = txs.clone();
            let my_out = std::mem::take(&mut outgoing[p as usize]);
            let n_in_from = std::mem::take(&mut incoming_from[p as usize]);
            let from_dec = &from_dec;
            let to_dec = &to_dec;
            handles.push(scope.spawn(move || {
                redistribute_node(
                    p, src_local, dst_local, rx, txs, my_out, n_in_from, from_dec, to_dec, &opts,
                    tracer,
                )
            }));
        }
        drop(txs);
        for (p, h) in handles.into_iter().enumerate() {
            results.push(h.join().unwrap_or_else(|_| {
                (
                    p as i64,
                    Vec::new(),
                    NodeStats::default(),
                    Err(MachineError::NodePanicked { node: p as i64 }),
                )
            }));
        }
    });
    results.sort_by_key(|(p, ..)| *p);

    // a panic is the root cause; it wins over the errors it induces
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
    if let Some(e) = first_err {
        return Err(e); // `src` is untouched — nothing to restore
    }

    // traffic matrix from the plan (sender-side truth)
    let mut traffic = vec![vec![0u64; pmax as usize]; pmax as usize];
    for t in &plan.transfers {
        traffic[t.src as usize][t.dst as usize] += 1;
    }

    let mut report = ExecReport {
        traffic,
        ..Default::default()
    };
    let mut parts = Vec::with_capacity(pmax as usize);
    for (_, local, stats, _) in results {
        parts.push(local);
        report.nodes.push(stats);
    }
    Ok((DistArray::from_parts(plan.to.clone(), parts), report))
}

/// One redistribution node: local copies, send runs, receive owed runs
/// — all under the transport's recovery and this crate's panic guard.
#[allow(clippy::too_many_arguments)]
fn redistribute_node(
    p: i64,
    src_local: Vec<f64>,
    mut dst_local: Vec<f64>,
    rx: Receiver<Frame<RunMsg>>,
    txs: Vec<Sender<Frame<RunMsg>>>,
    my_out: Vec<&Transfer>,
    n_in_from: Vec<usize>,
    from_dec: &vcal_decomp::Decomp1,
    to_dec: &vcal_decomp::Decomp1,
    opts: &DistOptions,
    tracer: &dyn Tracer,
) -> (i64, Vec<f64>, NodeStats, Result<(), MachineError>) {
    let mut stats = NodeStats::default();
    let mut ep = Endpoint::in_proc(p, txs, rx, opts.faults, tracer);
    let trace_on = tracer.enabled();
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Redistribute));
    }
    let redist_t0 = trace_on.then(std::time::Instant::now);

    let phases = catch_unwind(AssertUnwindSafe(|| {
        // 1. local (stationary) copies: globals owned by p in both
        for l in 0..from_dec.local_count(p) {
            let g = from_dec.global_of(p, l);
            if to_dec.proc_of(g) == p {
                dst_local[to_dec.local_of(g) as usize] = src_local[l as usize];
                stats.local_reads += 1;
            }
        }
        // 2. send outgoing runs (one packet per coalesced run)
        for t in &my_out {
            let values: Vec<f64> = (0..t.count)
                .map(|k| {
                    let g = t.global_start + k * t.global_stride;
                    src_local[from_dec.local_of(g) as usize]
                })
                .collect();
            stats.msgs_sent += 1;
            stats.packets_sent += 1;
            stats.bytes_sent += PACK_HEADER_BYTES + 8 * values.len() as u64;
            stats.max_packet_elems = stats.max_packet_elems.max(values.len() as u64);
            if trace_on {
                tracer.record(
                    p,
                    EventKind::RedistSend {
                        dst: t.dst,
                        elems: values.len() as u64,
                    },
                );
            }
            ep.send(
                t.dst as usize,
                RunMsg {
                    global_start: t.global_start,
                    global_stride: t.global_stride,
                    values,
                },
            );
        }
        ep.end_send_phase();
        // 3. receive my incoming runs, per owing source
        let mut staged: Vec<VecDeque<RunMsg>> =
            (0..n_in_from.len()).map(|_| VecDeque::new()).collect();
        for (srcp, &need) in n_in_from.iter().enumerate() {
            for _ in 0..need {
                let msg = await_until(
                    &mut ep,
                    srcp as i64,
                    opts.recv_timeout,
                    opts.retry,
                    &mut stats,
                    &mut staged,
                    |staged| staged[srcp].pop_front().map(Ok),
                    |staged, s, _seq, m| {
                        staged
                            .get_mut(s as usize)
                            .ok_or("run from unknown source")?
                            .push_back(m);
                        Ok(())
                    },
                )
                .map_err(|e| match e {
                    AwaitFail::Timeout => MachineError::Unrecoverable {
                        node: p,
                        peer: srcp as i64,
                        retries: 0,
                    },
                    AwaitFail::Exhausted { retries } => MachineError::Unrecoverable {
                        node: p,
                        peer: srcp as i64,
                        retries,
                    },
                    AwaitFail::BadWire(w) => MachineError::PlanMismatch(format!("node {p}: {w}")),
                })?;
                stats.msgs_received += 1;
                if trace_on {
                    tracer.record(
                        p,
                        EventKind::RedistRecv {
                            src: srcp as i64,
                            elems: msg.values.len() as u64,
                        },
                    );
                }
                for (k, v) in msg.values.iter().enumerate() {
                    let g = msg.global_start + k as i64 * msg.global_stride;
                    dst_local[to_dec.local_of(g) as usize] = *v;
                }
            }
        }
        Ok(())
    }));
    let res = match phases {
        Ok(r) => {
            ep.announce_done();
            ep.drain(opts.recv_timeout, &mut stats);
            r
        }
        Err(_) => {
            ep.announce_done();
            Err(MachineError::NodePanicked { node: p })
        }
    };
    if let Some(t0) = redist_t0 {
        tracer.timing(p, Phase::Redistribute, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Redistribute));
    }
    (p, dst_local, stats, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NULL_TRACER;
    use crate::topology::{price_traffic, Topology};
    use crate::transport::{FaultPlan, RetryPolicy};
    use std::time::Duration;
    use vcal_core::{Array, Bounds};
    use vcal_decomp::Decomp1;

    fn ramp(n: i64) -> Array {
        Array::from_fn(Bounds::range(0, n - 1), |i| (i.scalar() * 3 + 1) as f64)
    }

    #[test]
    fn block_to_scatter_preserves_data() {
        let n = 64;
        let from = Decomp1::block(4, Bounds::range(0, n - 1));
        let to = Decomp1::scatter(4, Bounds::range(0, n - 1));
        let plan = RedistPlan::build(&from, &to);
        let src = DistArray::scatter_from(&ramp(n), from);
        let (dst, report) =
            run_redistribution(&plan, &src, DistOptions::default(), &NULL_TRACER).unwrap();
        assert_eq!(dst.gather().max_abs_diff(&ramp(n)), 0.0);
        assert_eq!(report.total().msgs_sent as usize, plan.message_count());
        assert_eq!(report.total().msgs_received, report.total().msgs_sent);
        // price it on a hypercube
        let cost = price_traffic(Topology::Hypercube, &report.traffic);
        assert_eq!(cost.messages as usize, plan.message_count());
        assert!(cost.total_hops >= cost.messages);
    }

    #[test]
    fn roundtrip_back_to_original_layout() {
        let n = 100;
        let a = Decomp1::block_scatter(3, 5, Bounds::range(0, n - 1));
        let b = Decomp1::scatter(5, Bounds::range(0, n - 1));
        let src = DistArray::scatter_from(&ramp(n), a.clone());
        let (mid, _) = run_redistribution(
            &RedistPlan::build(&a, &b),
            &src,
            DistOptions::default(),
            &NULL_TRACER,
        )
        .unwrap();
        let (back, _) = run_redistribution(
            &RedistPlan::build(&b, &a),
            &mid,
            DistOptions::default(),
            &NULL_TRACER,
        )
        .unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn identity_plan_is_pure_local_copy() {
        let n = 32;
        let d = Decomp1::block(4, Bounds::range(0, n - 1));
        let plan = RedistPlan::build(&d, &d);
        let src = DistArray::scatter_from(&ramp(n), d);
        let (dst, report) =
            run_redistribution(&plan, &src, DistOptions::default(), &NULL_TRACER).unwrap();
        assert_eq!(dst, src);
        assert_eq!(report.total().msgs_sent, 0);
        assert_eq!(report.total().local_reads, n as u64);
    }

    #[test]
    fn layout_mismatch_rejected() {
        let n = 32;
        let d1 = Decomp1::block(4, Bounds::range(0, n - 1));
        let d2 = Decomp1::scatter(4, Bounds::range(0, n - 1));
        let plan = RedistPlan::build(&d1, &d2);
        let wrong_src = DistArray::scatter_from(&ramp(n), d2);
        assert!(matches!(
            run_redistribution(&plan, &wrong_src, DistOptions::default(), &NULL_TRACER),
            Err(MachineError::PlanMismatch(_))
        ));
    }

    #[test]
    fn faulty_redistribution_recovers() {
        let n = 64;
        let from = Decomp1::block(4, Bounds::range(0, n - 1));
        let to = Decomp1::scatter(4, Bounds::range(0, n - 1));
        let plan = RedistPlan::build(&from, &to);
        let src = DistArray::scatter_from(&ramp(n), from);
        let opts = DistOptions {
            recv_timeout: Duration::from_secs(5),
            faults: Some(
                FaultPlan::seeded(9)
                    .with_drop(0.15)
                    .with_reorder(0.15)
                    .with_duplicate(0.1),
            ),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let (dst, report) = run_redistribution(&plan, &src, opts, &NULL_TRACER).unwrap();
        assert_eq!(dst.gather().max_abs_diff(&ramp(n)), 0.0);
        assert!(report.total().acks_sent > 0);
    }

    #[test]
    fn crashed_redistribution_node_is_typed_error() {
        let n = 64;
        let from = Decomp1::block(4, Bounds::range(0, n - 1));
        let to = Decomp1::scatter(4, Bounds::range(0, n - 1));
        let plan = RedistPlan::build(&from, &to);
        let src = DistArray::scatter_from(&ramp(n), from);
        let opts = DistOptions {
            recv_timeout: Duration::from_millis(500),
            faults: Some(FaultPlan::seeded(1).with_crash(0, 0)),
            retry: RetryPolicy::fast(),
            ..DistOptions::default()
        };
        let err = run_redistribution(&plan, &src, opts, &NULL_TRACER).unwrap_err();
        assert_eq!(err, MachineError::NodePanicked { node: 0 });
    }
}
