//! An analytic performance model for generated SPMD programs.
//!
//! The machines of this crate *count* events exactly (iterations,
//! ownership tests, messages); wall-clock on a modern multicore says
//! little about a 1991 multiprocessor. This model turns the counts into
//! *simulated time* with the classic linear cost parameters of the era:
//!
//! ```text
//! T_node = tests*t_test + iterations*t_iter
//!        + sends*(t_startup + hops*t_hop) + receives*t_recv
//! T      = max over nodes  (+ one barrier per clause on shared memory)
//! ```
//!
//! yielding clean speedup curves — who wins, by what factor, and where
//! decompositions cross over — independent of host noise.

use crate::distributed::CommMode;
use crate::obs::{Phase, TraceLog};
use crate::stats::ExecReport;
use crate::topology::Topology;
use vcal_decomp::RedistPlan;
use vcal_spmd::SpmdPlan;

/// Cost parameters, in abstract time units (1 = one local iteration).
#[derive(Debug, Clone, Copy)]
pub struct PerfModel {
    /// One run-time ownership test (naive schedules).
    pub t_test: f64,
    /// One executed iteration (evaluate + write).
    pub t_iter: f64,
    /// Message startup (software overhead per send).
    pub t_startup: f64,
    /// Per-hop transfer time.
    pub t_hop: f64,
    /// Receive-side software overhead.
    pub t_recv: f64,
    /// The interconnect.
    pub topology: Topology,
}

impl Default for PerfModel {
    /// Message startup two orders of magnitude above an iteration — the
    /// classic distributed-memory ratio of the paper's era.
    fn default() -> Self {
        PerfModel {
            t_test: 0.25,
            t_iter: 1.0,
            t_startup: 100.0,
            t_hop: 5.0,
            t_recv: 20.0,
            topology: Topology::Hypercube,
        }
    }
}

/// The modeled execution time of one clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime {
    /// Critical-path (max-node) time.
    pub total: f64,
    /// The slowest node.
    pub bottleneck: i64,
    /// Sum over nodes (the work the machine performs in aggregate).
    pub aggregate: f64,
}

impl PerfModel {
    /// Price a *static plan*: per-node schedule work only (no
    /// communication), the shared-memory cost of Section 2.9.
    pub fn price_plan(&self, plan: &SpmdPlan) -> SimTime {
        let mut total = 0.0f64;
        let mut aggregate = 0.0;
        let mut bottleneck = 0;
        for node in &plan.nodes {
            let visits = node.modify.schedule.count() as f64;
            let tests = node.modify.schedule.work_estimate() as f64 - visits;
            let t = tests * self.t_test + visits * self.t_iter;
            aggregate += t;
            if t > total {
                total = t;
                bottleneck = node.p;
            }
        }
        SimTime {
            total,
            bottleneck,
            aggregate,
        }
    }

    /// Price an *execution report* (distributed machine): iterations,
    /// tests, and the recorded traffic matrix under the model topology.
    pub fn price_report(&self, report: &ExecReport) -> SimTime {
        let pmax = report.nodes.len() as i64;
        let mut total = 0.0f64;
        let mut aggregate = 0.0;
        let mut bottleneck = 0;
        for (p, node) in report.nodes.iter().enumerate() {
            let tests = (node.guard_tests as f64 - node.iterations as f64).max(0.0);
            let mut t = tests * self.t_test
                + node.iterations as f64 * self.t_iter
                + node.msgs_received as f64 * self.t_recv;
            if let Some(row) = report.traffic.get(p) {
                for (dst, &count) in row.iter().enumerate() {
                    if count == 0 || dst == p {
                        continue;
                    }
                    let hops = self.topology.hops(pmax, p as i64, dst as i64) as f64;
                    t += count as f64 * (self.t_startup + hops * self.t_hop);
                }
            } else {
                t += node.msgs_sent as f64 * (self.t_startup + self.t_hop);
            }
            aggregate += t;
            if t > total {
                total = t;
                bottleneck = p as i64;
            }
        }
        SimTime {
            total,
            bottleneck,
            aggregate,
        }
    }

    /// Modeled speedup of a plan against the one-processor time of the
    /// same loop (`n` iterations, no tests, no messages).
    pub fn speedup_of_plan(&self, plan: &SpmdPlan) -> f64 {
        let n = (plan.loop_bounds.1 - plan.loop_bounds.0 + 1).max(0) as f64;
        let seq = n * self.t_iter;
        let par = self.price_plan(plan).total;
        if par > 0.0 {
            seq / par
        } else {
            f64::INFINITY
        }
    }

    /// Modeled speedup of a distributed execution against sequential.
    pub fn speedup_of_report(&self, report: &ExecReport, seq_iterations: u64) -> f64 {
        let seq = seq_iterations as f64 * self.t_iter;
        let par = self.price_report(report).total;
        if par > 0.0 {
            seq / par
        } else {
            f64::INFINITY
        }
    }
}

/// Wire-format constants mirrored from the distributed machine: a
/// 24-byte element message; a 16-byte header plus 8 bytes per element
/// for packed vector messages.
const ELEM_MSG_BYTES: u64 = 24;
const PACK_HEADER_BYTES: u64 = 16;
const ELEM_BYTES: u64 = 8;

/// One calibration observation: the hardware-measurable counters of a
/// profiled (warm) step plus the wall-clock the tracer recorded for it.
/// Aggregated over all nodes — the fit estimates *per-event* averages,
/// which is exactly what plan-time pricing needs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationSample {
    /// Iterations executed (schedule visits across all nodes).
    pub iterations: u64,
    /// Wire messages put on the transport.
    pub packets: u64,
    /// Modeled wire bytes sent.
    pub bytes: u64,
    /// Payload elements received.
    pub recv_elems: u64,
    /// Measured update-phase wall-clock, summed over nodes (ns).
    pub update_ns: f64,
    /// Measured send-phase wall-clock, summed over nodes (ns).
    pub send_ns: f64,
    /// Measured drain/receive wall-clock, summed over nodes (ns).
    pub drain_ns: f64,
}

impl CalibrationSample {
    /// Extract a sample from one traced execution: counters from the
    /// report, phase wall-clock from the trace's timing side-band.
    pub fn of(report: &ExecReport, log: &TraceLog) -> CalibrationSample {
        let t = report.total();
        let totals = log.phase_totals();
        let ns = |p: Phase| totals.get(&p).map_or(0.0, |d| d.as_nanos() as f64);
        CalibrationSample {
            iterations: t.iterations,
            packets: t.packets_sent,
            bytes: t.bytes_sent,
            recv_elems: t.msgs_received,
            update_ns: ns(Phase::Update),
            send_ns: ns(Phase::Send),
            drain_ns: ns(Phase::Drain),
        }
    }

    /// Merge another sample into this one (accumulate a multi-clause
    /// program step into one observation).
    pub fn absorb(&mut self, o: &CalibrationSample) {
        self.iterations += o.iterations;
        self.packets += o.packets;
        self.bytes += o.bytes;
        self.recv_elems += o.recv_elems;
        self.update_ns += o.update_ns;
        self.send_ns += o.send_ns;
        self.drain_ns += o.drain_ns;
    }
}

/// The modeled wall-clock of one plan under a [`CalibratedModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanPrice {
    /// Critical-path (max-node) nanoseconds.
    pub total_ns: f64,
    /// The slowest node.
    pub bottleneck: i64,
    /// Sum over nodes.
    pub aggregate_ns: f64,
}

/// The §4 performance model with its constants *fit from measured
/// trace timings* instead of the 1991 defaults: nanoseconds per
/// executed iteration, per wire message, per wire byte, and per
/// received element, estimated from one or two profiled warm steps.
///
/// The structural model is unchanged — linear event costs, critical
/// path = max over nodes — only the constants move, so predictions
/// carry the host's actual compute/communication ratio and candidate
/// decompositions can be ranked by predicted wall-clock without
/// executing any of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedModel {
    /// Nanoseconds per executed iteration (evaluate + write).
    pub iter_ns: f64,
    /// Nanoseconds of per-message software overhead (startup).
    pub packet_ns: f64,
    /// Nanoseconds per wire byte (inverse bandwidth).
    pub byte_ns: f64,
    /// Nanoseconds per received payload element.
    pub recv_ns: f64,
    /// How many observations the fit consumed.
    pub samples: usize,
}

impl Default for CalibratedModel {
    /// Uncalibrated fallback: the classic ratios of [`PerfModel`]
    /// expressed in nanoseconds with 1 iteration ≡ 1 ns. Rankings
    /// under this default match the era-model rankings.
    fn default() -> Self {
        let m = PerfModel::default();
        CalibratedModel {
            iter_ns: m.t_iter,
            packet_ns: m.t_startup,
            byte_ns: m.t_hop / ELEM_BYTES as f64,
            recv_ns: m.t_recv,
            samples: 0,
        }
    }
}

impl CalibratedModel {
    /// Fit the model from profiled samples. Per-iteration and
    /// per-received-element costs are direct ratios; the send-phase
    /// pool is attributed to per-message and per-byte terms by a 2×2
    /// least-squares fit when the samples are independent enough to
    /// identify both, and split evenly between the two terms otherwise
    /// (one warm step can never separate startup from bandwidth).
    /// Constants that a degenerate profile leaves unobserved (no
    /// packets, no receives) keep their [`CalibratedModel::default`]
    /// values so pricing still ranks communication-bearing candidates
    /// sensibly. Returns `None` when no sample carries any measured
    /// update time — there is nothing to calibrate from.
    pub fn fit(samples: &[CalibrationSample]) -> Option<CalibratedModel> {
        let mut out = CalibratedModel::default();
        let tot_iters: u64 = samples.iter().map(|s| s.iterations).sum();
        let tot_update: f64 = samples.iter().map(|s| s.update_ns).sum();
        if tot_iters == 0 || tot_update <= 0.0 {
            return None;
        }
        out.iter_ns = tot_update / tot_iters as f64;
        out.samples = samples.len();

        let tot_packets: u64 = samples.iter().map(|s| s.packets).sum();
        let tot_bytes: u64 = samples.iter().map(|s| s.bytes).sum();
        let tot_send: f64 = samples.iter().map(|s| s.send_ns).sum();
        if tot_packets > 0 && tot_send > 0.0 {
            // least squares over send_ns ≈ packets·a + bytes·b
            let (mut spp, mut spb, mut sbb, mut spy, mut sby) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for s in samples {
                let (p, b, y) = (s.packets as f64, s.bytes as f64, s.send_ns);
                spp += p * p;
                spb += p * b;
                sbb += b * b;
                spy += p * y;
                sby += b * y;
            }
            let det = spp * sbb - spb * spb;
            let rel = det / (spp * sbb).max(f64::MIN_POSITIVE);
            let (a, b) = if rel > 1e-6 {
                ((sbb * spy - spb * sby) / det, (spp * sby - spb * spy) / det)
            } else {
                (f64::NAN, f64::NAN)
            };
            if a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0 {
                out.packet_ns = a;
                out.byte_ns = b;
            } else {
                // unidentifiable: split the measured pool evenly
                out.packet_ns = 0.5 * tot_send / tot_packets as f64;
                out.byte_ns = if tot_bytes > 0 {
                    0.5 * tot_send / tot_bytes as f64
                } else {
                    0.0
                };
            }
        } else if tot_packets == 0 {
            // communication-free profile: scale the default comm
            // constants to the calibrated iteration cost so the classic
            // startup/iteration ratio is preserved in absolute terms
            let scale = out.iter_ns / PerfModel::default().t_iter;
            out.packet_ns *= scale;
            out.byte_ns *= scale;
            out.recv_ns *= scale;
            return Some(out);
        }
        let tot_recv: u64 = samples.iter().map(|s| s.recv_elems).sum();
        let tot_drain: f64 = samples.iter().map(|s| s.drain_ns).sum();
        if tot_recv > 0 && tot_drain > 0.0 {
            out.recv_ns = tot_drain / tot_recv as f64;
        }
        Some(out)
    }

    /// Per-node wire traffic of a plan under `mode`: `(packets, bytes)`
    /// — the same accounting the machines report in
    /// `packets_sent`/`bytes_sent`.
    fn node_wire(node: &vcal_spmd::NodePlan, mode: CommMode) -> (u64, u64) {
        let elems = node.comm.send_elems();
        match mode {
            CommMode::Element => (elems, elems * ELEM_MSG_BYTES),
            CommMode::Vectorized => {
                let packets = node.comm.send_packets();
                (packets, packets * PACK_HEADER_BYTES + elems * ELEM_BYTES)
            }
        }
    }

    /// Price a plan from its schedules alone — no execution. Per node:
    /// iteration, send (packet + byte), and receive terms; the total is
    /// the critical path (max over nodes), which is what a
    /// barrier-synchronized step actually waits on.
    pub fn price_plan(&self, plan: &SpmdPlan, mode: CommMode) -> PlanPrice {
        let mut total = 0.0f64;
        let mut aggregate = 0.0;
        let mut bottleneck = 0;
        for node in &plan.nodes {
            let visits = node.modify.schedule.count() as f64;
            let tests = (node.modify.schedule.work_estimate() as f64 - visits).max(0.0);
            let (packets, bytes) = Self::node_wire(node, mode);
            let t = visits * self.iter_ns
                + tests * 0.25 * self.iter_ns
                + packets as f64 * self.packet_ns
                + bytes as f64 * self.byte_ns
                + node.comm.recv_elems() as f64 * self.recv_ns;
            aggregate += t;
            if t > total {
                total = t;
                bottleneck = node.p;
            }
        }
        PlanPrice {
            total_ns: total,
            bottleneck,
            aggregate_ns: aggregate,
        }
    }

    /// Price a redistribution: every moved element is one send plus one
    /// receive, batched per ordered processor pair (vectorized wire
    /// accounting — redistribution always ships runs).
    pub fn price_redist(&self, plan: &RedistPlan) -> f64 {
        let packets = plan.message_count() as f64;
        let elems = plan.moved_elements().max(0) as f64;
        packets * self.packet_ns
            + (packets * PACK_HEADER_BYTES as f64 + elems * ELEM_BYTES as f64) * self.byte_ns
            + elems * self.recv_ns
    }

    /// Predict the wall-clock of an already-executed report — used to
    /// close the loop (`model_error` = |predicted − measured| /
    /// measured on a warm step the model did *not* calibrate from).
    pub fn predict_report(&self, report: &ExecReport) -> f64 {
        let mut total = 0.0f64;
        for node in &report.nodes {
            let t = node.iterations as f64 * self.iter_ns
                + node.packets_sent as f64 * self.packet_ns
                + node.bytes_sent as f64 * self.byte_ns
                + node.msgs_received as f64 * self.recv_ns;
            total = total.max(t);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::darray::DistArray;
    use crate::distributed::{run_distributed, DistOptions};
    use crate::obs::NULL_TRACER;
    use std::collections::BTreeMap;
    use vcal_core::func::Fn1;
    use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
    use vcal_decomp::Decomp1;
    use vcal_spmd::{DecompMap, SpmdPlan};

    fn copy_clause(n: i64) -> Clause {
        Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        }
    }

    #[test]
    fn closed_form_plan_speedup_approaches_pmax() {
        let n = 1 << 14;
        let clause = copy_clause(n);
        let model = PerfModel::default();
        for pmax in [2i64, 8, 32] {
            let mut dm = DecompMap::new();
            dm.insert("A".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
            dm.insert("B".into(), Decomp1::block(pmax, Bounds::range(0, n - 1)));
            let plan = SpmdPlan::build(&clause, &dm).unwrap();
            let s = model.speedup_of_plan(&plan);
            let rel = (s - pmax as f64).abs() / (pmax as f64);
            assert!(rel < 0.05, "pmax={pmax}: modeled speedup {s}");
            // naive plans pay the tests and scale worse
            let naive = SpmdPlan::build_naive(&clause, &dm).unwrap();
            let sn = model.speedup_of_plan(&naive);
            assert!(sn < s, "naive {sn} should trail closed-form {s}");
            // naive speedup saturates around t_iter/t_test regardless of pmax
            assert!(sn <= 1.0 / model.t_test * 1.1, "pmax={pmax}: naive {sn}");
        }
    }

    #[test]
    fn communication_dominates_scatter_stencil() {
        // block vs scatter for a stencil: the model must rank block far
        // ahead once message costs enter.
        let n = 1 << 10;
        let clause = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("V", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("U", Fn1::shift(-1))),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));
        let model = PerfModel::default();
        let mut times = Vec::new();
        for dec in [
            Decomp1::block(8, Bounds::range(0, n - 1)),
            Decomp1::scatter(8, Bounds::range(0, n - 1)),
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
            times.push(model.price_report(&report).total);
        }
        assert!(
            times[0] * 5.0 < times[1],
            "block {} should beat scatter {} by far",
            times[0],
            times[1]
        );
    }

    #[test]
    fn topology_changes_the_price() {
        // same traffic, pricier on a ring than a hypercube
        let mut report = ExecReport {
            nodes: vec![Default::default(); 8],
            traffic: vec![vec![0u64; 8]; 8],
            ..Default::default()
        };
        report.traffic[0][4] = 100;
        let hyper = PerfModel {
            topology: Topology::Hypercube,
            ..Default::default()
        };
        let ring = PerfModel {
            topology: Topology::Ring,
            ..Default::default()
        };
        let crossbar = PerfModel {
            topology: Topology::Crossbar,
            ..Default::default()
        };
        let th = hyper.price_report(&report).total;
        let tr = ring.price_report(&report).total;
        let tc = crossbar.price_report(&report).total;
        // 0 -> 4: one hop on the hypercube (single bit) and the crossbar,
        // four on the ring (antipodal)
        assert_eq!(th, tc);
        assert!(tr > th && th > 0.0);
    }
}
