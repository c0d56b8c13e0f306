//! The execution engine: a persistent worker pool replaying compiled
//! schedules (paper Section 4's amortization discipline). Every
//! distributed 1-D clause execution runs here.
//!
//! * [`prepare_run`] does everything that depends only on
//!   `(plan, clause, decompositions)` — expression/guard resolution,
//!   the [`CompiledSchedule`] materialization of every Table I
//!   enumeration and the vectorized receive addressing — and freezes it
//!   in a shareable [`PreparedPlan`].
//! * [`DistExecutor`] owns `pmax` node threads spawned **once**; between
//!   runs they park on their job channel. Transport endpoints (sequence
//!   numbers, dedup windows), receive lanes, and operand buffers are
//!   *reset*, not reallocated, per run.
//!
//! Every execution is a *wave*: prepared clauses in program order that
//! share one transport run and commit all-or-nothing. A DAG schedule
//! wave has many jobs; a session's solo clause is a 1-job wave; the cold
//! [`run_distributed`](crate::run_distributed) is a 1-job wave on a
//! throwaway pool. Each node's pre-wave parts go to its worker once,
//! behind an `Arc` the host also holds: workers only read them (writes
//! are staged as `WriteOp`s) and the host takes them back after the
//! replies. The pooled threads and the socket backends' worker processes
//! run the same worker body (`run_jobs`), and the host finishes every
//! run with the same commit (`finalize_run`).
//!
//! Worker events are buffered thread-locally and replayed into the real
//! tracer after the run — sound because [`CollectingTracer`]
//! canonicalizes event order by `(class, node, per-node clock)`. A
//! pooled worker that crashes is retired without poisoning the session:
//! the caught panic becomes [`MachineError::NodePanicked`], uncommitted
//! writes are discarded (the host's all-or-nothing commit restores
//! pre-run state), and a genuinely dead thread causes the pool to
//! rebuild itself on the next run.
//!
//! [`CollectingTracer`]: crate::obs::CollectingTracer

use crate::darray::DistArray;
use crate::distributed::{
    disassemble, eval_rexpr, exec_update_phase, map_recv_fail, recv_element, recv_packed,
    resolve_expr, resolve_guard, send_phase_element_compiled, CommMode, DistOptions, JobLane, Msg,
    RExpr, RGuard, WaveRecv, Wire, WriteOp, ELEM_MSG_BYTES, PACK_HEADER_BYTES,
};
use crate::error::MachineError;
use crate::obs::{trace_plan, EventKind, Phase, Tracer};
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{Endpoint, Frame};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use vcal_core::{Clause, Ordering};
use vcal_decomp::Decomp1;
use vcal_spmd::{for_each_run, CompiledSchedule, SpmdPlan};

/// Everything a repeated execution needs that depends only on the
/// `(plan, clause, decompositions)` triple: the plan itself, its
/// compiled (flattened) schedules, per-node resolved expressions and
/// guards, the referenced-array list, and the decompositions the plan
/// was built against. Built once by [`prepare_run`]; shared read-only
/// (via `Arc`) by the session cache and every pooled worker.
pub struct PreparedPlan {
    pub(crate) plan: SpmdPlan,
    pub(crate) clause: Clause,
    pub(crate) compiled: CompiledSchedule,
    pub(crate) rexprs: Vec<RExpr>,
    pub(crate) rguards: Vec<RGuard>,
    pub(crate) referenced: Vec<String>,
    pub(crate) decomps: BTreeMap<String, Decomp1>,
    pub(crate) dec_lhs: Decomp1,
}

impl PreparedPlan {
    /// The underlying SPMD plan.
    pub fn plan(&self) -> &SpmdPlan {
        &self.plan
    }

    /// The compiled schedule tables.
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.compiled
    }

    /// The arrays the plan references (lhs first).
    pub fn referenced(&self) -> &[String] {
        &self.referenced
    }

    /// Rough resident size of the prepared tables — the byte charge the
    /// bounded plan caches account against their budget. Dominated by
    /// the compiled per-node run tables and the vectorized receive
    /// addressing; a handful of machine words per run/origin entry, so
    /// an estimate (not an allocator census) is plenty for LRU pressure.
    pub fn approx_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<PreparedPlan>();
        for node in &self.compiled.nodes {
            b += node.modify.len() * 32;
            for r in node.resides.iter().flatten() {
                b += r.len() * 32;
            }
            b += node.origin.len() * 64;
            b += (node.src_ord.len() + node.src_peers.len() + node.staging_runs.len()) * 8;
        }
        for np in &self.plan.nodes {
            b += np.resides.len() * 128;
        }
        b
    }
}

impl std::fmt::Debug for PreparedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedPlan")
            .field("lhs", &self.plan.lhs_array)
            .field("pmax", &self.plan.pmax)
            .field("referenced", &self.referenced)
            .finish_non_exhaustive()
    }
}

/// Freeze the run-invariant half of an execution: validate the clause
/// against the plan, resolve expressions and guards per node, and
/// compile every schedule into flat run tables. The decompositions are
/// captured so later runs can detect redistribution.
pub fn prepare_run(
    plan: SpmdPlan,
    clause: &Clause,
    decomps: &BTreeMap<String, Decomp1>,
) -> Result<PreparedPlan, MachineError> {
    if plan.ordering != Ordering::Par {
        return Err(MachineError::SequentialClause);
    }
    let node0 = plan
        .nodes
        .first()
        .ok_or_else(|| MachineError::PlanMismatch("plan has no nodes".into()))?;
    let mut referenced: Vec<String> = vec![plan.lhs_array.clone()];
    for rp in &node0.resides {
        if !referenced.contains(&rp.array) {
            referenced.push(rp.array.clone());
        }
    }
    let mut captured: BTreeMap<String, Decomp1> = BTreeMap::new();
    for name in &referenced {
        let dec = decomps
            .get(name)
            .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
        if dec.pmax() != plan.pmax {
            return Err(MachineError::PlanMismatch(format!(
                "array `{name}` decomposed over {} processors, plan has {}",
                dec.pmax(),
                plan.pmax
            )));
        }
        captured.insert(name.clone(), dec.clone());
    }
    let dec_lhs = captured[&plan.lhs_array].clone();
    let mut rexprs = Vec::with_capacity(plan.nodes.len());
    let mut rguards = Vec::with_capacity(plan.nodes.len());
    for n in &plan.nodes {
        rexprs.push(resolve_expr(&clause.rhs, n)?);
        rguards.push(resolve_guard(&clause.guard, n)?);
    }
    let compiled = CompiledSchedule::compile_exec(&plan, clause, &captured);
    Ok(PreparedPlan {
        plan,
        clause: clause.clone(),
        compiled,
        rexprs,
        rguards,
        referenced,
        decomps: captured,
        dec_lhs,
    })
}

/// Shared context of one wave: the jobs in program-ordinal order. A
/// wave is ONE transport run — sequence numbers run continuously across
/// jobs, which is what makes the plan-derived seq-window demultiplexing
/// of [`WaveRecv`] exact (a per-job endpoint reset would replay seqnos
/// from 0 and a fast peer's frames would be dropped as duplicates by a
/// not-yet-reset slow peer).
struct WaveCtx {
    jobs: Vec<Arc<PreparedPlan>>,
    opts: DistOptions,
    trace_on: bool,
    /// Run the purge + Ready/Go barrier before sending. Needed only
    /// when the previous run may have left frames in the data channels
    /// (it failed, or its fault plan allowed post-`Done` retransmits);
    /// after a clean fault-free run the channels are provably empty —
    /// every frame a peer sends precedes its `Done`, and a worker only
    /// finishes its drain after consuming every peer's `Done`.
    handshake: bool,
}

/// One dispatched wave for one worker: the wave context plus the node's
/// pre-wave parts of every array the wave references, shared read-only
/// with the host.
struct WaveJob {
    ctx: Arc<WaveCtx>,
    parts: Arc<BTreeMap<String, Vec<f64>>>,
}

/// Host-to-worker control stream. A run is a two-step handshake when
/// the channels may hold stale frames: `Wave` (reset, purge, report
/// [`WorkerMsg::Ready`]) then `Go` (start sending). The barrier exists
/// because the stale-frame purge must finish on *every* worker before
/// *any* worker may put new frames on the wire — a fast peer could
/// otherwise have its fresh frames eaten by a slow peer's purge.
enum Cmd {
    Wave(WaveJob),
    Go,
}

/// One job's share of a node's reply. The position in
/// [`WaveReply::jobs`] is the job's wave ordinal, so the host can stage
/// commits in strict program order.
pub(crate) struct JobReply {
    pub(crate) writes: Vec<WriteOp>,
    pub(crate) stats: NodeStats,
    pub(crate) sent_to: Vec<u64>,
    pub(crate) res: Result<(), MachineError>,
}

/// What a node ships back after a wave: one [`JobReply`] per job in
/// wave order, plus the node's buffered trace — each job's send then
/// update events in wave order, then the wave-level drain.
pub(crate) struct WaveReply {
    pub(crate) jobs: Vec<JobReply>,
    pub(crate) trace: BufInner,
}

/// Worker-to-host stream: `Ready` answers a handshaking `Cmd::Wave`,
/// `Done` ends the wave.
enum WorkerMsg {
    Ready,
    Done(Box<WaveReply>),
}

#[derive(Default)]
pub(crate) struct BufInner {
    pub(crate) events: Vec<(i64, EventKind)>,
    pub(crate) timings: Vec<(i64, Phase, Duration)>,
}

impl BufInner {
    fn append(&mut self, later: BufInner) {
        self.events.extend(later.events);
        self.timings.extend(later.timings);
    }
}

/// A thread-local event buffer implementing [`Tracer`]. A pooled worker
/// cannot borrow the caller's tracer (its thread outlives any one run),
/// so it records into this buffer and the host replays the buffer into
/// the real tracer after collecting the reply — per-node event order is
/// preserved, which is all the collecting tracer's canonical sort needs.
pub(crate) struct BufTracer {
    on: AtomicBool,
    buf: Mutex<BufInner>,
}

impl BufTracer {
    pub(crate) fn new() -> BufTracer {
        BufTracer {
            on: AtomicBool::new(false),
            buf: Mutex::new(BufInner::default()),
        }
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.on.store(on, AtomicOrdering::Relaxed);
    }

    pub(crate) fn take(&self) -> BufInner {
        let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *b)
    }
}

impl Tracer for BufTracer {
    fn enabled(&self) -> bool {
        self.on.load(AtomicOrdering::Relaxed)
    }

    fn record(&self, node: i64, kind: EventKind) {
        if self.enabled() {
            let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
            b.events.push((node, kind));
        }
    }

    fn timing(&self, node: i64, phase: Phase, elapsed: Duration) {
        if self.enabled() {
            let mut b = self.buf.lock().unwrap_or_else(|e| e.into_inner());
            b.timings.push((node, phase, elapsed));
        }
    }
}

/// One parked node thread of the pool.
struct WorkerHandle {
    job_tx: Sender<Cmd>,
    reply_rx: Receiver<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

/// The persistent distributed executor: `pmax` node threads spawned
/// once, parked between runs, replaying [`PreparedPlan`]s through
/// reused transport endpoints and staging buffers. See the module docs
/// for lifecycle and crash-retirement semantics.
pub struct DistExecutor {
    pmax: usize,
    workers: Vec<WorkerHandle>,
    broken: bool,
    /// The previous run may have left stale frames behind (see
    /// [`WaveCtx::handshake`]); the next run must purge under a barrier.
    dirty: bool,
}

impl std::fmt::Debug for DistExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistExecutor")
            .field("pmax", &self.pmax)
            .field("workers", &self.workers.len())
            .field("broken", &self.broken)
            .finish()
    }
}

fn build_pool(pmax: usize) -> Vec<WorkerHandle> {
    let mut txs: Vec<Sender<Frame<Wire>>> = Vec::with_capacity(pmax);
    let mut data_rxs: Vec<Receiver<Frame<Wire>>> = Vec::with_capacity(pmax);
    for _ in 0..pmax {
        let (tx, rx) = unbounded();
        txs.push(tx);
        data_rxs.push(rx);
    }
    let mut workers = Vec::with_capacity(pmax);
    for (p, data_rx) in data_rxs.into_iter().enumerate() {
        let (job_tx, job_rx) = unbounded::<Cmd>();
        let (reply_tx, reply_rx) = unbounded::<WorkerMsg>();
        let txs = txs.clone();
        let handle =
            std::thread::spawn(move || worker_main(p as i64, txs, data_rx, job_rx, reply_tx));
        workers.push(WorkerHandle {
            job_tx,
            reply_rx,
            handle: Some(handle),
        });
    }
    workers
}

impl DistExecutor {
    /// Spawn a pool of `pmax` parked node threads.
    pub fn new(pmax: i64) -> DistExecutor {
        let pmax = pmax.max(0) as usize;
        DistExecutor {
            pmax,
            workers: build_pool(pmax),
            broken: false,
            dirty: false,
        }
    }

    /// Number of pooled node threads.
    pub fn pmax(&self) -> usize {
        self.pmax
    }

    /// Whether a worker died and the pool will rebuild on the next run.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn teardown(&mut self) {
        let mut handles = Vec::new();
        for mut w in self.workers.drain(..) {
            if let Some(h) = w.handle.take() {
                handles.push(h);
            }
            // dropping `w` hangs up its job channel, unparking the thread
        }
        for h in handles {
            let _ = h.join();
        }
    }

    /// Retire every worker (dead or alive) and spawn a fresh pool.
    fn rebuild(&mut self) {
        self.teardown();
        self.workers = build_pool(self.pmax);
        self.broken = false;
        self.dirty = false; // fresh channels start empty
    }

    /// Execute one wave — a set of pairwise-independent prepared
    /// clauses, in program-ordinal order — concurrently on the pool. A
    /// solo clause is a 1-job wave.
    ///
    /// Every job reads the pre-wave arrays (independence guarantees each
    /// job's inputs equal its strict-sequential inputs) and its writes
    /// are staged ordinal-keyed; the host commits them job-by-job in
    /// program order, so the post-wave arrays are bitwise identical to
    /// running the jobs strictly sequentially. The whole wave is
    /// all-or-nothing: any job failing on any node leaves the arrays in
    /// their pre-wave state and reports the root-cause error.
    ///
    /// Returns one [`ExecReport`] per job, in wave order.
    pub fn run(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let Some(first) = jobs.first() else {
            return Ok(Vec::new());
        };
        for prepared in jobs {
            if prepared.plan.pmax.max(0) as usize != self.pmax {
                return Err(MachineError::PlanMismatch(format!(
                    "prepared plan spans {} processors, pool has {}",
                    prepared.plan.pmax, self.pmax
                )));
            }
        }
        if self.broken {
            self.rebuild();
        }
        let referenced = wave_arrays(jobs, arrays)?;
        for prepared in jobs {
            trace_plan(tracer, &prepared.plan);
        }
        let parts: Vec<Arc<BTreeMap<String, Vec<f64>>>> =
            disassemble(arrays, &referenced, first.plan.pmax)?
                .into_iter()
                .map(Arc::new)
                .collect();
        let handshake = self.dirty;
        let ctx = Arc::new(WaveCtx {
            jobs: jobs.to_vec(),
            opts,
            trace_on: tracer.enabled(),
            handshake,
        });
        let mut running = vec![false; self.pmax];
        for (p, w) in self.workers.iter().enumerate() {
            let sent = w
                .job_tx
                .send(Cmd::Wave(WaveJob {
                    ctx: Arc::clone(&ctx),
                    parts: Arc::clone(&parts[p]),
                }))
                .is_ok();
            running[p] = sent;
            if !sent {
                self.broken = true;
            }
        }
        if handshake {
            for (p, w) in self.workers.iter().enumerate() {
                if running[p] && !matches!(w.reply_rx.recv(), Ok(WorkerMsg::Ready)) {
                    // died between dispatch and ready: retire, run without it
                    self.broken = true;
                    running[p] = false;
                }
            }
            for (p, w) in self.workers.iter().enumerate() {
                if running[p] && w.job_tx.send(Cmd::Go).is_err() {
                    self.broken = true;
                    running[p] = false;
                }
            }
        }
        let mut replies: Vec<Result<WaveReply, MachineError>> = Vec::with_capacity(self.pmax);
        for (p, w) in self.workers.iter().enumerate() {
            let dead = Err(MachineError::NodePanicked { node: p as i64 });
            if !running[p] {
                replies.push(dead);
                continue;
            }
            match w.reply_rx.recv() {
                Ok(WorkerMsg::Done(reply)) => replies.push(Ok(*reply)),
                Ok(WorkerMsg::Ready) | Err(_) => {
                    // the thread died without replying (or broke the
                    // handshake): retire it and rebuild lazily next run
                    self.broken = true;
                    replies.push(dead);
                }
            }
        }
        // a failed node exits without draining, and a fault plan can
        // retransmit after `Done` — either way the next run must purge
        self.dirty = opts.faults.is_some()
            || replies.iter().any(|r| match r {
                Err(_) => true,
                Ok(wr) => wr.jobs.iter().any(|j| j.res.is_err()),
            });
        // every worker dropped its handle before replying; a clone is
        // needed only when a dead worker's handle is still in flight
        let master = parts
            .into_iter()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
            .collect();
        finalize_run(jobs, &referenced, master, replies, arrays, tracer)
    }
}

/// The union of the arrays a wave references, in first-reference order,
/// with the decomposition each job's plan was prepared against. Every
/// plan must still match the live images: a run against redistributed
/// images would scatter garbage.
pub(crate) fn wave_arrays<'a>(
    jobs: &'a [Arc<PreparedPlan>],
    arrays: &BTreeMap<String, DistArray>,
) -> Result<Vec<(&'a str, &'a Decomp1)>, MachineError> {
    let mut referenced: Vec<(&str, &Decomp1)> = Vec::new();
    for prepared in jobs {
        for name in &prepared.referenced {
            let dec = &prepared.decomps[name];
            let da = arrays
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            if da.decomp() != dec {
                return Err(MachineError::PlanMismatch(format!(
                    "array `{name}` was redistributed since the plan was prepared"
                )));
            }
            if !referenced.iter().any(|(n, _)| *n == name) {
                referenced.push((name, dec));
            }
        }
    }
    Ok(referenced)
}

/// The host-side tail of every run: replay the workers' buffered
/// traces, pick the root-cause error across all jobs × nodes, validate
/// *every* job's writes before committing *any* (all-or-nothing for the
/// whole wave), commit job-by-job in program-ordinal order into the
/// pre-wave parts, and reassemble the distributed images — on error
/// from the untouched parts, restoring pre-wave state. `replies[p]` is
/// node `p`'s reply, or the error that stands in for a node that never
/// replied.
pub(crate) fn finalize_run(
    jobs: &[Arc<PreparedPlan>],
    referenced: &[(&str, &Decomp1)],
    mut master: Vec<BTreeMap<String, Vec<f64>>>,
    mut replies: Vec<Result<WaveReply, MachineError>>,
    arrays: &mut BTreeMap<String, DistArray>,
    tracer: &dyn Tracer,
) -> Result<Vec<ExecReport>, MachineError> {
    if tracer.enabled() {
        // replies arrive in node order, and each buffer preserves its
        // node's recording order — the collecting tracer's canonical
        // (class, node, clock) sort sees the stream a live run records
        for wr in replies.iter_mut().flatten() {
            for (n, k) in wr.trace.events.drain(..) {
                tracer.record(n, k);
            }
            for (n, ph, d) in wr.trace.timings.drain(..) {
                tracer.timing(n, ph, d);
            }
        }
    }
    let commit_t0 = tracer.enabled().then(std::time::Instant::now);
    // a panic or a dead worker is the root cause and wins over the
    // secondary Unrecoverable/Missing* errors it induces on peers
    let root_cause = |e: &MachineError| {
        matches!(
            e,
            MachineError::NodePanicked { .. } | MachineError::Transport { .. }
        )
    };
    let mut first_err: Option<MachineError> = None;
    let mut consider = |e: &MachineError| match &first_err {
        None => first_err = Some(e.clone()),
        Some(have) if !root_cause(have) && root_cause(e) => first_err = Some(e.clone()),
        Some(_) => {}
    };
    for (p, r) in replies.iter().enumerate() {
        match r {
            Err(e) => consider(e),
            Ok(wr) if wr.jobs.len() != jobs.len() => {
                consider(&MachineError::PlanMismatch(format!(
                    "node {p} replied with {} job results for a {}-job wave",
                    wr.jobs.len(),
                    jobs.len()
                )));
            }
            Ok(wr) => {
                for jr in &wr.jobs {
                    if let Err(e) = &jr.res {
                        consider(e);
                    }
                }
            }
        }
    }

    // validate every write of every job before committing any
    if first_err.is_none() {
        'validate: for (j, job) in jobs.iter().enumerate() {
            let lhs = &job.plan.lhs_array;
            for (p, wr) in replies.iter().enumerate() {
                let Ok(wr) = wr else { continue };
                let len = master[p].get(lhs).map_or(0, Vec::len);
                for w in &wr.jobs[j].writes {
                    let bad = match w {
                        WriteOp::El(off, _) => (*off >= len).then_some((*off, 1usize)),
                        WriteOp::Dense { base, values } => {
                            (base + values.len() > len).then_some((*base, values.len()))
                        }
                    };
                    if let Some((off, span)) = bad {
                        first_err = Some(MachineError::PlanMismatch(format!(
                            "write span [{off}, {}) outside node {p}'s local part (len {len})",
                            off + span
                        )));
                        break 'validate;
                    }
                }
            }
        }
    }

    // commit staging is ordinal-keyed: job j's writes land before job
    // j+1's, so the final image equals strict sequential execution even
    // if two jobs wrote the same element (the DAG builder never
    // schedules such jobs in one wave; this is defense in depth)
    if first_err.is_none() {
        for (j, job) in jobs.iter().enumerate() {
            let lhs = &job.plan.lhs_array;
            for (p, wr) in replies.iter_mut().enumerate() {
                let (Ok(wr), Some(part)) = (wr, master[p].get_mut(lhs)) else {
                    continue;
                };
                for w in std::mem::take(&mut wr.jobs[j].writes) {
                    match w {
                        WriteOp::El(off, v) => part[off] = v, // validated above
                        WriteOp::Dense { base, values } => {
                            part[base..base + values.len()].copy_from_slice(&values)
                        }
                    }
                }
            }
        }
    }

    // reassemble (on error: the parts were never touched → pre-wave)
    for &(name, dec) in referenced {
        let parts: Vec<Vec<f64>> = master
            .iter_mut()
            .map(|m| m.remove(name).unwrap_or_default())
            .collect();
        arrays.insert(name.to_string(), DistArray::from_parts(dec.clone(), parts));
    }

    let pmax = replies.len();
    let mut reports: Vec<ExecReport> = jobs.iter().map(|_| ExecReport::default()).collect();
    for r in replies {
        match r {
            Ok(wr) => {
                for (report, jr) in reports.iter_mut().zip(wr.jobs) {
                    report.nodes.push(jr.stats);
                    report.traffic.push(jr.sent_to);
                }
            }
            Err(_) => {
                for report in &mut reports {
                    report.nodes.push(NodeStats::default());
                    report.traffic.push(vec![0u64; pmax]);
                }
            }
        }
    }
    if let Some(t0) = commit_t0 {
        tracer.timing(crate::obs::HOST, Phase::Commit, t0.elapsed());
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(reports),
    }
}

/// The one worker body every execution runs — pooled threads, and the
/// socket backends' worker processes with a 1-job list: per-job lanes
/// and seq windows derived from the jobs' plans, then two passes under
/// the panic supervisor — every job's send phase first (pre-posting all
/// boundary frames), then every job's update phase in wave order — and
/// one `Done` + drain for the whole wave. Pre-posting means an update's
/// receives almost never block on a peer still parked in an earlier
/// job, which matters most on an oversubscribed host. After any job
/// fails, the remaining jobs on this node are skipped (their results
/// carry the first failure) and the wave aborts all-or-nothing. A node
/// that panicked announces completion but services nothing — its unsent
/// data is gone, and peers surface that as
/// [`MachineError::Unrecoverable`].
pub(crate) fn run_jobs(
    p: i64,
    ep: &mut Endpoint<Wire>,
    scratch: &mut Scratch,
    buf: &BufTracer,
    jobs: &[Arc<PreparedPlan>],
    parts: &BTreeMap<String, Vec<f64>>,
    opts: &DistOptions,
) -> WaveReply {
    let pmax = ep.peer_count();
    let trace_on = buf.enabled();
    let Scratch {
        recv,
        vals,
        stack,
        send_trace,
    } = scratch;
    reset_recv(recv, jobs, p, opts.mode, pmax);
    let mut out: Vec<JobReply> = jobs
        .iter()
        .map(|_| JobReply {
            writes: Vec::new(),
            stats: NodeStats::default(),
            sent_to: vec![0u64; pmax],
            res: Ok(()),
        })
        .collect();
    let mut first_fail: Option<MachineError> = None;
    let mut panicked = false;
    // pass 1 — post *every* job's boundary sends before any update
    // phase blocks on a receive: on an oversubscribed host this turns
    // k send→recv thread handoffs into one wave-wide exchange. The
    // per-source seq-window cuts route early frames to the right job
    // lane, so arrival before the consuming job starts is fine.
    send_trace.clear();
    for (prepared, jr) in jobs.iter().zip(&mut out) {
        if first_fail.is_none() {
            let sent = catch_unwind(AssertUnwindSafe(|| {
                send_phase(
                    p,
                    parts,
                    prepared,
                    opts.mode,
                    ep,
                    &mut jr.stats,
                    &mut jr.sent_to,
                    buf,
                )
            }));
            if sent.is_err() {
                panicked = true;
                first_fail = Some(MachineError::NodePanicked { node: p });
            }
        }
        if trace_on {
            send_trace.push(buf.take());
        }
    }
    // pass 2 — run each job's update phase in wave order, consuming
    // through its lane. Buffered per-job events are emitted as
    // send-then-update per job, so the canonical trace is identical to
    // the interleaved schedule's.
    let mut trace = BufInner::default();
    for (j, (prepared, jr)) in jobs.iter().zip(&mut out).enumerate() {
        recv.cur = j;
        jr.res = match &first_fail {
            Some(e) => Err(e.clone()),
            None => catch_unwind(AssertUnwindSafe(|| {
                update_phase(
                    p,
                    parts,
                    prepared,
                    opts,
                    ep,
                    recv,
                    vals,
                    stack,
                    &mut jr.stats,
                    &mut jr.writes,
                    buf,
                )
            }))
            .unwrap_or_else(|_| {
                panicked = true;
                Err(MachineError::NodePanicked { node: p })
            }),
        };
        if let Err(e) = &jr.res {
            first_fail.get_or_insert_with(|| e.clone());
        }
        if trace_on {
            trace.append(std::mem::take(&mut send_trace[j]));
            trace.append(buf.take());
        }
    }
    ep.announce_done();
    if !panicked {
        // drain stats land on the wave's last job, as a solo run
        // charges its own drain
        let mut fallback = NodeStats::default();
        let dstats = out.last_mut().map_or(&mut fallback, |last| &mut last.stats);
        if trace_on {
            buf.record(p, EventKind::PhaseStart(Phase::Drain));
            let t0 = std::time::Instant::now();
            ep.drain(opts.recv_timeout, dstats);
            buf.timing(p, Phase::Drain, t0.elapsed());
            buf.record(p, EventKind::PhaseEnd(Phase::Drain));
            trace.append(buf.take());
        } else {
            ep.drain(opts.recv_timeout, dstats);
        }
    }
    WaveReply { jobs: out, trace }
}

impl Drop for DistExecutor {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Per-worker scratch reused (reset, not reallocated) across runs.
/// Shared with the process-backed pool (`crate::proc`), whose workers
/// carry one across jobs exactly like a pooled thread does.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The wave's receive lanes and sequence cuts.
    recv: WaveRecv,
    /// Operand values of the current iteration, one per read slot.
    vals: Vec<f64>,
    /// Kernel evaluation stack (compiled path).
    stack: Vec<f64>,
    /// Each job's buffered send-phase trace, held until its update
    /// phase has run (traced runs only).
    send_trace: Vec<BufInner>,
}

/// Size (and clear) the receive lanes and per-source sequence cuts for
/// one wave on node `p`, reusing the previous wave's buffers.
fn reset_recv(
    recv: &mut WaveRecv,
    jobs: &[Arc<PreparedPlan>],
    p: i64,
    mode: CommMode,
    pmax: usize,
) {
    let pu = p as usize;
    recv.cur = 0;
    if recv.lanes.len() < jobs.len() {
        recv.lanes.resize_with(jobs.len(), JobLane::default);
    }
    recv.cuts.resize_with(pmax, Vec::new);
    for col in &mut recv.cuts {
        col.clear();
        col.push(0);
    }
    for (lane, job) in recv.lanes.iter_mut().zip(jobs) {
        let cn = &job.compiled.nodes[pu];
        lane.src_ord.clear();
        lane.src_ord.extend_from_slice(&cn.src_ord);
        lane.pending.clear();
        lane.staging.resize_with(cn.staging_runs.len(), Vec::new);
        for (row, &nruns) in lane.staging.iter_mut().zip(&cn.staging_runs) {
            row.clear();
            row.resize(nruns, None);
        }
        // cumulative planned data frames per source: element mode sends
        // one frame per element, vectorized one per planned run —
        // mirrored exactly by the sender's send phase, which walks the
        // same pair sets in the same order
        for col in &mut recv.cuts {
            let last = col.last().copied().unwrap_or(0);
            col.push(last);
        }
        for pair in &job.plan.nodes[pu].comm.recvs {
            let frames = match mode {
                CommMode::Element => pair.runs.iter().map(|r| r.count.max(0) as u64).sum::<u64>(),
                CommMode::Vectorized => pair.runs.len() as u64,
            };
            let col = usize::try_from(pair.peer)
                .ok()
                .and_then(|src| recv.cuts.get_mut(src));
            if let Some(cut) = col.and_then(|c| c.last_mut()) {
                *cut += frames;
            }
        }
    }
}

/// The body of one pooled node thread: park on the job channel, and for
/// each wave reset the endpoint, run [`run_jobs`], and ship the reply
/// (with its buffered trace) back to the host.
fn worker_main(
    p: i64,
    txs: Vec<Sender<Frame<Wire>>>,
    data_rx: Receiver<Frame<Wire>>,
    job_rx: Receiver<Cmd>,
    reply_tx: Sender<WorkerMsg>,
) {
    let buf = BufTracer::new();
    let mut ep: Endpoint<Wire> = Endpoint::in_proc(p, txs, data_rx, None, &buf);
    let mut scratch = Scratch::default();
    while let Ok(cmd) = job_rx.recv() {
        let Cmd::Wave(WaveJob { ctx, parts }) = cmd else {
            continue; // stray Go (host retired us mid-handshake)
        };
        buf.set_enabled(ctx.trace_on);
        ep.reset(ctx.opts.faults, ctx.trace_on);
        if ctx.handshake {
            // discard frames a previous (failed or faulty) run left
            // behind; every peer finished that run before the host
            // dispatched this one, so anything buffered here is stale by
            // construction — and the Ready/Go barrier below keeps new
            // frames off the wire until every peer's purge is complete
            ep.purge_link();
            if reply_tx.send(WorkerMsg::Ready).is_err() {
                break; // host hung up
            }
            match job_rx.recv() {
                Ok(Cmd::Go) => {}
                Ok(Cmd::Wave(_)) | Err(_) => break, // handshake broken
            }
        }
        let reply = run_jobs(p, &mut ep, &mut scratch, &buf, &ctx.jobs, &parts, &ctx.opts);
        // release the parts before replying, so the host can take them
        // back without a copy
        drop(parts);
        if reply_tx.send(WorkerMsg::Done(Box::new(reply))).is_err() {
            break; // host hung up
        }
    }
}

/// The send phase of one node for one prepared clause:
/// `Reside_p ∩ Modify_q`, `q ≠ p`, driven from the compiled run tables.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_phase(
    p: i64,
    parts: &BTreeMap<String, Vec<f64>>,
    prepared: &PreparedPlan,
    mode: CommMode,
    ep: &mut Endpoint<Wire>,
    stats: &mut NodeStats,
    sent_to: &mut [u64],
    tracer: &dyn Tracer,
) {
    let plan = &prepared.plan;
    let node = &plan.nodes[p as usize];
    let cn = &prepared.compiled.nodes[p as usize];
    let decomps = &prepared.decomps;
    let dec_lhs = &prepared.dec_lhs;
    let trace_on = tracer.enabled();
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Send));
    }
    let send_t0 = trace_on.then(std::time::Instant::now);
    match mode {
        // the kernel exists iff every schedule is closed-form and the
        // expression compiled; naive-guard plans keep the literal
        // template's per-element ownership test
        CommMode::Element if prepared.compiled.kernel.is_some() => {
            send_phase_element_compiled(p, parts, node, cn, decomps, ep, stats, sent_to, tracer);
        }
        CommMode::Element => {
            for (slot, rp) in node.resides.iter().enumerate() {
                let Some(runs) = &cn.resides[slot] else {
                    continue; // replicated: never sent
                };
                stats.guard_tests += cn.reside_work[slot];
                let dec_r = &decomps[&rp.array];
                let local_part = &parts[&rp.array];
                for_each_run(runs, |i| {
                    let owner = dec_lhs.proc_of(plan.f.eval(i));
                    if owner != p {
                        let g = rp.g.eval(i);
                        let value = local_part[dec_r.local_of(g) as usize];
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
                    }
                });
            }
        }
        CommMode::Vectorized => {
            for pair in &node.comm.sends {
                for (run_ord, run) in pair.runs.iter().enumerate() {
                    let rp = &node.resides[run.slot];
                    let dec_r = &decomps[&rp.array];
                    let local_part = &parts[&rp.array];
                    let mut values = Vec::with_capacity(run.count as usize);
                    run.for_each(|i| {
                        values.push(local_part[dec_r.local_of(rp.g.eval(i)) as usize]);
                    });
                    let elems = values.len() as u64;
                    ep.send(pair.peer as usize, Wire::Pack { run_ord, values });
                    if trace_on {
                        tracer.record(
                            p,
                            EventKind::PackSend {
                                dst: pair.peer,
                                run: run_ord,
                                elems,
                                bytes: PACK_HEADER_BYTES + 8 * elems,
                            },
                        );
                    }
                    sent_to[pair.peer as usize] += elems;
                    stats.msgs_sent += elems;
                    stats.packets_sent += 1;
                    stats.bytes_sent += PACK_HEADER_BYTES + 8 * elems;
                    stats.max_packet_elems = stats.max_packet_elems.max(elems);
                }
            }
        }
    }
    ep.end_send_phase(); // flush delayed packets; crash point
    if let Some(t0) = send_t0 {
        tracer.timing(p, Phase::Send, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Send));
    }
}

/// The update phase of one node for one prepared clause: `Modify_p`,
/// with remote operands received through the current job's lane of
/// `rcv`. Local writes are *collected* into `writes`, not applied — the
/// host commits them only when the whole wave succeeded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_phase(
    p: i64,
    parts: &BTreeMap<String, Vec<f64>>,
    prepared: &PreparedPlan,
    opts: &DistOptions,
    ep: &mut Endpoint<Wire>,
    rcv: &mut WaveRecv,
    vals: &mut Vec<f64>,
    stack: &mut Vec<f64>,
    stats: &mut NodeStats,
    writes: &mut Vec<WriteOp>,
    tracer: &dyn Tracer,
) -> Result<(), MachineError> {
    let plan = &prepared.plan;
    let node = &plan.nodes[p as usize];
    let cn = &prepared.compiled.nodes[p as usize];
    let rexpr = &prepared.rexprs[p as usize];
    let rguard = &prepared.rguards[p as usize];
    let decomps = &prepared.decomps;
    let dec_lhs = &prepared.dec_lhs;
    stats.guard_tests += cn.modify_work;
    let trace_on = tracer.enabled();
    vals.clear();
    vals.resize(node.resides.len(), 0.0);

    // ---- update phase: Modify_p -----------------------------------------
    if trace_on {
        tracer.record(p, EventKind::PhaseStart(Phase::Update));
    }
    let update_t0 = trace_on.then(std::time::Instant::now);

    // compiled path: fused/bytecode kernels over the interior/boundary
    // exec runs — never touches the tree interpreter
    if let Some(kernel) = &prepared.compiled.kernel {
        stack.clear();
        stack.reserve(kernel.stack_capacity());
        let res = exec_update_phase(
            p, parts, node, cn, kernel, rguard, ep, rcv, vals, stack, opts, stats, writes, tracer,
        );
        if let Some(t0) = update_t0 {
            tracer.timing(p, Phase::Update, t0.elapsed());
            tracer.record(p, EventKind::PhaseEnd(Phase::Update));
        }
        return res;
    }

    writes.reserve(cn.modify_iters as usize);
    let mut err: Option<MachineError> = None;

    let n_slots = node.resides.len();
    for_each_run(&cn.modify, |i| {
        if err.is_some() {
            return;
        }
        stats.iterations += 1;
        #[allow(clippy::needless_range_loop)] // `vals[slot]` is written, not read
        for slot in 0..n_slots {
            let rp = &node.resides[slot];
            let g = rp.g.eval(i);
            let owner = if rp.replicated {
                p
            } else {
                decomps[&rp.array].proc_of(g)
            };
            vals[slot] = if owner == p {
                stats.local_reads += 1;
                parts[&rp.array][decomps[&rp.array].local_of(g) as usize]
            } else {
                let got = match opts.mode {
                    CommMode::Element => recv_element(ep, rcv, slot, i, owner, opts, stats),
                    CommMode::Vectorized => {
                        recv_packed(ep, rcv, &cn.src_peers, &cn.origin, slot, i, opts, stats)
                    }
                };
                match got {
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
                        err = Some(map_recv_fail(f, p, &rp.array, i, slot));
                        return;
                    }
                }
            };
        }
        stats.data_guards += 1;
        let guard_ok = match rguard {
            RGuard::Always => true,
            RGuard::Cmp { slot, op, rhs } => op.holds(vals[*slot], *rhs),
        };
        if guard_ok {
            let v = eval_rexpr(rexpr, i, vals);
            let target = plan.f.eval(i);
            writes.push(WriteOp::El(dec_lhs.local_of(target) as usize, v));
        }
    });
    if let Some(t0) = update_t0 {
        tracer.timing(p, Phase::Update, t0.elapsed());
        tracer.record(p, EventKind::PhaseEnd(Phase::Update));
    }

    err.map_or(Ok(()), Err)
}
