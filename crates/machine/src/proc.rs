//! Real-process workers: the host side ([`ProcPool`]) and the worker
//! side ([`run_worker_process`]) of the Uds/Tcp transport backends.
//!
//! Every node of the distributed machine becomes an OS process running
//! `<worker-bin> worker <addr> <node> <pmax> <hb_ms>` — the binary named by the
//! `VCAL_WORKER_BIN` environment variable, or the host's own executable
//! when unset (the `vcalc` driver implements the subcommand). Workers
//! dial the host's [`Router`] (or a [`ChaosProxy`] in front of it),
//! complete the version handshake, and park waiting for jobs.
//!
//! Serialization is *generative*: a [`JobMsg`] carries the clause, the
//! decompositions, the options, and the node's local memories — never a
//! plan. The worker rebuilds the `SpmdPlan` with the same deterministic
//! planner the host runs (and caches it by clause signature +
//! decomposition fingerprint, so a timestep loop replans exactly once
//! per worker). Sender packing order therefore equals receiver
//! expectation by construction, on every backend.
//!
//! Supervision (graceful degradation on peer death):
//!
//! * the host pairs every router event with `Child::try_wait` — a
//!   severed connection from a live process is reconnectable chaos; an
//!   exited process is a dead node;
//! * a dead node is reported as a typed [`MachineError::Transport`],
//!   its peers are released by synthesizing its `Done` frame
//!   ([`Router::broadcast_done`]), and the pre-run local memories the
//!   host kept restore the arrays through the usual all-or-nothing
//!   commit — arrays are untouched by a failed run;
//! * the pool itself survives: dead workers are respawned lazily at the
//!   next run, so the same session completes once the fault is gone.

use crate::codec::{Ctrl, JobMsg, ResultMsg};
use crate::darray::DistArray;
use crate::distributed::{disassemble, DistOptions, Wire};
use crate::error::MachineError;
use crate::executor::{
    finalize_run, prepare_run, run_jobs, wave_arrays, BufInner, BufTracer, JobReply, PreparedPlan,
    Scratch, WaveReply,
};
use crate::net::{ChaosProxy, Router, RouterEvent, SockLink};
use crate::obs::{trace_plan, Tracer};
use crate::stats::{ExecReport, NodeStats};
use crate::transport::{Endpoint, ProtoTimeouts, TransportKind};
use std::collections::BTreeMap;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcal_spmd::{clause_signature, decomp_fingerprint, SpmdPlan};

/// Node `p`'s reply, or the error that stands in for it.
type Collected = Result<WaveReply, MachineError>;

/// Resolve the worker executable: `VCAL_WORKER_BIN`, else this very
/// binary (which must implement the `worker` subcommand — `vcalc`
/// does).
fn worker_bin() -> Result<std::path::PathBuf, MachineError> {
    if let Some(b) = std::env::var_os("VCAL_WORKER_BIN") {
        return Ok(std::path::PathBuf::from(b));
    }
    std::env::current_exe().map_err(|e| MachineError::Transport {
        node: -1,
        detail: format!("cannot resolve worker binary: {e}"),
    })
}

/// A persistent pool of worker OS processes behind a [`Router`]
/// (optionally fronted by a [`ChaosProxy`]). The process analog of
/// [`crate::DistExecutor`]: spawn once, park between runs, purge under
/// a Ready/Go barrier when the previous run may have left frames on
/// the wire.
pub(crate) struct ProcPool {
    kind: TransportKind,
    chaos: Option<crate::net::ChaosPlan>,
    /// Protocol timeouts (spawn deadline, run grace, resend interval,
    /// worker heartbeat) — service-level configuration, part of the
    /// pool's cache identity so tightening them rebuilds the pool.
    timeouts: ProtoTimeouts,
    pmax: usize,
    router: Router,
    /// Keeps the proxy's accept loop alive for reconnects.
    _proxy: Option<ChaosProxy>,
    /// The address workers dial (the proxy's when chaos is on).
    dial_addr: String,
    children: Vec<Option<Child>>,
    /// The previous run may have left frames on the wire (it failed,
    /// injected faults, or ran under chaos): the next run must purge
    /// under the barrier.
    dirty: bool,
    /// Monotonic run counter; each run's [`JobMsg::run_id`]. Lets the
    /// host re-send a Job whose delivery is unconfirmed (the control
    /// plane is only reliable within one connection — a chaos sever can
    /// eat a queued Job or Go) while workers dedupe by id.
    run_seq: u64,
}

impl std::fmt::Debug for ProcPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcPool")
            .field("kind", &self.kind.name())
            .field("pmax", &self.pmax)
            .field("chaos", &self.chaos.is_some())
            .finish_non_exhaustive()
    }
}

impl ProcPool {
    /// Bind the router, optionally interpose the chaos proxy, spawn
    /// `pmax` worker processes, and wait for every handshake.
    pub fn new(
        kind: TransportKind,
        pmax: usize,
        chaos: Option<crate::net::ChaosPlan>,
        timeouts: ProtoTimeouts,
    ) -> Result<ProcPool, MachineError> {
        let router = Router::bind(kind, pmax)?;
        let (proxy, dial_addr) = match chaos {
            Some(plan) => {
                let proxy = ChaosProxy::spawn(kind, &router.addr, plan).map_err(|e| {
                    MachineError::Transport {
                        node: -1,
                        detail: format!("chaos proxy bind failed: {e}"),
                    }
                })?;
                let addr = proxy.addr.clone();
                (Some(proxy), addr)
            }
            None => (None, router.addr.clone()),
        };
        let mut pool = ProcPool {
            kind,
            chaos,
            timeouts,
            pmax,
            router,
            _proxy: proxy,
            dial_addr,
            children: (0..pmax).map(|_| None).collect(),
            dirty: false,
            run_seq: 0,
        };
        let all: Vec<usize> = (0..pmax).collect();
        for &p in &all {
            pool.spawn_worker(p)?;
        }
        pool.await_hellos(&all)?;
        Ok(pool)
    }

    /// Backend this pool runs on.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Chaos plan the pool was built with (part of its cache identity).
    pub fn chaos(&self) -> Option<crate::net::ChaosPlan> {
        self.chaos
    }

    /// Protocol timeouts the pool was built with (part of its cache
    /// identity — the worker heartbeat rides the spawn command line).
    pub fn timeouts(&self) -> ProtoTimeouts {
        self.timeouts
    }

    /// Number of worker processes.
    pub fn pmax(&self) -> usize {
        self.pmax
    }

    /// OS process ids of the live workers, in node order (test hook for
    /// killing a specific worker mid-run).
    pub fn pids(&self) -> Vec<u32> {
        self.children
            .iter()
            .filter_map(|c| c.as_ref().map(Child::id))
            .collect()
    }

    /// Spawn node `p`'s process with the argv [`run_worker_process`]
    /// parses: `worker <addr> <node> <pmax> <hb_ms>`.
    fn spawn_worker(&mut self, p: usize) -> Result<(), MachineError> {
        let child = Command::new(worker_bin()?)
            .arg("worker")
            .arg(&self.dial_addr)
            .arg(p.to_string())
            .arg(self.pmax.to_string())
            .arg(self.timeouts.heartbeat_ivl.as_millis().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| MachineError::Transport {
                node: p as i64,
                detail: format!("cannot spawn worker process: {e}"),
            })?;
        self.children[p] = Some(child);
        Ok(())
    }

    /// Wait until every listed node has completed the handshake,
    /// surfacing early worker deaths as typed errors.
    fn await_hellos(&mut self, nodes: &[usize]) -> Result<(), MachineError> {
        let mut waiting: Vec<usize> = nodes.to_vec();
        let deadline = Instant::now() + self.timeouts.spawn_deadline;
        while !waiting.is_empty() {
            if let Some(RouterEvent::Hello { node }) =
                self.router.recv_event(Duration::from_millis(100))
            {
                waiting.retain(|&w| w as i64 != node);
                continue;
            }
            for &p in &waiting {
                if let Some(status) = self.reap_if_dead(p) {
                    return Err(MachineError::Transport {
                        node: p as i64,
                        detail: format!("worker process exited during startup ({status})"),
                    });
                }
            }
            if Instant::now() > deadline {
                return Err(MachineError::Transport {
                    node: waiting[0] as i64,
                    detail: "worker process never completed the handshake".to_string(),
                });
            }
        }
        Ok(())
    }

    /// `Some(status)` if node `p`'s process has exited (reaping it).
    fn reap_if_dead(&mut self, p: usize) -> Option<String> {
        let child = self.children[p].as_mut()?;
        match child.try_wait() {
            Ok(Some(status)) => {
                self.children[p] = None;
                Some(status.to_string())
            }
            Ok(None) => None,
            Err(e) => {
                self.children[p] = None;
                Some(format!("unwaitable: {e}"))
            }
        }
    }

    /// Kill and reap node `p`'s process (hung-worker supervision).
    fn kill_worker(&mut self, p: usize) {
        if let Some(mut child) = self.children[p].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.router.disconnect(p as i64);
    }

    /// Execute `prepared` once on the worker processes as a 1-job wave.
    /// Same contract as [`crate::DistExecutor::run`]: bit-identical
    /// results and statistics to the in-process machine, typed errors,
    /// and the all-or-nothing commit that leaves arrays untouched on
    /// failure — including when a worker process dies mid-run.
    pub fn run(
        &mut self,
        prepared: &Arc<PreparedPlan>,
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let pmax = self.pmax;
        if prepared.plan.pmax.max(0) as usize != pmax {
            return Err(MachineError::PlanMismatch(format!(
                "prepared plan spans {} processors, pool has {pmax}",
                prepared.plan.pmax
            )));
        }
        let referenced = wave_arrays(std::slice::from_ref(prepared), arrays)?;

        // lazy respawn: replace workers that died since the last run
        let mut respawned = Vec::new();
        for p in 0..pmax {
            if self.reap_if_dead(p).is_some() || self.children[p].is_none() {
                self.router.disconnect(p as i64);
                self.spawn_worker(p)?;
                respawned.push(p);
                self.dirty = true; // peers may hold frames for the old incarnation
            }
        }
        if !respawned.is_empty() {
            self.await_hellos(&respawned)?;
        }

        trace_plan(tracer, &prepared.plan);
        // the pre-run memories stay host-side: the commit applies the
        // workers' writes to them, and a failed run reassembles them
        // untouched
        let master = disassemble(arrays, &referenced, prepared.plan.pmax)?;
        let trace_on = tracer.enabled();
        let handshake = self.dirty;

        // `running[p]`: the worker still owes us a protocol step
        let mut running = vec![true; pmax];
        let mut outcomes: Vec<Option<Collected>> = (0..pmax).map(|_| None).collect();
        let fail = |pool: &mut ProcPool,
                    running: &mut Vec<bool>,
                    outcomes: &mut Vec<Option<Collected>>,
                    p: usize,
                    detail: String| {
            pool.kill_worker(p);
            pool.router.broadcast_done(p as i64); // release waiting peers
            running[p] = false;
            outcomes[p] = Some(Err(MachineError::Transport {
                node: p as i64,
                detail,
            }));
        };

        // --- dispatch --------------------------------------------------
        // Delivery stays unconfirmed until the node answers (Ready under
        // a barrier, its Result otherwise), so keep every Job around for
        // re-sends; workers dedupe by `run_id` and a completed run is
        // re-answered from the worker's cache, never re-executed. A
        // failed send here is deferred, not fatal: the worker reconnects
        // and the re-send timer retries.
        self.run_seq += 1;
        let run_id = self.run_seq;
        let jobs: Vec<JobMsg> = master
            .iter()
            .map(|locals| JobMsg {
                run_id,
                clause: prepared.clause.clone(),
                decomps: prepared.decomps.clone(),
                recv_timeout: opts.recv_timeout,
                faults: opts.faults,
                mode: opts.mode,
                retry: opts.retry,
                overlap: opts.overlap,
                simd: opts.simd,
                trace_on,
                handshake,
                locals: locals.clone(),
            })
            .collect();
        let mut job_sent = vec![Instant::now(); pmax];
        for (p, job) in jobs.iter().enumerate() {
            let _ = self
                .router
                .send_ctrl(p as i64, &Ctrl::Job(Box::new(job.clone())));
        }

        // --- barrier (only after a dirty run): all purge before any send
        if handshake {
            let deadline = Instant::now() + self.timeouts.spawn_deadline;
            let mut ready = vec![false; pmax];
            while (0..pmax).any(|p| running[p] && !ready[p]) {
                match self.router.recv_event(Duration::from_millis(100)) {
                    Some(RouterEvent::Ctrl {
                        node,
                        ctrl: Ctrl::Ready(id),
                    }) if id == run_id => ready[node as usize] = true,
                    Some(RouterEvent::Eof { .. }) | Some(_) | None => {}
                }
                for p in 0..pmax {
                    if !running[p] || ready[p] {
                        continue;
                    }
                    if let Some(status) = self.reap_if_dead(p) {
                        fail(
                            self,
                            &mut running,
                            &mut outcomes,
                            p,
                            format!("worker process exited at the purge barrier ({status})"),
                        );
                    } else if job_sent[p].elapsed() > self.timeouts.resend_ivl {
                        job_sent[p] = Instant::now();
                        let _ = self
                            .router
                            .send_ctrl(p as i64, &Ctrl::Job(Box::new(jobs[p].clone())));
                    }
                }
                if Instant::now() > deadline {
                    for p in 0..pmax {
                        if running[p] && !ready[p] {
                            fail(
                                self,
                                &mut running,
                                &mut outcomes,
                                p,
                                "worker never reached the purge barrier".to_string(),
                            );
                        }
                    }
                }
            }
            for (p, live) in running.iter().enumerate() {
                if *live {
                    // Go delivery is unconfirmed too: a worker that loses
                    // it answers a re-sent Job with a fresh Ready, and
                    // the collect loop below re-issues Go.
                    let _ = self.router.send_ctrl(p as i64, &Ctrl::Go);
                }
            }
        }

        // --- collect ----------------------------------------------------
        // Workers bound their own waits (recv_timeout, retry deadline),
        // so the host deadline is a backstop against dead/hung processes
        // the event loop below didn't already catch.
        let retry_budget = opts.retry.deadline.unwrap_or(Duration::ZERO);
        let deadline =
            Instant::now() + opts.recv_timeout * 4 + retry_budget + self.timeouts.run_grace;
        while (0..pmax).any(|p| running[p]) {
            match self.router.recv_event(Duration::from_millis(50)) {
                Some(RouterEvent::Ctrl {
                    node,
                    ctrl: Ctrl::Result(r),
                }) if r.run_id == run_id => {
                    let p = node as usize;
                    if running[p] {
                        running[p] = false;
                        // the worker's echo of its locals is not needed:
                        // the host commits onto its own pre-run copy
                        let ResultMsg {
                            writes,
                            stats,
                            sent_to,
                            res,
                            events,
                            timings,
                            ..
                        } = *r;
                        outcomes[p] = Some(Ok(WaveReply {
                            jobs: vec![JobReply {
                                writes,
                                stats,
                                sent_to,
                                res,
                            }],
                            trace: BufInner { events, timings },
                        }));
                    }
                }
                Some(RouterEvent::Ctrl {
                    node,
                    ctrl: Ctrl::Ready(id),
                }) if id == run_id => {
                    // the worker answered a re-sent Job after the barrier
                    // closed: its Go was lost to a sever — repeat it
                    let _ = self.router.send_ctrl(node, &Ctrl::Go);
                }
                Some(RouterEvent::Eof { node }) => {
                    // EOF alone is not death: a chaos-severed worker
                    // reconnects. Only an exited process is dead.
                    let p = node as usize;
                    if running[p] {
                        if let Some(status) = self.reap_if_dead(p) {
                            fail(
                                self,
                                &mut running,
                                &mut outcomes,
                                p,
                                format!("worker process died mid-run ({status})"),
                            );
                        }
                    }
                }
                Some(_) | None => {}
            }
            for p in 0..pmax {
                if !running[p] {
                    continue;
                }
                if let Some(status) = self.reap_if_dead(p) {
                    fail(
                        self,
                        &mut running,
                        &mut outcomes,
                        p,
                        format!("worker process died mid-run ({status})"),
                    );
                } else if Instant::now() > deadline {
                    // unconditional backstop: heartbeats prove the
                    // process is alive, not that the run can finish
                    fail(
                        self,
                        &mut running,
                        &mut outcomes,
                        p,
                        "worker made no progress before the run deadline".to_string(),
                    );
                } else if job_sent[p].elapsed() > self.timeouts.resend_ivl {
                    job_sent[p] = Instant::now();
                    let _ = self
                        .router
                        .send_ctrl(p as i64, &Ctrl::Job(Box::new(jobs[p].clone())));
                }
            }
        }

        let replies: Vec<Collected> = outcomes
            .into_iter()
            .enumerate()
            .map(|(p, slot)| {
                slot.unwrap_or_else(|| {
                    Err(MachineError::Transport {
                        node: p as i64,
                        detail: "no result collected".to_string(),
                    })
                })
            })
            .collect();
        self.dirty = opts.faults.is_some()
            || self.chaos.is_some()
            || replies.iter().any(|r| match r {
                Err(_) => true,
                Ok(wr) => wr.jobs.iter().any(|j| j.res.is_err()),
            });
        finalize_run(
            std::slice::from_ref(prepared),
            &referenced,
            master,
            replies,
            arrays,
            tracer,
        )
    }
}

impl Drop for ProcPool {
    fn drop(&mut self) {
        for p in 0..self.pmax {
            let _ = self.router.send_ctrl(p as i64, &Ctrl::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        for p in 0..self.pmax {
            loop {
                if self.reap_if_dead(p).is_some() || self.children[p].is_none() {
                    break;
                }
                if Instant::now() > deadline {
                    self.kill_worker(p);
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

// ---------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------

/// The body of a worker process: parse the argv `ProcPool` spawns it
/// with (`<addr> <node> <pmax> <hb_ms>`, after the `worker`
/// subcommand), connect, handshake, then serve jobs until the host
/// shuts the link down. `hb_ms` is the host's
/// [`ProtoTimeouts::heartbeat_ivl`], which reaches the worker this way
/// without a wire-format change. Returns an error string suitable for
/// stderr + nonzero exit.
pub fn run_worker_process(argv: &[String]) -> Result<(), String> {
    let usage = || "usage: worker <addr> <node> <pmax> <hb_ms>".to_string();
    let [addr, node, pmax, hb_ms] = argv else {
        return Err(usage());
    };
    let node: i64 = node.parse().map_err(|_| usage())?;
    let pmax: usize = pmax.parse().map_err(|_| usage())?;
    let heartbeat_ivl = Duration::from_millis(hb_ms.parse().map_err(|_| usage())?);
    let mut link = SockLink::connect(addr, node, pmax)
        .map_err(|e| format!("worker {node}: cannot join session: {e}"))?;
    link.set_heartbeat_ivl(heartbeat_ivl);
    let mut cache: Vec<(u64, u64, Arc<PreparedPlan>)> = Vec::new();
    // last completed run, kept for idempotent re-dispatch: a duplicate
    // Job (the host never saw our result, or re-sent before it landed)
    // is answered from this cache, never re-executed
    let mut last_done: Option<ResultMsg> = None;
    let mut scratch = Scratch::default();
    loop {
        match link.recv_ctrl(true) {
            None => return Ok(()), // host gone past the reconnect budget
            Some(Ctrl::Shutdown) => return Ok(()),
            Some(Ctrl::Job(job)) => {
                if let Some(done) = last_done.as_ref().filter(|r| r.run_id == job.run_id) {
                    let done = done.clone();
                    if ship(&mut link, done).is_none() {
                        return Ok(());
                    }
                } else {
                    match serve_job(&mut link, node, pmax, *job, &mut cache, &mut scratch)? {
                        Some(done) => last_done = Some(done),
                        None => return Ok(()),
                    }
                }
            }
            Some(_) => {} // stray Ready/Go/Result: not ours to answer
        }
    }
}

/// Serve one job; the shipped result is handed back so the caller can
/// cache it for duplicate dispatches. `Ok(None)` means the host went
/// away mid-protocol and the worker should exit cleanly.
fn serve_job(
    link: &mut SockLink,
    p: i64,
    pmax: usize,
    job: JobMsg,
    cache: &mut Vec<(u64, u64, Arc<PreparedPlan>)>,
    scratch: &mut Scratch,
) -> Result<Option<ResultMsg>, String> {
    use crate::transport::Transport;

    // --- barrier first (the host waits for Ready before Go, whatever
    // the job's fate): purge frames a previous dirty run left behind
    if job.handshake {
        {
            let mut l: &mut SockLink = link;
            Transport::<Wire>::purge(&mut l);
        }
        if link.send_ctrl(&Ctrl::Ready(job.run_id)).is_err() {
            return Ok(None);
        }
        loop {
            match link.recv_ctrl(false) {
                Some(Ctrl::Go) => break,
                Some(Ctrl::Job(j)) if j.run_id == job.run_id => {
                    // the host re-sent the Job: our Ready was lost to a
                    // sever — answer again and keep waiting for Go
                    if link.send_ctrl(&Ctrl::Ready(job.run_id)).is_err() {
                        return Ok(None);
                    }
                }
                Some(Ctrl::Shutdown) | None => return Ok(None),
                Some(_) => {}
            }
        }
    }

    // --- plan: rebuild generatively, cached by (signature, fingerprint)
    let sig = clause_signature(&job.clause);
    let fp = decomp_fingerprint(&job.decomps, job.decomps.keys().map(String::as_str));
    let prepared = match cache.iter().find(|e| e.0 == sig && e.1 == fp) {
        Some(e) => Ok(Arc::clone(&e.2)),
        None => SpmdPlan::build(&job.clause, &job.decomps)
            .map_err(|e| MachineError::PlanMismatch(e.to_string()))
            .and_then(|plan| prepare_run(plan, &job.clause, &job.decomps))
            .map(|prep| {
                let prep = Arc::new(prep);
                cache.retain(|e| e.0 != sig);
                cache.push((sig, fp, Arc::clone(&prep)));
                prep
            }),
    };
    let prepared = match prepared {
        Ok(p) => p,
        Err(e) => {
            // a planning failure is a typed result, not a dead worker;
            // ship the untouched locals back so the host restores state
            return Ok(ship(
                link,
                ResultMsg {
                    run_id: job.run_id,
                    p,
                    locals: job.locals,
                    writes: Vec::new(),
                    stats: NodeStats::default(),
                    sent_to: vec![0u64; pmax],
                    res: Err(e),
                    events: Vec::new(),
                    timings: Vec::new(),
                },
            ));
        }
    };
    if prepared.plan.pmax.max(0) as usize != pmax || prepared.plan.nodes.len() != pmax {
        return Ok(ship(
            link,
            ResultMsg {
                run_id: job.run_id,
                p,
                locals: job.locals,
                writes: Vec::new(),
                stats: NodeStats::default(),
                sent_to: vec![0u64; pmax],
                res: Err(MachineError::PlanMismatch(format!(
                    "job plan spans {} processors, session has {pmax}",
                    prepared.plan.pmax
                ))),
                events: Vec::new(),
                timings: Vec::new(),
            },
        ));
    }

    // --- run: the pooled thread's worker body, over the socket
    let buf = BufTracer::new();
    buf.set_enabled(job.trace_on);
    let opts = DistOptions {
        recv_timeout: job.recv_timeout,
        faults: job.faults,
        mode: job.mode,
        retry: job.retry,
        overlap: job.overlap,
        simd: job.simd,
        transport: TransportKind::InProc, // the link IS the transport here
        chaos: None,
        timeouts: ProtoTimeouts::default(),
    };
    let reply = {
        let mut ep: Endpoint<Wire> = Endpoint::new(p, Box::new(&mut *link), job.faults, &buf);
        run_jobs(
            p,
            &mut ep,
            scratch,
            &buf,
            std::slice::from_ref(&prepared),
            &job.locals,
            &opts,
        )
    }; // endpoint drops; the link is ours again for the control plane
    let WaveReply { jobs, trace } = reply;
    let Some(JobReply {
        writes,
        stats,
        sent_to,
        res,
    }) = jobs.into_iter().next()
    else {
        unreachable!("a 1-job wave replies with one job result")
    };
    link.heartbeat(); // prove liveness before the (possibly large) result
    Ok(ship(
        link,
        ResultMsg {
            run_id: job.run_id,
            p,
            locals: job.locals,
            writes,
            stats,
            sent_to,
            res,
            events: trace.events,
            timings: trace.timings,
        },
    ))
}

/// Ship a result on the control plane, handing it back for the caller's
/// duplicate-dispatch cache. `None` means the send failed past the
/// reconnect budget — the host is gone and the worker should exit.
fn ship(link: &mut SockLink, result: ResultMsg) -> Option<ResultMsg> {
    let ctrl = Ctrl::Result(Box::new(result));
    let ok = link.send_ctrl(&ctrl).is_ok();
    let Ctrl::Result(result) = ctrl else {
        unreachable!("constructed as Result above")
    };
    ok.then_some(*result)
}
