//! A distributed-memory *session*: persistent distributed arrays plus the
//! plan/execute/redistribute cycle, so multi-clause programs (sweeps,
//! phase changes) read like the original algorithm.
//!
//! [`DistSession::run`] is the steady-state entry point: plans are
//! cached by `(clause signature, decomposition fingerprint)` and
//! executed on a persistent [`DistExecutor`] worker pool, so a clause
//! repeated in a timestep loop pays plan derivation, schedule
//! compilation, and thread spawning exactly once (see DESIGN.md §12).
//! [`DistSession::redistribute`] and any decomposition change invalidate
//! the cache. [`ExecReport::cache_hits`]/[`ExecReport::cache_misses`]
//! report which path a run took.
//!
//! Every reuse tier — plan cache, DAG cache, tune cache — is a bounded
//! LRU ([`vcal_spmd::BoundedLru`]) with an entry/byte budget, and each
//! tier can be **owned** (the classic per-session caches) or **shared**:
//! `vcalc serve` (DESIGN.md §18) hangs many concurrent sessions off one
//! `Arc<Mutex<SessionCaches>>` and one worker pool, with a per-tenant
//! namespace mixed into every key so tenants can never observe each
//! other's cache fate. Budget-pressure evictions surface on
//! [`ExecReport::evictions`] and [`ProgramReport::evictions`].

use crate::darray::DistArray;
use crate::distributed::DistOptions;
use crate::error::MachineError;
use crate::executor::{prepare_run, DistExecutor, PreparedPlan};
use crate::net::lock;
use crate::obs::{CollectingTracer, EventKind, Tracer, HOST, NULL_TRACER};
use crate::perfmodel::{CalibratedModel, CalibrationSample};
use crate::proc::ProcPool;
use crate::redistribute::run_redistribution;
use crate::stats::ExecReport;
use crate::transport::TransportKind;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use vcal_core::{Array, Clause, Env};
use vcal_decomp::{Decomp1, RedistPlan};
use vcal_spmd::{
    build_dag, candidate_for_assignment, clause_arrays, clause_signature, decomp_fingerprint,
    describe_assignment, enumerate_candidates, program_signature, BoundedLru, CacheBudget,
    DecompMap, ProgramDag, ProgramStep, SpmdPlan, TuneCandidate, TuneSpaceOptions,
};

/// Cache key of every tier: `(tenant namespace, signature, decomposition
/// fingerprint)`. Owned sessions use namespace 0; shared (serve-mode)
/// sessions mix in the tenant fingerprint, so two tenants submitting the
/// byte-identical program still occupy disjoint key spaces — the
/// cross-tenant isolation guarantee is structural, not advisory.
type CacheKey = (u64, u64, u64);

/// Approximate resident bytes charged per DAG edge/wave entry.
const DAG_ENTRY_BYTES: usize = 64;
/// Flat byte charge per cached tune price (the entry is a key + an f64).
const TUNE_ENTRY_BYTES: usize = 40;

/// The three bounded reuse tiers a session consults, owned directly or
/// shared behind a mutex by every session of a resident service.
#[derive(Debug)]
pub(crate) struct SessionCaches {
    /// Prepared plans by clause signature × clause-restricted fingerprint.
    plans: BoundedLru<CacheKey, Arc<PreparedPlan>>,
    /// Program dependence DAGs by program signature × fingerprint.
    dags: BoundedLru<CacheKey, Arc<ProgramDag>>,
    /// Tuner candidate prices by clause signature × candidate fingerprint.
    tunes: BoundedLru<CacheKey, f64>,
}

impl SessionCaches {
    /// Empty tiers sharing one budget (the tune tier gets a deeper entry
    /// budget — its entries are 40 bytes, not kilobytes, and a candidate
    /// sweep touches `budget × clauses` keys in one call).
    pub(crate) fn new(budget: CacheBudget) -> SessionCaches {
        let tune_budget = CacheBudget {
            max_entries: budget.max_entries.saturating_mul(16),
            max_bytes: budget.max_bytes,
        };
        SessionCaches {
            plans: BoundedLru::new(budget),
            dags: BoundedLru::new(budget),
            tunes: BoundedLru::new(tune_budget),
        }
    }

    /// Budget-pressure evictions across all three tiers, lifetime.
    pub(crate) fn evictions(&self) -> u64 {
        self.plans.evictions() + self.dags.evictions() + self.tunes.evictions()
    }
}

impl Default for SessionCaches {
    fn default() -> Self {
        SessionCaches::new(CacheBudget::default())
    }
}

/// Where a session's caches live.
#[derive(Debug)]
enum CacheHandle {
    /// Classic: this session owns its tiers (namespace 0). Boxed so the
    /// handle stays pointer-sized next to the shared arm.
    Owned(Box<SessionCaches>),
    /// Serve mode: tiers shared across sessions, keys namespaced by the
    /// tenant fingerprint.
    Shared {
        caches: Arc<Mutex<SessionCaches>>,
        ns: u64,
    },
}

impl CacheHandle {
    /// Run `f` against the tiers with this session's namespace. The
    /// shared arm holds the mutex only for the closure — callers build
    /// plans *outside* it so tenants never serialize behind each other's
    /// planning.
    fn with<R>(&mut self, f: impl FnOnce(&mut SessionCaches, u64) -> R) -> R {
        match self {
            CacheHandle::Owned(c) => f(c, 0),
            CacheHandle::Shared { caches, ns } => f(&mut lock(caches), *ns),
        }
    }
}

/// The execution backends a session dispatches onto: the in-process
/// thread pool and/or the socket-backend worker-process pool, created
/// lazily and identified by `(backend, pmax, chaos, timeouts)`.
#[derive(Debug, Default)]
pub(crate) struct PoolState {
    pool: Option<DistExecutor>,
    procs: Option<ProcPool>,
}

impl PoolState {
    /// Execute one wave of prepared clauses on whichever backend `opts`
    /// selects, (re)creating the pool when its identity no longer
    /// matches. The socket backends have no shared-memory wave fan-out:
    /// they run the jobs one after another, each its own 1-job wave.
    fn run(
        &mut self,
        jobs: &[Arc<PreparedPlan>],
        arrays: &mut BTreeMap<String, DistArray>,
        opts: DistOptions,
        tracer: &dyn Tracer,
    ) -> Result<Vec<ExecReport>, MachineError> {
        let pmax = jobs.first().map_or(0, |j| j.plan().pmax);
        if opts.transport != TransportKind::InProc {
            // socket backend: real worker processes behind the router;
            // the pool's identity is (backend, pmax, chaos plan, timeouts)
            let want = pmax.max(0) as usize;
            if self.procs.as_ref().is_some_and(|pp| {
                pp.kind() != opts.transport
                    || pp.pmax() != want
                    || pp.chaos() != opts.chaos
                    || pp.timeouts() != opts.timeouts
            }) {
                self.procs = None;
            }
            if self.procs.is_none() {
                self.procs = Some(ProcPool::new(
                    opts.transport,
                    want,
                    opts.chaos,
                    opts.timeouts,
                )?);
            }
            let procs = match self.procs.as_mut() {
                Some(pp) => pp,
                None => unreachable!("process pool created above"),
            };
            let mut reports = Vec::with_capacity(jobs.len());
            for job in jobs {
                reports.append(&mut procs.run(job, arrays, opts, tracer)?);
            }
            return Ok(reports);
        }
        self.inproc(pmax).run(jobs, arrays, opts, tracer)
    }

    /// The in-process pool for `pmax` nodes, recreated on a size change.
    fn inproc(&mut self, pmax: i64) -> &mut DistExecutor {
        if self
            .pool
            .as_ref()
            .is_some_and(|pool| pool.pmax() != pmax.max(0) as usize)
        {
            self.pool = None;
        }
        self.pool.get_or_insert_with(|| DistExecutor::new(pmax))
    }

    /// OS pids of the live worker processes (empty off the socket
    /// backends).
    fn pids(&self) -> Vec<u32> {
        self.procs.as_ref().map(ProcPool::pids).unwrap_or_default()
    }
}

/// Where a session's execution pools live — owned, or shared by every
/// session of a resident service (requests then serialize on the pool,
/// which is the point: one pool, many tenants).
#[derive(Debug)]
enum PoolHandle {
    Owned(Box<PoolState>),
    Shared(Arc<Mutex<PoolState>>),
}

impl PoolHandle {
    fn with<R>(&mut self, f: impl FnOnce(&mut PoolState) -> R) -> R {
        match self {
            PoolHandle::Owned(p) => f(p),
            PoolHandle::Shared(m) => f(&mut lock(m)),
        }
    }
}

/// How [`DistSession::run_program`] orders a multi-clause program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Strict program order, one step at a time — the differential
    /// oracle every other schedule must match bitwise.
    #[default]
    Seq,
    /// Dependence-DAG wave schedule: pairwise-independent steps share a
    /// wave and execute concurrently on the persistent worker pool,
    /// with ordinal-keyed commits for bit-identical results.
    Dag,
}

/// What one [`DistSession::run_program`] call did: per-step execution
/// reports (program order) plus the schedule's shape and cache fate.
#[derive(Debug, Default)]
pub struct ProgramReport {
    /// One [`ExecReport`] per program step, in program order.
    pub steps: Vec<ExecReport>,
    /// Waves executed (equals `steps.len()` under [`ScheduleMode::Seq`]).
    pub waves: usize,
    /// Dependence edges in the program DAG (0 under `Seq`).
    pub dag_edges: usize,
    /// Widest wave — peak concurrently-dispatched steps (1 under `Seq`).
    pub dag_width: usize,
    /// Whether the program DAG came from the session's DAG cache.
    pub dag_cache_hits: u64,
    /// Whether the program DAG had to be built this call.
    pub dag_cache_misses: u64,
    /// Candidate decompositions the auto-tuner priced with the
    /// calibrated cost model (0 outside [`DistSession::run_program_tuned`]).
    pub candidates_priced: u64,
    /// Redistribution steps the auto-tuner inserted because a layout
    /// switch was predicted to amortize (0 outside the tuned path).
    pub redistributions_inserted: u64,
    /// Per-clause candidate prices served from the session's tune
    /// cache instead of being re-priced (0 outside the tuned path).
    pub tune_cache_hits: u64,
    /// Cache entries (any tier) evicted by budget pressure during this
    /// call — LRU retirement, not fingerprint invalidation.
    pub evictions: u64,
}

/// Auto-tuner configuration for [`DistSession::run_program_tuned`].
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Maximum candidates priced with the calibrated model (the
    /// `--tune-budget`; the incumbent assignment is always priced).
    pub budget: usize,
    /// Warm steps profiled (traced) before tuning; clamped to the step
    /// count. The first profiled step is cold (plans build); only warm
    /// profiles feed calibration when more than one step runs.
    pub profile_steps: u64,
    /// Re-profile and re-tune every `N` steps (the `--retune-every`
    /// flag): the timestep loop is cut into rounds of at most `N`
    /// steps, each starting with a fresh profile→calibrate→price pass,
    /// so a very long loop adapts to drift (cache effects, host load,
    /// layout changes a previous round made). `None` tunes once for
    /// the whole loop — the classic behavior.
    pub retune_every: Option<u64>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            budget: 16,
            profile_steps: 2,
            retune_every: None,
        }
    }
}

/// What one auto-tuned program run decided and why.
#[derive(Debug, Clone, Default)]
pub struct TuneReport {
    /// Candidate assignments priced with the calibrated model (summed
    /// over every retune round).
    pub candidates_priced: u64,
    /// Per-clause prices served from the tune cache.
    pub tune_cache_hits: u64,
    /// Redistribution steps inserted (arrays whose layout switched).
    pub redistributions_inserted: u64,
    /// Tuning rounds executed (1 unless [`TuneOptions::retune_every`]
    /// cut the loop).
    pub rounds: u64,
    /// Human description of the chosen assignment (last round's).
    pub chosen: String,
    /// Whether any round switched away from its incumbent layout.
    pub switched: bool,
    /// Whether the model constants were fit from measured trace
    /// timings (`false`: degenerate profile, era-default ratios used).
    pub calibrated: bool,
    /// Predicted per-step critical path of the chosen assignment (ns).
    pub predicted_step_ns: f64,
    /// Predicted per-step critical path of the incumbent (ns).
    pub baseline_step_ns: f64,
    /// Predicted per-step critical path of the worst priced candidate (ns).
    pub worst_step_ns: f64,
    /// Predicted cost of the inserted redistributions (ns; 0 if none).
    pub switch_cost_ns: f64,
    /// Measured wall-clock of the last profiled step (ns).
    pub measured_step_ns: f64,
    /// |predicted − measured| / measured for the incumbent on the last
    /// profiled step — how honest the calibrated model is about the
    /// layout it actually observed.
    pub model_error: f64,
}

/// Persistent distributed state for a whole program.
#[derive(Debug)]
pub struct DistSession {
    arrays: BTreeMap<String, DistArray>,
    decomps: DecompMap,
    opts: DistOptions,
    caches: CacheHandle,
    pools: PoolHandle,
}

impl DistSession {
    /// Scatter every array of `env` according to `decomps`.
    /// Arrays without a decomposition entry are ignored.
    pub fn new(env: &Env, decomps: DecompMap) -> Result<DistSession, MachineError> {
        let mut arrays = BTreeMap::new();
        for (name, dec) in &decomps {
            let global = env
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            if global.bounds() != dec.extent() {
                return Err(MachineError::PlanMismatch(format!(
                    "array `{name}` has bounds {} but decomposition extent {}",
                    global.bounds(),
                    dec.extent()
                )));
            }
            arrays.insert(name.clone(), DistArray::scatter_from(global, dec.clone()));
        }
        Ok(DistSession {
            arrays,
            decomps,
            opts: DistOptions::default(),
            caches: CacheHandle::Owned(Box::default()),
            pools: PoolHandle::Owned(Box::default()),
        })
    }

    /// A serve-mode session: same distributed state as
    /// [`DistSession::new`], but every cache tier and the worker pool
    /// are shared with other sessions, and all cache keys carry the
    /// tenant namespace `ns` (see DESIGN.md §18).
    pub(crate) fn new_shared(
        env: &Env,
        decomps: DecompMap,
        opts: DistOptions,
        caches: Arc<Mutex<SessionCaches>>,
        ns: u64,
        pools: Arc<Mutex<PoolState>>,
    ) -> Result<DistSession, MachineError> {
        let mut s = DistSession::new(env, decomps)?;
        s.opts = opts;
        s.caches = CacheHandle::Shared { caches, ns };
        s.pools = PoolHandle::Shared(pools);
        Ok(s)
    }

    /// Replace the (owned) cache tiers with empty ones under `budget` —
    /// builder form, for sessions expected to sweep many more distinct
    /// clauses or layouts than the default budget holds. No-op on a
    /// shared-cache session (the service owns that budget).
    pub fn with_cache_budget(mut self, budget: CacheBudget) -> DistSession {
        if let CacheHandle::Owned(c) = &mut self.caches {
            **c = SessionCaches::new(budget);
        }
        self
    }

    /// Override the execution options (timeouts, fault injection).
    pub fn with_options(mut self, opts: DistOptions) -> DistSession {
        self.opts = opts;
        self
    }

    /// Replace the execution options in place (e.g. clear a fault plan
    /// after a crashed run). Cached plans stay valid — they depend only
    /// on clauses and decompositions, never on options.
    pub fn set_options(&mut self, opts: DistOptions) {
        self.opts = opts;
    }

    /// The current decomposition of `name`.
    pub fn decomp_of(&self, name: &str) -> Option<&Decomp1> {
        self.decomps.get(name)
    }

    /// Plan and execute one `//` clause against the session state.
    ///
    /// Steady-state: the prepared plan is cached and the execution runs
    /// on the session's persistent worker pool, so calling this in a
    /// timestep loop hits the warm path automatically after the first
    /// iteration. Results are bit-identical to the cold
    /// [`crate::run_distributed`] path.
    ///
    /// Plan derivation, every machine phase, and all transport traffic
    /// are recorded through `tracer`.
    pub fn run(
        &mut self,
        clause: &Clause,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        let (prepared, hit, evicted) = self.prepare_cached(clause)?;
        let DistSession {
            arrays,
            opts,
            pools,
            ..
        } = self;
        let mut report = pools
            .with(|p| p.run(std::slice::from_ref(&prepared), arrays, *opts, tracer))?
            .pop()
            .ok_or_else(|| MachineError::PlanMismatch("a 1-job wave produced no report".into()))?;
        report.cache_hits = u64::from(hit);
        report.cache_misses = u64::from(!hit);
        report.evictions = evicted;
        Ok(report)
    }

    /// Look up (or build and cache) the prepared plan for one clause.
    /// Returns the plan, whether it was a cache hit, and how many
    /// entries the insertion evicted under budget pressure.
    fn prepare_cached(
        &mut self,
        clause: &Clause,
    ) -> Result<(Arc<PreparedPlan>, bool, u64), MachineError> {
        let sig = clause_signature(clause);
        let names = clause_arrays(clause);
        let fp = decomp_fingerprint(&self.decomps, names.iter().map(String::as_str));
        if let Some(p) = self
            .caches
            .with(|c, ns| c.plans.get(&(ns, sig, fp)).cloned())
        {
            return Ok((p, true, 0));
        }
        // build OUTSIDE the shared lock: planning is exactly the
        // expensive part the cache exists to amortize, and one tenant's
        // cold miss must not serialize every other tenant's lookups
        let plan = SpmdPlan::build(clause, &self.decomps)
            .map_err(|e| MachineError::PlanMismatch(e.to_string()))?;
        let prepared = Arc::new(prepare_run(plan, clause, &self.decomps)?);
        let bytes = prepared.approx_bytes();
        // distinct fingerprints of one clause coexist (shared tiers see
        // several layouts per tenant at once); a session's own stale
        // entries are retired by redistribute, the only fingerprint
        // churn an owned session can have. LRU pressure bounds the rest.
        let evicted = self.caches.with(|c, ns| {
            let before = c.plans.evictions();
            c.plans.insert((ns, sig, fp), Arc::clone(&prepared), bytes);
            c.plans.evictions() - before
        });
        Ok((prepared, false, evicted))
    }

    /// Look up (or build and cache) the dependence DAG for a program.
    /// Returns the DAG, whether it was a cache hit, and eviction count.
    fn dag_cached(&mut self, steps: &[ProgramStep]) -> (Arc<ProgramDag>, bool, u64) {
        let sig = program_signature(steps);
        let names: BTreeSet<String> = steps.iter().flat_map(ProgramStep::arrays).collect();
        let fp = decomp_fingerprint(&self.decomps, names.iter().map(String::as_str));
        if let Some(d) = self
            .caches
            .with(|c, ns| c.dags.get(&(ns, sig, fp)).cloned())
        {
            return (d, true, 0);
        }
        let dag = Arc::new(build_dag(steps, &self.decomps));
        let bytes = (dag.edges.len() + steps.len()) * DAG_ENTRY_BYTES;
        // as with plans: distinct fingerprints of one program coexist,
        // so shared tiers serve several layouts per tenant concurrently
        let evicted = self.caches.with(|c, ns| {
            let before = c.dags.evictions();
            c.dags.insert((ns, sig, fp), Arc::clone(&dag), bytes);
            c.dags.evictions() - before
        });
        (dag, false, evicted)
    }

    /// Execute a whole multi-step program under a [`ScheduleMode`].
    ///
    /// [`ScheduleMode::Seq`] runs the steps in strict program order —
    /// each clause through the cached warm path, each redistribution
    /// as [`DistSession::redistribute`] does — and is the differential
    /// oracle. [`ScheduleMode::Dag`] builds (or recalls from the DAG
    /// cache) the program's dependence DAG and executes it wave by
    /// wave: pairwise-independent clauses of one wave are dispatched
    /// together to the persistent pool, which (in-process) pipelines
    /// clause *k+1*'s sends behind clause *k*'s boundary runs and
    /// commits per-clause writes in ordinal order, so the results are
    /// bit-identical to `Seq`. Redistribution steps always run
    /// host-side, sequentially within their wave. A socket-backend
    /// pool ([`TransportKind::Uds`]/`Tcp`) has no shared-memory wave
    /// fan-out and runs a wave's clauses one after another, in the
    /// same ordinal order.
    ///
    /// With an enabled tracer the host records a deterministic
    /// `dag_ready` event per wave member at wave entry, `clause_begin`
    /// when a step is dispatched, and `clause_end` when its writes have
    /// committed — [`crate::obs::replay_check_dag`] re-validates that
    /// ordering against the DAG.
    pub fn run_program(
        &mut self,
        steps: &[ProgramStep],
        schedule: ScheduleMode,
        tracer: &dyn Tracer,
    ) -> Result<ProgramReport, MachineError> {
        match schedule {
            ScheduleMode::Seq => self.run_program_seq(steps, tracer),
            ScheduleMode::Dag => self.run_program_dag(steps, tracer),
        }
    }

    fn run_program_seq(
        &mut self,
        steps: &[ProgramStep],
        tracer: &dyn Tracer,
    ) -> Result<ProgramReport, MachineError> {
        let trace_on = tracer.enabled();
        let mut reports = Vec::with_capacity(steps.len());
        let mut evictions = 0;
        for (s, step) in steps.iter().enumerate() {
            if trace_on {
                tracer.record(HOST, EventKind::DagReady { step: s });
                tracer.record(HOST, EventKind::ClauseBegin { step: s });
            }
            let report = match step {
                ProgramStep::Clause(c) => self.run(c, tracer)?,
                ProgramStep::Redistribute { array, to } => {
                    self.redistribute_traced(array, to.clone(), tracer)?
                }
            };
            if trace_on {
                tracer.record(HOST, EventKind::ClauseEnd { step: s });
            }
            evictions += report.evictions;
            reports.push(report);
        }
        Ok(ProgramReport {
            waves: steps.len(),
            dag_width: 1,
            steps: reports,
            evictions,
            ..ProgramReport::default()
        })
    }

    fn run_program_dag(
        &mut self,
        steps: &[ProgramStep],
        tracer: &dyn Tracer,
    ) -> Result<ProgramReport, MachineError> {
        let (dag, dag_hit, mut evictions) = self.dag_cached(steps);
        let trace_on = tracer.enabled();
        let mut reports: Vec<Option<ExecReport>> = (0..steps.len()).map(|_| None).collect();
        for wave in &dag.waves {
            if trace_on {
                for &s in wave {
                    tracer.record(HOST, EventKind::DagReady { step: s });
                }
            }
            // redistributions first: host-side, sequential. A wave is
            // pairwise independent, so no clause of this wave touches a
            // redistributed array — order within the wave is free.
            let mut clause_steps: Vec<(usize, &Clause)> = Vec::new();
            for &s in wave {
                match &steps[s] {
                    ProgramStep::Redistribute { array, to } => {
                        if trace_on {
                            tracer.record(HOST, EventKind::ClauseBegin { step: s });
                        }
                        let r = self.redistribute_traced(array, to.clone(), tracer)?;
                        if trace_on {
                            tracer.record(HOST, EventKind::ClauseEnd { step: s });
                        }
                        reports[s] = Some(r);
                    }
                    ProgramStep::Clause(c) => clause_steps.push((s, c)),
                }
            }
            if clause_steps.is_empty() {
                continue;
            }
            // prepare every member (plans are built lazily per wave so
            // they see post-redistribution layouts), then dispatch the
            // whole wave at once
            let mut jobs = Vec::with_capacity(clause_steps.len());
            let mut hits = Vec::with_capacity(clause_steps.len());
            for &(_, c) in &clause_steps {
                let (prepared, hit, ev) = self.prepare_cached(c)?;
                jobs.push(prepared);
                hits.push(hit);
                evictions += ev;
            }
            if trace_on {
                for &(s, _) in &clause_steps {
                    tracer.record(HOST, EventKind::ClauseBegin { step: s });
                }
            }
            let DistSession {
                arrays,
                opts,
                pools,
                ..
            } = self;
            let wave_reports = pools.with(|p| p.run(&jobs, arrays, *opts, tracer))?;
            if trace_on {
                for &(s, _) in &clause_steps {
                    tracer.record(HOST, EventKind::ClauseEnd { step: s });
                }
            }
            for (((s, _), mut r), hit) in clause_steps.iter().zip(wave_reports).zip(hits) {
                r.cache_hits = u64::from(hit);
                r.cache_misses = u64::from(!hit);
                reports[*s] = Some(r);
            }
        }
        let steps_out = reports.into_iter().map(|r| r.unwrap_or_default()).collect();
        Ok(ProgramReport {
            steps: steps_out,
            waves: dag.waves.len(),
            dag_edges: dag.edges.len(),
            dag_width: dag.width(),
            dag_cache_hits: u64::from(dag_hit),
            dag_cache_misses: u64::from(!dag_hit),
            evictions,
            ..ProgramReport::default()
        })
    }

    /// Price one candidate's program cost (sum of per-clause critical
    /// paths) through the session tune cache: a (clause signature,
    /// clause-restricted decomposition fingerprint) pair that was
    /// already priced — by this candidate or an earlier one differing
    /// only in untouched arrays — is served from the cache.
    fn price_candidate(
        &mut self,
        clauses: &[&Clause],
        cand: &TuneCandidate,
        model: &CalibratedModel,
        hits: &mut u64,
    ) -> f64 {
        let mut total = 0.0;
        for (clause, plan) in clauses.iter().zip(&cand.plans) {
            let sig = clause_signature(clause);
            let names = clause_arrays(clause);
            let fp = decomp_fingerprint(&cand.decomps, names.iter().map(String::as_str));
            if let Some(p) = self
                .caches
                .with(|c, ns| c.tunes.get(&(ns, sig, fp)).copied())
            {
                *hits += 1;
                total += p;
                continue;
            }
            let price_ns = model.price_plan(plan, self.opts.mode).total_ns;
            self.caches
                .with(|c, ns| c.tunes.insert((ns, sig, fp), price_ns, TUNE_ENTRY_BYTES));
            total += price_ns;
        }
        total
    }

    /// Execute an `n_steps` timestep loop of `steps` with the
    /// cost-driven decomposition auto-tuner in the loop (DESIGN.md §17):
    ///
    /// 1. **Profile** — the first `profile_steps` iterations run under
    ///    the incumbent decompositions with an internal tracer; their
    ///    counters and measured per-phase wall-clock calibrate the §4
    ///    cost model's constants ([`CalibratedModel::fit`]).
    /// 2. **Search** — the candidate space (Block / Scatter /
    ///    BlockScatter(b) per array, bounded by `budget`) is priced per
    ///    clause from plans alone through the session tune cache; the
    ///    incumbent is always priced for the stay/switch comparison.
    /// 3. **Switch** — if the predicted per-step gain of the argmin
    ///    candidate, amortized over the remaining steps, exceeds the
    ///    predicted cost of redistributing every array whose layout
    ///    changes, the redistributions are inserted (executed
    ///    immediately, mid-program) and the loop continues under the
    ///    new layout.
    ///
    /// With [`TuneOptions::retune_every`] set to `N`, the loop is cut
    /// into rounds of at most `N` steps and the whole
    /// profile→calibrate→price→switch pass reruns at each round
    /// boundary, so very long loops re-adapt mid-flight; gains are
    /// always amortized over *all* steps remaining in the loop, not
    /// just the current round.
    ///
    /// Results are bitwise identical to running the same `n_steps`
    /// loop untuned — redistribution moves values without transforming
    /// them, and every candidate executes bit-identically to the
    /// sequential reference — so the tuner can never trade correctness
    /// for speed. The returned [`ProgramReport`] is the last step's,
    /// with the tuner counters filled in; the [`TuneReport`] records
    /// what the search saw and decided.
    ///
    /// Programs that already contain explicit [`ProgramStep::Redistribute`]
    /// steps are rejected ([`MachineError::PlanMismatch`]): a
    /// mid-program layout change contradicts the tuner's
    /// one-assignment-per-loop candidate model.
    pub fn run_program_tuned(
        &mut self,
        steps: &[ProgramStep],
        n_steps: u64,
        schedule: ScheduleMode,
        topts: TuneOptions,
        tracer: &dyn Tracer,
    ) -> Result<(ProgramReport, TuneReport), MachineError> {
        if n_steps == 0 {
            return Err(MachineError::PlanMismatch(
                "tuned timestep loop needs at least one step".into(),
            ));
        }
        for s in steps {
            if let ProgramStep::Redistribute { array, .. } = s {
                return Err(MachineError::PlanMismatch(format!(
                    "cannot tune a program with an explicit redistribution (array `{array}`)"
                )));
            }
        }
        let mut tune = TuneReport::default();
        let mut hits = 0u64;
        let mut last_report = None;
        let mut remaining_total = n_steps;
        while remaining_total > 0 {
            let round = match topts.retune_every {
                Some(r) => r.max(1).min(remaining_total),
                None => remaining_total,
            };
            self.tune_round(
                steps,
                round,
                remaining_total,
                schedule,
                &topts,
                tracer,
                &mut tune,
                &mut hits,
                &mut last_report,
            )?;
            tune.rounds += 1;
            remaining_total -= round;
        }
        let mut report = match last_report {
            Some(r) => r,
            None => self.run_program(steps, schedule, tracer)?,
        };
        report.candidates_priced = tune.candidates_priced;
        report.redistributions_inserted = tune.redistributions_inserted;
        report.tune_cache_hits = hits;
        tune.tune_cache_hits = hits;
        Ok((report, tune))
    }

    /// One profile→calibrate→price→switch→run round of the tuned loop:
    /// executes `round` steps total, amortizing any layout switch over
    /// `remaining_total` (the steps left in the *whole* loop, later
    /// rounds included — a switch pays off across round boundaries).
    #[allow(clippy::too_many_arguments)]
    fn tune_round(
        &mut self,
        steps: &[ProgramStep],
        round: u64,
        remaining_total: u64,
        schedule: ScheduleMode,
        topts: &TuneOptions,
        tracer: &dyn Tracer,
        tune: &mut TuneReport,
        hits: &mut u64,
        last_report: &mut Option<ProgramReport>,
    ) -> Result<(), MachineError> {
        let clauses: Vec<&Clause> = steps
            .iter()
            .filter_map(|s| match s {
                ProgramStep::Clause(c) => Some(c),
                ProgramStep::Redistribute { .. } => None,
            })
            .collect();

        // 1. profile: run the leading steps traced, collect one
        // calibration sample per step. The first step is cold (plans
        // build, pools spawn) — when more than one profile step runs,
        // only the warm ones feed the fit.
        let profile = topts.profile_steps.clamp(1, round);
        let mut samples = Vec::new();
        let mut measured_ns = 0.0;
        for _ in 0..profile {
            let t = CollectingTracer::new();
            let t0 = std::time::Instant::now();
            let report = self.run_program(steps, schedule, &t)?;
            measured_ns = t0.elapsed().as_nanos() as f64;
            // timings come from the step's one trace log; counters are
            // accumulated over the per-clause reports
            let mut sample = CalibrationSample::of(&ExecReport::default(), &t.finish());
            for er in &report.steps {
                let tot = er.total();
                sample.iterations += tot.iterations;
                sample.packets += tot.packets_sent;
                sample.bytes += tot.bytes_sent;
                sample.recv_elems += tot.msgs_received;
            }
            samples.push(sample);
            *last_report = Some(report);
        }
        let warm_samples: &[CalibrationSample] = if samples.len() > 1 {
            &samples[1..]
        } else {
            &samples[..]
        };
        let model = match CalibratedModel::fit(warm_samples) {
            Some(m) => {
                tune.calibrated = true;
                m
            }
            None => CalibratedModel::default(),
        };
        tune.measured_step_ns = measured_ns;

        // 2. search: enumerate and price the candidate space
        let owned_clauses: Vec<Clause> = clauses.iter().map(|c| (*c).clone()).collect();
        let names = vcal_spmd::program_arrays(&owned_clauses);
        let mut extents = BTreeMap::new();
        for name in &names {
            let dec = self
                .decomps
                .get(name)
                .ok_or_else(|| MachineError::UnknownArray(name.clone()))?;
            extents.insert(name.clone(), dec.extent());
        }
        let pmax = extents
            .keys()
            .next()
            .and_then(|n| self.decomps.get(n))
            .map(Decomp1::pmax)
            .unwrap_or(1);
        let sopts = TuneSpaceOptions {
            budget: topts.budget.max(1),
            ..TuneSpaceOptions::default()
        };
        let space = enumerate_candidates(&owned_clauses, &extents, pmax, &sopts)
            .map_err(MachineError::PlanMismatch)?;

        // the incumbent must participate even if the budget (or an
        // out-of-family layout) excluded it
        let incumbent_dm: DecompMap = names
            .iter()
            .map(|n| (n.clone(), self.decomps[n].clone()))
            .collect();
        let incumbent_fp =
            decomp_fingerprint(&incumbent_dm, incumbent_dm.keys().map(String::as_str));
        let mut candidates = space.candidates;
        if !candidates.iter().any(|c| c.fingerprint == incumbent_fp) {
            let inc = candidate_for_assignment(&owned_clauses, incumbent_dm.clone(), &sopts)
                .ok_or_else(|| {
                    MachineError::PlanMismatch(
                        "incumbent decomposition has no plan — cannot tune".into(),
                    )
                })?;
            candidates.push(inc);
        }

        let mut best: Option<(f64, usize)> = None;
        let mut worst = 0.0f64;
        let mut baseline = 0.0f64;
        for (k, cand) in candidates.iter().enumerate() {
            let price = self.price_candidate(&clauses, cand, &model, hits);
            tune.candidates_priced += 1;
            if cand.fingerprint == incumbent_fp {
                baseline = price;
            }
            worst = worst.max(price);
            // strict total order on (price, fingerprint): byte-stable
            // argmin even under exact cost ties
            let better = match best {
                None => true,
                Some((bp, bk)) => (price, cand.fingerprint) < (bp, candidates[bk].fingerprint),
            };
            if better {
                best = Some((price, k));
            }
        }
        let (best_price, best_k) = best.unwrap_or((baseline, 0));
        tune.predicted_step_ns = best_price;
        tune.baseline_step_ns = baseline;
        tune.worst_step_ns = worst;
        if measured_ns > 0.0 {
            tune.model_error = (baseline - measured_ns).abs() / measured_ns;
        }

        // 3. switch if the gain, amortized over every step left in the
        // whole loop, beats the redistribution bill
        let horizon = remaining_total - profile;
        let chosen = &candidates[best_k];
        let mut redists: Vec<(String, Decomp1)> = Vec::new();
        let mut switch_cost = 0.0;
        if chosen.fingerprint != incumbent_fp {
            for (name, to) in &chosen.decomps {
                let from = &self.decomps[name];
                if from == to {
                    continue;
                }
                if from.is_replicated() || to.is_replicated() {
                    // no redistribution plan exists out of (or into) a
                    // replicated image — the switch is infeasible, keep
                    // the incumbent
                    redists.clear();
                    break;
                }
                switch_cost += model.price_redist(&RedistPlan::build(from, to));
                redists.push((name.clone(), to.clone()));
            }
        }
        let gain = (baseline - best_price) * horizon as f64;
        let switch = !redists.is_empty() && gain > switch_cost;
        tune.chosen = describe_assignment(if switch {
            &chosen.decomps
        } else {
            &incumbent_dm
        });
        tune.switched |= switch;
        if switch {
            tune.switch_cost_ns += switch_cost;
            for (name, to) in redists {
                self.redistribute_traced(&name, to, tracer)?;
                tune.redistributions_inserted += 1;
            }
        } else {
            tune.predicted_step_ns = baseline;
        }

        // run the round's remaining steps under the (possibly new) layout
        for _ in 0..(round - profile) {
            *last_report = Some(self.run_program(steps, schedule, tracer)?);
        }
        Ok(())
    }

    /// OS process ids of the live worker processes, in node order —
    /// empty until a socket-backend run has spawned the pool. Exists so
    /// supervision tests can kill a specific worker mid-run.
    pub fn worker_pids(&mut self) -> Vec<u32> {
        self.pools.with(|p| p.pids())
    }

    /// The plan of `clause` under the session's current decompositions,
    /// for inspection and trace replay ([`DistSession::run`] plans and
    /// caches on its own).
    pub fn plan(&self, clause: &Clause) -> Result<SpmdPlan, MachineError> {
        SpmdPlan::build(clause, &self.decomps)
            .map_err(|e| MachineError::PlanMismatch(e.to_string()))
    }

    /// Dynamically redistribute `name` to a new layout (Section 5
    /// extension), updating the session's decomposition map.
    pub fn redistribute(&mut self, name: &str, to: Decomp1) -> Result<ExecReport, MachineError> {
        self.redistribute_traced(name, to, &NULL_TRACER)
    }

    /// [`DistSession::redistribute`] with an observability tracer; traced
    /// callers reach it through [`ProgramStep::Redistribute`].
    fn redistribute_traced(
        &mut self,
        name: &str,
        to: Decomp1,
        tracer: &dyn Tracer,
    ) -> Result<ExecReport, MachineError> {
        let current = self
            .arrays
            .get(name)
            .ok_or_else(|| MachineError::UnknownArray(name.to_string()))?;
        let plan = RedistPlan::build(current.decomp(), &to);
        // redistribution inherits the session's fault/retry options
        let (new_array, report) = run_redistribution(&plan, current, self.opts, tracer)?;
        self.arrays.insert(name.to_string(), new_array);
        self.decomps.insert(name.to_string(), to);
        self.retire_plans();
        Ok(report)
    }

    /// The decomposition map changed: every cached plan of *this
    /// session's namespace* whose fingerprint covers the moved array is
    /// stale. Retire the whole namespace (cheap, safe); other tenants'
    /// entries in a shared tier are untouched.
    fn retire_plans(&mut self) {
        self.caches.with(|c, ns| c.plans.retain(|k| k.0 != ns));
    }

    /// Gather one array back to a global image.
    pub fn gather(&self, name: &str) -> Result<Array, MachineError> {
        self.arrays
            .get(name)
            .map(DistArray::gather)
            .ok_or_else(|| MachineError::UnknownArray(name.to_string()))
    }

    /// Gather the whole state back into an [`Env`].
    pub fn gather_all(&self) -> Env {
        let mut env = Env::new();
        for (name, da) in &self.arrays {
            env.insert(name.clone(), da.gather());
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::Bounds;

    #[test]
    fn session_sweeps_match_reference() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 64i64;
        let sweep = Clause {
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
        };
        let back = Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        };
        let mut env = Env::new();
        env.insert(
            "U",
            Array::from_fn(Bounds::range(0, n - 1), |i| {
                if i.scalar() == 10 {
                    5.0
                } else {
                    0.0
                }
            }),
        );
        env.insert("V", Array::zeros(Bounds::range(0, n - 1)));

        let mut reference = env.clone();
        for _ in 0..4 {
            reference.exec_clause(&sweep);
            reference.exec_clause(&back);
        }

        let mut dm = DecompMap::new();
        dm.insert("U".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        dm.insert("V".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        let mut session = DistSession::new(&env, dm).unwrap();
        for _ in 0..4 {
            session.run(&sweep, &NULL_TRACER).unwrap();
            session.run(&back, &NULL_TRACER).unwrap();
        }
        assert_eq!(
            session
                .gather("U")
                .unwrap()
                .max_abs_diff(reference.get("U").unwrap()),
            0.0
        );
    }

    #[test]
    fn session_redistribution_mid_program() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 48i64;
        let double = Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::mul(
                Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
                Expr::Lit(2.0),
            ),
        };
        let mut env = Env::new();
        env.insert(
            "A",
            Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
        );

        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        let mut session = DistSession::new(&env, dm).unwrap();
        session.run(&double, &NULL_TRACER).unwrap();
        // switch layout mid-program
        let report = session
            .redistribute("A", Decomp1::scatter(4, Bounds::range(0, n - 1)))
            .unwrap();
        assert!(report.total().msgs_sent > 0);
        assert_eq!(
            session.decomp_of("A").unwrap(),
            &Decomp1::scatter(4, Bounds::range(0, n - 1))
        );
        session.run(&double, &NULL_TRACER).unwrap();
        let got = session.gather("A").unwrap();
        for i in 0..n {
            assert_eq!(got.get(&vcal_core::Ix::d1(i)), (i * 4) as f64);
        }
    }

    #[test]
    fn dag_schedule_matches_seq_oracle() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 40i64;
        // A and B are independent (wave 0 together); C reads both (wave 1)
        let write = |lhs: &str, rhs: Expr| Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs,
        };
        let steps = vec![
            ProgramStep::Clause(write(
                "A",
                Expr::add(Expr::Ref(ArrayRef::d1("A", Fn1::shift(-1))), Expr::Lit(1.0)),
            )),
            ProgramStep::Clause(write(
                "B",
                Expr::mul(
                    Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
                    Expr::Lit(2.0),
                ),
            )),
            ProgramStep::Clause(write(
                "C",
                Expr::add(
                    Expr::Ref(ArrayRef::d1("A", Fn1::identity())),
                    Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
                ),
            )),
        ];
        let mut env = Env::new();
        for name in ["A", "B", "C"] {
            env.insert(
                name,
                Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
            );
        }
        let mut dm = DecompMap::new();
        for name in ["A", "B", "C"] {
            dm.insert(name.into(), Decomp1::block(4, Bounds::range(0, n - 1)));
        }
        let mut seq = DistSession::new(&env, dm.clone()).unwrap();
        let rs = seq
            .run_program(&steps, ScheduleMode::Seq, &NULL_TRACER)
            .unwrap();
        assert_eq!(rs.waves, 3);

        let mut dag = DistSession::new(&env, dm).unwrap();
        let rd = dag
            .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
            .unwrap();
        assert_eq!(rd.waves, 2, "A and B share a wave");
        assert_eq!(rd.dag_width, 2);
        assert_eq!(rd.dag_cache_misses, 1);
        for name in ["A", "B", "C"] {
            assert_eq!(
                dag.gather(name)
                    .unwrap()
                    .max_abs_diff(&seq.gather(name).unwrap()),
                0.0,
                "array {name} diverged"
            );
        }
        // warm rerun hits the DAG cache
        let rw = dag
            .run_program(&steps, ScheduleMode::Dag, &NULL_TRACER)
            .unwrap();
        assert_eq!(rw.dag_cache_hits, 1);
        assert_eq!(rw.steps[0].cache_hits, 1, "clause plans warm too");
    }

    #[test]
    fn bounds_mismatch_rejected() {
        let mut env = Env::new();
        env.insert("A", Array::zeros(Bounds::range(0, 9)));
        let mut dm = DecompMap::new();
        dm.insert("A".into(), Decomp1::block(2, Bounds::range(0, 15)));
        assert!(matches!(
            DistSession::new(&env, dm),
            Err(MachineError::PlanMismatch(_))
        ));
    }

    /// A 1-entry plan-cache budget forces an eviction when a second
    /// distinct clause arrives, and the eviction surfaces on the report
    /// — while results stay bit-identical to the unbounded session.
    #[test]
    fn bounded_plan_cache_evicts_and_reports() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 32i64;
        let write = |lhs: &str, delta: f64| Clause {
            iter: IndexSet::range(0, n - 1),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, Fn1::identity()),
            rhs: Expr::add(
                Expr::Ref(ArrayRef::d1(lhs, Fn1::identity())),
                Expr::Lit(delta),
            ),
        };
        let (a, b) = (write("A", 1.0), write("B", 2.0));
        let mut env = Env::new();
        for name in ["A", "B"] {
            env.insert(
                name,
                Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64),
            );
        }
        let mut reference = env.clone();
        for _ in 0..2 {
            reference.exec_clause(&a);
            reference.exec_clause(&b);
        }
        let mut dm = DecompMap::new();
        for name in ["A", "B"] {
            dm.insert(name.into(), Decomp1::block(2, Bounds::range(0, n - 1)));
        }
        let mut session = DistSession::new(&env, dm)
            .unwrap()
            .with_cache_budget(CacheBudget {
                max_entries: 1,
                max_bytes: usize::MAX,
            });
        session.run(&a, &NULL_TRACER).unwrap();
        let rb = session.run(&b, &NULL_TRACER).unwrap();
        assert_eq!(rb.evictions, 1, "B's insert must evict A's plan");
        // A misses again (it was evicted), and evicts B in turn
        let ra = session.run(&a, &NULL_TRACER).unwrap();
        assert_eq!(ra.cache_hits, 0);
        assert_eq!(ra.evictions, 1);
        session.run(&b, &NULL_TRACER).unwrap();
        for name in ["A", "B"] {
            assert_eq!(
                session
                    .gather(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "bounded cache changed results on `{name}`"
            );
        }
    }

    /// `retune_every` cuts the loop into rounds, every round re-profiles,
    /// and the result stays bit-identical to the sequential reference.
    #[test]
    fn retune_rounds_match_reference() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Expr, Guard, IndexSet, Ordering};
        let n = 64i64;
        let sweep = ProgramStep::Clause(Clause {
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
        });
        let back = ProgramStep::Clause(Clause {
            iter: IndexSet::range(1, n - 2),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("U", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("V", Fn1::identity())),
        });
        let steps = vec![sweep, back];
        let n_steps = 10u64;
        let mut env = Env::new();
        for name in ["U", "V"] {
            env.insert(
                name,
                Array::from_fn(Bounds::range(0, n - 1), |i| i.scalar() as f64 * 0.5 - 3.0),
            );
        }
        let mut reference = env.clone();
        for _ in 0..n_steps {
            for s in &steps {
                if let ProgramStep::Clause(c) = s {
                    reference.exec_clause(c);
                }
            }
        }
        let mut dm = DecompMap::new();
        for name in ["U", "V"] {
            dm.insert(name.into(), Decomp1::scatter(4, Bounds::range(0, n - 1)));
        }
        let mut session = DistSession::new(&env, dm).unwrap();
        let (report, tune) = session
            .run_program_tuned(
                &steps,
                n_steps,
                ScheduleMode::Seq,
                TuneOptions {
                    retune_every: Some(3),
                    ..TuneOptions::default()
                },
                &NULL_TRACER,
            )
            .unwrap();
        assert_eq!(tune.rounds, 4, "10 steps at retune-every 3 = 4 rounds");
        assert!(
            report.candidates_priced > 0,
            "every round prices candidates"
        );
        for name in ["U", "V"] {
            assert_eq!(
                session
                    .gather(name)
                    .unwrap()
                    .max_abs_diff(reference.get(name).unwrap()),
                0.0,
                "retuned loop diverged on `{name}`"
            );
        }
    }
}
