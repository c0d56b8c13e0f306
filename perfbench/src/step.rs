//! `step_small` / `step_large`: the warm timestep loop of the 2-clause
//! 1-D Jacobi program on a block-decomposed session.
//!
//! ```text
//! V[i] := 0.5 * (U[i-1] + U[i+1])   for i in [1, n-2]
//! U[i] := V[i]                      for i in [1, n-2]
//! ```
//!
//! Set-up is session creation plus the first (cold) step; one op is
//! one warm `run_program` under `ScheduleMode::Seq` on the in-process
//! pool. Ops run back to back in batches, as in a timestep loop; after
//! each batch the oracle replays the same steps and the state is
//! compared bitwise, so a wrong step anywhere in the batch shows.

use crate::spans::Trace;
use crate::{same_bits, Counts, Rng, Stream, PMAX};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, Guard, IndexSet, Ordering};
use vcal_decomp::Decomp1;
use vcal_machine::obs::{CollectingTracer, Phase, TraceLog, HOST, NULL_TRACER};
use vcal_machine::{DistSession, ProgramReport, ProgramStep, ScheduleMode, Tracer};
use vcal_spmd::{clause_arrays, clause_signature, decomp_fingerprint, DecompMap};

pub const SMALL_N: i64 = 1024;
pub const LARGE_N: i64 = 1 << 18;

/// Steps per batch: about 3 ms of `step_small` ops or 12 ms of
/// `step_large` ops before the oracle catches up.
fn batch_for(n: i64) -> usize {
    if n <= SMALL_N {
        32
    } else {
        8
    }
}

const NAMES: [&str; 2] = ["U", "V"];

pub fn par(lhs: ArrayRef, iter: IndexSet, rhs: Expr) -> Clause {
    Clause {
        iter,
        ordering: Ordering::Par,
        guard: Guard::Always,
        lhs,
        rhs,
    }
}

fn jacobi(n: i64) -> Vec<Clause> {
    let at = |a: &str, s: i64| Expr::Ref(ArrayRef::d1(a, Fn1::shift(s)));
    vec![
        par(
            ArrayRef::d1("V", Fn1::identity()),
            IndexSet::range(1, n - 2),
            Expr::mul(Expr::Lit(0.5), Expr::add(at("U", -1), at("U", 1))),
        ),
        par(
            ArrayRef::d1("U", Fn1::identity()),
            IndexSet::range(1, n - 2),
            at("V", 0),
        ),
    ]
}

/// Bytes a clause's update phase moves per iteration, computed from
/// array sizes: one f64 stream per distinct array read, plus the write.
pub fn clause_bytes_per_iter(c: &Clause) -> u64 {
    let mut reads: Vec<&str> = c.read_refs().iter().map(|r| r.array.as_str()).collect();
    reads.sort_unstable();
    reads.dedup();
    8 * (reads.len() as u64 + 1)
}

/// The run's phase timings as spans under `parent`. Each run segment
/// (the timings up to and including one host commit) contributes its
/// slowest node's send, update and drain, then the commit, laid end to
/// end. The slowest node's phases ran one after another inside the
/// call, so the children never exceed it. When segments map one to one
/// onto program steps, the update span counts the node's iterations.
pub fn place_phases(tr: &mut Trace, parent: usize, log: &TraceLog, rep: &ProgramReport) {
    let mut segments: Vec<(BTreeMap<i64, [u64; 3]>, u64)> = Vec::new();
    let mut nodes: BTreeMap<i64, [u64; 3]> = BTreeMap::new();
    for t in &log.timings {
        let ns = u64::try_from(t.nanos).unwrap_or(u64::MAX);
        let slot = match t.phase {
            Phase::Send => 0,
            Phase::Update => 1,
            Phase::Drain => 2,
            Phase::Commit if t.node == HOST => {
                segments.push((std::mem::take(&mut nodes), ns));
                continue;
            }
            _ => continue,
        };
        nodes.entry(t.node).or_default()[slot] += ns;
    }
    let per_step = segments.len() == rep.steps.len();
    let mut offset = 0;
    for (k, (nodes, commit)) in segments.iter().enumerate() {
        let slowest = nodes
            .iter()
            .max_by_key(|(_, v)| v.iter().sum::<u64>())
            .map(|(p, v)| (*p, *v));
        if let Some((p, v)) = slowest {
            let iters = if per_step {
                usize::try_from(p)
                    .ok()
                    .and_then(|p| rep.steps[k].nodes.get(p))
                    .map_or(0, |n| n.iterations)
            } else {
                0
            };
            for (name, ns, work) in [
                ("exec.send", v[0], 0),
                ("exec.update", v[1], iters),
                ("exec.drain", v[2], 0),
            ] {
                tr.placed(parent, name, offset, ns, work);
                offset += ns;
            }
        }
        tr.placed(parent, "exec.commit", offset, *commit, 0);
        offset += commit;
    }
}

/// Time the plan-cache key work a warm run repeats for every clause.
pub fn probe_keys(tr: &mut Trace, clauses: &[Clause], decomps: &DecompMap) {
    tr.call("spmd.key", || {
        for c in clauses {
            let sig = clause_signature(c);
            let names = clause_arrays(c);
            let fp = decomp_fingerprint(decomps, names.iter().map(String::as_str));
            black_box((sig, fp));
        }
    });
}

pub struct Step {
    session: DistSession,
    clauses: Vec<Clause>,
    steps: Vec<ProgramStep>,
    decomps: DecompMap,
    batch: usize,
    /// The sequential oracle, and the session steps it has yet to replay.
    oracle: Env,
    behind: u64,
}

pub fn setup(n: i64, seed: u64) -> Result<(Step, Duration), String> {
    let extent = Bounds::range(0, n - 1);
    let clauses = jacobi(n);
    let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
    let mut env = Env::new();
    let mut decomps = DecompMap::new();
    for (k, name) in NAMES.iter().enumerate() {
        let mut rng = Rng::new(seed, k as u64);
        env.insert(*name, Array::from_fn(extent, |i| rng.value(i.scalar())));
        decomps.insert((*name).to_string(), Decomp1::block(PMAX, extent));
    }
    let t0 = Instant::now();
    let mut session = DistSession::new(&env, decomps.clone()).map_err(|e| e.to_string())?;
    let first = session.run_program(&steps, ScheduleMode::Seq, &NULL_TRACER);
    let took = t0.elapsed();
    Counts::of_program(&first.map_err(|e| e.to_string())?)?;
    Ok((
        Step {
            session,
            clauses,
            steps,
            decomps,
            batch: batch_for(n),
            oracle: env,
            // the first check also verifies the cold step
            behind: 1,
        },
        took,
    ))
}

impl Stream for Step {
    fn batch(&self) -> usize {
        self.batch
    }

    fn op(&mut self, tr: &mut Trace) -> Result<Counts, String> {
        let collect = tr.on().then(CollectingTracer::new);
        let tracer: &dyn Tracer = match &collect {
            Some(c) => c,
            None => &NULL_TRACER,
        };
        let id = tr.begin("session.run_program");
        let rep = self
            .session
            .run_program(&self.steps, ScheduleMode::Seq, tracer);
        tr.end(id);
        let rep = rep.map_err(|e| e.to_string())?;
        if let (Some(id), Some(c)) = (id, &collect) {
            place_phases(tr, id, &c.finish(), &rep);
        }
        // a failed run commits nothing, so only a run that returned
        // leaves a step for the oracle to replay
        self.behind += 1;
        Counts::of_program(&rep)
    }

    fn check(&mut self, tr: &mut Trace) -> Result<(), String> {
        let steps = std::mem::take(&mut self.behind);
        let id = tr.begin("seq");
        for _ in 0..steps {
            for c in &self.clauses {
                self.oracle.exec_clause(c);
            }
        }
        tr.end(id);
        tr.set_work(id, steps);
        same_bits(&self.session.gather_all(), &self.oracle, &NAMES)
    }

    fn probe(&mut self, tr: &mut Trace) {
        probe_keys(tr, &self.clauses, &self.decomps);
    }

    fn digest(&self) -> u64 {
        crate::digest(&self.oracle, &NAMES)
    }

    fn bytes_computed(&self) -> u64 {
        self.clauses
            .iter()
            .map(|c| clause_bytes_per_iter(c) * c.iter.count())
            .sum()
    }
}
