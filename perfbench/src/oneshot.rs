//! `oneshot`: the cold compile-and-run path of
//! `vcalc prog.vc layout.dspec --run`, done in-process.
//!
//! One op compiles a generated 4-loop `.vc` source (stencil, copy,
//! strided write, guarded copy), parses a `.dspec` of block and scatter
//! arrays at n = 1024, scatters a fresh `DistSession`, runs the program
//! under `ScheduleMode::Dag`, redistributes scatter array `B` to block,
//! gathers every array and checks it bitwise against the oracle.

use crate::spans::Trace;
use crate::step::{clause_bytes_per_iter, place_phases, probe_keys};
use crate::{same_bits, Counts, Rng, Stream, PMAX};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vcal_core::{Array, Bounds, Clause, Env};
use vcal_decomp::Decomp1;
use vcal_machine::obs::{CollectingTracer, NULL_TRACER};
use vcal_machine::{build_dag, prepare_run, DistSession, ProgramStep, ScheduleMode, Tracer};
use vcal_spmd::SpmdPlan;

const N: i64 = 1024;
const NAMES: [&str; 4] = ["A", "B", "C", "D"];

fn source() -> String {
    let hi = N - 2;
    format!(
        "for i := 1 to {hi} do A[i] := 0.5 * (B[i-1] + B[i+1]); od;\n\
         for i := 0 to {} do C[i] := A[i]; od;\n\
         for i := 0 to {} do D[3*i+1] := C[i] * 2.0; od;\n\
         for i := 1 to {hi} do if A[i] > 0 then A[i] := B[i+1] * 0.5; fi; od;\n",
        N - 1,
        (N - 2) / 3
    )
}

fn spec() -> String {
    let top = N - 1;
    format!(
        "processors {PMAX};\n\
         array A[0 to {top}] block;\n\
         array B[0 to {top}] scatter;\n\
         array C[0 to {top}] scatter;\n\
         array D[0 to {top}] block;\n"
    )
}

pub struct Oneshot {
    src: String,
    spec: String,
    env: Env,
    want: Env,
    clauses: Vec<Clause>,
    got: Option<Env>,
}

/// Set-up is everything before the first op: generating the source,
/// the layout and the initial values, and running the oracle.
pub fn setup(seed: u64) -> Result<(Oneshot, Duration), String> {
    let t0 = Instant::now();
    let src = source();
    let spec = spec();
    let clauses = vcal_lang::compile(&src).map_err(|e| e.to_string())?;
    let extent = Bounds::range(0, N - 1);
    let mut env = Env::new();
    for (k, name) in NAMES.iter().enumerate() {
        let mut rng = Rng::new(seed, 10 + k as u64);
        env.insert(*name, Array::from_fn(extent, |i| rng.value(i.scalar())));
    }
    let mut want = env.clone();
    for c in &clauses {
        want.exec_clause(c);
    }
    let w = Oneshot {
        src,
        spec,
        env,
        want,
        clauses,
        got: None,
    };
    Ok((w, t0.elapsed()))
}

impl Stream for Oneshot {
    fn op(&mut self, tr: &mut Trace) -> Result<Counts, String> {
        let clauses = tr
            .call("lang.compile", || vcal_lang::compile(&self.src))
            .map_err(|e| e.to_string())?;
        let spec = tr
            .call("lang.parse_spec", || vcal_lang::parse_spec(&self.spec))
            .map_err(|e| e.to_string())?;
        let steps: Vec<ProgramStep> = clauses.into_iter().map(ProgramStep::Clause).collect();
        let mut session = tr
            .call("session.new", || DistSession::new(&self.env, spec.decomps))
            .map_err(|e| e.to_string())?;
        let collect = tr.on().then(CollectingTracer::new);
        let tracer: &dyn Tracer = match &collect {
            Some(c) => c,
            None => &NULL_TRACER,
        };
        let id = tr.begin("session.first_run");
        let rep = session.run_program(&steps, ScheduleMode::Dag, tracer);
        tr.end(id);
        let rep = rep.map_err(|e| e.to_string())?;
        if let (Some(id), Some(c)) = (id, &collect) {
            place_phases(tr, id, &c.finish(), &rep);
        }
        let mut counts = Counts::of_program(&rep)?;
        let to = Decomp1::block(PMAX, Bounds::range(0, N - 1));
        let moved = tr
            .call("session.redistribute", || session.redistribute("B", to))
            .map_err(|e| e.to_string())?;
        crate::check_quiet(&moved)?;
        counts.add(&moved);
        let got = tr.call("session.gather_all", || session.gather_all());
        let checked = same_bits(&got, &self.want, &NAMES);
        self.got = Some(got);
        drop(session);
        checked.map(|()| counts)
    }

    fn check(&mut self, _tr: &mut Trace) -> Result<(), String> {
        // the op itself ends with the oracle check, as `vcalc --run` does
        Ok(())
    }

    fn probe(&mut self, tr: &mut Trace) {
        let Ok(spec) = vcal_lang::parse_spec(&self.spec) else {
            return;
        };
        let decomps = spec.decomps;
        for c in &self.clauses {
            let Ok(plan) = tr.call("spmd.plan", || SpmdPlan::build(c, &decomps)) else {
                continue;
            };
            black_box(
                tr.call("executor.prepare", || prepare_run(plan, c, &decomps))
                    .is_ok(),
            );
        }
        let steps: Vec<ProgramStep> = self
            .clauses
            .iter()
            .cloned()
            .map(ProgramStep::Clause)
            .collect();
        black_box(tr.call("spmd.dag", || build_dag(&steps, &decomps)));
        probe_keys(tr, &self.clauses, &decomps);
        let mut env = self.env.clone();
        tr.call("seq", || {
            for c in &self.clauses {
                env.exec_clause(c);
            }
        });
    }

    fn digest(&self) -> u64 {
        self.got.as_ref().map_or(0, |g| crate::digest(g, &NAMES))
    }

    fn bytes_computed(&self) -> u64 {
        self.clauses
            .iter()
            .map(|c| clause_bytes_per_iter(c) * c.iter.count())
            .sum()
    }
}
