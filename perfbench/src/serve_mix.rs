//! `serve_mix`: a resident service in the benchmark process, driven by
//! two closed-loop clients.
//!
//! The service listens on a Unix-domain socket, runs requests on its
//! in-process pool at concurrency 2, and keeps the default 64-entry
//! cache budget. Client `c` connects as tenant `t<c>` and alternates two
//! programs at n = 1024, 4 steps per request: stencil+copy under `Seq`
//! and axpy+couple under `Dag`. A seeded 1 in 8 requests uses a
//! block-scatter layout with b drawn from 32 values, so the shared plan
//! cache misses and evicts at a fixed rate. Every response is checked
//! bitwise against the sequential oracle.

use crate::spans::Trace;
use crate::step::par;
use crate::{guarded, same_slice, traced_block, Cfg, Outcome, Rng, Samples, PMAX};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vcal_core::func::Fn1;
use vcal_core::{Array, ArrayRef, Bounds, Clause, Env, Expr, IndexSet};
use vcal_decomp::Decomp1;
use vcal_machine::obs::NULL_TRACER;
use vcal_machine::{
    DistSession, ProgramStep, ScheduleMode, ServeClient, ServeConfig, ServeHandle, ServeRequest,
    ServiceStats, TransportKind,
};
use vcal_spmd::DecompMap;

const N: i64 = 1024;
const STEPS: u64 = 4;
const CLIENTS: usize = 2;
/// Block-scatter block sizes a mixed-in request draws from.
const BLOCK_SIZES: u64 = 32;

fn at(a: &str, s: i64) -> Expr {
    Expr::Ref(ArrayRef::d1(a, Fn1::shift(s)))
}

/// Program 0: stencil+copy over `U`/`T`; program 1: axpy+couple over
/// `V`/`W`.
fn program(prog: usize) -> (Vec<Clause>, [&'static str; 2], ScheduleMode) {
    let lhs = |a: &str| ArrayRef::d1(a, Fn1::identity());
    if prog == 0 {
        let sweep = par(
            lhs("U"),
            IndexSet::range(1, N - 2),
            Expr::mul(Expr::add(at("U", -1), at("U", 1)), Expr::Lit(0.5)),
        );
        let copy = par(
            lhs("T"),
            IndexSet::range(0, N - 1),
            Expr::mul(at("U", 0), Expr::Lit(2.0)),
        );
        (vec![sweep, copy], ["U", "T"], ScheduleMode::Seq)
    } else {
        let axpy = par(
            lhs("V"),
            IndexSet::range(0, N - 1),
            Expr::add(at("V", 0), Expr::mul(at("W", 0), Expr::Lit(0.5))),
        );
        let couple = par(
            lhs("W"),
            IndexSet::range(0, N - 1),
            Expr::add(Expr::mul(at("W", 0), Expr::Lit(2.0)), at("V", 0)),
        );
        (vec![axpy, couple], ["V", "W"], ScheduleMode::Dag)
    }
}

/// One program's inputs, its request per layout, and its oracle.
struct Shape {
    clauses: Vec<Clause>,
    names: [&'static str; 2],
    env: Env,
    /// Index 0: block; index b-1: block-scatter(b) for b in 2..=33.
    requests: Vec<ServeRequest>,
    want: BTreeMap<String, Vec<f64>>,
}

fn layout(layout_ix: usize) -> Decomp1 {
    let extent = Bounds::range(0, N - 1);
    if layout_ix == 0 {
        Decomp1::block(PMAX, extent)
    } else {
        Decomp1::block_scatter(layout_ix as i64 + 1, PMAX, extent)
    }
}

fn shape(prog: usize, seed: u64) -> Shape {
    let (clauses, names, schedule) = program(prog);
    let mut env = Env::new();
    let mut globals = BTreeMap::new();
    for (k, name) in names.iter().enumerate() {
        let mut rng = Rng::new(seed, 20 + 2 * prog as u64 + k as u64);
        let vals: Vec<f64> = (0..N).map(|i| rng.value(i)).collect();
        env.insert(*name, Array::from_slice(&vals));
        globals.insert((*name).to_string(), vals);
    }
    let steps: Vec<ProgramStep> = clauses.iter().cloned().map(ProgramStep::Clause).collect();
    let requests = (0..=BLOCK_SIZES as usize)
        .map(|ix| {
            let decomps: DecompMap = names
                .iter()
                .map(|n| ((*n).to_string(), layout(ix)))
                .collect();
            let mut req = ServeRequest::new(steps.clone(), decomps, globals.clone(), STEPS);
            req.schedule = schedule;
            req.deadline = Some(Duration::from_secs(60));
            req
        })
        .collect();
    let mut oracle = env.clone();
    run_oracle(&mut oracle, &clauses);
    let want = names
        .iter()
        .map(|n| {
            (
                (*n).to_string(),
                oracle.get(n).map_or_else(Vec::new, |a| a.data().to_vec()),
            )
        })
        .collect();
    Shape {
        clauses,
        names,
        env,
        requests,
        want,
    }
}

fn run_oracle(env: &mut Env, clauses: &[Clause]) {
    for _ in 0..STEPS {
        for c in clauses {
            env.exec_clause(c);
        }
    }
}

fn check(
    resp: &BTreeMap<String, Vec<f64>>,
    want: &BTreeMap<String, Vec<f64>>,
) -> Result<(), String> {
    for (name, w) in want {
        let got = resp
            .get(name)
            .ok_or_else(|| format!("response lacks `{name}`"))?;
        same_slice(got, w, name)?;
    }
    Ok(())
}

/// A local warm session per program, for `serve.local_exec`: the same
/// program and layout as a request, without the service in between.
struct Local {
    session: DistSession,
    layout_ix: usize,
}

impl Local {
    fn run(&mut self, sh: &Shape, layout_ix: usize, tr: &mut Trace) -> Result<(), String> {
        let steps = &sh.requests[layout_ix].steps;
        let schedule = sh.requests[layout_ix].schedule;
        if self.layout_ix != layout_ix {
            for name in sh.names {
                self.session
                    .redistribute(name, layout(layout_ix))
                    .map_err(|e| e.to_string())?;
            }
            self.layout_ix = layout_ix;
            // warm the plan cache the redistribution retired
            self.session
                .run_program(steps, schedule, &NULL_TRACER)
                .map_err(|e| e.to_string())?;
        }
        let id = tr.begin("serve.local_exec");
        let mut res = Ok(());
        for _ in 0..STEPS {
            if let Err(e) = self.session.run_program(steps, schedule, &NULL_TRACER) {
                res = Err(e.to_string());
                break;
            }
        }
        tr.end(id);
        res
    }
}

/// Service counters over a client's requests, summed as they arrive so
/// the benchmark's memory does not grow with the request count.
#[derive(Default)]
struct Tally {
    reqs: u64,
    plan_hits: u64,
    plan_misses: u64,
    dag_hits: u64,
    evictions: u64,
    /// How many requests had each per-request plan hit / miss count.
    hits_per_req: BTreeMap<u64, u64>,
    misses_per_req: BTreeMap<u64, u64>,
}

impl Tally {
    fn add(&mut self, s: &ServiceStats) {
        self.reqs += 1;
        self.plan_hits += s.plan_hits;
        self.plan_misses += s.plan_misses;
        self.dag_hits += s.dag_hits;
        self.evictions += s.evictions;
        *self.hits_per_req.entry(s.plan_hits).or_default() += 1;
        *self.misses_per_req.entry(s.plan_misses).or_default() += 1;
    }

    fn merge(&mut self, o: Tally) {
        self.reqs += o.reqs;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.dag_hits += o.dag_hits;
        self.evictions += o.evictions;
        for (k, n) in o.hits_per_req {
            *self.hits_per_req.entry(k).or_default() += n;
        }
        for (k, n) in o.misses_per_req {
            *self.misses_per_req.entry(k).or_default() += n;
        }
    }
}

/// The middle value of a count histogram (the upper one of two).
fn hist_median(h: &BTreeMap<u64, u64>) -> u64 {
    let half = h.values().sum::<u64>() / 2;
    let mut seen = 0;
    for (&v, &n) in h {
        seen += n;
        if seen > half {
            return v;
        }
    }
    0
}

/// One client's measured loop.
#[derive(Default)]
struct ClientLog {
    out: Outcome,
    tally: Tally,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    cfg: &Cfg,
    samples: &Mutex<Samples>,
    c: usize,
    client: &mut ServeClient,
    shapes: &[Shape],
    origin: Instant,
    limit: Duration,
    trace: &mut Trace,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(cfg.seed, 40 + c as u64);
    let mut locals: Vec<Option<Local>> = vec![None, None];
    let mut k = 0u64;
    while origin.elapsed() < limit {
        let prog = (k % 2) as usize;
        let layout_ix = if rng.below(8) == 0 {
            1 + rng.below(BLOCK_SIZES) as usize
        } else {
            0
        };
        let sh = &shapes[prog];
        trace.set_on(traced_block(cfg, origin.elapsed()));
        let op_id = c as u64 + CLIENTS as u64 * k;
        let root = trace.root("op", op_id);
        let t0 = Instant::now();
        let res = guarded(|| {
            client
                .request(&sh.requests[layout_ix])
                .map_err(|e| e.to_string())
        });
        let lat = t0.elapsed();
        trace.end(root);
        let res = res.and_then(|r| check(&r.globals, &sh.want).map(|()| r.service));
        log.out.attempted += 1;
        let ok = match res {
            Ok(stats) => {
                if let Some(root) = root {
                    trace.placed(root, "serve.queue_wait", 0, stats.queue_wait_ns, 0);
                }
                log.tally.add(&stats);
                if !trace.on() {
                    let ns = u32::try_from(lat.as_nanos()).unwrap_or(u32::MAX);
                    let at = crate::steal::micros_since(cfg.start);
                    if let Ok(mut s) = samples.lock() {
                        s.push((at, ns));
                    }
                }
                true
            }
            Err(e) => {
                log.out.fail(e);
                false
            }
        };
        if trace.on() {
            let probe = trace.root("probe", op_id);
            let local = &mut locals[prog];
            if local.is_none() {
                *local = DistSession::new(&sh.env, sh.requests[0].decomps.clone())
                    .ok()
                    .map(|session| Local {
                        session,
                        layout_ix: usize::MAX,
                    });
            }
            // the same program failing locally fails the op too
            if let (Some(l), true) = (local, ok) {
                if let Err(e) = l.run(sh, layout_ix, trace) {
                    log.out.fail(format!("local probe: {e}"));
                }
            }
            let mut env = sh.env.clone();
            trace.call("seq", || run_oracle(&mut env, &sh.clauses));
            trace.end(probe);
        }
        k += 1;
    }
    log
}

/// A started service with its connected, warmed-up clients.
struct Service {
    handle: ServeHandle,
    clients: Vec<ServeClient>,
}

impl Service {
    fn stop(self) {
        drop(self.clients);
        self.handle.stop();
    }
}

/// Set-up: service start, then every client connects, then each sends
/// one warm-up request. The service accepts by polling every 2 ms; the
/// connects go one after another so the first waits a uniform share of
/// a poll and the second the next poll, rather than two concurrent
/// connects straddling a poll on some set-ups only, which made the
/// set-up time bimodal.
fn start(shapes: &[Shape]) -> Result<Service, String> {
    let cfg = ServeConfig {
        listen: TransportKind::Uds,
        concurrency: 2,
        ..ServeConfig::default()
    };
    let handle = ServeHandle::start(cfg).map_err(|e| e.to_string())?;
    let mut clients = (0..CLIENTS)
        .map(|c| ServeClient::connect(handle.addr(), &format!("t{c}")).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    for (c, client) in clients.iter_mut().enumerate() {
        let sh = &shapes[c % 2];
        let r = client.request(&sh.requests[0]).map_err(|e| e.to_string())?;
        check(&r.globals, &sh.want)?;
    }
    Ok(Service { handle, clients })
}

pub fn run(cfg: &Cfg) -> Outcome {
    let shapes = [shape(0, cfg.seed), shape(1, cfg.seed)];
    let mut out = Outcome::default();
    let timed_start = || {
        let t0 = Instant::now();
        start(&shapes).map(|svc| (svc, t0.elapsed()))
    };
    let svc = crate::set_up(cfg, &mut out, timed_start, Service::stop);
    let Some(mut svc) = svc else { return out };
    let origin = Instant::now();
    let limit = Duration::from_secs_f64(cfg.seconds);
    // one record stream for both clients, in completion order
    let samples = Mutex::new(Samples::default());
    let logs: Vec<(ClientLog, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = svc
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (shapes, samples) = (&shapes, &samples);
                scope.spawn(move || {
                    let mut trace = Trace::new(origin);
                    let log =
                        client_loop(cfg, samples, c, client, shapes, origin, limit, &mut trace);
                    (log, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.out.attempted = 1;
                    log.out.fail("client thread panicked".into());
                    (log, Trace::new(origin))
                })
            })
            .collect()
    });
    svc.stop();

    let mut trace = Trace::new(origin);
    let mut tally = Tally::default();
    for (log, tr) in logs {
        out.attempted += log.out.attempted;
        out.failed += log.out.failed;
        out.errors.extend(log.out.errors);
        tally.merge(log.tally);
        trace.absorb(tr);
    }
    out.ops = samples.into_inner().unwrap_or_default();
    out.spans = trace.spans;
    out.concurrent = true;
    let reqs = tally.reqs.max(1) as f64;
    let lookups = tally.plan_hits + tally.plan_misses;
    out.extra.insert(
        "serve.plan_hit_ratio",
        if lookups > 0 {
            tally.plan_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    out.extra
        .insert("serve.dag_hits", tally.dag_hits as f64 / reqs);
    out.extra
        .insert("serve.evictions", tally.evictions as f64 / reqs);
    // the service reports only its plan-cache counts per request
    out.counts = Some(crate::Counts {
        plan_hits: hist_median(&tally.hits_per_req),
        plan_misses: hist_median(&tally.misses_per_req),
        ..crate::Counts::default()
    });
    out
}
