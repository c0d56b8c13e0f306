//! `perfbench` — the V-cal end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload step_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds` seconds after its
//! set-up, checks every op bitwise against the sequential oracle
//! (`Env::exec_clause`), appends a result record to
//! `perfbench/results/runs.jsonl`, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` the run alternates untraced and traced blocks and
//! reports the per-layer metrics, writing the traced spans to
//! `perfbench/results/spans-<workload>.jsonl`. See README.md.

mod oneshot;
mod serve_mix;
mod spans;
mod steal;
mod step;

use spans::{OpSums, Span, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vcal_core::{Array, Env};
use vcal_machine::{ExecReport, ProgramReport};

pub const WORKLOADS: &[&str] = &["step_small", "step_large", "oneshot", "serve_mix"];

/// Processors on every workload: the benchmark host has two cores.
pub const PMAX: i64 = 2;

/// Set-ups per run: at least `SETUP_MIN`, then more until `SETUP_SPAN`
/// has passed, at most `SETUP_MAX`, each `SETUP_GAP` after the last one
/// was torn down. `setup_s` is their median. Spaced out, every set-up
/// starts from an idle machine, as the first op after start-up does,
/// and the median spans several host states instead of one moment.
const SETUP_MIN: usize = 15;
const SETUP_MAX: usize = 101;
const SETUP_SPAN: Duration = Duration::from_millis(1500);
const SETUP_GAP: Duration = Duration::from_millis(50);

/// Consecutive ops per throughput sample.
const RATE_OPS: usize = 8;

/// Length of one untraced or traced block of a traced run.
const BLOCK: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// When the workload started: op and set-up times are taken from
    /// here, on the steal monitor's window grid.
    pub start: Instant,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_min: usize,
    pub setup_span: Duration,
}

impl Cfg {
    /// Whether another set-up should run after `done` in `elapsed`.
    pub fn more_setups(&self, done: usize, elapsed: Duration) -> bool {
        done < self.setup_min.max(1) || (elapsed < self.setup_span && done < SETUP_MAX)
    }
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in [1, 2) with the sign fixed by `index`, so data-guard
    /// outcomes — and with them every count — repeat across seeds.
    pub fn value(&mut self, index: i64) -> f64 {
        let mag = 1.0 + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if index % 3 == 0 {
            -mag
        } else {
            mag
        }
    }
}

/// Exact per-op counts, from the reports the program returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub packets: u64,
    pub bytes: u64,
    pub elems: u64,
    pub iterations: u64,
    pub lane_elems: u64,
    pub fallback_runs: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub retransmits: u64,
}

impl Counts {
    pub fn add(&mut self, r: &ExecReport) {
        let t = r.total();
        self.packets += t.packets_sent;
        self.bytes += t.bytes_sent;
        self.elems += t.msgs_sent;
        self.iterations += t.iterations;
        self.lane_elems += t.simd_lane_elems;
        self.fallback_runs += t.simd_fallback_runs;
        self.plan_hits += r.cache_hits;
        self.plan_misses += r.cache_misses;
        self.retransmits += t.retransmits;
    }

    /// Counts of a program run; `Err` if a fault-free run fired any
    /// reliability machinery.
    pub fn of_program(rep: &ProgramReport) -> Result<Counts, String> {
        let mut c = Counts::default();
        for s in &rep.steps {
            check_quiet(s)?;
            c.add(s);
        }
        Ok(c)
    }
}

pub fn check_quiet(r: &ExecReport) -> Result<(), String> {
    if r.reliability_quiet() {
        Ok(())
    } else {
        Err("reliability counters fired on a fault-free run".into())
    }
}

/// Bitwise comparison of `names` in `got` against the oracle.
pub fn same_bits(got: &Env, want: &Env, names: &[&str]) -> Result<(), String> {
    for name in names {
        let (Some(g), Some(w)) = (got.get(name), want.get(name)) else {
            return Err(format!("array `{name}` missing"));
        };
        same_slice(g.data(), w.data(), name)?;
    }
    Ok(())
}

pub fn same_slice(got: &[f64], want: &[f64], name: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "`{name}` has {} elements, oracle {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!("`{name}`[{i}] differs from the sequential oracle")),
        None => Ok(()),
    }
}

/// FNV-1a over the bits of `names` in `env`: the output digest the
/// self-check compares across seeds.
pub fn digest(env: &Env, names: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in names {
        for v in env.get(name).map_or(&[][..], Array::data) {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One single-stream workload: its ops run back to back on one thread,
/// in batches checked against the oracle after the batch.
pub trait Stream {
    /// Ops run back to back between two checks.
    fn batch(&self) -> usize {
        1
    }
    /// Run one op, recording spans into `tr` (a no-op when it is off).
    fn op(&mut self, tr: &mut Trace) -> Result<Counts, String>;
    /// Check the outputs of every op since the last check against the
    /// oracle, outside any op.
    fn check(&mut self, tr: &mut Trace) -> Result<(), String>;
    /// Traced runs only: time layer functions outside the op.
    fn probe(&mut self, tr: &mut Trace);
    /// Digest of the current outputs.
    fn digest(&self) -> u64;
    /// Bytes the update phase moves per op, computed from array sizes.
    fn bytes_computed(&self) -> u64;
}

/// Records kept per run; see `Samples`.
const SAMPLES: usize = 1 << 16;

/// Op records — completion time (µs from `Cfg::start`) and latency
/// (ns) — in one fixed buffer, touched in full on the first record, so
/// the benchmark's own memory is the same at any op rate and a faster
/// program never reads as a larger one. When the buffer fills, every
/// other record is dropped, and from then on only every `stride`-th op
/// is recorded: a uniform sample of the whole run.
#[derive(Debug, Default)]
pub struct Samples {
    buf: Vec<(u32, u32)>,
    len: usize,
    seen: u64,
    stride: u64,
}

impl Samples {
    pub fn push(&mut self, rec: (u32, u32)) {
        if self.buf.is_empty() {
            self.buf = vec![(u32::MAX, u32::MAX); SAMPLES];
            self.stride = 1;
        }
        let i = self.seen;
        self.seen += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        if self.len == self.buf.len() {
            for k in 0..self.len / 2 {
                self.buf[k] = self.buf[2 * k];
            }
            self.len /= 2;
            self.stride *= 2;
            if !i.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf[self.len] = rec;
        self.len += 1;
    }

    pub fn records(&self) -> &[(u32, u32)] {
        &self.buf[..self.len]
    }

    /// Ops each record stands for.
    pub fn stride(&self) -> u64 {
        self.stride.max(1)
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Untraced ops.
    pub ops: Samples,
    /// Whether ops overlap (several clients): throughput is then
    /// completions per second of wall time, else per second of op time.
    pub concurrent: bool,
    /// Set-ups: when each completed (µs from `Cfg::start`) and how long
    /// it took in s.
    pub setup_s: Vec<(u32, f64)>,
    /// Steal share of each `steal::WINDOW` from `Cfg::start`.
    pub steal: Vec<f64>,
    pub spans: Vec<Span>,
    /// Counts of the first op, and whether every op repeated them.
    pub counts: Option<Counts>,
    pub counts_repeat: bool,
    pub first_digest: u64,
    /// Workload-specific per-layer values.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn fail(&mut self, e: String) {
        self.fail_n(1, e);
    }

    pub fn fail_n(&mut self, ops: u64, e: String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    pub fn note_counts(&mut self, c: Counts) {
        match self.counts {
            None => {
                self.counts = Some(c);
                self.counts_repeat = true;
            }
            Some(first) => self.counts_repeat &= first == c,
        }
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panic: {msg}")
}

/// Run `f`, turning a panic into an error.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_text(p)))
}

/// Whether a traced run is in a traced block at `elapsed`.
pub fn traced_block(cfg: &Cfg, elapsed: Duration) -> bool {
    cfg.trace && (elapsed.as_millis() / BLOCK.as_millis()) % 2 == 1
}

/// Repeat `setup` as `cfg` asks, recording each set-up's time, and
/// return the last workload it made.
pub fn set_up<S>(
    cfg: &Cfg,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<(S, Duration), String>,
    mut tear_down: impl FnMut(S),
) -> Option<S> {
    let mut ready = None;
    let began = Instant::now();
    while cfg.more_setups(out.setup_s.len(), began.elapsed()) {
        if let Some(s) = ready.take() {
            tear_down(s);
            std::thread::sleep(SETUP_GAP);
        }
        match guarded(&mut setup) {
            Ok((s, took)) => {
                out.setup_s
                    .push((steal::micros_since(cfg.start), took.as_secs_f64()));
                ready = Some(s);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                return None;
            }
        }
    }
    ready
}

/// Drive a single-stream workload: `setup` returns a ready workload
/// and the time its set-up took; the last set-up is measured for
/// `cfg.seconds`, one batch of ops and its check at a time. When a
/// check fails, every op of the batch counts as failed.
pub fn drive<S: Stream>(
    cfg: &Cfg,
    setup: impl FnMut() -> Result<(S, Duration), String>,
) -> Outcome {
    let mut out = Outcome::default();
    let Some(mut s) = set_up(cfg, &mut out, setup, drop) else {
        return out;
    };
    let origin = Instant::now();
    let mut tr = Trace::new(origin);
    let limit = Duration::from_secs_f64(cfg.seconds);
    let mut op_id = 0;
    while origin.elapsed() < limit {
        let mut passed = Vec::new();
        for _ in 0..s.batch() {
            tr.set_on(traced_block(cfg, origin.elapsed()));
            let root = tr.root("op", op_id);
            let t0 = Instant::now();
            let res = guarded(|| s.op(&mut tr));
            let lat = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
            tr.end(root);
            if tr.on() {
                let probe = tr.root("probe", op_id);
                s.probe(&mut tr);
                tr.end(probe);
            } else {
                out.ops.push((steal::micros_since(cfg.start), lat));
            }
            out.attempted += 1;
            match res {
                Ok(c) => passed.push(c),
                Err(e) => out.fail(e),
            }
            op_id += 1;
        }
        let probe = tr.root("probe", op_id - 1);
        let checked = guarded(|| s.check(&mut tr));
        tr.end(probe);
        match checked {
            Ok(()) => {
                if out.counts.is_none() && !passed.is_empty() {
                    out.first_digest = s.digest();
                }
                for c in passed {
                    out.note_counts(c);
                }
            }
            // the batch's ops that passed could not be verified
            Err(e) => out.fail_n(passed.len() as u64, e),
        }
    }
    out.extra
        .insert("update.bytes_computed", s.bytes_computed() as f64);
    out.spans = tr.spans;
    out
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn med_of(ops: &[OpSums], f: impl Fn(&OpSums) -> Option<f64>) -> f64 {
    let v: Vec<f64> = ops.iter().filter_map(f).collect();
    median(&v)
}

/// A fixed single-thread arithmetic loop, timed in every run so a
/// slower host shows apart from a regression. Median of five, in ms.
fn host_calib_ms() -> f64 {
    let mut v = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = black_box(1.0f64);
        for i in 0..2_000_000u32 {
            x = x * 1.000_000_1 + f64::from(i & 7) * 1e-9;
        }
        black_box(x);
        v.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&v)
}

/// Reset the peak-RSS mark so it covers this workload only.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// How fast and how contended the host was during the run.
#[derive(Debug, Default)]
struct Host {
    calib_ms: f64,
    steal_ratio: f64,
}

/// A metric as printed: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// Throughput samples: ops per second over each run of `RATE_OPS`
/// consecutive records inside one steal window — per second of op time
/// for a single stream, of wall time between completions (each record
/// standing for `stride` ops) when ops overlap. Short runs keep a rare
/// slow op from setting a whole sample.
fn rates(ops: &[(u32, u32)], stride: u64, concurrent: bool) -> Vec<f64> {
    let mut by_window: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
    for &op in ops {
        by_window
            .entry(steal::window_of(op.0))
            .or_default()
            .push(op);
    }
    let mut out = Vec::new();
    for w in by_window.values_mut() {
        w.sort_unstable_by_key(|op| op.0);
        if concurrent {
            for run in w.windows(RATE_OPS + 1).step_by(RATE_OPS) {
                let wall_us = run[RATE_OPS].0 - run[0].0;
                let done = (RATE_OPS as u64 * stride) as f64;
                out.push(done / (f64::from(wall_us.max(1)) * 1e-6));
            }
        } else {
            for run in w.chunks_exact(RATE_OPS) {
                let busy: u64 = run.iter().map(|op| u64::from(op.1)).sum();
                out.push(RATE_OPS as f64 / (busy.max(1) as f64 * 1e-9));
            }
        }
    }
    out
}

/// The end-to-end metrics of an untraced run, over its quieter half
/// (see `steal`).
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let ops = steal::quiet(&out.steal, out.ops.records());
    let lat: Vec<f64> = ops.iter().map(|o| us(o.1.into())).collect();
    let setups: Vec<f64> = steal::quiet(&out.steal, &out.setup_s)
        .iter()
        .map(|s| s.1)
        .collect();
    vec![
        ("op_p50_us", "us", median(&lat)),
        (
            "throughput_rps",
            "1/s",
            median(&rates(&ops, out.ops.stride(), out.concurrent)),
        ),
        ("setup_s", "s", median(&setups)),
        ("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// The per-layer metrics of a traced run. README.md lists what each
/// measures and which end-to-end metric it should move.
fn per_layer(out: &Outcome, host: &Host) -> Vec<Metric> {
    let ops = spans::per_op(&out.spans);
    let ns = |name: &'static str| med_of(&ops, |o| Some(us(o.ns(name))));
    let lat: Vec<f64> = out.ops.records().iter().map(|o| us(o.1.into())).collect();
    let p50 = median(&lat);
    // an oracle span may replay several ops (its work)
    let seq_per_op: Vec<f64> = out
        .spans
        .iter()
        .filter(|s| s.name == "seq")
        .map(|s| us(s.dur()) / s.work.max(1) as f64)
        .collect();
    let seq = median(&seq_per_op);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = out.counts.unwrap_or_default();
    let extra = |k: &str| out.extra.get(k).copied().unwrap_or(0.0);
    vec![
        ("lang.compile_us", "us", ns("lang.compile")),
        ("lang.spec_us", "us", ns("lang.parse_spec")),
        ("spmd.plan_us", "us", ns("spmd.plan")),
        ("spmd.dag_us", "us", ns("spmd.dag")),
        ("spmd.key_us", "us", ns("spmd.key")),
        ("executor.prepare_us", "us", ns("executor.prepare")),
        ("session.new_us", "us", ns("session.new")),
        ("session.first_run_us", "us", ns("session.first_run")),
        ("exec.send_us", "us", ns("exec.send")),
        ("exec.drain_us", "us", ns("exec.drain")),
        ("exec.commit_us", "us", ns("exec.commit")),
        ("exec.update_us", "us", ns("exec.update")),
        (
            "update.ns_per_elem",
            "ns/elem",
            med_of(&ops, |o| {
                let w = o.work("exec.update");
                (w > 0).then(|| o.ns("exec.update") as f64 / w as f64)
            }),
        ),
        (
            "exec.unattributed_us",
            "us",
            med_of(&ops, |o| Some(us(o.unattributed_ns))),
        ),
        (
            "exec.unattributed_ratio",
            "ratio",
            med_of(&ops, |o| {
                (o.op_ns > 0).then(|| o.unattributed_ns as f64 / o.op_ns as f64)
            }),
        ),
        ("update.bytes_computed", "B", extra("update.bytes_computed")),
        ("redist.us", "us", ns("session.redistribute")),
        ("gather.us", "us", ns("session.gather_all")),
        ("serve.queue_wait_us", "us", ns("serve.queue_wait")),
        ("serve.local_exec_us", "us", ns("serve.local_exec")),
        (
            "serve.overhead_us",
            "us",
            med_of(&ops, |o| {
                let local = o.ns("serve.local_exec");
                (local > 0).then(|| us(o.op_ns) - us(local) - us(o.ns("serve.queue_wait")))
            }),
        ),
        (
            "serve.plan_hit_ratio",
            "ratio",
            extra("serve.plan_hit_ratio"),
        ),
        ("serve.dag_hits", "count/req", extra("serve.dag_hits")),
        ("serve.evictions", "count/req", extra("serve.evictions")),
        ("comm.packets", "count", c.packets as f64),
        ("comm.bytes", "B", c.bytes as f64),
        ("comm.elems", "count", c.elems as f64),
        ("exec.iterations", "count", c.iterations as f64),
        ("simd.lane_elems", "count", c.lane_elems as f64),
        ("simd.fallback_runs", "count", c.fallback_runs as f64),
        ("cache.plan_hits", "count", c.plan_hits as f64),
        ("cache.plan_misses", "count", c.plan_misses as f64),
        ("exec.retransmits", "count", c.retransmits as f64),
        (
            "fail_ratio",
            "ratio",
            ratio(out.failed as f64, out.attempted as f64),
        ),
        ("seq.op_us", "us", seq),
        ("seq.speedup", "ratio", ratio(seq, p50)),
        ("tail.op_p90_us", "us", quantile(&lat, 0.90)),
        ("tail.op_p99_us", "us", quantile(&lat, 0.99)),
        (
            "trace.overhead_ratio",
            "ratio",
            ratio(med_of(&ops, |o| Some(us(o.op_ns))), p50),
        ),
        ("host.calib_ms", "ms", host.calib_ms),
        ("host.steal_ratio", "ratio", host.steal_ratio),
    ]
}

/// Run one workload. Exposed to the tests.
pub fn run_workload(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    reset_peak_rss();
    let monitor = steal::Monitor::start(cfg.start);
    let mut out = match name {
        "step_small" => drive(cfg, || step::setup(step::SMALL_N, cfg.seed)),
        "step_large" => drive(cfg, || step::setup(step::LARGE_N, cfg.seed)),
        "oneshot" => drive(cfg, || oneshot::setup(cfg.seed)),
        "serve_mix" => serve_mix::run(cfg),
        other => return Err(format!("unknown workload `{other}`")),
    };
    out.steal = monitor.finish();
    Ok(out)
}

/// Where run records, spans and service sockets go: `results/` beside
/// this package, as a path relative to the working directory when
/// possible (socket paths must stay short).
fn results_dir() -> PathBuf {
    let abs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| abs.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(abs)
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <step_small|step_large|oneshot|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{v}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    // the service's socket files go beside the results, inside the checkout
    std::env::set_var("TMPDIR", &dir);
    let calib_ms = host_calib_ms();
    let ticks = steal::cpu_ticks();
    let cfg = Cfg {
        start: Instant::now(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setup_min: SETUP_MIN,
        setup_span: SETUP_SPAN,
    };
    let out = match run_workload(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = Host {
        calib_ms,
        steal_ratio: steal::steal_ratio(&ticks, &steal::cpu_ticks()),
    };
    let violations = spans::violations(&out.spans);
    let metrics = if args.trace {
        per_layer(&out, &host)
    } else {
        end_to_end(&out)
    };
    let correct = out.failed == 0 && out.attempted > 0 && violations == 0;
    for e in &out.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    if violations > 0 {
        eprintln!("perfbench: {violations} span(s) break the attribution rules");
    }
    let provenance = format!(
        "{{\"seed\": {}, \"git_rev\": {}, \"tree\": {}, \"nproc\": {}, \"rustc\": {}, \"host.calib_ms\": {}, \"host.steal_ratio\": {}}}",
        args.seed,
        json_str(env!("PERFBENCH_GIT_REV")),
        json_str(env!("PERFBENCH_TREE")),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_num(host.calib_ms),
        json_num(host.steal_ratio)
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
    let record = format!(
        "{{\"workload\": {}, \"trace\": {}, \"seconds\": {}, \"provenance\": {provenance}, \"result\": {result}}}\n",
        json_str(&args.workload),
        u8::from(args.trace),
        json_num(args.seconds)
    );
    let runs = dir.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", runs.display());
    }
    if args.trace {
        let path = dir.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = std::fs::write(&path, spans::to_jsonl(&out.spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("provenance: {provenance}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(seed: u64) -> Cfg {
        Cfg {
            start: Instant::now(),
            seed,
            seconds: 0.3,
            trace: true,
            setup_min: 1,
            setup_span: Duration::ZERO,
        }
    }

    /// Exact counts repeat within a run, across runs at one seed, and
    /// across seeds; a second seed changes the values.
    #[test]
    fn counts_repeat_exactly_and_values_follow_the_seed() {
        for w in ["step_small", "step_large", "oneshot"] {
            let a = run_workload(w, &short(11)).expect("run");
            let b = run_workload(w, &short(11)).expect("run");
            let c = run_workload(w, &short(12)).expect("run");
            for o in [&a, &b, &c] {
                assert_eq!(o.failed, 0, "{w}: {:?}", o.errors);
                assert!(o.counts_repeat, "{w}: counts changed between ops");
                assert_eq!(spans::violations(&o.spans), 0, "{w}");
            }
            assert_eq!(a.counts, b.counts, "{w}: same seed, different counts");
            assert_eq!(a.counts, c.counts, "{w}: counts depend on the seed");
            assert_eq!(a.first_digest, b.first_digest, "{w}");
            assert_ne!(
                a.first_digest, c.first_digest,
                "{w}: seed did not change values"
            );
        }
    }

    #[test]
    fn traced_run_reports_its_layers() {
        let expect: &[(&str, &[&str])] = &[
            (
                "step_small",
                &[
                    "exec.send_us",
                    "exec.update_us",
                    "exec.commit_us",
                    "spmd.key_us",
                    "seq.op_us",
                ],
            ),
            (
                "oneshot",
                &[
                    "lang.compile_us",
                    "lang.spec_us",
                    "spmd.plan_us",
                    "spmd.dag_us",
                    "executor.prepare_us",
                    "session.new_us",
                    "session.first_run_us",
                    "redist.us",
                    "gather.us",
                ],
            ),
        ];
        for (w, names) in expect {
            let out = run_workload(w, &short(5)).expect("run");
            let m: BTreeMap<_, _> = per_layer(&out, &Host::default())
                .into_iter()
                .map(|(name, _, v)| (name, v))
                .collect();
            for n in *names {
                assert!(m[n] > 0.0, "{w}: {n} not measured");
            }
            assert!(m["trace.overhead_ratio"] > 0.0, "{w}");
            assert!(m["exec.unattributed_ratio"] > 0.0, "{w}");
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics printed, with their
    /// units, and every workload.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let out = Outcome::default();
        let printed: Vec<Metric> = end_to_end(&out)
            .into_iter()
            .chain(per_layer(&out, &Host::default()))
            .collect();
        assert_eq!(
            text.matches("\"name\"").count(),
            WORKLOADS.len() + printed.len()
        );
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        for (name, unit, _) in printed {
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(text.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
    }

    #[test]
    fn samples_stay_uniform_in_a_fixed_buffer() {
        let mut s = Samples::default();
        let n = SAMPLES as u32 * 5 / 2;
        for i in 0..n {
            s.push((i, i));
        }
        assert_eq!(s.stride(), 4);
        assert!(s.records().iter().all(|r| r.0 % 4 == 0));
        assert_eq!(s.records().len(), n.div_ceil(4) as usize);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
