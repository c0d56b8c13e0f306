//! Wire codec for the multi-process transport backends.
//!
//! Everything a worker process needs to run one node — the clause, the
//! decompositions, the execution options, its local memories — plus
//! everything it ships back (writes, statistics, buffered trace events,
//! its typed error state) is serialized here as flat little-endian
//! records. The encoding is deliberately *generative*: workers receive
//! the clause and decompositions and rebuild the `SpmdPlan` locally via
//! the same deterministic planner the host runs, so plans are never on
//! the wire and the two sides agree by construction (the PR 1 invariant
//! that sender packing order equals receiver expectation).
//!
//! The codec is versioned through the handshake
//! ([`WIRE_VERSION`], checked in `net::hello`); within a version the
//! byte layout is stable. Integrity is the frame layer's job (an
//! FNV-1a CRC per frame, `net::write_frame`) — decoders here only need
//! to be *safe* on malformed input (every read is bounds-checked and
//! returns a typed [`CodecError`]), not to detect corruption.
//!
//! [`Pred::Opaque`] — a closure — is the one non-serializable corner of
//! the clause language; encoding it fails with a typed error that the
//! dispatcher surfaces as [`MachineError::PlanMismatch`] before any
//! process is spawned.

use crate::distributed::{CommMode, Msg, Wire, WriteOp};
use crate::error::MachineError;
use crate::obs::{EventKind, Phase};
use crate::stats::NodeStats;
use crate::transport::{CrashFault, FaultPlan, Frame, Packet, RetryPolicy};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;
use vcal_core::func::Fn1;
use vcal_core::map::{DimFn, IndexMap};
use vcal_core::pred::Pred;
use vcal_core::set::IndexSet;
use vcal_core::{ArrayRef, BinOp, Bounds, Clause, CmpOp, Expr, Guard, Ix, Ordering};
use vcal_decomp::{Decomp1, Distribution};
use vcal_spmd::{SimdMode, SimdPolicy};

/// Version stamped into the handshake; bumped on any layout change.
pub(crate) const WIRE_VERSION: u32 = 1;

/// A typed decode (or non-serializable-encode) failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad(what: &str) -> CodecError {
    CodecError(format!("malformed {what}"))
}

type R<T> = Result<T, CodecError>;

// ---------------------------------------------------------------------
// primitive encoder / decoder
// ---------------------------------------------------------------------

/// Append-only little-endian encoder.
#[derive(Default)]
pub(crate) struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn us(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn b(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn dur(&mut self, d: Duration) {
        self.u64(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn str(&mut self, s: &str) {
        self.us(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.us(vs.len());
        for v in vs {
            self.f64(*v);
        }
    }
}

/// Bounds-checked little-endian cursor.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("length"))?;
        if end > self.buf.len() {
            return Err(CodecError(format!(
                "truncated record: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> R<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn u64(&mut self) -> R<u64> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    pub fn i64(&mut self) -> R<i64> {
        Ok(self.u64()? as i64)
    }

    pub fn f64(&mut self) -> R<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn us(&mut self) -> R<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad("usize"))
    }

    /// A length prefix about to drive an allocation: reject lengths the
    /// remaining buffer cannot possibly satisfy (at one byte per item)
    /// so corrupt input cannot request absurd reservations.
    pub fn len(&mut self) -> R<usize> {
        let n = self.us()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(bad("length prefix exceeds record"));
        }
        Ok(n)
    }

    pub fn b(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("bool")),
        }
    }

    pub fn dur(&mut self) -> R<Duration> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    pub fn str(&mut self) -> R<String> {
        let n = self.len()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| bad("utf-8 string"))
    }

    pub fn f64s(&mut self) -> R<Vec<f64>> {
        let n = self.us()?;
        if n.checked_mul(8)
            .is_none_or(|bytes| bytes > self.buf.len().saturating_sub(self.pos))
        {
            return Err(bad("f64 vector length"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    pub fn finish(self) -> R<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// vcal-core types
// ---------------------------------------------------------------------

fn enc_fn1(e: &mut Enc, f: &Fn1) {
    match f {
        Fn1::Const(c) => {
            e.u8(0);
            e.i64(*c);
        }
        Fn1::Affine { a, c } => {
            e.u8(1);
            e.i64(*a);
            e.i64(*c);
        }
        Fn1::Mod { inner, z, d } => {
            e.u8(2);
            enc_fn1(e, inner);
            e.i64(*z);
            e.i64(*d);
        }
        Fn1::Div { inner, q } => {
            e.u8(3);
            enc_fn1(e, inner);
            e.i64(*q);
        }
        Fn1::Sum(a, b) => {
            e.u8(4);
            enc_fn1(e, a);
            enc_fn1(e, b);
        }
        Fn1::Square(inner) => {
            e.u8(5);
            enc_fn1(e, inner);
        }
        Fn1::Scaled { a, c, inner } => {
            e.u8(6);
            e.i64(*a);
            e.i64(*c);
            enc_fn1(e, inner);
        }
    }
}

fn dec_fn1(d: &mut Dec) -> R<Fn1> {
    Ok(match d.u8()? {
        0 => Fn1::Const(d.i64()?),
        1 => Fn1::Affine {
            a: d.i64()?,
            c: d.i64()?,
        },
        2 => Fn1::Mod {
            inner: Box::new(dec_fn1(d)?),
            z: d.i64()?,
            d: d.i64()?,
        },
        3 => Fn1::Div {
            inner: Box::new(dec_fn1(d)?),
            q: d.i64()?,
        },
        4 => Fn1::Sum(Box::new(dec_fn1(d)?), Box::new(dec_fn1(d)?)),
        5 => Fn1::Square(Box::new(dec_fn1(d)?)),
        6 => Fn1::Scaled {
            a: d.i64()?,
            c: d.i64()?,
            inner: Box::new(dec_fn1(d)?),
        },
        _ => return Err(bad("Fn1 tag")),
    })
}

fn enc_map(e: &mut Enc, m: &IndexMap) {
    e.us(m.d_in());
    e.us(m.dims().len());
    for df in m.dims() {
        e.us(df.src);
        enc_fn1(e, &df.f);
    }
}

fn dec_map(d: &mut Dec) -> R<IndexMap> {
    let d_in = d.us()?;
    let n = d.len()?;
    let mut dims = Vec::with_capacity(n);
    for _ in 0..n {
        let src = d.us()?;
        let f = dec_fn1(d)?;
        if src >= d_in.max(1) {
            return Err(bad("IndexMap source dimension"));
        }
        dims.push(DimFn { src, f });
    }
    Ok(IndexMap::new(d_in, dims))
}

fn enc_aref(e: &mut Enc, r: &ArrayRef) {
    e.str(&r.array);
    enc_map(e, &r.map);
}

fn dec_aref(d: &mut Dec) -> R<ArrayRef> {
    Ok(ArrayRef {
        array: d.str()?,
        map: dec_map(d)?,
    })
}

fn enc_ix(e: &mut Enc, i: &Ix) {
    e.us(i.dims());
    for d in 0..i.dims() {
        e.i64(i[d]);
    }
}

fn dec_ix(d: &mut Dec) -> R<Ix> {
    let n = d.len()?;
    if n == 0 || n > 8 {
        return Err(bad("Ix dimension count"));
    }
    let mut coords = Vec::with_capacity(n);
    for _ in 0..n {
        coords.push(d.i64()?);
    }
    Ok(Ix::new(&coords))
}

fn enc_bounds(e: &mut Enc, b: &Bounds) {
    enc_ix(e, &b.lo());
    enc_ix(e, &b.hi());
}

fn dec_bounds(d: &mut Dec) -> R<Bounds> {
    let lo = dec_ix(d)?;
    let hi = dec_ix(d)?;
    if lo.dims() != hi.dims() {
        return Err(bad("Bounds dimension mismatch"));
    }
    Ok(Bounds::new(lo, hi))
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn dec_cmp(d: &mut Dec) -> R<CmpOp> {
    Ok(match d.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return Err(bad("CmpOp tag")),
    })
}

fn enc_pred(e: &mut Enc, p: &Pred) -> R<()> {
    match p {
        Pred::True => e.u8(0),
        Pred::False => e.u8(1),
        Pred::Cmp { dim, f, op, rhs } => {
            e.u8(2);
            e.us(*dim);
            enc_fn1(e, f);
            e.u8(cmp_tag(*op));
            e.i64(*rhs);
        }
        Pred::DimCmp { dim_a, op, dim_b } => {
            e.u8(3);
            e.us(*dim_a);
            e.u8(cmp_tag(*op));
            e.us(*dim_b);
        }
        Pred::And(a, b) => {
            e.u8(4);
            enc_pred(e, a)?;
            enc_pred(e, b)?;
        }
        Pred::Or(a, b) => {
            e.u8(5);
            enc_pred(e, a)?;
            enc_pred(e, b)?;
        }
        Pred::Not(a) => {
            e.u8(6);
            enc_pred(e, a)?;
        }
        Pred::Opaque { label, .. } => {
            return Err(CodecError(format!(
                "predicate `{label}` is an opaque closure — not serializable for \
                 process backends (use a structural Pred, or the in-process transport)"
            )));
        }
    }
    Ok(())
}

fn dec_pred(d: &mut Dec) -> R<Pred> {
    Ok(match d.u8()? {
        0 => Pred::True,
        1 => Pred::False,
        2 => Pred::Cmp {
            dim: d.us()?,
            f: dec_fn1(d)?,
            op: dec_cmp(d)?,
            rhs: d.i64()?,
        },
        3 => Pred::DimCmp {
            dim_a: d.us()?,
            op: dec_cmp(d)?,
            dim_b: d.us()?,
        },
        4 => Pred::And(Box::new(dec_pred(d)?), Box::new(dec_pred(d)?)),
        5 => Pred::Or(Box::new(dec_pred(d)?), Box::new(dec_pred(d)?)),
        6 => Pred::Not(Box::new(dec_pred(d)?)),
        _ => return Err(bad("Pred tag")),
    })
}

fn bin_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Min => 4,
        BinOp::Max => 5,
    }
}

fn dec_bin(d: &mut Dec) -> R<BinOp> {
    Ok(match d.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Min,
        5 => BinOp::Max,
        _ => return Err(bad("BinOp tag")),
    })
}

fn enc_expr(e: &mut Enc, x: &Expr) {
    match x {
        Expr::Ref(r) => {
            e.u8(0);
            enc_aref(e, r);
        }
        Expr::Lit(v) => {
            e.u8(1);
            e.f64(*v);
        }
        Expr::LoopVar { dim } => {
            e.u8(2);
            e.us(*dim);
        }
        Expr::Neg(inner) => {
            e.u8(3);
            enc_expr(e, inner);
        }
        Expr::Bin(op, a, b) => {
            e.u8(4);
            e.u8(bin_tag(*op));
            enc_expr(e, a);
            enc_expr(e, b);
        }
    }
}

fn dec_expr(d: &mut Dec) -> R<Expr> {
    Ok(match d.u8()? {
        0 => Expr::Ref(dec_aref(d)?),
        1 => Expr::Lit(d.f64()?),
        2 => Expr::LoopVar { dim: d.us()? },
        3 => Expr::Neg(Box::new(dec_expr(d)?)),
        4 => Expr::Bin(dec_bin(d)?, Box::new(dec_expr(d)?), Box::new(dec_expr(d)?)),
        _ => return Err(bad("Expr tag")),
    })
}

fn enc_guard(e: &mut Enc, g: &Guard) {
    match g {
        Guard::Always => e.u8(0),
        Guard::Cmp { lhs, op, rhs } => {
            e.u8(1);
            enc_aref(e, lhs);
            e.u8(cmp_tag(*op));
            e.f64(*rhs);
        }
    }
}

fn dec_guard(d: &mut Dec) -> R<Guard> {
    Ok(match d.u8()? {
        0 => Guard::Always,
        1 => Guard::Cmp {
            lhs: dec_aref(d)?,
            op: dec_cmp(d)?,
            rhs: d.f64()?,
        },
        _ => return Err(bad("Guard tag")),
    })
}

pub(crate) fn enc_clause(e: &mut Enc, c: &Clause) -> R<()> {
    enc_bounds(e, &c.iter.bounds);
    enc_pred(e, &c.iter.pred)?;
    e.u8(match c.ordering {
        Ordering::Seq => 0,
        Ordering::Par => 1,
    });
    enc_guard(e, &c.guard);
    enc_aref(e, &c.lhs);
    enc_expr(e, &c.rhs);
    Ok(())
}

pub(crate) fn dec_clause(d: &mut Dec) -> R<Clause> {
    let bounds = dec_bounds(d)?;
    let pred = dec_pred(d)?;
    let ordering = match d.u8()? {
        0 => Ordering::Seq,
        1 => Ordering::Par,
        _ => return Err(bad("Ordering tag")),
    };
    Ok(Clause {
        iter: IndexSet { bounds, pred },
        ordering,
        guard: dec_guard(d)?,
        lhs: dec_aref(d)?,
        rhs: dec_expr(d)?,
    })
}

// ---------------------------------------------------------------------
// decompositions
// ---------------------------------------------------------------------

fn enc_decomp(e: &mut Enc, dc: &Decomp1) {
    match dc.dist() {
        Distribution::Block { b } => {
            e.u8(0);
            e.i64(b);
        }
        Distribution::Scatter => e.u8(1),
        Distribution::BlockScatter { b } => {
            e.u8(2);
            e.i64(b);
        }
        Distribution::Replicated => e.u8(3),
    }
    e.i64(dc.pmax());
    enc_bounds(e, &dc.extent());
}

fn dec_decomp(d: &mut Dec) -> R<Decomp1> {
    let dist = match d.u8()? {
        0 => Distribution::Block { b: d.i64()? },
        1 => Distribution::Scatter,
        2 => Distribution::BlockScatter { b: d.i64()? },
        3 => Distribution::Replicated,
        _ => return Err(bad("Distribution tag")),
    };
    let pmax = d.i64()?;
    if !(1..=4096).contains(&pmax) {
        return Err(bad("Decomp1 processor count"));
    }
    let extent = dec_bounds(d)?;
    if extent.lo().dims() != 1 {
        return Err(bad("Decomp1 extent dimensionality"));
    }
    // `Decomp1::new` asserts these (and `Bounds::count` must not
    // overflow); a crafted record must not reach them
    let (lo, hi) = (extent.lo()[0], extent.hi()[0]);
    if hi.checked_sub(lo).and_then(|w| w.checked_add(1)).is_none() {
        return Err(bad("Decomp1 extent width"));
    }
    match dist {
        Distribution::Block { b } | Distribution::BlockScatter { b } if b < 1 => {
            return Err(bad("Decomp1 block size"));
        }
        Distribution::Block { b }
            if b.checked_mul(pmax)
                .is_none_or(|cap| cap < extent.count() as i64) =>
        {
            return Err(bad("Decomp1 block coverage"));
        }
        _ => {}
    }
    Ok(Decomp1::new(dist, pmax, extent))
}

fn enc_decomps(e: &mut Enc, ds: &BTreeMap<String, Decomp1>) {
    e.us(ds.len());
    for (name, dc) in ds {
        e.str(name);
        enc_decomp(e, dc);
    }
}

fn dec_decomps(d: &mut Dec) -> R<BTreeMap<String, Decomp1>> {
    let n = d.len()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let name = d.str()?;
        out.insert(name, dec_decomp(d)?);
    }
    Ok(out)
}

fn enc_locals(e: &mut Enc, ls: &BTreeMap<String, Vec<f64>>) {
    e.us(ls.len());
    for (name, vs) in ls {
        e.str(name);
        e.f64s(vs);
    }
}

fn dec_locals(d: &mut Dec) -> R<BTreeMap<String, Vec<f64>>> {
    let n = d.len()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let name = d.str()?;
        out.insert(name, d.f64s()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// execution options
// ---------------------------------------------------------------------

fn enc_faults(e: &mut Enc, f: &FaultPlan) {
    e.u64(f.seed);
    e.f64(f.drop);
    e.f64(f.duplicate);
    e.f64(f.reorder);
    e.f64(f.corrupt);
    e.f64(f.delay);
    match f.from_only {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.i64(p);
        }
    }
    match f.drop_exact {
        None => e.u8(0),
        Some((p, n)) => {
            e.u8(1);
            e.i64(p);
            e.u64(n);
        }
    }
    match f.crash {
        None => e.u8(0),
        Some(CrashFault {
            node,
            after_packets,
        }) => {
            e.u8(1);
            e.i64(node);
            e.u64(after_packets);
        }
    }
}

fn dec_faults(d: &mut Dec) -> R<FaultPlan> {
    let mut f = FaultPlan::seeded(0);
    f.seed = d.u64()?;
    f.drop = d.f64()?;
    f.duplicate = d.f64()?;
    f.reorder = d.f64()?;
    f.corrupt = d.f64()?;
    f.delay = d.f64()?;
    f.from_only = match d.u8()? {
        0 => None,
        1 => Some(d.i64()?),
        _ => return Err(bad("FaultPlan from_only tag")),
    };
    f.drop_exact = match d.u8()? {
        0 => None,
        1 => Some((d.i64()?, d.u64()?)),
        _ => return Err(bad("FaultPlan drop_exact tag")),
    };
    f.crash = match d.u8()? {
        0 => None,
        1 => Some(CrashFault {
            node: d.i64()?,
            after_packets: d.u64()?,
        }),
        _ => return Err(bad("FaultPlan crash tag")),
    };
    Ok(f)
}

fn enc_retry(e: &mut Enc, r: &RetryPolicy) {
    e.u32(r.max_retries);
    e.dur(r.nack_timeout);
    e.dur(r.backoff_cap);
    match r.deadline {
        None => e.u8(0),
        Some(dl) => {
            e.u8(1);
            e.dur(dl);
        }
    }
    e.u32(r.jitter_pct);
}

fn dec_retry(d: &mut Dec) -> R<RetryPolicy> {
    Ok(RetryPolicy {
        max_retries: d.u32()?,
        nack_timeout: d.dur()?,
        backoff_cap: d.dur()?,
        deadline: match d.u8()? {
            0 => None,
            1 => Some(d.dur()?),
            _ => return Err(bad("RetryPolicy deadline tag")),
        },
        jitter_pct: d.u32()?,
    })
}

fn enc_simd(e: &mut Enc, s: &SimdPolicy) {
    e.u8(match s.mode {
        SimdMode::Auto => 0,
        SimdMode::On => 1,
        SimdMode::Off => 2,
    });
    e.us(s.lanes);
}

fn dec_simd(d: &mut Dec) -> R<SimdPolicy> {
    Ok(SimdPolicy {
        mode: match d.u8()? {
            0 => SimdMode::Auto,
            1 => SimdMode::On,
            2 => SimdMode::Off,
            _ => return Err(bad("SimdMode tag")),
        },
        lanes: d.us()?,
    })
}

// ---------------------------------------------------------------------
// data-plane frames
// ---------------------------------------------------------------------

fn enc_wire(e: &mut Enc, w: &Wire) {
    match w {
        Wire::Elem(m) => {
            e.u8(0);
            e.us(m.slot);
            e.i64(m.i);
            e.f64(m.value);
        }
        Wire::Pack { run_ord, values } => {
            e.u8(1);
            e.us(*run_ord);
            e.f64s(values);
        }
    }
}

fn dec_wire(d: &mut Dec) -> R<Wire> {
    Ok(match d.u8()? {
        0 => Wire::Elem(Msg {
            slot: d.us()?,
            i: d.i64()?,
            value: d.f64()?,
        }),
        1 => Wire::Pack {
            run_ord: d.us()?,
            values: d.f64s()?,
        },
        _ => return Err(bad("Wire tag")),
    })
}

pub(crate) fn enc_frame(e: &mut Enc, f: &Frame<Wire>) {
    match f {
        Frame::Data(p) => {
            e.u8(0);
            e.i64(p.src);
            e.u64(p.seq);
            e.u64(p.check);
            enc_wire(e, &p.payload);
        }
        Frame::Ack { from, next_needed } => {
            e.u8(1);
            e.i64(*from);
            e.u64(*next_needed);
        }
        Frame::Nack { from, next_needed } => {
            e.u8(2);
            e.i64(*from);
            e.u64(*next_needed);
        }
        Frame::Done { from } => {
            e.u8(3);
            e.i64(*from);
        }
    }
}

pub(crate) fn dec_frame(d: &mut Dec) -> R<Frame<Wire>> {
    Ok(match d.u8()? {
        0 => Frame::Data(Packet {
            src: d.i64()?,
            seq: d.u64()?,
            check: d.u64()?,
            payload: dec_wire(d)?,
        }),
        1 => Frame::Ack {
            from: d.i64()?,
            next_needed: d.u64()?,
        },
        2 => Frame::Nack {
            from: d.i64()?,
            next_needed: d.u64()?,
        },
        3 => Frame::Done { from: d.i64()? },
        _ => return Err(bad("Frame tag")),
    })
}

/// A `Frame::Done { from }` record, encodable without knowing the data
/// payload type — the router synthesizes these on behalf of a dead
/// worker so surviving peers stop waiting on it.
pub(crate) fn enc_done_frame(from: i64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(3);
    e.i64(from);
    e.buf
}

// ---------------------------------------------------------------------
// results: writes, stats, trace events, errors
// ---------------------------------------------------------------------

fn enc_write(e: &mut Enc, w: &WriteOp) {
    match w {
        WriteOp::El(off, v) => {
            e.u8(0);
            e.us(*off);
            e.f64(*v);
        }
        WriteOp::Dense { base, values } => {
            e.u8(1);
            e.us(*base);
            e.f64s(values);
        }
    }
}

fn dec_write(d: &mut Dec) -> R<WriteOp> {
    Ok(match d.u8()? {
        0 => WriteOp::El(d.us()?, d.f64()?),
        1 => WriteOp::Dense {
            base: d.us()?,
            values: d.f64s()?,
        },
        _ => return Err(bad("WriteOp tag")),
    })
}

fn enc_stats(e: &mut Enc, s: &NodeStats) {
    for v in [
        s.iterations,
        s.guard_tests,
        s.data_guards,
        s.msgs_sent,
        s.msgs_received,
        s.local_reads,
        s.packets_sent,
        s.bytes_sent,
        s.max_packet_elems,
        s.retransmits,
        s.dups_dropped,
        s.corrupt_detected,
        s.acks_sent,
        s.nacks_sent,
        s.simd_runs,
        s.simd_fallback_runs,
        s.simd_lane_elems,
        s.simd_tail_elems,
        s.simd_lanes,
    ] {
        e.u64(v);
    }
}

fn dec_stats(d: &mut Dec) -> R<NodeStats> {
    let mut s = NodeStats::default();
    for f in [
        &mut s.iterations,
        &mut s.guard_tests,
        &mut s.data_guards,
        &mut s.msgs_sent,
        &mut s.msgs_received,
        &mut s.local_reads,
        &mut s.packets_sent,
        &mut s.bytes_sent,
        &mut s.max_packet_elems,
        &mut s.retransmits,
        &mut s.dups_dropped,
        &mut s.corrupt_detected,
        &mut s.acks_sent,
        &mut s.nacks_sent,
        &mut s.simd_runs,
        &mut s.simd_fallback_runs,
        &mut s.simd_lane_elems,
        &mut s.simd_tail_elems,
        &mut s.simd_lanes,
    ] {
        *f = d.u64()?;
    }
    Ok(s)
}

fn phase_tag(p: Phase) -> u8 {
    match p {
        Phase::Plan => 0,
        Phase::Send => 1,
        Phase::Update => 2,
        Phase::Drain => 3,
        Phase::Commit => 4,
        Phase::Redistribute => 5,
        Phase::Halo => 6,
    }
}

fn dec_phase(d: &mut Dec) -> R<Phase> {
    Ok(match d.u8()? {
        0 => Phase::Plan,
        1 => Phase::Send,
        2 => Phase::Update,
        3 => Phase::Drain,
        4 => Phase::Commit,
        5 => Phase::Redistribute,
        6 => Phase::Halo,
        _ => return Err(bad("Phase tag")),
    })
}

/// Map a dispatch-kind string decoded off the wire back onto the static
/// [`vcal_spmd::OptKind::name`] table. Unknown names (a newer peer)
/// fall back to leaking one interned copy — bounded by the number of
/// distinct names a peer can produce, and only reachable on the host's
/// result-ingest path.
fn intern_kind(s: String) -> &'static str {
    const KNOWN: &[&str] = &[
        "empty-loop",
        "theorem-1-constant",
        "replicated-owner",
        "block-affine-range",
        "block-monotonic-range",
        "theorem-3-corollary-1",
        "theorem-3-corollary-2",
        "theorem-3-diophantine",
        "scatter-enumerate-on-k",
        "theorem-2-repeated-block",
        "repeated-scatter",
        "piecewise-split",
        "naive-guard",
    ];
    for k in KNOWN {
        if *k == s {
            return k;
        }
    }
    Box::leak(s.into_boxed_str())
}

fn enc_event(e: &mut Enc, ev: &EventKind) {
    match ev {
        EventKind::PhaseStart(p) => {
            e.u8(0);
            e.u8(phase_tag(*p));
        }
        EventKind::PhaseEnd(p) => {
            e.u8(1);
            e.u8(phase_tag(*p));
        }
        EventKind::ModifyDispatch { kind, closed_form } => {
            e.u8(2);
            e.str(kind);
            e.b(*closed_form);
        }
        EventKind::ResideDispatch {
            slot,
            array,
            kind,
            closed_form,
        } => {
            e.u8(3);
            e.us(*slot);
            e.str(array);
            e.str(kind);
            e.b(*closed_form);
        }
        EventKind::PackSend {
            dst,
            run,
            elems,
            bytes,
        } => {
            e.u8(4);
            e.i64(*dst);
            e.us(*run);
            e.u64(*elems);
            e.u64(*bytes);
        }
        EventKind::ElemSend { dst, slot, i } => {
            e.u8(5);
            e.i64(*dst);
            e.us(*slot);
            e.i64(*i);
        }
        EventKind::RecvValue { src, slot, i } => {
            e.u8(6);
            e.i64(*src);
            e.us(*slot);
            e.i64(*i);
        }
        EventKind::InteriorRun { run, elems } => {
            e.u8(7);
            e.us(*run);
            e.u64(*elems);
        }
        EventKind::BoundaryRun { run, elems, recvs } => {
            e.u8(8);
            e.us(*run);
            e.u64(*elems);
            e.u64(*recvs);
        }
        EventKind::SimdCensus {
            vector_runs,
            fallback_runs,
            lane_elems,
            tail_elems,
        } => {
            e.u8(9);
            e.u64(*vector_runs);
            e.u64(*fallback_runs);
            e.u64(*lane_elems);
            e.u64(*tail_elems);
        }
        EventKind::HaloMsg { dst, elems } => {
            e.u8(10);
            e.i64(*dst);
            e.u64(*elems);
        }
        EventKind::RedistSend { dst, elems } => {
            e.u8(11);
            e.i64(*dst);
            e.u64(*elems);
        }
        EventKind::RedistRecv { src, elems } => {
            e.u8(12);
            e.i64(*src);
            e.u64(*elems);
        }
        EventKind::Retransmit { dst } => {
            e.u8(13);
            e.i64(*dst);
        }
        EventKind::Ack { dst } => {
            e.u8(14);
            e.i64(*dst);
        }
        EventKind::Nack { peer } => {
            e.u8(15);
            e.i64(*peer);
        }
        EventKind::DupDropped { src } => {
            e.u8(16);
            e.i64(*src);
        }
        EventKind::CorruptDetected { src } => {
            e.u8(17);
            e.i64(*src);
        }
        EventKind::Backoff { peer } => {
            e.u8(18);
            e.i64(*peer);
        }
        EventKind::DagReady { step } => {
            e.u8(19);
            e.us(*step);
        }
        EventKind::ClauseBegin { step } => {
            e.u8(20);
            e.us(*step);
        }
        EventKind::ClauseEnd { step } => {
            e.u8(21);
            e.us(*step);
        }
    }
}

fn dec_event(d: &mut Dec) -> R<EventKind> {
    Ok(match d.u8()? {
        0 => EventKind::PhaseStart(dec_phase(d)?),
        1 => EventKind::PhaseEnd(dec_phase(d)?),
        2 => EventKind::ModifyDispatch {
            kind: intern_kind(d.str()?),
            closed_form: d.b()?,
        },
        3 => EventKind::ResideDispatch {
            slot: d.us()?,
            array: d.str()?,
            kind: intern_kind(d.str()?),
            closed_form: d.b()?,
        },
        4 => EventKind::PackSend {
            dst: d.i64()?,
            run: d.us()?,
            elems: d.u64()?,
            bytes: d.u64()?,
        },
        5 => EventKind::ElemSend {
            dst: d.i64()?,
            slot: d.us()?,
            i: d.i64()?,
        },
        6 => EventKind::RecvValue {
            src: d.i64()?,
            slot: d.us()?,
            i: d.i64()?,
        },
        7 => EventKind::InteriorRun {
            run: d.us()?,
            elems: d.u64()?,
        },
        8 => EventKind::BoundaryRun {
            run: d.us()?,
            elems: d.u64()?,
            recvs: d.u64()?,
        },
        9 => EventKind::SimdCensus {
            vector_runs: d.u64()?,
            fallback_runs: d.u64()?,
            lane_elems: d.u64()?,
            tail_elems: d.u64()?,
        },
        10 => EventKind::HaloMsg {
            dst: d.i64()?,
            elems: d.u64()?,
        },
        11 => EventKind::RedistSend {
            dst: d.i64()?,
            elems: d.u64()?,
        },
        12 => EventKind::RedistRecv {
            src: d.i64()?,
            elems: d.u64()?,
        },
        13 => EventKind::Retransmit { dst: d.i64()? },
        14 => EventKind::Ack { dst: d.i64()? },
        15 => EventKind::Nack { peer: d.i64()? },
        16 => EventKind::DupDropped { src: d.i64()? },
        17 => EventKind::CorruptDetected { src: d.i64()? },
        18 => EventKind::Backoff { peer: d.i64()? },
        19 => EventKind::DagReady { step: d.us()? },
        20 => EventKind::ClauseBegin { step: d.us()? },
        21 => EventKind::ClauseEnd { step: d.us()? },
        _ => return Err(bad("EventKind tag")),
    })
}

fn enc_err(e: &mut Enc, err: &MachineError) {
    match err {
        MachineError::SequentialClause => e.u8(0),
        MachineError::UnknownArray(a) => {
            e.u8(1);
            e.str(a);
        }
        MachineError::MissingMessage { node, array, index } => {
            e.u8(2);
            e.i64(*node);
            e.str(array);
            e.i64(*index);
        }
        MachineError::MissingPacket {
            node,
            peer,
            slot,
            run,
        } => {
            e.u8(3);
            e.i64(*node);
            e.i64(*peer);
            e.us(*slot);
            e.us(*run);
        }
        MachineError::Unrecoverable {
            node,
            peer,
            retries,
        } => {
            e.u8(4);
            e.i64(*node);
            e.i64(*peer);
            e.u32(*retries);
        }
        MachineError::NodePanicked { node } => {
            e.u8(5);
            e.i64(*node);
        }
        MachineError::PeerDisconnected { node, peer } => {
            e.u8(6);
            e.i64(*node);
            e.i64(*peer);
        }
        MachineError::PlanMismatch(m) => {
            e.u8(7);
            e.str(m);
        }
        MachineError::Transport { node, detail } => {
            e.u8(8);
            e.i64(*node);
            e.str(detail);
        }
    }
}

fn dec_err(d: &mut Dec) -> R<MachineError> {
    Ok(match d.u8()? {
        0 => MachineError::SequentialClause,
        1 => MachineError::UnknownArray(d.str()?),
        2 => MachineError::MissingMessage {
            node: d.i64()?,
            array: d.str()?,
            index: d.i64()?,
        },
        3 => MachineError::MissingPacket {
            node: d.i64()?,
            peer: d.i64()?,
            slot: d.us()?,
            run: d.us()?,
        },
        4 => MachineError::Unrecoverable {
            node: d.i64()?,
            peer: d.i64()?,
            retries: d.u32()?,
        },
        5 => MachineError::NodePanicked { node: d.i64()? },
        6 => MachineError::PeerDisconnected {
            node: d.i64()?,
            peer: d.i64()?,
        },
        7 => MachineError::PlanMismatch(d.str()?),
        8 => MachineError::Transport {
            node: d.i64()?,
            detail: d.str()?,
        },
        _ => return Err(bad("MachineError tag")),
    })
}

// ---------------------------------------------------------------------
// control plane: Job / Ready / Go / Result
// ---------------------------------------------------------------------

/// Everything a worker needs to run one node of one clause. The worker
/// rebuilds the `SpmdPlan` (and its compiled schedule) from the clause
/// and decompositions via the deterministic planner, so the host and
/// every worker agree on packing order by construction.
#[derive(Debug, Clone)]
pub(crate) struct JobMsg {
    /// Monotonic per-pool run ordinal. Job dispatch is *idempotent*: the
    /// host may re-send the same job while the run is open (chaos can
    /// eat a control frame in a severed connection's buffers), and the
    /// worker answers a duplicate of a finished run by re-shipping the
    /// cached result instead of re-executing.
    pub run_id: u64,
    pub clause: Clause,
    pub decomps: BTreeMap<String, Decomp1>,
    pub recv_timeout: Duration,
    pub faults: Option<FaultPlan>,
    pub mode: CommMode,
    pub retry: RetryPolicy,
    pub overlap: bool,
    pub simd: SimdPolicy,
    pub trace_on: bool,
    /// Purge + Ready/Go barrier before the run (mirrors the in-process
    /// pool's dirty handshake).
    pub handshake: bool,
    /// The node's local array parts, in decomposition layout.
    pub locals: BTreeMap<String, Vec<f64>>,
}

/// What a worker ships back after a run (the process-backend mirror of
/// the executor's `Reply`).
#[derive(Debug, Clone)]
pub(crate) struct ResultMsg {
    /// Echo of [`JobMsg::run_id`] — the host drops results from stale
    /// runs (a re-shipped duplicate answering a retransmitted job).
    pub run_id: u64,
    pub p: i64,
    pub locals: BTreeMap<String, Vec<f64>>,
    pub writes: Vec<WriteOp>,
    pub stats: NodeStats,
    pub sent_to: Vec<u64>,
    pub res: Result<(), MachineError>,
    pub events: Vec<(i64, EventKind)>,
    pub timings: Vec<(i64, Phase, Duration)>,
}

/// A control-plane message (reliable by the stream transport itself;
/// never touched by `FaultPlan` or the chaos proxy).
#[derive(Debug, Clone)]
pub(crate) enum Ctrl {
    Job(Box<JobMsg>),
    /// Barrier acknowledgment: the worker purged and holds the job with
    /// this run ordinal. Doubles as job-delivery confirmation, so the
    /// host knows a retransmit is unnecessary.
    Ready(u64),
    Go,
    Result(Box<ResultMsg>),
    /// Host-initiated graceful worker shutdown (pool teardown).
    Shutdown,
}

pub(crate) fn enc_ctrl(c: &Ctrl) -> R<Vec<u8>> {
    let mut e = Enc::new();
    match c {
        Ctrl::Job(j) => {
            e.u8(0);
            e.u64(j.run_id);
            enc_clause(&mut e, &j.clause)?;
            enc_decomps(&mut e, &j.decomps);
            e.dur(j.recv_timeout);
            match &j.faults {
                None => e.u8(0),
                Some(f) => {
                    e.u8(1);
                    enc_faults(&mut e, f);
                }
            }
            e.u8(match j.mode {
                CommMode::Element => 0,
                CommMode::Vectorized => 1,
            });
            enc_retry(&mut e, &j.retry);
            e.b(j.overlap);
            enc_simd(&mut e, &j.simd);
            e.b(j.trace_on);
            e.b(j.handshake);
            enc_locals(&mut e, &j.locals);
        }
        Ctrl::Ready(run_id) => {
            e.u8(1);
            e.u64(*run_id);
        }
        Ctrl::Go => e.u8(2),
        Ctrl::Shutdown => e.u8(4),
        Ctrl::Result(r) => {
            e.u8(3);
            e.u64(r.run_id);
            e.i64(r.p);
            enc_locals(&mut e, &r.locals);
            e.us(r.writes.len());
            for w in &r.writes {
                enc_write(&mut e, w);
            }
            enc_stats(&mut e, &r.stats);
            e.us(r.sent_to.len());
            for v in &r.sent_to {
                e.u64(*v);
            }
            match &r.res {
                Ok(()) => e.u8(0),
                Err(err) => {
                    e.u8(1);
                    enc_err(&mut e, err);
                }
            }
            e.us(r.events.len());
            for (n, ev) in &r.events {
                e.i64(*n);
                enc_event(&mut e, ev);
            }
            e.us(r.timings.len());
            for (n, ph, dt) in &r.timings {
                e.i64(*n);
                e.u8(phase_tag(*ph));
                e.dur(*dt);
            }
        }
    }
    Ok(e.buf)
}

pub(crate) fn dec_ctrl(buf: &[u8]) -> R<Ctrl> {
    let mut d = Dec::new(buf);
    let c = match d.u8()? {
        0 => {
            let run_id = d.u64()?;
            let clause = dec_clause(&mut d)?;
            let decomps = dec_decomps(&mut d)?;
            let recv_timeout = d.dur()?;
            let faults = match d.u8()? {
                0 => None,
                1 => Some(dec_faults(&mut d)?),
                _ => return Err(bad("JobMsg faults tag")),
            };
            let mode = match d.u8()? {
                0 => CommMode::Element,
                1 => CommMode::Vectorized,
                _ => return Err(bad("CommMode tag")),
            };
            let retry = dec_retry(&mut d)?;
            let overlap = d.b()?;
            let simd = dec_simd(&mut d)?;
            let trace_on = d.b()?;
            let handshake = d.b()?;
            let locals = dec_locals(&mut d)?;
            Ctrl::Job(Box::new(JobMsg {
                run_id,
                clause,
                decomps,
                recv_timeout,
                faults,
                mode,
                retry,
                overlap,
                simd,
                trace_on,
                handshake,
                locals,
            }))
        }
        1 => Ctrl::Ready(d.u64()?),
        2 => Ctrl::Go,
        4 => Ctrl::Shutdown,
        3 => {
            let run_id = d.u64()?;
            let p = d.i64()?;
            let locals = dec_locals(&mut d)?;
            let nw = d.len()?;
            let mut writes = Vec::with_capacity(nw);
            for _ in 0..nw {
                writes.push(dec_write(&mut d)?);
            }
            let stats = dec_stats(&mut d)?;
            let ns = d.len()?;
            let mut sent_to = Vec::with_capacity(ns);
            for _ in 0..ns {
                sent_to.push(d.u64()?);
            }
            let res = match d.u8()? {
                0 => Ok(()),
                1 => Err(dec_err(&mut d)?),
                _ => return Err(bad("ResultMsg outcome tag")),
            };
            let ne = d.len()?;
            let mut events = Vec::with_capacity(ne);
            for _ in 0..ne {
                let n = d.i64()?;
                events.push((n, dec_event(&mut d)?));
            }
            let nt = d.len()?;
            let mut timings = Vec::with_capacity(nt);
            for _ in 0..nt {
                let n = d.i64()?;
                let ph = dec_phase(&mut d)?;
                let dt = d.dur()?;
                timings.push((n, ph, dt));
            }
            Ctrl::Result(Box::new(ResultMsg {
                run_id,
                p,
                locals,
                writes,
                stats,
                sent_to,
                res,
                events,
                timings,
            }))
        }
        _ => return Err(bad("Ctrl tag")),
    };
    d.finish()?;
    Ok(c)
}

// ---------------------------------------------------------------------
// serve protocol: session hello, program requests, responses
// ---------------------------------------------------------------------

/// One client request to a resident `vcalc serve` service: a whole
/// program (clauses and explicit redistributions), the decompositions,
/// and the initial global array images. Like the worker protocol, the
/// encoding is generative — plans, DAGs, and tuning decisions are all
/// rebuilt server-side from this, where the shared caches can amortize
/// them across every session that sends the same shapes.
#[derive(Debug, Clone)]
pub(crate) struct ReqMsg {
    /// Client-chosen request ordinal, echoed on the response.
    pub req_id: u64,
    /// Timestep-loop iterations of the whole program.
    pub n_steps: u64,
    /// Schedule for the program ([`crate::session::ScheduleMode`]).
    pub schedule: crate::session::ScheduleMode,
    /// Run through [`crate::session::DistSession::run_program_tuned`].
    pub autotune: bool,
    /// Tuner candidate budget (autotune only).
    pub tune_budget: usize,
    /// Tuner profile steps (autotune only).
    pub profile_steps: u64,
    /// Tuner retune period; 0 = tune once (autotune only).
    pub retune_every: u64,
    /// Per-request deadline in milliseconds; 0 = the service default.
    pub deadline_ms: u64,
    /// The program.
    pub steps: Vec<vcal_spmd::ProgramStep>,
    /// Decomposition per array.
    pub decomps: BTreeMap<String, Decomp1>,
    /// Initial global image per array, flattened over the 1-D extent.
    pub globals: BTreeMap<String, Vec<f64>>,
}

/// A successful serve response: final global images plus what the
/// service's shared caches and admission queue did for this request.
#[derive(Debug, Clone)]
pub(crate) struct RespOk {
    /// Final global image per array, flattened over the 1-D extent.
    pub globals: BTreeMap<String, Vec<f64>>,
    /// Service-level counters for this request.
    pub service: crate::stats::ServiceStats,
}

/// One serve response, success or typed failure.
#[derive(Debug, Clone)]
pub(crate) struct RespMsg {
    /// Echo of [`ReqMsg::req_id`].
    pub req_id: u64,
    /// The outcome.
    pub res: Result<RespOk, MachineError>,
}

/// Encode the serve-session hello: wire version + tenant name.
pub(crate) fn enc_shello(tenant: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(WIRE_VERSION);
    e.str(tenant);
    e.buf
}

/// Decode the serve-session hello.
pub(crate) fn dec_shello(buf: &[u8]) -> R<(u32, String)> {
    let mut d = Dec::new(buf);
    let version = d.u32()?;
    let tenant = d.str()?;
    d.finish()?;
    Ok((version, tenant))
}

fn enc_step(e: &mut Enc, s: &vcal_spmd::ProgramStep) -> R<()> {
    match s {
        vcal_spmd::ProgramStep::Clause(c) => {
            e.u8(0);
            enc_clause(e, c)?;
        }
        vcal_spmd::ProgramStep::Redistribute { array, to } => {
            e.u8(1);
            e.str(array);
            enc_decomp(e, to);
        }
    }
    Ok(())
}

fn dec_step(d: &mut Dec) -> R<vcal_spmd::ProgramStep> {
    Ok(match d.u8()? {
        0 => vcal_spmd::ProgramStep::Clause(dec_clause(d)?),
        1 => vcal_spmd::ProgramStep::Redistribute {
            array: d.str()?,
            to: dec_decomp(d)?,
        },
        _ => return Err(bad("ProgramStep tag")),
    })
}

pub(crate) fn enc_req(r: &ReqMsg) -> R<Vec<u8>> {
    let mut e = Enc::new();
    e.u64(r.req_id);
    e.u64(r.n_steps);
    e.u8(match r.schedule {
        crate::session::ScheduleMode::Seq => 0,
        crate::session::ScheduleMode::Dag => 1,
    });
    e.b(r.autotune);
    e.us(r.tune_budget);
    e.u64(r.profile_steps);
    e.u64(r.retune_every);
    e.u64(r.deadline_ms);
    e.us(r.steps.len());
    for s in &r.steps {
        enc_step(&mut e, s)?;
    }
    enc_decomps(&mut e, &r.decomps);
    enc_locals(&mut e, &r.globals);
    Ok(e.buf)
}

pub(crate) fn dec_req(buf: &[u8]) -> R<ReqMsg> {
    let mut d = Dec::new(buf);
    let req_id = d.u64()?;
    let n_steps = d.u64()?;
    let schedule = match d.u8()? {
        0 => crate::session::ScheduleMode::Seq,
        1 => crate::session::ScheduleMode::Dag,
        _ => return Err(bad("ScheduleMode tag")),
    };
    let autotune = d.b()?;
    let tune_budget = d.us()?;
    let profile_steps = d.u64()?;
    let retune_every = d.u64()?;
    let deadline_ms = d.u64()?;
    let n = d.len()?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        steps.push(dec_step(&mut d)?);
    }
    let decomps = dec_decomps(&mut d)?;
    let globals = dec_locals(&mut d)?;
    d.finish()?;
    Ok(ReqMsg {
        req_id,
        n_steps,
        schedule,
        autotune,
        tune_budget,
        profile_steps,
        retune_every,
        deadline_ms,
        steps,
        decomps,
        globals,
    })
}

fn enc_service(e: &mut Enc, s: &crate::stats::ServiceStats) {
    for v in [
        s.queue_wait_ns,
        s.sessions_served,
        s.plan_hits,
        s.plan_misses,
        s.dag_hits,
        s.dag_misses,
        s.tune_hits,
        s.tune_misses,
        s.evictions,
    ] {
        e.u64(v);
    }
}

fn dec_service(d: &mut Dec) -> R<crate::stats::ServiceStats> {
    let mut s = crate::stats::ServiceStats::default();
    for f in [
        &mut s.queue_wait_ns,
        &mut s.sessions_served,
        &mut s.plan_hits,
        &mut s.plan_misses,
        &mut s.dag_hits,
        &mut s.dag_misses,
        &mut s.tune_hits,
        &mut s.tune_misses,
        &mut s.evictions,
    ] {
        *f = d.u64()?;
    }
    Ok(s)
}

pub(crate) fn enc_resp(r: &RespMsg) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(r.req_id);
    match &r.res {
        Ok(ok) => {
            e.u8(0);
            enc_locals(&mut e, &ok.globals);
            enc_service(&mut e, &ok.service);
        }
        Err(err) => {
            e.u8(1);
            enc_err(&mut e, err);
        }
    }
    e.buf
}

pub(crate) fn dec_resp(buf: &[u8]) -> R<RespMsg> {
    let mut d = Dec::new(buf);
    let req_id = d.u64()?;
    let res = match d.u8()? {
        0 => {
            let globals = dec_locals(&mut d)?;
            let service = dec_service(&mut d)?;
            Ok(RespOk { globals, service })
        }
        1 => Err(dec_err(&mut d)?),
        _ => return Err(bad("RespMsg outcome tag")),
    };
    d.finish()?;
    Ok(RespMsg { req_id, res })
}

pub(crate) fn enc_frame_bytes(f: &Frame<Wire>) -> Vec<u8> {
    let mut e = Enc::new();
    enc_frame(&mut e, f);
    e.buf
}

pub(crate) fn dec_frame_bytes(buf: &[u8]) -> R<Frame<Wire>> {
    let mut d = Dec::new(buf);
    let f = dec_frame(&mut d)?;
    d.finish()?;
    Ok(f)
}

// ---------------------------------------------------------------------

/// A representative clause exercising most codec paths — shared by the
/// codec and net test suites.
#[cfg(test)]
pub(crate) fn sample_clause() -> Clause {
    use vcal_core::func::Fn1;
    // ∆(i ∈ 0:99 | i mod 2 = 0) // (A[i] > 0 → [2i+1](A) := [i](B) * -[i+(i div 4)](C) + 3.5)
    Clause {
        iter: IndexSet {
            bounds: Bounds::range(0, 99),
            pred: Pred::Cmp {
                dim: 0,
                f: Fn1::Mod {
                    inner: Box::new(Fn1::Affine { a: 1, c: 0 }),
                    z: 2,
                    d: 0,
                },
                op: CmpOp::Eq,
                rhs: 0,
            },
        },
        ordering: Ordering::Par,
        guard: Guard::Cmp {
            lhs: ArrayRef::d1("A", Fn1::Affine { a: 1, c: 0 }),
            op: CmpOp::Gt,
            rhs: 0.0,
        },
        lhs: ArrayRef::d1("A", Fn1::Affine { a: 2, c: 1 }),
        rhs: Expr::add(
            Expr::mul(
                Expr::Ref(ArrayRef::d1("B", Fn1::Affine { a: 1, c: 0 })),
                Expr::Neg(Box::new(Expr::Ref(ArrayRef::d1(
                    "C",
                    Fn1::Sum(
                        Box::new(Fn1::Affine { a: 1, c: 0 }),
                        Box::new(Fn1::Div {
                            inner: Box::new(Fn1::Affine { a: 1, c: 0 }),
                            q: 4,
                        }),
                    ),
                )))),
            ),
            Expr::Lit(3.5),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use super::sample_clause;

    #[test]
    fn clause_roundtrips() {
        let c = sample_clause();
        let mut e = Enc::new();
        enc_clause(&mut e, &c).expect("encodes");
        let mut d = Dec::new(&e.buf);
        let c2 = dec_clause(&mut d).expect("decodes");
        d.finish().expect("fully consumed");
        assert_eq!(format!("{c}"), format!("{c2}"));
        assert_eq!(c.lhs, c2.lhs);
        assert_eq!(c.rhs, c2.rhs);
        assert_eq!(c.guard, c2.guard);
    }

    #[test]
    fn opaque_pred_is_rejected_with_label() {
        let mut e = Enc::new();
        let p = Pred::Opaque {
            label: "mystery".into(),
            f: Arc::new(|_| true),
        };
        let err = enc_pred(&mut e, &p).expect_err("opaque must not encode");
        assert!(err.0.contains("mystery"), "names the predicate: {err}");
    }

    #[test]
    fn ctrl_job_roundtrips() {
        let mut decomps = BTreeMap::new();
        decomps.insert(
            "A".to_string(),
            Decomp1::new(Distribution::Scatter, 4, Bounds::range(0, 199)),
        );
        decomps.insert(
            "B".to_string(),
            Decomp1::new(Distribution::Block { b: 50 }, 4, Bounds::range(0, 199)),
        );
        let mut locals = BTreeMap::new();
        locals.insert("A".to_string(), vec![1.0, -2.5, f64::NAN]);
        let job = JobMsg {
            run_id: 7,
            clause: sample_clause(),
            decomps,
            recv_timeout: Duration::from_millis(250),
            faults: Some(
                FaultPlan::seeded(7)
                    .with_drop(0.1)
                    .with_corrupt(0.05)
                    .with_crash(2, 3),
            ),
            mode: CommMode::Vectorized,
            retry: RetryPolicy::fast().with_deadline(Duration::from_secs(2)),
            overlap: true,
            simd: SimdPolicy::default(),
            trace_on: true,
            handshake: false,
            locals,
        };
        let bytes = enc_ctrl(&Ctrl::Job(Box::new(job.clone()))).expect("encodes");
        let Ctrl::Job(j2) = dec_ctrl(&bytes).expect("decodes") else {
            panic!("wrong Ctrl arm");
        };
        assert_eq!(j2.decomps, job.decomps);
        assert_eq!(j2.recv_timeout, job.recv_timeout);
        assert_eq!(j2.faults, job.faults);
        assert_eq!(j2.retry, job.retry);
        assert_eq!(j2.locals["A"][1], -2.5);
        assert!(j2.locals["A"][2].is_nan(), "NaN survives bit-exactly");
        assert_eq!(format!("{}", j2.clause), format!("{}", job.clause));
    }

    #[test]
    fn ctrl_result_roundtrips_with_errors_and_events() {
        let errs = vec![
            MachineError::SequentialClause,
            MachineError::UnknownArray("Z".into()),
            MachineError::MissingMessage {
                node: 1,
                array: "B".into(),
                index: 9,
            },
            MachineError::MissingPacket {
                node: 1,
                peer: 2,
                slot: 0,
                run: 3,
            },
            MachineError::Unrecoverable {
                node: 0,
                peer: 3,
                retries: 8,
            },
            MachineError::NodePanicked { node: 2 },
            MachineError::PeerDisconnected { node: 1, peer: 0 },
            MachineError::PlanMismatch("x".into()),
            MachineError::Transport {
                node: -1,
                detail: "wire version 1 != 2".into(),
            },
        ];
        for err in errs {
            let stats = NodeStats {
                msgs_sent: 3,
                simd_lanes: 8,
                ..NodeStats::default()
            };
            let r = ResultMsg {
                run_id: 3,
                p: 2,
                locals: BTreeMap::new(),
                writes: vec![
                    WriteOp::El(4, 2.25),
                    WriteOp::Dense {
                        base: 8,
                        values: vec![1.0, 2.0],
                    },
                ],
                stats,
                sent_to: vec![0, 7, 0, 1],
                res: Err(err.clone()),
                events: vec![
                    (2, EventKind::PhaseStart(Phase::Send)),
                    (
                        2,
                        EventKind::PackSend {
                            dst: 0,
                            run: 1,
                            elems: 16,
                            bytes: 144,
                        },
                    ),
                    (
                        2,
                        EventKind::ModifyDispatch {
                            kind: "theorem-3-corollary-1",
                            closed_form: true,
                        },
                    ),
                    (2, EventKind::Nack { peer: 0 }),
                ],
                timings: vec![(2, Phase::Update, Duration::from_micros(1234))],
            };
            let bytes = enc_ctrl(&Ctrl::Result(Box::new(r))).expect("encodes");
            let Ctrl::Result(r2) = dec_ctrl(&bytes).expect("decodes") else {
                panic!("wrong Ctrl arm");
            };
            assert_eq!(r2.p, 2);
            assert_eq!(r2.sent_to, vec![0, 7, 0, 1]);
            assert_eq!(r2.stats.msgs_sent, 3);
            assert_eq!(r2.stats.simd_lanes, 8);
            assert_eq!(
                format!("{}", r2.res.expect_err("error arm")),
                format!("{err}")
            );
            assert_eq!(r2.events.len(), 4);
            let EventKind::ModifyDispatch { kind, .. } = r2.events[2].1 else {
                panic!("dispatch event lost");
            };
            assert_eq!(kind, "theorem-3-corollary-1");
            assert_eq!(
                r2.timings,
                vec![(2, Phase::Update, Duration::from_micros(1234))]
            );
        }
    }

    #[test]
    fn frames_roundtrip_and_done_is_t_independent() {
        let frames = vec![
            Frame::Data(Packet {
                src: 1,
                seq: 42,
                check: 0xdead_beef,
                payload: Wire::Pack {
                    run_ord: 2,
                    values: vec![0.5, -0.5],
                },
            }),
            Frame::Data(Packet {
                src: 0,
                seq: 0,
                check: 9,
                payload: Wire::Elem(Msg {
                    slot: 1,
                    i: -3,
                    value: 7.0,
                }),
            }),
            Frame::Ack {
                from: 2,
                next_needed: 5,
            },
            Frame::Nack {
                from: 3,
                next_needed: 1,
            },
            Frame::Done { from: 1 },
        ];
        for f in &frames {
            let bytes = enc_frame_bytes(f);
            let f2 = dec_frame_bytes(&bytes).expect("decodes");
            assert_eq!(format!("{f:?}"), format!("{f2:?}"));
        }
        assert_eq!(
            enc_done_frame(1),
            enc_frame_bytes(&Frame::Done { from: 1 }),
            "router-synthesized Done must be byte-identical to a real one"
        );
    }

    #[test]
    fn serve_records_roundtrip() {
        let mut decomps = BTreeMap::new();
        decomps.insert(
            "A".to_string(),
            Decomp1::new(Distribution::Block { b: 25 }, 4, Bounds::range(0, 99)),
        );
        let mut globals = BTreeMap::new();
        globals.insert("A".to_string(), vec![1.5, -2.0, f64::NAN]);
        let req = ReqMsg {
            req_id: 11,
            n_steps: 6,
            schedule: crate::session::ScheduleMode::Dag,
            autotune: true,
            tune_budget: 16,
            profile_steps: 2,
            retune_every: 3,
            deadline_ms: 500,
            steps: vec![
                vcal_spmd::ProgramStep::Clause(sample_clause()),
                vcal_spmd::ProgramStep::Redistribute {
                    array: "A".into(),
                    to: Decomp1::new(Distribution::Scatter, 4, Bounds::range(0, 99)),
                },
            ],
            decomps,
            globals: globals.clone(),
        };
        let bytes = enc_req(&req).expect("encodes");
        let r2 = dec_req(&bytes).expect("decodes");
        assert_eq!(r2.req_id, 11);
        assert_eq!(r2.schedule, crate::session::ScheduleMode::Dag);
        assert_eq!(r2.retune_every, 3);
        assert_eq!(r2.decomps, req.decomps);
        assert_eq!(r2.steps.len(), 2);
        assert!(r2.globals["A"][2].is_nan(), "NaN survives bit-exactly");

        let (v, tenant) = dec_shello(&enc_shello("acme")).expect("hello roundtrips");
        assert_eq!((v, tenant.as_str()), (WIRE_VERSION, "acme"));

        let ok = RespMsg {
            req_id: 11,
            res: Ok(RespOk {
                globals,
                service: crate::stats::ServiceStats {
                    queue_wait_ns: 77,
                    sessions_served: 3,
                    plan_hits: 2,
                    plan_misses: 1,
                    dag_hits: 1,
                    dag_misses: 0,
                    tune_hits: 4,
                    tune_misses: 12,
                    evictions: 1,
                },
            }),
        };
        let r3 = dec_resp(&enc_resp(&ok)).expect("ok response roundtrips");
        assert_eq!(r3.req_id, 11);
        let got = r3.res.expect("ok arm");
        assert_eq!(got.service.plan_hits, 2);
        assert_eq!(got.service.queue_wait_ns, 77);
        assert!(got.globals["A"][2].is_nan());

        let bad_resp = RespMsg {
            req_id: 12,
            res: Err(MachineError::Transport {
                node: -1,
                detail: "admission: queue full".into(),
            }),
        };
        let r4 = dec_resp(&enc_resp(&bad_resp)).expect("error response roundtrips");
        let err = r4.res.expect_err("error arm");
        assert!(format!("{err}").contains("admission: queue full"));
    }

    /// Hand-encode a `Decomp1` record: tag, block size (Block and
    /// BlockScatter only), pmax, 1-D extent.
    fn decomp_bytes(tag: u8, b: i64, pmax: i64, lo: i64, hi: i64) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(tag);
        if tag == 0 || tag == 2 {
            e.i64(b);
        }
        e.i64(pmax);
        enc_bounds(&mut e, &Bounds::range(lo, hi));
        e.buf
    }

    #[test]
    fn decomp_block_size_below_one_fails_typed() {
        for tag in [0, 2] {
            for b in [0, -3] {
                let bytes = decomp_bytes(tag, b, 4, 0, 15);
                let err = dec_decomp(&mut Dec::new(&bytes)).expect_err("b < 1");
                assert!(err.0.contains("block size"), "{err}");
            }
        }
        let ok = decomp_bytes(2, 1, 4, 0, 15);
        assert!(dec_decomp(&mut Dec::new(&ok)).is_ok());
    }

    #[test]
    fn decomp_block_not_covering_extent_fails_typed() {
        // Block(3) on 4 processors holds 12 of 16 elements
        let bytes = decomp_bytes(0, 3, 4, 0, 15);
        let err = dec_decomp(&mut Dec::new(&bytes)).expect_err("uncovered");
        assert!(err.0.contains("block coverage"), "{err}");
        // b · pmax overflowing i64 is rejected, not wrapped
        let bytes = decomp_bytes(0, i64::MAX / 2, 4, 0, 15);
        assert!(dec_decomp(&mut Dec::new(&bytes)).is_err());
        // an extent whose element count overflows i64
        let bytes = decomp_bytes(1, 0, 4, i64::MIN, i64::MAX);
        let err = dec_decomp(&mut Dec::new(&bytes)).expect_err("huge extent");
        assert!(err.0.contains("extent width"), "{err}");
        let ok = decomp_bytes(0, 4, 4, 0, 15);
        assert!(dec_decomp(&mut Dec::new(&ok)).is_ok());
    }

    #[test]
    fn truncated_and_garbage_input_fail_typed() {
        let bytes = enc_ctrl(&Ctrl::Ready(9)).expect("encodes");
        assert!(dec_ctrl(&bytes[..0]).is_err(), "empty input");
        let mut long = bytes.clone();
        long.push(0);
        assert!(dec_ctrl(&long).is_err(), "trailing bytes");
        assert!(dec_ctrl(&[250]).is_err(), "unknown tag");
        // a length prefix far beyond the record must not allocate
        let mut e = Enc::new();
        e.u8(3); // Ctrl::Result
        e.i64(0);
        e.u64(u64::MAX); // locals count
        assert!(dec_ctrl(&e.buf).is_err(), "absurd length prefix");
    }
}
