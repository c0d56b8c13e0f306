//! # vcal-machine — simulated SPMD machines
//!
//! Executable substitutes for the parallel hardware the paper targets
//! (see DESIGN.md §5 for the substitution argument):
//!
//! * [`shared`] — the Section 2.9 shared-memory machine: one thread per
//!   virtual processor, pre-state snapshot reads, a barrier, and two
//!   write strategies (direct disjoint writes vs gather-then-commit);
//! * [`distributed`] — the Section 2.10 message-passing machine: per-node
//!   private memories, non-blocking sends / blocking receives over
//!   channels, tagged-message pairing, fault injection, full statistics;
//! * [`sequential`] — the single-node reference executor;
//! * [`darray`] — distributed array images (`A'` of Section 2.6) with
//!   scatter/gather;
//! * [`stats`] — per-node counters (iterations, ownership tests,
//!   messages) that make the paper's complexity claims measurable.
//!
//! All machines are verified to produce bit-identical results to the
//! [`vcal_core::Env::exec_clause`] reference semantics.
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub(crate) mod codec;
pub mod darray;
pub mod darray_nd;
pub mod distributed;
pub mod distributed_nd;
pub mod doacross;
pub mod error;
pub mod executor;
pub mod halo;
pub(crate) mod net;
pub mod obs;
pub mod perfmodel;
pub(crate) mod proc;
pub mod redistribute;
pub mod reduce;
pub mod sequential;
pub mod serve;
pub mod session;
pub mod shared;
pub mod shared_nd;
pub mod stats;
pub mod topology;
pub mod transport;

pub use darray::DistArray;
pub use darray_nd::DistArrayNd;
pub use distributed::{run_distributed, CommMode, DistOptions};
pub use distributed_nd::run_distributed_nd;
pub use doacross::{carried_distances, run_doacross};
pub use error::MachineError;
pub use executor::{prepare_run, DistExecutor, PreparedPlan};
pub use halo::{exchange_ghosts, run_halo_sweep, HaloArray};
pub use net::ChaosPlan;
pub use obs::{
    replay_check, replay_check_dag, trace_plan, CollectingTracer, Event, EventKind, NullTracer,
    Phase, PhaseTiming, ReplayError, ReplaySummary, TraceLog, Tracer, HOST, NULL_TRACER,
};
pub use perfmodel::{CalibratedModel, CalibrationSample, PerfModel, PlanPrice, SimTime};
pub use proc::run_worker_process;
pub use redistribute::run_redistribution;
pub use reduce::{run_reduce_distributed, run_reduce_shared};
pub use sequential::run_sequential;
pub use serve::{ServeClient, ServeConfig, ServeHandle, ServeRequest, ServeResponse};
pub use session::{DistSession, ProgramReport, ScheduleMode, TuneOptions, TuneReport};
pub use shared::{run_shared, WriteStrategy};
pub use shared_nd::run_shared_nd;
pub use stats::{ExecReport, NodeStats, ServiceStats};
pub use topology::{price_traffic, Topology, TrafficCost};
pub use transport::{CrashFault, FaultPlan, ProtoTimeouts, RetryPolicy, TransportKind};
pub use vcal_spmd::{
    build_dag, CacheBudget, ProgramDag, ProgramStep, SimdCensus, SimdMode, SimdPolicy,
};
