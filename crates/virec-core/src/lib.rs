#![warn(missing_docs)]

//! # virec-core
//!
//! The ViReC near-memory processor core (§3–§5 of the paper) and every
//! baseline it is evaluated against:
//!
//! * [`core::Core`] — a single-issue, in-order, 5-stage pipeline with
//!   coarse-grain multithreading and the context-switching logic (CSL).
//! * [`vrmu`] — the Virtual Register Management Unit: a fully associative
//!   tag store with T/C/A replacement metadata and the rollback queue.
//! * [`policy`] — register-cache replacement policies, including the
//!   paper's Least Recently Committed (LRC) policy.
//! * [`bsi`] — the backing-store interface with fill priority, dummy-value
//!   fills and non-blocking pipelined requests.
//! * [`engines`] — the context engines: ViReC, banked, software switching,
//!   and full/exact double-buffer prefetching.

pub mod bsi;
pub mod config;
pub mod core;
pub mod engine;
pub mod engines;
pub mod ooo;
pub mod policy;
pub mod regions;
pub mod stats;
pub mod thread;
pub mod trace;
pub mod vrmu;

pub use config::{CoreConfig, EngineKind, PolicyKind};
pub use core::Core;
pub use engine::{
    AcquireOutcome, ContextEngine, EngineEnv, EngineFault, OracleSchedule, QuantumRecord,
    QuantumTrace, RegFault, WayRetire,
};
pub use ooo::{run_ooo, OooConfig, OooResult};
pub use regions::RegRegion;
pub use stats::CoreStats;
pub use thread::{Thread, ThreadStatus};
pub use trace::{TraceEvent, Tracer, VecTracer};
