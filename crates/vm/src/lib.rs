#![warn(missing_docs)]
//! Instrumented interpreter and cost model for evaluating object inlining.
//!
//! The paper measured wall-clock time of compiled benchmarks on a
//! SparcStation 20/60; that substrate is unavailable, so this crate provides
//! the closest synthetic equivalent: an interpreter over a **flat,
//! word-addressed heap** with an explicit cycle cost model and a simulated
//! data cache. The costs object inlining removes show up exactly where the
//! paper says they do:
//!
//! - every [`oi_ir::Instr::GetField`] through a real reference is a heap
//!   load (plus a cache probe at the object's address);
//! - an inlined child is reached by [`oi_ir::Instr::MakeInterior`] — pure
//!   address arithmetic, one cycle, **no load**;
//! - allocation pays a base cost plus a per-word cost, so merging children
//!   into containers reduces both count and volume;
//! - child state colocated with its container shares cache lines with it.
//!
//! # Examples
//!
//! ```
//! use oi_vm::{run, VmConfig};
//! let program = oi_ir::lower::compile("fn main() { print 6 * 7; }")?;
//! let result = run(&program, &VmConfig::default()).expect("runs");
//! assert_eq!(result.output, "42\n");
//! assert!(result.metrics.cycles > 0);
//! # Ok::<(), oi_support::Diagnostic>(())
//! ```

pub mod cache;
pub mod cost;
mod decode;
pub mod error;
pub mod heap;
pub mod interp;
pub mod metrics;
pub mod profile;
pub mod sanitizer;
mod tables;
pub mod value;

pub use cache::{CacheConfig, CacheSim};
pub use cost::CostModel;
pub use error::VmError;
pub use heap::{CensusBucket, HeapCensus};
pub use interp::{
    run, FuelOutcome, HeapCensusEntry, HeapCensusReport, RunResult, VmConfig, VmSession,
};
pub use metrics::Metrics;
pub use sanitizer::{CheckLevel, Finding, FindingKind, SanitizerReport};
pub use value::{ObjId, Value};
