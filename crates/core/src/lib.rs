#![warn(missing_docs)]
//! Object inlining — the primary contribution of *Automatic Inline
//! Allocation of Objects* (Dolby, PLDI 1997).
//!
//! Object inlining automatically allocates child objects *inside* their
//! containers (the way a C++ programmer writes `Point p;` instead of
//! `Point *p;`) while preserving a uniform object model in the source
//! language. The optimization has two analyses and one transformation:
//!
//! - **Use specialization** (§4.1, [`usespec`]): find all uses of values
//!   loaded from inlinable fields precisely, via the tag analysis in
//!   `oi-analysis`, and demand that every field-access instruction can be
//!   rewritten against a single inline layout.
//! - **Assignment specialization** (§4.2, [`assignspec`]): prove that the
//!   value stored into an inlined slot can be *passed by value* — it was
//!   created locally (or itself received by value), is never stored
//!   anywhere else, and is never used after the store — so copying it into
//!   the container cannot change observable aliasing.
//! - **Transformation** (§5, [`restructure`] and [`rewrite`]): remove the
//!   reference field, splice the child's fields into the container (first
//!   child field replaces the removed slot, the rest are appended — §5.2),
//!   redirect loads to interior references, turn stores into field-wise
//!   copies or in-place construction, and inline-allocate arrays of objects
//!   with interleaved or parallel layout (§5.3).
//!
//! The entry point is [`pipeline::optimize`]; [`pipeline::baseline`]
//! produces the comparison program (devirtualized and cleaned up, but
//! without object inlining), mirroring the paper's "Concert without
//! inlining" configuration.
//!
//! # Examples
//!
//! ```
//! use oi_core::pipeline::{optimize, InlineConfig};
//! let program = oi_ir::lower::compile(
//!     "class Point { field x; field y;
//!        method init(a, b) { self.x = a; self.y = b; }
//!      }
//!      class Rect { field ll @inline_cxx; field ur;
//!        method init(a, b) { self.ll = a; self.ur = b; }
//!      }
//!      fn main() {
//!        var r = new Rect(new Point(1.0, 2.0), new Point(3.0, 4.0));
//!        print r.ll.x + r.ur.y;
//!      }",
//! )?;
//! let optimized = optimize(&program, &InlineConfig::default());
//! assert!(optimized.report.fields_inlined >= 1);
//! # Ok::<(), oi_support::Diagnostic>(())
//! ```

pub mod assignspec;
pub mod cache;
pub mod decision;
pub mod devirt;
pub mod fault;
pub mod firewall;
pub mod ladder;
pub mod pipeline;
pub mod report;
pub mod restructure;
pub mod rewrite;
pub mod usespec;

pub use cache::{config_fingerprint, Artifact, ArtifactCache, CacheKey, CacheStats};
pub use decision::{InlinePlan, PlanEntry};
pub use fault::{Fault, IoFault};
pub use firewall::{
    optimize_guarded, optimize_guarded_budgeted, Divergence, FirewallConfig, Guarded,
};
pub use ladder::{optimize_with_ladder, LadderConfig, LadderOutcome, Tier};
pub use pipeline::{baseline, optimize, InlineConfig, Optimized};
pub use report::EffectivenessReport;
