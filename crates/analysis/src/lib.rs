#![warn(missing_docs)]
//! Concert-style context-sensitive flow analysis (paper §3.2).
//!
//! This crate reproduces the analysis substrate the paper builds on — the
//! Illinois Concert compiler's global flow analysis (Plevyak & Chien) — in
//! the form object inlining needs:
//!
//! - **Method contours** ([`contour::MContour`]) are the unit of context
//!   sensitivity. A contour is created per distinct *argument abstraction*
//!   (concrete types **and field tags** of `self` and the arguments), which
//!   realizes the paper's demand-driven call-confluence splitting rule
//!   (§4.1): two calls share a contour only if their tags agree.
//! - **Object contours** ([`contour::OContour`]) abstract heap objects per
//!   (allocation site, creating method contour) — the paper's creator
//!   sensitivity, which disambiguates the two `List` objects in
//!   `do_rectangle` (Figure 9).
//! - **Field tags** ([`types::Tag`]) mark every value with the fields it may
//!   have been loaded from (`NoField` / `MakeTag` of §4.1), transitively
//!   through nested field accesses.
//!
//! The engine ([`engine::analyze`]) runs a whole-program abstract
//! interpretation to a fixpoint and returns an [`result::AnalysisResult`]
//! with per-contour frames, field summaries, a contour-level call graph, and
//! recorded field/array/identity uses — everything `oi-core` needs for use
//! specialization, assignment specialization and the transformation.
//!
//! # Examples
//!
//! ```
//! use oi_analysis::{analyze, AnalysisConfig};
//! let program = oi_ir::lower::compile(
//!     "class P { field v; method init(a) { self.v = a; } }
//!      fn main() { var p = new P(1); print p.v; }",
//! )?;
//! let result = analyze(&program, &AnalysisConfig::default());
//! assert!(result.mcontours.len() >= 2); // main + init
//! # Ok::<(), oi_support::Diagnostic>(())
//! ```

pub mod contour;
pub mod engine;
pub mod report;
pub mod result;
pub mod types;

pub use contour::{MCtxId, OCtxId};
pub use engine::{analyze, try_analyze, AnalysisConfig};
pub use report::ContourStats;
pub use result::AnalysisResult;
pub use types::{AbstractVal, PathSeg, Tag, TagId, TypeElem};
