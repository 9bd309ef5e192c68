#![warn(missing_docs)]
//! The benchmark suite of the PLDI'97 evaluation (§6), re-implemented for
//! the Izzy uniform object model.
//!
//! The paper evaluates on four pre-existing C++/ICC++ codes; those sources
//! are not available, so each is re-implemented faithfully to the paper's
//! description of *what object inlining finds in it*:
//!
//! - [`programs::oopack`]: the ComplexBenchmark kernel — arrays of complex-number
//!   objects, inline-allocated in C++ but references in a uniform model.
//! - [`programs::richards`]: the operating-system simulator — tasks with a
//!   *polymorphic* private-data slot (declared `void*` in C++, so it cannot
//!   be inlined there; our divergent per-subclass inlining handles it).
//! - [`programs::silo`]: an event-driven simulator — inlinable queue wrapper objects,
//!   log cons cells merged with their data, and a **global event list whose
//!   cons cells must not be merged** (the paper's aliasing limit).
//! - [`programs::polyover`]: polygon-map overlay — arrays of polygons (inlined into
//!   the arrays) and result polygons merged with the cons cells of their
//!   list; evaluated in an array and a list variant, both ~3x in the paper.
//!
//! Each benchmark also has a **manual** variant: the same computation with
//! inline allocation done by hand (flattened fields, parallel coordinate
//! arrays) — the stand-in for the paper's `G++ -O2` bars. All variants of a
//! benchmark print identical output, which the evaluation harness asserts.

pub mod eval;
pub mod ground_truth;
pub mod programs;

pub use eval::{build, evaluate, BenchSize, Build, Evaluation};
pub use ground_truth::GroundTruth;
pub use programs::{all_benchmarks, Benchmark};
