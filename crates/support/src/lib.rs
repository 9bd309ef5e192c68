#![warn(missing_docs)]
//! Support utilities for the object-inlining reproduction.
//!
//! This crate hosts the small, dependency-free building blocks shared by the
//! rest of the workspace:
//!
//! - [`intern`]: a string interner producing copyable [`intern::Symbol`]s,
//! - [`index`]: typed index newtypes and the [`index::IdxVec`] arena,
//! - [`budget`]: cooperative resource budgets (deadline, steps, rounds,
//!   contours) behind the analysis governor and the batch driver,
//! - [`cli`]: the shared command-line argument scanner used by every
//!   binary (strict flag classification, exit-2 discipline),
//! - [`codec`]: dependency-free binary encoding (bounds-checked,
//!   panic-free decoding) behind the persistent artifact store,
//! - [`diag`]: source spans, a line-start index, and compiler diagnostics,
//! - [`error`]: the shared [`error::OiError`] type for recoverable
//!   pipeline failures,
//! - [`hash`]: a dependency-free blake-style 128-bit content hash behind
//!   the compile server's artifact-cache keys,
//! - [`json`]: a dependency-free JSON document model (build, print, parse),
//! - [`metrics`]: a service-metrics registry (counters, gauges, latency
//!   histograms) exported as schema-stable `oi.metrics.v1`,
//! - [`panic`](mod@panic): panic containment (`catch_unwind` + hook
//!   silencing) for drivers that survive hostile jobs,
//! - [`trace`]: the `oi-trace` observability layer (spans, events,
//!   counters, and pluggable sinks selected via `OIC_TRACE`),
//! - [`rng`]: a seedable xorshift PRNG for synthetic workloads and
//!   property tests,
//! - [`stats`]: robust timing statistics (median/MAD, IQR outlier
//!   rejection, calibrated noise floors) behind every wall-clock verdict.
//!
//! # Examples
//!
//! ```
//! use oi_support::intern::Interner;
//!
//! let mut interner = Interner::new();
//! let a = interner.intern("lower_left");
//! let b = interner.intern("lower_left");
//! assert_eq!(a, b);
//! assert_eq!(interner.resolve(a), "lower_left");
//! ```

pub mod budget;
pub mod cli;
pub mod codec;
pub mod diag;
pub mod error;
pub mod hash;
pub mod index;
pub mod intern;
pub mod json;
pub mod metrics;
pub mod panic;
pub mod rng;
pub mod stats;
pub mod trace;

pub use budget::{Budget, BudgetDimension};
pub use diag::{Diagnostic, LineIndex, Span};
pub use error::OiError;
pub use index::IdxVec;
pub use intern::{Interner, Symbol};
pub use json::Json;

/// Declares a copyable, ordered, hashable index newtype over `u32`.
///
/// The generated type implements the [`index::Idx`] trait so it can key an
/// [`IdxVec`].
///
/// # Examples
///
/// ```
/// oi_support::define_idx!(pub struct ClassId, "class");
/// let c = ClassId::new(3);
/// assert_eq!(c.index(), 3);
/// assert_eq!(format!("{c:?}"), "class3");
/// ```
#[macro_export]
macro_rules! define_idx {
    ($(#[$meta:meta])* pub struct $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an index from a raw `usize`.
            ///
            /// # Panics
            ///
            /// Panics if `raw` exceeds `u32::MAX`.
            #[inline]
            pub fn new(raw: usize) -> Self {
                assert!(raw <= u32::MAX as usize, "index overflow");
                Self(raw as u32)
            }

            /// Returns the raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $crate::index::Idx for $name {
            #[inline]
            fn from_usize(raw: usize) -> Self {
                Self::new(raw)
            }
            #[inline]
            fn as_usize(self) -> usize {
                self.index()
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}
