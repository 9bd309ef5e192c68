//! Resource budgets for the analysis and pipeline: the knob that turns
//! cliff-edge divergence errors into graceful precision loss.
//!
//! A [`Budget`] bounds a compilation along four dimensions — wall-clock
//! deadline, abstract-interpretation steps, fixpoint rounds, and contour
//! creations. Consumers *charge* the budget as they work; the first
//! dimension to run out is recorded and every later charge fails, so the
//! caller can switch to a degraded-but-sound strategy (the analysis
//! engine widens globally; the pipeline ladder descends a tier).
//!
//! Charges use interior mutability ([`std::cell::Cell`]) so a budget can
//! be threaded by shared reference through code that is otherwise
//! immutable-borrow-heavy. A `Budget` is deliberately neither `Clone`
//! nor `Sync`: one budget governs one job on one thread.
//!
//! # Examples
//!
//! ```
//! use oi_support::budget::{Budget, BudgetDimension};
//!
//! let b = Budget::unlimited().with_rounds(2);
//! assert!(b.charge_round());
//! assert!(b.charge_round());
//! assert!(!b.charge_round());
//! assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Rounds));
//! // Exhaustion is sticky across dimensions.
//! assert!(!b.charge_step());
//! ```

use std::cell::Cell;
use std::time::{Duration, Instant};

/// The budget dimension that ran out first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetDimension {
    /// The wall-clock deadline passed.
    Deadline,
    /// The abstract-interpretation step allowance ran out.
    Steps,
    /// The fixpoint-round allowance ran out.
    Rounds,
    /// The contour-creation allowance ran out.
    Contours,
}

impl BudgetDimension {
    /// Stable kebab-case name used in provenance, traces, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            BudgetDimension::Deadline => "deadline",
            BudgetDimension::Steps => "steps",
            BudgetDimension::Rounds => "rounds",
            BudgetDimension::Contours => "contours",
        }
    }
}

impl std::fmt::Display for BudgetDimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How often `charge_step` consults the clock. Steps are charged per
/// abstract instruction, so an `Instant::now()` each time would dominate;
/// once every 1024 steps keeps deadline overshoot in the microseconds.
const DEADLINE_CHECK_MASK: u64 = 1023;

/// A cooperative resource budget (see the module docs).
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    steps_left: Cell<u64>,
    rounds_left: Cell<u64>,
    contours_left: Cell<u64>,
    ticks: Cell<u64>,
    exhausted: Cell<Option<BudgetDimension>>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget no charge can exhaust.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            steps_left: Cell::new(u64::MAX),
            rounds_left: Cell::new(u64::MAX),
            contours_left: Cell::new(u64::MAX),
            ticks: Cell::new(0),
            exhausted: Cell::new(None),
        }
    }

    /// The budget a caller's optional limits describe: a fixpoint-round
    /// cap and a wall-clock deadline in milliseconds from now. `None`
    /// leaves that dimension unlimited.
    pub fn from_limits(max_rounds: Option<u64>, deadline_ms: Option<u64>) -> Self {
        let mut budget = Self::unlimited();
        if let Some(rounds) = max_rounds {
            budget = budget.with_rounds(rounds);
        }
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        budget
    }

    /// Sets a wall-clock deadline `limit` from now.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Caps abstract-interpretation steps.
    #[must_use]
    pub fn with_steps(self, steps: u64) -> Self {
        self.steps_left.set(steps);
        self
    }

    /// Caps fixpoint rounds.
    #[must_use]
    pub fn with_rounds(self, rounds: u64) -> Self {
        self.rounds_left.set(rounds);
        self
    }

    /// Caps contour creations (method and object contours combined).
    #[must_use]
    pub fn with_contours(self, contours: u64) -> Self {
        self.contours_left.set(contours);
        self
    }

    /// The dimension that ran out, if any.
    pub fn exhausted_dimension(&self) -> Option<BudgetDimension> {
        self.exhausted.get()
    }

    /// `true` once any dimension has run out. Exhaustion is sticky: no
    /// later charge on any dimension succeeds.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.get().is_some()
    }

    /// Checks the deadline immediately (charges nothing). Returns `false`
    /// when the budget is exhausted.
    pub fn check_deadline(&self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.exhausted.set(Some(BudgetDimension::Deadline));
                return false;
            }
        }
        true
    }

    /// Charges one abstract-interpretation step. The deadline is polled
    /// every 1024 steps. Returns `false` when the budget is exhausted.
    pub fn charge_step(&self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        let ticks = self.ticks.get().wrapping_add(1);
        self.ticks.set(ticks);
        if ticks & DEADLINE_CHECK_MASK == 0 && !self.check_deadline() {
            return false;
        }
        self.decrement(&self.steps_left, BudgetDimension::Steps)
    }

    /// Charges one fixpoint round (and polls the deadline). Returns
    /// `false` when the budget is exhausted.
    pub fn charge_round(&self) -> bool {
        if !self.check_deadline() {
            return false;
        }
        self.decrement(&self.rounds_left, BudgetDimension::Rounds)
    }

    /// Charges one contour creation (and polls the deadline). Returns
    /// `false` when the budget is exhausted.
    pub fn charge_contour(&self) -> bool {
        if !self.check_deadline() {
            return false;
        }
        self.decrement(&self.contours_left, BudgetDimension::Contours)
    }

    fn decrement(&self, left: &Cell<u64>, dim: BudgetDimension) -> bool {
        match left.get() {
            0 => {
                self.exhausted.set(Some(dim));
                false
            }
            u64::MAX => true, // unlimited sentinel
            n => {
                left.set(n - 1);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge_step());
        }
        assert!(b.charge_round());
        assert!(b.charge_contour());
        assert!(!b.is_exhausted());
    }

    #[test]
    fn step_budget_exhausts_and_is_sticky() {
        let b = Budget::unlimited().with_steps(3);
        assert!(b.charge_step());
        assert!(b.charge_step());
        assert!(b.charge_step());
        assert!(!b.charge_step());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Steps));
        // Other dimensions are shut off too.
        assert!(!b.charge_round());
        assert!(!b.charge_contour());
    }

    #[test]
    fn contour_budget_is_independent_of_rounds() {
        let b = Budget::unlimited().with_contours(1).with_rounds(10);
        assert!(b.charge_round());
        assert!(b.charge_contour());
        assert!(!b.charge_contour());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Contours));
    }

    #[test]
    fn expired_deadline_exhausts_on_first_poll() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert!(!b.charge_round());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Deadline));
    }

    #[test]
    fn zero_round_budget_fails_the_first_charge() {
        let b = Budget::unlimited().with_rounds(0);
        assert!(!b.charge_round());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Rounds));
    }

    #[test]
    fn from_limits_sets_exactly_the_given_dimensions() {
        let b = Budget::from_limits(None, None);
        assert!(b.deadline.is_none());
        for _ in 0..1_000 {
            assert!(b.charge_round());
        }
        assert!(!b.is_exhausted());

        let b = Budget::from_limits(Some(2), None);
        assert!(b.deadline.is_none());
        assert!(b.charge_round() && b.charge_round());
        assert!(!b.charge_round());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Rounds));

        let b = Budget::from_limits(None, Some(0));
        assert!(b.deadline.is_some());
        assert!(!b.charge_round());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Deadline));

        let b = Budget::from_limits(Some(0), Some(60_000));
        assert!(b.deadline.is_some());
        assert!(!b.charge_round());
        assert_eq!(b.exhausted_dimension(), Some(BudgetDimension::Rounds));
    }

    #[test]
    fn dimension_names_are_stable() {
        assert_eq!(BudgetDimension::Deadline.name(), "deadline");
        assert_eq!(BudgetDimension::Steps.name(), "steps");
        assert_eq!(BudgetDimension::Rounds.name(), "rounds");
        assert_eq!(BudgetDimension::Contours.name(), "contours");
        assert_eq!(BudgetDimension::Rounds.to_string(), "rounds");
    }
}
