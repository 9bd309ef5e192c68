//! Overload-control primitives for the compile service: the brownout
//! feedback controller, the per-fingerprint circuit breaker backing the
//! worker watchdog, and the client-side retry policy.
//!
//! The serve loop (`crate::serve`) owns the wiring — queue-wait sampling,
//! metrics export, watchdog supervision — while this module owns the three
//! *decisions*:
//!
//! - [`Brownout`]: when to step the [`BrownoutLevel`] ladder down (service
//!   is drowning) or back up (it recovered), with hysteresis so the tier
//!   never flaps;
//! - [`CircuitBreaker`]: whether a source fingerprint that has repeatedly
//!   wedged a compile worker may be compiled again (closed → open after K
//!   strikes → half-open probe → closed);
//! - [`RetryPolicy`]: how long a well-behaved client waits before
//!   resubmitting a shed request (jittered exponential backoff, capped by
//!   a total retry budget, never earlier than the server's
//!   `retry_after_ms` hint).
//!
//! Everything here is deterministic given its inputs (the retry jitter
//! draws from a caller-seeded [`XorShift64`]), so the chaos matrix and the
//! `brownoutload` gate can replay scenarios exactly.

use oi_core::ladder::Tier;
use oi_support::metrics::Window;
use oi_support::rng::XorShift64;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One rung of the brownout ladder, the service-level overload dial.
///
/// The compile rungs are the ladder's own [`Tier`]s: compiles start from
/// that tier. The last rung, `cache-only`, is a service policy with no
/// compilation tier at all: cached artifacts are served, cache misses are
/// shed with retry guidance instead of compiled. Deeper rungs trade
/// precision (and finally freshness) for queue drain rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrownoutLevel {
    /// Compiles start at this tier.
    Compile(Tier),
    /// Serve cache hits only; shed every compile miss.
    CacheOnly,
}

impl BrownoutLevel {
    /// Normal service: the full guarded pipeline.
    pub const GUARDED_FULL: BrownoutLevel = BrownoutLevel::Compile(Tier::GuardedFull);

    /// Every level, shallowest first.
    pub fn ladder() -> impl Iterator<Item = BrownoutLevel> {
        std::iter::successors(Some(BrownoutLevel::GUARDED_FULL), |l| l.descend())
    }

    /// Stable kebab-case name used in gauges, responses, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Compile(tier) => tier.name(),
            BrownoutLevel::CacheOnly => "cache-only",
        }
    }

    /// Depth index (0 = `guarded-full` … 3 = `cache-only`), the value of
    /// the `serve.brownout_tier` gauge.
    pub fn index(self) -> usize {
        BrownoutLevel::ladder()
            .position(|l| l == self)
            .expect("every level is on the ladder")
    }

    /// One rung deeper, or `None` at `cache-only`.
    pub fn descend(self) -> Option<BrownoutLevel> {
        match self {
            BrownoutLevel::Compile(tier) => Some(
                tier.next_lower()
                    .map_or(BrownoutLevel::CacheOnly, BrownoutLevel::Compile),
            ),
            BrownoutLevel::CacheOnly => None,
        }
    }

    /// One rung shallower, or `None` at `guarded-full`.
    pub fn recover(self) -> Option<BrownoutLevel> {
        BrownoutLevel::ladder().take_while(|&l| l != self).last()
    }

    /// The compilation tier compiles should start from at this level, or
    /// `None` at `cache-only` (no compiles happen at all).
    pub fn start_tier(self) -> Option<Tier> {
        match self {
            BrownoutLevel::Compile(tier) => Some(tier),
            BrownoutLevel::CacheOnly => None,
        }
    }
}

/// Tuning for the [`Brownout`] feedback loop.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// The queue-wait p99 the service steers toward (`--brownout-target-ms`).
    pub target_ns: u128,
    /// Minimum time between tier transitions, in either direction. The
    /// dwell is the anti-flap guarantee: however noisy the signal, the
    /// tier changes at most once per dwell.
    pub dwell: Duration,
    /// Samples required in the window before its p99 is trusted.
    pub min_samples: usize,
    /// Sliding-window capacity (recent queue-wait samples).
    pub window: usize,
    /// The serve queue bound; depth near the bound is an *early* descend
    /// trigger (the queue fills faster than waits accumulate).
    pub queue_cap: usize,
}

impl BrownoutConfig {
    /// Defaults for a `target_ms` target: 250ms dwell, 16-sample minimum,
    /// 256-sample window.
    pub fn for_target_ms(target_ms: u64, queue_cap: usize) -> BrownoutConfig {
        BrownoutConfig {
            target_ns: u128::from(target_ms) * 1_000_000,
            dwell: Duration::from_millis(250),
            min_samples: 16,
            window: 256,
            queue_cap: queue_cap.max(1),
        }
    }
}

/// A tier change decided by [`Brownout::note`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Stepped one rung deeper (service shedding precision for drain rate).
    Descend(BrownoutLevel),
    /// Stepped one rung shallower (pressure subsided).
    Recover(BrownoutLevel),
}

struct BrownoutState {
    level: BrownoutLevel,
    window: Window,
    last_change: Option<Instant>,
}

/// The brownout feedback controller.
///
/// Feed it one `(queue_depth, queue_wait_ns)` observation per dequeued
/// request; it answers with a [`Transition`] when the tier should change.
///
/// The feedback law (DESIGN §17):
///
/// - **descend** when the windowed queue-wait p99 exceeds the target, or —
///   earlier — when the queue is over ¾ full (depth leads latency);
/// - **recover** when the windowed p99 is under *half* the target **and**
///   the queue is under ¼ full (distinct thresholds: the recover bar is
///   strictly harder than the descend bar, so the controller cannot
///   oscillate on a signal sitting at the boundary);
/// - either way, at most one step per dwell window, and the sample window
///   resets on every transition so the new tier is judged on its own
///   latency, not its predecessor's backlog.
pub struct Brownout {
    config: BrownoutConfig,
    state: Mutex<BrownoutState>,
}

impl Brownout {
    /// A controller starting at `guarded-full`.
    pub fn new(config: BrownoutConfig) -> Brownout {
        Brownout {
            config,
            state: Mutex::new(BrownoutState {
                level: BrownoutLevel::GUARDED_FULL,
                window: Window::new(config.window),
                last_change: None,
            }),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, BrownoutState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current brownout level.
    pub fn level(&self) -> BrownoutLevel {
        self.locked().level
    }

    /// Pins the controller to `level` (harness hook: `loadgen` and the
    /// chaos matrix use it to exercise degraded paths deterministically).
    pub fn force(&self, level: BrownoutLevel) {
        let mut s = self.locked();
        s.level = level;
        s.window.clear();
        s.last_change = Some(Instant::now());
    }

    /// Records one dequeue observation and applies the feedback law.
    pub fn note(&self, queue_depth: usize, wait_ns: u128) -> Option<Transition> {
        let mut s = self.locked();
        s.window.record(wait_ns);
        if let Some(at) = s.last_change {
            if at.elapsed() < self.config.dwell {
                return None;
            }
        }
        let p99 = s.window.quantile_ns(99.0);
        let enough = s.window.len() >= self.config.min_samples;
        let queue_pressure = queue_depth.saturating_mul(4) >= self.config.queue_cap * 3;
        let wait_pressure = enough && p99 > self.config.target_ns;
        if queue_pressure || wait_pressure {
            let next = s.level.descend()?;
            s.level = next;
            s.window.clear();
            s.last_change = Some(Instant::now());
            return Some(Transition::Descend(next));
        }
        let calm_wait = enough && p99.saturating_mul(2) < self.config.target_ns;
        let calm_queue = queue_depth.saturating_mul(4) <= self.config.queue_cap;
        if calm_wait && calm_queue {
            let next = s.level.recover()?;
            s.level = next;
            s.window.clear();
            s.last_change = Some(Instant::now());
            return Some(Transition::Recover(next));
        }
        None
    }
}

/// Tuning for the per-fingerprint [`CircuitBreaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Watchdog kills of one fingerprint before its circuit opens.
    pub strikes: u32,
    /// How long an open circuit refuses compiles before admitting one
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            strikes: 3,
            cooldown: Duration::from_millis(1_000),
        }
    }
}

enum FpState {
    /// Counting strikes; compiles admitted.
    Closed { strikes: u32 },
    /// Quarantined; compiles refused until the cooldown elapses.
    Open { since: Instant },
    /// One probe compile is in flight; everyone else is refused.
    HalfOpen,
}

/// What the breaker says about compiling a fingerprint right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed: compile normally.
    Allow,
    /// Cooldown elapsed: this caller is the half-open probe. Report the
    /// outcome via [`CircuitBreaker::success`] or [`CircuitBreaker::strike`].
    Probe,
    /// Quarantined: refuse without compiling; retry after the hint.
    Refuse {
        /// Milliseconds until a probe becomes possible.
        retry_after_ms: u64,
    },
}

/// A circuit breaker keyed by source fingerprint.
///
/// A fingerprint whose compile the watchdog has killed `strikes` times is
/// quarantined: further compile requests are refused *without* spending a
/// worker on them. After `cooldown`, exactly one probe is admitted; a
/// clean probe closes the circuit (strikes forgiven), a killed probe
/// re-opens it for another full cooldown.
pub struct CircuitBreaker {
    config: BreakerConfig,
    states: Mutex<HashMap<u64, FpState>>,
}

impl CircuitBreaker {
    /// An all-closed breaker.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            states: Mutex::new(HashMap::new()),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, HashMap<u64, FpState>> {
        self.states.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// May `fp` be compiled right now?
    pub fn admit(&self, fp: u64) -> Admission {
        let mut states = self.locked();
        match states.get(&fp) {
            None | Some(FpState::Closed { .. }) => Admission::Allow,
            Some(FpState::HalfOpen) => Admission::Refuse {
                retry_after_ms: duration_ms(self.config.cooldown).max(1),
            },
            Some(FpState::Open { since }) => {
                let elapsed = since.elapsed();
                if elapsed >= self.config.cooldown {
                    states.insert(fp, FpState::HalfOpen);
                    Admission::Probe
                } else {
                    let remaining = self.config.cooldown - elapsed;
                    Admission::Refuse {
                        retry_after_ms: duration_ms(remaining).max(1),
                    }
                }
            }
        }
    }

    /// Records a watchdog kill of `fp`. Returns `true` when this strike
    /// opened (or re-opened) the circuit.
    pub fn strike(&self, fp: u64) -> bool {
        let mut states = self.locked();
        let opened = match states.get(&fp) {
            None => {
                if self.config.strikes <= 1 {
                    true
                } else {
                    states.insert(fp, FpState::Closed { strikes: 1 });
                    false
                }
            }
            Some(FpState::Closed { strikes }) => {
                let strikes = strikes + 1;
                if strikes >= self.config.strikes {
                    true
                } else {
                    states.insert(fp, FpState::Closed { strikes });
                    false
                }
            }
            // A killed half-open probe re-opens immediately; an already
            // open circuit just restarts its cooldown.
            Some(FpState::HalfOpen) | Some(FpState::Open { .. }) => true,
        };
        if opened {
            states.insert(
                fp,
                FpState::Open {
                    since: Instant::now(),
                },
            );
        }
        opened
    }

    /// Records a clean half-open probe of `fp`, closing the circuit.
    /// Only a probe can close: a success racing a concurrent watchdog
    /// strike (a wedged compile that finally returned) must not erase
    /// the freshly opened state, and pending `Closed` strikes only
    /// expire through the open/half-open cycle.
    pub fn success(&self, fp: u64) {
        let mut states = self.locked();
        if matches!(states.get(&fp), Some(FpState::HalfOpen)) {
            states.remove(&fp);
        }
    }

    /// Fingerprints currently open or probing (the `serve.breaker_open`
    /// gauge).
    pub fn open_count(&self) -> usize {
        self.locked()
            .values()
            .filter(|s| !matches!(s, FpState::Closed { .. }))
            .count()
    }
}

fn duration_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Client-side retry tuning (shared by `oic client`, `loadgen --retries`,
/// and `bench brownoutload`).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts allowed per request, first try included.
    pub max_attempts: u32,
    /// First backoff step in milliseconds.
    pub base_ms: u64,
    /// Per-step backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Total milliseconds a request may spend waiting across all retries.
    pub budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_ms: 10,
            cap_ms: 500,
            budget_ms: 5_000,
        }
    }
}

impl RetryPolicy {
    /// The wait before the next attempt, or `None` to give up.
    ///
    /// `attempts_made` counts attempts already answered (≥1);
    /// `server_hint_ms` is the response's `retry_after_ms`; `spent_ms` is
    /// backoff already accumulated for this request. The wait is the
    /// exponential step `base·2^(attempts-1)` (capped), floored at the
    /// server hint, with full jitter in `[d/2, d]` so a shed burst does
    /// not re-arrive as a synchronized thundering herd.
    pub fn backoff_ms(
        &self,
        attempts_made: u32,
        server_hint_ms: Option<u64>,
        spent_ms: u64,
        rng: &mut XorShift64,
    ) -> Option<u64> {
        if attempts_made >= self.max_attempts {
            return None;
        }
        let exp = attempts_made.saturating_sub(1).min(20);
        let step = self
            .base_ms
            .checked_shl(exp)
            .unwrap_or(u64::MAX)
            .min(self.cap_ms);
        let floor = server_hint_ms.unwrap_or(0);
        let d = step.max(floor).max(1);
        let span = usize::try_from(d / 2 + 1).unwrap_or(usize::MAX);
        let jittered = d / 2 + rng.below(span) as u64;
        if spent_ms.saturating_add(jittered) > self.budget_ms {
            return None;
        }
        Some(jittered)
    }
}

/// Per-request retry bookkeeping driven by a [`RetryPolicy`].
pub struct RetrySession {
    policy: RetryPolicy,
    rng: XorShift64,
}

impl RetrySession {
    /// A seeded session (seed drives the jitter only).
    pub fn new(policy: RetryPolicy, seed: u64) -> RetrySession {
        RetrySession {
            policy,
            rng: XorShift64::new(seed),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// See [`RetryPolicy::backoff_ms`].
    pub fn backoff_ms(
        &mut self,
        attempts_made: u32,
        server_hint_ms: Option<u64>,
        spent_ms: u64,
    ) -> Option<u64> {
        self.policy
            .backoff_ms(attempts_made, server_hint_ms, spent_ms, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brownout_levels_walk_down_and_back_up() {
        let mut level = BrownoutLevel::GUARDED_FULL;
        let mut names = vec![level.name()];
        while let Some(next) = level.descend() {
            level = next;
            names.push(level.name());
        }
        assert_eq!(
            names,
            [
                "guarded-full",
                "reduced-precision",
                "inlining-off",
                "cache-only"
            ]
        );
        assert_eq!(level.descend(), None);
        while let Some(up) = level.recover() {
            level = up;
        }
        assert_eq!(level, BrownoutLevel::GUARDED_FULL);
        assert_eq!(level.recover(), None);
        let ladder: Vec<BrownoutLevel> = BrownoutLevel::ladder().collect();
        assert_eq!(ladder.len(), 4);
        for (i, l) in ladder.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        assert_eq!(
            ladder.iter().map(|l| l.start_tier()).collect::<Vec<_>>(),
            [
                Some(Tier::GuardedFull),
                Some(Tier::ReducedPrecision),
                Some(Tier::InliningOff),
                None
            ]
        );
    }

    fn config(target_ms: u64) -> BrownoutConfig {
        BrownoutConfig {
            target_ns: u128::from(target_ms) * 1_000_000,
            dwell: Duration::ZERO,
            min_samples: 4,
            window: 16,
            queue_cap: 16,
        }
    }

    const MS: u128 = 1_000_000;

    #[test]
    fn brownout_descends_on_slow_waits_and_recovers_on_fast_ones() {
        let b = Brownout::new(config(10));
        assert_eq!(b.level(), BrownoutLevel::GUARDED_FULL);
        // Four slow samples (p99 = 50ms > 10ms target) force a descend.
        let mut seen = None;
        for _ in 0..4 {
            seen = b.note(0, 50 * MS).or(seen);
        }
        assert_eq!(
            seen,
            Some(Transition::Descend(BrownoutLevel::Compile(
                Tier::ReducedPrecision
            )))
        );
        // The window was cleared: one fast sample is not yet enough.
        assert_eq!(b.note(0, MS / 10), None);
        // Enough fast samples (p99 < target/2) with a calm queue recover.
        let mut seen = None;
        for _ in 0..4 {
            seen = b.note(0, MS / 10).or(seen);
        }
        assert_eq!(seen, Some(Transition::Recover(BrownoutLevel::GUARDED_FULL)));
        assert_eq!(b.level(), BrownoutLevel::GUARDED_FULL);
    }

    #[test]
    fn queue_depth_descends_before_waits_accumulate() {
        let b = Brownout::new(config(10));
        // Depth ≥ ¾·cap triggers on the very first observation, long
        // before min_samples of slow waits could.
        assert_eq!(
            b.note(12, MS),
            Some(Transition::Descend(BrownoutLevel::Compile(
                Tier::ReducedPrecision
            )))
        );
    }

    #[test]
    fn brownout_saturates_at_cache_only_and_guarded_full() {
        let b = Brownout::new(config(10));
        for _ in 0..16 {
            b.note(16, 50 * MS);
        }
        assert_eq!(b.level(), BrownoutLevel::CacheOnly);
        // Deeper than cache-only does not exist; no transition reported.
        assert_eq!(b.note(16, 50 * MS), None);
        for _ in 0..32 {
            b.note(0, MS / 100);
        }
        assert_eq!(b.level(), BrownoutLevel::GUARDED_FULL);
        assert_eq!(b.note(0, MS / 100), None);
    }

    #[test]
    fn hysteresis_band_holds_the_tier_steady() {
        // A p99 between target/2 and target satisfies neither threshold:
        // no flapping on a boundary signal.
        let b = Brownout::new(config(10));
        b.force(BrownoutLevel::Compile(Tier::InliningOff));
        for _ in 0..32 {
            assert_eq!(b.note(1, 7 * MS), None);
        }
        assert_eq!(b.level(), BrownoutLevel::Compile(Tier::InliningOff));
    }

    #[test]
    fn dwell_limits_transition_rate() {
        let mut c = config(10);
        c.dwell = Duration::from_millis(40);
        let b = Brownout::new(c);
        let mut transitions = 0;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(100) {
            if b.note(16, 50 * MS).is_some() {
                transitions += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // 100ms / 40ms dwell admits at most ~3 transitions (and the
        // ladder only has 3 rungs to descend anyway).
        assert!(
            (1..=3).contains(&transitions),
            "transitions = {transitions}"
        );
    }

    #[test]
    fn breaker_opens_after_k_strikes_and_probes_half_open() {
        let br = CircuitBreaker::new(BreakerConfig {
            strikes: 3,
            cooldown: Duration::from_millis(30),
        });
        let fp = 42;
        assert_eq!(br.admit(fp), Admission::Allow);
        assert!(!br.strike(fp));
        assert!(!br.strike(fp));
        assert_eq!(br.admit(fp), Admission::Allow, "two strikes stay closed");
        assert!(br.strike(fp), "third strike opens");
        assert_eq!(br.open_count(), 1);
        match br.admit(fp) {
            Admission::Refuse { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected refusal, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(br.admit(fp), Admission::Probe, "cooldown admits one probe");
        // While the probe is in flight everyone else is refused.
        assert!(matches!(br.admit(fp), Admission::Refuse { .. }));
        br.success(fp);
        assert_eq!(br.admit(fp), Admission::Allow, "clean probe closes");
        assert_eq!(br.open_count(), 0);
    }

    #[test]
    fn late_success_cannot_erase_an_open_circuit() {
        let br = CircuitBreaker::new(BreakerConfig {
            strikes: 1,
            cooldown: Duration::from_millis(50),
        });
        let fp = 11;
        assert!(br.strike(fp), "first kill opens");
        // The wedged compile that earned the strike eventually returns
        // cleanly; that success is stale and must not close the circuit.
        br.success(fp);
        assert!(matches!(br.admit(fp), Admission::Refuse { .. }));
        assert_eq!(br.open_count(), 1);
    }

    #[test]
    fn killed_probe_reopens_the_circuit() {
        let br = CircuitBreaker::new(BreakerConfig {
            strikes: 1,
            cooldown: Duration::from_millis(20),
        });
        let fp = 7;
        assert!(br.strike(fp), "strikes=1 opens on the first kill");
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(br.admit(fp), Admission::Probe);
        assert!(br.strike(fp), "killed probe re-opens");
        assert!(matches!(br.admit(fp), Admission::Refuse { .. }));
        // Unrelated fingerprints are unaffected throughout.
        assert_eq!(br.admit(8), Admission::Allow);
    }

    #[test]
    fn retry_backoff_grows_honors_hints_and_respects_the_budget() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_ms: 10,
            cap_ms: 80,
            budget_ms: 1_000,
        };
        let mut rng = XorShift64::new(1);
        // Jitter keeps each wait within [d/2, d] of the exponential step.
        for (attempts, step) in [(1u32, 10u64), (2, 20), (3, 40)] {
            let w = policy.backoff_ms(attempts, None, 0, &mut rng).unwrap();
            assert!(
                w >= step / 2 && w <= step,
                "attempt {attempts}: wait {w} outside [{}, {step}]",
                step / 2
            );
        }
        // The server hint floors the delay.
        let w = policy.backoff_ms(1, Some(200), 0, &mut rng).unwrap();
        assert!((100..=200).contains(&w), "hinted wait {w}");
        // Attempts exhausted → give up.
        assert_eq!(policy.backoff_ms(4, None, 0, &mut rng), None);
        // Budget exhausted → give up even with attempts left.
        assert_eq!(policy.backoff_ms(1, None, 996, &mut rng), None);
        // Determinism: the same seed replays the same waits.
        let mut a = RetrySession::new(policy, 9);
        let mut b = RetrySession::new(policy, 9);
        for attempt in 1..4 {
            assert_eq!(
                a.backoff_ms(attempt, Some(5), 0),
                b.backoff_ms(attempt, Some(5), 0)
            );
        }
    }
}
