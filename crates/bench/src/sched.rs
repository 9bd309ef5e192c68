//! Fuel-sliced fair scheduler for multi-tenant metered execution.
//!
//! Tenant programs are untrusted inputs whose resource behavior cannot be
//! predicted statically, so the scheduler treats every job as potentially
//! hostile: execution is pre-emptible at instruction granularity via
//! [`oi_vm::VmSession::run_fuel`], and each tenant is boxed in by a
//! [`TenantQuota`] (instructions, heap words, call depth, concurrent
//! requests, wall deadline). A quota breach terminates *that job* with a
//! typed [`Verdict`] — never a panic, never a neighbor.
//!
//! # Shape
//!
//! - Admission: [`Scheduler::submit`] either accepts a [`JobSpec`] or
//!   rejects it with a typed [`SubmitError`] (global queue full, tenant at
//!   its concurrency quota, or draining). Rejection is backpressure — the
//!   scheduler never buffers unboundedly.
//! - Fairness: runnable jobs are organized as per-tenant FIFO queues with
//!   a round-robin rotation over tenants, so a tenant with thousands of
//!   queued programs cannot starve a tenant with one.
//! - Execution: worker threads (the caller's — see [`Scheduler::worker_loop`])
//!   repeatedly pick the next tenant's next job, run **one fuel slice**
//!   outside the scheduler lock, then either re-queue the suspended session
//!   or complete the job. Every slice is wrapped in
//!   [`oi_support::panic::contained`], so a panicking guest (or a chaos
//!   fault) converts to [`Verdict::Panicked`] instead of unwinding a worker.
//! - Accounting: the scheduler keeps its own per-tenant fuel tally and
//!   reconciles it against each session's [`VmSession::instructions_executed`]
//!   counter; [`Scheduler::report_json`] emits the schema-stable
//!   `oi.tenant.v1` document.
//! - Drain: [`Scheduler::close`] stops admission and lets everything queued
//!   finish (EOF-style shutdown); [`Scheduler::begin_drain`] additionally
//!   flushes never-started jobs with [`Verdict::Shed`] while started jobs
//!   run to completion (explicit-shutdown drain protocol).

use oi_core::cache::Artifact;
use oi_ir::Program;
use oi_support::panic::contained;
use oi_support::Json;
use oi_vm::{FuelOutcome, RunResult, VmConfig, VmError, VmSession};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The program a job executes. Jobs hold strong references so a cached
/// artifact evicted mid-run keeps executing safely.
#[derive(Clone)]
pub enum ProgramRef {
    /// A bare program (e.g. compiled directly by a load generator).
    Bare(Arc<Program>),
    /// A compile-service artifact; the program lives inside it.
    Artifact(Arc<Artifact>),
}

impl ProgramRef {
    /// The program to execute. The returned address is stable for the
    /// life of the `Arc`, which is what lets a suspended [`VmSession`]
    /// resume against it slice after slice.
    pub fn program(&self) -> &Program {
        match self {
            ProgramRef::Bare(p) => p,
            ProgramRef::Artifact(a) => &a.outcome.optimized.program,
        }
    }
}

/// Per-tenant resource quota. Instruction, heap, and depth limits are
/// enforced *inside* the VM (fused with the fuel checkpoint, so they cost
/// nothing extra per dispatch); the deadline and concurrency limits are
/// enforced by the scheduler.
#[derive(Clone, Debug)]
pub struct TenantQuota {
    /// Total executed IR instructions per job.
    pub max_instructions: u64,
    /// Heap budget in words per job.
    pub max_heap_words: u64,
    /// Interpreter call-depth limit per job.
    pub max_depth: usize,
    /// Concurrent in-flight jobs per tenant (admission control).
    pub max_concurrent: usize,
    /// Wall-clock deadline per job, measured from submission.
    pub deadline: Option<Duration>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        let vm = VmConfig::default();
        TenantQuota {
            max_instructions: vm.max_instructions,
            max_heap_words: vm.max_heap_words,
            max_depth: vm.max_depth,
            max_concurrent: 1024,
            deadline: None,
        }
    }
}

impl TenantQuota {
    /// The VM limits this quota enforces inside the interpreter.
    pub(crate) fn vm_config(&self) -> VmConfig {
        VmConfig {
            max_instructions: self.max_instructions,
            max_heap_words: self.max_heap_words,
            max_depth: self.max_depth,
            ..VmConfig::default()
        }
    }
}

/// Which quota a terminated job exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaKind {
    /// [`TenantQuota::max_instructions`] exhausted.
    Instructions,
    /// [`TenantQuota::max_heap_words`] exhausted.
    HeapWords,
    /// [`TenantQuota::max_depth`] exceeded.
    CallDepth,
    /// [`TenantQuota::deadline`] passed.
    Deadline,
}

impl QuotaKind {
    /// Stable string name used in reports and serve error payloads.
    pub fn name(self) -> &'static str {
        match self {
            QuotaKind::Instructions => "instructions",
            QuotaKind::HeapWords => "heap-words",
            QuotaKind::CallDepth => "call-depth",
            QuotaKind::Deadline => "deadline",
        }
    }
}

/// Typed end state of a job. Quota breaches and guest failures terminate
/// only the offending job; the verdict always names the guilty tenant via
/// its [`Completion`].
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Ran to completion; the [`Completion`] carries the [`RunResult`].
    Done,
    /// Killed for exceeding the named per-tenant quota.
    Quota(QuotaKind),
    /// The guest program failed on its own (nil dereference, missing
    /// method, ...). Not a quota kill and not the scheduler's fault.
    RuntimeError(String),
    /// A panic during the job's slice was contained to the job.
    Panicked(String),
    /// Flushed unstarted during drain ("shedding" in serve responses).
    Shed,
}

/// Why a submission was rejected at admission.
#[derive(Clone, Debug)]
pub enum SubmitError {
    /// The global bounded queue is full — shed with backpressure.
    Overloaded {
        /// Jobs currently live (queued + running).
        live: usize,
    },
    /// The tenant is at its concurrent-requests quota.
    TenantBusy {
        /// The tenant's in-flight job count.
        active: usize,
    },
    /// The scheduler is draining for shutdown.
    Draining,
}

impl SubmitError {
    /// Stable error-type name used in serve responses.
    pub fn name(&self) -> &'static str {
        match self {
            SubmitError::Overloaded { .. } => "overloaded",
            SubmitError::TenantBusy { .. } => "tenant-over-concurrency",
            SubmitError::Draining => "shedding",
        }
    }
}

/// Chaos-injection seam: deterministic faults a test can plant on a job.
#[derive(Clone, Copy, Debug)]
pub enum JobFault {
    /// Panic at the start of slice `n` (0-based), mid-request.
    PanicAtSlice(u64),
}

/// A job submission: one tenant program plus its effective quota.
pub struct JobSpec {
    /// Tenant identity; all accounting and fairness keys off this.
    pub tenant: String,
    /// What to execute.
    pub program: ProgramRef,
    /// Effective quota for this job.
    pub quota: TenantQuota,
    /// Optional injected fault (chaos testing only).
    pub fault: Option<JobFault>,
}

/// Delivered on the completion channel when a job reaches a verdict.
pub struct Completion {
    /// Submission sequence number (returned by [`Scheduler::submit`]).
    pub seq: u64,
    /// The owning tenant.
    pub tenant: String,
    /// How the job ended.
    pub verdict: Verdict,
    /// Scheduler-side tally of instructions across all slices.
    pub fuel: u64,
    /// The session's own instruction counter (reconciles with `fuel`).
    pub vm_instructions: u64,
    /// Fuel slices the job consumed.
    pub slices: u64,
    /// Submission → first slice.
    pub queue_wait: Duration,
    /// Wall time spent actually executing slices (excludes queueing).
    pub run_time: Duration,
    /// Global slice tick at completion (fairness clock).
    pub done_tick: u64,
    /// The run result, for [`Verdict::Done`] only.
    pub result: Option<Box<RunResult>>,
}

/// Scheduler construction parameters.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Instructions per fuel slice (pre-emption granularity).
    pub fuel_slice: u64,
    /// Global bound on live (queued + running) jobs; submissions beyond
    /// it are rejected with [`SubmitError::Overloaded`].
    pub max_queue: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            fuel_slice: 10_000,
            max_queue: 16 * 1024,
        }
    }
}

struct ActiveJob {
    seq: u64,
    tenant: String,
    program: ProgramRef,
    vm_config: VmConfig,
    session: Option<VmSession>,
    fault: Option<JobFault>,
    slices: u64,
    fuel: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    queue_wait: Option<Duration>,
    run_time: Duration,
}

enum SliceEnd {
    Yielded,
    Finished(Verdict, Option<Box<RunResult>>),
}

/// Per-tenant quota-kill tally, by [`QuotaKind`].
#[derive(Clone, Copy, Debug, Default)]
pub struct QuotaKills {
    /// Instruction-budget kills.
    pub instructions: u64,
    /// Heap-words kills.
    pub heap_words: u64,
    /// Call-depth kills.
    pub call_depth: u64,
    /// Wall-deadline kills.
    pub deadline: u64,
}

impl QuotaKills {
    /// Total kills across all quota kinds.
    pub fn total(&self) -> u64 {
        self.instructions + self.heap_words + self.call_depth + self.deadline
    }

    fn bump(&mut self, kind: QuotaKind) {
        match kind {
            QuotaKind::Instructions => self.instructions += 1,
            QuotaKind::HeapWords => self.heap_words += 1,
            QuotaKind::CallDepth => self.call_depth += 1,
            QuotaKind::Deadline => self.deadline += 1,
        }
    }
}

/// Per-tenant metering summary, the row type behind `oi.tenant.v1`.
#[derive(Clone, Debug, Default)]
pub struct TenantSummary {
    /// Tenant identity.
    pub tenant: String,
    /// Jobs admitted for this tenant.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs flushed unstarted during drain.
    pub shed: u64,
    /// Jobs whose slice panicked (contained).
    pub panicked: u64,
    /// Jobs that failed with a guest runtime error.
    pub runtime_errors: u64,
    /// Typed quota kills.
    pub quota_kills: QuotaKills,
    /// Scheduler-side instruction tally across all the tenant's jobs.
    pub fuel: u64,
    /// Sum of the sessions' own instruction counters.
    pub vm_instructions: u64,
    /// Fuel slices consumed.
    pub slices: u64,
    /// Global slice tick of the tenant's first completed job.
    pub first_done_tick: Option<u64>,
    /// Global slice tick of the tenant's last finished job.
    pub last_done_tick: u64,
    /// Worst submission → first-slice wait observed.
    pub max_queue_wait_ns: u64,
}

impl TenantSummary {
    /// Exact fuel reconciliation: scheduler tally == session counters.
    pub fn reconciled(&self) -> bool {
        self.fuel == self.vm_instructions
    }

    /// Jobs that reached any verdict.
    pub fn finished(&self) -> u64 {
        self.completed + self.shed + self.panicked + self.runtime_errors + self.quota_kills.total()
    }
}

struct TenantState {
    runnable: VecDeque<ActiveJob>,
    in_rr: bool,
    active: usize,
    acct: TenantSummary,
}

impl TenantState {
    fn new(tenant: &str) -> TenantState {
        TenantState {
            runnable: VecDeque::new(),
            in_rr: false,
            active: 0,
            acct: TenantSummary {
                tenant: tenant.to_string(),
                ..TenantSummary::default()
            },
        }
    }
}

struct SchedState {
    rr: VecDeque<String>,
    tenants: BTreeMap<String, TenantState>,
    live: usize,
    closed: bool,
    draining: bool,
    next_seq: u64,
    completions: Option<Sender<Completion>>,
}

/// A fuel-sliced fair scheduler over caller-owned worker threads.
///
/// The scheduler owns no threads: callers spawn workers (scoped or
/// otherwise) that run [`Scheduler::worker_loop`] until the scheduler is
/// closed and drained. Completions are delivered on the `mpsc` channel
/// supplied to [`Scheduler::new`].
pub struct Scheduler {
    fuel_slice: u64,
    max_queue: usize,
    state: Mutex<SchedState>,
    work_cv: Condvar,
    ticks: AtomicU64,
}

impl Scheduler {
    /// Creates a scheduler delivering completions on `completions`.
    pub fn new(config: SchedConfig, completions: Sender<Completion>) -> Scheduler {
        Scheduler {
            fuel_slice: config.fuel_slice.max(1),
            max_queue: config.max_queue.max(1),
            state: Mutex::new(SchedState {
                rr: VecDeque::new(),
                tenants: BTreeMap::new(),
                live: 0,
                closed: false,
                draining: false,
                next_seq: 0,
                completions: Some(completions),
            }),
            work_cv: Condvar::new(),
            ticks: AtomicU64::new(0),
        }
    }

    /// The configured fuel slice (instructions per pre-emption quantum).
    pub fn fuel_slice(&self) -> u64 {
        self.fuel_slice
    }

    /// Global slice ticks executed so far (the fairness clock).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job or rejects it with typed backpressure. On success
    /// returns the job's sequence number, echoed in its [`Completion`].
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let mut st = self.lock();
        if st.draining || st.closed {
            return Err(SubmitError::Draining);
        }
        if st.live >= self.max_queue {
            return Err(SubmitError::Overloaded { live: st.live });
        }
        let tenant = st
            .tenants
            .entry(spec.tenant.clone())
            .or_insert_with(|| TenantState::new(&spec.tenant));
        if tenant.active >= spec.quota.max_concurrent {
            return Err(SubmitError::TenantBusy {
                active: tenant.active,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.live += 1;
        let now = Instant::now();
        let job = ActiveJob {
            seq,
            tenant: spec.tenant.clone(),
            vm_config: spec.quota.vm_config(),
            program: spec.program,
            session: None,
            fault: spec.fault,
            slices: 0,
            fuel: 0,
            submitted: now,
            deadline: spec.quota.deadline.map(|d| now + d),
            queue_wait: None,
            run_time: Duration::ZERO,
        };
        let tenant = st.tenants.get_mut(&spec.tenant).expect("tenant exists");
        tenant.active += 1;
        tenant.acct.submitted += 1;
        tenant.runnable.push_back(job);
        if !tenant.in_rr {
            tenant.in_rr = true;
            st.rr.push_back(spec.tenant);
        }
        drop(st);
        self.work_cv.notify_one();
        Ok(seq)
    }

    /// Stops admission; everything already queued still runs. Workers
    /// exit once the queue is empty. This is the EOF-style shutdown.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.work_cv.notify_all();
    }

    /// Stops admission and flushes never-started jobs with
    /// [`Verdict::Shed`]; jobs that have already executed a slice run to
    /// their natural verdict. This is the explicit-shutdown drain.
    pub fn begin_drain(&self) {
        let mut st = self.lock();
        st.draining = true;
        st.closed = true;
        let tenants: Vec<String> = st.tenants.keys().cloned().collect();
        for name in tenants {
            let ts = st.tenants.get_mut(&name).expect("tenant exists");
            let mut keep = VecDeque::new();
            let mut shed = Vec::new();
            while let Some(job) = ts.runnable.pop_front() {
                if job.session.is_none() {
                    shed.push(job);
                } else {
                    keep.push_back(job);
                }
            }
            ts.runnable = keep;
            for job in shed {
                self.complete_locked(&mut st, job, Verdict::Shed, None);
            }
        }
        drop(st);
        self.work_cv.notify_all();
    }

    /// Live (queued + running) job count.
    pub fn live(&self) -> usize {
        self.lock().live
    }

    /// Drops the completion sender so a receiver loop observes
    /// end-of-stream once every already-sent completion is consumed.
    /// Call only when no further jobs can complete (scheduler drained).
    pub fn seal(&self) {
        self.lock().completions = None;
    }

    /// Runs at most one fuel slice if a job is runnable right now.
    /// Returns whether a slice (or completion) was processed. This is
    /// the non-blocking entry point for callers that interleave
    /// scheduling with other work (e.g. the serve request pump).
    pub fn try_run_slice(&self) -> bool {
        let mut st = self.lock();
        match Self::next_job(&mut st) {
            Some(mut job) => {
                drop(st);
                let end = self.run_slice(&mut job);
                let mut st = self.lock();
                self.settle(&mut st, job, end);
                true
            }
            None => false,
        }
    }

    fn settle(&self, st: &mut SchedState, job: ActiveJob, end: SliceEnd) {
        match end {
            SliceEnd::Yielded => {
                let name = job.tenant.clone();
                let ts = st.tenants.get_mut(&name).expect("tenant exists");
                ts.runnable.push_back(job);
                if !ts.in_rr {
                    ts.in_rr = true;
                    st.rr.push_back(name);
                }
                self.work_cv.notify_one();
            }
            SliceEnd::Finished(verdict, result) => {
                self.complete_locked(st, job, verdict, result);
            }
        }
    }

    /// Worker body: run this from one or more caller-owned threads. The
    /// loop returns once the scheduler is closed and fully drained.
    pub fn worker_loop(&self) {
        let mut st = self.lock();
        loop {
            if let Some(mut job) = Self::next_job(&mut st) {
                drop(st);
                let end = self.run_slice(&mut job);
                st = self.lock();
                self.settle(&mut st, job, end);
            } else if st.closed && st.live == 0 {
                drop(st);
                self.work_cv.notify_all();
                return;
            } else {
                st = self
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    fn next_job(st: &mut SchedState) -> Option<ActiveJob> {
        while let Some(name) = st.rr.pop_front() {
            let ts = st.tenants.get_mut(&name).expect("tenant exists");
            if let Some(job) = ts.runnable.pop_front() {
                if ts.runnable.is_empty() {
                    ts.in_rr = false;
                } else {
                    st.rr.push_back(name);
                }
                return Some(job);
            }
            ts.in_rr = false;
        }
        None
    }

    /// Runs one fuel slice for `job`, outside the scheduler lock. Never
    /// panics: guest panics (and injected chaos panics) are contained and
    /// converted to [`Verdict::Panicked`].
    fn run_slice(&self, job: &mut ActiveJob) -> SliceEnd {
        let now = Instant::now();
        if job.queue_wait.is_none() {
            job.queue_wait = Some(now.duration_since(job.submitted));
        }
        if let Some(dl) = job.deadline {
            if now >= dl {
                return SliceEnd::Finished(Verdict::Quota(QuotaKind::Deadline), None);
            }
        }
        let slice_no = job.slices;
        job.slices += 1;
        self.ticks.fetch_add(1, Ordering::Relaxed);
        if job.session.is_none() {
            let program = job.program.program();
            let cfg = &job.vm_config;
            match contained(|| VmSession::new(program, cfg)) {
                Ok(Ok(session)) => job.session = Some(session),
                Ok(Err(e)) => return SliceEnd::Finished(classify(e), None),
                Err(msg) => return SliceEnd::Finished(Verdict::Panicked(msg), None),
            }
        }
        let inject = matches!(job.fault, Some(JobFault::PanicAtSlice(n)) if n == slice_no);
        let program = job.program.program();
        let fuel = self.fuel_slice;
        let session = job.session.as_mut().expect("session exists");
        let slice_start = Instant::now();
        let out = contained(|| {
            if inject {
                panic!("injected mid-request panic");
            }
            session.run_fuel(program, fuel)
        });
        job.run_time += slice_start.elapsed();
        match out {
            Err(msg) => SliceEnd::Finished(Verdict::Panicked(msg), None),
            Ok(FuelOutcome::Yielded { fuel_spent }) => {
                job.fuel += fuel_spent;
                SliceEnd::Yielded
            }
            Ok(FuelOutcome::Done { fuel_spent, result }) => {
                job.fuel += fuel_spent;
                SliceEnd::Finished(Verdict::Done, Some(result))
            }
            Ok(FuelOutcome::Trapped { fuel_spent, error }) => {
                job.fuel += fuel_spent;
                SliceEnd::Finished(classify(error), None)
            }
        }
    }

    fn complete_locked(
        &self,
        st: &mut SchedState,
        job: ActiveJob,
        verdict: Verdict,
        result: Option<Box<RunResult>>,
    ) {
        let tick = self.ticks.load(Ordering::Relaxed);
        let vm_instructions = job
            .session
            .as_ref()
            .map_or(0, |s| s.instructions_executed());
        let ts = st.tenants.get_mut(&job.tenant).expect("tenant exists");
        ts.active -= 1;
        st.live -= 1;
        match &verdict {
            Verdict::Done => ts.acct.completed += 1,
            Verdict::Quota(kind) => ts.acct.quota_kills.bump(*kind),
            Verdict::RuntimeError(_) => ts.acct.runtime_errors += 1,
            Verdict::Panicked(_) => ts.acct.panicked += 1,
            Verdict::Shed => ts.acct.shed += 1,
        }
        ts.acct.fuel += job.fuel;
        ts.acct.vm_instructions += vm_instructions;
        ts.acct.slices += job.slices;
        if !matches!(verdict, Verdict::Shed) && ts.acct.first_done_tick.is_none() {
            ts.acct.first_done_tick = Some(tick);
        }
        ts.acct.last_done_tick = tick;
        let wait = job.queue_wait.unwrap_or_default();
        let wait_ns = wait.as_nanos().min(u128::from(u64::MAX)) as u64;
        ts.acct.max_queue_wait_ns = ts.acct.max_queue_wait_ns.max(wait_ns);
        let completion = Completion {
            seq: job.seq,
            tenant: job.tenant,
            verdict,
            fuel: job.fuel,
            vm_instructions,
            slices: job.slices,
            queue_wait: wait,
            run_time: job.run_time,
            done_tick: tick,
            result,
        };
        // The receiver may have hung up (e.g. a test that only cares
        // about the report); completion delivery is best-effort.
        if let Some(tx) = &st.completions {
            let _ = tx.send(completion);
        }
    }

    /// Per-tenant metering summaries, sorted by tenant name.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let st = self.lock();
        st.tenants.values().map(|t| t.acct.clone()).collect()
    }

    /// The schema-stable `oi.tenant.v1` metering report.
    pub fn report_json(&self) -> Json {
        let summaries = self.tenant_summaries();
        let reconciled = summaries.iter().all(|t| t.reconciled());
        let total_fuel: u64 = summaries.iter().map(|t| t.fuel).sum();
        let tenants: Vec<Json> = summaries
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("tenant", t.tenant.as_str().into()),
                    ("submitted", t.submitted.into()),
                    ("completed", t.completed.into()),
                    ("shed", t.shed.into()),
                    ("panicked", t.panicked.into()),
                    ("runtime_errors", t.runtime_errors.into()),
                    (
                        "quota_kills",
                        Json::obj(vec![
                            ("instructions", t.quota_kills.instructions.into()),
                            ("heap-words", t.quota_kills.heap_words.into()),
                            ("call-depth", t.quota_kills.call_depth.into()),
                            ("deadline", t.quota_kills.deadline.into()),
                        ]),
                    ),
                    ("fuel", t.fuel.into()),
                    ("vm_instructions", t.vm_instructions.into()),
                    ("reconciled", t.reconciled().into()),
                    ("slices", t.slices.into()),
                    (
                        "first_done_tick",
                        t.first_done_tick.map_or(Json::Null, Json::from),
                    ),
                    ("last_done_tick", t.last_done_tick.into()),
                    ("max_queue_wait_ns", t.max_queue_wait_ns.into()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", "oi.tenant.v1".into()),
            ("fuel_slice", self.fuel_slice.into()),
            ("ticks", self.ticks().into()),
            ("total_fuel", total_fuel.into()),
            ("reconciled", reconciled.into()),
            ("tenants", tenants.into()),
        ])
    }
}

/// The verdict of a run the VM ended with `e`: a quota kill for the
/// limits a [`TenantQuota`] sets, else a runtime error.
pub(crate) fn classify(e: VmError) -> Verdict {
    match e {
        VmError::InstructionLimit => Verdict::Quota(QuotaKind::Instructions),
        VmError::OutOfMemory => Verdict::Quota(QuotaKind::HeapWords),
        VmError::StackOverflow => Verdict::Quota(QuotaKind::CallDepth),
        other => Verdict::RuntimeError(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oi_core::cache::{config_fingerprint, ArtifactCache, CacheKey};
    use oi_core::ladder::{optimize_with_ladder, LadderConfig};
    use oi_support::panic::silence_hook;
    use oi_support::Budget;
    use std::sync::mpsc;

    fn compiled(source: &str) -> Arc<Program> {
        let p = oi_ir::lower::compile(source).expect("compiles");
        let out = optimize_with_ladder(&p, &LadderConfig::default(), &Budget::unlimited());
        Arc::new(out.optimized.program)
    }

    /// Lowered but not ladder-optimized: the ladder's profiling pass
    /// would grind on intentionally non-terminating programs.
    fn lowered(source: &str) -> Arc<Program> {
        Arc::new(oi_ir::lower::compile(source).expect("compiles"))
    }

    fn loop_source(iters: u64) -> String {
        format!(
            "fn main() {{ var i = 0; var acc = 0; while (i < {iters}) \
             {{ acc = acc + i; i = i + 1; }} print acc; }}"
        )
    }

    fn run_to_completion(sched: &Scheduler, workers: usize) {
        sched.close();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| sched.worker_loop());
            }
        });
    }

    fn spec(tenant: &str, program: Arc<Program>, quota: TenantQuota) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            program: ProgramRef::Bare(program),
            quota,
            fault: None,
        }
    }

    #[test]
    fn round_robin_interleaves_tenants_fairly() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 100,
                ..SchedConfig::default()
            },
            tx,
        );
        // Tenant "hog" floods 16 long programs first; "small" submits one
        // short program afterwards. Round-robin must not make "small"
        // wait for the whole flood.
        let long = compiled(&loop_source(2_000));
        let short = compiled("fn main() { print 1; }");
        for _ in 0..16 {
            sched
                .submit(spec("hog", long.clone(), TenantQuota::default()))
                .expect("admitted");
        }
        sched
            .submit(spec("small", short, TenantQuota::default()))
            .expect("admitted");
        run_to_completion(&sched, 1);
        let done: Vec<Completion> = rx.try_iter().collect();
        assert_eq!(done.len(), 17);
        assert!(done.iter().all(|c| matches!(c.verdict, Verdict::Done)));
        let small_tick = done
            .iter()
            .find(|c| c.tenant == "small")
            .expect("small finished")
            .done_tick;
        let hog_last = done
            .iter()
            .filter(|c| c.tenant == "hog")
            .map(|c| c.done_tick)
            .max()
            .unwrap();
        // The small tenant's single program finishes well before the
        // hog's flood does, despite being submitted last.
        assert!(
            small_tick < hog_last / 2,
            "small finished at tick {small_tick}, hog flood at {hog_last}"
        );
    }

    #[test]
    fn quota_kills_are_typed_and_do_not_hurt_neighbors() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 64,
                ..SchedConfig::default()
            },
            tx,
        );
        let runaway = lowered("fn main() { var i = 0; while (0 < 1) { i = i + 1; } }");
        let ok = compiled("fn main() { print 7; }");
        let tight = TenantQuota {
            max_instructions: 1_000,
            ..TenantQuota::default()
        };
        sched
            .submit(spec("guilty", runaway, tight))
            .expect("admitted");
        sched
            .submit(spec("innocent", ok, TenantQuota::default()))
            .expect("admitted");
        run_to_completion(&sched, 2);
        let done: Vec<Completion> = rx.try_iter().collect();
        let guilty = done.iter().find(|c| c.tenant == "guilty").unwrap();
        let innocent = done.iter().find(|c| c.tenant == "innocent").unwrap();
        assert!(matches!(
            guilty.verdict,
            Verdict::Quota(QuotaKind::Instructions)
        ));
        assert_eq!(guilty.fuel, 1_000, "killed at exactly the quota");
        assert!(matches!(innocent.verdict, Verdict::Done));
        let summaries = sched.tenant_summaries();
        let g = summaries.iter().find(|t| t.tenant == "guilty").unwrap();
        assert_eq!(g.quota_kills.instructions, 1);
        let i = summaries.iter().find(|t| t.tenant == "innocent").unwrap();
        assert_eq!(i.quota_kills.total(), 0);
        assert_eq!(i.completed, 1);
    }

    #[test]
    fn deadline_quota_kills_with_wall_clock() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 32,
                ..SchedConfig::default()
            },
            tx,
        );
        let endless = lowered("fn main() { var i = 0; while (0 < 1) { i = i + 1; } }");
        let quota = TenantQuota {
            deadline: Some(Duration::from_millis(20)),
            ..TenantQuota::default()
        };
        sched.submit(spec("t", endless, quota)).expect("admitted");
        run_to_completion(&sched, 1);
        let c = rx.recv().expect("completion");
        assert!(matches!(c.verdict, Verdict::Quota(QuotaKind::Deadline)));
    }

    #[test]
    fn admission_rejects_typed_overload_and_tenant_busy() {
        let (tx, _rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                max_queue: 2,
                ..SchedConfig::default()
            },
            tx,
        );
        let p = compiled("fn main() { print 1; }");
        let narrow = TenantQuota {
            max_concurrent: 1,
            ..TenantQuota::default()
        };
        sched.submit(spec("a", p.clone(), narrow.clone())).unwrap();
        let busy = sched.submit(spec("a", p.clone(), narrow)).unwrap_err();
        assert!(matches!(busy, SubmitError::TenantBusy { active: 1 }));
        assert_eq!(busy.name(), "tenant-over-concurrency");
        sched
            .submit(spec("b", p.clone(), TenantQuota::default()))
            .unwrap();
        let full = sched
            .submit(spec("c", p.clone(), TenantQuota::default()))
            .unwrap_err();
        assert!(matches!(full, SubmitError::Overloaded { live: 2 }));
        assert_eq!(full.name(), "overloaded");
        sched.begin_drain();
        let draining = sched
            .submit(spec("d", p, TenantQuota::default()))
            .unwrap_err();
        assert!(matches!(draining, SubmitError::Draining));
        assert_eq!(draining.name(), "shedding");
    }

    #[test]
    fn panic_is_contained_to_the_job() {
        let _quiet = silence_hook();
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 50,
                ..SchedConfig::default()
            },
            tx,
        );
        let long = compiled(&loop_source(1_000));
        let ok = compiled("fn main() { print 3; }");
        sched
            .submit(JobSpec {
                tenant: "bad".to_string(),
                program: ProgramRef::Bare(long),
                quota: TenantQuota::default(),
                fault: Some(JobFault::PanicAtSlice(2)),
            })
            .expect("admitted");
        sched
            .submit(spec("good", ok, TenantQuota::default()))
            .expect("admitted");
        run_to_completion(&sched, 2);
        let done: Vec<Completion> = rx.try_iter().collect();
        let bad = done.iter().find(|c| c.tenant == "bad").unwrap();
        let good = done.iter().find(|c| c.tenant == "good").unwrap();
        match &bad.verdict {
            Verdict::Panicked(msg) => assert!(msg.contains("injected"), "got {msg}"),
            v => panic!("expected Panicked, got {v:?}"),
        }
        assert!(matches!(good.verdict, Verdict::Done));
        // The panicked slice's partial fuel is dropped consistently on
        // both sides of the ledger, so reconciliation stays exact.
        assert!(sched.tenant_summaries().iter().all(|t| t.reconciled()));
    }

    #[test]
    fn drain_sheds_unstarted_and_finishes_started() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 10,
                ..SchedConfig::default()
            },
            tx,
        );
        let p = compiled(&loop_source(500));
        for i in 0..4 {
            sched
                .submit(spec(&format!("t{i}"), p.clone(), TenantQuota::default()))
                .expect("admitted");
        }
        // No worker has run yet: every job is unstarted, so drain sheds
        // all of them.
        sched.begin_drain();
        std::thread::scope(|scope| {
            scope.spawn(|| sched.worker_loop());
        });
        let done: Vec<Completion> = rx.try_iter().collect();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| matches!(c.verdict, Verdict::Shed)));
        assert!(done.iter().all(|c| c.fuel == 0 && c.slices == 0));
    }

    #[test]
    fn fuel_reconciles_exactly_across_many_tenants_and_workers() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 77,
                ..SchedConfig::default()
            },
            tx,
        );
        let programs: Vec<Arc<Program>> = (0..5)
            .map(|i| compiled(&loop_source(100 + 37 * i)))
            .collect();
        for j in 0..40 {
            let p = programs[j % programs.len()].clone();
            sched
                .submit(spec(
                    &format!("tenant-{}", j % 7),
                    p,
                    TenantQuota::default(),
                ))
                .expect("admitted");
        }
        run_to_completion(&sched, 4);
        let done: Vec<Completion> = rx.try_iter().collect();
        assert_eq!(done.len(), 40);
        for c in &done {
            assert_eq!(c.fuel, c.vm_instructions, "per-job reconciliation");
        }
        let summaries = sched.tenant_summaries();
        assert!(summaries.iter().all(|t| t.reconciled()));
        let report = sched.report_json();
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some("oi.tenant.v1")
        );
        assert_eq!(report.get("reconciled").and_then(Json::as_bool), Some(true));
        let total: u64 = done.iter().map(|c| c.fuel).sum();
        assert_eq!(
            report.get("total_fuel").and_then(Json::as_i64),
            Some(total as i64)
        );
    }

    /// Satellite: hammer the shared `ArtifactCache` from scheduler worker
    /// threads with a budget tiny enough to force evictions mid-run, and
    /// prove Arc-held artifacts keep executing after eviction.
    #[test]
    fn artifact_cache_eviction_mid_run_is_safe_under_scheduler_load() {
        let sources: Vec<String> = (0..8)
            .map(|i| format!("fn main() {{ var x = {i}; print x + 1; }}"))
            .collect();
        let artifacts: Vec<Artifact> = sources
            .iter()
            .map(|s| {
                let p = oi_ir::lower::compile(s).expect("compiles");
                Artifact::new(optimize_with_ladder(
                    &p,
                    &LadderConfig::default(),
                    &Budget::unlimited(),
                ))
            })
            .collect();
        // Budget of roughly two artifacts: inserting all eight cycles the
        // LRU continuously.
        let per = artifacts[0].bytes.max(1);
        let cache = ArtifactCache::new(per * 2);
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(SchedConfig::default(), tx);
        let fp = config_fingerprint(&LadderConfig::default(), None, None);
        let mut inserted: Vec<Arc<Artifact>> = Vec::new();
        for (i, a) in artifacts.into_iter().enumerate() {
            let key = CacheKey::whole_program(&sources[i], fp);
            inserted.push(cache.insert(key, a));
        }
        // Every artifact beyond the last two has been evicted, but jobs
        // hold Arcs, so execution must still succeed for all of them.
        for (i, a) in inserted.iter().enumerate() {
            sched
                .submit(JobSpec {
                    tenant: format!("t{}", i % 3),
                    program: ProgramRef::Artifact(a.clone()),
                    quota: TenantQuota::default(),
                    fault: None,
                })
                .expect("admitted");
        }
        // Concurrent hammer: get/miss/insert churn while workers run.
        std::thread::scope(|scope| {
            let cache = &cache;
            let sources = &sources;
            scope.spawn(move || {
                for round in 0..50 {
                    for (i, s) in sources.iter().enumerate() {
                        let key = CacheKey::whole_program(s, fp);
                        if cache.get(&key).is_none() && (round + i) % 2 == 0 {
                            let p = oi_ir::lower::compile(s).expect("compiles");
                            let art = Artifact::new(optimize_with_ladder(
                                &p,
                                &LadderConfig::default(),
                                &Budget::unlimited(),
                            ));
                            cache.insert(key, art);
                        }
                    }
                }
            });
            sched.close();
            for _ in 0..3 {
                scope.spawn(|| sched.worker_loop());
            }
        });
        let done: Vec<Completion> = rx.try_iter().collect();
        assert_eq!(done.len(), inserted.len());
        for c in &done {
            assert!(
                matches!(c.verdict, Verdict::Done),
                "job {} ended {:?}",
                c.seq,
                c.verdict
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "tiny budget must actually evict");
    }

    /// Submitters racing a concurrent `begin_drain`: whatever interleaving
    /// the scheduler lands on, every admitted job must resolve to exactly
    /// one completion (natural verdict or typed `Shed`), late submitters
    /// must see `SubmitError::Draining`, and the per-tenant fuel books
    /// must still balance.
    #[test]
    fn racing_submitters_against_a_drain_lose_no_completions() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 200,
                max_queue: 32,
            },
            tx,
        );
        let program = compiled(&loop_source(5_000));
        let accepted = AtomicU64::new(0);
        let rejected = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| sched.worker_loop());
            }
            for t in 0..4u64 {
                let program = Arc::clone(&program);
                let (sched, accepted, rejected) = (&sched, &accepted, &rejected);
                scope.spawn(move || {
                    for _ in 0..30 {
                        match sched.submit(spec(
                            &format!("tenant{t}"),
                            Arc::clone(&program),
                            TenantQuota::default(),
                        )) {
                            Ok(_) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        std::thread::yield_now();
                    }
                });
            }
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(3));
                sched.begin_drain();
            });
        });
        assert!(
            matches!(
                sched.submit(spec("late", Arc::clone(&program), TenantQuota::default())),
                Err(SubmitError::Draining)
            ),
            "post-drain admission must be refused typed"
        );
        let done: Vec<Completion> = rx.try_iter().collect();
        let admitted = accepted.load(Ordering::Relaxed);
        assert_eq!(
            done.len() as u64,
            admitted,
            "every admitted job resolves exactly once ({} rejected)",
            rejected.load(Ordering::Relaxed)
        );
        let mut seqs: Vec<u64> = done.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), done.len(), "no duplicated completions");
        assert!(
            done.iter()
                .all(|c| matches!(c.verdict, Verdict::Done | Verdict::Shed)),
            "a drain race may shed or finish, never anything else"
        );
        assert_eq!(sched.live(), 0);
        let summaries = sched.tenant_summaries();
        assert!(summaries.iter().all(TenantSummary::reconciled));
        assert_eq!(
            summaries.iter().map(TenantSummary::finished).sum::<u64>(),
            admitted
        );
    }

    /// A drain with no workers running yet flushes the entire queue with
    /// typed `Shed` completions — one per admitted job, none lost, none
    /// executed — and workers arriving afterwards find nothing to do.
    #[test]
    fn drain_flushes_unstarted_jobs_with_typed_sheds() {
        let (tx, rx) = mpsc::channel();
        let sched = Scheduler::new(
            SchedConfig {
                fuel_slice: 100,
                max_queue: 16,
            },
            tx,
        );
        let program = compiled(&loop_source(100));
        let seqs: Vec<u64> = (0..8)
            .map(|i| {
                sched
                    .submit(spec(
                        &format!("t{}", i % 2),
                        Arc::clone(&program),
                        TenantQuota::default(),
                    ))
                    .expect("admitted")
            })
            .collect();
        sched.begin_drain();
        assert!(matches!(
            sched.submit(spec("late", Arc::clone(&program), TenantQuota::default())),
            Err(SubmitError::Draining)
        ));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| sched.worker_loop());
            }
        });
        let done: Vec<Completion> = rx.try_iter().collect();
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| matches!(c.verdict, Verdict::Shed)));
        let mut got: Vec<u64> = done.iter().map(|c| c.seq).collect();
        got.sort_unstable();
        assert_eq!(got, seqs, "exactly the admitted jobs were flushed");
        assert_eq!(sched.live(), 0);
        let summaries = sched.tenant_summaries();
        assert!(summaries
            .iter()
            .all(|s| s.reconciled() && s.shed == s.finished()));
    }
}
