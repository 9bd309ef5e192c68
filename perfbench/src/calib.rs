//! Speed calibration against a frozen reference kernel.
//!
//! On a small shared VM the same code runs up to ~60% slower for tens of
//! seconds at a time, while a pure ALU loop barely slows: the slowdown hits
//! branchy, allocation-heavy code like this compiler and its interpreter.
//! Every run therefore times a reference kernel of that kind every 200 ms
//! through its window, on the measuring thread, and reports each time
//! scaled to the speed at which the reference takes `NOMINAL_MS`:
//! `reported = measured * NOMINAL_MS / reference`, where
//! `reference` is the median of the reference timings within a second of
//! the measurement, so a phase of the machine scales only what ran in it.
//!
//! The kernel lives here, not in the repository's crates, so no change to
//! the system under test can speed it up: a faster compiler or VM lowers
//! the reported times exactly as it lowers the measured ones. The raw
//! (unscaled) end-to-end times are printed on `#` lines next to the scaled
//! ones.

use crate::stats;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference time every reported time is scaled to, in ms: about the
/// kernel's time on an unloaded 2-vCPU VM.
pub const NOMINAL_MS: f64 = 12.0;

/// A small stack-machine instruction: the reference's interpreter half.
#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Lt,
    Jz(usize),
    Jmp(usize),
    New,
    GetField(usize),
    SetField(usize),
    Count,
    Halt,
}

/// `i = 0; acc = 0; while i < 30000 { o = new(i); o.2 = o.1 + acc;
/// acc = acc + o.2 + count(i + i); i = i + 1 }` — allocation, field
/// traffic, a hash map and a dispatch loop, like the VM's own work.
const PROGRAM: [Op; 33] = {
    use Op::*;
    [
        Push(0),
        Store(0),
        Push(0),
        Store(1),
        Load(0),
        Push(30_000),
        Lt,
        Jz(32),
        Load(0),
        New,
        Store(2),
        Load(2),
        Load(2),
        GetField(1),
        Load(1),
        Add,
        SetField(2),
        Load(1),
        Load(2),
        GetField(2),
        Add,
        Load(0),
        Load(0),
        Add,
        Count,
        Add,
        Store(1),
        Load(0),
        Push(1),
        Add,
        Store(0),
        Jmp(4),
        Halt,
    ]
};

fn interpret(code: &[Op]) -> i64 {
    let mut heap: Vec<Box<[i64; 4]>> = Vec::new();
    let mut counts: HashMap<i64, i64> = HashMap::new();
    let mut stack: Vec<i64> = Vec::with_capacity(16);
    let mut vars = [0i64; 4];
    let mut pc = 0;
    let pop = |stack: &mut Vec<i64>| stack.pop().expect("balanced reference program");
    loop {
        match code[pc] {
            Op::Push(v) => stack.push(v),
            Op::Load(i) => stack.push(vars[i]),
            Op::Store(i) => vars[i] = pop(&mut stack),
            Op::Add => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(a.wrapping_add(b));
            }
            Op::Lt => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(i64::from(a < b));
            }
            Op::Jz(target) => {
                if pop(&mut stack) == 0 {
                    pc = target;
                    continue;
                }
            }
            Op::Jmp(target) => {
                pc = target;
                continue;
            }
            Op::New => {
                let v = pop(&mut stack);
                if heap.len() >= 4096 {
                    heap.clear();
                }
                heap.push(Box::new([v, v + 1, v + 2, v + 3]));
                stack.push(heap.len() as i64 - 1);
            }
            Op::GetField(f) => {
                let o = pop(&mut stack);
                stack.push(heap[o as usize][f]);
            }
            Op::SetField(f) => {
                let (v, o) = (pop(&mut stack), pop(&mut stack));
                heap[o as usize][f] = v;
            }
            Op::Count => {
                let k = pop(&mut stack);
                let n = counts.entry(k & 8191).or_insert(0);
                *n += 1;
                stack.push(*n);
            }
            Op::Halt => return vars[1],
        }
        pc += 1;
    }
}

/// A set-union fixpoint over a fixed pseudo-random graph: the reference's
/// analysis half (worklist, cloned sets, ordered-set joins).
fn fixpoint() -> u64 {
    const NODES: usize = 400;
    let mut x = 99u64;
    let mut succ = vec![Vec::new(); NODES];
    for edges in &mut succ {
        for _ in 0..3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push((x % NODES as u64) as usize);
        }
    }
    let mut sets: Vec<BTreeSet<u32>> = (0..NODES)
        .map(|i| BTreeSet::from([(i % 64) as u32]))
        .collect();
    let mut work: VecDeque<usize> = (0..NODES).collect();
    let mut steps = 0;
    while let Some(i) = work.pop_front() {
        steps += 1;
        let facts = sets[i].clone();
        for &j in &succ[i] {
            let before = sets[j].len();
            sets[j].extend(facts.iter().copied());
            if sets[j].len() > before {
                work.push_back(j);
            }
        }
    }
    steps
}

/// One timing of the reference kernel, in ms.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    black_box(interpret(black_box(&PROGRAM)));
    black_box(fixpoint());
    t.elapsed().as_secs_f64() * 1e3
}

/// Reference timings taken during one phase of a run.
pub struct Calibration {
    samples: Vec<(Instant, f64)>,
    last: Option<Instant>,
}

/// How far from a measurement its reference timings may lie.
const NEAR: Duration = Duration::from_secs(1);

/// Minimum gap between interleaved reference timings: about 6% of a
/// window goes to the reference.
const EVERY: Duration = Duration::from_millis(200);

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            samples: Vec::new(),
            last: None,
        }
    }

    /// Times the reference once.
    pub fn sample(&mut self) {
        let ms = reference_ms();
        let now = Instant::now();
        self.samples.push((now, ms));
        self.last = Some(now);
    }

    /// Times the reference when `EVERY` has passed since the last timing;
    /// returns how long that took, so callers can leave it out of their
    /// own clocks.
    pub fn maybe_sample(&mut self) -> Duration {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return Duration::ZERO;
        }
        let t = Instant::now();
        self.sample();
        t.elapsed()
    }

    /// The median reference time of the whole phase, in ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// What a time measured over the whole phase is multiplied by.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }

    /// `ms`, measured around `at`, scaled by the reference timings near
    /// `at` (by the whole phase's when fewer than three are near).
    pub fn scale(&self, at: Instant, ms: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| t.max(&at).duration_since(*t.min(&at)) <= NEAR)
            .map(|s| s.1)
            .collect();
        let reference = if near.len() >= 3 {
            stats::median(&near)
        } else {
            self.median_ms()
        };
        ms * NOMINAL_MS / reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computes_a_fixed_result() {
        assert_eq!(interpret(&PROGRAM), interpret(&PROGRAM));
        assert_eq!(fixpoint(), fixpoint());
        let mut c = Calibration::new();
        c.sample();
        c.sample();
        assert!(c.median_ms() > 0.0 && c.factor().is_finite());
        let scaled = c.scale(Instant::now(), 2.0);
        assert!(
            (scaled - 2.0 * c.factor()).abs() < 1e-9,
            "two samples: the phase median"
        );
    }
}
