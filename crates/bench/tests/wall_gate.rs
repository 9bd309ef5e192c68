//! The per-layer wall gate against a genuinely slower interpreter.
//!
//! This test lives in a binary of its own: it compares wall times of two
//! snapshots taken one after the other, and the unit tests of the crate
//! run in parallel threads that would load the machine unevenly between
//! the two.

use oi_bench::snapshot::{compare, take_snapshot, take_snapshot_with, SnapshotOptions};
use oi_benchmarks::BenchSize;
use oi_vm::{CheckLevel, VmConfig};

#[test]
fn slowed_interpreter_is_flagged_by_the_wall_gate() {
    // The acceptance experiment in miniature: same tree, but the new
    // snapshot runs on the checked (sanitizing) interpreter, which is
    // slower and leaves every modeled metric unchanged. A run-layer wall
    // gate must catch it; the compile layer and every deterministic gate
    // must stay clean.
    let a = take_snapshot(BenchSize::Small, 5, "rev-a");
    let slowed = SnapshotOptions {
        vm: VmConfig {
            checked: CheckLevel::Full,
            ..VmConfig::default()
        },
        profile: false,
    };
    let b = take_snapshot_with(BenchSize::Small, 5, "rev-b", &slowed);
    let cmp = compare(&a, &b, None, false).unwrap();
    assert!(cmp.regressed, "checked VM went unnoticed:\n{}", cmp.text);
    for line in cmp.text.lines().filter(|l| l.starts_with("REGRESSED")) {
        assert!(
            line.contains("wall_layers.baseline_run.median")
                || line.contains("wall_layers.inlined_run.median"),
            "only a run layer may regress on identical code:\n{}",
            cmp.text
        );
    }
}
