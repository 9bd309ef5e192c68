//! The systematic fault-injection matrix.
//!
//! The firewall exists to catch transformation bugs, but a healthy tree
//! has none to catch — so tests and the `oic chaos` driver inject one
//! here. Each variant models a representative bug in one pass of Dolby's
//! §5 transformation pipeline (restructuring, use redirection, assignment
//! specialization, devirtualization); together they cover every pass the
//! chaos detection table exercises. A fault is applied to every rebuilt
//! candidate program (deterministically), exactly as a real transformation
//! bug would be — so bisection and retraction see the same failure shape a
//! genuine miscompilation would present.

/// A deliberate miscompilation seam for testing the oracle and sanitizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// §5.2 restructuring: recompute the first applicable object layout's
    /// slots as if the child's fields were spliced contiguously from the
    /// replacement slot — the classic bug of using the child's local field
    /// offsets instead of the container's splice positions. When the true
    /// layout is non-contiguous (a sibling's storage sits between the
    /// spliced fields) this makes two children share a container slot,
    /// which no per-layout consistency check can see but the oracle can.
    CompactFirstLayoutSlots,
    /// §5.3 use redirection: leave the first redirectable load
    /// un-redirected, as if use specialization missed one access. The
    /// stale `GetField` names a field restructuring removed, so the
    /// faulted build fails at runtime — a status divergence for the
    /// oracle.
    SkipUseRedirect,
    /// §5.3 rewrite: shift one slot of the first applicable inline layout
    /// down by one — a wrong inline-offset computation. The shifted slot
    /// stays inside the container so nothing crashes; the checked VM sees
    /// the off-by-one against the restructured field names (the canary
    /// check), and reads through the wrong slot diverge observably.
    OffByOneSlotRewrite,
    /// §5.4 assignment specialization: omit the final field copy of the
    /// first pass-by-value store expansion. The uncopied inline slot is
    /// never initialized — exactly what the sanitizer's poison tracking
    /// exists to catch, and invisible to layout consistency checks.
    DropAssignCopy,
    /// Devirtualization: retarget the first static call to a
    /// same-selector, same-arity method of a different class. Applied only
    /// when inlining decisions exist, modeling a devirt bug triggered by
    /// inline-exposed monomorphism (so retraction heals it, as it would a
    /// real one).
    WrongDevirtTarget,
}

impl Fault {
    /// Every fault class, in pipeline order — the chaos driver's matrix.
    pub const ALL: [Fault; 5] = [
        Fault::CompactFirstLayoutSlots,
        Fault::SkipUseRedirect,
        Fault::OffByOneSlotRewrite,
        Fault::DropAssignCopy,
        Fault::WrongDevirtTarget,
    ];

    /// Stable kebab-case name: the CLI argument and report key.
    pub fn name(self) -> &'static str {
        match self {
            Fault::CompactFirstLayoutSlots => "compact-first-layout-slots",
            Fault::SkipUseRedirect => "skip-use-redirect",
            Fault::OffByOneSlotRewrite => "off-by-one-slot-rewrite",
            Fault::DropAssignCopy => "drop-assign-copy",
            Fault::WrongDevirtTarget => "wrong-devirt-target",
        }
    }

    /// Parses a [`Fault::name`] back into the variant.
    pub fn parse(s: &str) -> Option<Fault> {
        Fault::ALL.iter().copied().find(|f| f.name() == s)
    }
}

/// A storage-corruption or crash class injected against the persistent
/// artifact store (`crate::cache::store`).
///
/// Where [`Fault`] models transformation bugs caught by the firewall,
/// these model what a disk, filesystem, or interrupted process can do to
/// the on-disk artifact tier. The chaos driver injects each class into a
/// freshly written store directory and requires recovery to detect it,
/// quarantine the damage, and reach a serving state without ever serving
/// a corrupt artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Crash after rename but before the entry's data hit disk: the final
    /// `.art` file exists at its content address but is truncated.
    TornWrite,
    /// Crash mid-append to the manifest journal: the last record is cut
    /// off, leaving a partial frame at the tail.
    TruncatedJournalTail,
    /// Silent single-bit corruption inside an entry's payload (the
    /// serialized program bytes), past the envelope header.
    BitFlipBody,
    /// Silent single-bit corruption inside an entry's envelope header
    /// (magic, version, key, length, or stored checksum).
    BitFlipHeader,
    /// A manifest record referencing an entry file that no longer exists
    /// (stale), alongside a duplicate insert for a surviving key.
    StaleManifestRecord,
    /// Device-full while streaming a new entry: the write aborts partway,
    /// leaving an orphan temp file and no manifest record.
    EnospcMidWrite,
    /// An entry written by a different (future) format version: the
    /// envelope is internally consistent but its version tag is skewed.
    VersionSkew,
}

impl IoFault {
    /// Every I/O fault class — the storage half of the chaos matrix.
    pub const ALL: [IoFault; 7] = [
        IoFault::TornWrite,
        IoFault::TruncatedJournalTail,
        IoFault::BitFlipBody,
        IoFault::BitFlipHeader,
        IoFault::StaleManifestRecord,
        IoFault::EnospcMidWrite,
        IoFault::VersionSkew,
    ];

    /// Stable kebab-case name: the CLI argument and report key.
    pub fn name(self) -> &'static str {
        match self {
            IoFault::TornWrite => "torn-write",
            IoFault::TruncatedJournalTail => "truncated-journal-tail",
            IoFault::BitFlipBody => "bit-flip-body",
            IoFault::BitFlipHeader => "bit-flip-header",
            IoFault::StaleManifestRecord => "stale-manifest-record",
            IoFault::EnospcMidWrite => "enospc-mid-write",
            IoFault::VersionSkew => "version-skew",
        }
    }

    /// Parses an [`IoFault::name`] back into the variant.
    pub fn parse(s: &str) -> Option<IoFault> {
        IoFault::ALL.iter().copied().find(|f| f.name() == s)
    }
}

/// Retargets the first static call whose callee has a same-selector,
/// same-arity sibling on another class — the [`Fault::WrongDevirtTarget`]
/// injection, run right after a transformation pass produced static calls
/// (before cleanup can inline them away). The enclosing method is excluded
/// as a target so the injected bug misbehaves instead of merely recursing
/// into a resource limit (which the oracle rightly calls indeterminate).
/// Returns `true` when a call was retargeted.
pub(crate) fn wrong_devirt_target(p: &mut oi_ir::Program) -> bool {
    use oi_ir::Instr;
    let method_ids: Vec<_> = p.methods.ids().collect();
    for mid in method_ids {
        let block_ids: Vec<_> = p.methods[mid].blocks.ids().collect();
        for bb in block_ids {
            for i in 0..p.methods[mid].blocks[bb].instrs.len() {
                let Instr::CallStatic { method, .. } = &p.methods[mid].blocks[bb].instrs[i] else {
                    continue;
                };
                let method = *method;
                let (name, arity, class) = {
                    let m = &p.methods[method];
                    (m.name, m.param_count, m.class)
                };
                let sibling = p.methods.ids().find(|&m2| {
                    m2 != method
                        && m2 != mid
                        && p.methods[m2].name == name
                        && p.methods[m2].param_count == arity
                        && p.methods[m2].class != class
                });
                if let Some(m2) = sibling {
                    if let Instr::CallStatic { method, .. } =
                        &mut p.methods[mid].blocks[bb].instrs[i]
                    {
                        *method = m2;
                    }
                    return true;
                }
            }
        }
    }
    false
}

/// Corrupts the built program's layout table for the two layout faults
/// ([`Fault::CompactFirstLayoutSlots`], [`Fault::OffByOneSlotRewrite`]);
/// every other fault is injected inside the passes and is a no-op here.
/// Runs after the pipeline's final verification, since the verifier
/// cannot see either corruption.
pub(crate) fn corrupt_layouts(p: &mut oi_ir::Program, fault: Option<Fault>) {
    match fault {
        Some(Fault::CompactFirstLayoutSlots) => {
            for layout in p.layouts.iter_mut() {
                let max = layout.slots.iter().copied().max().unwrap_or(0);
                let compact: Vec<usize> = (0..layout.slots.len())
                    .map(|i| layout.slots.first().copied().unwrap_or(0) + i)
                    .collect();
                // Only corrupt a layout where the compacted form is (a) different
                // — i.e. the true layout is non-contiguous — and (b) still in
                // bounds for the container (`max` is a known-valid slot).
                if layout.array_kind.is_none()
                    && layout.slots.len() >= 2
                    && compact != layout.slots
                    && *compact.last().expect("len >= 2") <= max
                {
                    layout.slots = compact;
                    break;
                }
            }
        }
        Some(Fault::OffByOneSlotRewrite) => {
            // Shift one slot of the first applicable object layout down by
            // one. The target slot is chosen so it stays in bounds and does
            // not collide with another slot of the *same* layout, so the
            // program keeps running — reads just resolve one word off.
            'layouts: for layout in p.layouts.iter_mut() {
                if layout.array_kind.is_some() {
                    continue;
                }
                for j in 0..layout.slots.len() {
                    let s = layout.slots[j];
                    if s >= 1 && !layout.slots.contains(&(s - 1)) {
                        layout.slots[j] = s - 1;
                        break 'layouts;
                    }
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in Fault::ALL {
            assert_eq!(Fault::parse(f.name()), Some(f), "{f:?}");
        }
        assert_eq!(Fault::parse("no-such-fault"), None);
    }

    #[test]
    fn io_fault_names_round_trip() {
        for f in IoFault::ALL {
            assert_eq!(IoFault::parse(f.name()), Some(f), "{f:?}");
        }
        assert_eq!(IoFault::parse("no-such-fault"), None);
        let mut names: Vec<_> = IoFault::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), IoFault::ALL.len());
    }

    #[test]
    fn matrix_covers_every_variant_once() {
        let mut names: Vec<_> = Fault::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Fault::ALL.len());
    }
}
