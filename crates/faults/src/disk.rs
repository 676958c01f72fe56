//! The disk-fault campaign's vocabulary: a filesystem that lies.
//!
//! Disk faults attack the *durable state* underneath the harness — the
//! journal, the result cache, the artifacts — through the `Vfs` seam, the
//! way SQLite's test VFS and FoundationDB's simulator do. Each way the
//! filesystem lies is its own class so the report attributes recovery
//! bugs to the lie that exposed them. Planning, tallying and rendering
//! are the shared framework's; this module holds only the classes and
//! the [`DISK`] taxonomy.

use crate::plan::{Taxonomy, INVARIANT_OUTCOMES};

/// The kinds of filesystem misbehavior the disk-fault campaign injects
/// underneath the harness's durable-state writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiskFaultClass {
    /// The disk fills mid-run: after a seeded byte budget every write
    /// fails with `ENOSPC`, possibly leaving a short prefix behind.
    Enospc,
    /// Writes tear: a seeded fraction of writes persist only a strict
    /// prefix of the buffer and report an error.
    ShortWrite,
    /// `fsync` fails: a seeded fraction of `sync_data`/`sync_all` calls
    /// report an error, and the unsynced bytes may be lost at power cut.
    FsyncFailure,
    /// `rename` fails: a seeded fraction of renames (the commit step of
    /// every atomic write) report an error and leave the temp file.
    RenameFailure,
    /// Bits rot at rest: a seeded fraction of reads come back with one
    /// bit flipped somewhere in the buffer.
    BitRot,
}

/// The disk-fault campaign (`harness diskchaos`): every trial's power
/// cut recovers clean, violates a recovery invariant, or crashes.
pub const DISK: Taxonomy<DiskFaultClass> = Taxonomy {
    title: "Disk-fault campaign",
    class_column: ("disk fault", 22),
    classes: &[
        (DiskFaultClass::Enospc, "enospc"),
        (DiskFaultClass::ShortWrite, "short-write"),
        (DiskFaultClass::FsyncFailure, "fsync-failure"),
        (DiskFaultClass::RenameFailure, "rename-failure"),
        (DiskFaultClass::BitRot, "bit-rot"),
    ],
    outcomes: INVARIANT_OUTCOMES,
    stream: 2 << 48,
    trials: 3,
    quick_trials: 1,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::CHAOS;
    use crate::outcome::tests::check_render;
    use crate::outcome::Outcome;
    use crate::plan::{plan, FAULTS};
    use crate::rng::FaultRng;

    #[test]
    fn plans_are_deterministic_and_streams_distinct() {
        // Pinned to the derivation the campaign has always used, so every
        // per-trial seed (and so every report) stays what it was.
        let a = plan(&DISK, 42, 3);
        let seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        let mut expected = Vec::new();
        for class in 0..5u64 {
            for trial in 0..3u64 {
                expected.push(FaultRng::derive(42, 2 << 48 | class << 32 | trial));
            }
        }
        assert_eq!(seeds, expected);
        assert_eq!(a, plan(&DISK, 42, 3));
        // Disjoint from both sibling campaigns' streams for the same seed.
        let fault_seeds: Vec<u64> = plan(&FAULTS, 42, 3).iter().map(|s| s.seed).collect();
        let chaos_seeds: Vec<u64> = plan(&CHAOS, 42, 3).iter().map(|s| s.seed).collect();
        assert!(seeds.iter().all(|s| !fault_seeds.contains(s)));
        assert!(seeds.iter().all(|s| !chaos_seeds.contains(s)));
    }

    #[test]
    fn reports_render_byte_identically_for_equal_campaigns() {
        // The column layout is pinned: it is what `harness diskchaos`
        // prints.
        let text = check_render(&DISK, Outcome::Clean, Outcome::Violated);
        assert!(text.starts_with(
            "== Disk-fault campaign (seed 9) ==\n\
             disk fault               trials    clean   violated  crashed\n\
             enospc                        1        1          0        0\n"
        ));
    }
}
