//! Campaign taxonomies, trial planning, and injection configuration.
//!
//! A campaign is a flat list of [`Spec`]s — one per (class, trial) pair —
//! each carrying its own derived seed so trials can run in any order (or
//! in parallel) and still reproduce exactly.
//!
//! There are three campaigns, each with its own class vocabulary:
//! [`FaultClass`] (here) perturbs tensors, units, and cache bytes
//! *inside* the stack; [`ChaosClass`](crate::ChaosClass) attacks the
//! serve daemon from *outside*, over real sockets;
//! [`DiskFaultClass`](crate::DiskFaultClass) makes the filesystem under
//! the harness's durable state lie. Keeping the vocabularies apart keeps
//! each campaign's pinned totals and byte-identical report stable as the
//! others grow.

use crate::outcome::Outcome;
use crate::rng::FaultRng;

/// Everything that tells one campaign apart except its trial bodies:
/// classes, seed stream, trial counts, and report layout.
#[derive(Debug)]
pub struct Taxonomy<C: 'static> {
    /// Report heading, e.g. `Fault campaign`.
    pub title: &'static str,
    /// Header and width of the report's class column.
    pub class_column: (&'static str, usize),
    /// Every class with its stable report label, in campaign order.
    pub classes: &'static [(C, &'static str)],
    /// The outcome columns and their widths, in report order. The
    /// failing ones are summed on the totals line.
    pub outcomes: &'static [(Outcome, usize)],
    /// Offset of the campaign's RNG streams (bits 48 and up), so no two
    /// campaigns share a per-trial seed for the same campaign seed.
    pub stream: u64,
    /// Trials per class by default.
    pub trials: u32,
    /// Trials per class under `--quick` (the CI smoke).
    pub quick_trials: u32,
}

impl<C: Copy + PartialEq> Taxonomy<C> {
    /// Position of `class` in [`Taxonomy::classes`].
    ///
    /// # Panics
    ///
    /// Panics if the class is not listed.
    pub(crate) fn index(&self, class: C) -> usize {
        self.classes
            .iter()
            .position(|&(c, _)| c == class)
            .expect("class listed in the taxonomy")
    }

    /// The report label of `class`.
    pub fn label(&self, class: C) -> &'static str {
        self.classes[self.index(class)].1
    }
}

/// One planned trial: a class, a trial index within the class, and the
/// derived seed that makes the trial reproducible in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec<C> {
    /// What kind of fault or misbehavior to drive.
    pub class: C,
    /// Trial index within the class (0-based).
    pub trial: u32,
    /// Seed for this trial's private RNG stream.
    pub seed: u64,
}

impl<C> Spec<C> {
    /// The trial's private RNG, seeded from [`Spec::seed`].
    pub fn rng(&self) -> FaultRng {
        FaultRng::seed_from_u64(self.seed)
    }
}

/// Builds a campaign plan: `trials_per_class` trials of every class in
/// taxonomy order, each seeded from stream
/// `taxonomy.stream | class_index << 32 | trial` of the campaign seed, so
/// the plan (and everything downstream of it) is a pure function of
/// `(seed, trials_per_class)`.
pub fn plan<C: Copy>(taxonomy: &Taxonomy<C>, seed: u64, trials_per_class: u32) -> Vec<Spec<C>> {
    let mut plan = Vec::with_capacity(taxonomy.classes.len() * trials_per_class as usize);
    for (index, &(class, _)) in taxonomy.classes.iter().enumerate() {
        for trial in 0..trials_per_class {
            let stream = taxonomy.stream | (index as u64) << 32 | u64::from(trial);
            plan.push(Spec {
                class,
                trial,
                seed: FaultRng::derive(seed, stream),
            });
        }
    }
    plan
}

/// The kinds of fault the fault campaign injects.
///
/// Data faults (mask bit flips, value corruption/truncation) perturb a
/// `SparseTensor3` after construction; timing faults (slow/stuck units)
/// perturb the cycle simulators; `DroppedOutput` perturbs the engine's
/// output-collector writes; the cache faults perturb serialized harness
/// cache entries on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Flip one bit in one chunk's `SparseMap`, desynchronizing the
    /// popcount from the packed value count.
    MaskBitFlip,
    /// Overwrite one packed value with a non-canonical one (0.0 or NaN).
    ValueCorruption,
    /// Truncate the packed value store, leaving directory pointers
    /// dangling past the end.
    ValueTruncation,
    /// One compute unit takes a multiple of its true latency (straggler).
    SlowUnit,
    /// One compute unit never completes assigned work.
    StuckUnit,
    /// The output collector silently drops one nonzero write.
    DroppedOutput,
    /// One byte of a serialized cache entry is XOR-corrupted on disk.
    CacheCorruption,
    /// A serialized cache entry is truncated on disk.
    CacheTruncation,
}

/// The fault campaign (`harness faults`): every trial is detected,
/// masked, silently wrong, or crashed.
pub const FAULTS: Taxonomy<FaultClass> = Taxonomy {
    title: "Fault campaign",
    class_column: ("fault class", 18),
    classes: &[
        (FaultClass::MaskBitFlip, "mask-bit-flip"),
        (FaultClass::ValueCorruption, "value-corruption"),
        (FaultClass::ValueTruncation, "value-truncation"),
        (FaultClass::SlowUnit, "slow-unit"),
        (FaultClass::StuckUnit, "stuck-unit"),
        (FaultClass::DroppedOutput, "dropped-output"),
        (FaultClass::CacheCorruption, "cache-corruption"),
        (FaultClass::CacheTruncation, "cache-truncation"),
    ],
    outcomes: &[
        (Outcome::Detected, 8),
        (Outcome::Masked, 8),
        (Outcome::SilentlyWrong, 14),
        (Outcome::Crashed, 8),
    ],
    stream: 0,
    trials: 6,
    quick_trials: 3,
};

/// The outcome columns of the invariant-checking campaigns.
pub(crate) const INVARIANT_OUTCOMES: &[(Outcome, usize)] = &[
    (Outcome::Clean, 8),
    (Outcome::Violated, 10),
    (Outcome::Crashed, 8),
];

/// How a faulty compute unit misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitFault {
    /// The unit's per-chunk latency is multiplied by this factor
    /// (a straggler). Work results are still correct; only timing moves.
    Slow(u64),
    /// The unit never finishes: any nonzero work assigned to it makes
    /// the simulated layer unrecoverable.
    Stuck,
}

/// Targets one compute unit in one cluster with a [`UnitFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitFaultSpec {
    /// Cluster index (SCNN: PE index; `cluster` is the flat PE id).
    pub cluster: usize,
    /// Unit index within the cluster (ignored by SCNN's PE-level model).
    pub unit: usize,
    /// The misbehaviour to inject.
    pub fault: UnitFault,
}

/// Tells the engine's output collector to silently drop the `n`-th
/// nonzero write of the layer (0-based, counted across the whole layer
/// in write order). If fewer nonzero writes occur, nothing is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropSpec {
    /// Index of the nonzero write to suppress.
    pub nth_nonzero_write: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CHAOS, DISK};

    /// The three campaigns' plans for one seed, as `(class label, seed)`.
    fn plans(seed: u64, trials: u32) -> Vec<Vec<(&'static str, u64)>> {
        fn labelled<C: Copy + PartialEq>(
            t: &Taxonomy<C>,
            seed: u64,
            trials: u32,
        ) -> Vec<(&'static str, u64)> {
            plan(t, seed, trials)
                .iter()
                .map(|s| (t.label(s.class), s.seed))
                .collect()
        }
        vec![
            labelled(&FAULTS, seed, trials),
            labelled(&CHAOS, seed, trials),
            labelled(&DISK, seed, trials),
        ]
    }

    #[test]
    fn plan_is_deterministic() {
        assert_eq!(plans(1, 4), plans(1, 4));
        for (a, b) in plans(1, 4).iter().zip(plans(2, 4)) {
            assert_ne!(*a, b);
        }
    }

    #[test]
    fn plan_covers_every_class() {
        fn check<C: Copy + PartialEq + std::fmt::Debug>(t: &Taxonomy<C>) {
            let plan = plan(t, 3, 2);
            assert_eq!(plan.len(), t.classes.len() * 2);
            for &(class, _) in t.classes {
                let trials: Vec<u32> = plan
                    .iter()
                    .filter(|s| s.class == class)
                    .map(|s| s.trial)
                    .collect();
                assert_eq!(trials, [0, 1], "{class:?}");
            }
        }
        check(&FAULTS);
        check(&CHAOS);
        check(&DISK);
    }

    #[test]
    fn trial_seeds_are_distinct() {
        // Within each plan and across the three campaigns: no trial of one
        // campaign may share an RNG stream with any other trial.
        let mut seeds: Vec<u64> = plans(5, 8).into_iter().flatten().map(|(_, s)| s).collect();
        let total = seeds.len();
        assert_eq!(total, (8 + 5 + 5) * 8);
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "derived seeds must not collide");
    }

    #[test]
    fn labels_are_unique() {
        fn check<C>(t: &Taxonomy<C>) {
            let mut labels: Vec<&str> = t.classes.iter().map(|&(_, l)| l).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), t.classes.len(), "{}", t.title);
            assert!(t.quick_trials <= t.trials, "{}", t.title);
        }
        check(&FAULTS);
        check(&CHAOS);
        check(&DISK);
    }
}
