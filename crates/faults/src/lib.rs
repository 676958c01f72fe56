//! Deterministic fault injection for the SparTen reproduction.
//!
//! This crate is dependency-free and holds everything the seeded
//! campaigns need that does *not* depend on the rest of the workspace: a
//! seeded PRNG ([`FaultRng`]), the one campaign framework ([`Campaign`],
//! [`Taxonomy`], [`plan()`], [`Report`], [`run`]) with the three campaigns'
//! taxonomies ([`FAULTS`], [`CHAOS`], [`DISK`]), and the injection
//! configuration types consumed by the simulators and engine
//! ([`UnitFault`], [`UnitFaultSpec`], [`DropSpec`]).
//!
//! The higher layers (tensor, core, sim, harness) depend on this crate;
//! it depends on nothing, so the fault vocabulary is shared without
//! creating dependency cycles. The trial bodies live in the harness.
//!
//! Everything here is deterministic: the same campaign seed produces the
//! same plan, the same per-trial RNG streams, and therefore (given a
//! deterministic system under test) a byte-identical report.

#![warn(missing_docs)]

pub mod chaos;
pub mod disk;
pub mod outcome;
pub mod plan;
pub mod rng;

pub use chaos::{ChaosClass, CHAOS};
pub use disk::{DiskFaultClass, DISK};
pub use outcome::{Outcome, Report, Verdict};
pub use plan::{plan, DropSpec, FaultClass, Spec, Taxonomy, UnitFault, UnitFaultSpec, FAULTS};
pub use rng::FaultRng;

use std::panic::{catch_unwind, AssertUnwindSafe};

/// One seeded campaign: its [`Taxonomy`] plus the trial body. Everything
/// else — planning, the panic-catching driver, tallying, rendering — is
/// shared through [`run`].
pub trait Campaign {
    /// The campaign's class vocabulary.
    type Class: Copy + PartialEq + 'static;

    /// Classes, seed stream, trial counts, and report layout.
    const TAXONOMY: &'static Taxonomy<Self::Class>;

    /// Runs one planned trial and classifies it. A panic is caught by
    /// [`run`] and recorded as [`Outcome::Crashed`].
    fn run_trial(&self, spec: &Spec<Self::Class>) -> Verdict;

    /// A line printed after the report's totals, once every trial ran.
    fn footer(&self) -> Option<String> {
        None
    }
}

/// Runs every trial of `campaign`'s plan for `(seed, trials_per_class)`
/// and returns the report. Each trial runs under `catch_unwind` with the
/// panic hook silenced, so an expected unwind is tallied as
/// [`Outcome::Crashed`] instead of spamming the output.
pub fn run<C: Campaign>(campaign: &C, seed: u64, trials_per_class: u32) -> Report<C::Class> {
    let mut report = Report::new(C::TAXONOMY, seed);
    for spec in plan(C::TAXONOMY, seed, trials_per_class) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let verdict =
            catch_unwind(AssertUnwindSafe(|| campaign.run_trial(&spec))).unwrap_or_else(|_| {
                Verdict {
                    outcome: Outcome::Crashed,
                    detail: "trial harness panicked".into(),
                }
            });
        std::panic::set_hook(prev);
        report.record(&spec, verdict);
    }
    report.footer = campaign.footer();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics on every trial of one class, detects the rest.
    struct Flaky;

    impl Campaign for Flaky {
        type Class = FaultClass;
        const TAXONOMY: &'static Taxonomy<FaultClass> = &FAULTS;

        fn run_trial(&self, spec: &Spec<FaultClass>) -> Verdict {
            assert_ne!(spec.class, FaultClass::StuckUnit, "unit wedged");
            Outcome::Detected.into()
        }

        fn footer(&self) -> Option<String> {
            Some("counters: flaky=1".into())
        }
    }

    #[test]
    fn driver_records_panics_as_crashed_trials() {
        let report = run(&Flaky, 3, 2);
        assert_eq!(report.trials(), 16);
        assert_eq!(report.count(FaultClass::StuckUnit, Outcome::Crashed), 2);
        assert_eq!(report.total(Outcome::Detected), 14);
        let text = report.render();
        assert!(text.contains("  stuck-unit trial 1: trial harness panicked\n"));
        assert!(
            text.ends_with("total: 16 trials, 0 silently-wrong, 2 crashed\ncounters: flaky=1\n")
        );
    }
}
