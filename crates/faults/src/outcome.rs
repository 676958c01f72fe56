//! Per-trial verdicts and the campaign report every campaign shares.

use crate::plan::{Spec, Taxonomy};
use std::fmt::Write as _;

/// What happened in one trial. Each campaign reports a subset of these as
/// its outcome columns (see [`Taxonomy::outcomes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The stack surfaced a typed error or a failed invariant check.
    Detected,
    /// The fault was provably absorbed: the observable result matches
    /// the fault-free reference (e.g. a straggler that only moves
    /// timing, or a drop index past the last write).
    Masked,
    /// The fault changed the result and nothing noticed — the failure
    /// mode the fault campaign exists to rule out.
    SilentlyWrong,
    /// The system survived the trial and every invariant held.
    Clean,
    /// At least one invariant was violated after the trial.
    Violated,
    /// The trial panicked instead of returning a verdict — always a bug.
    Crashed,
}

impl Outcome {
    /// Stable label used in the rendered report.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::Masked => "masked",
            Outcome::SilentlyWrong => "silently-wrong",
            Outcome::Clean => "clean",
            Outcome::Violated => "violated",
            Outcome::Crashed => "crashed",
        }
    }

    /// Whether this outcome fails the campaign (non-zero exit).
    pub(crate) fn fails(self) -> bool {
        matches!(
            self,
            Outcome::SilentlyWrong | Outcome::Violated | Outcome::Crashed
        )
    }
}

/// One trial's outcome plus a deterministic message (invariant names and
/// counts — never timings, pids, or absolute paths). A non-empty detail
/// is listed under the report's table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// What happened.
    pub outcome: Outcome,
    /// Why, when there is something to say; empty otherwise.
    pub detail: String,
}

impl From<Outcome> for Verdict {
    fn from(outcome: Outcome) -> Self {
        Verdict {
            outcome,
            detail: String::new(),
        }
    }
}

impl Verdict {
    /// [`Outcome::Clean`] when `violations` is empty, otherwise
    /// [`Outcome::Violated`] with the violations joined by `"; "`.
    pub fn from_violations(violations: Vec<String>) -> Self {
        if violations.is_empty() {
            Outcome::Clean.into()
        } else {
            Verdict {
                outcome: Outcome::Violated,
                detail: violations.join("; "),
            }
        }
    }
}

/// A campaign's results: per class, the count of each outcome column,
/// plus the detail lines and an optional footer. Rendering depends only
/// on these, so equal campaigns render byte-identically.
#[derive(Debug)]
pub struct Report<C: 'static> {
    /// Campaign seed (reproduces the whole report).
    pub seed: u64,
    taxonomy: &'static Taxonomy<C>,
    /// `tallies[class][column]`, both in taxonomy order.
    tallies: Vec<Vec<u32>>,
    /// `"<class> trial <n>: <detail>"` per trial that carried a detail.
    details: Vec<String>,
    /// Printed after the totals line.
    pub(crate) footer: Option<String>,
}

impl<C: Copy + PartialEq> Report<C> {
    /// An empty report for the given campaign and seed.
    pub(crate) fn new(taxonomy: &'static Taxonomy<C>, seed: u64) -> Self {
        Report {
            seed,
            taxonomy,
            tallies: vec![vec![0; taxonomy.outcomes.len()]; taxonomy.classes.len()],
            details: Vec::new(),
            footer: None,
        }
    }

    /// Records one trial's verdict.
    ///
    /// # Panics
    ///
    /// Panics if the verdict's outcome is not one of the campaign's
    /// outcome columns.
    pub(crate) fn record(&mut self, spec: &Spec<C>, verdict: Verdict) {
        let column = self.column(verdict.outcome);
        self.tallies[self.taxonomy.index(spec.class)][column] += 1;
        if !verdict.detail.is_empty() {
            self.details.push(format!(
                "{} trial {}: {}",
                self.taxonomy.label(spec.class),
                spec.trial,
                verdict.detail
            ));
        }
    }

    fn column(&self, outcome: Outcome) -> usize {
        self.taxonomy
            .outcomes
            .iter()
            .position(|&(o, _)| o == outcome)
            .unwrap_or_else(|| {
                panic!(
                    "{} has no `{}` column",
                    self.taxonomy.title,
                    outcome.label()
                )
            })
    }

    /// Trials of `class` that ended in `outcome`.
    pub fn count(&self, class: C, outcome: Outcome) -> u32 {
        self.tallies[self.taxonomy.index(class)][self.column(outcome)]
    }

    /// Trials that ended in `outcome`, across all classes.
    pub fn total(&self, outcome: Outcome) -> u32 {
        let column = self.column(outcome);
        self.tallies.iter().map(|row| row[column]).sum()
    }

    /// Total trials recorded.
    pub fn trials(&self) -> u32 {
        self.tallies.iter().flatten().sum()
    }

    /// Trials whose outcome fails the campaign.
    pub fn failures(&self) -> u32 {
        self.failing().map(|o| self.total(o)).sum()
    }

    fn failing(&self) -> impl Iterator<Item = Outcome> + '_ {
        self.taxonomy
            .outcomes
            .iter()
            .map(|&(o, _)| o)
            .filter(|o| o.fails())
    }

    /// Renders the table, the detail lines, the totals, and the footer.
    pub fn render(&self) -> String {
        let t = self.taxonomy;
        let (header, width) = t.class_column;
        let mut out = String::new();
        let _ = writeln!(out, "== {} (seed {}) ==", t.title, self.seed);
        let _ = write!(out, "{header:<width$} {:>8}", "trials");
        for &(outcome, w) in t.outcomes {
            let _ = write!(out, " {:>w$}", outcome.label());
        }
        out.push('\n');
        for (&(_, label), row) in t.classes.iter().zip(&self.tallies) {
            let _ = write!(out, "{label:<width$} {:>8}", row.iter().sum::<u32>());
            for (&(_, w), n) in t.outcomes.iter().zip(row) {
                let _ = write!(out, " {n:>w$}");
            }
            out.push('\n');
        }
        for detail in &self.details {
            let _ = writeln!(out, "  {detail}");
        }
        let _ = write!(out, "total: {} trials", self.trials());
        for outcome in self.failing() {
            let _ = write!(out, ", {} {}", self.total(outcome), outcome.label());
        }
        out.push('\n');
        if let Some(footer) = &self.footer {
            let _ = writeln!(out, "{footer}");
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::{FaultClass, FAULTS};
    use crate::{CHAOS, DISK};

    fn spec<C>(class: C, trial: u32) -> Spec<C> {
        Spec {
            class,
            trial,
            seed: 0,
        }
    }

    #[test]
    fn record_and_totals() {
        let mut r = Report::new(&FAULTS, 1);
        r.record(&spec(FaultClass::MaskBitFlip, 0), Outcome::Detected.into());
        r.record(&spec(FaultClass::MaskBitFlip, 1), Outcome::Detected.into());
        r.record(&spec(FaultClass::SlowUnit, 0), Outcome::Masked.into());
        r.record(
            &spec(FaultClass::DroppedOutput, 0),
            Outcome::SilentlyWrong.into(),
        );
        r.record(
            &spec(FaultClass::CacheCorruption, 0),
            Outcome::Crashed.into(),
        );
        assert_eq!(r.count(FaultClass::MaskBitFlip, Outcome::Detected), 2);
        assert_eq!(r.trials(), 5);
        assert_eq!(r.total(Outcome::SilentlyWrong), 1);
        assert_eq!(r.total(Outcome::Crashed), 1);
        assert_eq!(r.failures(), 2);
    }

    /// Records the same three trials (one passing, one failing with a
    /// detail, one crashed) into two reports of one campaign and checks
    /// they render byte-identically, detail line included. Returns the
    /// text so each campaign's test can pin its column layout.
    pub(crate) fn check_render<C: Copy + PartialEq>(
        taxonomy: &'static Taxonomy<C>,
        pass: Outcome,
        fail: Outcome,
    ) -> String {
        let [(a, _), (b, _), (c, _), ..] = *taxonomy.classes else {
            panic!("{} has fewer than three classes", taxonomy.title)
        };
        let mut reports = [Report::new(taxonomy, 9), Report::new(taxonomy, 9)];
        for r in &mut reports {
            r.record(&spec(a, 0), pass.into());
            r.record(
                &spec(b, 1),
                Verdict {
                    outcome: fail,
                    detail: "leaked 1 permit".into(),
                },
            );
            r.record(
                &spec(c, 0),
                Verdict {
                    outcome: Outcome::Crashed,
                    detail: "trial harness panicked".into(),
                },
            );
        }
        let text = reports[0].render();
        assert_eq!(text, reports[1].render(), "{}", taxonomy.title);
        assert_eq!(reports[0].failures(), 2);
        let detail = format!("  {} trial 1: leaked 1 permit\n", taxonomy.label(b));
        assert!(text.contains(&detail), "{text}");
        let totals = format!("total: 3 trials, 1 {}, 1 crashed\n", fail.label());
        assert!(text.ends_with(&totals), "{text}");
        text
    }

    #[test]
    fn render_is_deterministic() {
        // The column layout is pinned: it is what `harness faults` prints.
        // The chaos and disk layouts are pinned next to their taxonomies.
        let text = check_render(&FAULTS, Outcome::Detected, Outcome::SilentlyWrong);
        assert!(text.starts_with(
            "== Fault campaign (seed 9) ==\n\
             fault class          trials detected   masked silently-wrong  crashed\n\
             mask-bit-flip             1        1        0              0        0\n"
        ));
    }

    #[test]
    fn render_lists_every_class() {
        fn check<C: Copy + PartialEq>(taxonomy: &'static Taxonomy<C>) {
            let mut report = Report::new(taxonomy, 0);
            report.footer = Some("counters: x=1".into());
            let text = report.render();
            for &(_, label) in taxonomy.classes {
                assert!(text.contains(label), "missing {label}");
            }
            for &(outcome, _) in taxonomy.outcomes {
                assert!(
                    text.contains(outcome.label()),
                    "missing {}",
                    outcome.label()
                );
            }
            assert!(text.ends_with("\ncounters: x=1\n"), "{text}");
        }
        check(&FAULTS);
        check(&CHAOS);
        check(&DISK);
    }
}
