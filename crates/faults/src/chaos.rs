//! The chaos campaign's vocabulary: hostile clients over real sockets.
//!
//! The fault campaign perturbs tensors, units, and cache bytes *inside*
//! the stack; chaos trials attack the serve daemon from *outside*, with
//! the misbehaviors production clients actually exhibit. Planning,
//! tallying and rendering are the shared framework's; this module holds
//! only the classes and the [`CHAOS`] taxonomy.

use crate::plan::{Taxonomy, INVARIANT_OUTCOMES};

/// The kinds of client/network misbehavior the chaos campaign drives
/// against a live server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChaosClass {
    /// A request whose body is cut off mid-write: the client advertises
    /// a `Content-Length` and disconnects partway through the body.
    TornBody,
    /// A slow-loris client: the request header arrives one byte at a
    /// time, each byte within the per-read timeout, trying to hold a
    /// connection slot forever.
    SlowLoris,
    /// A client that submits a valid run and disconnects mid-stream,
    /// while the run is still producing progress events.
    MidStreamDisconnect,
    /// A burst of requests carrying deadlines too short to meet (some
    /// already expired), which must all be answered 504/503 without
    /// reaching the executor.
    DeadlineStorm,
    /// More concurrent distinct jobs than the admission budget allows;
    /// the overflow must bounce 429 and the rest must all complete.
    QueueFlood,
}

/// The chaos campaign (`harness chaos`): every trial is clean, violated,
/// or crashed.
pub const CHAOS: Taxonomy<ChaosClass> = Taxonomy {
    title: "Chaos campaign",
    class_column: ("chaos class", 22),
    classes: &[
        (ChaosClass::TornBody, "torn-body"),
        (ChaosClass::SlowLoris, "slow-loris"),
        (ChaosClass::MidStreamDisconnect, "mid-stream-disconnect"),
        (ChaosClass::DeadlineStorm, "deadline-storm"),
        (ChaosClass::QueueFlood, "queue-flood"),
    ],
    outcomes: INVARIANT_OUTCOMES,
    stream: 1 << 48,
    trials: 3,
    quick_trials: 1,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::tests::check_render;
    use crate::outcome::Outcome;
    use crate::plan::{plan, FAULTS};
    use crate::rng::FaultRng;

    #[test]
    fn plans_are_deterministic_and_streams_distinct() {
        // Pinned to the derivation the campaign has always used, so every
        // per-trial seed (and so every report) stays what it was.
        let a = plan(&CHAOS, 42, 3);
        let seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        let mut expected = Vec::new();
        for class in 0..5u64 {
            for trial in 0..3u64 {
                expected.push(FaultRng::derive(42, 1 << 48 | class << 32 | trial));
            }
        }
        assert_eq!(seeds, expected);
        assert_eq!(a, plan(&CHAOS, 42, 3));
        // Disjoint from the fault campaign's streams for the same seed.
        let fault_seeds: Vec<u64> = plan(&FAULTS, 42, 3).iter().map(|s| s.seed).collect();
        assert!(seeds.iter().all(|s| !fault_seeds.contains(s)));
    }

    #[test]
    fn reports_render_byte_identically_for_equal_campaigns() {
        // The column layout is pinned: it is what `harness chaos` prints.
        let text = check_render(&CHAOS, Outcome::Clean, Outcome::Violated);
        assert!(text.starts_with(
            "== Chaos campaign (seed 9) ==\n\
             chaos class              trials    clean   violated  crashed\n\
             torn-body                     1        1          0        0\n"
        ));
    }
}
