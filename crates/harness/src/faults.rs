//! The fault-injection campaign: inject every planned fault, classify
//! what the stack did about it, and tally per-class coverage.
//!
//! One trial = one [`Spec`] from the [`FAULTS`] plan. Each trial builds a
//! small deterministic workload, injects its fault through the layer the
//! fault targets (tensor structures, the cycle simulators, the functional
//! engine's output collector, or a serialized cache entry on disk), and
//! classifies the outcome:
//!
//! * **detected** — a typed error ([`TensorError`], [`SimError`]) or a
//!   failed invariant surfaced;
//! * **masked** — the observable result is provably identical to the
//!   fault-free reference (the fault was absorbed, e.g. a straggler that
//!   only moves timing, or a drop index past the last write);
//! * **silently-wrong** — the result changed and nothing noticed: the
//!   failure mode the campaign exists to rule out;
//! * **crashed** — the trial panicked instead of returning an error.
//!
//! The whole campaign is a pure function of `(seed, trials_per_class)`:
//! same seed, same plan, same injections, byte-identical report.
//!
//! [`TensorError`]: sparten::tensor::TensorError
//! [`SimError`]: sparten::core::SimError

use crate::cache::{Cache, Lookup};
use crate::PointPayload;
use sparten::core::balance::BalanceMode;
use sparten::core::engine::SparTenEngine;
use sparten::faults::{
    Campaign, DropSpec, FaultClass, Outcome, Spec, Taxonomy, UnitFault, UnitFaultSpec, Verdict,
    FAULTS,
};
use sparten::nn::generate::{workload, Workload};
use sparten::nn::ConvShape;
use sparten::sim::{simulate_layer, try_simulate_layer, MaskModel, Scheme, SimConfig};
use sparten::tensor::SparseTensor3;

/// The campaign's fixed workload seed: fault variability comes from each
/// trial's injection-site RNG, not from workload resampling.
const WORKLOAD_SEED: u64 = 77;

/// The fault campaign (`harness faults`).
pub struct Faults;

impl Campaign for Faults {
    type Class = FaultClass;
    const TAXONOMY: &'static Taxonomy<FaultClass> = &FAULTS;

    fn run_trial(&self, spec: &Spec<FaultClass>) -> Verdict {
        run_trial(spec).into()
    }
}

/// The small layer every trial runs: big enough to exercise multiple
/// chunks, clusters, and output writes; small enough that a full campaign
/// stays under a second.
fn trial_workload() -> Workload {
    let shape = ConvShape::new(8, 6, 6, 3, 8, 1, 1);
    workload(&shape, 0.45, 0.4, WORKLOAD_SEED)
}

fn trial_config() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    cfg.accel.cluster.compute_units = 4;
    cfg
}

fn run_trial(spec: &Spec<FaultClass>) -> Outcome {
    let mut rng = spec.rng();
    match spec.class {
        FaultClass::MaskBitFlip => {
            let w = trial_workload();
            let chunk_size = trial_config().accel.cluster.chunk_size;
            let clean = SparseTensor3::from_dense(&w.input, chunk_size);
            let mut faulty = clean.clone();
            let entries = faulty.directory().entries().len();
            let entry = rng.gen_range(entries as u64) as usize;
            let bit = rng.gen_range(chunk_size as u64) as usize;
            faulty.flip_mask_bit(entry, bit);
            classify_tensor(&clean, &faulty)
        }
        FaultClass::ValueCorruption => {
            let w = trial_workload();
            let chunk_size = trial_config().accel.cluster.chunk_size;
            let clean = SparseTensor3::from_dense(&w.input, chunk_size);
            if clean.nnz() == 0 {
                return Outcome::Masked; // nothing to corrupt
            }
            let mut faulty = clean.clone();
            let index = rng.gen_range(clean.nnz() as u64) as usize;
            // Model both corruption shapes the format forbids: a cleared
            // word (0.0) and a scrambled exponent (NaN).
            let value = if rng.gen_bool() { 0.0 } else { f32::NAN };
            faulty.corrupt_value(index, value);
            classify_tensor(&clean, &faulty)
        }
        FaultClass::ValueTruncation => {
            let w = trial_workload();
            let chunk_size = trial_config().accel.cluster.chunk_size;
            let clean = SparseTensor3::from_dense(&w.input, chunk_size);
            if clean.nnz() == 0 {
                return Outcome::Masked;
            }
            let mut faulty = clean.clone();
            let keep = rng.gen_range(clean.nnz() as u64) as usize;
            faulty.truncate_values(keep);
            classify_tensor(&clean, &faulty)
        }
        FaultClass::SlowUnit => {
            let w = trial_workload();
            let cfg = trial_config();
            let fault = UnitFaultSpec {
                cluster: rng.gen_range(cfg.accel.num_clusters as u64) as usize,
                unit: rng.gen_range(cfg.accel.cluster.compute_units as u64) as usize,
                fault: UnitFault::Slow(2 + rng.gen_range(6)),
            };
            let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
            let clean = simulate_layer(&w, &m, &cfg, Scheme::SpartenNoGb);
            match try_simulate_layer(&w, &m, &cfg, Scheme::SpartenNoGb, Some(&fault)) {
                Err(_) => Outcome::Detected,
                // A straggler must only stretch latency: identical work
                // accounting and no-faster cycles prove absorption.
                Ok(r)
                    if r.breakdown.nonzero == clean.breakdown.nonzero
                        && r.breakdown.zero == clean.breakdown.zero
                        && r.compute_cycles >= clean.compute_cycles
                        && r.accounting_holds() =>
                {
                    Outcome::Masked
                }
                Ok(_) => Outcome::SilentlyWrong,
            }
        }
        FaultClass::StuckUnit => {
            let w = trial_workload();
            let cfg = trial_config();
            let fault = UnitFaultSpec {
                cluster: rng.gen_range(cfg.accel.num_clusters as u64) as usize,
                unit: rng.gen_range(cfg.accel.cluster.compute_units as u64) as usize,
                fault: UnitFault::Stuck,
            };
            let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
            let clean = simulate_layer(&w, &m, &cfg, Scheme::SpartenNoGb);
            match try_simulate_layer(&w, &m, &cfg, Scheme::SpartenNoGb, Some(&fault)) {
                Err(_) => Outcome::Detected,
                // Only a victim that never held work can go unnoticed, and
                // then the result must equal the clean run exactly.
                Ok(r)
                    if r.breakdown == clean.breakdown
                        && r.compute_cycles == clean.compute_cycles =>
                {
                    Outcome::Masked
                }
                Ok(_) => Outcome::SilentlyWrong,
            }
        }
        FaultClass::DroppedOutput => {
            let w = trial_workload();
            let cfg = trial_config();
            let chunk_size = cfg.accel.cluster.chunk_size;
            let engine = SparTenEngine::new(cfg.accel);
            let clean = engine.run_layer(&w, BalanceMode::None, true);
            let total: u64 = clean.trace.clusters.iter().map(|c| c.output_nnz).sum();
            // Mostly target real writes; occasionally aim past the end to
            // exercise the provably-absorbed no-op drop.
            let nth = rng.gen_range(total + 2);
            let faulted = engine.run_layer_faulted(
                &w,
                BalanceMode::None,
                true,
                &DropSpec {
                    nth_nonzero_write: nth,
                },
            );
            match faulted.verify_output_accounting(chunk_size) {
                Err(_) => Outcome::Detected,
                Ok(()) if faulted.produced == clean.produced => Outcome::Masked,
                Ok(()) => Outcome::SilentlyWrong,
            }
        }
        FaultClass::CacheCorruption => with_scratch_cache(spec, |cache, payload, key| {
            let path = cache.entry_file("trial", 0, key);
            let mut bytes = std::fs::read(&path).expect("entry written");
            let byte = rng.gen_range(bytes.len() as u64) as usize;
            bytes[byte] ^= 1 << rng.gen_range(8);
            std::fs::write(&path, &bytes).expect("rewrite entry");
            classify_cache(cache.lookup("trial", 0, key), payload)
        }),
        FaultClass::CacheTruncation => with_scratch_cache(spec, |cache, payload, key| {
            let path = cache.entry_file("trial", 0, key);
            let bytes = std::fs::read(&path).expect("entry written");
            let keep = rng.gen_range(bytes.len() as u64) as usize;
            std::fs::write(&path, &bytes[..keep]).expect("truncate entry");
            classify_cache(cache.lookup("trial", 0, key), payload)
        }),
    }
}

/// Classifies a perturbed tensor against its clean twin: `validate()` is
/// the detection point; an undetected tensor that still decodes to the
/// clean dense image is provably absorbed.
fn classify_tensor(clean: &SparseTensor3, faulty: &SparseTensor3) -> Outcome {
    if faulty.validate().is_err() {
        return Outcome::Detected;
    }
    if faulty.to_dense() == clean.to_dense() {
        Outcome::Masked
    } else {
        Outcome::SilentlyWrong
    }
}

/// Stores one deterministic entry in a scratch cache, lets the trial
/// damage the entry file, and cleans the scratch directory afterwards.
fn with_scratch_cache(
    spec: &Spec<FaultClass>,
    trial: impl FnOnce(&Cache, &PointPayload, u64) -> Outcome,
) -> Outcome {
    let dir = std::env::temp_dir().join(format!(
        "sparten-fault-campaign-{}-{:016x}",
        std::process::id(),
        spec.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::new(dir.clone());
    let payload = PointPayload::Record(format!(
        "scheme=SparTen compute={} memory=7\n",
        spec.seed
    ));
    let key = Cache::key("trial", "campaign-fp", spec.seed, 0);
    cache
        .store("trial", 0, key, &payload)
        .expect("scratch cache store");
    let outcome = trial(&cache, &payload, key);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Classifies a post-damage lookup: anything the cache refuses to serve
/// is detected; serving bytes that still equal the stored payload is
/// absorbed; serving anything else is silent corruption.
fn classify_cache(lookup: Lookup, original: &PointPayload) -> Outcome {
    match lookup {
        Lookup::Malformed | Lookup::Miss => Outcome::Detected,
        Lookup::Hit(p) if p == *original => Outcome::Masked,
        Lookup::Hit(_) => Outcome::SilentlyWrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten::faults::run;

    #[test]
    fn campaign_is_deterministic_and_clean() {
        let a = run(&Faults, 1, 3);
        let b = run(&Faults, 1, 3);
        assert_eq!(a.render(), b.render(), "same seed, same report");
        assert_eq!(a.trials(), 8 * 3);
        assert_eq!(a.total(Outcome::SilentlyWrong), 0, "no fault may go silently wrong");
        assert_eq!(a.total(Outcome::Crashed), 0, "every fault surfaces as a typed error");
    }

    #[test]
    fn different_seeds_change_injection_sites_not_coverage_guarantees() {
        let r = run(&Faults, 99, 2);
        assert_eq!(r.failures(), 0);
        assert_eq!(r.trials(), 8 * 2);
    }

    #[test]
    fn structural_faults_are_always_detected() {
        // Mask flips and value truncation break a structural invariant by
        // construction — absorption is impossible, so the tally must be
        // 100% detected for these classes.
        let r = run(&Faults, 11, 4);
        for class in [FaultClass::MaskBitFlip, FaultClass::ValueTruncation] {
            let detected = r.count(class, Outcome::Detected);
            assert_eq!(detected, 4, "{}", FAULTS.label(class));
        }
    }
}
