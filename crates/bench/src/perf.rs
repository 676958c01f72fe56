//! The `harness bench` perf-regression registry.
//!
//! A deterministic micro + macro benchmark suite that establishes the
//! repo's perf trajectory:
//!
//! * **kernel benches** time each word-parallel fast-path kernel against
//!   its structural-circuit oracle (prefix networks, inner-join
//!   sequencer, output compactor) and report the speedup;
//! * **macro benches** time representative end-to-end paths: one
//!   cycle-simulated layer per architecture, a real Table 3 layer under
//!   every scheme, and one functional-engine layer (the harness adds its
//!   cache hit path on top).
//!
//! `harness bench` renders the speedup table, emits `BENCH_sim.json`
//! via `atomic_write`, and — when a previous `BENCH_sim.json` exists —
//! compares the new timings against it, flagging any benchmark that got
//! slower than `threshold ×` its baseline. Workloads and iteration
//! structure are seeded and fixed, so two runs differ only in the timing
//! fields; [`non_timing_fingerprint`] captures everything else for the
//! determinism test and the `--check-schema` smoke.

use std::time::Duration;

use crate::json::Json;
use crate::timing::{measure, Measurement};

/// Schema tag pinned by the golden-value test.
pub const BENCH_SCHEMA: &str = "sparten-bench/v1";

/// Default regression threshold: fail a benchmark that runs slower than
/// `1.5 ×` its recorded baseline.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

/// Default output artifact path (repo root, next to the other top-level
/// reports).
pub const DEFAULT_OUT_PATH: &str = "BENCH_sim.json";

/// Options for one `harness bench` run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Quick mode: ~5 ms budget per measurement instead of ~60 ms.
    pub quick: bool,
    /// Only run benchmarks whose name contains this substring.
    pub filter: Option<String>,
    /// Regression threshold (new/old ratio) against the baseline.
    pub threshold: f64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            filter: None,
            threshold: DEFAULT_THRESHOLD,
        }
    }
}

impl BenchOptions {
    fn budget(&self) -> Duration {
        if self.quick {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(60)
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }
}

/// One structural-vs-fast kernel measurement.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Benchmark name (`kernel/...`).
    pub name: String,
    /// ns/iter of the structural-circuit oracle path.
    pub structural_ns: f64,
    /// ns/iter of the word-parallel fast path.
    pub fast_ns: f64,
    /// `structural_ns / fast_ns`.
    pub speedup: f64,
}

/// One end-to-end path measurement.
#[derive(Debug, Clone)]
pub struct MacroResult {
    /// Benchmark name (`layer/...`, `engine/...`, `harness/...`).
    pub name: String,
    /// ns/iter of the path.
    pub ns_per_iter: f64,
}

/// The full result of one bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// The regression threshold the run was configured with.
    pub threshold: f64,
    /// Kernel (structural vs fast) results, in registry order.
    pub kernels: Vec<KernelResult>,
    /// Macro results, in registry order.
    pub macros: Vec<MacroResult>,
}

/// An extra macro benchmark injected by the caller (the harness adds its
/// cache hit path, which this crate cannot depend on).
pub struct ExtraBench<'a> {
    /// Benchmark name.
    pub name: String,
    /// The workload to time.
    pub run: Box<dyn FnMut() + 'a>,
}

/// A regression against the previous baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline ns/iter.
    pub old_ns: f64,
    /// Current ns/iter.
    pub new_ns: f64,
    /// `new_ns / old_ns`.
    pub ratio: f64,
}

/// Runs the registry (kernels, macros, and any injected extras) and
/// returns the report. Deterministic in everything but the timings: the
/// workloads are seeded and the registry order is fixed.
pub fn run_benchmarks(opts: &BenchOptions, extras: Vec<ExtraBench<'_>>) -> BenchReport {
    use sparten::arch::fast;
    use sparten::arch::prefix::{
        exclusive_from_inclusive, KoggeStone, PrefixCircuit, Sklansky,
    };
    use sparten::arch::{InnerJoinSequencer, OutputCompactor};
    use sparten::core::BalanceMode;
    use sparten::nn::generate::workload;
    use sparten::nn::ConvShape;
    use sparten::sim::{simulate_layer, simulate_schemes, MaskModel, Scheme, SimConfig};
    use sparten::tensor::{Rng64, SparseChunk};

    let budget = opts.budget();
    let mut kernels = Vec::new();
    let mut macros = Vec::new();

    // ---- Kernel fixtures: the paper's 128-wide chunk at ~35% density. ----
    let mut rng = Rng64::seed_from_u64(crate::SEED);
    let chunk_pair = |rng: &mut Rng64| -> (SparseChunk, SparseChunk) {
        let dense = |rng: &mut Rng64| -> Vec<f32> {
            (0..128)
                .map(|_| {
                    if rng.gen_bool(0.35) {
                        rng.gen_range_f64(0.5, 2.0) as f32
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        (
            SparseChunk::from_dense(&dense(rng)),
            SparseChunk::from_dense(&dense(rng)),
        )
    };
    let (a, b) = chunk_pair(&mut rng);

    let mut kernel = |name: &str, structural: &mut dyn FnMut(), fast_f: &mut dyn FnMut()| {
        if !opts.selected(name) {
            return;
        }
        let s: Measurement = measure(budget, structural);
        let f: Measurement = measure(budget, fast_f);
        kernels.push(KernelResult {
            name: name.to_string(),
            structural_ns: s.ns_per_iter,
            fast_ns: f.ns_per_iter,
            speedup: s.ns_per_iter / f.ns_per_iter.max(f64::MIN_POSITIVE),
        });
    };

    kernel(
        "kernel/prefix-sklansky-128",
        &mut || {
            let inc = Sklansky.prefix_sums(a.mask());
            std::hint::black_box(exclusive_from_inclusive(&inc, a.mask()));
        },
        &mut || {
            std::hint::black_box(fast::exclusive_offsets(a.mask()));
        },
    );
    kernel(
        "kernel/prefix-koggestone-128",
        &mut || {
            let inc = KoggeStone.prefix_sums(b.mask());
            std::hint::black_box(exclusive_from_inclusive(&inc, b.mask()));
        },
        &mut || {
            std::hint::black_box(fast::exclusive_offsets(b.mask()));
        },
    );
    kernel(
        "kernel/inner-join-128",
        &mut || {
            std::hint::black_box(InnerJoinSequencer::new(&a, &b).run());
        },
        &mut || {
            std::hint::black_box(fast::join_eval(&a, &b));
        },
    );
    let cells: Vec<f32> = {
        let mut r = Rng64::seed_from_u64(crate::SEED + 1);
        (0..32)
            .map(|_| {
                if r.gen_bool(0.6) {
                    r.gen_range_f64(-1.0, 1.0) as f32
                } else {
                    0.0
                }
            })
            .collect()
    };
    kernel(
        "kernel/compact-32",
        &mut || {
            std::hint::black_box(OutputCompactor::new(32).compact(&cells));
        },
        &mut || {
            std::hint::black_box(fast::compact_values(&cells));
        },
    );

    // ---- Macro fixtures: a small seeded layer shared by all schemes. ----
    let shape = ConvShape::new(64, 8, 8, 3, 8, 1, 1);
    let w = workload(&shape, 0.35, 0.3, crate::SEED);
    let config = SimConfig::small();
    let model = MaskModel::new(&w, config.accel.cluster.chunk_size);
    model.total_sparse_macs(); // warm the shared cache outside the timers

    let mut macro_bench = |name: &str, f: &mut dyn FnMut()| {
        if !opts.selected(name) {
            return;
        }
        let m = measure(budget, f);
        macros.push(MacroResult {
            name: name.to_string(),
            ns_per_iter: m.ns_per_iter,
        });
    };

    for scheme in [Scheme::Dense, Scheme::SpartenGbH, Scheme::Scnn] {
        let name = format!("layer/{}", scheme.label());
        macro_bench(&name, &mut || {
            std::hint::black_box(simulate_layer(&w, &model, &config, scheme));
        });
    }
    // Real Table 3 layers under every scheme, the unit of work a figure
    // point runs, on their registry config: GoogLeNet Inc3a_3x3, and
    // Inc5a_3x3, whose 7×7 plane gives each of 16 clusters about three
    // positions, so every batch of sixteen positions spans several
    // clusters.
    let net = sparten::nn::networks::googlenet();
    let net_config = crate::network_config(&net);
    for layer in ["Inc3a_3x3", "Inc5a_3x3"] {
        let spec = net.layer(layer).expect("Table 3 layer");
        let w = spec.workload(crate::SEED);
        let model = MaskModel::new(&w, net_config.accel.cluster.chunk_size);
        macro_bench(&format!("table3/GoogLeNet-{layer}"), &mut || {
            std::hint::black_box(simulate_schemes(
                &w,
                &model,
                &net_config,
                &Scheme::all(),
                None,
            ))
            .expect("an untraced pass has nothing to reconcile");
        });
    }
    macro_bench("engine/run-layer", &mut || {
        let engine = sparten::core::SparTenEngine::new(config.accel);
        std::hint::black_box(engine.run_layer(&w, BalanceMode::GbH, false));
    });

    // ---- Analytical-model paths: one closed-form layer evaluation (the
    // per-point cost the DSE pays in place of a simulated layer), and a
    // ~1k-configuration slice of the `dse --quick` grid (two executor
    // batches, exactly what one sweep point computes). ----
    use sparten::model::dse::{DseAxes, DseGrid};
    let eval_params = sparten::model::LayerParams::new(shape, 0.35, 0.3);
    let eval_buf =
        sparten::model::scheme_buffer_bytes_per_mac(Scheme::SpartenGbH, &config.accel.cluster);
    macro_bench("model/eval-point", &mut || {
        std::hint::black_box(sparten::model::evaluate(
            &eval_params,
            &config,
            Scheme::SpartenGbH,
            eval_buf,
        ));
    });
    let dse_grid = DseGrid::new(DseAxes::quick());
    macro_bench("dse/1k-sweep", &mut || {
        std::hint::black_box(dse_grid.batch_record(0));
        std::hint::black_box(dse_grid.batch_record(1));
    });

    for mut extra in extras {
        let name = extra.name.clone();
        macro_bench(&name, &mut *extra.run);
    }

    BenchReport {
        mode: if opts.quick { "quick" } else { "full" },
        threshold: opts.threshold,
        kernels,
        macros,
    }
}

impl BenchReport {
    /// Serializes the report into the pinned `BENCH_sim.json` schema.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(BENCH_SCHEMA)),
            ("mode", Json::str(self.mode)),
            ("threshold", Json::Float(self.threshold)),
            (
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Json::obj([
                                ("name", Json::str(k.name.clone())),
                                ("structural_ns", Json::Float(k.structural_ns)),
                                ("fast_ns", Json::Float(k.fast_ns)),
                                ("speedup", Json::Float(k.speedup)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "macros",
                Json::Arr(
                    self.macros
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(m.name.clone())),
                                ("ns_per_iter", Json::Float(m.ns_per_iter)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable speedup table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("bench mode: {}\n\n", self.mode));
        out.push_str(&format!(
            "{:<30} {:>14} {:>14} {:>9}\n",
            "kernel (structural vs fast)", "structural ns", "fast ns", "speedup"
        ));
        for k in &self.kernels {
            out.push_str(&format!(
                "{:<30} {:>14.0} {:>14.0} {:>8.1}x\n",
                k.name, k.structural_ns, k.fast_ns, k.speedup
            ));
        }
        out.push('\n');
        out.push_str(&format!("{:<30} {:>14}\n", "macro path", "ns/iter"));
        for m in &self.macros {
            out.push_str(&format!("{:<30} {:>14.0}\n", m.name, m.ns_per_iter));
        }
        out
    }

    /// Every (name, representative ns) pair the baseline comparison keys
    /// on: kernels compare their fast-path time, macros their ns/iter.
    fn timings(&self) -> Vec<(String, f64)> {
        self.kernels
            .iter()
            .map(|k| (k.name.clone(), k.fast_ns))
            .chain(self.macros.iter().map(|m| (m.name.clone(), m.ns_per_iter)))
            .collect()
    }

    /// Compares this run against a previously-written `BENCH_sim.json`
    /// document, returning every benchmark slower than `threshold ×` its
    /// baseline. Benchmarks absent from the baseline are skipped (new
    /// benchmarks are not regressions).
    pub fn compare_with_baseline(&self, baseline: &Json) -> Vec<Regression> {
        let mut old = std::collections::HashMap::new();
        for (section, field) in [("kernels", "fast_ns"), ("macros", "ns_per_iter")] {
            let Some(items) = baseline.get(section).and_then(Json::as_arr) else {
                continue;
            };
            for item in items {
                if let (Some(name), Some(ns)) = (
                    item.get("name").and_then(Json::as_str),
                    item.get(field).and_then(Json::as_f64),
                ) {
                    old.insert(name.to_string(), ns);
                }
            }
        }
        self.timings()
            .into_iter()
            .filter_map(|(name, new_ns)| {
                let &old_ns = old.get(&name)?;
                if old_ns <= 0.0 {
                    return None;
                }
                let ratio = new_ns / old_ns;
                (ratio > self.threshold).then_some(Regression {
                    name,
                    old_ns,
                    new_ns,
                    ratio,
                })
            })
            .collect()
    }
}

/// Validates a parsed `BENCH_sim.json` document against the pinned
/// schema: tag, mode, threshold, and per-entry fields all present, all
/// timings finite and positive, names non-empty.
pub fn check_schema(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema `{schema}`, expected `{BENCH_SCHEMA}`"));
    }
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing `mode`")?;
    if mode != "quick" && mode != "full" {
        return Err(format!("mode `{mode}` is neither `quick` nor `full`"));
    }
    let threshold = doc
        .get("threshold")
        .and_then(Json::as_f64)
        .ok_or("missing `threshold`")?;
    if !threshold.is_finite() || threshold <= 0.0 {
        return Err(format!("threshold {threshold} must be finite and positive"));
    }
    let timing_ok = |v: f64| v.is_finite() && v > 0.0;
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("missing `kernels` array")?;
    for k in kernels {
        let name = k
            .get("name")
            .and_then(Json::as_str)
            .filter(|n| !n.is_empty())
            .ok_or("kernel entry missing `name`")?;
        for field in ["structural_ns", "fast_ns", "speedup"] {
            let v = k
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("kernel `{name}` missing `{field}`"))?;
            if !timing_ok(v) {
                return Err(format!("kernel `{name}` has bad `{field}`: {v}"));
            }
        }
    }
    let macros = doc
        .get("macros")
        .and_then(Json::as_arr)
        .ok_or("missing `macros` array")?;
    for m in macros {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .filter(|n| !n.is_empty())
            .ok_or("macro entry missing `name`")?;
        let v = m
            .get("ns_per_iter")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("macro `{name}` missing `ns_per_iter`"))?;
        if !timing_ok(v) {
            return Err(format!("macro `{name}` has bad `ns_per_iter`: {v}"));
        }
    }
    Ok(())
}

/// The non-timing content of a `BENCH_sim.json` document: schema, mode,
/// threshold, and the ordered benchmark names. Two runs with identical
/// options must produce identical fingerprints — only timings may vary.
pub fn non_timing_fingerprint(doc: &Json) -> String {
    let mut out = String::new();
    for field in ["schema", "mode"] {
        out.push_str(doc.get(field).and_then(Json::as_str).unwrap_or("?"));
        out.push('\n');
    }
    out.push_str(&format!(
        "threshold={}\n",
        doc.get("threshold").and_then(Json::as_f64).unwrap_or(-1.0)
    ));
    for section in ["kernels", "macros"] {
        out.push_str(section);
        out.push(':');
        if let Some(items) = doc.get(section).and_then(Json::as_arr) {
            for item in items {
                out.push(' ');
                out.push_str(item.get("name").and_then(Json::as_str).unwrap_or("?"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        let opts = BenchOptions {
            quick: true,
            filter: Some("kernel/compact-32".into()),
            threshold: DEFAULT_THRESHOLD,
        };
        run_benchmarks(&opts, Vec::new())
    }

    #[test]
    fn filtered_run_times_only_selected_benchmarks() {
        let r = tiny_report();
        assert_eq!(r.kernels.len(), 1);
        assert_eq!(r.kernels[0].name, "kernel/compact-32");
        assert!(r.macros.is_empty());
        assert!(r.kernels[0].structural_ns.is_finite());
        assert!(r.kernels[0].fast_ns > 0.0);
    }

    #[test]
    fn report_json_passes_its_own_schema_check() {
        let r = tiny_report();
        let doc = Json::parse(&r.to_json().pretty()).expect("round-trip");
        check_schema(&doc).expect("schema");
    }

    #[test]
    fn baseline_comparison_flags_only_true_regressions() {
        let mut r = tiny_report();
        r.kernels[0].fast_ns = 100.0;
        let mut old = r.clone();
        // Identical baseline: no regressions.
        assert!(r.compare_with_baseline(&old.to_json()).is_empty());
        // Baseline 3× faster than current: regression at threshold 1.5.
        old.kernels[0].fast_ns = 100.0 / 3.0;
        let regs = r.compare_with_baseline(&old.to_json());
        assert_eq!(regs.len(), 1);
        assert!((regs[0].ratio - 3.0).abs() < 1e-9);
        // Baseline slightly slower: still fine.
        old.kernels[0].fast_ns = 120.0;
        assert!(r.compare_with_baseline(&old.to_json()).is_empty());
    }

    #[test]
    fn extra_benches_are_appended_and_filtered() {
        let opts = BenchOptions {
            quick: true,
            filter: Some("harness/".into()),
            threshold: DEFAULT_THRESHOLD,
        };
        let mut calls = 0u64;
        let extras = vec![ExtraBench {
            name: "harness/noop".into(),
            run: Box::new(|| calls += 1),
        }];
        let r = run_benchmarks(&opts, extras);
        assert!(calls > 0, "injected bench must have been driven");
        assert!(r.kernels.is_empty());
        assert_eq!(r.macros.len(), 1);
        assert_eq!(r.macros[0].name, "harness/noop");
    }
}
