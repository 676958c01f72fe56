//! Golden and determinism tests for the `harness bench` artifact.
//!
//! The `BENCH_sim.json` schema is a cross-PR contract: CI's
//! `--check-schema` smoke, the baseline comparison, and any external
//! tooling all parse it. These tests pin the schema tag, the key layout,
//! and the registry contents, and check that two runs with identical
//! options differ only in their timing fields.

use sparten_bench::json::Json;
use sparten_bench::{
    check_schema, non_timing_fingerprint, run_benchmarks, BenchOptions, BenchReport, ExtraBench,
    BENCH_SCHEMA, DEFAULT_THRESHOLD,
};

fn quick_opts() -> BenchOptions {
    BenchOptions {
        quick: true,
        filter: None,
        threshold: DEFAULT_THRESHOLD,
    }
}

fn quick_run() -> BenchReport {
    run_benchmarks(&quick_opts(), Vec::new())
}

/// Golden: the artifact parses back through the same hand-rolled JSON
/// parser the harness uses and satisfies the pinned schema.
#[test]
fn artifact_parses_back_and_passes_schema_check() {
    let report = quick_run();
    let text = report.to_json().pretty();
    let doc = Json::parse(&text).expect("BENCH_sim.json must round-trip through bench::json");
    check_schema(&doc).expect("artifact must satisfy the pinned schema");
}

/// Golden: the schema tag, top-level key order, and registry contents
/// are pinned. Renaming a benchmark or reordering keys breaks baseline
/// comparisons across commits, so it must show up as a test diff here.
#[test]
fn artifact_schema_and_registry_are_pinned() {
    let report = quick_run();
    let text = report.to_json().pretty();

    assert_eq!(BENCH_SCHEMA, "sparten-bench/v1");
    assert!(
        text.starts_with("{\n  \"schema\": \"sparten-bench/v1\","),
        "schema tag must be the first key:\n{text}"
    );
    for key in ["\"mode\"", "\"threshold\"", "\"kernels\"", "\"macros\""] {
        assert!(text.contains(key), "missing top-level key {key}:\n{text}");
    }

    let kernel_names: Vec<&str> = report.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(
        kernel_names,
        [
            "kernel/prefix-sklansky-128",
            "kernel/prefix-koggestone-128",
            "kernel/inner-join-128",
            "kernel/compact-32",
        ],
        "kernel registry changed — update the golden list AND the baseline"
    );
    let macro_names: Vec<&str> = report.macros.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        macro_names,
        [
            "layer/Dense",
            "layer/SparTen",
            "layer/SCNN",
            "table3/GoogLeNet-Inc3a_3x3",
            "table3/GoogLeNet-Inc5a_3x3",
            "engine/run-layer",
            "model/eval-point",
            "dse/1k-sweep",
        ],
        "macro registry changed — update the golden list AND the baseline"
    );

    for k in &report.kernels {
        assert!(
            k.structural_ns.is_finite() && k.structural_ns > 0.0,
            "{}: bad structural_ns",
            k.name
        );
        assert!(k.fast_ns.is_finite() && k.fast_ns > 0.0, "{}: bad fast_ns", k.name);
        assert!(k.speedup.is_finite() && k.speedup > 0.0, "{}: bad speedup", k.name);
    }
    for m in &report.macros {
        assert!(
            m.ns_per_iter.is_finite() && m.ns_per_iter > 0.0,
            "{}: bad ns_per_iter",
            m.name
        );
    }
}

/// Two runs with identical options agree on every non-timing field:
/// schema, mode, threshold, and the ordered benchmark names.
#[test]
fn two_runs_agree_on_all_non_timing_fields() {
    let first = quick_run().to_json().pretty();
    let second = quick_run().to_json().pretty();
    let fp_a = non_timing_fingerprint(&Json::parse(&first).expect("first run parses"));
    let fp_b = non_timing_fingerprint(&Json::parse(&second).expect("second run parses"));
    assert_eq!(fp_a, fp_b, "non-timing fields must be deterministic");
    assert!(fp_a.contains("sparten-bench/v1"));
    assert!(fp_a.contains("kernel/inner-join-128"));
    assert!(fp_a.contains("engine/run-layer"));
}

/// Injected extra benches land after the built-in macros, in order, so
/// the harness cache-hit path keeps a stable position in the artifact.
#[test]
fn extras_extend_the_fingerprint_deterministically() {
    let opts = BenchOptions {
        quick: true,
        filter: Some("harness/".into()),
        threshold: DEFAULT_THRESHOLD,
    };
    let run = |calls: &mut u64| {
        let extras = vec![ExtraBench {
            name: "harness/cache-hit".into(),
            run: Box::new(|| *calls += 1),
        }];
        let doc = Json::parse(&run_benchmarks(&opts, extras).to_json().pretty()).expect("parses");
        check_schema(&doc).expect("schema");
        non_timing_fingerprint(&doc)
    };
    let (mut c1, mut c2) = (0u64, 0u64);
    let (fp_a, fp_b) = (run(&mut c1), run(&mut c2));
    assert!(c1 > 0 && c2 > 0, "extra bench must actually run");
    assert_eq!(fp_a, fp_b);
    assert!(fp_a.ends_with("macros: harness/cache-hit\n"), "got: {fp_a:?}");
}
