//! The committed figure goldens against the prose that quotes them.
//!
//! EXPERIMENTS.md (Figures 15–17) and README.md state that none of the
//! (layer, scheme) rows in the nine `results/fig*.json` files is
//! memory-bound, the FPGA rows included, and quote the largest FPGA
//! memory/compute cycle ratios. These tests read the same files, so a
//! golden regeneration that changes any of those statements fails here,
//! and the prose changes together with the goldens.

use sparten_bench::json::Json;
use std::path::Path;

/// The figure artifacts with one row per (layer, scheme), each flagged
/// with whether it is an FPGA figure.
const FIGURES: [(&str, bool); 9] = [
    ("fig7_alexnet_speedup", false),
    ("fig8_googlenet_speedup", false),
    ("fig9_vggnet_speedup", false),
    ("fig10_alexnet_breakdown", false),
    ("fig11_googlenet_breakdown", false),
    ("fig12_vggnet_breakdown", false),
    ("fig15_alexnet_fpga", true),
    ("fig16_googlenet_fpga", true),
    ("fig17_vggnet_fpga", true),
];

/// One (layer, scheme) row of a figure artifact.
struct Row {
    layer: String,
    scheme: String,
    compute_cycles: u64,
    memory_cycles: u64,
    memory_bound: bool,
}

impl Row {
    fn memory_ratio(&self) -> f64 {
        self.memory_cycles as f64 / self.compute_cycles as f64
    }
}

fn rows(job: &str) -> Vec<Row> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{job}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{job}.json: {e}"));
    let mut out = Vec::new();
    for layer in doc
        .as_arr()
        .expect("a figure artifact is an array of layers")
    {
        let name = layer
            .get("layer")
            .and_then(Json::as_str)
            .expect("layer name");
        for r in layer
            .get("results")
            .and_then(Json::as_arr)
            .expect("layer results")
        {
            let cycles = |key: &str| {
                r.get(key)
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("{job} {name}: {key}"))
            };
            out.push(Row {
                layer: name.to_string(),
                scheme: r
                    .get("scheme")
                    .and_then(Json::as_str)
                    .expect("scheme")
                    .to_string(),
                compute_cycles: cycles("compute_cycles"),
                memory_cycles: cycles("memory_cycles"),
                memory_bound: r
                    .get("memory_bound")
                    .and_then(Json::as_bool)
                    .expect("memory_bound"),
            });
        }
    }
    out
}

/// The row with the largest memory/compute ratio among `rows`.
fn largest_ratio<'a>(rows: impl Iterator<Item = &'a Row>) -> &'a Row {
    rows.max_by(|a, b| a.memory_ratio().total_cmp(&b.memory_ratio()))
        .expect("at least one row")
}

#[test]
fn no_figure_row_is_memory_bound() {
    let (mut total, mut fpga) = (0, 0);
    for (job, is_fpga) in FIGURES {
        for row in rows(job) {
            assert!(
                !row.memory_bound && row.memory_cycles <= row.compute_cycles,
                "{job} {} {}: memory {} vs compute {} cycles",
                row.layer,
                row.scheme,
                row.memory_cycles,
                row.compute_cycles
            );
            total += 1;
            fpga += usize::from(is_fpga);
        }
    }
    assert_eq!((total, fpga), (540, 120), "(rows, FPGA rows)");
}

#[test]
fn largest_fpga_memory_to_compute_ratios_match_the_prose() {
    let fpga_rows: Vec<Row> = FIGURES
        .iter()
        .filter(|(_, fpga)| *fpga)
        .flat_map(|(job, _)| rows(job))
        .collect();
    let top = largest_ratio(fpga_rows.iter());
    assert_eq!(format!("{:.2}", top.memory_ratio()), "0.38");
    assert_eq!(
        (top.scheme.as_str(), top.layer.as_str()),
        ("SparTen-no-GB", "Inc3a_5x5red")
    );
    let sparten = largest_ratio(fpga_rows.iter().filter(|r| r.scheme == "SparTen"));
    assert_eq!(format!("{:.2}", sparten.memory_ratio()), "0.27");
}
