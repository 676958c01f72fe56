//! One-shot health check: runs the standard validation battery — dense
//! reference vs SparTen engine (all modes) vs SCNN Cartesian engine vs the
//! cycle-level simulators — and prints a pass/fail table.

use sparten::sim::validate::{standard_battery, validate_layer};
use crate::print_table;

/// Runs the battery; the verdict is the last line of the output.
pub fn run() {
    crate::outln!("== Validation battery ==\n");
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (i, (shape, di, df)) in standard_battery().into_iter().enumerate() {
        let r = validate_layer(shape, di, df, 4242 + i as u64);
        let ok = r.passed(1e-2);
        all_ok &= ok;
        rows.push(vec![
            format!(
                "{}x{}x{} k{} s{} n{}",
                shape.in_channels,
                shape.in_height,
                shape.in_width,
                shape.kernel,
                shape.stride,
                shape.num_filters
            ),
            format!("{:.1e}", r.engine_max_err),
            format!("{:.1e}", r.scnn_max_err),
            r.mac_counts_agree.to_string(),
            r.accounting_holds.to_string(),
            r.ordering_holds.to_string(),
            if ok { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    print_table(
        &[
            "layer",
            "engine err",
            "scnn err",
            "macs agree",
            "accounting",
            "ordering",
            "verdict",
        ],
        &rows,
    );
    if all_ok {
        crate::outln!("\nall validation cases passed");
    } else {
        crate::outln!("\nVALIDATION FAILURES PRESENT");
    }
}
