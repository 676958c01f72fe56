//! `sparten_cli` — a command-line front end for the reproduction.
//!
//! ```text
//! sparten_cli goals
//! sparten_cli asic [--units N] [--chunk N]
//! sparten_cli simulate --network alexnet [--layer Layer2] [--scheme sparten]
//!                      [--config large|small|fpga] [--seed N]
//! sparten_cli energy --network vggnet [--config large|small|fpga]
//! ```
//!
//! Argument parsing is deliberately dependency-free (std only).

use std::collections::HashMap;
use std::process::ExitCode;

use sparten::core::ClusterConfig;
use sparten::energy::{cluster_asic_estimate, EnergyModel};
use sparten::nn::{alexnet, googlenet, vggnet, Network};
use sparten::sim::{design_goal_table, simulate_spec, Scheme, SimConfig};
use sparten_bench::print_table;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    match command.as_str() {
        "goals" => cmd_goals(),
        "asic" => cmd_asic(&flags),
        "simulate" => cmd_simulate(&flags),
        "energy" => cmd_energy(&flags),
        "trace" => cmd_trace(&flags),
        "validate" => cmd_validate(),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: sparten_cli <command> [flags]\n\
         \n\
         commands:\n\
           goals                       print the Table 1 design-goal matrix\n\
           asic [--units N] [--chunk N]\n\
                                       per-cluster ASIC area/power estimate\n\
           simulate --network <alexnet|googlenet|vggnet>\n\
                    [--layer NAME] [--scheme NAME] [--config large|small|fpga]\n\
                    [--seed N]         simulate Table 3 layers\n\
           energy --network <name> [--config ...]\n\
                                       per-layer energy table\n\
           trace --network <name> --layer NAME [--mode none|gb-s|gb-h]\n\
                                       Figure-6-style per-chunk occupancy strips\n\
           validate                    run the model-consistency battery\n\
         \n\
         schemes: dense, one-sided, no-gb, gb-s, sparten, scnn,\n\
                  scnn-one-sided, scnn-dense (default: all)"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            eprintln!("ignoring stray argument: {}", args[i]);
            i += 1;
        }
    }
    flags
}

fn network_by_name(name: &str) -> Option<Network> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Some(alexnet()),
        "googlenet" => Some(googlenet()),
        "vggnet" | "vgg" => Some(vggnet()),
        _ => None,
    }
}

fn scheme_by_name(name: &str) -> Option<Scheme> {
    match name.to_ascii_lowercase().as_str() {
        "dense" => Some(Scheme::Dense),
        "one-sided" | "onesided" => Some(Scheme::OneSided),
        "no-gb" | "sparten-no-gb" => Some(Scheme::SpartenNoGb),
        "gb-s" | "sparten-gb-s" => Some(Scheme::SpartenGbS),
        "sparten" | "gb-h" => Some(Scheme::SpartenGbH),
        "scnn" => Some(Scheme::Scnn),
        "scnn-one-sided" => Some(Scheme::ScnnOneSided),
        "scnn-dense" => Some(Scheme::ScnnDense),
        _ => None,
    }
}

fn config_by_name(name: &str) -> Option<SimConfig> {
    match name.to_ascii_lowercase().as_str() {
        "large" => Some(SimConfig::large()),
        "small" => Some(SimConfig::small()),
        "fpga" => Some(SimConfig::fpga()),
        _ => None,
    }
}

fn cmd_goals() -> ExitCode {
    let rows: Vec<Vec<String>> = design_goal_table()
        .into_iter()
        .map(|g| {
            vec![
                g.architecture.to_string(),
                g.avoid_zero_transfer.to_string(),
                g.avoid_zero_compute.to_string(),
                g.maintain_accuracy.to_string(),
                g.efficient_fully_sparse.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "Architecture",
            "No zero transfer",
            "No zero compute",
            "Accuracy",
            "Efficient sparse",
        ],
        &rows,
    );
    ExitCode::SUCCESS
}

fn cmd_asic(flags: &HashMap<String, String>) -> ExitCode {
    let units = flags
        .get("units")
        .map(|v| v.parse().expect("--units must be a number"))
        .unwrap_or(32);
    let chunk = flags
        .get("chunk")
        .map(|v| v.parse().expect("--chunk must be a number"))
        .unwrap_or(128);
    let est = cluster_asic_estimate(&ClusterConfig {
        compute_units: units,
        chunk_size: chunk,
        bisection_limit: 4,
    });
    let mut rows: Vec<Vec<String>> = est
        .components
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.4}", c.area_mm2),
                format!("{:.2}", c.power_mw),
            ]
        })
        .collect();
    rows.push(vec![
        "Total".into(),
        format!("{:.3}", est.total_area_mm2()),
        format!("{:.2}", est.total_power_mw()),
    ]);
    println!(
        "{units}-unit cluster, {chunk}-wide chunks, 45 nm @ {} MHz:",
        est.clock_mhz
    );
    print_table(&["Component", "Area (mm^2)", "Power (mW)"], &rows);
    ExitCode::SUCCESS
}

fn selected_schemes(flags: &HashMap<String, String>) -> Option<Vec<Scheme>> {
    match flags.get("scheme") {
        None => Some(Scheme::all().to_vec()),
        Some(name) => scheme_by_name(name).map(|s| vec![s]),
    }
}

fn cmd_simulate(flags: &HashMap<String, String>) -> ExitCode {
    let Some(net) = flags.get("network").and_then(|n| network_by_name(n)) else {
        eprintln!("simulate requires --network alexnet|googlenet|vggnet");
        return ExitCode::FAILURE;
    };
    let Some(schemes) = selected_schemes(flags) else {
        eprintln!("unknown --scheme (see `sparten_cli help`)");
        return ExitCode::FAILURE;
    };
    let config = match flags.get("config") {
        None => {
            if net.name == "GoogLeNet" {
                SimConfig::small()
            } else {
                SimConfig::large()
            }
        }
        Some(name) => match config_by_name(name) {
            Some(c) => c,
            None => {
                eprintln!("unknown --config (large|small|fpga)");
                return ExitCode::FAILURE;
            }
        },
    };
    let seed = flags
        .get("seed")
        .map(|v| v.parse().expect("--seed must be a number"))
        .unwrap_or(2019u64);
    let layers: Vec<_> = match flags.get("layer") {
        None => net.layers.iter().collect(),
        Some(name) => match net.layer(name) {
            Some(l) => vec![l],
            None => {
                eprintln!("{} has no layer {name}", net.name);
                return ExitCode::FAILURE;
            }
        },
    };

    let mut rows = Vec::new();
    for spec in layers {
        let dense = simulate_spec(spec, &config, Scheme::Dense, seed);
        for &scheme in &schemes {
            let r = simulate_spec(spec, &config, scheme, seed);
            rows.push(vec![
                spec.name.to_string(),
                r.scheme.to_string(),
                r.cycles().to_string(),
                format!("{:.2}x", r.speedup_over(&dense)),
                r.is_memory_bound().to_string(),
            ]);
        }
    }
    print_table(
        &["Layer", "Scheme", "cycles", "speedup", "memory-bound"],
        &rows,
    );
    ExitCode::SUCCESS
}

fn cmd_trace(flags: &HashMap<String, String>) -> ExitCode {
    use sparten::core::balance::BalanceMode;
    use sparten::sim::{trace_cluster, MaskModel};
    let Some(net) = flags.get("network").and_then(|n| network_by_name(n)) else {
        eprintln!("trace requires --network alexnet|googlenet|vggnet");
        return ExitCode::FAILURE;
    };
    let Some(spec) = flags.get("layer").and_then(|l| net.layer(l)) else {
        eprintln!("trace requires --layer <Table 3 name>");
        return ExitCode::FAILURE;
    };
    let mode = match flags.get("mode").map(String::as_str) {
        None | Some("gb-h") => BalanceMode::GbH,
        Some("gb-s") => BalanceMode::GbS,
        Some("none") => BalanceMode::None,
        Some(other) => {
            eprintln!("unknown --mode {other} (none|gb-s|gb-h)");
            return ExitCode::FAILURE;
        }
    };
    let w = spec.workload(2019);
    let cfg = if net.name == "GoogLeNet" {
        SimConfig::small()
    } else {
        SimConfig::large()
    };
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    let log = trace_cluster(&w, &model, &cfg, mode, 1, None);
    println!(
        "{} {} under {mode:?}: utilization {:.0}%",
        net.name,
        spec.name,
        log.utilization() * 100.0
    );
    print!("{}", log.render(4, 48));
    ExitCode::SUCCESS
}

fn cmd_validate() -> ExitCode {
    use sparten::sim::validate::{standard_battery, validate_layer};
    let mut ok = true;
    for (i, (shape, di, df)) in standard_battery().into_iter().enumerate() {
        let r = validate_layer(shape, di, df, 4242 + i as u64);
        let pass = r.passed(1e-2);
        ok &= pass;
        println!(
            "case {i}: engine err {:.1e}, scnn err {:.1e}, macs {}, accounting {}, ordering {} → {}",
            r.engine_max_err,
            r.scnn_max_err,
            r.mac_counts_agree,
            r.accounting_holds,
            r.ordering_holds,
            if pass { "PASS" } else { "FAIL" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_energy(flags: &HashMap<String, String>) -> ExitCode {
    let Some(net) = flags.get("network").and_then(|n| network_by_name(n)) else {
        eprintln!("energy requires --network alexnet|googlenet|vggnet");
        return ExitCode::FAILURE;
    };
    let config = flags
        .get("config")
        .and_then(|n| config_by_name(n))
        .unwrap_or_else(|| {
            if net.name == "GoogLeNet" {
                SimConfig::small()
            } else {
                SimConfig::large()
            }
        });
    let model = EnergyModel::nm45();
    let mut rows = Vec::new();
    for spec in &net.layers {
        for scheme in [Scheme::Dense, Scheme::OneSided, Scheme::SpartenGbH] {
            let r = simulate_spec(spec, &config, scheme, 2019);
            let buffer = if scheme == Scheme::Dense { 8 } else { 992 };
            let e = model.layer_energy(&r, buffer);
            rows.push(vec![
                spec.name.to_string(),
                r.scheme.to_string(),
                format!("{:.2}", e.compute_pj() / 1e6),
                format!("{:.2}", e.memory_pj() / 1e6),
                format!("{:.2}", e.total_pj() / 1e6),
            ]);
        }
    }
    print_table(
        &["Layer", "Scheme", "compute uJ", "memory uJ", "total uJ"],
        &rows,
    );
    ExitCode::SUCCESS
}
