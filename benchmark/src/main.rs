//! End-to-end and per-layer benchmark of the SparTen reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload figures-cold|dse-sweep|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics untraced (`--trace 0`) or the per-layer metrics
//! traced (`--trace 1`). See `benchmark/README.md` for the workloads, the
//! metric map and how to open the traced run.

mod cold;
mod dse;
mod figures;
mod host;
mod memfs;
mod probe;
mod serve;
mod stats;
mod trace;
mod window;

use sparten_bench::json::Json;
use sparten_harness::executor::JobReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use window::{PassStats, SetupClock};

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("goodput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("nn.workload_s", "s"),
    ("sim.maskmodel_s", "s"),
    ("sim.total_macs_s", "s"),
    ("sim.dense_s", "s"),
    ("sim.onesided_s", "s"),
    ("sim.sparten_nogb_s", "s"),
    ("sim.sparten_gbs_s", "s"),
    ("sim.sparten_gbh_s", "s"),
    ("sim.scnn_s", "s"),
    ("sim.scnn_onesided_s", "s"),
    ("sim.scnn_dense_s", "s"),
    ("sim.ns_per_mac", "ns"),
    ("model.err_max_pct", "%"),
    ("harness.point_s", "s"),
    ("harness.point_max_s", "s"),
    ("harness.worker_busy_ratio", "ratio"),
    ("harness.render_s", "s"),
    ("model.batch_s", "s"),
    ("model.ns_per_config", "ns"),
    ("harness.point_overhead_us", "us"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("vfs.writes", "count"),
    ("vfs.write_bytes", "bytes"),
    ("vfs.syncs", "count"),
    ("vfs.renames", "count"),
    ("vfs.reads", "count"),
    ("vfs.read_bytes", "bytes"),
    ("serve.backend.cached_us_p50", "us"),
    ("serve.backend.cached_calls", "count"),
    ("serve.backend.execute_ms_p50", "ms"),
    ("serve.backend.execute_calls", "count"),
    ("serve.outside_backend_us_p50", "us"),
    ("serve.backend_share", "ratio"),
    ("loadgen.connect_us_p50", "us"),
    ("loadgen.p99_ms", "ms"),
    ("serve.coalesced", "count"),
    ("serve.exec_runs", "count"),
    ("serve.rejected", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("loadgen.requests", "count"),
    ("loadgen.failed", "count"),
    ("trace.unattributed_s", "s"),
    ("host.calib_ms", "ms"),
    ("host.steal_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.nonvoluntary_switches", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// How one invocation runs.
pub struct Ctx {
    /// The checkout root (absolute): golden files live under `results/`.
    pub root: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Executor workers and load-generator connections: the host's cores.
    pub workers: usize,
    /// Where the traced run writes its Chrome trace.
    pub trace_path: PathBuf,
}

impl Ctx {
    /// Writes the traced run's spans as one Chrome trace.
    pub fn write_trace(&self, spans: &[trace::Span]) -> Result<(), String> {
        let path = &self.trace_path;
        let dir = path.parent().ok_or("trace path has no directory")?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(path, trace::chrome_trace(spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {} spans in {}", spans.len(), path.display());
        Ok(())
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations timed.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets the end-to-end metrics: `setup_s`, the median set-up, and the
    /// median over `passes` of each pass's wall time, goodput and
    /// latencies. The p99 goes to standard error only: it follows the
    /// hypervisor's steal time too closely to gate on (see the README).
    pub fn set_end_to_end(&mut self, setups: &SetupClock, passes: &[PassStats]) {
        self.set("setup_s", setups.median());
        self.set("wall_s", PassStats::median(passes, |p| p.wall));
        self.set("goodput_rps", PassStats::median(passes, |p| p.goodput));
        self.set("p50_ms", PassStats::median(passes, |p| p.p50_ms));
        self.set("p90_ms", PassStats::median(passes, |p| p.p90_ms));
        eprintln!(
            "{} set-ups: median {:.6} s; {} passes: wall {:.4} s (spread {}), goodput {:.2}/s, \
             p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            setups.len(),
            self.metrics["setup_s"],
            passes.len(),
            self.metrics["wall_s"],
            stats::spread_label(&passes.iter().map(|p| p.wall).collect::<Vec<_>>()),
            self.metrics["goodput_rps"],
            self.metrics["p50_ms"],
            self.metrics["p90_ms"],
            PassStats::median(passes, |p| p.p99_ms),
        );
    }
}

/// The golden files a workload's outputs are compared against: each job's
/// text (`results/<job>.txt`) and the artifacts it must write, by path
/// relative to the checkout.
pub struct Golden {
    text: BTreeMap<String, String>,
    artifacts: BTreeMap<String, BTreeMap<String, String>>,
}

impl Golden {
    /// Reads `results/<job>.txt` for each job, and `results/<job>.json`
    /// for each of `with_json`, the jobs that write that artifact. Every
    /// file must exist and a JSON file must parse.
    pub fn load(root: &Path, jobs: &[&str], with_json: &[&str]) -> Result<Golden, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("golden file {rel}: {e}"))
        };
        let mut golden = Golden {
            text: BTreeMap::new(),
            artifacts: BTreeMap::new(),
        };
        for job in jobs {
            golden
                .text
                .insert(job.to_string(), read(&format!("results/{job}.txt"))?);
            let mut artifacts = BTreeMap::new();
            if with_json.contains(job) {
                let rel = format!("results/{job}.json");
                let json = read(&rel)?;
                Json::parse(&json).map_err(|e| format!("golden file {rel}: {e}"))?;
                artifacts.insert(rel, json);
            }
            golden.artifacts.insert(job.to_string(), artifacts);
        }
        Ok(golden)
    }

    /// Golden text for each `(job, text)`, with no artifacts.
    #[cfg(test)]
    pub fn for_test(texts: &[(&str, &str)]) -> Golden {
        let owned = |(job, text): &(&str, &str)| (job.to_string(), text.to_string());
        Golden {
            text: texts.iter().map(owned).collect(),
            artifacts: texts
                .iter()
                .map(|(job, _)| (job.to_string(), BTreeMap::new()))
                .collect(),
        }
    }

    /// The golden text output of `job`.
    pub fn text(&self, job: &str) -> Option<&str> {
        self.text.get(job).map(String::as_str)
    }

    /// Checks one executor job report byte for byte: its text against
    /// `results/<job>.txt`, and its artifacts against the golden files it
    /// must write, none missing and none extra.
    pub fn check_job(&self, job: &JobReport) -> Result<(), String> {
        if let Some(e) = &job.error {
            return Err(format!("{} failed: {e}", job.name));
        }
        if self.text(job.name) != Some(job.output.as_str()) {
            return Err(format!(
                "{}: output differs from results/{}.txt",
                job.name, job.name
            ));
        }
        let want = self
            .artifacts
            .get(job.name)
            .ok_or("job has no golden files")?;
        let wrote: BTreeMap<&str, &str> = job
            .artifacts
            .iter()
            .map(|(path, contents)| (path.as_str(), contents.as_str()))
            .collect();
        for (path, contents) in want {
            match wrote.get(path.as_str()) {
                None => return Err(format!("{}: artifact {path} is missing", job.name)),
                Some(c) if c != contents => {
                    return Err(format!(
                        "{}: artifact {path} differs from the golden file",
                        job.name
                    ))
                }
                Some(_) => {}
            }
        }
        match wrote.keys().find(|path| !want.contains_key(**path)) {
            Some(extra) => Err(format!("{}: unexpected artifact {extra}", job.name)),
            None => Ok(()),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A JSON number for `v`; a failed op's infinite latency prints as the
/// largest finite double so the line stays valid JSON.
fn number(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { f64::MAX })
}

fn run(args: &Args) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        root: root.clone(),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.trace,
        workers,
        trace_path: root
            .join(".bench_traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed)),
    };
    let workload: fn(&Ctx) -> Result<Report, String> = match args.workload.as_str() {
        "figures-cold" => figures::run,
        "dse-sweep" => dse::run,
        "serve-mixed" => serve::run,
        other => return Err(format!("unknown workload {other}")),
    };

    // Durable state (cache, journal, events log, artifacts) lives in a
    // per-process directory of the checkout, removed on the way out.
    let state = root
        .join(".bench_state")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    std::env::set_current_dir(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    let calib = host::calib_ms();
    let steal = host::steal_s();
    let events = sparten_harness::events::init_run(Path::new("events"), "bench")
        .map_err(|e| format!("events log: {e}"));
    let result = events.and_then(|_| workload(&ctx));
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(root.join(".bench_state"));
    let mut report = result?;

    let steal = host::steal_s() - steal;
    eprintln!("host: {workers} cores, calibration loop {calib:.2} ms, {steal:.2} s stolen");
    if ctx.traced {
        report.set("host.steal_s", steal);
        let (cpu, switches) = host::usage();
        report.set("host.calib_ms", calib);
        report.set("proc.cpu_s", cpu);
        report.set("proc.nonvoluntary_switches", switches as f64);
    } else {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }
    Ok(report)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied();
            assert!(
                value.is_some() || args.trace,
                "end-to-end metric {name} was not measured"
            );
            let entry = Json::obj([
                ("value", number(value.unwrap_or(0.0))),
                ("unit", Json::str(unit)),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Json::obj([
        (
            "correct",
            Json::Bool(report.failed == 0 && report.attempted > 0),
        ),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload dse-sweep --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dse-sweep", 3, 10, true)
        );
        assert!(args("--workload dse-sweep --seconds 10").is_err());
        assert!(args("--workload x --seed 1 --seconds ten").is_err());
        assert!(args("--bogus 1").is_err());
    }

    fn job(output: &str, artifacts: &[(&str, &str)]) -> JobReport {
        JobReport {
            name: "fig7_alexnet_speedup",
            kind: sparten_bench::ExperimentKind::Figure,
            points: 5,
            cache_hits: 0,
            wall: Duration::ZERO,
            output: output.to_string(),
            artifacts: artifacts
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
            error: None,
            telemetry: None,
        }
    }

    #[test]
    fn a_corrupted_payload_fails_the_check() {
        let art = "results/fig7_alexnet_speedup.json";
        let golden = Golden {
            text: BTreeMap::from([("fig7_alexnet_speedup".to_string(), "speedups\n".to_string())]),
            artifacts: BTreeMap::from([(
                "fig7_alexnet_speedup".to_string(),
                BTreeMap::from([(art.to_string(), "[1]\n".to_string())]),
            )]),
        };
        let check = |output, artifacts: &[(&str, &str)]| golden.check_job(&job(output, artifacts));
        assert!(check("speedups\n", &[(art, "[1]\n")]).is_ok());
        assert!(check("speedupz\n", &[(art, "[1]\n")]).is_err());
        assert!(check("speedups\n", &[(art, "[2]\n")]).is_err());
        // A missing artifact, a misplaced one and an extra one all fail.
        assert!(check("speedups\n", &[]).is_err());
        assert!(check("speedups\n", &[("results/other.json", "[1]\n")]).is_err());
        assert!(check("speedups\n", &[(art, "[1]\n"), ("results/other.json", "")]).is_err());
        let mut failed = job("speedups\n", &[(art, "[1]\n")]);
        failed.error = Some("quarantined".into());
        assert!(golden.check_job(&failed).is_err());
    }

    #[test]
    fn golden_files_load_from_the_checkout() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let golden = Golden::load(
            &root,
            &["fig7_alexnet_speedup", "table4_asic"],
            &["fig7_alexnet_speedup"],
        )
        .expect("golden files");
        assert_eq!(golden.artifacts["fig7_alexnet_speedup"].len(), 1);
        assert!(golden.artifacts["table4_asic"].is_empty());
        assert!(Golden::load(&root, &["table4_asic"], &["table4_asic"]).is_err());
    }
}
