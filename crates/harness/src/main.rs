//! The `sparten-harness` CLI: one entry point for the whole evaluation.
//!
//! ```text
//! cargo run --release -p sparten-harness -- run --filter fig7 --jobs 8
//! cargo run --release -p sparten-harness -- run --resume
//! cargo run --release -p sparten-harness -- fsck --repair
//! cargo run --release -p sparten-harness -- list
//! cargo run --release -p sparten-harness -- clean
//! ```

use sparten::faults::Campaign;
use sparten_bench::json::Json;
use sparten_harness::cache::Cache;
use sparten_harness::chaos::Chaos;
use sparten_harness::diskchaos::DiskChaos;
use sparten_harness::executor::{self, RunOptions};
use sparten_harness::faults::Faults;
use sparten_harness::{events, fsck, journal, registry, signal};
use sparten_telemetry::TraceContext;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// One subcommand's synopsis: the single source for the top-level usage,
/// the usage printed on an unknown option, and the options the command
/// accepts (every `--flag` its synopsis names).
struct CommandSpec {
    name: &'static str,
    /// Option groups, one synopsis line each.
    synopsis: &'static [&'static str],
}

/// Every subcommand, in help order.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "run",
        synopsis: &[
            "[--filter SUBSTR] [--jobs N] [--force] [--strict]",
            "[--retries N] [--point-timeout SECS]",
            "[--cache-dir PATH] [--no-artifacts]",
            "[--telemetry] [--telemetry-dir PATH]",
            "[--resume [RUN_ID]] [--journal-dir PATH]",
            "[--drain-timeout SECS] [--abort-after N]",
            "[--events-dir PATH]",
        ],
    },
    CommandSpec {
        name: "dse",
        synopsis: &[
            "[--quick] [--jobs N] [--force] [--strict]",
            "[--retries N] [--point-timeout SECS]",
            "[--cache-dir PATH] [--no-artifacts]",
            "[--resume [RUN_ID]] [--journal-dir PATH]",
            "[--drain-timeout SECS] [--abort-after N]",
            "[--events-dir PATH]",
        ],
    },
    CommandSpec {
        name: "bench",
        synopsis: &[
            "[--quick] [--filter SUBSTR] [--threshold X]",
            "[--out PATH] [--check-schema] [--enforce]",
            "[--deadline-ms N] [--retries N]",
        ],
    },
    CommandSpec {
        name: "faults",
        synopsis: &["[--seed N] [--trials N] [--quick]"],
    },
    CommandSpec {
        name: "chaos",
        synopsis: &["[--seed N] [--trials N] [--quick]"],
    },
    CommandSpec {
        name: "diskchaos",
        synopsis: &["[--seed N] [--trials N] [--quick]"],
    },
    CommandSpec {
        name: "fsck",
        synopsis: &["[--repair] [--results-dir PATH]"],
    },
    CommandSpec {
        name: "list",
        synopsis: &["[--filter SUBSTR]"],
    },
    CommandSpec {
        name: "report",
        synopsis: &["[--filter SUBSTR] [--telemetry-dir PATH] [--json]"],
    },
    CommandSpec {
        name: "events",
        synopsis: &[
            "[--events-dir PATH] [--run RUN_ID] [--level L]",
            "[--trace HEX] [--follow]",
        ],
    },
    CommandSpec {
        name: "promlint",
        synopsis: &["[--file PATH]"],
    },
    CommandSpec {
        name: "serve",
        synopsis: &[
            "[--addr HOST:PORT] [--port-file PATH] [--jobs N]",
            "[--max-active N] [--max-queue N] [--cache-dir PATH]",
            "[--journal-dir PATH] [--no-artifacts]",
            "[--drain-timeout SECS] [--deadline-ms N]",
            "[--events-dir PATH]",
        ],
    },
    CommandSpec {
        name: "clean",
        synopsis: &[
            "[--results-dir PATH] [--cache-dir PATH]",
            "[--journal-dir PATH]",
        ],
    },
];

impl CommandSpec {
    /// `sparten-harness NAME ...`, for printing after a 4-space indent:
    /// continuation lines align under the first option group.
    fn synopsis(&self) -> String {
        let head = format!("sparten-harness {} ", self.name);
        let indent = format!("\n{}", " ".repeat(4 + head.len()));
        head + &self.synopsis.join(&indent)
    }

    /// The options this command accepts.
    fn flags(&self) -> impl Iterator<Item = &'static str> {
        self.synopsis
            .iter()
            .flat_map(|line| line.split([' ', '[', ']']))
            .filter(|token| token.starts_with("--"))
    }
}

/// The top-level help: every synopsis, then the commands and options.
fn usage() -> String {
    let mut text = String::from(
        "sparten-harness — parallel experiment orchestration with result caching\n\nUSAGE:\n",
    );
    for spec in COMMANDS {
        text += &format!("    {}\n", spec.synopsis());
    }
    text + HELP
}

const HELP: &str = "
COMMANDS:
    run      Run experiments (all, or those whose name contains --filter),
             skipping points already in the cache, then print a per-job
             wall-time/cache-hit summary. Failed points are retried, then
             quarantined: the run completes with partial results and the
             quarantine is written to results/failures.json. Every run
             keeps a write-ahead journal under results/journal/, so an
             interrupted run (crash, SIGINT, SIGTERM) resumes with
             `run --resume`. On SIGINT/SIGTERM the run drains: in-flight
             points finish, the journal records a clean shutdown, and the
             exit code is 75 (resumable). A second signal aborts at once.
    dse      Sweep the analytical model (crates/model) over a grid of
             architectures: chunk size × compute units × clusters × buffer
             capacity × scheme × layer shape × density grid — 1 080 000
             configurations, or 16 200 with --quick. Batches of 512
             configurations run through the same parallel executor,
             content-addressed cache, and write-ahead journal as `run`
             (so an interrupted sweep resumes with `dse --resume` and
             re-runs are incremental), then the merged results are reduced
             to a throughput/energy Pareto frontier printed as a table and
             written to results/dse/. Deterministic: the same grid yields
             byte-identical output and artifacts on every run.
    bench    Run the deterministic micro+macro benchmark registry: each
             word-parallel fast-path kernel against its structural-circuit
             oracle, one cycle-simulated layer per architecture, the
             functional engine, and the harness cache hit path. Prints the
             speedup table, writes BENCH_sim.json (atomic), and compares
             against the previous BENCH_sim.json if one exists, reporting
             any benchmark slower than --threshold times its baseline
             (a warning by default; an error with --enforce).
    faults   Run the seeded fault-injection campaign: inject every fault
             class, classify each trial (detected / masked / silently-wrong
             / crashed), and print the coverage table. Exits non-zero if
             any trial was silently wrong or crashed.
    chaos    Run the seeded chaos campaign against a live serve daemon:
             boot a private server per trial and attack it over real
             sockets (torn request bodies, slow-loris byte drips,
             mid-stream disconnects, deadline storms, queue floods), then
             verify the resilience invariants — no leaked run permits, no
             stuck sessions, every journal sealed, cache uncorrupted, no
             hung threads. Exits non-zero on any violation or crash.
    diskchaos
             Run the seeded disk-fault campaign: execute a deterministic
             workload on a fault-injecting filesystem (ENOSPC, short
             writes, fsync failures, rename failures, read-side bit rot),
             simulate a power cut at an arbitrary op-log prefix, recover
             with `run --resume` + `fsck --repair`, and verify the
             recovered tree is byte-identical to a clean run. Exits
             non-zero on any recovery violation or crash.
    fsck     Audit the results tree: artifacts that no experiment produces
             or that no longer parse, cache entries failing their checksum,
             journals that are malformed / resumable / stale, and leftover
             *.tmp files. Exits non-zero when defects are found; with
             --repair, quarantines damage into results/quarantine/ (temp
             droppings are deleted) and exits zero on success.
    list     List registered experiments with kind, points, and deps.
    report   Summarize telemetry written by a previous `run --telemetry`:
             per-scope work/stall cycle totals and the dominant stall cause.
             With --json, emit the same data (plus p50/p95/p99 latency
             estimates per histogram) as a JSON array on stdout.
    events   Read a structured event log written by `run` or `serve`
             (results/events/<run-id>.jsonl by default, latest run unless
             --run names one), printing each JSONL event; filter by
             severity (--level debug|info|warn|error) or by trace id
             (--trace HEX, as printed in /run responses and event records),
             and tail live logs with --follow. Exits non-zero on a
             malformed event line.
    promlint Validate Prometheus text exposition read from stdin (or
             --file PATH): TYPE declarations, sample syntax, histogram
             bucket monotonicity. The CI smoke pipes `GET /metrics`
             (with `Accept: text/plain; version=0.0.4`) through this.
    serve    Run the multi-tenant simulation daemon: accepts job requests
             over HTTP, coalesces concurrent duplicates onto one shared
             execution (keyed by the content-addressed cache key), serves
             fully cached jobs at memory speed without touching the
             executor, streams per-point progress as chunked NDJSON, and
             sheds load with 429 + Retry-After once the admission budget
             (--max-active + --max-queue runs) is spent. Endpoints:
             GET /healthz, GET /metrics (text report by default;
             Prometheus exposition under `Accept: text/plain;
             version=0.0.4` or ?format=prometheus), GET /trace (Chrome
             trace JSON of every request's causal chain, loadable at
             ui.perfetto.dev), GET /jobs, GET /result?job=NAME
             (cache-only, raw output), POST /run?job=NAME (or JSON body
             {\"job\": \"NAME\"}).
             On SIGINT/SIGTERM the daemon drains: stops accepting,
             finishes every accepted request, journals the shutdown, and
             exits 75. A second signal aborts at once.
    clean    Delete every cache entry, stale journals, quarantined files
             left by `fsck --repair`, and orphaned *.tmp files, printing
             per-category counts.

OPTIONS:
    --filter SUBSTR       Only experiments whose name contains SUBSTR.
    --jobs N, -j N        Worker threads (default: available parallelism).
    --force               Recompute every point, overwriting cache entries.
    --strict              Exit non-zero when any point was quarantined
                          (default: a degraded run still exits zero so one
                          bad point cannot fail a whole sweep).
    --retries N           Attempts per point before quarantine (default 2);
                          bench: attempts per serve round trip (default 1).
    --point-timeout SECS  Watchdog deadline per point; a point exceeding it
                          counts as a failed attempt and its worker is
                          replaced (default: no deadline).
    --cache-dir PATH      Cache location (default: results/cache).
    --no-artifacts        Do not write results/*.json artifacts to disk.
    --telemetry           Collect cycle-level counters and timeline spans;
                          write one Chrome trace (<job>.json, loadable at
                          ui.perfetto.dev) and one text report (<job>.txt)
                          per job. Implies recomputing every point so the
                          counters cover the whole run.
    --telemetry-dir PATH  Telemetry location (default: results/telemetry).
    --resume [RUN_ID]     Resume an interrupted run from its journal
                          (default: the most recent journal). The journaled
                          options and experiment registry must match this
                          invocation; completed points are replayed, not
                          recomputed, and the final artifacts are identical
                          to an uninterrupted run's.
    --journal-dir PATH    Journal location (default: results/journal).
    --drain-timeout SECS  How long a signal-initiated drain waits for
                          in-flight points before abandoning them
                          (default 30).
    --deadline-ms N       serve: default per-request budget; a request may
                          send its own Deadline-Ms, clamped to the server
                          max (default 120000). bench: deadline of each
                          serve round trip (default: none).
    --abort-after N       Crash-test hook: die (journal left dangling, like
                          kill -9) after N points have been computed and
                          journaled. Used by the interrupted-run CI smoke.
    --repair              fsck: quarantine damaged files instead of only
                          reporting them.
    --results-dir PATH    Results tree root (default: results).
    --seed N              Campaign seed (default 1): same seed, same plan,
                          byte-identical report.
    --trials N            Trials per class (default: faults 6, chaos and
                          diskchaos 3).
    --quick               dse: the 16 200-configuration grid; faults: 3
                          trials per class, chaos and diskchaos: 1 (the CI
                          smokes); bench: ~5 ms measurement budget per
                          benchmark.
    --threshold X         bench: regression threshold as a new/old time
                          ratio (default 1.5).
    --out PATH            bench: artifact path (default BENCH_sim.json).
    --check-schema        bench: after writing, parse the artifact back and
                          validate it against the pinned schema; exit
                          non-zero if malformed.
    --enforce             bench: exit non-zero when any benchmark regressed
                          past the threshold (default: warn only, since
                          shared CI runners time noisily).
    --addr HOST:PORT      serve: bind address (default 127.0.0.1:7070;
                          port 0 picks an ephemeral port).
    --port-file PATH      serve: write the bound HOST:PORT to PATH once
                          listening (how scripts find an ephemeral port).
    --max-active N        serve: concurrent executor runs (default 2).
    --max-queue N         serve: admitted runs allowed to wait for a slot
                          beyond --max-active; a new job arriving past that
                          budget is answered 429 (default 8).
    --events-dir PATH     Structured event log location (default:
                          results/events). `run` writes through per event;
                          `serve` buffers in memory and flushes on drain
                          (and on panic).
    --run RUN_ID          events: read RUN_ID's log instead of the latest.
    --level L             events: minimum severity to print
                          (debug|info|warn|error; default debug = all).
    --trace HEX           events: only events carrying this 16-hex-digit
                          trace id.
    --follow              events: keep the log open and print new events
                          as they are appended (poll ~5x/second).
    --json                report: emit machine-readable JSON instead of
                          the text tables.
    --file PATH           promlint: read the exposition from PATH instead
                          of stdin.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == command) else {
        events::error(
            "cli.unknown_command",
            format!("unknown command `{command}`"),
        );
        events::raw_stderr("\n");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(spec, &args[1..]) {
        Ok(flags) => flags,
        Err(FlagsError::Unknown(flag)) => {
            events::error(
                "cli.unknown_option",
                format!("unknown option `{flag}` for `sparten-harness {command}`"),
            );
            events::raw_stderr(&format!("\nUSAGE:\n    {}\n", spec.synopsis()));
            return ExitCode::from(2);
        }
        Err(FlagsError::Invalid(message)) => {
            events::error("cli.invalid_flag", message);
            return ExitCode::FAILURE;
        }
    };
    match spec.name {
        "run" => drive_executor(&registry(), flags),
        "dse" => cmd_dse(flags),
        "bench" => cmd_bench(flags),
        "faults" => cmd_campaign(&Faults, flags),
        "chaos" => cmd_campaign(&Chaos, flags),
        "diskchaos" => cmd_campaign(&DiskChaos::default(), flags),
        "fsck" => cmd_fsck(flags),
        "list" => cmd_list(flags),
        "report" => cmd_report(flags),
        "events" => cmd_events(flags),
        "promlint" => cmd_promlint(flags),
        "serve" => cmd_serve(flags),
        "clean" => cmd_clean(flags),
        other => unreachable!("command `{other}` has a spec but no handler"),
    }
}

/// How flag parsing failed.
enum FlagsError {
    /// A flag this subcommand does not accept (or not a flag at all):
    /// name it, show the subcommand's usage, exit 2.
    Unknown(String),
    /// A recognized flag with a missing or unparseable value: exit 1.
    Invalid(String),
}

impl From<String> for FlagsError {
    fn from(message: String) -> Self {
        FlagsError::Invalid(message)
    }
}

impl From<&'static str> for FlagsError {
    fn from(message: &'static str) -> Self {
        FlagsError::Invalid(message.to_string())
    }
}

/// Parses `--flag value` / bare-flag options shared by the subcommands.
#[derive(Default)]
struct Flags {
    filter: Option<String>,
    jobs: Option<usize>,
    force: bool,
    strict: bool,
    retries: Option<usize>,
    point_timeout: Option<Duration>,
    cache_dir: Option<String>,
    no_artifacts: bool,
    telemetry: bool,
    telemetry_dir: Option<String>,
    seed: Option<u64>,
    trials: Option<u32>,
    quick: bool,
    /// `Some(None)` = `--resume` (latest journal); `Some(Some(id))` =
    /// `--resume RUN_ID`.
    resume: Option<Option<String>>,
    journal_dir: Option<String>,
    drain_timeout: Option<Duration>,
    abort_after: Option<usize>,
    repair: bool,
    results_dir: Option<String>,
    threshold: Option<f64>,
    out_path: Option<String>,
    check_schema: bool,
    enforce: bool,
    addr: Option<String>,
    port_file: Option<String>,
    max_active: Option<usize>,
    max_queue: Option<usize>,
    events_dir: Option<String>,
    run_id: Option<String>,
    level: Option<String>,
    trace: Option<String>,
    follow: bool,
    json: bool,
    file_path: Option<String>,
    deadline_ms: Option<u64>,
}

/// Parses `args` against the options `spec` accepts (`-j` is `--jobs`).
fn parse_flags(spec: &CommandSpec, args: &[String]) -> Result<Flags, FlagsError> {
    let mut f = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let flag = if arg == "-j" { "--jobs" } else { arg.as_str() };
        if !spec.flags().any(|accepted| accepted == flag) {
            return Err(FlagsError::Unknown(arg.clone()));
        }
        match flag {
            "--filter" => {
                f.filter = Some(it.next().ok_or("--filter needs a value")?.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                f.jobs = Some(n);
            }
            "--force" => f.force = true,
            "--strict" => f.strict = true,
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --retries value `{v}`"))?;
                if n == 0 {
                    return Err("--retries must allow at least 1 attempt".into());
                }
                f.retries = Some(n);
            }
            "--point-timeout" => {
                let v = it.next().ok_or("--point-timeout needs a value")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --point-timeout value `{v}`"))?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err("--point-timeout must be positive".into());
                }
                f.point_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                f.seed = Some(v.parse().map_err(|_| format!("bad --seed value `{v}`"))?);
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad --trials value `{v}`"))?;
                if n == 0 {
                    return Err("--trials must be at least 1".into());
                }
                f.trials = Some(n);
            }
            "--quick" => f.quick = true,
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a value")?;
                if v.is_empty() {
                    return Err("--cache-dir must not be empty".into());
                }
                f.cache_dir = Some(v.clone());
            }
            "--no-artifacts" => f.no_artifacts = true,
            "--telemetry" => f.telemetry = true,
            "--telemetry-dir" => {
                let v = it.next().ok_or("--telemetry-dir needs a value")?;
                if v.is_empty() {
                    return Err("--telemetry-dir must not be empty".into());
                }
                f.telemetry_dir = Some(v.clone());
            }
            "--resume" => {
                // The run id is optional: a following token that is not a
                // flag is the id, otherwise the latest journal is used.
                let id = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if id.is_some() {
                    it.next();
                }
                f.resume = Some(id);
            }
            "--journal-dir" => {
                let v = it.next().ok_or("--journal-dir needs a value")?;
                if v.is_empty() {
                    return Err("--journal-dir must not be empty".into());
                }
                f.journal_dir = Some(v.clone());
            }
            "--drain-timeout" => {
                let v = it.next().ok_or("--drain-timeout needs a value")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --drain-timeout value `{v}`"))?;
                if secs < 0.0 || !secs.is_finite() {
                    return Err("--drain-timeout must be non-negative".into());
                }
                f.drain_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --deadline-ms value `{v}`"))?;
                if ms == 0 {
                    return Err("--deadline-ms must be at least 1".into());
                }
                f.deadline_ms = Some(ms);
            }
            "--abort-after" => {
                let v = it.next().ok_or("--abort-after needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --abort-after value `{v}`"))?;
                if n == 0 {
                    return Err("--abort-after must be at least 1".into());
                }
                f.abort_after = Some(n);
            }
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                let t: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --threshold value `{v}`"))?;
                if !t.is_finite() || t <= 0.0 {
                    return Err("--threshold must be finite and positive".into());
                }
                f.threshold = Some(t);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                if v.is_empty() {
                    return Err("--out must not be empty".into());
                }
                f.out_path = Some(v.clone());
            }
            "--check-schema" => f.check_schema = true,
            "--enforce" => f.enforce = true,
            "--repair" => f.repair = true,
            "--results-dir" => {
                let v = it.next().ok_or("--results-dir needs a value")?;
                if v.is_empty() {
                    return Err("--results-dir must not be empty".into());
                }
                f.results_dir = Some(v.clone());
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs a value")?;
                if v.is_empty() {
                    return Err("--addr must not be empty".into());
                }
                f.addr = Some(v.clone());
            }
            "--port-file" => {
                let v = it.next().ok_or("--port-file needs a value")?;
                if v.is_empty() {
                    return Err("--port-file must not be empty".into());
                }
                f.port_file = Some(v.clone());
            }
            "--max-active" => {
                let v = it.next().ok_or("--max-active needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --max-active value `{v}`"))?;
                if n == 0 {
                    return Err("--max-active must be at least 1".into());
                }
                f.max_active = Some(n);
            }
            "--max-queue" => {
                let v = it.next().ok_or("--max-queue needs a value")?;
                f.max_queue =
                    Some(v.parse().map_err(|_| format!("bad --max-queue value `{v}`"))?);
            }
            "--events-dir" => {
                let v = it.next().ok_or("--events-dir needs a value")?;
                if v.is_empty() {
                    return Err("--events-dir must not be empty".into());
                }
                f.events_dir = Some(v.clone());
            }
            "--run" => {
                let v = it.next().ok_or("--run needs a value")?;
                if v.is_empty() {
                    return Err("--run must not be empty".into());
                }
                f.run_id = Some(v.clone());
            }
            "--level" => {
                let v = it.next().ok_or("--level needs a value")?;
                if events::Level::parse(v).is_none() {
                    return Err(format!(
                        "bad --level value `{v}` (debug|info|warn|error)"
                    )
                    .into());
                }
                f.level = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a value")?;
                if TraceContext::parse_hex(v).is_none() {
                    return Err(format!(
                        "bad --trace value `{v}` (expect 16 hex digits)"
                    )
                    .into());
                }
                f.trace = Some(v.clone());
            }
            "--follow" => f.follow = true,
            "--json" => f.json = true,
            "--file" => {
                let v = it.next().ok_or("--file needs a value")?;
                if v.is_empty() {
                    return Err("--file must not be empty".into());
                }
                f.file_path = Some(v.clone());
            }
            other => return Err(FlagsError::Unknown(other.to_string())),
        }
    }
    Ok(f)
}

/// The shared body of `run` and `dse`: build the executor options from
/// the flags, resolve `--resume`, open the event log, install cooperative
/// signal handling, run `jobs`, and print the per-job summary. `--strict`
/// gates the exit code on quarantined points.
fn drive_executor(
    jobs: &[std::sync::Arc<dyn sparten_harness::Experiment>],
    flags: Flags,
) -> ExitCode {
    let mut opts = RunOptions {
        filter: flags.filter,
        force: flags.force,
        write_artifacts: !flags.no_artifacts,
        point_timeout: flags.point_timeout,
        abort_after: flags.abort_after,
        ..RunOptions::default()
    };
    if let Some(j) = flags.jobs {
        opts.jobs = j;
    }
    if let Some(n) = flags.retries {
        opts.max_attempts = n;
    }
    if let Some(d) = flags.cache_dir {
        opts.cache_dir = d.into();
    }
    if flags.telemetry || flags.telemetry_dir.is_some() {
        opts.telemetry_dir = Some(
            flags
                .telemetry_dir
                .unwrap_or_else(|| "results/telemetry".into())
                .into(),
        );
    }
    if let Some(d) = flags.journal_dir {
        opts.journal_dir = Some(d.into());
    }
    if let Some(t) = flags.drain_timeout {
        opts.drain_timeout = t;
    }

    // Resolve `--resume [RUN_ID]` to a journal path up front so a typo'd
    // run id fails with a one-line diagnostic, not mid-run.
    if let Some(resume) = flags.resume {
        let dir = opts
            .journal_dir
            .clone()
            .expect("run always journals unless tests disable it");
        let path = match resume {
            Some(id) => {
                let p = journal::journal_path(&dir, &id);
                if !p.exists() {
                    events::error(
                        "resume.not_found",
                        format!("no journal for run id `{id}` in {}", dir.display()),
                    );
                    return ExitCode::FAILURE;
                }
                p
            }
            None => match journal::latest_journal(&dir) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    events::error(
                        "resume.nothing",
                        format!(
                            "nothing to resume — no journal in {} \
                             (interrupted runs leave one behind)",
                            dir.display()
                        ),
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    events::error(
                        "resume.scan_failed",
                        format!("cannot scan {}: {e}", dir.display()),
                    );
                    return ExitCode::FAILURE;
                }
            },
        };
        opts.resume = Some(path);
    }

    // One trace context and one structured-event log per CLI run. The run
    // id is resolved up front (a resume reuses the journal's) so the event
    // file and the journal share a name.
    let run_id = match &opts.resume {
        Some(path) => path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("run-resumed")
            .to_string(),
        None => {
            let id = journal::generate_run_id();
            opts.run_id = Some(id.clone());
            id
        }
    };
    opts.trace = Some(TraceContext::root());
    let events_dir = PathBuf::from(flags.events_dir.unwrap_or_else(|| "results/events".into()));
    if let Err(e) = events::init_run(&events_dir, &run_id) {
        // A broken event log never blocks the run itself.
        events::warn(
            "events.init_failed",
            format!("cannot open event log in {}: {e}", events_dir.display()),
        );
    }

    // Cooperative shutdown: first SIGINT/SIGTERM drains, second aborts.
    opts.shutdown = Some(signal::install());

    let report = match executor::run(jobs, &opts) {
        Ok(r) => r,
        Err(e) => {
            events::error("run.failed", &e);
            return ExitCode::FAILURE;
        }
    };
    if report.jobs.is_empty() {
        events::error("run.no_match", "no experiments match the filter");
        return ExitCode::FAILURE;
    }

    // Per-job summary: name, kind, points, cache hits, wall time.
    println!("== Run summary ==\n");
    println!(
        "{:<28} {:<10} {:>6} {:>6} {:>9}  status",
        "experiment", "kind", "points", "hits", "time"
    );
    for j in &report.jobs {
        println!(
            "{:<28} {:<10} {:>6} {:>6} {:>8.3}s  {}",
            j.name,
            j.kind.label(),
            j.points,
            j.cache_hits,
            j.wall.as_secs_f64(),
            if j.error.is_some() { "FAILED" } else { "ok" },
        );
    }
    let hits = report.total_hits();
    let points = report.total_points();
    println!(
        "\n{} jobs, {points} points, {hits} cache hits ({:.0}%), {:.3}s wall on {} workers",
        report.jobs.len(),
        if points == 0 {
            0.0
        } else {
            100.0 * hits as f64 / points as f64
        },
        report.elapsed.as_secs_f64(),
        report.workers,
    );
    let c = report.cache;
    if c.lookups() > 0 {
        println!(
            "cache lookups: {} hit, {} miss, {} malformed",
            c.hits, c.misses, c.malformed
        );
        if c.malformed > 0 {
            println!("  ({} unusable entries were recomputed and rewritten)", c.malformed);
        }
    }
    if c.swept_tmp > 0 {
        println!(
            "cache hygiene: swept {} orphaned .tmp file{} from interrupted writes",
            c.swept_tmp,
            if c.swept_tmp == 1 { "" } else { "s" }
        );
    }
    if report.replayed > 0 {
        println!(
            "resumed: {} completed point(s) replayed from the journal instead of recomputed",
            report.replayed
        );
    }
    if report.retries > 0 {
        println!("retries: {} failed attempt(s) re-dispatched", report.retries);
    }
    if !report.failures.is_empty() {
        println!(
            "quarantined: {} point(s) exhausted their retry budget (see results/failures.json)",
            report.failures.len()
        );
        for f in &report.failures {
            println!("  {} point {} ({} after {} attempts)", f.job, f.point, f.kind, f.attempts);
        }
    }
    if let Some(dir) = &opts.telemetry_dir {
        let traced = report.jobs.iter().filter(|j| j.telemetry.is_some()).count();
        println!(
            "telemetry: {traced} jobs exported to {}/ (<job>.json loads at ui.perfetto.dev; \
             summarize with `sparten-harness report`)",
            dir.display()
        );
    }
    if report.interrupted {
        let hint = report
            .run_id
            .as_deref()
            .map(|id| format!("sparten-harness run --resume {id}"))
            .unwrap_or_else(|| "sparten-harness run --resume".into());
        events::info(
            "run.interrupted",
            format!(
                "interrupted: drained after a shutdown signal; completed work is journaled.\n\
                 resume with: {hint}"
            ),
        );
        events::flush();
        return ExitCode::from(signal::DRAINED_EXIT_CODE);
    }
    // Graceful degradation: a run with quarantined points still completed
    // and wrote every healthy result, so it exits zero unless the caller
    // opted into --strict.
    if report.all_ok() || !flags.strict {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `dse`: the analytical-model design-space sweep, driven through the same
/// executor/cache/journal stack as `run` — only the job registry differs
/// (one sweep experiment instead of the paper figures).
fn cmd_dse(flags: Flags) -> ExitCode {
    let experiment: std::sync::Arc<dyn sparten_harness::Experiment> = if flags.quick {
        std::sync::Arc::new(sparten_harness::dse::DseExperiment::quick())
    } else {
        std::sync::Arc::new(sparten_harness::dse::DseExperiment::full())
    };
    drive_executor(&[experiment], flags)
}

/// Runs one seeded campaign (`faults`, `chaos`, `diskchaos`), prints its
/// report, and exits non-zero if any trial failed.
fn cmd_campaign<C: Campaign>(campaign: &C, flags: Flags) -> ExitCode {
    let taxonomy = C::TAXONOMY;
    let default_trials = if flags.quick {
        taxonomy.quick_trials
    } else {
        taxonomy.trials
    };
    let seed = flags.seed.unwrap_or(1);
    let report = sparten::faults::run(campaign, seed, flags.trials.unwrap_or(default_trials));
    print!("{}", report.render());
    if report.failures() == 0 {
        return ExitCode::SUCCESS;
    }
    events::error(
        "campaign.failed",
        format!(
            "{} (seed {seed}): {} of {} trials failed",
            taxonomy.title,
            report.failures(),
            report.trials()
        ),
    );
    ExitCode::FAILURE
}

/// One-point synthetic experiment for the serve cache-hit benchmark: its
/// single record is pre-stored in the scratch cache, so `GET /result`
/// against it exercises exactly the daemon's warm path.
struct ServeProbe;

impl sparten_harness::Experiment for ServeProbe {
    fn name(&self) -> &'static str {
        "serve-probe"
    }

    fn kind(&self) -> sparten_bench::ExperimentKind {
        sparten_bench::ExperimentKind::Study
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn num_points(&self) -> usize {
        1
    }

    fn fingerprint(&self) -> String {
        "serve-probe:v1".into()
    }

    fn compute_point(&self, _point: usize) -> sparten_harness::PointPayload {
        sparten_harness::PointPayload::Record(
            "serve-probe record: a representative experiment line\n".repeat(16),
        )
    }

    fn render(&self, points: &[sparten_harness::PointPayload]) -> sparten_bench::Capture {
        let text = points
            .iter()
            .map(|p| match p {
                sparten_harness::PointPayload::Record(blob) => blob.as_str(),
                sparten_harness::PointPayload::Capture(c) => c.text.as_str(),
            })
            .collect::<String>();
        sparten_bench::Capture {
            text,
            artifacts: Vec::new(),
        }
    }
}

/// Runs the deterministic benchmark registry and the perf-regression check.
///
/// The kernel and layer benchmarks live in `sparten_bench::perf`; the one
/// benchmark that cannot (the cache hit path — `sparten-bench` must not
/// depend back on this crate) is injected here as an [`ExtraBench`]: a
/// throwaway cache directory is seeded with one stored point, and the
/// benchmark times the hit path (`lookup` + `load`) against it.
fn cmd_bench(flags: Flags) -> ExitCode {
    let opts = sparten_bench::BenchOptions {
        quick: flags.quick,
        filter: flags.filter.clone(),
        threshold: flags.threshold.unwrap_or(sparten_bench::DEFAULT_THRESHOLD),
    };
    let out_path = flags
        .out_path
        .clone()
        .unwrap_or_else(|| sparten_bench::DEFAULT_OUT_PATH.to_string());

    // Seed a scratch cache with one point so the extra bench times a hit.
    let cache_dir = std::env::temp_dir().join(format!(
        "sparten-harness-bench-cache-{}",
        std::process::id()
    ));
    let cache = Cache::new(&cache_dir);
    let key = Cache::key("bench-probe", "bench-fingerprint", sparten_bench::SEED, 0);
    let payload = sparten_harness::PointPayload::Record(
        "harness/cache-hit probe record: a representative experiment line\n".repeat(16),
    );
    if let Err(e) = cache.store("bench-probe", 0, key, &payload) {
        events::error(
            "bench.cache_seed_failed",
            format!("cannot seed bench cache in {}: {e}", cache_dir.display()),
        );
        return ExitCode::FAILURE;
    }
    let mut extras = vec![sparten_bench::ExtraBench {
        name: "harness/cache-hit".to_string(),
        run: Box::new(|| {
            let hit = cache.load("bench-probe", 0, key);
            assert!(hit.is_some(), "seeded cache point must hit");
        }),
    }];

    // The serve hot path: one full HTTP round trip for a fully-cached job
    // against an in-process daemon on an ephemeral port. The scratch cache
    // is warmed with the probe experiment's single point, so every
    // iteration measures connect + parse + lookup + render + response —
    // the latency a duplicate tenant sees when the answer is already warm.
    let probe: std::sync::Arc<dyn sparten_harness::Experiment> = std::sync::Arc::new(ServeProbe);
    let probe_key = Cache::key(
        probe.name(),
        &probe.fingerprint(),
        sparten_harness::SEED,
        0,
    );
    if let Err(e) = cache.store(probe.name(), 0, probe_key, &probe.compute_point(0)) {
        events::error(
            "bench.cache_warm_failed",
            format!("cannot warm serve bench cache: {e}"),
        );
        return ExitCode::FAILURE;
    }
    let serve_shutdown = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let backend = std::sync::Arc::new(sparten_harness::serve::HarnessBackend::new(
        vec![probe],
        &cache_dir,
        None,
        false,
        1,
    ));
    let serve_opts = sparten_serve::ServeOptions {
        addr: "127.0.0.1:0".into(),
        max_active: 1,
        max_queued: 4,
        read_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_secs(5),
        default_deadline: Duration::from_secs(120),
        max_deadline: Duration::from_secs(600),
        shutdown: std::sync::Arc::clone(&serve_shutdown),
        build: Default::default(),
    };
    let telemetry = std::sync::Arc::new(sparten_telemetry::Telemetry::new());
    let (serve_addr, serve_thread) =
        match sparten_serve::Server::bind(backend, telemetry, serve_opts) {
            Ok(server) => match server.local_addr() {
                Ok(a) => {
                    let addr = a.to_string();
                    (addr, std::thread::spawn(move || server.serve()))
                }
                Err(e) => {
                    events::error(
                        "bench.serve_addr_failed",
                        format!("cannot resolve serve bench address: {e}"),
                    );
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                events::error(
                    "bench.serve_bind_failed",
                    format!("cannot bind serve bench daemon: {e}"),
                );
                return ExitCode::FAILURE;
            }
        };
    let bench_addr = serve_addr.clone();
    // `--deadline-ms` / `--retries` flow into the bench client so the
    // measured path exercises the same resilience options real clients
    // use (defaults: no deadline, no retries — identical wire bytes).
    let client_opts = sparten_serve::client::RequestOptions {
        deadline: flags.deadline_ms.map(Duration::from_millis),
        retries: flags.retries.map(|n| n.saturating_sub(1) as u32).unwrap_or(0),
        ..Default::default()
    };
    extras.push(sparten_bench::ExtraBench {
        name: "serve/cache-hit-latency".to_string(),
        run: Box::new(move || {
            let response = sparten_serve::client::request_with(
                &bench_addr,
                "GET",
                "/result?job=serve-probe",
                None,
                &client_opts,
            )
            .expect("serve bench round trip");
            assert_eq!(response.status, 200, "warmed probe must be a cache hit");
        }),
    });

    let report = sparten_bench::run_benchmarks(&opts, extras);
    serve_shutdown.store(1, std::sync::atomic::Ordering::SeqCst);
    if serve_thread.join().is_err() {
        events::warn("bench.serve_panicked", "serve bench daemon panicked during drain");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    print!("{}", report.render_table());

    // Compare against the previous artifact before overwriting it.
    let mut regressed = false;
    if let Ok(prev) = std::fs::read_to_string(&out_path) {
        match sparten_bench::json::Json::parse(&prev) {
            Ok(baseline) => {
                let regressions = report.compare_with_baseline(&baseline);
                for r in &regressions {
                    events::warn(
                        "bench.regression",
                        format!(
                            "regression: {} went {:.0} -> {:.0} ns/iter ({:.2}x, threshold {:.2}x)",
                            r.name, r.old_ns, r.new_ns, r.ratio, opts.threshold
                        ),
                    );
                }
                if regressions.is_empty() {
                    println!(
                        "no regressions past {:.2}x against baseline {out_path}",
                        opts.threshold
                    );
                } else {
                    regressed = true;
                }
            }
            Err(e) => events::warn(
                "bench.baseline_unparseable",
                format!("ignoring unparseable baseline {out_path}: {e}"),
            ),
        }
    }

    let mut body = report.to_json().pretty();
    body.push('\n');
    if let Err(e) = sparten_bench::atomic_write(&out_path, &body) {
        events::error("bench.write_failed", format!("cannot write {out_path}: {e}"));
        return ExitCode::FAILURE;
    }
    println!("benchmark report written to {out_path}");

    if flags.check_schema {
        let written = match std::fs::read_to_string(&out_path) {
            Ok(s) => s,
            Err(e) => {
                events::error(
                    "bench.readback_failed",
                    format!("cannot read back {out_path}: {e}"),
                );
                return ExitCode::FAILURE;
            }
        };
        let parsed = match sparten_bench::json::Json::parse(&written) {
            Ok(j) => j,
            Err(e) => {
                events::error(
                    "bench.artifact_invalid",
                    format!("{out_path} is not valid JSON: {e}"),
                );
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = sparten_bench::check_schema(&parsed) {
            events::error(
                "bench.schema_failed",
                format!("{out_path} fails schema check: {e}"),
            );
            return ExitCode::FAILURE;
        }
        println!("schema check passed ({})", sparten_bench::BENCH_SCHEMA);
    }

    if regressed && flags.enforce {
        events::error(
            "bench.regression_enforced",
            "perf regressions past the threshold (--enforce)",
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Audits (and with `--repair`, quarantines damage in) the results tree.
fn cmd_fsck(flags: Flags) -> ExitCode {
    let root = PathBuf::from(flags.results_dir.unwrap_or_else(|| "results".into()));
    let jobs = registry();
    let names: Vec<&str> = jobs.iter().map(|j| j.name()).collect();
    let report = match fsck::fsck(&root, &names, flags.repair) {
        Ok(r) => r,
        Err(e) => {
            events::error(
                "fsck.audit_failed",
                format!("cannot audit {}: {e}", root.display()),
            );
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if report.clean() {
        return ExitCode::SUCCESS;
    }
    if !flags.repair {
        if report.has_resumable() {
            events::info(
                "fsck.resumable",
                "note: a dangling journal is a resumable run — prefer \
                 `sparten-harness run --resume` over --repair",
            );
        }
        return ExitCode::FAILURE;
    }
    // Repaired: success unless some repair itself failed.
    let failed = report
        .findings
        .iter()
        .any(|f| matches!(f.action, fsck::Action::Failed(_)));
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Summarizes the `.txt` telemetry reports in the telemetry directory:
/// per job, the retained/dropped event counts, then per recorded scope the
/// Figure 10–12 cycle decomposition (work/stall counter totals) and the
/// single largest stall cause.
fn cmd_report(flags: Flags) -> ExitCode {
    let dir = flags
        .telemetry_dir
        .unwrap_or_else(|| "results/telemetry".into());
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            events::error(
                "report.dir_unreadable",
                format!("cannot read {dir}: {e} (run with --telemetry first)"),
            );
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("txt"))
        .filter(|p| {
            flags.filter.as_deref().is_none_or(|f| {
                p.file_stem()
                    .and_then(|s| s.to_str())
                    .is_some_and(|s| s.contains(f))
            })
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        events::error("report.no_match", format!("no telemetry reports match in {dir}"));
        return ExitCode::FAILURE;
    }

    if flags.json {
        return report_json(&paths);
    }

    println!("== Telemetry report ({dir}) ==");
    let mut ok = true;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                events::warn(
                    "report.file_unreadable",
                    format!("cannot read {}: {e}", path.display()),
                );
                ok = false;
                continue;
            }
        };
        let parsed = match sparten_telemetry::parse_report(&text) {
            Ok(p) => p,
            Err(e) => {
                events::warn(
                    "report.file_unparseable",
                    format!("{} does not parse: {e}", path.display()),
                );
                ok = false;
                continue;
            }
        };
        println!(
            "\n{}: {} events ({} dropped)",
            parsed.job, parsed.events, parsed.dropped
        );
        // Every scope that recorded work or stall cycles, in name order.
        let mut scopes: Vec<&str> = parsed
            .counters
            .keys()
            .filter_map(|name| {
                let (scope, rest) = name.split_once('/')?;
                (rest.starts_with("work.") || rest.starts_with("stall.")).then_some(scope)
            })
            .collect();
        scopes.dedup();
        if !scopes.is_empty() {
            println!(
                "  {:<22} {:>14} {:>14} {:>14} {:>14}  dominant stall",
                "scope", "nonzero", "zero", "intra", "inter"
            );
            for scope in scopes {
                let counter = |suffix: &str| {
                    parsed
                        .counters
                        .get(&format!("{scope}/{suffix}"))
                        .copied()
                        .unwrap_or(0)
                };
                let stall_prefix = format!("{scope}/stall.");
                let dominant = parsed
                    .counters
                    .iter()
                    .filter(|(n, v)| n.starts_with(&stall_prefix) && **v > 0)
                    .max_by_key(|(_, v)| **v)
                    .map(|(n, v)| format!("{} ({v})", &n[stall_prefix.len()..]))
                    .unwrap_or_else(|| "-".into());
                println!(
                    "  {:<22} {:>14} {:>14} {:>14} {:>14}  {dominant}",
                    scope,
                    counter("work.nonzero"),
                    counter("work.zero"),
                    parsed.counter_sum(&format!("{scope}/stall.intra.")),
                    parsed.counter_sum(&format!("{scope}/stall.inter.")),
                );
            }
        }
        // Distribution estimates from the power-of-two histogram buckets
        // (upper-bound interpolation; same engine as Histogram::quantile).
        if !parsed.histograms.is_empty() {
            println!(
                "  {:<34} {:>12} {:>12} {:>12}",
                "histogram", "p50", "p95", "p99"
            );
            for (name, (buckets, _sum)) in &parsed.histograms {
                let q = |q: f64| {
                    sparten_telemetry::bucket_quantile(buckets, q)
                        .map(|v| format!("{v:.0}"))
                        .unwrap_or_else(|| "-".into())
                };
                println!(
                    "  {:<34} {:>12} {:>12} {:>12}",
                    name,
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `report --json`: the parsed telemetry reports as one JSON array —
/// counters, gauges, and histograms (with p50/p95/p99 estimates) per job —
/// rendered by the in-repo JSON writer.
fn report_json(paths: &[PathBuf]) -> ExitCode {
    let mut jobs: Vec<Json> = Vec::with_capacity(paths.len());
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                events::error(
                    "report.file_unreadable",
                    format!("cannot read {}: {e}", path.display()),
                );
                return ExitCode::FAILURE;
            }
        };
        let parsed = match sparten_telemetry::parse_report(&text) {
            Ok(p) => p,
            Err(e) => {
                events::error(
                    "report.file_unparseable",
                    format!("{} does not parse: {e}", path.display()),
                );
                return ExitCode::FAILURE;
            }
        };
        let counters = Json::Obj(
            parsed
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            parsed
                .gauges
                .iter()
                .map(|(k, (hi, lo, last, n))| {
                    (
                        k.clone(),
                        Json::obj([
                            ("hi", Json::Float(*hi)),
                            ("lo", Json::Float(*lo)),
                            ("last", Json::Float(*last)),
                            ("n", Json::UInt(*n)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Obj(
            parsed
                .histograms
                .iter()
                .map(|(k, (buckets, sum))| {
                    let n: u64 = buckets.iter().sum();
                    let mut fields = vec![
                        ("n".to_string(), Json::UInt(n)),
                        ("sum".to_string(), Json::UInt(*sum)),
                    ];
                    for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                        if let Some(v) = sparten_telemetry::bucket_quantile(buckets, q) {
                            fields.push((label.to_string(), Json::Float(v)));
                        }
                    }
                    // Sparse bucket map: index (log2 upper bound) -> count.
                    fields.push((
                        "buckets".to_string(),
                        Json::Obj(
                            buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| **c > 0)
                                .map(|(i, c)| (i.to_string(), Json::UInt(*c)))
                                .collect(),
                        ),
                    ));
                    (k.clone(), Json::Obj(fields))
                })
                .collect(),
        );
        jobs.push(Json::obj([
            ("job", Json::str(&parsed.job)),
            ("file", Json::str(path.display().to_string())),
            ("events", Json::UInt(parsed.events)),
            ("dropped", Json::UInt(parsed.dropped)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ]));
    }
    // Guarded write: tolerate a reader that hangs up mid-stream.
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{}", Json::Arr(jobs).pretty());
    ExitCode::SUCCESS
}

fn cmd_list(flags: Flags) -> ExitCode {
    println!(
        "{:<28} {:<10} {:>6}  deps",
        "experiment", "kind", "points"
    );
    for e in registry() {
        if flags
            .filter
            .as_deref()
            .is_some_and(|f| !e.name().contains(f))
        {
            continue;
        }
        println!(
            "{:<28} {:<10} {:>6}  {}",
            e.name(),
            e.kind().label(),
            e.num_points(),
            if e.deps().is_empty() {
                "-".to_string()
            } else {
                e.deps().join(", ")
            },
        );
    }
    ExitCode::SUCCESS
}

/// Runs the multi-tenant simulation daemon until a SIGINT/SIGTERM drain.
///
/// The daemon wraps the registry, cache, executor, and journal in an
/// HTTP service (see `sparten-serve`): duplicate concurrent requests
/// coalesce onto one execution, fully cached jobs answer at memory
/// speed, and saturation sheds load with 429. A serve-session journal is
/// created at bind and sealed on a clean drain, so a `kill -9`'d daemon
/// leaves a dangling journal for `fsck` to flag — the same crash-only
/// contract as `run`.
fn cmd_serve(flags: Flags) -> ExitCode {
    let cache_dir = PathBuf::from(flags.cache_dir.unwrap_or_else(|| "results/cache".into()));
    let journal_dir =
        PathBuf::from(flags.journal_dir.unwrap_or_else(|| "results/journal".into()));
    let exec_jobs = flags.jobs.unwrap_or_else(executor::default_jobs);
    let experiments = registry();

    // The serve-session journal pins the registry at bind time.
    let jobs: Vec<journal::JournalJob> = experiments
        .iter()
        .map(|e| journal::JournalJob {
            name: e.name().to_string(),
            fingerprint: e.fingerprint(),
            points: e.num_points(),
        })
        .collect();
    let run_id = format!("serve-{}", journal::generate_run_id());
    let registry_fp = journal::registry_fingerprint(&jobs);
    let start = journal::StartRecord {
        run_id: run_id.clone(),
        filter: None,
        force: false,
        telemetry: false,
        seed: sparten_harness::SEED,
        registry_fp: registry_fp.clone(),
        jobs,
        trace: None,
    };
    let mut session_journal = match journal::Journal::create(&journal_dir, &start) {
        Ok(j) => j,
        Err(e) => {
            events::error(
                "serve.journal_failed",
                format!("cannot journal in {}: {e}", journal_dir.display()),
            );
            return ExitCode::FAILURE;
        }
    };

    // Buffered event sink: requests are hot-path, so events ride the
    // in-memory ring and hit disk on drain (or via the panic hook).
    let events_dir = PathBuf::from(
        flags
            .events_dir
            .clone()
            .unwrap_or_else(|| "results/events".into()),
    );
    if let Err(e) = events::init_serve(&events_dir, &run_id) {
        events::warn(
            "events.init_failed",
            format!("cannot open event log in {}: {e}", events_dir.display()),
        );
    }

    // One process-wide telemetry session: the server records request/gate/
    // queue spans into it, and the backend routes every executor run's
    // point and chunk spans into the same session (same trace ids), so
    // `GET /trace` exports one coherent timeline.
    let telemetry = std::sync::Arc::new(sparten_telemetry::Telemetry::new());
    let backend = std::sync::Arc::new(
        sparten_harness::serve::HarnessBackend::new(
            experiments,
            &cache_dir,
            Some(journal_dir.clone()),
            !flags.no_artifacts,
            exec_jobs,
        )
        .with_trace_sink(std::sync::Arc::clone(&telemetry)),
    );
    let opts = sparten_serve::ServeOptions {
        addr: flags.addr.unwrap_or_else(|| "127.0.0.1:7070".into()),
        max_active: flags.max_active.unwrap_or(2),
        max_queued: flags.max_queue.unwrap_or(8),
        read_timeout: Duration::from_secs(10),
        drain_timeout: flags.drain_timeout.unwrap_or(Duration::from_secs(30)),
        // `--deadline-ms` sets the default per-request budget (requests
        // may still send `Deadline-Ms`, clamped to the server max).
        default_deadline: flags
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_secs(120)),
        max_deadline: Duration::from_secs(600),
        // First SIGINT/SIGTERM drains, second aborts — same as `run`.
        shutdown: signal::install(),
        build: sparten_serve::BuildInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            registry_fp: u64::from_str_radix(&registry_fp, 16).unwrap_or(0),
        },
    };
    let server = match sparten_serve::Server::bind(backend, telemetry, opts) {
        Ok(s) => s,
        Err(e) => {
            events::error("serve.bind_failed", format!("cannot bind: {e}"));
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            events::error(
                "serve.addr_failed",
                format!("cannot resolve bound address: {e}"),
            );
            return ExitCode::FAILURE;
        }
    };
    println!("serving on http://{addr} (run id {run_id}, {exec_jobs} workers per run)");
    println!(
        "endpoints: GET /healthz /metrics /trace /jobs /result?job=NAME; POST /run?job=NAME"
    );
    if let Some(path) = &flags.port_file {
        if let Err(e) = sparten_bench::atomic_write(path, &format!("{addr}\n")) {
            events::error("serve.port_file_failed", format!("cannot write {path}: {e}"));
            return ExitCode::FAILURE;
        }
    }
    events::emit(
        events::Level::Debug,
        "serve.listening",
        &format!("serving on http://{addr}"),
        None,
        &[("run_id", Json::str(&run_id))],
    );

    let report = server.serve();

    // Drained: journal the shutdown, seal, exit 75 like an interrupted run.
    if let Err(e) = session_journal.append(&journal::Record::Shutdown {
        reason: "signal".into(),
    }) {
        events::warn("serve.journal_write_failed", format!("journal write failed: {e}"));
    }
    let status = if report.clean() { "ok" } else { "degraded" };
    if let Err(e) = session_journal.seal(status) {
        events::warn("serve.journal_seal_failed", format!("journal seal failed: {e}"));
    }
    if report.clean() {
        println!("drained: {} session(s) served, none dropped", report.sessions_served);
    } else {
        events::info(
            "serve.drain_degraded",
            format!(
                "drained: {} session(s) served, {} still open at the drain deadline",
                report.sessions_served, report.abandoned
            ),
        );
    }
    events::emit(
        events::Level::Debug,
        "serve.drained",
        "serve session drained",
        None,
        &[
            ("sessions_served", Json::UInt(report.sessions_served as u64)),
            ("abandoned", Json::UInt(report.abandoned as u64)),
        ],
    );
    // The buffered ring only reaches disk here (or via the panic hook).
    events::flush();
    ExitCode::from(signal::DRAINED_EXIT_CODE)
}

/// Removes files matching `pred` directly under `dir`; missing dir = 0.
fn sweep_files(dir: &Path, pred: impl Fn(&str) -> bool) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0;
    for entry in entries {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if pred(name) {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

fn cmd_clean(flags: Flags) -> ExitCode {
    let results = PathBuf::from(flags.results_dir.unwrap_or_else(|| "results".into()));
    let cache_dir = flags
        .cache_dir
        .map(PathBuf::from)
        .unwrap_or_else(|| results.join("cache"));
    let journal_dir = flags
        .journal_dir
        .map(PathBuf::from)
        .unwrap_or_else(|| results.join("journal"));

    let counts = match Cache::new(&cache_dir).clean() {
        Ok(c) => c,
        Err(e) => {
            events::error(
                "clean.cache_failed",
                format!("cannot clean {}: {e}", cache_dir.display()),
            );
            return ExitCode::FAILURE;
        }
    };
    let journals = sweep_files(&journal_dir, |n| {
        n.ends_with(".jsonl") || n.ends_with(".tmp")
    });
    let journals = match journals {
        Ok(n) => n,
        Err(e) => {
            events::error(
                "clean.journal_failed",
                format!("cannot clean {}: {e}", journal_dir.display()),
            );
            return ExitCode::FAILURE;
        }
    };
    // Orphaned atomic-write temps directly under results/ and telemetry/.
    let mut tmp = counts.tmp;
    for dir in [results.clone(), results.join("telemetry")] {
        match sweep_files(&dir, |n| n.ends_with(".tmp")) {
            Ok(n) => tmp += n,
            Err(e) => {
                events::error(
                    "clean.tmp_failed",
                    format!("cannot clean {}: {e}", dir.display()),
                );
                return ExitCode::FAILURE;
            }
        }
    }
    // Files quarantined by `fsck --repair` are dead evidence once the
    // operator cleans: sweep them like any other residue.
    let quarantine_dir = results.join("quarantine");
    let quarantined = match sweep_files(&quarantine_dir, |_| true) {
        Ok(n) => {
            let _ = std::fs::remove_dir(&quarantine_dir); // rmdir only if now empty
            n
        }
        Err(e) => {
            events::error(
                "clean.quarantine_failed",
                format!("cannot clean {}: {e}", quarantine_dir.display()),
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "removed {} cache entries, {} journal(s), {} quarantined file(s), {} orphaned .tmp file(s)",
        counts.entries, journals, quarantined, tmp
    );
    ExitCode::SUCCESS
}

/// Reads a structured event log (JSONL) written by `run` or `serve`,
/// filtering by severity and trace id; `--follow` tails the file.
fn cmd_events(flags: Flags) -> ExitCode {
    let dir = PathBuf::from(flags.events_dir.unwrap_or_else(|| "results/events".into()));
    let path = match &flags.run_id {
        Some(id) => {
            let p = dir.join(format!("{id}.jsonl"));
            if !p.exists() {
                events::error(
                    "events.not_found",
                    format!("no event log for run id `{id}` in {}", dir.display()),
                );
                return ExitCode::FAILURE;
            }
            p
        }
        None => match journal::latest_journal(&dir) {
            Ok(Some(p)) => p,
            Ok(None) => {
                events::error(
                    "events.none",
                    format!(
                        "no event logs in {} (run with `run` or `serve` first)",
                        dir.display()
                    ),
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                events::error(
                    "events.scan_failed",
                    format!("cannot scan {}: {e}", dir.display()),
                );
                return ExitCode::FAILURE;
            }
        },
    };
    // Validated at flag-parse time; defaults keep everything.
    let min_level = flags
        .level
        .as_deref()
        .and_then(events::Level::parse)
        .unwrap_or(events::Level::Debug);
    let want_trace = flags
        .trace
        .as_deref()
        .and_then(TraceContext::parse_hex)
        .map(|id| format!("{id:016x}"));

    // Guarded writes: `events | grep -q …` closes the pipe after the
    // first match, and println! would panic on the resulting EPIPE.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut offset = 0usize;
    let mut lineno = 0usize;
    loop {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                events::error(
                    "events.read_failed",
                    format!("cannot read {}: {e}", path.display()),
                );
                return ExitCode::FAILURE;
            }
        };
        // Only consume complete lines so --follow never splits an event
        // racing with the writer's append.
        let complete = match text[offset..].rfind('\n') {
            Some(i) => offset + i + 1,
            None => offset,
        };
        for line in text[offset..complete].lines() {
            lineno += 1;
            if line.trim().is_empty() {
                continue;
            }
            let event = match Json::parse(line) {
                Ok(j) => j,
                Err(e) => {
                    events::error(
                        "events.malformed",
                        format!("{}:{lineno}: malformed event: {e}", path.display()),
                    );
                    return ExitCode::FAILURE;
                }
            };
            let level = event
                .get("level")
                .and_then(Json::as_str)
                .and_then(events::Level::parse)
                .unwrap_or(events::Level::Info);
            if level < min_level {
                continue;
            }
            if let Some(want) = &want_trace {
                if event.get("trace").and_then(Json::as_str) != Some(want.as_str()) {
                    continue;
                }
            }
            if writeln!(out, "{line}").is_err() {
                // Reader hung up (e.g. grep -q): a clean stop, not a failure.
                return ExitCode::SUCCESS;
            }
        }
        offset = complete;
        if !flags.follow {
            break;
        }
        // Piped stdout is block-buffered; a tail must not lag a screenful.
        let _ = out.flush();
        std::thread::sleep(Duration::from_millis(200));
    }
    ExitCode::SUCCESS
}

/// Validates Prometheus text exposition from stdin or `--file`: the check
/// the CI smoke pipes `GET /metrics` through.
fn cmd_promlint(flags: Flags) -> ExitCode {
    let (text, source) = match &flags.file_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => (t, p.clone()),
            Err(e) => {
                events::error("promlint.read_failed", format!("cannot read {p}: {e}"));
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut s = String::new();
            use std::io::Read;
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                events::error("promlint.stdin_failed", format!("cannot read stdin: {e}"));
                return ExitCode::FAILURE;
            }
            (s, "<stdin>".to_string())
        }
    };
    match sparten_telemetry::validate_exposition(&text) {
        Ok(()) => {
            println!(
                "{source}: exposition OK ({} line(s))",
                text.lines().filter(|l| !l.is_empty()).count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            events::error("promlint.invalid", format!("{source}: {e}"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every option a command accepts is in its synopsis, has a parser
    /// arm, and has an OPTIONS entry — so `--help`, the unknown-option
    /// usage, and the parser cannot drift apart again.
    #[test]
    fn every_accepted_flag_is_in_the_synopsis_parser_and_options() {
        let help = usage();
        let options = &help[help.find("\nOPTIONS:\n").expect("OPTIONS section")..];
        for spec in COMMANDS {
            assert!(help.contains(&spec.synopsis()), "{} synopsis", spec.name);
            for flag in spec.flags() {
                let args = [flag.to_string()];
                assert!(
                    !matches!(parse_flags(spec, &args), Err(FlagsError::Unknown(_))),
                    "`{} {flag}` has no parser arm",
                    spec.name
                );
                let documented = options.lines().any(|line| {
                    line.strip_prefix("    ")
                        .and_then(|l| l.strip_prefix(flag))
                        .is_some_and(|rest| rest.starts_with(' '))
                });
                assert!(documented, "`{flag}` ({}) has no OPTIONS entry", spec.name);
            }
        }
    }

    #[test]
    fn unknown_options_are_rejected_per_command() {
        let list = COMMANDS.iter().find(|c| c.name == "list").unwrap();
        let args = ["--force".to_string()];
        assert!(matches!(parse_flags(list, &args), Err(FlagsError::Unknown(f)) if f == "--force"));
        let run = COMMANDS.iter().find(|c| c.name == "run").unwrap();
        let args = ["-j".to_string(), "3".to_string()];
        assert!(matches!(
            parse_flags(run, &args),
            Ok(Flags { jobs: Some(3), .. })
        ));
    }
}
