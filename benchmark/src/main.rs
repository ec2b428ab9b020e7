//! The repo's benchmark. Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON result as the last line
//!   of stdout — the form `BENCHMARK.json`'s command takes.
//! * without `--workload`, every workload runs in a child process of its own
//!   (end-to-end, then traced if `--trace 1`) and a table of every metric is
//!   printed. `--smoke` does that at eighth size in a few seconds.
//!
//! See `README.md` for what the workloads and metrics mean.

mod batch;
mod layers;
mod models;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use models::{RunConfig, Shape};
use optimus_maximus::net::json::{self, Json};
use report::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Duration;
use trace::Tracer;

/// Seconds a single-workload run may take before it is declared hung: under
/// the driver's 180 s limit, several times the longest healthy run.
const DEADLINE_S: u64 = 150;

const USAGE: &str = "usage: mips-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke]";

struct Args {
    workload: Option<String>,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: RunConfig {
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.cfg.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.cfg.seconds == 0.0 {
        args.cfg.seconds = if args.cfg.smoke { 1.0 } else { 28.0 };
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args.cfg),
        None => run_all(&args.cfg),
    }
}

/// Per-layer metrics only a workload with a server of its own, which it
/// swaps models under, can measure.
const SERVE_ONLY: [&str; 13] = [
    "engine.swap_ack_ms",
    "engine.replan_ms",
    "serve.swap_stall_ms",
    "serve.swap_goodput_ratio",
    "net.boot_rate_spread",
    "net.p50_us",
    "net.p99_us",
    "serve.mean_batch",
    "serve.coalesced_share",
    "serve.busy_share",
    "serve.rejected",
    "net.responses_5xx",
    "net.rejected_overload",
];

fn run_one(name: &str, cfg: &RunConfig) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; known: {}", known.join(", "));
        return ExitCode::from(2);
    }
    // A hung run must not look like a slow one: past the deadline the process
    // says which workload hung and dies non-zero, printing no result.
    let watched = name.to_string();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(DEADLINE_S));
        eprintln!("workload {watched} passed its {DEADLINE_S} s deadline; killing the run");
        std::process::exit(3);
    });

    eprintln!(
        "[host] {} hardware threads, SIMD kernel {}; workload {name}, seed {}, {} s{}",
        std::thread::available_parallelism().map_or(0, usize::from),
        optimus_maximus::linalg::simd::active().name(),
        cfg.seed,
        cfg.seconds,
        if cfg.smoke { ", smoke scale" } else { "" }
    );
    let mut tracer = Tracer::new(cfg.trace);
    let root = tracer.begin("run", 0);
    let (run, ks) = match name {
        "batch-dense" => (batch::run(Shape::Dense, cfg, &mut tracer), &batch::KS[..]),
        "batch-index" => (
            batch::run(Shape::Clustered, cfg, &mut tracer),
            &batch::KS[..],
        ),
        _ => (serve::run(cfg, &mut tracer), &serve::KS[..]),
    };
    let mut outcome = run.outcome;
    let specs: &[MetricSpec] = if cfg.trace {
        let mut layers = layers::sweep(&run.model, &run.engine, ks, cfg, &mut tracer);
        layers.extend(run.observed);
        // What a workload cannot exercise reads 0 in its traced run.
        if name.starts_with("batch-") {
            for metric in SERVE_ONLY {
                layers.set(metric, 0.0);
            }
        }
        tracer.end(root);
        let rollup = tracer.rollup();
        layers.set("trace.accounted_share", rollup.accounted_share);
        eprint!("{}", rollup.render());
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{name}.json");
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(name, &rollup)))
        {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        outcome.metrics = layers;
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!("{}", outcome.to_json(specs));
    if outcome.failed > 0 {
        eprintln!(
            "workload {name}: {} of {} checks failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs `name` in a child process and returns its parsed result line.
fn run_child(name: &str, cfg: &RunConfig, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cfg.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start workload {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("workload {name} failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    json::parse(line).map_err(|e| format!("workload {name} printed no result: {e}"))
}

fn run_all(cfg: &RunConfig) -> ExitCode {
    for workload in &WORKLOADS {
        println!("{}: {}", workload.name, workload.why);
    }
    let mut passes = vec![(false, &END_TO_END[..])];
    if cfg.trace || cfg.smoke {
        passes.push((true, &PER_LAYER[..]));
    }
    for (trace, specs) in passes {
        let mut columns: Vec<Json> = Vec::new();
        for workload in &WORKLOADS {
            eprintln!(
                "== {} ({}) ==",
                workload.name,
                if trace { "traced" } else { "end to end" }
            );
            match run_child(workload.name, cfg, trace) {
                Ok(result) => columns.push(result),
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        print_table(specs, &columns);
    }
    ExitCode::SUCCESS
}

/// One row per metric, one column per workload.
fn print_table(specs: &[MetricSpec], columns: &[Json]) {
    print!(
        "{:<32} {:>8} {:>6} {:>5}",
        "metric", "unit", "better", "bound"
    );
    for workload in &WORKLOADS {
        print!(" {:>14}", workload.name);
    }
    println!();
    let count = |result: &Json, key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    for key in ["attempted", "failed"] {
        print!("{key:<32} {:>8} {:>6} {:>5}", "count", "", "");
        for result in columns {
            print!(" {:>14}", count(result, key));
        }
        println!();
    }
    for spec in specs {
        let bound = if spec.bound > 0.0 {
            format!("{:.2}", spec.bound)
        } else {
            String::new()
        };
        print!(
            "{:<32} {:>8} {:>6} {bound:>5}",
            spec.name, spec.unit, spec.better
        );
        for result in columns {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN);
            print!(" {value:>14.4}");
        }
        println!();
    }
}
