//! Command-line driver of the benchmark.
//!
//! `realbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics, a context line and, last,
//! the result line. Without `--workload` it runs every workload, untraced
//! and traced, each in a process of its own so peak memory is per
//! workload, and exits nonzero if any run failed.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;

use realbench::report::{end_to_end, mean_frame_bytes, per_layer, result_json, time_wire, Metric};
use realbench::workload::LOSS;
use realbench::workload::{placement, Plan};
use realbench::{run, Budget, Phase, Probe, Stack, Traffic, Workload};

/// Unmeasured rounds before each measured phase.
const WARMUP: Duration = Duration::from_millis(300);
/// Time spent timing the `wire` functions in a traced run.
const WIRE_BUDGET: Duration = Duration::from_millis(350);

const USAGE: &str = "usage: realbench [--workload <pingpong_small|pingpong_large|msgrate_progthread|msgrate_lossy>] [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("realbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, args.seed, args.seconds, args.trace.unwrap_or(false)),
        None => run_all(&args),
    }
}

/// What a run measured, before printing.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    wire_errors: u64,
    locking: String,
    oneway_samples: u64,
    round_samples: u64,
    slices: usize,
    setups: usize,
}

impl Outcome {
    fn new(metrics: Vec<Metric>, phases: &[&Phase], locking: String) -> Outcome {
        Outcome {
            metrics,
            attempted: phases.iter().map(|p| p.attempted).sum(),
            failed: phases.iter().map(|p| p.failed).sum(),
            first_failure: phases.iter().find_map(|p| p.first_failure.clone()),
            wire_errors: phases.iter().map(|p| p.wire_errors_total).sum(),
            locking,
            oneway_samples: phases[0].oneway_samples,
            round_samples: phases[0].round_samples,
            slices: phases[0].slices.len(),
            setups: phases[0].setup_s.len(),
        }
    }
}

fn locking(st: &Stack) -> String {
    format!("{:?}", st.a.config().locking)
}

fn plan(measure: Duration, time_setups: bool) -> Plan {
    Plan {
        warmup: Budget::Time(WARMUP),
        measure: Budget::Time(measure),
        time_setups,
    }
}

fn untraced(
    w: Workload,
    seed: u64,
    traffic: &Traffic,
    measure: Duration,
) -> Result<Outcome, String> {
    let st = Stack::build(w, seed, None);
    let ph = run(w, seed, &st, traffic, plan(measure, true));
    let lock = locking(&st);
    st.shutdown();
    let ph = ph?;
    let metrics = end_to_end(&ph, peak_rss_mb()?);
    Ok(Outcome::new(metrics, &[&ph], lock))
}

fn traced(w: Workload, seed: u64, traffic: &Traffic, measure: Duration) -> Result<Outcome, String> {
    let half = measure / 2;
    let st = Stack::build(w, seed, None);
    let plain = run(w, seed, &st, traffic, plan(half, false));
    st.shutdown();
    let plain = plain?;

    let st = Stack::build(w, seed, Some(Arc::new(Probe::default())));
    let probed = run(w, seed, &st, traffic, plan(half, false));
    let lock = locking(&st);
    st.shutdown();
    let probed = probed?;

    let wire = time_wire(mean_frame_bytes(&probed), seed, WIRE_BUDGET)?;
    let metrics = per_layer(w, &plain, &probed, &wire);
    Ok(Outcome::new(metrics, &[&probed, &plain], lock))
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// The checkout's commit, when it is a git work tree.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let traffic = Traffic::new(w, seed);
    let measure = Duration::from_secs_f64(seconds);
    let outcome = if trace {
        traced(w, seed, &traffic, measure)
    } else {
        untraced(w, seed, &traffic, measure)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("realbench: {}: {e}", w.name());
            println!("{}", result_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let wire_ok = w.lossy() || o.wire_errors == 0;
    let correct = o.failed == 0 && wire_ok;
    if let Some(f) = &o.first_failure {
        eprintln!(
            "realbench: {}: {} of {} messages failed; first: {f}",
            w.name(),
            o.failed,
            o.attempted
        );
    }
    if !wire_ok {
        eprintln!(
            "realbench: {}: {} wire errors on a lossless wire",
            w.name(),
            o.wire_errors
        );
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    println!("{} (seed {seed}, trace {})", w.name(), trace as u8);
    for x in &o.metrics {
        println!("  {:<34} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!("  {:<34} {:>16.6} ratio", "error_rate", error_rate);
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"seconds\": {seconds}, \
         \"nproc\": {nproc}, \"threads\": {}, \"oversubscribed\": {}, \"pinned\": {}, \"locking\": \"{}\", \"wire\": \"{}\", \
         \"loss\": {}, \"commit\": \"{}\", \"oneway_samples\": {}, \"round_samples\": {}, \"slices\": {}, \"setups\": {}, \
         \"attempted\": {}, \"failed\": {}, \"error_rate\": {error_rate}, \"wire_errors\": {}}}}}",
        w.name(),
        trace as u8,
        w.threads(),
        w.threads() > nproc,
        w.threads() > 1 && placement().is_some(),
        o.locking,
        w.wire_name(),
        if w.lossy() { LOSS } else { 0.0 },
        commit(),
        o.oneway_samples,
        o.round_samples,
        o.slices,
        o.setups,
        o.attempted,
        o.failed,
        o.wire_errors,
    );
    println!(
        "{}",
        result_json(correct, o.attempted, o.failed, &o.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("realbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut failed = Vec::new();
    for w in Workload::ALL {
        for &trace in &traces {
            let t = (trace as u8).to_string();
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", &t])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{} --trace {t}", w.name()));
            }
        }
    }
    if failed.is_empty() {
        println!("all runs verified");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
