//! `zsbench`: one benchmark for the zero-shot stack.
//!
//! ```text
//! zsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Runs one workload (`offline_build`, `serve_local_cold`,
//! `serve_remote_hot`, `serve_multitask_cold`) built from the seed,
//! measures for the given seconds and checks every output.  The last line
//! of standard output is the result: with `--trace 0` every end-to-end
//! metric, with `--trace 1` every per-layer metric from a separate traced
//! phase.  The line before it holds the details (environment, per-phase
//! request counts, layer breakdowns of the end-to-end rows).  The exit
//! code is 0 only when every check passed.  See `RATIONALE.md`.

mod candidates;
mod offline;
mod pace;
mod recipe;
mod report;
mod serving;

use report::{detail, environment, result_line, Metrics, Outcome};
use serving::Mode;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("holdout_qerror_p50", "ratio"),
    ("holdout_qerror_p95", "ratio"),
    ("throughput_qps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("storage.datagen_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.exec_s", "s"),
    ("engine.exec_tuples_per_s", "1/s"),
    ("engine.exec_input_tuples", "count"),
    ("core.featurize_s", "s"),
    ("core.train_s", "s"),
    ("core.train_graphs_per_s", "1/s"),
    ("build.unattributed_s", "s"),
    ("serve.submit_us_p50", "us"),
    ("serve.server_latency_us_p50", "us"),
    ("serve.server_latency_us_p99", "us"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.featurize_us_mean", "us"),
    ("serve.forward_us_mean", "us"),
    ("serve.cache_lookup_us_mean", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.stolen_share", "ratio"),
    ("serve.unattributed_us", "us"),
    ("core.featurize_plan_us", "us"),
    ("nn.forward_us", "us"),
    ("client.outside_server_us_p50", "us"),
    ("net.admission_us_mean", "us"),
    ("net.respond_us_mean", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_request", "bytes"),
    ("net.rejected_share", "ratio"),
    ("trace.build_overhead_s", "s"),
    ("trace.latency_overhead_ms", "ms"),
];

const WORKLOADS: [&str; 4] = [
    "offline_build",
    "serve_local_cold",
    "serve_remote_hot",
    "serve_multitask_cold",
];

/// Workload sizes: `full` for measurements, `tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Self-test hook: flip one reference answer, which must fail the run.
    pub corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut corrupt_reference = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        size,
        corrupt_reference,
    })
}

/// Mean µs per call of `f(i)`, cycling `i` over `0..n` for at least one
/// full pass and at least 200 ms.
pub fn replay_mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let min = Duration::from_millis(200);
    let started = Instant::now();
    let mut calls = 0usize;
    while calls < n || started.elapsed() < min {
        f(calls % n);
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The metrics of the result line, in the canonical order.  A metric the
/// workload did not produce is a problem when it is end-to-end and 0
/// when it is a layer the workload does not exercise.
fn canonical(outcome: &mut Outcome, trace: bool) -> Metrics {
    let (list, source): (&[(&str, &str)], &Metrics) = if trace {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    for (name, unit) in list {
        let found = source.0.iter().find(|m| m.name == *name);
        if let Some(m) = found {
            if m.unit != *unit {
                problems.push(format!("{name} reported in {} instead of {unit}", m.unit));
            }
        }
        let value = match found {
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => {
                problems.push(format!("{name} is not finite ({})", m.value));
                0.0
            }
            None if trace => 0.0,
            None => {
                problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        metrics.push(*name, value, unit);
    }
    outcome.problems.extend(problems);
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("zsbench: {message}");
            eprintln!(
                "usage: zsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "offline_build" => offline::run(&args),
        "serve_local_cold" => serving::run(Mode::LocalCold, &args),
        "serve_remote_hot" => serving::run(Mode::RemoteHot, &args),
        "serve_multitask_cold" => serving::run(Mode::MultitaskCold, &args),
        _ => unreachable!("workload names are validated"),
    };
    let metrics = canonical(&mut outcome, args.trace);
    let attempted = outcome.attempted().max(1);
    let failed = outcome.failed();
    let correct = outcome.problems.is_empty() && failed == 0;
    let error_rate = failed as f64 / attempted as f64;
    let env = environment(&args.workload, args.seed);
    for problem in &outcome.problems {
        eprintln!("zsbench: check failed: {problem}");
    }
    let detail = detail(&outcome, env, error_rate);
    println!(
        "{}",
        serde_json::to_string(&report::obj(vec![("zsbench_detail", detail)])).expect("detail")
    );
    println!(
        "{}",
        serde_json::to_string(&result_line(correct, attempted, failed, &metrics)).expect("result")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
