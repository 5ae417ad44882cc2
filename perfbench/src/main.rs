//! End-to-end benchmark of the QMARL stack.
//!
//! ```text
//! perfbench --workload <paper-cell|sampled-sweep> --seed N --seconds S --trace 0|1
//! perfbench --golden COUNT      # print recorded-fingerprint lines for seeds 0..COUNT
//! ```
//!
//! Run from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload paper-cell
//! --seed 1 --seconds 20 --trace 0`. Prints the run's metadata, one
//! `name = value unit` line per metric, and as its last line the result
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones (see `perfbench/README.md`). Exits non-zero when a correctness
//! check fails.

mod probes;
mod serving;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::Outcome;

/// Every per-layer metric, in print order. A workload that has no such
/// layer reports 0: it spent no time and did no work there.
const PER_LAYER: &[(&str, &str)] = &[
    ("qsim.par.dispatch_us", "us"),
    ("qsim.shots.sample_us", "us"),
    ("runtime.fwd_tick_us", "us"),
    ("runtime.adjoint_batch_ms", "ms"),
    ("runtime.shift_batch_ms", "ms"),
    ("env.step_us", "us"),
    ("core.rollout_policy_ms", "ms"),
    ("core.target_value_ms", "ms"),
    ("core.critic_grad_ms", "ms"),
    ("core.actor_grad_ms", "ms"),
    ("core.param_io_ms", "ms"),
    ("core.adam_ms", "ms"),
    ("core.epoch_other_ms", "ms"),
    ("core.epoch_ms_p50", "ms"),
    ("core.epoch_ms_p95", "ms"),
    ("core.checkpoint_save_ms", "ms"),
    ("harness.cell_wall_s", "s"),
    ("harness.sweep_overhead_ms", "ms"),
    ("serve.codec_us", "us"),
    ("serve.batch_compute_us", "us"),
    ("serve.batch_hist_p50_us", "us"),
    ("serve.mean_batch", "requests"),
    ("serve.handoff_us", "us"),
    ("serve.gen_late_us_p99", "us"),
    ("count.env_steps_per_epoch", "count"),
    ("count.circuit_evals_per_epoch", "count"),
    ("count.grad_steps_per_epoch", "count"),
    ("count.requests", "count"),
    ("ref.serial_epoch_ms", "ms"),
    ("ref.sweep_1worker_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("wall.epoch_ms", "ms"),
    ("wall.sweep_s", "s"),
    ("wall.act_p50_us", "us"),
    ("wall.act_p99_us", "us"),
    ("wall.act_sat_rps", "1/s"),
];

const WORKLOADS: &[&str] = &["paper-cell", "sampled-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |key: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let number = |key: &str| -> Result<u64, String> {
        value(key)?
            .parse()
            .map_err(|_| format!("{key} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs(args.seconds);
    let seed = input_seed(args.seed);
    match (args.workload.as_str(), args.trace) {
        ("paper-cell", false) => train::paper_cell_e2e(seed, budget, out)?,
        ("paper-cell", true) => train::paper_cell_trace(seed, budget, out)?,
        (_, false) => train::sweep_e2e(seed, budget, out)?,
        (_, true) => train::sweep_trace(seed, budget, out)?,
    }
    if args.trace {
        probes::run(seed, out)?;
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        if args.workload == "paper-cell" {
            let handoff =
                get("wall.act_p50_us") - get("serve.codec_us") - get("serve.batch_compute_us");
            out.metric("serve.handoff_us", handoff, "us");
        }
        for &(name, unit) in PER_LAYER {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.metric(name, 0.0, unit);
            }
        }
        out.metrics.sort_by_key(|m| {
            PER_LAYER
                .iter()
                .position(|(n, _)| *n == m.name)
                .unwrap_or(usize::MAX)
        });
    } else {
        out.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }
    Ok(())
}

/// The seed a workload's inputs come from: one of the seeds whose
/// fingerprints `golden.txt` records, so every run has a recorded result.
fn input_seed(seed: u64) -> u64 {
    seed % train::GOLDEN_SEEDS
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--golden") {
        let count = argv.get(1).and_then(|c| c.parse().ok()).unwrap_or(0);
        let result = train::golden_lines(count);
        train::clean_work_dirs();
        return match result {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "meta {}",
        stats::metadata_json(
            &args.workload,
            args.seed,
            input_seed(args.seed),
            args.seconds,
            args.trace
        )
    );
    let mut out = Outcome::default();
    let result = run(&args, &mut out);
    train::clean_work_dirs();
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    for m in &out.metrics {
        println!("{} {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    if !out.computed.is_empty() {
        println!(
            "computed (derived from batch sizes): {}",
            out.computed.join(", ")
        );
    }
    println!(
        "error_rate = {} ({} failed of {} attempted); wall {:.1} s",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        started.elapsed().as_secs_f64()
    );
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", out.result_json());
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
