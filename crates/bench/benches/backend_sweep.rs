//! Backend × scenario throughput: the cost of NISQ realism.
//!
//! Every registered scenario runs under every execution backend from a
//! string-constructible spec; this bench measures what each backend
//! costs on two of them. Two throughput axes per (backend, scenario)
//! cell:
//!
//! * **steps/s** — environment steps of deterministic evaluation
//!   rollouts (the decentralized-execution surface: one circuit per
//!   agent per step),
//! * **grad-steps/s** — optimizer-ready gradients per second of one
//!   update sweep (`transitions × (agents + critic)`); `ideal` uses the
//!   prebound adjoint engine, `sampled` and `noisy` the prefix-shared
//!   parameter-shift walk (forking a statevector and a vectorized ρ),
//!   and `trajectory` the per-trajectory adjoint
//!   (exact gradient of the sampled estimator in one forward walk plus
//!   one reverse sweep). `noisy` evaluations run the prebound
//!   superoperator slab executor (per-gate channels fused into dense
//!   4×4 superoperators, compiled once per batch); `trajectory`
//!   replaces the `4^n` density register with `samples` statevector
//!   runs per evaluation.
//!
//! Besides the criterion rows, the bench writes `BENCH_backend.json` at
//! the repository root so the backend axis' cost is recorded PR over PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use qmarl_core::prelude::*;
use qmarl_env::prelude::*;

/// Horizon per episode (trimmed from the paper's T = 300 to keep the
/// noisy parameter-shift cells bench-friendly).
const EPISODE_LIMIT: usize = 20;

/// Episodes per update sweep (the replay minibatch).
const BATCH_EPISODES: usize = 2;

/// The backend ladder (spec strings, the user-facing spelling).
const BACKENDS: [&str; 4] = [
    "ideal",
    "sampled:shots=128:seed=1",
    "noisy:p1=0.001:p2=0.002",
    "trajectory:p1=0.001:p2=0.002:samples=16:seed=1",
];

/// The measured scenarios (every registered scenario runs under every
/// backend — `tests/backend_equivalence.rs` asserts that — these two are
/// the throughput record).
const SCENARIOS: [&str; 2] = ["single-hop", "two-tier"];

fn trainer(
    scenario: &str,
    backend: &ExecutionBackend,
    seed: u64,
) -> CtdeTrainer<Box<dyn ScenarioEnv>> {
    let mut train = TrainConfig::paper_default();
    train.seed = seed;
    build_scenario_trainer(scenario, backend, &train, Some(EPISODE_LIMIT)).expect("trainer")
}

/// Environment steps/s of deterministic evaluation rollouts, all
/// `episodes` in one lockstep wave.
fn eval_steps_per_sec(t: &mut CtdeTrainer<Box<dyn ScenarioEnv>>, episodes: usize) -> f64 {
    t.evaluate_vec(1, 1).expect("warmup");
    let start = Instant::now();
    t.evaluate_vec(episodes, episodes).expect("evaluate");
    (episodes * EPISODE_LIMIT) as f64 / start.elapsed().as_secs_f64()
}

/// Optimizer-ready gradients/s of one update sweep over a filled replay.
fn grad_steps_per_sec(t: &mut CtdeTrainer<Box<dyn ScenarioEnv>>, reps: usize) -> f64 {
    t.run_epoch_vec(BATCH_EPISODES, BATCH_EPISODES)
        .expect("fill epoch");
    let grad_steps = (BATCH_EPISODES * EPISODE_LIMIT * (t.actors().len() + 1)) as f64;
    let start = Instant::now();
    for _ in 0..reps {
        t.update_sweep(BATCH_EPISODES).expect("sweep");
    }
    grad_steps * reps as f64 / start.elapsed().as_secs_f64()
}

fn bench_backend_rollouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_rollout_single_hop");
    group.sample_size(10);
    for spec in BACKENDS {
        let backend: ExecutionBackend = spec.parse().expect("spec");
        group.bench_with_input(BenchmarkId::new(backend.kind(), spec), &backend, |b, be| {
            let mut t = trainer("single-hop", be, 3);
            b.iter(|| black_box(t.evaluate_vec(1, 1).expect("evaluate")));
        });
    }
    group.finish();
}

fn emit_backend_json(c: &mut Criterion) {
    let quick = std::env::var_os("QMARL_BENCH_QUICK").is_some_and(|v| v != "0");
    let (episodes, reps) = if quick { (2, 1) } else { (8, 3) };

    let mut cells = Vec::new();
    for scenario in SCENARIOS {
        for spec in BACKENDS {
            let backend: ExecutionBackend = spec.parse().expect("spec");
            let steps = eval_steps_per_sec(&mut trainer(scenario, &backend, 5), episodes);
            // Every cell measures its gradient sweep, quick mode
            // included: superoperator slabs lifted the noisy
            // parameter-shift sweep from single-digit to triple-digit
            // grad-steps/s, so even the slowest cell fits a CI smoke run.
            let grads = grad_steps_per_sec(&mut trainer(scenario, &backend, 5), reps);
            println!(
                "backend_sweep: {scenario:<12} {spec:<26} {steps:>9.0} steps/s {grads:>9.0} grad-steps/s"
            );
            cells.push(format!(
                "    {{\n      \"scenario\": \"{scenario}\",\n      \"backend\": \"{spec}\",\n      \
                 \"grad_rule\": \"{}\",\n      \"steps_per_sec\": {steps:.0},\n      \
                 \"grad_steps_per_sec\": {grads:.0}\n    }}",
                if backend.supports_adjoint() {
                    "adjoint (prebound)"
                } else if matches!(backend, ExecutionBackend::Trajectory { .. }) {
                    "adjoint (per-trajectory)"
                } else {
                    "parameter-shift (prefix-shared walk)"
                }
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"backend_sweep\",\n  \
         \"units\": \"steps_per_sec = env steps of argmax evaluation; \
         grad_steps_per_sec = transitions x (agents + critic) / s\",\n  \
         \"episode_limit\": {EPISODE_LIMIT},\n  \"batch_episodes\": {BATCH_EPISODES},\n  \
         \"determinism\": \"per-evaluation derived seeds; worker-count invariant \
         (tests/backend_equivalence.rs)\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backend.json");
    if quick {
        // Quick (CI smoke) measurements are too noisy to record; keep the
        // committed trajectory file authoritative.
        println!("backend_sweep: quick mode, not rewriting {path}");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("backend_sweep: wrote {path}"),
            Err(e) => println!("backend_sweep: could not write {path}: {e}"),
        }
    }
    let _ = c; // the JSON pass is measured manually, outside criterion
}

criterion_group!(benches, bench_backend_rollouts, emit_backend_json);
criterion_main!(benches);
