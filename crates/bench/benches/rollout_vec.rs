//! Lockstep rollout throughput: one lane vs all episodes in one wave.
//!
//! On the paper-default scenario with quantum actors,
//! `CtdeTrainer::rollout_vec` collects the same episodes bit for bit at
//! any lane count (the collector's determinism contract), so this
//! comparison is pure throughput: `lanes = 1` evaluates one
//! `agents`-circuit batch per environment step, `lanes = N` fuses every
//! live episode's step into one flat prebound batch of `N × agents`
//! circuits per tick.
//!
//! Besides the criterion rows, the bench emits `BENCH_rollout.json` at
//! the repository root with absolute steps/sec, so the performance
//! trajectory of the rollout path is recorded PR over PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use qmarl_core::prelude::*;
use qmarl_env::prelude::*;

/// Paper Table II environment, trimmed to a bench-friendly horizon.
const EPISODE_LIMIT: usize = 100;

fn trainer(seed: u64) -> CtdeTrainer<SingleHopEnv> {
    let mut cfg = EnvConfig::paper_default();
    cfg.episode_limit = EPISODE_LIMIT;
    let env = SingleHopEnv::new(cfg, seed).expect("env");
    let actors: Vec<Box<dyn Actor>> = (0..4)
        .map(|n| {
            Box::new(QuantumActor::new(4, 4, 4, 50, seed + n).expect("actor")) as Box<dyn Actor>
        })
        .collect();
    let critic = Box::new(QuantumCritic::new(4, 16, 50, seed + 100).expect("critic"));
    CtdeTrainer::new(env, actors, critic, TrainConfig::paper_default()).expect("trainer")
}

fn bench_rollout_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollout_paper_default");
    group.sample_size(10);
    for episodes in [8usize, 16] {
        for (name, lanes) in [("lanes_1", 1), ("lanes_n", episodes)] {
            group.bench_with_input(BenchmarkId::new(name, episodes), &episodes, |b, &eps| {
                let mut t = trainer(1);
                b.iter(|| black_box(t.rollout_vec(eps, lanes, false).expect("rollout")));
            });
        }
    }
    group.finish();
}

/// Wall-clock steps/sec of one lane count, mean over `reps` collections.
fn steps_per_sec(reps: usize, episodes: usize, lanes: usize) -> f64 {
    let mut t = trainer(2);
    let mut collect = || -> usize {
        t.rollout_vec(episodes, lanes, false)
            .expect("rollout")
            .iter()
            .map(|(ep, _, _)| ep.len())
            .sum()
    };
    let mut steps = collect(); // warmup (counted for shape only)
    let start = Instant::now();
    for _ in 0..reps {
        steps = collect();
    }
    steps as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Measures both lane counts head-to-head and records the result as JSON.
fn emit_rollout_json(c: &mut Criterion) {
    let quick = std::env::var_os("QMARL_BENCH_QUICK").is_some_and(|v| v != "0");
    let (episodes, reps) = if quick { (8usize, 2usize) } else { (16, 8) };

    let single = steps_per_sec(reps, episodes, 1);
    let wide = steps_per_sec(reps, episodes, episodes);
    let speedup = wide / single;

    let json = format!(
        "{{\n  \"bench\": \"rollout\",\n  \"scenario\": \"single-hop (paper default, T={EPISODE_LIMIT})\",\n  \
         \"episodes_per_collection\": {episodes},\n  \"actors\": \"quantum 4q/50p\",\n  \
         \"steps_per_sec\": {{\n    \"lanes_1\": {single:.0},\n    \"lanes_{episodes}\": {wide:.0}\n  }},\n  \
         \"lanes_speedup\": {speedup:.2}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rollout.json");
    if quick {
        // Quick (CI smoke) measurements are too noisy to record; keep
        // the committed trajectory file authoritative.
        println!("rollout_vec: quick mode, not rewriting {path}");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("rollout_vec: wrote {path}"),
            Err(e) => println!("rollout_vec: could not write {path}: {e}"),
        }
    }
    println!(
        "rollout_vec: lanes=1 {single:.0} steps/s, lanes={episodes} {wide:.0} steps/s ({speedup:.2}x)"
    );
    let _ = c; // the JSON pass is measured manually, outside criterion
}

criterion_group!(benches, bench_rollout_lanes, emit_rollout_json);
criterion_main!(benches);
