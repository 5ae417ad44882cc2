//! The two training workloads: the paper cell through `run_cell`, and the
//! sampled multi-seed sweep through `run_sweep`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qmarl_core::prelude::*;
use qmarl_harness::prelude::*;
use qmarl_qsim::par::{default_workers, parallel_map};

use crate::stats::{
    fingerprint, host_slowdown, low_quantile, median, process_cpu_secs, quantile, steal_secs,
    thread_cpu_secs, Outcome,
};
use crate::trace::{traced_trainer, EpochTrace, Tracer};

/// Table II horizon: one episode of T = 100 steps per epoch.
pub const EPISODE_LIMIT: usize = 100;
/// Epochs per paper cell.
pub const CELL_EPOCHS: usize = 20;
/// Epochs per cell of the sampled sweep.
pub const SWEEP_EPOCHS: usize = 2;
/// Each timed loop repeats its operation at least this often.
const MIN_REPS: usize = 3;
/// Back-to-back set-ups timed together as one set-up sample.
const SETUP_BATCH: usize = 8;
/// Seeds `golden.txt` records; `--seed` is taken modulo this.
pub const GOLDEN_SEEDS: u64 = 100;

const SCENARIO: &str = "single-hop";

/// Fingerprints recorded by `--golden`: `<workload> <seed> <hex>` lines.
const GOLDEN: &str = include_str!("../golden.txt");

fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

/// The paper cell: Proposed / single-hop / ideal / batched, one episode
/// and one lane per epoch, T = 100, paper `TrainConfig`.
pub fn paper_spec(seed: u64, mode: RolloutMode) -> ExperimentSpec {
    let mut spec = ExperimentSpec::named("paper-cell");
    spec.scenarios = vec![SCENARIO.into()];
    spec.seeds = vec![seed];
    spec.epochs = CELL_EPOCHS;
    spec.episode_limit = Some(EPISODE_LIMIT);
    spec.mode = mode;
    spec
}

/// The sampled sweep: Proposed / single-hop / `sampled:shots=128` over
/// two seeds, checkpointing every epoch.
pub fn sweep_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::named("sampled-sweep");
    spec.scenarios = vec![SCENARIO.into()];
    spec.backends = vec![format!("sampled:shots=128:seed={seed}")
        .parse()
        .expect("valid backend spec")];
    spec.seeds = vec![2 * seed, 2 * seed + 1];
    spec.epochs = SWEEP_EPOCHS;
    spec.episode_limit = Some(EPISODE_LIMIT);
    spec.checkpoint_every = 1;
    spec
}

/// Validates `spec` and builds every cell's trainer: the set-up a cell
/// pays before its first epoch.
fn build_cells(spec: &ExperimentSpec) -> Result<(), String> {
    spec.validate().map_err(|e| e.to_string())?;
    for id in spec.expand() {
        let train = TrainConfig {
            seed: id.seed,
            epochs: spec.epochs,
            ..spec.train.clone()
        };
        build_kind_scenario_trainer(
            id.framework,
            &id.scenario,
            &id.backend,
            &train,
            spec.episode_limit,
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// CPU seconds of one set-up on the calling thread, which does all of it,
/// averaged over `SETUP_BATCH` back-to-back builds. Thread CPU time leaves
/// out steal and other threads' work.
fn setup_sample(spec: &ExperimentSpec) -> Result<f64, String> {
    let t = thread_cpu_secs();
    (0..SETUP_BATCH).try_for_each(|_| build_cells(spec))?;
    Ok((thread_cpu_secs() - t) / SETUP_BATCH as f64)
}

/// Checks a fingerprint of `workload` against the first one seen and the
/// one recorded for `seed`; a seed with no recorded fingerprint fails.
fn check_fingerprint(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    got: u64,
    first: &mut Option<u64>,
) {
    let want = *first.get_or_insert(got);
    out.check(got == want, || {
        format!("{workload}: fingerprint {got:016x} differs from the first run's {want:016x}")
    });
    let recorded = golden(workload, seed);
    out.check(recorded == Some(got), || match recorded {
        Some(r) => format!("{workload}: fingerprint {got:016x} differs from the recorded {r:016x}"),
        None => format!("{workload}: golden.txt records no fingerprint for seed {seed}"),
    });
}

/// Wall, CPU and per-CPU steal seconds of one operation.
#[derive(Debug, Clone, Copy)]
struct Cost {
    wall: f64,
    cpu: f64,
    steal: f64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (t, c, s) = (Instant::now(), process_cpu_secs(), steal_secs());
    let out = f();
    let cost = Cost {
        wall: t.elapsed().as_secs_f64(),
        cpu: process_cpu_secs() - c,
        steal: steal_secs() - s,
    };
    (out, cost)
}

/// One untraced paper cell through the harness: its cost and history
/// fingerprint.
fn paper_cell(spec: &ExperimentSpec, out: &mut Outcome) -> Option<(Cost, u64)> {
    let id = spec.expand().remove(0);
    let (result, cost) = measure(|| run_cell(spec, &id, &CellOptions::default()));
    match result {
        Ok(cell) if cell.completed && cell.history.len() == spec.epochs => {
            Some((cost, fingerprint(&cell.history)))
        }
        Ok(_) => {
            out.check(false, || "paper cell stopped early".into());
            None
        }
        Err(e) => {
            out.check(false, || format!("paper cell failed: {e}"));
            None
        }
    }
}

/// The untraced loop of both workloads. Until `budget` is spent it takes
/// one set-up sample and then runs one operation between yardstick runs,
/// checking its fingerprint. `op` returns the operation's cost and
/// fingerprint, or `None` after recording a failure; `units` is the number
/// of units (epochs or sweeps) the per-operation metrics divide by.
fn untraced(
    workload: &str,
    spec: &ExperimentSpec,
    seed: u64,
    budget: Duration,
    units: f64,
    out: &mut Outcome,
    mut op: impl FnMut(&mut Outcome) -> Result<Option<(Cost, u64)>, String>,
) -> Result<(), String> {
    build_cells(spec)?;
    let mut first = None;
    let (mut setup, mut cpu_ms, mut wall_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while cpu_ms.len() < MIN_REPS || start.elapsed() < budget {
        setup.push(setup_sample(spec)?);
        let (result, slowdown) = host_slowdown(|| op(out));
        let Some((cost, fp)) = result? else {
            break;
        };
        check_fingerprint(out, workload, seed, fp, &mut first);
        cpu_ms.push(cost.cpu * 1e3 / units / slowdown.cpu);
        wall_ms.push((cost.wall - cost.steal) * 1e3 / units / slowdown.wall);
    }
    out.metric("setup_s", low_quantile(&setup), "s");
    out.metric("cpu_ms_per_op", quantile(&cpu_ms, 0.25), "ms");
    out.metric("wall_ms_per_op", median(&wall_ms), "ms");
    Ok(())
}

/// `paper-cell`, untraced: repeated harness cells until `budget` is spent.
pub fn paper_cell_e2e(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let spec = paper_spec(seed, RolloutMode::Vec);
    let epochs = spec.epochs as f64;
    untraced("paper-cell", &spec, seed, budget, epochs, out, |out| {
        Ok(paper_cell(&spec, out))
    })
}

/// One traced cell: the harness cell loop over a decorated trainer,
/// checkpointing like `run_cell` when `checkpoint` names a file.
struct TracedCell {
    fingerprint: u64,
    epochs: Vec<EpochTrace>,
    save_ms: Vec<f64>,
}

fn traced_cell(
    spec: &ExperimentSpec,
    id: &CellId,
    checkpoint: Option<&Path>,
) -> Result<TracedCell, String> {
    let tracer = Arc::new(Tracer::default());
    let train = TrainConfig {
        seed: id.seed,
        epochs: spec.epochs,
        ..spec.train.clone()
    };
    let limit = spec.episode_limit.unwrap_or(EPISODE_LIMIT);
    let mut trainer = traced_trainer(&id.scenario, &id.backend, &train, limit, &tracer)
        .map_err(|e| e.to_string())?;
    trainer.set_update_engine(id.engine);
    let n_agents = trainer.actors().len();
    let (mut epochs, mut save_ms) = (Vec::new(), Vec::new());
    for _ in 0..spec.epochs {
        let (result, trace) = tracer.epoch(n_agents, || {
            trainer.run_epoch_vec(spec.episodes_per_epoch, spec.effective_lanes())
        });
        result.map_err(|e| e.to_string())?;
        epochs.push(trace);
        if let Some(path) = checkpoint {
            let s = Instant::now();
            trainer
                .capture_state(&id.label())
                .save(path)
                .map_err(|e| e.to_string())?;
            save_ms.push(s.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(TracedCell {
        fingerprint: fingerprint(trainer.history()),
        epochs,
        save_ms,
    })
}

/// Per-epoch means of the traced phases, the epoch distribution and the
/// exact work counts.
fn layer_metrics(epochs: &[EpochTrace], out: &mut Outcome) {
    let n = epochs.len().max(1) as f64;
    let mean = |f: fn(&EpochTrace) -> f64| epochs.iter().map(f).sum::<f64>() / n;
    let steps: u64 = epochs.iter().map(|e| e.env_steps).sum();
    let step_ms: f64 = epochs.iter().map(|e| e.env_step_ms).sum();
    out.metric("env.step_us", step_ms * 1e3 / steps.max(1) as f64, "us");
    out.metric(
        "core.rollout_policy_ms",
        mean(|e| e.rollout_policy_ms),
        "ms",
    );
    out.metric("core.target_value_ms", mean(|e| e.target_value_ms), "ms");
    out.metric("core.critic_grad_ms", mean(|e| e.critic_grad_ms), "ms");
    out.metric("core.actor_grad_ms", mean(|e| e.actor_grad_ms), "ms");
    out.metric("core.param_io_ms", mean(|e| e.param_io_ms), "ms");
    out.metric("core.adam_ms", mean(|e| e.adam_ms), "ms");
    let other = mean(EpochTrace::other_ms);
    out.metric("core.epoch_other_ms", other, "ms");
    let times: Vec<f64> = epochs.iter().map(|e| e.epoch_ms).collect();
    out.metric("core.epoch_ms_p50", median(&times), "ms");
    out.metric("core.epoch_ms_p95", quantile(&times, 0.95), "ms");
    out.metric(
        "trace.unattributed_share",
        other / mean(|e| e.epoch_ms),
        "ratio",
    );
    let counts = epochs.first().map(EpochTrace::counts).unwrap_or_default();
    out.check(epochs.iter().all(|e| e.counts() == counts), || {
        format!("work counts differ between epochs (first epoch: {counts:?})")
    });
    out.metric("count.env_steps_per_epoch", counts.0 as f64, "count");
    out.metric("count.grad_steps_per_epoch", counts.1 as f64, "count");
    out.metric("count.circuit_evals_per_epoch", counts.2 as f64, "count");
    out.computed.push("count.circuit_evals_per_epoch");
}

/// `paper-cell`, traced: alternating untraced and traced cells (same
/// fingerprints required), the serial-mode reference, and the paper
/// policy served over TCP.
pub fn paper_cell_trace(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let spec = paper_spec(seed, RolloutMode::Vec);
    let id = spec.expand().remove(0);
    let mut first = None;
    let (mut plain, mut traced, mut epochs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < MIN_REPS || start.elapsed() < budget / 2 {
        let Some((cost, fp)) = paper_cell(&spec, out) else {
            break;
        };
        check_fingerprint(out, "paper-cell", seed, fp, &mut first);
        plain.push(cost);
        let (cell, cost) = measure(|| traced_cell(&spec, &id, None));
        let cell = cell?;
        out.check(Some(cell.fingerprint) == first, || {
            "traced paper cell's fingerprint differs from the untraced run's".into()
        });
        traced.push(cost);
        epochs.extend(cell.epochs);
    }
    let serial = paper_spec(seed, RolloutMode::Serial);
    let mut serial_ms = Vec::new();
    for _ in 0..MIN_REPS {
        if let Some((cost, _)) = paper_cell(&serial, out) {
            serial_ms.push(cost.wall * 1e3 / serial.epochs as f64);
        }
    }
    layer_metrics(&epochs, out);
    let per_epoch = |costs: &[Cost], f: fn(&Cost) -> f64| {
        median(&costs.iter().map(f).collect::<Vec<_>>()) * 1e3 / spec.epochs as f64
    };
    out.metric("wall.epoch_ms", per_epoch(&plain, |c| c.wall), "ms");
    out.metric("ref.serial_epoch_ms", median(&serial_ms), "ms");
    out.metric(
        "trace.overhead_pct",
        (per_epoch(&traced, |c| c.cpu) / per_epoch(&plain, |c| c.cpu) - 1.0) * 100.0,
        "%",
    );
    let walls: Vec<f64> = plain.iter().map(|c| c.wall).collect();
    out.metric("harness.cell_wall_s", median(&walls), "s");
    crate::serving::serve_layers(seed, budget / 20, out)
}

/// A fresh, empty working directory inside the working directory.
fn work_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".perfbench_tmp")
        .join(std::process::id().to_string())
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes this process's working directories.
pub fn clean_work_dirs() {
    let _ =
        std::fs::remove_dir_all(Path::new(".perfbench_tmp").join(std::process::id().to_string()));
    let _ = std::fs::remove_dir(".perfbench_tmp");
}

/// One untraced sweep: its cost, per-cell fingerprints and per-cell wall
/// seconds.
struct Sweep {
    cost: Cost,
    fingerprints: Vec<u64>,
    cell_walls: Vec<f64>,
}

fn sweep(
    spec: &ExperimentSpec,
    workers: usize,
    out: &mut Outcome,
) -> Result<Option<Sweep>, String> {
    let dir = work_dir("sweep")?;
    let opts = SweepOptions {
        workers,
        checkpoint_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let (result, cost) = measure(|| run_sweep(spec, &opts));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(r) if r.quarantined.is_empty() && r.cells.len() == spec.seeds.len() => Ok(Some(Sweep {
            cost,
            fingerprints: r.cells.iter().map(|c| fingerprint(&c.history)).collect(),
            cell_walls: r.cells.iter().map(|c| c.wall_secs).collect(),
        })),
        Ok(r) => {
            out.check(false, || {
                format!("sweep quarantined {} cell(s)", r.quarantined.len())
            });
            Ok(None)
        }
        Err(e) => {
            out.check(false, || format!("sweep failed: {e}"));
            Ok(None)
        }
    }
}

/// `sampled-sweep`, untraced: repeated sweeps until `budget` is spent.
pub fn sweep_e2e(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let spec = sweep_spec(seed);
    untraced("sampled-sweep", &spec, seed, budget, 1.0, out, |out| {
        Ok(sweep(&spec, 0, out)?.map(|s| (s.cost, fingerprint(&s.fingerprints))))
    })
}

/// `sampled-sweep`, traced: alternating untraced sweeps and traced
/// sweeps (the same cells over the same pool, with decorated trainers and
/// the harness's per-epoch checkpoints), the one-worker reference and the
/// layer probes.
pub fn sweep_trace(seed: u64, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let spec = sweep_spec(seed);
    let cells = spec.expand();
    let mut first = None;
    let (mut plain, mut traced, mut overhead_ms, mut cell_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut epochs, mut saves) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < MIN_REPS || start.elapsed() < budget / 2 {
        let Some(s) = sweep(&spec, 0, out)? else {
            break;
        };
        let fp = fingerprint(&s.fingerprints);
        check_fingerprint(out, "sampled-sweep", seed, fp, &mut first);
        plain.push(s.cost);
        let longest = s.cell_walls.iter().copied().fold(0.0, f64::max);
        overhead_ms.push((s.cost.wall - longest) * 1e3);
        cell_walls.extend(s.cell_walls);

        let dir = work_dir("traced")?;
        let (results, cost) = measure(|| {
            parallel_map(&cells, default_workers(), |_, id| {
                let path = qmarl_harness::cell::checkpoint_path(&dir, id);
                traced_cell(&spec, id, Some(&path))
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
        traced.push(cost);
        let mut traced_fps = Vec::new();
        for cell in results {
            let cell = cell?;
            traced_fps.push(cell.fingerprint);
            epochs.extend(cell.epochs);
            saves.extend(cell.save_ms);
        }
        out.check(traced_fps == s.fingerprints, || {
            "traced sweep's fingerprints differ from the untraced run's".into()
        });
    }
    let one_worker = sweep(&spec, 1, out)?.map_or(0.0, |s| s.cost.wall);
    layer_metrics(&epochs, out);
    let med =
        |costs: &[Cost], f: fn(&Cost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    out.metric("wall.sweep_s", med(&plain, |c| c.wall), "s");
    out.metric("ref.sweep_1worker_s", one_worker, "s");
    out.metric(
        "trace.overhead_pct",
        (med(&traced, |c| c.cpu) / med(&plain, |c| c.cpu) - 1.0) * 100.0,
        "%",
    );
    out.metric("harness.cell_wall_s", median(&cell_walls), "s");
    out.metric("harness.sweep_overhead_ms", median(&overhead_ms), "ms");
    out.metric("core.checkpoint_save_ms", median(&saves), "ms");
    Ok(())
}

/// `<workload> <seed> <hex>` golden lines for seeds `0..count`.
pub fn golden_lines(count: u64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut out = Outcome::default();
    for seed in 0..count {
        let spec = paper_spec(seed, RolloutMode::Vec);
        let (_, fp) = paper_cell(&spec, &mut out).ok_or("paper cell failed")?;
        lines.push(format!("paper-cell {seed} {fp:016x}"));
        let s = sweep(&sweep_spec(seed), 0, &mut out)?.ok_or("sweep failed")?;
        lines.push(format!(
            "sampled-sweep {seed} {:016x}",
            fingerprint(&s.fingerprints)
        ));
    }
    Ok(lines)
}
