//! The compute cores of the figure/table/ablation binaries, as library
//! functions over the experiment harness.
//!
//! Every training run in this module goes through
//! `qmarl_harness` — single cells ([`qmarl_harness::cell::run_cell`]),
//! multi-seed grids ([`qmarl_harness::sweep::run_sweep`]) or generic
//! fan-out ([`qmarl_harness::pool::run_tasks`]) — so the binaries carry
//! no hand-rolled training loops. Each function returns the exact
//! artifact bytes its binary historically wrote (regression-pinned by
//! `tests/figure_outputs.rs`) plus the numbers the binary prints; the
//! binaries themselves are thin presentation shells.
//!
//! The figure binaries keep the paper's **serial** collection semantics
//! ([`RolloutMode::Serial`]): one episode per epoch from the trainer's
//! own RNG stream, exactly what `CtdeTrainer::train` did when each
//! binary owned its loop — so their artifacts are reproducible against
//! the history of the repository. Sweep-scale work wanting
//! checkpoint-resume uses the default vectorized mode instead.
//!
//! Evaluations outside training run on the compiled runtime too, never
//! on the `vqc` interpreter (a test oracle only).

use qmarl_core::prelude::*;
use qmarl_env::prelude::*;
use qmarl_harness::prelude::*;
use qmarl_neural::prelude::Adam;
use qmarl_qsim::noise::NoiseModel;
use qmarl_qsim::shots::z_standard_error;
use qmarl_runtime::qnn::{only_row, CompiledVqc};
use qmarl_runtime::superop::{prebind_density, run_density};
use qmarl_vqc::prelude::{
    layered_angle_encoder, layered_ansatz, reuploading_circuit, Circuit, CircuitStats, OutputHead,
    Readout, Vqc, VqcBuilder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{mean_std, moving_average};

/// One named artifact (a `results/` file's name and exact content).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// File name under `results/`.
    pub name: String,
    /// Exact file content.
    pub content: String,
}

impl Artifact {
    fn new(name: impl Into<String>, content: impl Into<String>) -> Self {
        Artifact {
            name: name.into(),
            content: content.into(),
        }
    }
}

/// A serial-mode spec for the paper scenario — the shared shape of every
/// figure binary's training runs.
fn paper_serial_spec(
    name: &str,
    kind: FrameworkKind,
    epochs: usize,
    seeds: Vec<u64>,
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::named(name);
    spec.scenarios = vec!["single-hop".into()];
    spec.frameworks = vec![kind];
    spec.seeds = seeds;
    spec.epochs = epochs;
    spec.mode = RolloutMode::Serial;
    spec
}

/// Trains one framework on the paper scenario for `epochs` under `seed`
/// (serial collection), through the harness cell runner.
fn train_paper_cell(
    kind: FrameworkKind,
    epochs: usize,
    seed: u64,
) -> Result<CellResult, HarnessError> {
    let spec = paper_serial_spec("bin-cell", kind, epochs, vec![seed]);
    spec.validate()?;
    let cell = spec.expand().remove(0);
    run_cell(&spec, &cell, &CellOptions::default())
}

/// Rebuilds the trained quantum actors of a `Proposed`/`Comp1` cell from
/// its snapshot (the architecture the paper scenario implies).
fn materialize_quantum_actors(
    snapshot: &FrameworkSnapshot,
    config: &ExperimentConfig,
) -> Result<Vec<QuantumActor>, CoreError> {
    let n_actions = config.env.n_clouds * config.env.packet_amounts.len();
    let mut actors: Vec<QuantumActor> = (0..config.env.n_edges)
        .map(|n| {
            QuantumActor::new(
                config.train.n_qubits,
                config.env.obs_dim(),
                n_actions,
                config.train.actor_params,
                config.train.seed.wrapping_add(1000 + n as u64),
            )
        })
        .collect::<Result<_, _>>()?;
    for (view, params) in actors.iter_mut().zip(&snapshot.actor_params) {
        view.set_params(params)?;
    }
    Ok(actors)
}

/// Copies of the trained actors that execute on `backend`.
fn on_backend(actors: &[QuantumActor], backend: ExecutionBackend) -> Vec<QuantumActor> {
    actors
        .iter()
        .map(|a| a.clone().with_backend(backend.clone()))
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 3: training curves of all four frameworks + random walk.
// ---------------------------------------------------------------------

/// One framework's summary row of the Fig. 3 table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Framework.
    pub kind: FrameworkKind,
    /// Converged reward (tail mean over seeds) and its std.
    pub reward: f64,
    /// Across-seed standard deviation of the converged reward.
    pub std: f64,
    /// Achievability vs the random walk.
    pub achievability: f64,
    /// Tail-mean average queue.
    pub avg_queue: f64,
    /// Tail-mean empty ratio.
    pub empty_ratio: f64,
    /// Tail-mean overflow ratio.
    pub overflow_ratio: f64,
}

/// Everything the `fig3_training_curves` binary computes.
#[derive(Debug, Clone)]
pub struct Fig3Output {
    /// Random-walk baseline metrics.
    pub random_walk: EpisodeMetrics,
    /// The four panel CSVs, the summary CSV, and per-seed history CSVs.
    pub artifacts: Vec<Artifact>,
    /// Summary rows in framework order.
    pub rows: Vec<Fig3Row>,
    /// Tail length used for converged means.
    pub tail: usize,
}

/// Reproduces Fig. 3: trains every framework × seed as one harness grid
/// over the worker pool, then assembles the panel/summary artifacts.
///
/// # Errors
///
/// Propagates environment construction and training errors.
pub fn fig3_training_curves(
    epochs: usize,
    seeds: u64,
    base_seed: u64,
    smooth: usize,
) -> Result<Fig3Output, HarnessError> {
    // Random-walk normalisation baseline (Sec. IV-D1).
    let config = {
        let mut c = ExperimentConfig::paper_default();
        c.train.epochs = epochs;
        c.train.seed = base_seed;
        c
    };
    let mut rw_env = SingleHopEnv::new(config.env.clone(), base_seed).map_err(CoreError::from)?;
    let rw = random_walk_baseline(&mut rw_env, 200, base_seed).map_err(CoreError::from)?;

    // The full framework × seed grid as one sweep (seed list preserves
    // the binaries' historical `base + s * 101` spacing).
    let mut spec = paper_serial_spec(
        "fig3",
        FrameworkKind::Proposed,
        epochs,
        (0..seeds).map(|s| base_seed + s * 101).collect(),
    );
    spec.frameworks = FrameworkKind::TRAINABLE.to_vec();
    let sweep = run_sweep(&spec, &SweepOptions::default())?;

    // Per-framework histories in seed order.
    let histories_of = |kind: FrameworkKind| -> Vec<&TrainingHistory> {
        sweep
            .cells
            .iter()
            .filter(|c| c.id.framework == kind)
            .map(|c| &c.history)
            .collect()
    };
    let mean_series = |histories: &[&TrainingHistory], f: &dyn Fn(&EpochRecord) -> f64| {
        (0..epochs)
            .map(|e| {
                histories.iter().map(|h| f(&h.records()[e])).sum::<f64>() / histories.len() as f64
            })
            .collect::<Vec<f64>>()
    };

    let mut artifacts = Vec::new();
    type Panel = (&'static str, fn(&EpochRecord) -> f64);
    let panels: [Panel; 4] = [
        ("fig3a_reward.csv", |r| r.metrics.total_reward),
        ("fig3b_avg_queue.csv", |r| r.metrics.avg_queue),
        ("fig3c_empty_ratio.csv", |r| r.metrics.empty_ratio),
        ("fig3d_overflow_ratio.csv", |r| r.metrics.overflow_ratio),
    ];
    for (name, metric) in panels {
        let mut csv = String::from("epoch");
        for &kind in &FrameworkKind::TRAINABLE {
            csv.push_str(&format!(",{kind},{kind}_smooth"));
        }
        csv.push('\n');
        let series: Vec<(Vec<f64>, Vec<f64>)> = FrameworkKind::TRAINABLE
            .iter()
            .map(|&kind| {
                let raw = mean_series(&histories_of(kind), &metric);
                let ma = moving_average(&raw, smooth);
                (raw, ma)
            })
            .collect();
        for e in 0..epochs {
            csv.push_str(&format!("{e}"));
            for (raw, ma) in &series {
                csv.push_str(&format!(",{:.6},{:.6}", raw[e], ma[e]));
            }
            csv.push('\n');
        }
        artifacts.push(Artifact::new(name, csv));
    }

    // Summary table (the numbers quoted in Sec. IV-D).
    let tail = tail_epochs(epochs);
    let mut rows = Vec::new();
    let mut summary = String::from(
        "framework,reward,reward_std,achievability,avg_queue,empty_ratio,overflow_ratio\n",
    );
    for &kind in &FrameworkKind::TRAINABLE {
        let histories = histories_of(kind);
        let finals: Vec<f64> = histories
            .iter()
            .map(|h| h.final_reward(tail).expect("history nonempty"))
            .collect();
        let (reward, std) = mean_std(&finals);
        let ach = achievability(reward, rw.total_reward);
        let stat = |f: &dyn Fn(&EpochRecord) -> f64| {
            let xs: Vec<f64> = histories
                .iter()
                .map(|h| h.final_metric(tail, f).unwrap())
                .collect();
            mean_std(&xs).0
        };
        let row = Fig3Row {
            kind,
            reward,
            std,
            achievability: ach,
            avg_queue: stat(&|r| r.metrics.avg_queue),
            empty_ratio: stat(&|r| r.metrics.empty_ratio),
            overflow_ratio: stat(&|r| r.metrics.overflow_ratio),
        };
        summary.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            kind.name(),
            row.reward,
            row.std,
            row.achievability,
            row.avg_queue,
            row.empty_ratio,
            row.overflow_ratio
        ));
        rows.push(row);
    }
    summary.push_str(&format!(
        "RandomWalk,{:.4},0,0,{:.4},{:.4},{:.4}\n",
        rw.total_reward, rw.avg_queue, rw.empty_ratio, rw.overflow_ratio
    ));
    artifacts.push(Artifact::new("fig3_summary.csv", summary));

    // Per-seed full histories for reproducibility audits.
    for &kind in &FrameworkKind::TRAINABLE {
        for (s, h) in histories_of(kind).iter().enumerate() {
            artifacts.push(Artifact::new(
                format!("fig3_{}_seed{}.csv", kind.name().to_lowercase(), s),
                h.to_csv(),
            ));
        }
    }
    Ok(Fig3Output {
        random_walk: rw,
        artifacts,
        rows,
        tail,
    })
}

// ---------------------------------------------------------------------
// Fig. 4: the trained-team demonstration.
// ---------------------------------------------------------------------

/// Everything the `fig4_demonstration` binary computes.
#[derive(Debug, Clone)]
pub struct Fig4Output {
    /// Converged reward of the trained team.
    pub final_reward: f64,
    /// The demonstration frames.
    pub frames: Vec<DemoFrame>,
    /// `fig4_demonstration.csv`.
    pub artifact: Artifact,
}

/// Trains `Proposed` (one harness cell), then rolls the demonstration.
///
/// # Errors
///
/// Propagates training and demonstration errors.
pub fn fig4_demonstration(
    epochs: usize,
    steps: usize,
    seed: u64,
    agent: usize,
    deterministic: bool,
) -> Result<Fig4Output, HarnessError> {
    let mut config = ExperimentConfig::paper_default();
    config.train.epochs = epochs;
    config.train.seed = seed;
    let cell = train_paper_cell(FrameworkKind::Proposed, epochs, seed)?;
    let final_reward = cell
        .history
        .final_reward(tail_epochs(epochs))
        .expect("history nonempty");

    let quantum_views = materialize_quantum_actors(&cell.snapshot, &config)?;
    let actors: Vec<Box<dyn Actor>> = quantum_views
        .iter()
        .map(|q| Box::new(q.clone()) as Box<dyn Actor>)
        .collect();
    let mut env = SingleHopEnv::new(config.env.clone(), seed + 1).map_err(CoreError::from)?;
    let frames = run_demonstration(
        &mut env,
        &actors,
        &quantum_views,
        agent,
        steps,
        seed,
        deterministic,
    )?;
    let artifact = Artifact::new("fig4_demonstration.csv", frames_to_csv(&frames));
    Ok(Fig4Output {
        final_reward,
        frames,
        artifact,
    })
}

// ---------------------------------------------------------------------
// Ablation E: CTDE vs independent learners.
// ---------------------------------------------------------------------

/// Everything the `ablation_ctde` binary computes.
#[derive(Debug, Clone)]
pub struct CtdeAblationOutput {
    /// Across-seed mean reward curves.
    pub ctde_curve: Vec<f64>,
    /// Independent-learner mean curve.
    pub indep_curve: Vec<f64>,
    /// Smoothed curves (for the terminal plot).
    pub ctde_ma: Vec<f64>,
    /// Smoothed independent curve.
    pub indep_ma: Vec<f64>,
    /// `ablation_ctde.csv`.
    pub artifact: Artifact,
    /// Tail length of the final means.
    pub tail: usize,
}

fn mean_curves(curves: &[Vec<f64>]) -> Vec<f64> {
    let epochs = curves[0].len();
    (0..epochs)
        .map(|e| curves.iter().map(|c| c[e]).sum::<f64>() / curves.len() as f64)
        .collect()
}

/// Trains the CTDE arm as a harness grid and the independent arm over
/// the harness task pool, seed for seed.
///
/// # Errors
///
/// Propagates construction and training errors.
pub fn ablation_ctde(
    epochs: usize,
    seeds: u64,
    base_seed: u64,
) -> Result<CtdeAblationOutput, HarnessError> {
    let seed_list: Vec<u64> = (0..seeds).map(|s| base_seed + s * 31).collect();

    // CTDE arm: the paper's Proposed framework, one cell per seed.
    let spec = paper_serial_spec(
        "ablation-ctde",
        FrameworkKind::Proposed,
        epochs,
        seed_list.clone(),
    );
    let sweep = run_sweep(&spec, &SweepOptions::default())?;
    let ctde_curves: Vec<Vec<f64>> = sweep
        .cells
        .iter()
        .map(|c| {
            c.history
                .records()
                .iter()
                .map(|r| r.metrics.total_reward)
                .collect()
        })
        .collect();

    // Independent arm: same actors, per-agent local critics — a
    // different trainer type, fanned over the same worker pool.
    let indep_curves: Vec<Vec<f64>> = try_run_tasks(&seed_list, 0, |_, &seed| {
        let mut config = ExperimentConfig::paper_default();
        config.train.epochs = epochs;
        config.train.seed = seed;
        let env = SingleHopEnv::new(config.env.clone(), seed).map_err(CoreError::from)?;
        let (actors, critics) = build_independent_quantum(&config.env, &config.train)?;
        let mut indep = IndependentTrainer::new(env, actors, critics, config.train.clone())?;
        indep.train(epochs)?;
        Ok::<Vec<f64>, HarnessError>(
            indep
                .history()
                .records()
                .iter()
                .map(|r| r.metrics.total_reward)
                .collect(),
        )
    })?
    .into_iter()
    .map(|t| t.value)
    .collect();

    let ctde_curve = mean_curves(&ctde_curves);
    let indep_curve = mean_curves(&indep_curves);
    let smooth = (epochs / 20).max(1);
    let ctde_ma = moving_average(&ctde_curve, smooth);
    let indep_ma = moving_average(&indep_curve, smooth);
    let mut csv = String::from("epoch,ctde,ctde_smooth,independent,independent_smooth\n");
    for e in 0..epochs {
        csv.push_str(&format!(
            "{e},{:.6},{:.6},{:.6},{:.6}\n",
            ctde_curve[e], ctde_ma[e], indep_curve[e], indep_ma[e]
        ));
    }
    Ok(CtdeAblationOutput {
        ctde_curve,
        indep_curve,
        ctde_ma,
        indep_ma,
        artifact: Artifact::new("ablation_ctde.csv", csv),
        tail: tail_epochs(epochs),
    })
}

// ---------------------------------------------------------------------
// Ablation B: NISQ noise impact on the trained policies.
// ---------------------------------------------------------------------

/// One noise level's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRow {
    /// Per-gate depolarizing rate.
    pub p: f64,
    /// Mean total-variation policy drift on the probe set.
    pub tv: f64,
    /// Mean return under noisy execution.
    pub reward_mean: f64,
    /// Across-episode std.
    pub reward_std: f64,
}

/// Total-variation distance between two distributions.
fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// The paper-motivated noise ladder.
pub const NOISE_LEVELS: [f64; 8] = [0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1];

/// Trains `Proposed` (one harness cell), then evaluates the trained
/// policies at every noise level (the `Noisy` backend, exact readout)
/// across the harness task pool.
///
/// # Errors
///
/// Propagates training and simulation errors.
pub fn ablation_noise(
    epochs: usize,
    eval_episodes: usize,
    seed: u64,
) -> Result<(Vec<NoiseRow>, Artifact), HarnessError> {
    let mut config = ExperimentConfig::paper_default();
    config.train.epochs = epochs;
    config.train.seed = seed;
    let cell = train_paper_cell(FrameworkKind::Proposed, epochs, seed)?;
    let actors = materialize_quantum_actors(&cell.snapshot, &config)?;

    let rows: Vec<NoiseRow> = try_run_tasks(&NOISE_LEVELS, 0, |_, &p| {
        let noise = NoiseModel::depolarizing(p, 2.0 * p).expect("valid noise");
        let noisy = on_backend(
            &actors,
            ExecutionBackend::Noisy {
                model: noise,
                shots: None,
                seed: 0,
            },
        );

        // Policy drift on a fixed probe set of observations.
        let mut tv_sum = 0.0;
        let mut tv_n = 0usize;
        for probe in 0..16 {
            let obs: Vec<f64> = (0..config.env.obs_dim())
                .map(|i| ((probe * 4 + i * 7) % 11) as f64 / 10.0)
                .collect();
            let n = probe % actors.len();
            tv_sum += tv_distance(&actors[n].probs(&obs)?, &noisy[n].probs(&obs)?);
            tv_n += 1;
        }
        let tv = tv_sum / tv_n as f64;

        // Return under noisy decentralized execution.
        let mut rewards = Vec::with_capacity(eval_episodes);
        let mut env = SingleHopEnv::new(config.env.clone(), seed + 11).map_err(CoreError::from)?;
        let mut rng = StdRng::seed_from_u64(seed + 101);
        for _ in 0..eval_episodes {
            let m = rollout_episode(&mut env, |obs| {
                obs.iter()
                    .enumerate()
                    .map(|(n, o)| {
                        let probs = noisy[n].probs(o).expect("noisy forward");
                        select_action(&probs, false, &mut rng)
                    })
                    .collect()
            })
            .map_err(CoreError::from)?;
            rewards.push(m.total_reward);
        }
        let (reward_mean, reward_std) = mean_std(&rewards);
        Ok::<NoiseRow, CoreError>(NoiseRow {
            p,
            tv,
            reward_mean,
            reward_std,
        })
    })
    .map_err(HarnessError::from)?
    .into_iter()
    .map(|t| t.value)
    .collect();

    let mut csv = String::from("noise_p,policy_tv_distance,reward_mean,reward_std\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{:.6},{:.4},{:.4}\n",
            r.p, r.tv, r.reward_mean, r.reward_std
        ));
    }
    Ok((rows, Artifact::new("ablation_noise.csv", csv)))
}

// ---------------------------------------------------------------------
// Ablation D: finite measurement shots.
// ---------------------------------------------------------------------

/// One shot budget's evaluation (`None` = exact expectations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShotsRow {
    /// Samples per readout; `None` is the exact limit.
    pub shots: Option<usize>,
    /// Worst-case per-readout standard error.
    pub std_error: f64,
    /// Mean return.
    pub reward_mean: f64,
    /// Across-episode std.
    pub reward_std: f64,
}

/// The shot-budget ladder of the ablation.
pub const SHOT_BUDGETS: [Option<usize>; 7] = [
    Some(8),
    Some(32),
    Some(128),
    Some(512),
    Some(2048),
    Some(8192),
    None,
];

/// Trains `Proposed` (one harness cell), then executes the trained
/// policies at every shot budget (the `Sampled` backend's streams; action
/// sampling keeps its own RNG) across the harness task pool.
///
/// # Errors
///
/// Propagates training and simulation errors.
pub fn ablation_shots(
    epochs: usize,
    eval_episodes: usize,
    seed: u64,
) -> Result<(Vec<ShotsRow>, Artifact), HarnessError> {
    let mut config = ExperimentConfig::paper_default();
    config.train.epochs = epochs;
    config.train.seed = seed;
    let cell = train_paper_cell(FrameworkKind::Proposed, epochs, seed)?;
    let actors = materialize_quantum_actors(&cell.snapshot, &config)?;

    let rows: Vec<ShotsRow> = try_run_tasks(&SHOT_BUDGETS, 0, |_, &shots| {
        let policies = on_backend(
            &actors,
            shots.map_or(ExecutionBackend::Ideal, |shots| ExecutionBackend::Sampled {
                shots,
                seed: seed + 78,
            }),
        );
        let mut rewards = Vec::with_capacity(eval_episodes);
        let mut env = SingleHopEnv::new(config.env.clone(), seed + 21).map_err(CoreError::from)?;
        let mut rng = StdRng::seed_from_u64(seed + 77);
        for _ in 0..eval_episodes {
            let m = rollout_episode(&mut env, |obs| {
                obs.iter()
                    .enumerate()
                    .map(|(n, o)| {
                        let probs = policies[n].probs(o).expect("forward");
                        select_action(&probs, false, &mut rng)
                    })
                    .collect()
            })
            .map_err(CoreError::from)?;
            rewards.push(m.total_reward);
        }
        let (reward_mean, reward_std) = mean_std(&rewards);
        Ok::<ShotsRow, CoreError>(ShotsRow {
            shots,
            std_error: shots.map_or(0.0, |s| z_standard_error(0.0, s)),
            reward_mean,
            reward_std,
        })
    })
    .map_err(HarnessError::from)?
    .into_iter()
    .map(|t| t.value)
    .collect();

    let mut csv = String::from("shots,z_standard_error,reward_mean,reward_std\n");
    for r in &rows {
        match r.shots {
            Some(s) => csv.push_str(&format!(
                "{s},{:.6},{:.4},{:.4}\n",
                r.std_error, r.reward_mean, r.reward_std
            )),
            None => csv.push_str(&format!(
                "exact,0,{:.4},{:.4}\n",
                r.reward_mean, r.reward_std
            )),
        }
    }
    Ok((rows, Artifact::new("ablation_shots.csv", csv)))
}

// ---------------------------------------------------------------------
// Ablation F: encode-once vs data re-uploading.
// ---------------------------------------------------------------------

/// One architecture's value-regression result.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingRow {
    /// Architecture label.
    pub name: String,
    /// Gate count.
    pub gates: usize,
    /// Circuit depth.
    pub depth: usize,
    /// Trainable parameters.
    pub params: usize,
    /// Final epoch's regression MSE.
    pub mse: f64,
    /// Error-free execution proxy at p = 1e-3.
    pub fidelity_1e3: f64,
    /// Error-free execution proxy at p = 1e-2.
    pub fidelity_1e2: f64,
}

/// Collects (state, discounted-return) pairs from random-policy episodes.
fn collect_dataset(seed: u64, episodes: usize, gamma: f64) -> Vec<(Vec<f64>, f64)> {
    let mut cfg = EnvConfig::paper_default();
    cfg.episode_limit = 60;
    let mut env = SingleHopEnv::new(cfg, seed).expect("valid config");
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let mut data = Vec::new();
    for _ in 0..episodes {
        let (_, mut state) = env.reset();
        let mut states = vec![state.clone()];
        let mut rewards = Vec::new();
        loop {
            let actions: Vec<usize> = (0..4).map(|_| rng.gen_range(0..4)).collect();
            let out = env.step(&actions).expect("step");
            rewards.push(out.reward);
            state = out.state;
            if out.done {
                break;
            }
            states.push(state.clone());
        }
        // Backward pass for discounted returns G_t.
        let mut g = 0.0;
        let mut returns = vec![0.0; rewards.len()];
        for t in (0..rewards.len()).rev() {
            g = rewards[t] + gamma * g;
            returns[t] = g;
        }
        for (s, r) in states.into_iter().zip(returns) {
            data.push((s, r));
        }
    }
    data
}

/// Trains a critic model by Adam on MSE over the dataset; returns the
/// final epoch's MSE. Each step's gradient is a batch of one through the
/// prebound adjoint, bit-identical to the interpreter's adjoint.
fn regress(model: &Vqc, data: &[(Vec<f64>, f64)], epochs: usize, seed: u64) -> f64 {
    let compiled = CompiledVqc::new(model.clone());
    let mut params = model.init_params(seed);
    let mut opt = Adam::new(5e-3, params.len());
    let mut last_mse = f64::INFINITY;
    for _ in 0..epochs {
        let mut mse = 0.0;
        for (x, y) in data {
            let (out, jac) = compiled
                .forward_with_jacobian_batch_prebound(std::slice::from_ref(x), &params)
                .and_then(only_row)
                .expect("jacobian");
            let err = out[0] - y;
            mse += err * err;
            let grad = jac.vjp(&[2.0 * err / data.len() as f64]);
            opt.step(&mut params, &grad);
        }
        last_mse = mse / data.len() as f64;
    }
    last_mse
}

/// Runs the encoder-design regression for every architecture arm over
/// the harness task pool. Returns the rows, the artifact and the dataset
/// size.
///
/// # Errors
///
/// Currently infallible past construction (`expect`s paper-valid
/// circuit shapes), but keeps the fallible signature of its siblings.
pub fn ablation_encoding(
    epochs: usize,
    episodes: usize,
    seed: u64,
    budget: usize,
) -> Result<(Vec<EncodingRow>, Artifact, usize), HarnessError> {
    let data = collect_dataset(seed, episodes, 0.95);
    let architectures: Vec<(String, Circuit)> = vec![
        ("encode-once (paper)".into(), {
            let mut c = layered_angle_encoder(4, 16).expect("valid");
            c.append_shifted(&layered_ansatz(4, budget).expect("valid"))
                .expect("same width");
            c
        }),
        (
            "re-upload x2".into(),
            reuploading_circuit(4, 16, 2, budget).expect("valid"),
        ),
        (
            "re-upload x3".into(),
            reuploading_circuit(4, 16, 3, budget).expect("valid"),
        ),
    ];

    let rows: Vec<EncodingRow> = run_tasks(&architectures, 0, |_, (name, circuit)| {
        let stats = CircuitStats::of(circuit);
        let model = VqcBuilder::new(4)
            .full_circuit(circuit.clone())
            .readout(Readout::mean_z(4))
            .output_head(OutputHead::Affine)
            .build()
            .expect("valid model");
        let mse = regress(&model, &data, epochs, seed);
        EncodingRow {
            name: name.clone(),
            gates: stats.gates,
            depth: stats.depth,
            params: model.param_count(),
            mse,
            fidelity_1e3: stats.fidelity_proxy(1e-3, 2e-3),
            fidelity_1e2: stats.fidelity_proxy(1e-2, 2e-2),
        }
    })
    .into_iter()
    .map(|t| t.value)
    .collect();

    let mut csv =
        String::from("architecture,gates,depth,params,final_mse,fidelity_1e3,fidelity_1e2\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{:.6},{:.6},{:.6}\n",
            r.name, r.gates, r.depth, r.params, r.mse, r.fidelity_1e3, r.fidelity_1e2
        ));
    }
    Ok((
        rows,
        Artifact::new("ablation_encoding.csv", csv),
        data.len(),
    ))
}

// ---------------------------------------------------------------------
// Ablation A: qubit scaling — naive CTDE vs state encoding.
// ---------------------------------------------------------------------

/// One agent-count row of the qubit-scaling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct QubitScalingRow {
    /// Agent count.
    pub n_agents: usize,
    /// Global state dimension.
    pub state_dim: usize,
    /// The naive critic's register width.
    pub naive_qubits: usize,
    /// Encoded critic µs per value+gradient.
    pub encoded_grad_us: f64,
    /// Naive critic µs per value+gradient.
    pub naive_grad_us: f64,
    /// Encoded critic purity under noise (`None` = intractable).
    pub encoded_purity: Option<f64>,
    /// Naive critic purity under noise.
    pub naive_purity: Option<f64>,
}

/// Density-matrix simulation above this register width is impractical on
/// a laptop (memory and time are 4^n); report it as such.
pub const MAX_NOISY_QUBITS: usize = 8;

/// Measures the qubit-scaling rows. Runs on the harness task pool with a
/// **single worker**: the µs columns are wall-clock microbenchmarks, and
/// parallel rows would contend for cores and distort each other.
///
/// # Errors
///
/// Propagates construction and simulation errors.
pub fn ablation_qubit_scaling(
    budget: usize,
    noise_p: f64,
    seed: u64,
) -> Result<(Vec<QubitScalingRow>, Artifact), HarnessError> {
    let agent_counts = [1usize, 2, 3, 4];
    let rows: Vec<QubitScalingRow> = try_run_tasks(&agent_counts, 1, |_, &n_agents| {
        let mut env_cfg = EnvConfig::paper_default();
        env_cfg.n_edges = n_agents;
        let state_dim = env_cfg.state_dim();
        let state: Vec<f64> = (0..state_dim).map(|i| 0.07 * (i as f64) % 1.0).collect();

        // The paper's critic: fixed 4 qubits via layered encoding.
        let encoded = QuantumCritic::new(4, state_dim, budget, seed)?;
        // The naive critic: one wire per feature.
        let naive = QuantumCritic::new(state_dim, state_dim, budget, seed)?;

        let time_grad = |f: &dyn Fn()| -> f64 {
            f(); // warm up
            let reps = 20;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };
        let encoded_grad_us = time_grad(&|| {
            encoded.value_with_gradient(&state).expect("gradient");
        });
        let naive_grad_us = time_grad(&|| {
            naive.value_with_gradient(&state).expect("gradient");
        });

        // Purity after noisy execution with the same per-gate rate.
        let noise = NoiseModel::depolarizing(noise_p, 2.0 * noise_p).expect("valid noise");
        let purity = |critic: &QuantumCritic| -> Option<f64> {
            let model = critic.compiled();
            if model.compiled().n_qubits() > MAX_NOISY_QUBITS {
                return None;
            }
            let params = critic.params();
            let circ_params = &params[..model.model().circuit_param_count()];
            let scaled = model.model().input_scaling().apply_all(&state);
            let prebound =
                prebind_density(model.compiled(), circ_params, &noise).expect("noisy binding");
            Some(run_density(&prebound, &scaled).expect("noisy run").purity())
        };
        Ok::<QubitScalingRow, CoreError>(QubitScalingRow {
            n_agents,
            state_dim,
            naive_qubits: naive.model().circuit().n_qubits(),
            encoded_grad_us,
            naive_grad_us,
            encoded_purity: purity(&encoded),
            naive_purity: purity(&naive),
        })
    })
    .map_err(HarnessError::from)?
    .into_iter()
    .map(|t| t.value)
    .collect();

    let mut csv = String::from(
        "n_agents,state_dim,encoded_qubits,naive_qubits,encoded_grad_us,naive_grad_us,encoded_purity,naive_purity\n",
    );
    for r in &rows {
        csv.push_str(&format!(
            "{},{},4,{},{:.2},{:.2},{},{}\n",
            r.n_agents,
            r.state_dim,
            r.naive_qubits,
            r.encoded_grad_us,
            r.naive_grad_us,
            r.encoded_purity
                .map_or(String::new(), |v| format!("{v:.6}")),
            r.naive_purity.map_or(String::new(), |v| format!("{v:.6}")),
        ));
    }
    Ok((rows, Artifact::new("ablation_qubit_scaling.csv", csv)))
}

// ---------------------------------------------------------------------
// Table II: parameter budgets.
// ---------------------------------------------------------------------

/// Computes every framework's parameter report over the harness task
/// pool and renders the `table2_param_budgets.csv` artifact.
///
/// # Errors
///
/// Propagates construction errors.
pub fn table2_param_budgets(
    config: &ExperimentConfig,
) -> Result<(Vec<ParamReport>, Artifact), HarnessError> {
    let kinds = [
        FrameworkKind::Proposed,
        FrameworkKind::Comp1,
        FrameworkKind::Comp2,
        FrameworkKind::Comp3,
        FrameworkKind::RandomWalk,
    ];
    let reports: Vec<ParamReport> =
        try_run_tasks(&kinds, 0, |_, &kind| parameter_report(kind, config))
            .map_err(HarnessError::from)?
            .into_iter()
            .map(|t| t.value)
            .collect();
    let mut csv = String::from("framework,per_actor,n_actors,critic,total\n");
    for r in &reports {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            r.kind.name(),
            r.per_actor,
            r.n_actors,
            r.critic,
            r.total()
        ));
    }
    Ok((reports, Artifact::new("table2_param_budgets.csv", csv)))
}
