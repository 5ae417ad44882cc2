//! Algorithm 1: CTDE-based QMARL training.
//!
//! Centralized training, decentralized execution: during rollouts each
//! actor sees only its own observation; during updates the critic sees
//! the global state. Per epoch the trainer
//!
//! 1. rolls out one episode with the current (stochastic) policies,
//! 2. stores it in the replay buffer `D`,
//! 3. sweeps "each timestep t in each episode in batch D" computing the
//!    TD target `y_t = r_t + γ V_φ(s_{t+1}) − V_ψ(s_t)`,
//! 4. applies MAPG updates to every actor and an `‖y‖²` update to the
//!    critic (one Adam step per timestep sample, which with the paper's
//!    learning rates 1e-4/1e-5 gives the convergence timescale of Fig. 3),
//! 5. periodically syncs the target network `φ ← ψ`.
//!
//! The update sweep is the **minibatch form** of Algorithm 1's lines
//! 12–16: the target `φ`, critic `ψ` and every actor `θ_n` are frozen
//! while all TD targets and gradients of the batch are computed, then the
//! per-sample Adam steps are applied in a deterministic fixed order
//! (agents in agent order, then the critic, sample by sample). Freezing
//! the gradient phase is what lets the whole sweep run as flat batched
//! circuit queues ([`UpdateEngine::Batched`], the default) while staying
//! **bit-identical** to the one-circuit-at-a-time reference
//! ([`UpdateEngine::Serial`]) — the engines only change how the gradients
//! are computed, never which updates are applied.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qmarl_env::metrics::{EpisodeMetrics, MetricsAccumulator, MetricsMean};
use qmarl_env::multi_agent::MultiAgentEnv;
use qmarl_env::vector::{ReplicatedVecEnv, SeedableEnv};
use qmarl_neural::optim::Adam;
use qmarl_neural::prelude::entropy;
use qmarl_runtime::rollout::{collect_episodes_vec, derive_seed, EpisodeTrace};

use qmarl_vqc::grad::Jacobian;

use crate::checkpoint::TrainerCheckpoint;
use crate::config::TrainConfig;
use crate::error::CoreError;
use crate::policy::{select_action, Actor};
use crate::replay::{Episode, ReplayBuffer, Transition};
use crate::value::Critic;
use crate::vec_policy::ActorsVecPolicy;

/// Which implementation drives the update sweep's gradient phase. Both
/// engines apply identical updates in identical order — the batched
/// engine is property-tested bit-identical to the serial reference —
/// so the choice is purely a throughput knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateEngine {
    /// One circuit at a time through the single-sample model paths (the
    /// reference implementation, and the baseline of
    /// `benches/train_update.rs`).
    Serial,
    /// Every (transition × agent) circuit of the sweep collected into
    /// flat prebound work queues ([`Actor::policy_gradients_batch`],
    /// [`Critic::values_with_gradients_batch`]).
    #[default]
    Batched,
}

/// One epoch's record: the quantities Fig. 3 plots, plus diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Metrics of the training episode rolled out this epoch.
    pub metrics: EpisodeMetrics,
    /// Mean squared TD error over the update sweep.
    pub critic_loss: f64,
    /// Mean policy entropy over the episode (exploration diagnostic).
    pub mean_entropy: f64,
}

/// The per-epoch history of a training run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainingHistory {
    records: Vec<EpochRecord>,
}

impl TrainingHistory {
    /// All records, epoch order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Appends an epoch record (used by the trainers).
    pub(crate) fn push_record(&mut self, record: EpochRecord) {
        self.records.push(record);
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` before the first epoch.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean total reward over the last `n` epochs (the "converged reward"
    /// the paper quotes per framework).
    pub fn final_reward(&self, n: usize) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let tail = &self.records[self.records.len().saturating_sub(n)..];
        Some(tail.iter().map(|r| r.metrics.total_reward).sum::<f64>() / tail.len() as f64)
    }

    /// Mean of an arbitrary metric over the last `n` epochs.
    pub fn final_metric<F: Fn(&EpochRecord) -> f64>(&self, n: usize, f: F) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let tail = &self.records[self.records.len().saturating_sub(n)..];
        Some(tail.iter().map(f).sum::<f64>() / tail.len() as f64)
    }

    /// CSV with one row per epoch (the Fig. 3 series).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,total_reward,avg_queue,empty_ratio,overflow_ratio,critic_loss,mean_entropy\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                r.epoch,
                r.metrics.total_reward,
                r.metrics.avg_queue,
                r.metrics.empty_ratio,
                r.metrics.overflow_ratio,
                r.critic_loss,
                r.mean_entropy,
            ));
        }
        out
    }
}

/// The CTDE trainer: environment + N actors + centralized critic + target.
pub struct CtdeTrainer<E: MultiAgentEnv> {
    env: E,
    actors: Vec<Box<dyn Actor>>,
    critic: Box<dyn Critic>,
    target: Box<dyn Critic>,
    actor_opts: Vec<Adam>,
    critic_opt: Adam,
    replay: ReplayBuffer,
    config: TrainConfig,
    rng: StdRng,
    history: TrainingHistory,
    epoch: usize,
    /// Completed multi-episode collection rounds; advances the base seed
    /// so successive [`CtdeTrainer::rollout_vec`] calls explore different
    /// episodes, deterministically.
    parallel_rounds: u64,
    /// How the update sweep computes its gradients (default: batched).
    update_engine: UpdateEngine,
}

impl<E: MultiAgentEnv> CtdeTrainer<E> {
    /// Assembles a trainer, validating that the actors/critic fit the
    /// environment's shapes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on any shape mismatch or bad
    /// hyper-parameter.
    pub fn new(
        env: E,
        actors: Vec<Box<dyn Actor>>,
        critic: Box<dyn Critic>,
        config: TrainConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        if actors.len() != env.n_agents() {
            return Err(CoreError::InvalidConfig(format!(
                "environment has {} agents but {} actors were supplied",
                env.n_agents(),
                actors.len()
            )));
        }
        for (n, a) in actors.iter().enumerate() {
            if a.obs_dim() != env.obs_dim() {
                return Err(CoreError::InvalidConfig(format!(
                    "actor {n} expects {}-dim observations, environment emits {}",
                    a.obs_dim(),
                    env.obs_dim()
                )));
            }
            if a.n_actions() != env.n_actions() {
                return Err(CoreError::InvalidConfig(format!(
                    "actor {n} has {} actions, environment needs {}",
                    a.n_actions(),
                    env.n_actions()
                )));
            }
        }
        if critic.state_dim() != env.state_dim() {
            return Err(CoreError::InvalidConfig(format!(
                "critic expects {}-dim states, environment emits {}",
                critic.state_dim(),
                env.state_dim()
            )));
        }
        let actor_opts = actors
            .iter()
            .map(|a| Adam::new(config.lr_actor, a.param_count()))
            .collect();
        let critic_opt = Adam::new(config.lr_critic, critic.param_count());
        let target = critic.clone_box();
        let replay = ReplayBuffer::new(config.replay_capacity);
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(CtdeTrainer {
            env,
            actors,
            critic,
            target,
            actor_opts,
            critic_opt,
            replay,
            config,
            rng,
            history: TrainingHistory::default(),
            epoch: 0,
            parallel_rounds: 0,
            update_engine: UpdateEngine::default(),
        })
    }

    /// Selects the update-sweep engine (default:
    /// [`UpdateEngine::Batched`]). Switching engines mid-run is safe:
    /// they produce bit-identical updates.
    pub fn set_update_engine(&mut self, engine: UpdateEngine) {
        self.update_engine = engine;
    }

    /// The active update-sweep engine.
    pub fn update_engine(&self) -> UpdateEngine {
        self.update_engine
    }

    /// The training history so far.
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// The actors (decentralized policies).
    pub fn actors(&self) -> &[Box<dyn Actor>] {
        &self.actors
    }

    /// The live critic `ψ`.
    pub fn critic(&self) -> &dyn Critic {
        self.critic.as_ref()
    }

    /// The environment.
    pub fn env_mut(&mut self) -> &mut E {
        &mut self.env
    }

    /// Epochs completed.
    pub fn epochs_done(&self) -> usize {
        self.epoch
    }

    /// Rolls out one episode with the current policies. Stochastic action
    /// sampling when `deterministic` is `false` (training); argmax when
    /// `true` (the paper's execution rule).
    ///
    /// # Errors
    ///
    /// Propagates environment and policy errors.
    pub fn rollout(
        &mut self,
        deterministic: bool,
    ) -> Result<(Episode, EpisodeMetrics, f64), CoreError> {
        let (mut obs, mut state) = self.env.reset();
        let mut episode = Episode::new();
        let mut acc = MetricsAccumulator::new();
        let mut entropy_sum = 0.0;
        let mut entropy_n = 0usize;
        loop {
            let mut actions = Vec::with_capacity(self.actors.len());
            for (n, actor) in self.actors.iter().enumerate() {
                let probs = actor.probs(&obs[n])?;
                entropy_sum += entropy(&probs);
                entropy_n += 1;
                actions.push(select_action(&probs, deterministic, &mut self.rng));
            }
            let out = self.env.step(&actions)?;
            acc.record_step(
                out.reward,
                &out.info.queue_levels,
                &out.info.cloud_empty,
                &out.info.cloud_full,
            );
            episode.push(Transition {
                state: state.clone(),
                observations: obs.clone(),
                actions,
                reward: out.reward,
                next_state: out.state.clone(),
                next_observations: out.observations.clone(),
                done: out.done,
            });
            obs = out.observations;
            state = out.state;
            if out.done {
                break;
            }
        }
        let mean_entropy = if entropy_n == 0 {
            0.0
        } else {
            entropy_sum / entropy_n as f64
        };
        Ok((episode, acc.finish(), mean_entropy))
    }

    /// One full epoch: rollout, store, update, maybe sync target.
    ///
    /// # Errors
    ///
    /// Propagates environment and model errors.
    pub fn run_epoch(&mut self) -> Result<EpochRecord, CoreError> {
        let (episode, metrics, mean_entropy) = self.rollout(false)?;
        self.replay.push(episode);
        let critic_loss = self.update()?;
        self.epoch += 1;
        if self.epoch.is_multiple_of(self.config.target_update_period) {
            self.target.set_params(&self.critic.params())?;
        }
        let record = EpochRecord {
            epoch: self.epoch - 1,
            metrics,
            critic_loss,
            mean_entropy,
        };
        self.history.records.push(record);
        Ok(record)
    }

    /// Trains for `epochs` epochs, appending to the history.
    ///
    /// # Errors
    ///
    /// Propagates the first epoch error.
    pub fn train(&mut self, epochs: usize) -> Result<&TrainingHistory, CoreError> {
        for _ in 0..epochs {
            self.run_epoch()?;
        }
        Ok(&self.history)
    }

    /// Lines 12–16 of Algorithm 1: sweep the batch, one Adam step per
    /// timestep sample. Returns the mean squared TD error.
    fn update(&mut self) -> Result<f64, CoreError> {
        self.update_sweep(self.config.batch_episodes)
    }

    /// One update sweep over the most recent `batch_episodes` episodes of
    /// the replay buffer, without rolling anything out — lines 12–16 of
    /// Algorithm 1 in minibatch form. Returns the mean squared TD error.
    ///
    /// **Gradient phase (frozen parameters).** All `V_φ(s')` targets, all
    /// `(V_ψ(s), ∇_ψ V)` pairs and every agent's MAPG gradients are
    /// evaluated under the parameters the sweep started with. Under
    /// [`UpdateEngine::Batched`] each of those collections is one flat
    /// batched runtime call (prebound adjoint lane slabs for quantum
    /// models); under [`UpdateEngine::Serial`] they are per-sample model
    /// calls producing bit-identical values.
    ///
    /// **Reduction phase (fixed order).** One Adam step per timestep
    /// sample, actors in agent order then the critic, in sweep order —
    /// identical under both engines by construction.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn update_sweep(&mut self, batch_episodes: usize) -> Result<f64, CoreError> {
        let gamma = self.config.gamma;
        let beta = self.config.entropy_coef;
        let episodes: Vec<Episode> = self.replay.recent(batch_episodes).cloned().collect();
        let transitions: Vec<&Transition> =
            episodes.iter().flat_map(|ep| ep.transitions()).collect();
        if transitions.is_empty() {
            return Ok(0.0);
        }

        // The target network φ is frozen for the whole sweep, so every
        // V_φ(s') of the batch is computed up front in one batched
        // runtime call (identical under both engines).
        let next_states: Vec<Vec<f64>> =
            transitions.iter().map(|tr| tr.next_state.clone()).collect();
        let v_next_all = self.target.values_batch(&next_states)?;

        // Critic gradient phase: (V_ψ(s), ∇_ψ V) per transition under the
        // frozen live critic.
        let critic_evals: Vec<(f64, Jacobian)> = match self.update_engine {
            UpdateEngine::Batched => {
                let states: Vec<Vec<f64>> = transitions.iter().map(|tr| tr.state.clone()).collect();
                self.critic.values_with_gradients_batch(&states)?
            }
            UpdateEngine::Serial => transitions
                .iter()
                .map(|tr| {
                    let (v, g) = self.critic.value_with_gradient(&tr.state)?;
                    Ok((v, Jacobian::from_row(g)))
                })
                .collect::<Result<_, CoreError>>()?,
        };

        // y_t = r + γ V_φ(s') − V_ψ(s): TD error = advantage, in sweep
        // order (also the loss the epoch reports).
        let ys: Vec<f64> = transitions
            .iter()
            .zip(&critic_evals)
            .zip(&v_next_all)
            .map(|((tr, (v_s, _)), &v_next)| tr.reward + gamma * v_next - v_s)
            .collect();

        // Actor gradient phase: each agent's whole (transition × circuit)
        // collection as one queue under its frozen policy.
        let actor_grads: Vec<Vec<Vec<f64>>> = self
            .actors
            .iter()
            .enumerate()
            .map(|(n, actor)| match self.update_engine {
                UpdateEngine::Batched => {
                    let obs_n: Vec<Vec<f64>> = transitions
                        .iter()
                        .map(|tr| tr.observations[n].clone())
                        .collect();
                    let act_n: Vec<usize> = transitions.iter().map(|tr| tr.actions[n]).collect();
                    actor.policy_gradients_batch(&obs_n, &act_n, &ys, beta)
                }
                UpdateEngine::Serial => transitions
                    .iter()
                    .zip(&ys)
                    .map(|(tr, &y)| {
                        actor.policy_gradient_with_entropy(
                            &tr.observations[n],
                            tr.actions[n],
                            y,
                            beta,
                        )
                    })
                    .collect(),
            })
            .collect::<Result<_, CoreError>>()?;

        // Deterministic fixed-order reduction: one Adam step per timestep
        // sample — actors in agent order (descend −y·∇log π_θn plus the
        // optional entropy bonus), then the critic (descend
        // ∇ψ‖y‖² = −2 y ∇ψ V_ψ(s) through one reused scratch buffer).
        let mut scratch = vec![0.0; self.critic.param_count()];
        let mut loss_sum = 0.0;
        for (t, ((_, critic_jac), &y)) in critic_evals.iter().zip(&ys).enumerate() {
            loss_sum += y * y;
            for (n, actor) in self.actors.iter_mut().enumerate() {
                let mut params = actor.params();
                self.actor_opts[n].step(&mut params, &actor_grads[n][t]);
                actor.set_params(&params)?;
            }
            critic_jac.vjp_into(&[-2.0 * y], &mut scratch);
            let mut params = self.critic.params();
            self.critic_opt.step(&mut params, &scratch);
            self.critic.set_params(&params)?;
        }
        Ok(loss_sum / transitions.len() as f64)
    }

    /// Evaluates the current policies without learning: `episodes`
    /// deterministic (argmax) rollouts, averaged.
    ///
    /// # Errors
    ///
    /// Propagates environment and policy errors.
    pub fn evaluate(&mut self, episodes: usize) -> Result<EpisodeMetrics, CoreError> {
        let mut agg = qmarl_env::metrics::MetricsMean::new();
        for _ in 0..episodes {
            let (_, m, _) = self.rollout(true)?;
            agg.add(&m);
        }
        agg.mean()
            .ok_or_else(|| CoreError::InvalidConfig("evaluate needs at least one episode".into()))
    }

    /// Captures the trainer's **complete optimisation state** — see
    /// [`TrainerCheckpoint`] for what that includes and the resume
    /// contract. `label` is a free-form tag (usually the sweep cell name).
    pub fn capture_state(&self, label: &str) -> TrainerCheckpoint {
        TrainerCheckpoint {
            label: label.to_string(),
            seed: self.config.seed,
            epoch: self.epoch,
            parallel_rounds: self.parallel_rounds,
            rng_state: self.rng.state(),
            actor_params: self.actors.iter().map(|a| a.params()).collect(),
            critic_params: self.critic.params(),
            target_params: self.target.params(),
            actor_opts: self.actor_opts.iter().map(Adam::state).collect(),
            critic_opt: self.critic_opt.state(),
            replay: self.replay.recent(self.replay.len()).cloned().collect(),
            history: self.history.clone(),
        }
    }

    /// Restores a [`TrainerCheckpoint`] into this trainer, which must be
    /// **freshly built with the same configuration** that produced the
    /// checkpoint. After restoring, continued training on the vectorized
    /// collection surface is bit-identical to a run that was never
    /// interrupted (the serial [`CtdeTrainer::rollout`] surface
    /// additionally depends on live environment state, which a checkpoint
    /// does not carry).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the checkpoint was taken
    /// under a different seed or its shapes (actor count, parameter and
    /// moment lengths) do not match this trainer's models.
    pub fn restore_state(&mut self, ckpt: &TrainerCheckpoint) -> Result<(), CoreError> {
        if ckpt.seed != self.config.seed {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint was captured under seed {} but this trainer is seeded {}; \
                 resuming would silently diverge",
                ckpt.seed, self.config.seed
            )));
        }
        if ckpt.actor_params.len() != self.actors.len()
            || ckpt.actor_opts.len() != self.actors.len()
        {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint holds {} actors / {} actor optimizers, trainer has {}",
                ckpt.actor_params.len(),
                ckpt.actor_opts.len(),
                self.actors.len()
            )));
        }
        // Every length is validated before anything is mutated, so a
        // corrupt checkpoint can never leave the trainer half-restored.
        for (n, (actor, (params, opt))) in self
            .actors
            .iter()
            .zip(ckpt.actor_params.iter().zip(&ckpt.actor_opts))
            .enumerate()
        {
            if params.len() != actor.param_count() {
                return Err(CoreError::InvalidConfig(format!(
                    "checkpoint actor {n} holds {} parameters, model has {}",
                    params.len(),
                    actor.param_count()
                )));
            }
            if opt.m.len() != actor.param_count() || opt.v.len() != actor.param_count() {
                return Err(CoreError::InvalidConfig(format!(
                    "checkpoint actor {n} optimizer holds {} moments, model has {} parameters",
                    opt.m.len(),
                    actor.param_count()
                )));
            }
        }
        let critic_len = self.critic.param_count();
        if ckpt.critic_params.len() != critic_len || ckpt.target_params.len() != critic_len {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint critic/target hold {}/{} parameters, model has {critic_len}",
                ckpt.critic_params.len(),
                ckpt.target_params.len()
            )));
        }
        if ckpt.critic_opt.m.len() != critic_len || ckpt.critic_opt.v.len() != critic_len {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint critic optimizer holds {}/{} first/second moments, \
                 model has {critic_len} parameters",
                ckpt.critic_opt.m.len(),
                ckpt.critic_opt.v.len(),
            )));
        }
        for (actor, params) in self.actors.iter_mut().zip(&ckpt.actor_params) {
            actor.set_params(params)?;
        }
        self.critic.set_params(&ckpt.critic_params)?;
        self.target.set_params(&ckpt.target_params)?;
        for (opt, state) in self.actor_opts.iter_mut().zip(&ckpt.actor_opts) {
            opt.set_state(state);
        }
        self.critic_opt.set_state(&ckpt.critic_opt);
        self.replay = ReplayBuffer::new(self.config.replay_capacity);
        for ep in &ckpt.replay {
            self.replay.push(ep.clone());
        }
        self.history = ckpt.history.clone();
        self.epoch = ckpt.epoch;
        self.parallel_rounds = ckpt.parallel_rounds;
        self.rng = StdRng::from_state(ckpt.rng_state);
        Ok(())
    }
}

/// Converts a runtime trace into the trainer's replay/metric triple.
fn trace_into_episode(trace: EpisodeTrace) -> (Episode, EpisodeMetrics, f64) {
    let metrics = trace.metrics();
    let mean_entropy = trace.mean_aux();
    let mut episode = Episode::new();
    for step in trace.steps {
        episode.push(Transition {
            state: step.state,
            observations: step.observations,
            actions: step.actions,
            reward: step.reward,
            next_state: step.next_state,
            next_observations: step.next_observations,
            done: step.done,
        });
    }
    (episode, metrics, mean_entropy)
}

/// The vectorized collection surface: all in-flight episodes advance in
/// lockstep over a [`ReplicatedVecEnv`] and every tick's `lanes × agents`
/// policy evaluations reach the batched circuit executor as one flat
/// forward batch (see `qmarl_runtime::rollout`).
///
/// Episode `i` of a collection round seeds from `(config.seed, round,
/// i)` only, so the lane count never changes a result: `lanes` is a
/// throughput knob, and a single-stream rollout is `lanes = 1`.
impl<E: SeedableEnv + Clone + Send + Sync> CtdeTrainer<E> {
    /// Rolls out `n_episodes` under the frozen current policies on a
    /// `lanes`-wide vector environment (waves of `lanes` episodes in
    /// lockstep). Returns `(episode, metrics, mean policy entropy)` per
    /// episode in episode order.
    ///
    /// # Errors
    ///
    /// Propagates environment and policy errors, and rejects `lanes == 0`.
    pub fn rollout_vec(
        &mut self,
        n_episodes: usize,
        lanes: usize,
        deterministic: bool,
    ) -> Result<Vec<(Episode, EpisodeMetrics, f64)>, CoreError> {
        let base_seed = derive_seed(self.config.seed, 0xC0_11EC7, self.parallel_rounds);
        self.parallel_rounds += 1;
        let lanes = lanes.min(n_episodes.max(1));
        let mut venv = ReplicatedVecEnv::new(&self.env, lanes)?;
        let mut policy = ActorsVecPolicy::new(&self.actors, self.env.obs_dim(), deterministic);
        let traces = collect_episodes_vec(&mut venv, &mut policy, n_episodes, base_seed)
            .map_err(CoreError::from)?;
        Ok(traces.into_iter().map(trace_into_episode).collect())
    }

    /// One vectorized epoch: collect `episodes_per_epoch` episodes in
    /// lockstep waves of `lanes`, feed them all into the replay buffer,
    /// then run the update sweep over the enlarged batch (the paper's
    /// Algorithm 1 with line 8 amortised across lanes). Records one epoch
    /// entry whose metrics average the collected episodes.
    ///
    /// # Errors
    ///
    /// Propagates environment and model errors, and rejects an epoch of
    /// zero episodes or of more episodes than the replay buffer holds.
    pub fn run_epoch_vec(
        &mut self,
        episodes_per_epoch: usize,
        lanes: usize,
    ) -> Result<EpochRecord, CoreError> {
        if episodes_per_epoch == 0 {
            return Err(CoreError::InvalidConfig(
                "an epoch needs at least one episode".into(),
            ));
        }
        if episodes_per_epoch > self.config.replay_capacity {
            return Err(CoreError::InvalidConfig(format!(
                "episodes_per_epoch {episodes_per_epoch} exceeds replay capacity {}: \
                 collected episodes would be evicted before the update sweep",
                self.config.replay_capacity
            )));
        }
        let mut agg = MetricsMean::new();
        let mut entropy_sum = 0.0;
        for (episode, metrics, mean_entropy) in
            self.rollout_vec(episodes_per_epoch, lanes, false)?
        {
            agg.add(&metrics);
            entropy_sum += mean_entropy;
            self.replay.push(episode);
        }
        let metrics = agg.mean().expect("episodes_per_epoch > 0");
        // Sweep everything this epoch collected (or the configured batch,
        // whichever is larger) — a multi-episode epoch must train on the
        // episodes it just paid to roll out, not only the newest one.
        let critic_loss = self.update_sweep(episodes_per_epoch.max(self.config.batch_episodes))?;
        self.epoch += 1;
        if self.epoch.is_multiple_of(self.config.target_update_period) {
            self.target.set_params(&self.critic.params())?;
        }
        let record = EpochRecord {
            epoch: self.epoch - 1,
            metrics,
            critic_loss,
            mean_entropy: entropy_sum / episodes_per_epoch as f64,
        };
        self.history.records.push(record);
        Ok(record)
    }

    /// Trains for `epochs` vectorized epochs (see
    /// [`CtdeTrainer::run_epoch_vec`]).
    ///
    /// # Errors
    ///
    /// Propagates the first epoch error.
    pub fn train_vec(
        &mut self,
        epochs: usize,
        episodes_per_epoch: usize,
        lanes: usize,
    ) -> Result<&TrainingHistory, CoreError> {
        for _ in 0..epochs {
            self.run_epoch_vec(episodes_per_epoch, lanes)?;
        }
        Ok(&self.history)
    }

    /// Vectorized deterministic evaluation: like [`CtdeTrainer::evaluate`]
    /// (argmax rollouts, averaged) but collected in lockstep waves of
    /// `lanes`. Does not mutate policies or the replay buffer.
    ///
    /// # Errors
    ///
    /// Propagates environment and policy errors, and rejects
    /// `episodes == 0`.
    pub fn evaluate_vec(
        &mut self,
        episodes: usize,
        lanes: usize,
    ) -> Result<EpisodeMetrics, CoreError> {
        let mut agg = MetricsMean::new();
        for (_, m, _) in self.rollout_vec(episodes, lanes, true)? {
            agg.add(&m);
        }
        agg.mean()
            .ok_or_else(|| CoreError::InvalidConfig("evaluate needs at least one episode".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::policy::{ClassicalActor, QuantumActor};
    use crate::value::{ClassicalCritic, QuantumCritic};
    use qmarl_env::single_hop::{EnvConfig, SingleHopEnv};

    fn small_env(seed: u64) -> SingleHopEnv {
        let mut cfg = EnvConfig::paper_default();
        cfg.episode_limit = 15;
        SingleHopEnv::new(cfg, seed).unwrap()
    }

    fn small_train_config() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            target_update_period: 2,
            ..TrainConfig::paper_default()
        }
    }

    fn quantum_setup(seed: u64) -> CtdeTrainer<SingleHopEnv> {
        let env = small_env(seed);
        let actors: Vec<Box<dyn Actor>> = (0..4)
            .map(|n| Box::new(QuantumActor::new(4, 4, 4, 50, seed + n).unwrap()) as Box<dyn Actor>)
            .collect();
        let critic = Box::new(QuantumCritic::new(4, 16, 50, seed + 100).unwrap());
        CtdeTrainer::new(env, actors, critic, small_train_config()).unwrap()
    }

    #[test]
    fn trainer_validates_shapes() {
        let env = small_env(0);
        let actors: Vec<Box<dyn Actor>> = (0..3)
            .map(|n| Box::new(ClassicalActor::new(&[4, 5, 4], n).unwrap()) as Box<dyn Actor>)
            .collect();
        let critic = Box::new(ClassicalCritic::new(&[16, 2, 1], 0).unwrap());
        // 3 actors for a 4-agent environment.
        assert!(CtdeTrainer::new(env, actors, critic, small_train_config()).is_err());

        let env = small_env(0);
        let actors: Vec<Box<dyn Actor>> = (0..4)
            .map(|n| Box::new(ClassicalActor::new(&[3, 5, 4], n).unwrap()) as Box<dyn Actor>)
            .collect();
        let critic = Box::new(ClassicalCritic::new(&[16, 2, 1], 0).unwrap());
        // Wrong obs dim.
        assert!(CtdeTrainer::new(env, actors, critic, small_train_config()).is_err());

        let env = small_env(0);
        let actors: Vec<Box<dyn Actor>> = (0..4)
            .map(|n| Box::new(ClassicalActor::new(&[4, 5, 4], n).unwrap()) as Box<dyn Actor>)
            .collect();
        let critic = Box::new(ClassicalCritic::new(&[12, 2, 1], 0).unwrap());
        // Wrong state dim.
        assert!(CtdeTrainer::new(env, actors, critic, small_train_config()).is_err());
    }

    #[test]
    fn rollout_produces_full_episode() {
        let mut t = quantum_setup(1);
        let (ep, m, ent) = t.rollout(false).unwrap();
        assert_eq!(ep.len(), 15);
        assert_eq!(m.len, 15);
        assert!(m.total_reward <= 0.0);
        assert!(ent > 0.0 && ent <= (4.0f64).ln() + 1e-9);
        let last = ep.transitions().last().unwrap();
        assert!(last.done);
        assert!(ep.transitions().iter().rev().skip(1).all(|tr| !tr.done));
    }

    #[test]
    fn epoch_updates_parameters_and_history() {
        let mut t = quantum_setup(2);
        let before: Vec<Vec<f64>> = t.actors().iter().map(|a| a.params()).collect();
        let critic_before = t.critic().params();
        let rec = t.run_epoch().unwrap();
        assert_eq!(rec.epoch, 0);
        assert!(rec.critic_loss > 0.0);
        let after: Vec<Vec<f64>> = t.actors().iter().map(|a| a.params()).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!(
                b.iter().zip(a).any(|(x, y)| (x - y).abs() > 1e-12),
                "actor params must move"
            );
        }
        assert!(
            critic_before
                .iter()
                .zip(&t.critic().params())
                .any(|(x, y)| (x - y).abs() > 1e-12),
            "critic params must move"
        );
        assert_eq!(t.history().len(), 1);
        assert_eq!(t.epochs_done(), 1);
    }

    #[test]
    fn target_network_syncs_on_period() {
        let mut t = quantum_setup(3);
        t.run_epoch().unwrap(); // epoch 1: no sync (period 2)
        let target_params = t.target.params();
        let critic_params = t.critic.params();
        assert!(target_params
            .iter()
            .zip(&critic_params)
            .any(|(a, b)| (a - b).abs() > 1e-12));
        t.run_epoch().unwrap(); // epoch 2: sync
        assert_eq!(t.target.params(), t.critic.params());
    }

    #[test]
    fn training_is_reproducible() {
        let run = |seed: u64| {
            let mut cfg = small_train_config();
            cfg.seed = seed;
            let env = small_env(seed);
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|n| {
                    Box::new(ClassicalActor::new(&[4, 5, 4], seed + n).unwrap()) as Box<dyn Actor>
                })
                .collect();
            let critic = Box::new(ClassicalCritic::new(&[16, 2, 1], seed).unwrap());
            let mut t = CtdeTrainer::new(env, actors, critic, cfg).unwrap();
            t.train(3).unwrap();
            t.history()
                .records()
                .iter()
                .map(|r| r.metrics.total_reward)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn history_final_reward() {
        let mut t = quantum_setup(4);
        t.train(3).unwrap();
        let h = t.history();
        assert_eq!(h.len(), 3);
        let f = h.final_reward(2).unwrap();
        let manual: f64 = h.records()[1..]
            .iter()
            .map(|r| r.metrics.total_reward)
            .sum::<f64>()
            / 2.0;
        assert!((f - manual).abs() < 1e-12);
        assert!(h.final_metric(2, |r| r.metrics.avg_queue).is_some());
        assert!(TrainingHistory::default().final_reward(5).is_none());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = quantum_setup(6);
        t.train(2).unwrap();
        let csv = t.history().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("epoch,total_reward"));
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn rollout_vec_is_lane_count_invariant() {
        // Same trainer seed, same round counter → every lane count
        // reproduces the single-lane collection exactly, including
        // partial final waves.
        let reference = quantum_setup(21).rollout_vec(5, 1, false).unwrap();
        assert_eq!(reference.len(), 5);
        for lanes in [2usize, 5, 8] {
            let got = quantum_setup(21).rollout_vec(5, lanes, false).unwrap();
            assert_eq!(got, reference, "lanes={lanes}");
        }
        // Episodes are full-length and distinct from one another.
        assert_eq!(reference[0].0.len(), 15);
        assert_ne!(reference[0].1.total_reward, reference[1].1.total_reward);
        // Deterministic (argmax) collection is lane-count invariant too.
        assert_eq!(
            quantum_setup(22).rollout_vec(3, 1, true).unwrap(),
            quantum_setup(22).rollout_vec(3, 2, true).unwrap()
        );
    }

    #[test]
    fn successive_parallel_rounds_differ_deterministically() {
        let totals = |t: &mut CtdeTrainer<SingleHopEnv>| -> Vec<f64> {
            t.rollout_vec(2, 2, false)
                .unwrap()
                .iter()
                .map(|(_, m, _)| m.total_reward)
                .collect()
        };
        let mut t = quantum_setup(12);
        let a = totals(&mut t);
        let b = totals(&mut t);
        assert_ne!(a, b, "rounds must explore different episodes");
        // A fresh trainer replays the exact same sequence.
        assert_eq!(a, totals(&mut quantum_setup(12)));
    }

    #[test]
    fn rollout_vec_is_lane_count_invariant_under_sampled_backend() {
        // Stochastic backends opt out of the prebound fast path, but the
        // collector must still be lane-count invariant bit for bit: shot
        // streams are content-addressed, never positional.
        use qmarl_runtime::backend::ExecutionBackend;
        let sampled_setup = || {
            let backend = ExecutionBackend::Sampled { shots: 48, seed: 6 };
            let env = small_env(41);
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|n| {
                    Box::new(
                        QuantumActor::new(4, 4, 4, 50, 41 + n)
                            .unwrap()
                            .with_backend(backend.clone()),
                    ) as Box<dyn Actor>
                })
                .collect();
            let critic = Box::new(
                QuantumCritic::new(4, 16, 50, 141)
                    .unwrap()
                    .with_backend(backend),
            );
            CtdeTrainer::new(env, actors, critic, small_train_config()).unwrap()
        };
        assert_eq!(
            sampled_setup().rollout_vec(3, 1, false).unwrap(),
            sampled_setup().rollout_vec(3, 3, false).unwrap()
        );
    }

    #[test]
    fn rollout_vec_works_with_classical_actors() {
        // The per-agent fallback route drives the same collector, and is
        // lane-count invariant too.
        let classical_setup = || {
            let env = small_env(23);
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|n| {
                    Box::new(ClassicalActor::new(&[4, 5, 4], 23 + n).unwrap()) as Box<dyn Actor>
                })
                .collect();
            let critic = Box::new(ClassicalCritic::new(&[16, 2, 1], 23).unwrap());
            CtdeTrainer::new(env, actors, critic, small_train_config()).unwrap()
        };
        assert_eq!(
            classical_setup().rollout_vec(3, 1, false).unwrap(),
            classical_setup().rollout_vec(3, 3, false).unwrap()
        );
    }

    #[test]
    fn vec_epoch_trains_and_records() {
        let mut t = quantum_setup(24);
        let before: Vec<f64> = t.critic().params();
        let rec = t.run_epoch_vec(3, 2).unwrap();
        assert_eq!(rec.epoch, 0);
        assert!(rec.critic_loss > 0.0);
        assert!(rec.mean_entropy > 0.0);
        assert!(t
            .critic()
            .params()
            .iter()
            .zip(&before)
            .any(|(x, y)| (x - y).abs() > 1e-12));
        assert_eq!(t.history().len(), 1);
        assert!(t.run_epoch_vec(0, 1).is_err());
    }

    #[test]
    fn parallel_epoch_trains_and_records() {
        // One wave of three parallel lanes per epoch.
        let mut t = quantum_setup(13);
        let before: Vec<f64> = t.critic().params();
        let rec = t.run_epoch_vec(3, 3).unwrap();
        assert_eq!(rec.epoch, 0);
        assert!(rec.critic_loss > 0.0);
        assert!(rec.mean_entropy > 0.0);
        assert_ne!(t.critic().params(), before);
        assert_eq!(t.history().len(), 1);
        assert_eq!(t.epochs_done(), 1);
    }

    #[test]
    fn vec_and_parallel_training_histories_match() {
        // Whole-run equivalence of one lane and three parallel lanes: same
        // seeds, same updates, same curves.
        let mut a = quantum_setup(25);
        let mut b = quantum_setup(25);
        a.train_vec(2, 3, 1).unwrap();
        b.train_vec(2, 3, 3).unwrap();
        assert_eq!(a.history(), b.history());
        assert_eq!(a.critic().params(), b.critic().params());
        for (x, y) in a.actors().iter().zip(b.actors()) {
            assert_eq!(x.params(), y.params());
        }
    }

    #[test]
    fn evaluate_vec_matches_shape_of_serial_evaluate() {
        let mut t = quantum_setup(26);
        let m = t.evaluate_vec(3, 2).unwrap();
        assert!(m.total_reward <= 0.0);
        assert!(m.avg_queue >= 0.0);
        assert!(t.evaluate_vec(0, 2).is_err());
    }

    #[test]
    fn batched_update_engine_matches_serial_bit_exactly() {
        // Same seed, both engines: identical histories and identical
        // final parameters, for quantum and classical stacks.
        let quantum = |engine: UpdateEngine| {
            let mut t = quantum_setup(31);
            t.set_update_engine(engine);
            t.train(2).unwrap();
            t
        };
        let a = quantum(UpdateEngine::Serial);
        let b = quantum(UpdateEngine::Batched);
        assert_eq!(a.history(), b.history());
        assert_eq!(a.critic().params(), b.critic().params());
        for (x, y) in a.actors().iter().zip(b.actors()) {
            assert_eq!(x.params(), y.params());
        }

        let classical = |engine: UpdateEngine| {
            let env = small_env(32);
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|n| {
                    Box::new(ClassicalActor::new(&[4, 5, 4], 32 + n).unwrap()) as Box<dyn Actor>
                })
                .collect();
            let critic = Box::new(ClassicalCritic::new(&[16, 2, 1], 32).unwrap());
            let mut t = CtdeTrainer::new(env, actors, critic, small_train_config()).unwrap();
            t.set_update_engine(engine);
            t.train(2).unwrap();
            t
        };
        let a = classical(UpdateEngine::Serial);
        let b = classical(UpdateEngine::Batched);
        assert_eq!(a.history(), b.history());
        assert_eq!(a.critic().params(), b.critic().params());
    }

    #[test]
    fn update_sweep_without_replay_is_a_no_op() {
        let mut t = quantum_setup(33);
        assert_eq!(t.update_sweep(4).unwrap(), 0.0);
        assert_eq!(t.update_engine(), UpdateEngine::Batched);
    }

    #[test]
    fn restored_trainer_resumes_vec_training_bit_identically() {
        // One uninterrupted 4-epoch run vs capture-at-2 + restore + 2 more:
        // identical histories and identical final parameters, assert_eq.
        let mut full = quantum_setup(51);
        full.train_vec(4, 2, 2).unwrap();

        let mut first = quantum_setup(51);
        first.train_vec(2, 2, 2).unwrap();
        let ckpt = first.capture_state("resume-test");
        drop(first);

        let mut resumed = quantum_setup(51);
        resumed.restore_state(&ckpt).unwrap();
        assert_eq!(resumed.epochs_done(), 2);
        resumed.train_vec(2, 2, 2).unwrap();
        assert_eq!(resumed.history(), full.history());
        assert_eq!(resumed.critic().params(), full.critic().params());
        for (a, b) in resumed.actors().iter().zip(full.actors()) {
            assert_eq!(a.params(), b.params());
        }
        assert_eq!(
            resumed.capture_state("end").replay,
            full.capture_state("end").replay
        );
    }

    #[test]
    fn restore_rejects_mismatched_checkpoints() {
        let mut t = quantum_setup(52);
        t.train_vec(1, 2, 2).unwrap();
        let ckpt = t.capture_state("x");

        // Different config seed: refused.
        let mut other = {
            let mut cfg = small_train_config();
            cfg.seed = 999;
            let env = small_env(52);
            let actors: Vec<Box<dyn Actor>> = (0..4)
                .map(|n| {
                    Box::new(QuantumActor::new(4, 4, 4, 50, 52 + n).unwrap()) as Box<dyn Actor>
                })
                .collect();
            let critic = Box::new(QuantumCritic::new(4, 16, 50, 152).unwrap());
            CtdeTrainer::new(env, actors, critic, cfg).unwrap()
        };
        assert!(other.restore_state(&ckpt).is_err());

        // Wrong actor count: refused.
        let mut short = ckpt.clone();
        short.actor_params.pop();
        short.actor_opts.pop();
        assert!(quantum_setup(52).restore_state(&short).is_err());

        // Wrong optimizer moment length: refused before any mutation.
        let mut bad_opt = ckpt.clone();
        bad_opt.actor_opts[0].m.pop();
        assert!(quantum_setup(52).restore_state(&bad_opt).is_err());

        // Truncated parameter vector on a *later* actor: refused, and the
        // earlier actors are left untouched (no partial restore).
        let mut bad_params = ckpt.clone();
        bad_params.actor_params[2].pop();
        let mut target = quantum_setup(52);
        let before: Vec<Vec<f64>> = target.actors().iter().map(|a| a.params()).collect();
        assert!(target.restore_state(&bad_params).is_err());
        let after: Vec<Vec<f64>> = target.actors().iter().map(|a| a.params()).collect();
        assert_eq!(before, after, "failed restore must not mutate the trainer");

        // Wrong critic moment length: refused.
        let mut bad_critic = ckpt;
        bad_critic.critic_opt.v.push(0.0);
        assert!(quantum_setup(52).restore_state(&bad_critic).is_err());
    }

    #[test]
    fn evaluate_runs_deterministically() {
        let mut t = quantum_setup(7);
        let a = t.evaluate(2).unwrap();
        assert!(a.total_reward <= 0.0);
        assert!(t.evaluate(0).is_err());
    }
}
