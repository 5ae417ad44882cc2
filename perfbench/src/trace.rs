//! Benchmark-side tracing: decorators around the trainer's actors, critic
//! and environment that forward every call unchanged and record, per
//! layer, busy time, call count and item count.
//!
//! The decorators forward `runtime_handle` too, so the vectorized
//! collector still fuses the actors into its flat prebound route. That
//! route calls the executor directly, and Adam runs inside the trainer, so
//! neither can be timed as a span: their time is the epoch's residual
//! outside every timed call, and two timestamp-bounded windows of that
//! residual (epoch start → first update call, last gradient call → epoch
//! end) estimate them. A traced run must reproduce the untraced run's
//! history bit for bit; the workloads assert it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qmarl_core::prelude::*;
use qmarl_env::prelude::{EnvError, MultiAgentEnv, SeedableEnv, StepOutcome};
use qmarl_env::scenario::{build_scenario_with, ScenarioEnv, ScenarioParams};
use qmarl_runtime::qnn::CompiledVqc;
use qmarl_vqc::grad::Jacobian;

/// Busy time, calls and items of one layer.
#[derive(Debug, Default)]
pub struct Layer {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

impl Layer {
    fn time<R>(&self, items: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> LayerTotals {
        LayerTotals {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
        }
    }
}

/// A [`Layer`]'s totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTotals {
    ns: u64,
    calls: u64,
    items: u64,
}

impl LayerTotals {
    fn minus(self, before: LayerTotals) -> LayerTotals {
        LayerTotals {
            ns: self.ns - before.ns,
            calls: self.calls - before.calls,
            items: self.items - before.items,
        }
    }

    fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// The layers of one training cell, shared by its decorators.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    env_step: Layer,
    target_value: Layer,
    critic_grad: Layer,
    actor_grad: Layer,
    param_io: Layer,
    /// Circuit evaluations of gradient calls, computed from batch sizes
    /// and the gradient rule.
    grad_evals: AtomicU64,
    /// Start of the latest target-value call: the update sweep's first
    /// call, so the end of the epoch's rollout phase.
    update_start_ns: AtomicU64,
    /// End of the latest actor-gradient call: the start of the Adam
    /// reduction phase.
    grad_end_ns: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            base: Instant::now(),
            env_step: Layer::default(),
            target_value: Layer::default(),
            critic_grad: Layer::default(),
            actor_grad: Layer::default(),
            param_io: Layer::default(),
            grad_evals: AtomicU64::new(0),
            update_start_ns: AtomicU64::new(0),
            grad_end_ns: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn totals(&self) -> [LayerTotals; 5] {
        [
            self.env_step.snapshot(),
            self.target_value.snapshot(),
            self.critic_grad.snapshot(),
            self.actor_grad.snapshot(),
            self.param_io.snapshot(),
        ]
    }

    /// Runs one epoch and splits its wall time into phases.
    pub fn epoch<R>(&self, n_agents: usize, run: impl FnOnce() -> R) -> (R, EpochTrace) {
        let before = self.totals();
        let evals_before = self.grad_evals.load(Ordering::Relaxed);
        let t0 = self.now_ns();
        let out = run();
        let t1 = self.now_ns();
        let after = self.totals();
        let [env_step, target, critic, actor, param_io] =
            std::array::from_fn(|i| after[i].minus(before[i]));
        let update_start = self.update_start_ns.load(Ordering::Relaxed).clamp(t0, t1);
        let grad_end = self
            .grad_end_ns
            .load(Ordering::Relaxed)
            .clamp(update_start, t1);
        let ms = |ns: u64| ns as f64 / 1e6;
        let trace = EpochTrace {
            epoch_ms: ms(t1 - t0),
            env_step_ms: env_step.ms(),
            rollout_policy_ms: ms(update_start - t0) - env_step.ms(),
            target_value_ms: target.ms(),
            critic_grad_ms: critic.ms(),
            actor_grad_ms: actor.ms(),
            param_io_ms: param_io.ms(),
            adam_ms: ms(t1 - grad_end) - param_io.ms(),
            env_steps: env_step.calls,
            grad_steps: actor.items + critic.items,
            circuit_evals: env_step.calls * n_agents as u64
                + target.items
                + (self.grad_evals.load(Ordering::Relaxed) - evals_before),
        };
        (out, trace)
    }
}

/// One traced epoch: wall time split into named phases, plus work counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochTrace {
    pub epoch_ms: f64,
    pub env_step_ms: f64,
    /// Rollout phase minus env stepping: policy forward, action
    /// sampling and episode bookkeeping. A window of [`Self::other_ms`].
    pub rollout_policy_ms: f64,
    pub target_value_ms: f64,
    pub critic_grad_ms: f64,
    pub actor_grad_ms: f64,
    pub param_io_ms: f64,
    /// Reduction phase minus parameter reads/writes: the Adam steps. A
    /// window of [`Self::other_ms`].
    pub adam_ms: f64,
    /// Env steps, counted at the env decorator.
    pub env_steps: u64,
    /// Per-sample gradients (transitions × (agents + critic)), counted
    /// at the actor and critic decorators.
    pub grad_steps: u64,
    /// Circuit evaluations, computed from batch sizes: one forward per
    /// agent per env step, one per target value, and per gradient item
    /// one adjoint sweep (ideal) or the forward plus every
    /// parameter-shift evaluation.
    pub circuit_evals: u64,
}

impl EpochTrace {
    /// Epoch time outside every timed decorator call: rollout forward,
    /// Adam and glue. `rollout_policy_ms` and `adam_ms` are windows of it
    /// bounded by timestamps, not timed spans.
    pub fn other_ms(&self) -> f64 {
        self.epoch_ms
            - self.env_step_ms
            - self.target_value_ms
            - self.critic_grad_ms
            - self.actor_grad_ms
            - self.param_io_ms
    }

    /// The exact work counts, for repeat checks.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.env_steps, self.grad_steps, self.circuit_evals)
    }
}

/// Circuit evaluations one gradient item costs: one forward-plus-adjoint
/// sweep on the ideal backend, otherwise the forward plus every
/// parameter-shift evaluation (2 per plain rotation, 4 per controlled).
fn evals_per_grad(compiled: &CompiledVqc) -> u64 {
    if compiled.backend().is_ideal() {
        return 1;
    }
    1 + compiled
        .compiled()
        .occurrences()
        .iter()
        .map(|occ| if occ.controlled { 4 } else { 2 })
        .sum::<u64>()
}

/// An actor that times every call and forwards it unchanged.
pub struct TracedActor {
    inner: Box<dyn Actor>,
    tracer: Arc<Tracer>,
    evals_per_grad: u64,
}

impl Actor for TracedActor {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }
    fn n_actions(&self) -> usize {
        self.inner.n_actions()
    }
    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
    fn probs(&self, obs: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.inner.probs(obs)
    }
    fn probs_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        self.inner.probs_batch(batch)
    }
    fn runtime_handle(&self) -> Option<(&CompiledVqc, &[f64])> {
        self.inner.runtime_handle()
    }
    fn policy_gradient(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.tracer
            .grad_evals
            .fetch_add(self.evals_per_grad, Ordering::Relaxed);
        self.tracer
            .actor_grad
            .time(1, || self.inner.policy_gradient(obs, action, advantage))
    }
    fn policy_gradient_with_entropy(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
        entropy_coef: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.tracer
            .grad_evals
            .fetch_add(self.evals_per_grad, Ordering::Relaxed);
        self.tracer.actor_grad.time(1, || {
            self.inner
                .policy_gradient_with_entropy(obs, action, advantage, entropy_coef)
        })
    }
    fn policy_gradients_batch(
        &self,
        obs: &[Vec<f64>],
        actions: &[usize],
        advantages: &[f64],
        entropy_coef: f64,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        self.tracer
            .grad_evals
            .fetch_add(self.evals_per_grad * obs.len() as u64, Ordering::Relaxed);
        let out = self.tracer.actor_grad.time(obs.len(), || {
            self.inner
                .policy_gradients_batch(obs, actions, advantages, entropy_coef)
        });
        let end = self.tracer.now_ns();
        self.tracer.grad_end_ns.store(end, Ordering::Relaxed);
        out
    }
    fn params(&self) -> Vec<f64> {
        self.tracer.param_io.time(1, || self.inner.params())
    }
    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError> {
        let inner = &mut self.inner;
        self.tracer.param_io.time(1, || inner.set_params(params))
    }
    fn clone_box(&self) -> Box<dyn Actor> {
        Box::new(TracedActor {
            inner: self.inner.clone_box(),
            tracer: self.tracer.clone(),
            evals_per_grad: self.evals_per_grad,
        })
    }
}

/// A critic that times every call and forwards it unchanged. In the
/// trainer only the target network calls `values_batch`, so value calls
/// count as the target-value layer.
pub struct TracedCritic {
    inner: Box<dyn Critic>,
    tracer: Arc<Tracer>,
    evals_per_grad: u64,
}

impl Critic for TracedCritic {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }
    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
    fn value(&self, state: &[f64]) -> Result<f64, CoreError> {
        self.tracer.target_value.time(1, || self.inner.value(state))
    }
    fn values_batch(&self, states: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
        let start = self.tracer.now_ns();
        self.tracer.update_start_ns.store(start, Ordering::Relaxed);
        self.tracer
            .target_value
            .time(states.len(), || self.inner.values_batch(states))
    }
    fn value_with_gradient(&self, state: &[f64]) -> Result<(f64, Vec<f64>), CoreError> {
        self.tracer
            .grad_evals
            .fetch_add(self.evals_per_grad, Ordering::Relaxed);
        self.tracer
            .critic_grad
            .time(1, || self.inner.value_with_gradient(state))
    }
    fn values_with_gradients_batch(
        &self,
        states: &[Vec<f64>],
    ) -> Result<Vec<(f64, Jacobian)>, CoreError> {
        self.tracer
            .grad_evals
            .fetch_add(self.evals_per_grad * states.len() as u64, Ordering::Relaxed);
        self.tracer.critic_grad.time(states.len(), || {
            self.inner.values_with_gradients_batch(states)
        })
    }
    fn params(&self) -> Vec<f64> {
        self.tracer.param_io.time(1, || self.inner.params())
    }
    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError> {
        let inner = &mut self.inner;
        self.tracer.param_io.time(1, || inner.set_params(params))
    }
    fn clone_box(&self) -> Box<dyn Critic> {
        Box::new(TracedCritic {
            inner: self.inner.clone_box(),
            tracer: self.tracer.clone(),
            evals_per_grad: self.evals_per_grad,
        })
    }
}

/// An environment that times `step` and forwards everything unchanged.
/// Clones (the vector environment's lanes) share the tracer.
#[derive(Clone)]
pub struct TracedEnv<E> {
    inner: E,
    tracer: Arc<Tracer>,
}

impl<E: MultiAgentEnv> MultiAgentEnv for TracedEnv<E> {
    fn n_agents(&self) -> usize {
        self.inner.n_agents()
    }
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }
    fn n_actions(&self) -> usize {
        self.inner.n_actions()
    }
    fn episode_limit(&self) -> usize {
        self.inner.episode_limit()
    }
    fn reset(&mut self) -> (Vec<Vec<f64>>, Vec<f64>) {
        self.inner.reset()
    }
    fn step(&mut self, actions: &[usize]) -> Result<StepOutcome, EnvError> {
        let inner = &mut self.inner;
        self.tracer.env_step.time(1, || inner.step(actions))
    }
}

impl<E: SeedableEnv> SeedableEnv for TracedEnv<E> {
    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }
}

/// A traced trainer of the Proposed framework on a registry scenario.
pub type TracedTrainer = CtdeTrainer<TracedEnv<Box<dyn ScenarioEnv>>>;

/// Builds the models, seeds and environment `build_kind_scenario_trainer`
/// builds for a harness cell of the Proposed framework, each wrapped in a
/// decorator reporting to `tracer`. `train.seed` is the cell seed.
pub fn traced_trainer(
    scenario: &str,
    backend: &ExecutionBackend,
    train: &TrainConfig,
    episode_limit: usize,
    tracer: &Arc<Tracer>,
) -> Result<TracedTrainer, CoreError> {
    let params = ScenarioParams::seeded(train.seed).with_episode_limit(episode_limit);
    let env = build_scenario_with(scenario, &params)?;
    let actors = build_scenario_actors(FrameworkKind::Proposed, scenario, backend, train)?
        .into_iter()
        .map(|inner| {
            let evals_per_grad = inner.runtime_handle().map_or(1, |(c, _)| evals_per_grad(c));
            Box::new(TracedActor {
                inner,
                tracer: tracer.clone(),
                evals_per_grad,
            }) as Box<dyn Actor>
        })
        .collect();
    let critic = QuantumCritic::new(
        train.n_qubits,
        env.state_dim(),
        train.critic_params,
        train.seed.wrapping_add(9000),
    )?
    .with_grad_method(train.grad_method)
    .with_backend(backend.clone());
    let critic = Box::new(TracedCritic {
        evals_per_grad: evals_per_grad(critic.compiled()),
        inner: Box::new(critic),
        tracer: tracer.clone(),
    });
    let env = TracedEnv {
        inner: env,
        tracer: tracer.clone(),
    };
    CtdeTrainer::new(env, actors, critic, train.clone())
}
