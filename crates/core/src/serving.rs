//! Deployable policies: the serving-side view of a trained framework.
//!
//! Training needs the whole CTDE apparatus — critic, replay buffer,
//! optimisers. Execution needs none of it: the paper's deployment story
//! is decentralized actors answering observation streams with argmax
//! actions. [`ServablePolicy`] is that object: an owned actor set plus a
//! **prebound** flat-batch plan built once at load time, so an inference
//! server can coalesce concurrent requests into a single
//! `expectation_batch_prebound` lane-slab execution per tick without
//! re-resolving parameter trig on the hot path.
//!
//! Two entry points, one contract:
//!
//! * [`ServablePolicy::act`] — the single-request reference path:
//!   per-agent [`Actor::probs`] followed by the deterministic
//!   [`select_action`] rule.
//! * [`ServablePolicy::act_batch`] — the coalesced path: all requests of
//!   a micro-batch tick evaluated through the same
//!   `ActorsVecPolicy` bridge the vectorized trainer
//!   uses (flat prebound slab for same-shaped quantum actors on the
//!   `Ideal` backend, backend-aware `probs_batch` otherwise).
//!
//! The two are **bit-identical** for every registered scenario ×
//! framework × {`Ideal`, `Sampled`} backend — asserted by this module's
//! tests. Batching is a latency/throughput decision, never a numerics
//! decision.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qmarl_runtime::backend::ExecutionBackend;

use crate::checkpoint::FrameworkSnapshot;
use crate::config::TrainConfig;
use crate::error::CoreError;
use crate::framework::{actors_from_snapshot, FrameworkKind};
use crate::policy::{select_action, Actor};
use crate::vec_policy::{ActorsVecPolicy, FlatBatch};

/// A frozen actor set packaged for inference serving.
///
/// Owns its actors (no borrow into a trainer) and, when every actor runs
/// the same compiled circuit on the `Ideal` backend, a prebound
/// flat-batch plan reused by every [`act_batch`](ServablePolicy::act_batch)
/// call. Actions are selected deterministically (argmax — the paper's
/// execution-time rule), so serving the same observation always returns
/// the same action, batched or not.
pub struct ServablePolicy {
    actors: Vec<Box<dyn Actor>>,
    flat: Option<FlatBatch>,
    obs_dim: usize,
    n_actions: usize,
    label: String,
}

impl std::fmt::Debug for ServablePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServablePolicy")
            .field("label", &self.label)
            .field("n_agents", &self.actors.len())
            .field("obs_dim", &self.obs_dim)
            .field("n_actions", &self.n_actions)
            .field("flat", &self.flat.is_some())
            .finish()
    }
}

impl ServablePolicy {
    /// Packages an actor set for serving. The set must be non-empty and
    /// dimensionally uniform (one joint request carries every agent's
    /// observation).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on an empty or ragged set.
    pub fn from_actors(label: &str, actors: Vec<Box<dyn Actor>>) -> Result<Self, CoreError> {
        let first = actors.first().ok_or_else(|| {
            CoreError::InvalidConfig("a servable policy needs at least one actor".into())
        })?;
        let (obs_dim, n_actions) = (first.obs_dim(), first.n_actions());
        for (n, actor) in actors.iter().enumerate() {
            if actor.obs_dim() != obs_dim || actor.n_actions() != n_actions {
                return Err(CoreError::InvalidConfig(format!(
                    "actor {n} has shape {}→{}, actor 0 has {obs_dim}→{n_actions}; \
                     a servable policy must be dimensionally uniform",
                    actor.obs_dim(),
                    actor.n_actions()
                )));
            }
        }
        let flat = FlatBatch::build(&actors);
        Ok(ServablePolicy {
            actors,
            flat,
            obs_dim,
            n_actions,
            label: label.to_string(),
        })
    }

    /// Rebuilds a framework's actors from a snapshot and packages them —
    /// the checkpoint-file → inference-server constructor, for any
    /// framework × scenario × backend cell
    /// (see [`actors_from_snapshot`]).
    ///
    /// # Errors
    ///
    /// Returns construction and restore errors (count/length mismatches
    /// when the snapshot was trained on a different cell).
    pub fn from_snapshot(
        snapshot: &FrameworkSnapshot,
        kind: FrameworkKind,
        scenario: &str,
        backend: &ExecutionBackend,
        train: &TrainConfig,
    ) -> Result<Self, CoreError> {
        let actors = actors_from_snapshot(snapshot, kind, scenario, backend, train)?;
        ServablePolicy::from_actors(&snapshot.label, actors)
    }

    /// The number of agents answered per request.
    pub fn n_agents(&self) -> usize {
        self.actors.len()
    }

    /// Observation dimension per agent.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Size of each agent's action set.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// The policy's label (usually the snapshot label).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Flat length of one joint-observation request
    /// (`n_agents × obs_dim`).
    pub fn request_len(&self) -> usize {
        self.actors.len() * self.obs_dim
    }

    /// Whether batched ticks fuse into one prebound lane-slab execution
    /// (same-shaped quantum actors on the `Ideal` backend).
    pub fn is_prebound(&self) -> bool {
        self.flat.is_some()
    }

    /// Serves one joint observation through the single-request reference
    /// path: per-agent [`Actor::probs`], deterministic action selection.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] when `obs` is not one
    /// flat `n_agents × obs_dim` slab.
    pub fn act(&self, obs: &[f64]) -> Result<Vec<usize>, CoreError> {
        if obs.len() != self.request_len() {
            return Err(CoreError::FeatureLenMismatch {
                expected: self.request_len(),
                actual: obs.len(),
            });
        }
        // Deterministic selection never draws; the RNG is a signature
        // artifact of the shared `select_action` rule.
        let mut rng = StdRng::seed_from_u64(0);
        let mut actions = Vec::with_capacity(self.actors.len());
        for (n, actor) in self.actors.iter().enumerate() {
            let probs = actor.probs(&obs[n * self.obs_dim..(n + 1) * self.obs_dim])?;
            actions.push(select_action(&probs, true, &mut rng));
        }
        Ok(actions)
    }

    /// Serves a coalesced micro-batch of `requests` joint observations in
    /// one tick: quantum actor sets run as **one**
    /// `expectation_batch_prebound` lane-slab call over the plan prebound
    /// at load time; other sets run one backend-aware
    /// [`Actor::probs_batch`] call per agent. Returns
    /// `requests × n_agents` actions, row-major, bit-identical to calling
    /// [`ServablePolicy::act`] per request.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] when `obs` is not
    /// `requests` flat request slabs.
    pub fn act_batch(&self, obs: &[f64], requests: usize) -> Result<Vec<usize>, CoreError> {
        if obs.len() != requests * self.request_len() {
            return Err(CoreError::FeatureLenMismatch {
                expected: requests * self.request_len(),
                actual: obs.len(),
            });
        }
        if requests == 0 {
            return Ok(Vec::new());
        }
        let bridge = ActorsVecPolicy::bare(&self.actors, self.obs_dim, true);
        let lanes: Vec<usize> = (0..requests).collect();
        let mut rngs: Vec<StdRng> = (0..requests).map(|_| StdRng::seed_from_u64(0)).collect();
        let decision = bridge.act_with(self.flat.as_ref(), obs, &lanes, &mut rngs)?;
        Ok(decision.actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::build_scenario_actors;

    fn cell_policy(
        kind: FrameworkKind,
        scenario: &str,
        backend: &ExecutionBackend,
    ) -> ServablePolicy {
        let train = TrainConfig::paper_default();
        let actors = build_scenario_actors(kind, scenario, backend, &train)
            .unwrap_or_else(|e| panic!("{kind} × {scenario}: {e}"));
        ServablePolicy::from_actors(&format!("{kind}@{scenario}"), actors).unwrap()
    }

    fn obs_slab(rows: usize, len: usize) -> Vec<f64> {
        (0..rows * len).map(|i| (i % 17) as f64 / 17.0).collect()
    }

    /// The batching-parity contract: coalesced micro-batched action
    /// selection is bit-identical to the single-request path for every
    /// registered scenario × framework × {Ideal, Sampled} backend.
    #[test]
    fn micro_batched_serving_matches_single_requests_on_the_full_grid() {
        let backends: Vec<ExecutionBackend> = vec![
            "ideal".parse().unwrap(),
            "sampled:shots=64:seed=3".parse().unwrap(),
        ];
        for scenario in qmarl_env::scenario::scenarios() {
            for kind in FrameworkKind::TRAINABLE {
                for backend in &backends {
                    // Classical frameworks have no circuits for a
                    // stochastic backend; the cell is rejected upstream.
                    if matches!(kind, FrameworkKind::Comp2 | FrameworkKind::Comp3)
                        && !backend.is_ideal()
                    {
                        continue;
                    }
                    let policy = cell_policy(kind, scenario.name(), backend);
                    let rows = 5;
                    let slab = obs_slab(rows, policy.request_len());
                    let batched = policy.act_batch(&slab, rows).unwrap();
                    assert_eq!(batched.len(), rows * policy.n_agents());
                    for row in 0..rows {
                        let req =
                            &slab[row * policy.request_len()..(row + 1) * policy.request_len()];
                        let single = policy.act(req).unwrap();
                        assert_eq!(
                            batched[row * policy.n_agents()..(row + 1) * policy.n_agents()],
                            single[..],
                            "{kind} × {} × {backend}, row {row}",
                            scenario.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantum_policies_serve_through_the_prebound_plan() {
        let ideal = ExecutionBackend::Ideal;
        assert!(cell_policy(FrameworkKind::Proposed, "single-hop", &ideal).is_prebound());
        assert!(cell_policy(FrameworkKind::Comp1, "two-tier", &ideal).is_prebound());
        // MLP actors and stochastic backends take the per-agent route.
        assert!(!cell_policy(FrameworkKind::Comp2, "single-hop", &ideal).is_prebound());
        let sampled: ExecutionBackend = "sampled:shots=32:seed=1".parse().unwrap();
        assert!(!cell_policy(FrameworkKind::Proposed, "single-hop", &sampled).is_prebound());
    }

    #[test]
    fn serving_is_deterministic_across_calls_and_batch_shapes() {
        let policy = cell_policy(
            FrameworkKind::Proposed,
            "single-hop",
            &ExecutionBackend::Ideal,
        );
        let req = obs_slab(1, policy.request_len());
        let a = policy.act(&req).unwrap();
        assert_eq!(a, policy.act(&req).unwrap());
        // The same request inside differently-sized batches gets the
        // same answer (batch-position invariance).
        for rows in [1usize, 2, 7] {
            let slab: Vec<f64> = req.iter().copied().cycle().take(rows * req.len()).collect();
            let batched = policy.act_batch(&slab, rows).unwrap();
            for row in 0..rows {
                assert_eq!(
                    batched[row * policy.n_agents()..(row + 1) * policy.n_agents()],
                    a[..],
                    "rows={rows}, row={row}"
                );
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_serves_identically_to_the_source_actors() {
        let train = TrainConfig::paper_default();
        let backend = ExecutionBackend::Ideal;
        let mut actors =
            build_scenario_actors(FrameworkKind::Proposed, "single-hop", &backend, &train).unwrap();
        // Perturb parameters so the snapshot differs from a fresh build.
        for actor in &mut actors {
            let p: Vec<f64> = actor.params().iter().map(|x| x + 0.05).collect();
            actor.set_params(&p).unwrap();
        }
        let snapshot = FrameworkSnapshot {
            label: "perturbed".into(),
            actor_params: actors.iter().map(|a| a.params()).collect(),
            critic_params: Vec::new(),
        };
        let direct = ServablePolicy::from_actors("direct", actors).unwrap();
        let via_snapshot = ServablePolicy::from_snapshot(
            &snapshot,
            FrameworkKind::Proposed,
            "single-hop",
            &backend,
            &train,
        )
        .unwrap();
        let slab = obs_slab(3, direct.request_len());
        assert_eq!(
            direct.act_batch(&slab, 3).unwrap(),
            via_snapshot.act_batch(&slab, 3).unwrap()
        );
        assert_eq!(via_snapshot.label(), "perturbed");
    }

    #[test]
    fn shape_errors_are_typed() {
        let policy = cell_policy(FrameworkKind::Comp2, "single-hop", &ExecutionBackend::Ideal);
        assert!(matches!(
            policy.act(&[0.0; 3]),
            Err(CoreError::FeatureLenMismatch { .. })
        ));
        assert!(matches!(
            policy.act_batch(&[0.0; 5], 2),
            Err(CoreError::FeatureLenMismatch { .. })
        ));
        assert!(policy.act_batch(&[], 0).unwrap().is_empty());
        assert!(ServablePolicy::from_actors("empty", Vec::new()).is_err());
    }
}
