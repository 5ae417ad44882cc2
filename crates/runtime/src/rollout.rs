//! Episode collection: lockstep ticks over a [`VectorEnv`].
//!
//! Training and evaluation both need many episodes under frozen policy
//! parameters. A [`VectorEnv`] advances `B` episodes ("lanes") in
//! lockstep, and at every tick the policy sees **all live lanes at once**
//! as one flat struct-of-arrays observation slab. A policy backed by
//! [`crate::batch::BatchExecutor`] turns that slab into one flat forward
//! batch of `lanes × agents` circuits per tick — the shape the executor
//! is built for. A single-stream rollout is just `lanes = 1`.
//!
//! ## Determinism contract
//!
//! > The trace of episode `i` depends only on `(base_seed, i)`, the
//! > environment template and the policy — never on the lane count. The
//! > environment stream seeds from `derive_seed(base_seed, ENV_STREAM,
//! > i)` and the action stream from `derive_seed(base_seed,
//! > POLICY_STREAM, i)`, so for a policy that consumes its per-lane RNG
//! > like a one-episode-at-a-time loop would, the collected traces are
//! > **bit-identical** to that loop's (property-tested per scenario
//! > against a scheduler-free serial reference in
//! > `tests/vec_equivalence.rs`).
//!
//! Collections larger than the lane count run as successive waves: the
//! first `B` episodes fill the lanes, the next `B` re-seed them, and so
//! on — episode indexing (and therefore seeding) is independent of `B`.
//! Traces come back in episode-index order.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qmarl_env::error::EnvError;
use qmarl_env::metrics::{EpisodeMetrics, MetricsAccumulator};
use qmarl_env::multi_agent::StepInfo;
use qmarl_env::vector::VectorEnv;

/// One recorded timestep (the runtime-level mirror of the trainer's
/// transition tuple).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Global state `s_t`.
    pub state: Vec<f64>,
    /// Per-agent observations `o_t`.
    pub observations: Vec<Vec<f64>>,
    /// Joint action `u_t`.
    pub actions: Vec<usize>,
    /// Shared reward `r_t`.
    pub reward: f64,
    /// Next global state `s_{t+1}`.
    pub next_state: Vec<f64>,
    /// Next observations `o_{t+1}`.
    pub next_observations: Vec<Vec<f64>>,
    /// Whether this step ended the episode.
    pub done: bool,
    /// Step diagnostics (queue levels, cloud events).
    pub info: StepInfo,
    /// Policy-defined per-step scalar (e.g. mean policy entropy).
    pub aux: f64,
}

/// One collected episode, tagged with its episode index.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeTrace {
    /// The episode's index in the collection request (its seed stream).
    pub index: usize,
    /// The steps in time order.
    pub steps: Vec<TraceStep>,
}

impl EpisodeTrace {
    /// Sum of rewards.
    pub fn total_reward(&self) -> f64 {
        self.steps.iter().map(|s| s.reward).sum()
    }

    /// Episode metrics in the paper's Fig. 3 accounting.
    pub fn metrics(&self) -> EpisodeMetrics {
        let mut acc = MetricsAccumulator::new();
        for s in &self.steps {
            acc.record_step(
                s.reward,
                &s.info.queue_levels,
                &s.info.cloud_empty,
                &s.info.cloud_full,
            );
        }
        acc.finish()
    }

    /// Mean of the policy-defined per-step scalar.
    pub fn mean_aux(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.steps.iter().map(|s| s.aux).sum::<f64>() / self.steps.len() as f64
        }
    }
}

/// A failed rollout collection.
#[derive(Debug, Clone, PartialEq)]
pub enum RolloutError<E> {
    /// The environment rejected a step.
    Env(EnvError),
    /// The policy failed to evaluate.
    Policy(E),
}

impl<E: std::fmt::Display> std::fmt::Display for RolloutError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RolloutError::Env(e) => write!(f, "rollout environment error: {e}"),
            RolloutError::Policy(e) => write!(f, "rollout policy error: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for RolloutError<E> {}

/// Stream tag for environment randomness.
pub(crate) const ENV_STREAM: u64 = 0x45;
/// Stream tag for policy action sampling.
pub(crate) const POLICY_STREAM: u64 = 0x50;

/// Derives an independent seed from `(base, stream, index)` via SplitMix64
/// finalisation — the same derivation for every lane count, which is
/// what makes the determinism contract hold.
pub fn derive_seed(base: u64, stream: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One lockstep decision for all live lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct VecDecision {
    /// Flat joint actions, row-major: `lanes.len() · n_agents` indices.
    pub actions: Vec<usize>,
    /// Policy-defined per-lane scalar (the trainers record mean policy
    /// entropy), one per row.
    pub aux: Vec<f64>,
}

/// A decision rule evaluated across all live lanes at once.
///
/// `observations` is the SoA slab (`rows × n_agents × obs_dim`);
/// `lanes[r]` names row `r`'s wave-lane, which is also its index into
/// `rngs`. For traces to be independent of the lane count, a policy
/// must consume `rngs[lanes[r]]` the same way whatever else shares the
/// tick: once per agent in agent order when sampling, not at all when
/// deterministic.
pub trait VecRolloutPolicy {
    /// The policy's error type.
    type Error: Send;

    /// Chooses joint actions for every live lane at one lockstep tick.
    ///
    /// # Errors
    ///
    /// Policy evaluation errors abort the whole collection.
    fn act_vec(
        &mut self,
        observations: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, Self::Error>;
}

/// Blanket impl so plain closures work as vectorized policies.
impl<F, E> VecRolloutPolicy for F
where
    F: FnMut(&[f64], &[usize], &mut [StdRng]) -> Result<VecDecision, E>,
    E: Send,
{
    type Error = E;
    fn act_vec(
        &mut self,
        observations: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, E> {
        self(observations, lanes, rngs)
    }
}

/// Splits one SoA observation row back into per-agent vectors.
fn unflatten_obs(row: &[f64], n_agents: usize, obs_dim: usize) -> Vec<Vec<f64>> {
    (0..n_agents)
        .map(|n| row[n * obs_dim..(n + 1) * obs_dim].to_vec())
        .collect()
}

/// Collects `n_episodes` episodes over the vector environment's lanes,
/// returning them **in episode-index order** (see the module-level
/// determinism contract). Episodes beyond the lane count run as
/// successive waves.
///
/// # Errors
///
/// Propagates environment and policy errors.
pub fn collect_episodes_vec<V, P>(
    venv: &mut V,
    policy: &mut P,
    n_episodes: usize,
    base_seed: u64,
) -> Result<Vec<EpisodeTrace>, RolloutError<P::Error>>
where
    V: VectorEnv,
    P: VecRolloutPolicy,
{
    let lanes_max = venv.batch_size();
    let (na, od, sd) = (venv.n_agents(), venv.obs_dim(), venv.state_dim());
    let mut traces = Vec::with_capacity(n_episodes);

    let mut wave_start = 0;
    while wave_start < n_episodes {
        let ids: Vec<usize> = (wave_start..(wave_start + lanes_max).min(n_episodes)).collect();
        let k = ids.len();
        let seeds: Vec<u64> = ids
            .iter()
            .map(|&i| derive_seed(base_seed, ENV_STREAM, i as u64))
            .collect();
        let mut rngs: Vec<StdRng> = ids
            .iter()
            .map(|&i| StdRng::seed_from_u64(derive_seed(base_seed, POLICY_STREAM, i as u64)))
            .collect();

        let reset = venv.reset_lanes(&seeds).map_err(RolloutError::Env)?;
        let mut prev_obs: Vec<Vec<Vec<f64>>> = (0..k)
            .map(|r| unflatten_obs(&reset.observations[r * na * od..(r + 1) * na * od], na, od))
            .collect();
        let mut prev_state: Vec<Vec<f64>> = (0..k)
            .map(|r| reset.states[r * sd..(r + 1) * sd].to_vec())
            .collect();
        let mut steps: Vec<Vec<TraceStep>> = (0..k)
            .map(|_| Vec::with_capacity(venv.episode_limit()))
            .collect();

        let mut live: Vec<usize> = reset.lanes;
        let mut obs_soa = reset.observations;
        while !live.is_empty() {
            let decision = policy
                .act_vec(&obs_soa, &live, &mut rngs)
                .map_err(RolloutError::Policy)?;
            let out = venv
                .step_lanes(&decision.actions)
                .map_err(RolloutError::Env)?;
            debug_assert_eq!(out.lanes, live, "lockstep rows must track live lanes");

            for (row, &lane) in out.lanes.iter().enumerate() {
                let next_state = out.states[row * sd..(row + 1) * sd].to_vec();
                let next_obs = unflatten_obs(
                    &out.observations[row * na * od..(row + 1) * na * od],
                    na,
                    od,
                );
                let state = std::mem::replace(&mut prev_state[lane], next_state.clone());
                let observations = std::mem::replace(&mut prev_obs[lane], next_obs.clone());
                steps[lane].push(TraceStep {
                    state,
                    observations,
                    actions: decision.actions[row * na..(row + 1) * na].to_vec(),
                    reward: out.rewards[row],
                    next_state,
                    next_observations: next_obs,
                    done: out.dones[row],
                    info: out.infos[row].clone(),
                    aux: decision.aux[row],
                });
            }

            if out.dones.iter().any(|&d| d) {
                // Compact the SoA slab down to the lanes still running.
                let mut next_live = Vec::with_capacity(live.len());
                let mut next_soa = Vec::with_capacity(out.observations.len());
                for (row, &lane) in out.lanes.iter().enumerate() {
                    if !out.dones[row] {
                        next_live.push(lane);
                        next_soa.extend_from_slice(
                            &out.observations[row * na * od..(row + 1) * na * od],
                        );
                    }
                }
                live = next_live;
                obs_soa = next_soa;
            } else {
                live = out.lanes;
                obs_soa = out.observations;
            }
        }

        for (lane, lane_steps) in steps.into_iter().enumerate() {
            traces.push(EpisodeTrace {
                index: ids[lane],
                steps: lane_steps,
            });
        }
        wave_start += k;
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmarl_env::single_hop::{EnvConfig, SingleHopEnv};
    use qmarl_env::vector::ReplicatedVecEnv;
    use rand::Rng;

    fn tiny_env(limit: usize) -> SingleHopEnv {
        let mut cfg = EnvConfig::paper_default();
        cfg.episode_limit = limit;
        SingleHopEnv::new(cfg, 0).unwrap()
    }

    /// A stochastic test policy: uniform random joint actions, aux 1.5,
    /// one draw per agent in agent order from each lane's RNG.
    fn random_policy(
        _obs: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, EnvError> {
        let n_agents = 4;
        let mut actions = Vec::with_capacity(lanes.len() * n_agents);
        for &lane in lanes {
            for _ in 0..n_agents {
                actions.push(rngs[lane].gen_range(0..4));
            }
        }
        Ok(VecDecision {
            actions,
            aux: vec![1.5; lanes.len()],
        })
    }

    fn collect(template: &SingleHopEnv, lanes: usize, n: usize, seed: u64) -> Vec<EpisodeTrace> {
        let mut venv = ReplicatedVecEnv::new(template, lanes).unwrap();
        collect_episodes_vec(&mut venv, &mut random_policy, n, seed).unwrap()
    }

    #[test]
    fn lane_count_never_changes_results() {
        // Including partial final waves (5 episodes over 2 or 3 lanes).
        let template = tiny_env(9);
        let reference = collect(&template, 1, 5, 42);
        for lanes in [2usize, 3, 5, 8] {
            assert_eq!(collect(&template, lanes, 5, 42), reference, "lanes={lanes}");
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        // Each agent acts greedily on a circuit batch run on `workers`
        // threads, perturbed by one draw from its lane's RNG.
        use crate::batch::BatchExecutor;
        use qmarl_vqc::ansatz::{init_params, layered_ansatz};
        use qmarl_vqc::observable::Readout;
        let mut circuit = qmarl_vqc::encoder::layered_angle_encoder(4, 4).unwrap();
        circuit
            .append_shifted(&layered_ansatz(4, 8).unwrap())
            .unwrap();
        let compiled = crate::compile::compile(&circuit);
        let (params, readout) = (init_params(8, 3), Readout::z_all(4));
        let collect_with = |workers: usize| {
            let executor = BatchExecutor::new(workers);
            let mut policy = |obs: &[f64],
                              lanes: &[usize],
                              rngs: &mut [StdRng]|
             -> Result<VecDecision, crate::error::RuntimeError> {
                let rows: Vec<Vec<f64>> = obs.chunks(4).map(<[f64]>::to_vec).collect();
                let scores = executor.expectation_batch_backend(
                    &compiled,
                    &readout,
                    &rows,
                    &params,
                    &crate::backend::ExecutionBackend::Ideal,
                )?;
                let actions = scores
                    .iter()
                    .enumerate()
                    .map(|(k, s)| {
                        let greedy = (0..4).max_by(|&a, &b| s[a].total_cmp(&s[b])).unwrap();
                        (greedy + rngs[lanes[k / 4]].gen_range(0..2)) % 4
                    })
                    .collect();
                let aux = scores.chunks(4).map(|agents| agents[0][0]).collect();
                Ok(VecDecision { actions, aux })
            };
            let mut venv = ReplicatedVecEnv::new(&tiny_env(8), 3).unwrap();
            collect_episodes_vec(&mut venv, &mut policy, 5, 42).unwrap()
        };
        let reference = collect_with(1);
        for workers in [2usize, 4, 16] {
            assert_eq!(collect_with(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn episodes_have_distinct_randomness() {
        let traces = collect(&tiny_env(12), 2, 4, 7);
        assert_eq!(traces.len(), 4);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.steps.len(), 12);
            assert!(t.steps.last().unwrap().done);
        }
        // Different episodes see different action streams.
        assert_ne!(traces[0].steps[0].actions, traces[1].steps[0].actions);
    }

    #[test]
    fn base_seed_changes_everything() {
        let env = tiny_env(12);
        let a = collect(&env, 2, 2, 1);
        assert_ne!(a, collect(&env, 2, 2, 2));
        assert_eq!(a, collect(&env, 2, 2, 1));
    }

    #[test]
    fn wave_chunking_preserves_episode_indexing() {
        let template = tiny_env(4);
        let traces = collect(&template, 2, 5, 7);
        assert_eq!(traces.len(), 5);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.steps.len(), 4);
            assert!(t.steps.last().unwrap().done);
        }
        // Lane count must not change which episodes were collected.
        assert_eq!(collect(&template, 5, 5, 7), traces);
    }

    #[test]
    fn empty_collection_is_empty() {
        assert!(collect(&tiny_env(4), 2, 0, 0).is_empty());
    }

    #[test]
    fn trace_bookkeeping_is_consistent() {
        for t in &collect(&tiny_env(6), 3, 3, 3) {
            let m = t.metrics();
            assert_eq!(m.len, t.steps.len());
            assert!((m.total_reward - t.total_reward()).abs() < 1e-12);
            assert!((t.mean_aux() - 1.5).abs() < 1e-15);
            // Chaining: next_state of step k equals state of step k+1.
            for w in t.steps.windows(2) {
                assert_eq!(w[0].next_state, w[1].state);
                assert_eq!(w[0].next_observations, w[1].observations);
            }
        }
    }

    #[test]
    fn policy_errors_propagate() {
        let mut venv = ReplicatedVecEnv::new(&tiny_env(4), 2).unwrap();
        let mut failing = |_obs: &[f64],
                           _lanes: &[usize],
                           _rngs: &mut [StdRng]|
         -> Result<VecDecision, String> { Err("no policy".into()) };
        let err = collect_episodes_vec(&mut venv, &mut failing, 3, 0).unwrap_err();
        assert!(matches!(err, RolloutError::Policy(ref m) if m == "no policy"));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(1, ENV_STREAM, 0);
        let b = derive_seed(1, POLICY_STREAM, 0);
        let c = derive_seed(1, ENV_STREAM, 1);
        let d = derive_seed(2, ENV_STREAM, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
