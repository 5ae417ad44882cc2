//! Bridges the trainer's per-agent actors to the vectorized collector.
//!
//! [`ActorsVecPolicy`] implements `qmarl_runtime`'s `VecRolloutPolicy`
//! over the trainer's `Box<dyn Actor>` set. At every lockstep tick it
//! evaluates **all agents of all live lanes** and then samples from each
//! lane's own RNG in agent order, so traces never depend on which other
//! lanes share the tick (the lane-count-invariance contract of
//! `qmarl_runtime::rollout`). Two evaluation routes:
//!
//! * **Flat circuit batch** — when every actor reports a compiled-runtime
//!   handle ([`Actor::runtime_handle`]) over the *same* compiled circuit
//!   (the paper's setting: N same-shaped VQC actors with private
//!   weights), the whole tick becomes one
//!   `BatchExecutor::expectation_batch_prebound` call of
//!   `lanes × agents` circuits, each agent's parameters prebound once per
//!   collection. Every `(row, agent)` observation is one lane, in the
//!   observation slab's order, so the executor runs the tick as **one
//!   parameter-lane slab**: each lane carries its agent's parameters, and
//!   a small tick (the paper's four actors) runs inline as one task.
//! * **Per-agent batches** — otherwise (classical MLP actors, mixed
//!   sets), each agent's distribution is computed over all lanes via
//!   [`Actor::probs_batch`].
//!
//! Both routes apply the same scaling/readout/head/softmax functions as
//! [`Actor::probs`], so the choice of route never changes a single bit of
//! the result (asserted in tests).

use rand::rngs::StdRng;

use qmarl_neural::prelude::{entropy, softmax};
use qmarl_runtime::rollout::{VecDecision, VecRolloutPolicy};

use crate::error::CoreError;
use crate::policy::{select_action, Actor};

/// Pre-split flat-batch state: every actor shares one compiled circuit.
/// Parameters are split **and prebound** once — each agent's frozen
/// circuit parameters resolve to a
/// [`qmarl_runtime::prebound::PreboundCircuit`] whose parameter-only
/// rotation trig is hoisted out of the per-circuit loop entirely.
///
/// The batch owns everything it needs (the `CompiledVqc` clone shares the
/// cached `Arc<CompiledCircuit>`; scales/biases are copied — a handful of
/// `f64` per agent), so it can outlive the borrow it was built from. The
/// trainer rebuilds one per collection; the serving layer builds one at
/// policy-load time and reuses it for every micro-batch tick.
pub(crate) struct FlatBatch {
    compiled: qmarl_runtime::qnn::CompiledVqc,
    prebound: Vec<qmarl_runtime::prebound::PreboundCircuit>,
    scales: Vec<Vec<f64>>,
    biases: Vec<Vec<f64>>,
}

impl FlatBatch {
    /// Builds the flat-route state when every actor runs the same
    /// compiled circuit; `None` selects the per-agent route.
    pub(crate) fn build(actors: &[Box<dyn Actor>]) -> Option<FlatBatch> {
        let first = actors.first()?.runtime_handle()?.0;
        let mut prebound = Vec::with_capacity(actors.len());
        let mut scales = Vec::with_capacity(actors.len());
        let mut biases = Vec::with_capacity(actors.len());
        for actor in actors {
            let (compiled, params) = actor.runtime_handle()?;
            // One schedule, one scaling, one readout, one head layout —
            // model equality covers them all; the Arc pointer check makes
            // the shared compilation explicit. The prebound fast path
            // evaluates exact statevectors, so any non-Ideal execution
            // backend opts the whole tick out (the per-agent route's
            // `probs_batch` is backend-aware and, by the content-addressed
            // seed contract, still lane-count invariant).
            if compiled.model() != first.model()
                || !std::sync::Arc::ptr_eq(compiled.compiled(), first.compiled())
                || !compiled.backend().is_ideal()
            {
                return None;
            }
            let (c, s, b) = compiled.model().split_params(params).ok()?;
            prebound.push(qmarl_runtime::prebound::prebind(compiled.compiled(), c).ok()?);
            scales.push(s.to_vec());
            biases.push(b.to_vec());
        }
        Some(FlatBatch {
            compiled: first.clone(),
            prebound,
            scales,
            biases,
        })
    }
}

/// The trainer's frozen actors as a vectorized lockstep policy.
pub(crate) struct ActorsVecPolicy<'a> {
    actors: &'a [Box<dyn Actor>],
    deterministic: bool,
    obs_dim: usize,
    flat: Option<FlatBatch>,
}

impl<'a> ActorsVecPolicy<'a> {
    /// Builds the policy, choosing the flat route when every actor runs
    /// the same compiled circuit.
    pub(crate) fn new(actors: &'a [Box<dyn Actor>], obs_dim: usize, deterministic: bool) -> Self {
        let flat = FlatBatch::build(actors);
        ActorsVecPolicy {
            actors,
            deterministic,
            obs_dim,
            flat,
        }
    }

    /// Builds the policy without probing for the flat route — for callers
    /// that hold a long-lived [`FlatBatch`] of their own (the serving
    /// layer) and pass it per call through [`ActorsVecPolicy::act_with`].
    pub(crate) fn bare(actors: &'a [Box<dyn Actor>], obs_dim: usize, deterministic: bool) -> Self {
        ActorsVecPolicy {
            actors,
            deterministic,
            obs_dim,
            flat: None,
        }
    }

    /// Whether this policy fuses the tick into one flat circuit batch.
    #[cfg(test)]
    pub(crate) fn is_flat(&self) -> bool {
        self.flat.is_some()
    }

    /// One lockstep tick against an explicitly supplied flat batch (or
    /// the per-agent route when `None`). This is [`act_vec`] with the
    /// route decision lifted out, so a caller owning a prebound
    /// [`FlatBatch`] does not pay the prebind again on every tick.
    ///
    /// [`act_vec`]: VecRolloutPolicy::act_vec
    pub(crate) fn act_with(
        &self,
        flat: Option<&FlatBatch>,
        observations: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, CoreError> {
        match flat {
            Some(flat) => self.act_flat(flat, observations, lanes, rngs),
            None => self.act_per_agent(observations, lanes, rngs),
        }
    }

    /// The flat route: one executor call for the whole tick. Each
    /// `(row, agent)` observation is one lane, in the observation slab's
    /// own order, bound to its agent's prebound parameters; the executor
    /// merges the lanes of the shared schedule into one parameter-lane
    /// slab.
    fn act_flat(
        &self,
        flat: &FlatBatch,
        observations: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, CoreError> {
        let (na, od) = (self.actors.len(), self.obs_dim);
        if observations.len() != lanes.len() * na * od {
            return Err(CoreError::FeatureLenMismatch {
                expected: lanes.len() * na * od,
                actual: observations.len(),
            });
        }
        let model = flat.compiled.model();
        let scaling = model.input_scaling();
        let scaled: Vec<f64> = observations.iter().map(|&x| scaling.apply(x)).collect();
        let groups: Vec<qmarl_runtime::batch::PreboundGroup<'_>> = scaled
            .chunks_exact(od)
            .zip(flat.prebound.iter().cycle())
            .map(|(inputs, circuit)| qmarl_runtime::batch::PreboundGroup {
                circuit,
                inputs: vec![inputs],
            })
            .collect();
        let raws = flat
            .compiled
            .executor()
            .expectation_batch_prebound(model.readout(), &groups)?;

        self.sample_rows(lanes, rngs, |row, n| {
            let logits = model.apply_head(&raws[row * na + n][0], &flat.scales[n], &flat.biases[n]);
            Ok(softmax(&logits))
        })
    }

    /// The generic route: one [`Actor::probs_batch`] call per agent.
    fn act_per_agent(
        &self,
        observations: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, CoreError> {
        let (na, od) = (self.actors.len(), self.obs_dim);
        let mut per_agent: Vec<Vec<Vec<f64>>> = Vec::with_capacity(na);
        for (n, actor) in self.actors.iter().enumerate() {
            let batch: Vec<Vec<f64>> = (0..lanes.len())
                .map(|row| {
                    let start = (row * na + n) * od;
                    observations[start..start + od].to_vec()
                })
                .collect();
            per_agent.push(actor.probs_batch(&batch)?);
        }

        self.sample_rows(lanes, rngs, |row, n| {
            Ok(std::mem::take(&mut per_agent[n][row]))
        })
    }

    /// The shared sampling discipline — this loop IS the lane-count
    /// invariance contract: one distribution per agent in
    /// agent order per lane, one RNG draw per sample, entropy folded in
    /// the same order. Both evaluation routes must go through it so they
    /// cannot drift apart.
    fn sample_rows<F>(
        &self,
        lanes: &[usize],
        rngs: &mut [StdRng],
        mut probs_for: F,
    ) -> Result<VecDecision, CoreError>
    where
        F: FnMut(usize, usize) -> Result<Vec<f64>, CoreError>,
    {
        let na = self.actors.len();
        let mut actions = Vec::with_capacity(lanes.len() * na);
        let mut aux = Vec::with_capacity(lanes.len());
        for (row, &lane) in lanes.iter().enumerate() {
            let mut entropy_sum = 0.0;
            for n in 0..na {
                let probs = probs_for(row, n)?;
                entropy_sum += entropy(&probs);
                actions.push(select_action(&probs, self.deterministic, &mut rngs[lane]));
            }
            aux.push(entropy_sum / na as f64);
        }
        Ok(VecDecision { actions, aux })
    }
}

impl VecRolloutPolicy for ActorsVecPolicy<'_> {
    type Error = CoreError;

    fn act_vec(
        &mut self,
        observations: &[f64],
        lanes: &[usize],
        rngs: &mut [StdRng],
    ) -> Result<VecDecision, CoreError> {
        self.act_with(self.flat.as_ref(), observations, lanes, rngs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{build_scenario_actors, FrameworkKind};
    use crate::policy::{ClassicalActor, QuantumActor};
    use rand::SeedableRng;

    fn quantum_actors(n: usize) -> Vec<Box<dyn Actor>> {
        (0..n)
            .map(|i| {
                Box::new(QuantumActor::new(4, 4, 4, 50, 10 + i as u64).unwrap()) as Box<dyn Actor>
            })
            .collect()
    }

    fn classical_actors(n: usize) -> Vec<Box<dyn Actor>> {
        (0..n)
            .map(|i| {
                Box::new(ClassicalActor::new(&[4, 5, 4], 10 + i as u64).unwrap()) as Box<dyn Actor>
            })
            .collect()
    }

    fn obs_slab(rows: usize, na: usize, od: usize) -> Vec<f64> {
        (0..rows * na * od)
            .map(|i| (i % 13) as f64 / 13.0)
            .collect()
    }

    fn decide(actors: &[Box<dyn Actor>], deterministic: bool) -> (bool, VecDecision) {
        let mut policy = ActorsVecPolicy::new(actors, 4, deterministic);
        let lanes: Vec<usize> = (0..3).collect();
        let mut rngs: Vec<StdRng> = (0..3).map(|i| StdRng::seed_from_u64(90 + i)).collect();
        let obs = obs_slab(3, actors.len(), 4);
        let flat = policy.is_flat();
        (flat, policy.act_vec(&obs, &lanes, &mut rngs).unwrap())
    }

    #[test]
    fn quantum_set_takes_the_flat_route() {
        let actors = quantum_actors(4);
        let (flat, d) = decide(&actors, true);
        assert!(flat, "same-shaped quantum actors must fuse");
        assert_eq!(d.actions.len(), 12);
        assert_eq!(d.aux.len(), 3);
        assert!(d.aux.iter().all(|&h| h > 0.0));
        // A slab that is not lanes × agents × obs_dim is a typed error.
        let mut policy = ActorsVecPolicy::new(&actors, 4, true);
        let mut rngs = vec![StdRng::seed_from_u64(1)];
        assert!(matches!(
            policy.act_vec(&obs_slab(1, 4, 4)[1..], &[0], &mut rngs),
            Err(CoreError::FeatureLenMismatch { .. })
        ));
    }

    #[test]
    fn classical_set_takes_the_per_agent_route() {
        let actors = classical_actors(4);
        let (flat, d) = decide(&actors, true);
        assert!(!flat, "MLP actors have no compiled handle");
        assert_eq!(d.actions.len(), 12);
    }

    #[test]
    fn flat_and_per_agent_routes_are_bit_identical() {
        // Force the generic route over the same quantum actors by
        // evaluating through probs_batch, and compare with the flat route
        // (every (row, agent) pair a lane of one parameter-lane slab)
        // under identical RNG streams, for every registered scenario's
        // quantum actor sets.
        let backend = qmarl_runtime::backend::ExecutionBackend::Ideal;
        let train = crate::config::TrainConfig::paper_default();
        for scenario in qmarl_env::scenario::scenarios() {
            for kind in [FrameworkKind::Proposed, FrameworkKind::Comp1] {
                let actors = build_scenario_actors(kind, scenario.name(), &backend, &train)
                    .unwrap_or_else(|e| panic!("{kind} × {}: {e}", scenario.name()));
                let od = actors[0].obs_dim();
                for rows in [1usize, 3] {
                    let obs = obs_slab(rows, actors.len(), od);
                    let lanes: Vec<usize> = (0..rows).collect();
                    let rngs = || -> Vec<StdRng> {
                        (0..rows as u64)
                            .map(|i| StdRng::seed_from_u64(7 + i))
                            .collect()
                    };

                    let mut flat_policy = ActorsVecPolicy::new(&actors, od, false);
                    assert!(flat_policy.is_flat(), "{kind} × {}", scenario.name());
                    let a = flat_policy.act_vec(&obs, &lanes, &mut rngs()).unwrap();

                    let mut generic = ActorsVecPolicy::new(&actors, od, false);
                    generic.flat = None;
                    let b = generic.act_vec(&obs, &lanes, &mut rngs()).unwrap();

                    assert_eq!(
                        a,
                        b,
                        "{kind} × {} × {rows} rows: evaluation route must not change any bit",
                        scenario.name()
                    );
                }
            }
        }
    }

    #[test]
    fn stochastic_backends_opt_out_of_the_flat_route() {
        // The prebound fast path runs exact statevectors; a sampled
        // backend must force the backend-aware per-agent route instead of
        // silently executing ideal circuits.
        let actors: Vec<Box<dyn Actor>> = (0..4)
            .map(|i| {
                Box::new(
                    QuantumActor::new(4, 4, 4, 50, 10 + i as u64)
                        .unwrap()
                        .with_backend(qmarl_runtime::backend::ExecutionBackend::Sampled {
                            shots: 64,
                            seed: 1,
                        }),
                ) as Box<dyn Actor>
            })
            .collect();
        let policy = ActorsVecPolicy::new(&actors, 4, true);
        assert!(!policy.is_flat());
        let (_, d) = decide(&actors, true);
        assert_eq!(d.actions.len(), 12);
    }

    #[test]
    fn mixed_actor_sets_fall_back() {
        let mut actors = quantum_actors(3);
        actors.push(Box::new(ClassicalActor::new(&[4, 5, 4], 3).unwrap()));
        let policy = ActorsVecPolicy::new(&actors, 4, true);
        assert!(!policy.is_flat());
    }

    #[test]
    fn differently_shaped_quantum_actors_fall_back() {
        let mut actors = quantum_actors(3);
        // Same qubit count but a different parameter budget → different
        // circuit → different compiled schedule.
        actors.push(Box::new(QuantumActor::new(4, 4, 4, 30, 9).unwrap()));
        let policy = ActorsVecPolicy::new(&actors, 4, true);
        assert!(!policy.is_flat());
    }
}
