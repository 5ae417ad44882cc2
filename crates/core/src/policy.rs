//! Actors: decentralized policies `π_θ(u|o)` (Sec. III-A1).
//!
//! Every agent owns its own policy. The paper's **quantum actor** is a
//! 4-qubit VQC whose per-wire `⟨Z⟩` readouts become action logits through
//! a softmax; the **classical actor** (Comp2/Comp3) is an MLP with the
//! same interface. Both expose flat parameters and a policy-gradient
//! contribution so the CTDE trainer treats them uniformly.

use rand::Rng;

use qmarl_neural::prelude::{policy_gradient_logits, softmax, Activation, Mlp};
use qmarl_runtime::backend::ExecutionBackend;
use qmarl_runtime::qnn::CompiledVqc;
use qmarl_vqc::prelude::{GradMethod, OutputHead, Readout, Vqc, VqcBuilder};

use crate::error::CoreError;

/// A trainable stochastic policy over a discrete action set.
///
/// `Send + Sync` is required so frozen-parameter policies can be shared
/// across threads: a [`crate::serving::ServablePolicy`] owns its actors
/// and is read by the serving batcher while a hot-swap slot holds it.
pub trait Actor: Send + Sync {
    /// Observation dimensionality.
    fn obs_dim(&self) -> usize;
    /// Number of discrete actions.
    fn n_actions(&self) -> usize;
    /// Number of trainable parameters.
    fn param_count(&self) -> usize;

    /// The action distribution `π(·|o)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    fn probs(&self, obs: &[f64]) -> Result<Vec<f64>, CoreError>;

    /// Action distributions for a whole batch of observations. The
    /// default walks [`Actor::probs`] serially; circuit-backed actors
    /// override it with the runtime's batched executor. Results are
    /// bit-identical to per-observation [`Actor::probs`] calls either way.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    fn probs_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        batch.iter().map(|o| self.probs(o)).collect()
    }

    /// The compiled-runtime handle behind this actor, when it is a
    /// compiled VQC: `(compiled model, flat parameter vector)`. The
    /// vectorized collector uses it to fuse all same-shaped actors'
    /// evaluations at one lockstep tick into a single flat circuit batch;
    /// `None` (the default) opts out of that path.
    fn runtime_handle(&self) -> Option<(&CompiledVqc, &[f64])> {
        None
    }

    /// The gradient of the MAPG pseudo-loss `−advantage · log π(action|o)`
    /// w.r.t. the parameters (ready for a *descent* step).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    fn policy_gradient(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.policy_gradient_with_entropy(obs, action, advantage, 0.0)
    }

    /// The MAPG gradient with an entropy bonus: descending this maximises
    /// `advantage · log π(action|o) + β · H(π(·|o))`. With `β = 0` it is
    /// exactly [`Actor::policy_gradient`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    fn policy_gradient_with_entropy(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
        entropy_coef: f64,
    ) -> Result<Vec<f64>, CoreError>;

    /// Batched MAPG gradients under the current (frozen) parameters: one
    /// descent-ready gradient per `(observation, action, advantage)`
    /// triple. The default walks
    /// [`Actor::policy_gradient_with_entropy`] serially; circuit-backed
    /// actors override it so every transition's circuit work lands in one
    /// flat runtime queue. Either route is bit-identical to per-sample
    /// [`Actor::policy_gradient_with_entropy`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    /// `obs`, `actions` and `advantages` must have equal lengths.
    fn policy_gradients_batch(
        &self,
        obs: &[Vec<f64>],
        actions: &[usize],
        advantages: &[f64],
        entropy_coef: f64,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        debug_assert_eq!(obs.len(), actions.len());
        debug_assert_eq!(obs.len(), advantages.len());
        obs.iter()
            .zip(actions)
            .zip(advantages)
            .map(|((o, &a), &adv)| self.policy_gradient_with_entropy(o, a, adv, entropy_coef))
            .collect()
    }

    /// Snapshot of the flat parameter vector.
    fn params(&self) -> Vec<f64>;

    /// Loads a flat parameter vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParamLenMismatch`] on length mismatch.
    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError>;

    /// A boxed deep copy (mirrors [`crate::value::Critic::clone_box`]).
    fn clone_box(&self) -> Box<dyn Actor>;
}

/// The logits-gradient of the entropy-regularised MAPG pseudo-loss
/// `−advantage·log π[a] − β·H(π)`:
/// `advantage·(π_i − 1{i=a}) + β·π_i(ln π_i + H)`.
fn regularized_upstream(probs: &[f64], action: usize, advantage: f64, beta: f64) -> Vec<f64> {
    let mut up = policy_gradient_logits(probs, action, advantage);
    if beta != 0.0 {
        let h = qmarl_neural::loss::entropy(probs);
        for (u, &p) in up.iter_mut().zip(probs) {
            if p > 0.0 {
                *u += beta * p * (p.ln() + h);
            }
        }
    }
    up
}

/// Samples an action from a policy, or takes the argmax when
/// `deterministic` (the paper's execution-time rule `u = argmax π`).
///
/// Total for every input, so a non-finite probability can never panic
/// the caller. NaN rule: the argmax orders entries by
/// [`f64::total_cmp`], under which a positive NaN outranks every number
/// (ties go to the highest index, as before); sampling compares against
/// a running sum that a NaN poisons, after which no comparison succeeds
/// and the last action is taken. An empty `probs` selects action 0.
pub fn select_action<R: Rng + ?Sized>(probs: &[f64], deterministic: bool, rng: &mut R) -> usize {
    if deterministic {
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    } else {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if r < acc {
                return i;
            }
        }
        probs.len().saturating_sub(1)
    }
}

/// The paper's quantum actor: layered-encoder VQC + softmax policy head.
///
/// Evaluation runs through the batched runtime ([`CompiledVqc`]): the
/// circuit is compiled once (shared process-wide with every same-shaped
/// actor) and forward passes run the fused schedule prebound to the
/// current parameters, a single observation as a one-lane slab.
#[derive(Debug, Clone)]
pub struct QuantumActor {
    model: CompiledVqc,
    params: Vec<f64>,
    grad_method: GradMethod,
}

impl QuantumActor {
    /// Builds the Fig. 1 actor: `obs_dim` features on `n_qubits` wires
    /// (one encoder layer when `obs_dim == n_qubits`), a structured ansatz
    /// sized so circuit + affine head = `total_params`, and `⟨Z⟩` logits on
    /// the first `n_actions` wires.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `n_actions > n_qubits` or
    /// the budget is too small for the affine head.
    pub fn new(
        n_qubits: usize,
        obs_dim: usize,
        n_actions: usize,
        total_params: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if n_actions > n_qubits {
            return Err(CoreError::InvalidConfig(format!(
                "need one readout wire per action: {n_actions} actions > {n_qubits} qubits"
            )));
        }
        let head_params = 2 * n_actions;
        if total_params <= head_params {
            return Err(CoreError::InvalidConfig(format!(
                "parameter budget {total_params} too small for a {head_params}-parameter output head"
            )));
        }
        let model = VqcBuilder::new(n_qubits)
            .encoder_inputs(obs_dim)
            .ansatz_params(total_params - head_params)
            .readout(Readout::ZPerQubit {
                qubits: (0..n_actions).collect(),
            })
            .output_head(OutputHead::Affine)
            .build()?;
        let params = model.init_params(seed);
        Ok(QuantumActor {
            model: CompiledVqc::new(model),
            params,
            grad_method: GradMethod::Adjoint,
        })
    }

    /// Overrides the gradient method (default: adjoint).
    pub fn with_grad_method(mut self, method: GradMethod) -> Self {
        self.grad_method = method;
        self
    }

    /// Overrides the execution backend (default:
    /// [`ExecutionBackend::Ideal`], bit-identical to not setting one).
    /// Under `Sampled`/`Noisy` the gradient method is forced to the
    /// parameter-shift rule — the adjoint sweep needs exact statevectors,
    /// which those backends never expose.
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        self.grad_method = backend.effective_grad_method(self.grad_method);
        self.model = self.model.with_backend(backend);
        self
    }

    /// The execution backend in use.
    pub fn backend(&self) -> &ExecutionBackend {
        self.model.backend()
    }

    /// The underlying VQC (e.g. for circuit diagrams or Fig. 4 states).
    pub fn model(&self) -> &Vqc {
        self.model.model()
    }

    /// The compiled-runtime handle backing this actor.
    pub fn compiled(&self) -> &CompiledVqc {
        &self.model
    }

    /// The final quantum state for an observation — the Fig. 4 heatmap
    /// input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    pub fn quantum_state(&self, obs: &[f64]) -> Result<qmarl_qsim::state::StateVector, CoreError> {
        self.check_obs(obs)?;
        Ok(self.model.model().state(obs, &self.params)?)
    }

    /// Action distributions for a whole batch of observations, fanned out
    /// over the runtime's batch executor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad observation.
    pub fn probs_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        for obs in batch {
            self.check_obs(obs)?;
        }
        let logits = self.model.forward_batch(batch, &self.params)?;
        Ok(logits.iter().map(|l| softmax(l)).collect())
    }

    fn check_obs(&self, obs: &[f64]) -> Result<(), CoreError> {
        if obs.len() != self.model.model().input_len() {
            return Err(CoreError::FeatureLenMismatch {
                expected: self.model.model().input_len(),
                actual: obs.len(),
            });
        }
        Ok(())
    }
}

impl Actor for QuantumActor {
    fn obs_dim(&self) -> usize {
        self.model.model().input_len()
    }

    fn n_actions(&self) -> usize {
        self.model.model().output_len()
    }

    fn param_count(&self) -> usize {
        self.model.model().param_count()
    }

    fn probs(&self, obs: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.check_obs(obs)?;
        let logits = self.model.forward(obs, &self.params)?;
        Ok(softmax(&logits))
    }

    fn probs_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, CoreError> {
        QuantumActor::probs_batch(self, batch)
    }

    fn runtime_handle(&self) -> Option<(&CompiledVqc, &[f64])> {
        Some((&self.model, &self.params))
    }

    fn policy_gradient_with_entropy(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
        entropy_coef: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.check_obs(obs)?;
        let (logits, jac) =
            self.model
                .forward_with_jacobian(obs, &self.params, self.grad_method)?;
        let probs = softmax(&logits);
        let upstream = regularized_upstream(&probs, action, advantage, entropy_coef);
        Ok(jac.vjp(&upstream))
    }

    fn policy_gradients_batch(
        &self,
        obs: &[Vec<f64>],
        actions: &[usize],
        advantages: &[f64],
        entropy_coef: f64,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        debug_assert_eq!(obs.len(), actions.len());
        debug_assert_eq!(obs.len(), advantages.len());
        for o in obs {
            self.check_obs(o)?;
        }
        let results = match self.grad_method {
            // The prebound adjoint engine: all transitions as lane slabs
            // behind hoisted trig.
            GradMethod::Adjoint => self
                .model
                .forward_with_jacobian_batch_prebound(obs, &self.params)?,
            // Adjoint unavailable (hardware-rule gradients requested):
            // every shift evaluation of the whole batch as one flat
            // parameter-shift queue.
            GradMethod::ParameterShift => {
                self.model.forward_with_jacobian_batch(obs, &self.params)?
            }
            // No batched engine for finite differences — serial sweep.
            GradMethod::FiniteDiff => {
                return obs
                    .iter()
                    .zip(actions)
                    .zip(advantages)
                    .map(|((o, &a), &adv)| {
                        self.policy_gradient_with_entropy(o, a, adv, entropy_coef)
                    })
                    .collect()
            }
        };
        let mut grads = Vec::with_capacity(results.len());
        for ((logits, jac), (&action, &advantage)) in
            results.iter().zip(actions.iter().zip(advantages))
        {
            let probs = softmax(logits);
            let upstream = regularized_upstream(&probs, action, advantage, entropy_coef);
            let mut grad = vec![0.0; jac.n_params()];
            jac.vjp_into(&upstream, &mut grad);
            grads.push(grad);
        }
        Ok(grads)
    }

    fn params(&self) -> Vec<f64> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError> {
        if params.len() != self.params.len() {
            return Err(CoreError::ParamLenMismatch {
                expected: self.params.len(),
                actual: params.len(),
            });
        }
        self.params.copy_from_slice(params);
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Actor> {
        Box::new(self.clone())
    }
}

/// A classical MLP actor (the paper's Comp2/Comp3 policies).
#[derive(Debug, Clone)]
pub struct ClassicalActor {
    mlp: Mlp,
}

impl ClassicalActor {
    /// Builds an MLP policy with the given layer sizes
    /// (`[obs_dim, …, n_actions]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for fewer than two sizes.
    pub fn new(sizes: &[usize], seed: u64) -> Result<Self, CoreError> {
        if sizes.len() < 2 {
            return Err(CoreError::InvalidConfig(
                "actor MLP needs input and output sizes".into(),
            ));
        }
        Ok(ClassicalActor {
            mlp: Mlp::new(sizes, Activation::Tanh, seed),
        })
    }

    /// The underlying network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    fn check_obs(&self, obs: &[f64]) -> Result<(), CoreError> {
        if obs.len() != self.mlp.in_dim() {
            return Err(CoreError::FeatureLenMismatch {
                expected: self.mlp.in_dim(),
                actual: obs.len(),
            });
        }
        Ok(())
    }
}

impl Actor for ClassicalActor {
    fn obs_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    fn n_actions(&self) -> usize {
        self.mlp.out_dim()
    }

    fn param_count(&self) -> usize {
        self.mlp.param_count()
    }

    fn probs(&self, obs: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.check_obs(obs)?;
        Ok(softmax(&self.mlp.forward(obs)))
    }

    fn policy_gradient_with_entropy(
        &self,
        obs: &[f64],
        action: usize,
        advantage: f64,
        entropy_coef: f64,
    ) -> Result<Vec<f64>, CoreError> {
        self.check_obs(obs)?;
        let probs = softmax(&self.mlp.forward(obs));
        let upstream = regularized_upstream(&probs, action, advantage, entropy_coef);
        let (grad, _) = self.mlp.backward(obs, &upstream);
        Ok(grad)
    }

    fn params(&self) -> Vec<f64> {
        self.mlp.params()
    }

    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError> {
        if params.len() != self.mlp.param_count() {
            return Err(CoreError::ParamLenMismatch {
                expected: self.mlp.param_count(),
                actual: params.len(),
            });
        }
        self.mlp.set_params(params);
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Actor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantum_actor() -> QuantumActor {
        QuantumActor::new(4, 4, 4, 50, 3).unwrap()
    }

    #[test]
    fn quantum_actor_paper_budget() {
        let a = quantum_actor();
        assert_eq!(a.param_count(), 50);
        assert_eq!(a.obs_dim(), 4);
        assert_eq!(a.n_actions(), 4);
        // 42 circuit params + 4 scales + 4 biases.
        assert_eq!(a.model().circuit_param_count(), 42);
    }

    #[test]
    fn quantum_actor_probs_form_distribution() {
        let a = quantum_actor();
        let p = a.probs(&[0.1, 0.7, 0.3, 0.9]).unwrap();
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn quantum_actor_rejects_bad_obs() {
        let a = quantum_actor();
        assert!(matches!(
            a.probs(&[0.1; 3]),
            Err(CoreError::FeatureLenMismatch { .. })
        ));
        assert!(a.policy_gradient(&[0.1; 5], 0, 1.0).is_err());
        assert!(a.quantum_state(&[0.1; 2]).is_err());
    }

    #[test]
    fn quantum_actor_gradient_matches_finite_difference() {
        let mut a = quantum_actor();
        let obs = [0.2, 0.8, 0.4, 0.6];
        let action = 2;
        let adv = -1.3;
        let grad = a.policy_gradient(&obs, action, adv).unwrap();
        let base = a.params();
        let eps = 1e-6;
        let loss = |a: &QuantumActor| -> f64 { -adv * a.probs(&obs).unwrap()[action].ln() };
        for p in (0..base.len()).step_by(7) {
            let mut pp = base.clone();
            pp[p] += eps;
            a.set_params(&pp).unwrap();
            let plus = loss(&a);
            pp[p] -= 2.0 * eps;
            a.set_params(&pp).unwrap();
            let minus = loss(&a);
            let fd = (plus - minus) / (2.0 * eps);
            assert!(
                (grad[p] - fd).abs() < 1e-5,
                "param {p}: {} vs {fd}",
                grad[p]
            );
        }
    }

    #[test]
    fn entropy_regularised_gradient_matches_finite_difference() {
        let mut a = quantum_actor();
        let obs = [0.3, 0.6, 0.1, 0.9];
        let (action, adv, beta) = (1usize, 0.8, 0.3);
        let grad = a
            .policy_gradient_with_entropy(&obs, action, adv, beta)
            .unwrap();
        let base = a.params();
        let eps = 1e-6;
        // Loss = −adv·ln π[a] − β·H(π).
        let loss = |a: &QuantumActor| -> f64 {
            let p = a.probs(&obs).unwrap();
            -adv * p[action].ln() - beta * qmarl_neural::loss::entropy(&p)
        };
        for p in (0..base.len()).step_by(9) {
            let mut pp = base.clone();
            pp[p] += eps;
            a.set_params(&pp).unwrap();
            let plus = loss(&a);
            pp[p] -= 2.0 * eps;
            a.set_params(&pp).unwrap();
            let minus = loss(&a);
            let fd = (plus - minus) / (2.0 * eps);
            assert!(
                (grad[p] - fd).abs() < 1e-5,
                "param {p}: {} vs {fd}",
                grad[p]
            );
        }
    }

    #[test]
    fn zero_entropy_coef_matches_plain_gradient() {
        let a = quantum_actor();
        let obs = [0.2, 0.4, 0.6, 0.8];
        let g1 = a.policy_gradient(&obs, 2, -1.1).unwrap();
        let g2 = a.policy_gradient_with_entropy(&obs, 2, -1.1, 0.0).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn batched_policy_gradients_match_serial_bit_exactly() {
        let obs: Vec<Vec<f64>> = (0..6)
            .map(|b| (0..4).map(|i| ((b * 4 + i) % 9) as f64 / 9.0).collect())
            .collect();
        let actions = [0usize, 3, 1, 2, 0, 1];
        let advantages = [0.7, -1.2, 0.0, 2.4, -0.3, 1.1];
        for method in [
            GradMethod::Adjoint,
            GradMethod::ParameterShift,
            GradMethod::FiniteDiff,
        ] {
            let a = quantum_actor().with_grad_method(method);
            for beta in [0.0, 0.25] {
                let batched = a
                    .policy_gradients_batch(&obs, &actions, &advantages, beta)
                    .unwrap();
                assert_eq!(batched.len(), obs.len());
                for (t, grad) in batched.iter().enumerate() {
                    let reference = a
                        .policy_gradient_with_entropy(&obs[t], actions[t], advantages[t], beta)
                        .unwrap();
                    assert_eq!(*grad, reference, "{method:?} β={beta} sample {t}");
                }
            }
        }
        // The MLP default route agrees with per-sample calls too.
        let a = ClassicalActor::new(&[4, 5, 4], 17).unwrap();
        let batched = a
            .policy_gradients_batch(&obs, &actions, &advantages, 0.1)
            .unwrap();
        for (t, grad) in batched.iter().enumerate() {
            let reference = a
                .policy_gradient_with_entropy(&obs[t], actions[t], advantages[t], 0.1)
                .unwrap();
            assert_eq!(*grad, reference);
        }
        // Bad shapes are rejected up front.
        let a = quantum_actor();
        assert!(a
            .policy_gradients_batch(&[vec![0.0; 3]], &[0], &[1.0], 0.0)
            .is_err());
    }

    #[test]
    fn sampled_actor_is_deterministic_and_routes_to_parameter_shift() {
        let backend = ExecutionBackend::Sampled {
            shots: 256,
            seed: 9,
        };
        // A sampled backend downgrades the default adjoint request.
        let a = quantum_actor().with_backend(backend.clone());
        assert_eq!(a.backend(), &backend);
        let obs: Vec<Vec<f64>> = (0..4)
            .map(|b| (0..4).map(|i| 0.11 * (b + i) as f64).collect())
            .collect();
        // Reproducible distributions that differ from the ideal ones.
        let p = a.probs(&obs[0]).unwrap();
        assert_eq!(p, a.probs(&obs[0]).unwrap());
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_ne!(p, quantum_actor().probs(&obs[0]).unwrap());
        // Batched gradients are bit-identical to per-sample calls: the
        // shot streams are content-addressed, not batch-positional.
        let actions = [0usize, 1, 2, 3];
        let advantages = [0.5, -0.9, 1.4, 0.0];
        let batched = a
            .policy_gradients_batch(&obs, &actions, &advantages, 0.1)
            .unwrap();
        for (t, grad) in batched.iter().enumerate() {
            let reference = a
                .policy_gradient_with_entropy(&obs[t], actions[t], advantages[t], 0.1)
                .unwrap();
            assert_eq!(*grad, reference, "sample {t}");
        }
    }

    #[test]
    fn classical_actor_budget_and_gradient() {
        let a = ClassicalActor::new(&[4, 5, 4], 7).unwrap();
        assert_eq!(a.param_count(), 49); // the paper's ≈50 budget
        let p = a.probs(&[0.3, 0.1, 0.5, 0.9]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let g = a.policy_gradient(&[0.3, 0.1, 0.5, 0.9], 1, 0.5).unwrap();
        assert_eq!(g.len(), 49);
    }

    #[test]
    fn classical_actor_rejects_bad_shapes() {
        assert!(ClassicalActor::new(&[4], 0).is_err());
        let mut a = ClassicalActor::new(&[4, 5, 4], 0).unwrap();
        assert!(a.probs(&[0.0; 5]).is_err());
        assert!(a.set_params(&[0.0; 3]).is_err());
    }

    #[test]
    fn quantum_actor_invalid_configs() {
        assert!(QuantumActor::new(4, 4, 5, 50, 0).is_err()); // 5 actions > 4 wires
        assert!(QuantumActor::new(4, 4, 4, 8, 0).is_err()); // budget ≤ head
    }

    #[test]
    fn select_action_argmax_and_sampling() {
        let probs = [0.1, 0.6, 0.2, 0.1];
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(select_action(&probs, true, &mut rng), 1);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            counts[select_action(&probs, false, &mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 / 10_000.0 - probs[i]).abs() < 0.02, "action {i}");
        }
    }

    #[test]
    fn select_action_is_total_over_non_finite_probs() {
        let mut rng = StdRng::seed_from_u64(5);
        let nan = f64::NAN;
        assert_eq!(select_action(&[0.2, nan, 0.8], true, &mut rng), 1);
        assert_eq!(select_action(&[nan; 4], true, &mut rng), 3);
        assert_eq!(select_action(&[0.1, f64::INFINITY, 0.2], true, &mut rng), 1);
        assert_eq!(select_action(&[nan; 4], false, &mut rng), 3);
        assert_eq!(select_action(&[], true, &mut rng), 0);
        assert_eq!(select_action(&[], false, &mut rng), 0);
    }

    #[test]
    fn params_roundtrip_changes_policy() {
        let mut a = quantum_actor();
        let obs = [0.5, 0.5, 0.5, 0.5];
        let before = a.probs(&obs).unwrap();
        let mut p = a.params();
        for x in p.iter_mut().take(42) {
            *x += 0.7;
        }
        a.set_params(&p).unwrap();
        let after = a.probs(&obs).unwrap();
        assert!(before.iter().zip(&after).any(|(x, y)| (x - y).abs() > 1e-6));
    }
}
