//! Critics: the centralized state-value function `V(s)` (Sec. III-A2).
//!
//! The CTDE trainer feeds the **global** state (every agent's observation
//! concatenated) to one centralized critic. The paper's quantum critic
//! keeps the register at 4 qubits regardless of agent count by folding the
//! state through the layered encoder ("the state encoding is used …
//! because the state size is larger than the size in observation"). The
//! qubit-hungry alternative the paper argues against, one wire per state
//! feature, is the same [`QuantumCritic`] built with
//! `n_qubits == state_dim` (the qubit-scaling ablation does exactly that).

use qmarl_neural::prelude::{Activation, Mlp};
use qmarl_runtime::backend::ExecutionBackend;
use qmarl_runtime::qnn::{only_row, CompiledVqc};
use qmarl_vqc::grad::Jacobian;
use qmarl_vqc::prelude::{GradMethod, OutputHead, Readout, Vqc, VqcBuilder};

use crate::error::CoreError;

/// A trainable state-value estimator.
pub trait Critic: Send {
    /// Global-state dimensionality.
    fn state_dim(&self) -> usize;
    /// Number of trainable parameters.
    fn param_count(&self) -> usize;

    /// The value estimate `V(s)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad state vector.
    fn value(&self, state: &[f64]) -> Result<f64, CoreError>;

    /// Value estimates for a whole batch of states. The default walks
    /// [`Critic::value`] serially; quantum critics override it with the
    /// runtime's batched executor (how the trainer evaluates all TD
    /// targets of a minibatch at once).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad state vector.
    fn values_batch(&self, states: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
        states.iter().map(|s| self.value(s)).collect()
    }

    /// The value and its parameter gradient `∇_ψ V(s)`. Circuit-backed
    /// critics answer it as a batch of one through
    /// [`Critic::values_with_gradients_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad state vector.
    fn value_with_gradient(&self, state: &[f64]) -> Result<(f64, Vec<f64>), CoreError>;

    /// Values and full-parameter Jacobians for a whole batch of states
    /// under the current (frozen) parameters — the update sweep's critic
    /// surface. The default walks [`Critic::value_with_gradient`]
    /// serially, wrapping each gradient as a single-row Jacobian;
    /// quantum critics override it with the runtime's batched gradient
    /// engine. Either route is bit-identical to per-state
    /// [`Critic::value_with_gradient`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FeatureLenMismatch`] for a bad state vector.
    fn values_with_gradients_batch(
        &self,
        states: &[Vec<f64>],
    ) -> Result<Vec<(f64, Jacobian)>, CoreError> {
        states
            .iter()
            .map(|s| {
                let (v, g) = self.value_with_gradient(s)?;
                Ok((v, Jacobian::from_row(g)))
            })
            .collect()
    }

    /// Snapshot of the flat parameter vector (used for the target network
    /// `φ ← ψ`).
    fn params(&self) -> Vec<f64>;

    /// Loads a flat parameter vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParamLenMismatch`] on length mismatch.
    fn set_params(&mut self, params: &[f64]) -> Result<(), CoreError>;

    /// A boxed deep copy — how the trainer materialises the target
    /// network `φ` from the live critic `ψ`.
    fn clone_box(&self) -> Box<dyn Critic>;
}

/// The paper's quantum centralized critic: `state_dim` features folded
/// into `n_qubits` wires by the layered encoder, scalar mean-`⟨Z⟩` readout
/// with a trainable affine head.
///
/// Evaluation runs through the batched runtime ([`CompiledVqc`]); batch
/// value queries ([`Critic::values_batch`]) fan out over its executor.
///
/// Gradients have one body, [`Critic::values_with_gradients_batch`]:
/// [`GradMethod::Adjoint`] runs the prebound adjoint slabs,
/// [`GradMethod::ParameterShift`] the batched shift walk. A single
/// [`Critic::value_with_gradient`] call is a batch of one.
#[derive(Debug, Clone)]
pub struct QuantumCritic {
    model: CompiledVqc,
    params: Vec<f64>,
    grad_method: GradMethod,
}

impl QuantumCritic {
    /// Builds the critic with a total trainable budget of `total_params`
    /// (circuit angles + 2 affine head parameters).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the budget cannot fit the
    /// head.
    pub fn new(
        n_qubits: usize,
        state_dim: usize,
        total_params: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if total_params <= 2 {
            return Err(CoreError::InvalidConfig(
                "critic budget must exceed the 2-parameter affine head".into(),
            ));
        }
        let model = VqcBuilder::new(n_qubits)
            .encoder_inputs(state_dim)
            .ansatz_params(total_params - 2)
            .readout(Readout::mean_z(n_qubits))
            .output_head(OutputHead::Affine)
            .build()?;
        let params = model.init_params(seed);
        Ok(QuantumCritic {
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
    /// Off `Ideal` an adjoint request runs the backend's own gradient
    /// (see [`crate::policy::QuantumActor::with_backend`]).
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        self.model = self.model.with_backend(backend);
        self
    }

    /// The execution backend in use.
    pub fn backend(&self) -> &ExecutionBackend {
        self.model.backend()
    }

    /// The underlying VQC.
    pub fn model(&self) -> &Vqc {
        self.model.model()
    }

    /// The compiled-runtime handle backing this critic.
    pub fn compiled(&self) -> &CompiledVqc {
        &self.model
    }

    fn check_state(&self, state: &[f64]) -> Result<(), CoreError> {
        if state.len() != self.model.model().input_len() {
            return Err(CoreError::FeatureLenMismatch {
                expected: self.model.model().input_len(),
                actual: state.len(),
            });
        }
        Ok(())
    }
}

impl Critic for QuantumCritic {
    fn state_dim(&self) -> usize {
        self.model.model().input_len()
    }

    fn param_count(&self) -> usize {
        self.model.model().param_count()
    }

    fn value(&self, state: &[f64]) -> Result<f64, CoreError> {
        self.check_state(state)?;
        Ok(self.model.forward(state, &self.params)?[0])
    }

    fn values_batch(&self, states: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
        for s in states {
            self.check_state(s)?;
        }
        Ok(self.model.values_batch(states, &self.params)?)
    }

    fn value_with_gradient(&self, state: &[f64]) -> Result<(f64, Vec<f64>), CoreError> {
        let (value, jac) = only_row(self.values_with_gradients_batch(&[state.to_vec()])?)?;
        Ok((value, jac.vjp(&[1.0])))
    }

    fn values_with_gradients_batch(
        &self,
        states: &[Vec<f64>],
    ) -> Result<Vec<(f64, Jacobian)>, CoreError> {
        for s in states {
            self.check_state(s)?;
        }
        let results = match self.grad_method {
            // The prebound adjoint engine: the whole batch as lane slabs
            // behind hoisted trig, bit-identical per state to the
            // interpreter's adjoint.
            GradMethod::Adjoint => self
                .model
                .forward_with_jacobian_batch_prebound(states, &self.params)?,
            // Adjoint unavailable (hardware-rule gradients requested):
            // the batched parameter-shift queue.
            GradMethod::ParameterShift => self
                .model
                .forward_with_jacobian_batch(states, &self.params)?,
        };
        Ok(results
            .into_iter()
            .map(|(out, jac)| (out[0], jac))
            .collect())
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

    fn clone_box(&self) -> Box<dyn Critic> {
        Box::new(self.clone())
    }
}

/// A classical MLP critic (Comp1's centralized critic; Comp2/Comp3).
#[derive(Debug, Clone)]
pub struct ClassicalCritic {
    mlp: Mlp,
}

impl ClassicalCritic {
    /// Builds an MLP value head with the given layer sizes
    /// (`[state_dim, …, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for fewer than two sizes or a
    /// non-scalar output.
    pub fn new(sizes: &[usize], seed: u64) -> Result<Self, CoreError> {
        if sizes.len() < 2 {
            return Err(CoreError::InvalidConfig(
                "critic MLP needs input and output sizes".into(),
            ));
        }
        if *sizes.last().expect("nonempty") != 1 {
            return Err(CoreError::InvalidConfig(
                "critic MLP must output a scalar".into(),
            ));
        }
        Ok(ClassicalCritic {
            mlp: Mlp::new(sizes, Activation::Tanh, seed),
        })
    }

    /// The underlying network.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    fn check_state(&self, state: &[f64]) -> Result<(), CoreError> {
        if state.len() != self.mlp.in_dim() {
            return Err(CoreError::FeatureLenMismatch {
                expected: self.mlp.in_dim(),
                actual: state.len(),
            });
        }
        Ok(())
    }
}

impl Critic for ClassicalCritic {
    fn state_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    fn param_count(&self) -> usize {
        self.mlp.param_count()
    }

    fn value(&self, state: &[f64]) -> Result<f64, CoreError> {
        self.check_state(state)?;
        Ok(self.mlp.forward(state)[0])
    }

    fn value_with_gradient(&self, state: &[f64]) -> Result<(f64, Vec<f64>), CoreError> {
        self.check_state(state)?;
        let v = self.mlp.forward(state)[0];
        let (grad, _) = self.mlp.backward(state, &[1.0]);
        Ok((v, grad))
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

    fn clone_box(&self) -> Box<dyn Critic> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state16() -> Vec<f64> {
        (0..16).map(|i| (i as f64) / 16.0).collect()
    }

    #[test]
    fn quantum_critic_paper_shape() {
        let c = QuantumCritic::new(4, 16, 50, 1).unwrap();
        assert_eq!(c.state_dim(), 16);
        assert_eq!(c.param_count(), 50); // 48 circuit + scale + bias
        assert_eq!(c.model().circuit().n_qubits(), 4);
        let v = c.value(&state16()).unwrap();
        assert!(
            (-1.5..=1.5).contains(&v),
            "fresh critic near raw readout range, got {v}"
        );
    }

    #[test]
    fn quantum_critic_gradient_matches_finite_difference() {
        let mut c = QuantumCritic::new(4, 16, 20, 5).unwrap();
        let s = state16();
        let (v0, grad) = c.value_with_gradient(&s).unwrap();
        let base = c.params();
        let eps = 1e-6;
        for p in (0..base.len()).step_by(3) {
            let mut pp = base.clone();
            pp[p] += eps;
            c.set_params(&pp).unwrap();
            let plus = c.value(&s).unwrap();
            pp[p] -= 2.0 * eps;
            c.set_params(&pp).unwrap();
            let minus = c.value(&s).unwrap();
            let fd = (plus - minus) / (2.0 * eps);
            assert!((grad[p] - fd).abs() < 1e-5, "param {p}");
        }
        c.set_params(&base).unwrap();
        assert!((c.value(&s).unwrap() - v0).abs() < 1e-12);
    }

    #[test]
    fn naive_critic_needs_one_wire_per_feature() {
        // The naive CTDE layout: one wire per state feature.
        let c = QuantumCritic::new(8, 8, 20, 2).unwrap();
        assert_eq!(c.model().circuit().n_qubits(), 8);
        assert_eq!(c.state_dim(), 8);
        let s: Vec<f64> = (0..8).map(|i| 0.1 * i as f64).collect();
        let (v, g) = c.value_with_gradient(&s).unwrap();
        assert!(v.is_finite());
        assert_eq!(g.len(), 20);
        assert_eq!(c.params().len(), 20);
    }

    #[test]
    fn naive_critic_qubits_scale_with_agents() {
        // obs_dim = 4 per agent: 2 agents → 8 wires, 4 agents → 16 wires.
        for (agents, wires) in [(1usize, 4usize), (2, 8), (4, 16)] {
            let c = QuantumCritic::new(agents * 4, agents * 4, 12, 0).unwrap();
            assert_eq!(c.model().circuit().n_qubits(), wires);
        }
    }

    #[test]
    fn classical_critic_gradient_matches_finite_difference() {
        let mut c = ClassicalCritic::new(&[16, 2, 1], 9).unwrap();
        assert_eq!(c.param_count(), 37);
        let s = state16();
        let (_, grad) = c.value_with_gradient(&s).unwrap();
        let base = c.params();
        let eps = 1e-6;
        for p in 0..base.len() {
            let mut pp = base.clone();
            pp[p] += eps;
            c.set_params(&pp).unwrap();
            let plus = c.value(&s).unwrap();
            pp[p] -= 2.0 * eps;
            c.set_params(&pp).unwrap();
            let minus = c.value(&s).unwrap();
            let fd = (plus - minus) / (2.0 * eps);
            assert!((grad[p] - fd).abs() < 1e-5, "param {p}");
        }
    }

    #[test]
    fn batched_value_gradients_match_serial_bit_exactly() {
        let states: Vec<Vec<f64>> = (0..5)
            .map(|b| (0..16).map(|i| ((b * 16 + i) % 11) as f64 / 11.0).collect())
            .collect();
        let critic = || QuantumCritic::new(4, 16, 24, 7).unwrap();
        let sampled = ExecutionBackend::Sampled { shots: 64, seed: 2 };
        for (label, c) in [
            ("ideal adjoint", critic()),
            (
                "ideal shift",
                critic().with_grad_method(GradMethod::ParameterShift),
            ),
            ("sampled:shots=64", critic().with_backend(sampled)),
        ] {
            let batched = c.values_with_gradients_batch(&states).unwrap();
            assert_eq!(batched.len(), states.len());
            for (s, (v, jac)) in states.iter().zip(&batched) {
                let (v_ref, g_ref) = c.value_with_gradient(s).unwrap();
                assert_eq!(*v, v_ref, "{label}");
                assert_eq!(jac.vjp(&[1.0]), g_ref, "{label}");
                if label == "ideal adjoint" {
                    // The interpreter oracle, bit for bit.
                    let (out, oracle) = c
                        .model()
                        .forward_with_jacobian(s, &c.params(), GradMethod::Adjoint)
                        .unwrap();
                    assert_eq!((out[0], oracle.vjp(&[1.0])), (v_ref, g_ref));
                }
            }
        }
        // The MLP default route agrees with per-state calls too.
        let c = ClassicalCritic::new(&[16, 3, 1], 5).unwrap();
        for (s, (v, jac)) in states
            .iter()
            .zip(c.values_with_gradients_batch(&states).unwrap())
        {
            let (v_ref, g_ref) = c.value_with_gradient(s).unwrap();
            assert_eq!(v, v_ref);
            assert_eq!(jac.vjp(&[1.0]), g_ref);
        }
        // Bad shapes are rejected up front.
        let c = QuantumCritic::new(4, 16, 24, 7).unwrap();
        assert!(c.values_with_gradients_batch(&[vec![0.0; 3]]).is_err());
    }

    #[test]
    fn sampled_critic_is_deterministic_and_batches_bit_exactly() {
        let backend = ExecutionBackend::Sampled {
            shots: 128,
            seed: 4,
        };
        let c = QuantumCritic::new(4, 16, 24, 7)
            .unwrap()
            .with_backend(backend.clone());
        assert_eq!(c.backend(), &backend);
        let states: Vec<Vec<f64>> = (0..3)
            .map(|b| (0..16).map(|i| ((b * 16 + i) % 7) as f64 / 7.0).collect())
            .collect();
        let v = c.value(&states[0]).unwrap();
        assert_eq!(v, c.value(&states[0]).unwrap(), "shot noise is seeded");
        assert_ne!(
            v,
            QuantumCritic::new(4, 16, 24, 7)
                .unwrap()
                .value(&states[0])
                .unwrap(),
            "sampled value differs from exact"
        );
        let batched = c.values_with_gradients_batch(&states).unwrap();
        for (s, (val, jac)) in states.iter().zip(&batched) {
            let (v_ref, g_ref) = c.value_with_gradient(s).unwrap();
            assert_eq!(*val, v_ref);
            assert_eq!(jac.vjp(&[1.0]), g_ref);
        }
        assert_eq!(
            c.values_batch(&states).unwrap(),
            batched.iter().map(|(v, _)| *v).collect::<Vec<_>>()
        );
    }

    #[test]
    fn critics_validate_inputs() {
        let c = QuantumCritic::new(4, 16, 50, 0).unwrap();
        assert!(matches!(
            c.value(&[0.0; 4]),
            Err(CoreError::FeatureLenMismatch { .. })
        ));
        let mut c = ClassicalCritic::new(&[16, 2, 1], 0).unwrap();
        assert!(c.value(&[0.0; 3]).is_err());
        assert!(c.set_params(&[0.0; 2]).is_err());
        assert!(ClassicalCritic::new(&[16, 4], 0).is_err()); // non-scalar out
        assert!(ClassicalCritic::new(&[16], 0).is_err());
        assert!(QuantumCritic::new(4, 16, 2, 0).is_err());
    }

    #[test]
    fn target_network_snapshot_roundtrip() {
        let c = QuantumCritic::new(4, 16, 50, 3).unwrap();
        let mut target = c.clone();
        let s = state16();
        // Diverge the live critic, then sync φ ← ψ.
        let mut p = c.params();
        for x in p.iter_mut() {
            *x += 0.3;
        }
        let mut live = c.clone();
        live.set_params(&p).unwrap();
        assert!((live.value(&s).unwrap() - target.value(&s).unwrap()).abs() > 1e-9);
        target.set_params(&live.params()).unwrap();
        assert!((live.value(&s).unwrap() - target.value(&s).unwrap()).abs() < 1e-12);
    }
}
