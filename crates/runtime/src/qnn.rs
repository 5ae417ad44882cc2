//! [`CompiledVqc`]: a [`Vqc`] model bound to its compiled schedule.
//!
//! This is the runtime's model-facing API and what `qmarl-core`'s quantum
//! actors and critics execute through. Construction looks the circuit up
//! in the global [`CircuitCache`] (so every clone and every same-shaped
//! model shares one compilation), and every evaluation fans out over the
//! [`BatchExecutor`]: a single forward pass is a one-row
//! [`CompiledVqc::forward_batch`], which on `Ideal` runs the prebound
//! fused schedule as a one-lane slab.
//!
//! Gradient routing: parameter-shift gradients go through the executor's
//! prefix-shared shift walk ([`CompiledVqc::forward_with_jacobian_batch`]),
//! adjoint gradients through its prebound adjoint slabs
//! ([`CompiledVqc::forward_with_jacobian_batch_prebound`]). There is no
//! single-sample gradient entry point: one sample is a batch of one. The
//! `vqc` interpreter (`Vqc::forward_with_jacobian`) is the test oracle
//! these entry points are pinned to, and never runs here.

use std::sync::Arc;

use qmarl_vqc::grad::Jacobian;
use qmarl_vqc::qnn::Vqc;

use crate::backend::ExecutionBackend;
use crate::batch::BatchExecutor;
use crate::cache::CircuitCache;
use crate::compile::CompiledCircuit;
use crate::error::RuntimeError;

/// A VQC model plus its cached compiled schedule, batch executor and
/// execution backend.
#[derive(Debug, Clone)]
pub struct CompiledVqc {
    model: Vqc,
    compiled: Arc<CompiledCircuit>,
    executor: BatchExecutor,
    backend: ExecutionBackend,
}

impl CompiledVqc {
    /// Compiles (or cache-hits) the model's circuit and attaches the
    /// default executor on the [`ExecutionBackend::Ideal`] backend.
    pub fn new(model: Vqc) -> Self {
        let compiled = CircuitCache::global().get_or_compile(model.circuit());
        CompiledVqc {
            model,
            compiled,
            executor: BatchExecutor::default(),
            backend: ExecutionBackend::Ideal,
        }
    }

    /// Overrides the executor (worker count).
    pub fn with_executor(mut self, executor: BatchExecutor) -> Self {
        self.executor = executor;
        self
    }

    /// Overrides the execution backend (default:
    /// [`ExecutionBackend::Ideal`], which is bit-identical to not setting
    /// a backend at all). Under `Sampled`/`Noisy`, every forward pass
    /// runs on that backend and **all** gradient requests route through
    /// the batched parameter-shift path — the adjoint paths need exact
    /// statevectors and stay `Ideal`-only.
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The execution backend in use.
    pub fn backend(&self) -> &ExecutionBackend {
        &self.backend
    }

    /// The wrapped model.
    pub fn model(&self) -> &Vqc {
        &self.model
    }

    /// The compiled schedule backing this model.
    pub fn compiled(&self) -> &Arc<CompiledCircuit> {
        &self.compiled
    }

    /// The batch executor in use.
    pub fn executor(&self) -> &BatchExecutor {
        &self.executor
    }

    /// Single forward pass: a one-row [`CompiledVqc::forward_batch`].
    ///
    /// # Errors
    ///
    /// Returns binding-length errors.
    pub fn forward(&self, inputs: &[f64], params: &[f64]) -> Result<Vec<f64>, RuntimeError> {
        only_row(self.forward_batch(&[inputs.to_vec()], params)?)
    }

    /// Batched forward pass: one output vector per observation.
    ///
    /// # Errors
    ///
    /// Returns binding-length errors.
    pub fn forward_batch(
        &self,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<Vec<f64>>, RuntimeError> {
        let (circ, scales, biases) = self.model.split_params(params)?;
        let scaled: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| self.model.input_scaling().apply_all(x))
            .collect();
        let raws = self.executor.expectation_batch_backend(
            &self.compiled,
            self.model.readout(),
            &scaled,
            circ,
            &self.backend,
        )?;
        Ok(raws
            .iter()
            .map(|raw| self.model.apply_head(raw, scales, biases))
            .collect())
    }

    /// Batched forward + Jacobian over a minibatch of observations under
    /// shared parameters, on the model's backend (see
    /// [`BatchExecutor::forward_and_jacobian_batch_backend`] for the
    /// per-backend gradient route).
    ///
    /// # Errors
    ///
    /// Returns binding-length errors.
    pub fn forward_with_jacobian_batch(
        &self,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<(Vec<f64>, Jacobian)>, RuntimeError> {
        let (circ, scales, biases) = self.model.split_params(params)?;
        let scaled: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| self.model.input_scaling().apply_all(x))
            .collect();
        let (outs, jacs) = self.executor.forward_and_jacobian_batch_backend(
            &self.compiled,
            self.model.readout(),
            &scaled,
            circ,
            &self.backend,
        )?;
        Ok(outs
            .iter()
            .zip(&jacs)
            .map(|(raw, cj)| self.model.assemble_jacobian(raw, cj, scales, biases))
            .collect())
    }

    /// Batched **adjoint** forward + Jacobian over a minibatch of
    /// observations under shared (frozen) parameters — the training
    /// update's hot path. The circuit is adjoint-prebound once
    /// ([`crate::prebound::prebind_adjoint`]: forward *and* inverse trig
    /// of every parameter-only rotation hoisted out of the per-sample
    /// loop), then the whole minibatch runs as lane slabs through the
    /// executor's flat work queue, one forward-walk-plus-reverse-sweep
    /// pair per chunk.
    ///
    /// Per sample the result is **bit-identical** to the interpreter
    /// oracle `Vqc::forward_with_jacobian(…, GradMethod::Adjoint)`
    /// (asserted by this module's tests and the trainer equivalence
    /// suite).
    ///
    /// # Errors
    ///
    /// Returns binding-length errors.
    pub fn forward_with_jacobian_batch_prebound(
        &self,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<(Vec<f64>, Jacobian)>, RuntimeError> {
        if !self.backend.supports_adjoint() {
            // Ideal-state adjoint/prebound needs exact statevectors:
            // stochastic backends route to the batched backend queue on
            // their own backend (parameter-shift for `Sampled`/`Noisy`,
            // the per-trajectory adjoint for `Trajectory`).
            return self.forward_with_jacobian_batch(inputs, params);
        }
        let (circ, scales, biases) = self.model.split_params(params)?;
        let scaled: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| self.model.input_scaling().apply_all(x))
            .collect();
        let prebound = crate::prebound::prebind_adjoint(&self.compiled, circ)?;
        let group = crate::batch::AdjointGroup {
            circuit: &prebound,
            inputs: scaled.iter().map(|v| v.as_slice()).collect(),
        };
        let per_group = self
            .executor
            .forward_and_jacobian_batch_prebound(self.model.readout(), &[group])?;
        Ok(per_group
            .into_iter()
            .flatten()
            .map(|(raw, circ_jac)| {
                self.model
                    .assemble_jacobian(&raw, &circ_jac, scales, biases)
            })
            .collect())
    }

    /// Batched scalar evaluation (critic values): the first output of
    /// every sample's forward pass.
    ///
    /// # Errors
    ///
    /// Returns binding-length errors.
    pub fn values_batch(
        &self,
        inputs: &[Vec<f64>],
        params: &[f64],
    ) -> Result<Vec<f64>, RuntimeError> {
        Ok(self
            .forward_batch(inputs, params)?
            .into_iter()
            .map(|out| out[0])
            .collect())
    }
}

/// The only row of a one-row batch result: a single request answered by
/// a batched entry point. Errors when `rows` is empty.
pub fn only_row<T>(rows: Vec<T>) -> Result<T, RuntimeError> {
    rows.into_iter()
        .next()
        .ok_or_else(|| RuntimeError::InvalidConfig("a one-row batch returned no row".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmarl_vqc::grad::GradMethod;
    use qmarl_vqc::observable::Readout;
    use qmarl_vqc::qnn::{OutputHead, VqcBuilder};

    fn actor_like() -> Vqc {
        VqcBuilder::new(4)
            .encoder_inputs(4)
            .ansatz_params(20)
            .readout(Readout::z_all(4))
            .output_head(OutputHead::Affine)
            .build()
            .unwrap()
    }

    #[test]
    fn forward_matches_uncompiled_model() {
        let model = actor_like();
        let params = model.init_params(3);
        let compiled = CompiledVqc::new(model.clone());
        let obs = [0.2, 0.8, 0.5, 0.1];
        let fast = compiled.forward(&obs, &params).unwrap();
        let reference = model.forward(&obs, &params).unwrap();
        for (a, b) in fast.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn forward_batch_matches_singles() {
        let compiled = CompiledVqc::new(actor_like());
        let params = compiled.model().init_params(5);
        let batch: Vec<Vec<f64>> = (0..6)
            .map(|b| (0..4).map(|i| 0.05 * (b + i) as f64).collect())
            .collect();
        let outs = compiled.forward_batch(&batch, &params).unwrap();
        for (obs, out) in batch.iter().zip(&outs) {
            let single = compiled.forward(obs, &params).unwrap();
            assert_eq!(*out, single);
        }
    }

    #[test]
    fn parameter_shift_through_runtime_matches_vqc() {
        let model = actor_like();
        let params = model.init_params(7);
        let compiled = CompiledVqc::new(model.clone());
        let obs = [0.3, 0.1, 0.9, 0.6];
        let (out_rt, jac_rt) = only_row(
            compiled
                .forward_with_jacobian_batch(&[obs.to_vec()], &params)
                .unwrap(),
        )
        .unwrap();
        let (out_ref, jac_ref) = model
            .forward_with_jacobian(&obs, &params, GradMethod::ParameterShift)
            .unwrap();
        for (a, b) in out_rt.iter().zip(&out_ref) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(jac_rt.max_abs_diff(&jac_ref) < 1e-12);
    }

    #[test]
    fn batch_jacobians_match_singles() {
        let compiled = CompiledVqc::new(actor_like());
        let params = compiled.model().init_params(9);
        let batch: Vec<Vec<f64>> = (0..3)
            .map(|b| (0..4).map(|i| 0.07 * (b * 3 + i) as f64).collect())
            .collect();
        let results = compiled
            .forward_with_jacobian_batch(&batch, &params)
            .unwrap();
        for (obs, (out, jac)) in batch.iter().zip(&results) {
            let (o, j) = only_row(
                compiled
                    .forward_with_jacobian_batch(std::slice::from_ref(obs), &params)
                    .unwrap(),
            )
            .unwrap();
            assert_eq!(*out, o);
            assert_eq!(*jac, j);
        }
        // Adjoint batch agrees with parameter-shift to gradient precision.
        let adjoint = compiled
            .forward_with_jacobian_batch_prebound(&batch, &params)
            .unwrap();
        for ((_, a), (_, b)) in adjoint.iter().zip(&results) {
            assert!(a.max_abs_diff(b) < 1e-9);
        }
    }

    #[test]
    fn prebound_adjoint_batch_is_bit_identical_to_single_adjoint() {
        // Both the actor shape (vector readout, affine head) and the
        // critic shape (scalar weighted readout): the batched engine must
        // reproduce the interpreter oracle's adjoint bit for bit,
        // including the head Jacobian, for the whole batch and for a
        // batch of one.
        let critic_like = VqcBuilder::new(3)
            .encoder_inputs(6)
            .ansatz_params(14)
            .readout(Readout::mean_z(3))
            .output_head(OutputHead::Affine)
            .build()
            .unwrap();
        for model in [actor_like(), critic_like] {
            let mut params = model.init_params(13);
            // Non-trivial head so scale gradients are exercised.
            let nc = model.circuit_param_count();
            params[nc] = 1.7;
            let compiled = CompiledVqc::new(model);
            let in_len = compiled.model().input_len();
            let batch: Vec<Vec<f64>> = (0..5)
                .map(|b| {
                    (0..in_len)
                        .map(|i| 0.06 * (b * in_len + i) as f64 - 0.4)
                        .collect()
                })
                .collect();
            let batched = compiled
                .forward_with_jacobian_batch_prebound(&batch, &params)
                .unwrap();
            for (obs, (out, jac)) in batch.iter().zip(&batched) {
                let (out_ref, jac_ref) = compiled
                    .model()
                    .forward_with_jacobian(obs, &params, GradMethod::Adjoint)
                    .unwrap();
                assert_eq!(*out, out_ref);
                assert_eq!(*jac, jac_ref);
                let one = compiled
                    .forward_with_jacobian_batch_prebound(std::slice::from_ref(obs), &params)
                    .unwrap();
                assert_eq!(one, vec![(out_ref, jac_ref)]);
            }
        }
    }

    #[test]
    fn default_backend_is_ideal_and_bit_identical() {
        let model = actor_like();
        let params = model.init_params(21);
        let plain = CompiledVqc::new(model.clone());
        let explicit = CompiledVqc::new(model).with_backend(ExecutionBackend::Ideal);
        assert!(plain.backend().is_ideal());
        let batch: Vec<Vec<f64>> = (0..4)
            .map(|b| (0..4).map(|i| 0.09 * (b + i) as f64 - 0.2).collect())
            .collect();
        assert_eq!(
            plain.forward(&batch[0], &params).unwrap(),
            explicit.forward(&batch[0], &params).unwrap()
        );
        assert_eq!(
            plain.forward_batch(&batch, &params).unwrap(),
            explicit.forward_batch(&batch, &params).unwrap()
        );
        assert_eq!(
            plain.forward_with_jacobian_batch(&batch, &params).unwrap(),
            explicit
                .forward_with_jacobian_batch(&batch, &params)
                .unwrap()
        );
        assert_eq!(
            plain
                .forward_with_jacobian_batch_prebound(&batch, &params)
                .unwrap(),
            explicit
                .forward_with_jacobian_batch_prebound(&batch, &params)
                .unwrap()
        );
    }

    #[test]
    fn sampled_backend_routes_all_gradient_requests_to_parameter_shift() {
        let model = actor_like();
        let params = model.init_params(25);
        let backend = ExecutionBackend::Sampled {
            shots: 512,
            seed: 3,
        };
        let compiled = CompiledVqc::new(model).with_backend(backend);
        let batch: Vec<Vec<f64>> = (0..3)
            .map(|b| (0..4).map(|i| 0.08 * (b * 4 + i) as f64).collect())
            .collect();
        // An adjoint request under a sampled backend is served by the
        // backend parameter-shift path. The entry points agree bit for
        // bit, and a batch of one equals its row of the whole batch,
        // because the seed derivation is content-addressed.
        let batched = compiled
            .forward_with_jacobian_batch_prebound(&batch, &params)
            .unwrap();
        let shift_batched = compiled
            .forward_with_jacobian_batch(&batch, &params)
            .unwrap();
        assert_eq!(batched, shift_batched);
        for (obs, row) in batch.iter().zip(&shift_batched) {
            let one = compiled
                .forward_with_jacobian_batch_prebound(std::slice::from_ref(obs), &params)
                .unwrap();
            assert_eq!(one, vec![row.clone()]);
        }
        // The sampled forward is reproducible but differs from exact.
        let sampled = compiled.forward(&batch[0], &params).unwrap();
        assert_eq!(sampled, compiled.forward(&batch[0], &params).unwrap());
        let exact = CompiledVqc::new(actor_like())
            .forward(&batch[0], &params)
            .unwrap();
        assert_ne!(sampled, exact);
    }

    #[test]
    fn noisy_backend_matches_model_forward_noisy() {
        let model = actor_like();
        let params = model.init_params(29);
        let noise = qmarl_qsim::noise::NoiseModel::depolarizing(0.003, 0.006).unwrap();
        let compiled = CompiledVqc::new(model.clone()).with_backend(ExecutionBackend::Noisy {
            model: noise,
            shots: None,
            seed: 0,
        });
        let obs = [0.25, 0.5, 0.75, 0.1];
        let fast = compiled.forward(&obs, &params).unwrap();
        let reference = model.forward_noisy(&obs, &params, &noise).unwrap();
        for (a, b) in fast.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn clones_share_one_compilation() {
        let a = CompiledVqc::new(actor_like());
        let b = a.clone();
        let c = CompiledVqc::new(actor_like());
        assert!(Arc::ptr_eq(a.compiled(), b.compiled()));
        assert!(Arc::ptr_eq(a.compiled(), c.compiled()));
    }

    #[test]
    fn values_batch_takes_first_output() {
        let model = VqcBuilder::new(3)
            .encoder_inputs(6)
            .ansatz_params(10)
            .readout(Readout::mean_z(3))
            .output_head(OutputHead::Affine)
            .build()
            .unwrap();
        let params = model.init_params(1);
        let compiled = CompiledVqc::new(model);
        let batch: Vec<Vec<f64>> = (0..4).map(|b| vec![0.1 * b as f64; 6]).collect();
        let values = compiled.values_batch(&batch, &params).unwrap();
        for (obs, v) in batch.iter().zip(&values) {
            assert!((compiled.forward(obs, &params).unwrap()[0] - v).abs() < 1e-15);
        }
    }
}
