//! # qmarl-runtime — batched circuit execution + lockstep episode collection
//!
//! The execution engine of the
//! [QMARL reproduction](https://arxiv.org/abs/2203.10443). The paper's
//! training loop is dominated by two embarrassingly parallel workloads —
//! per-agent/per-sample VQC evaluation and the parameter-shift gradient's
//! ±π/2 circuit fan-out — plus episode collection, which is independent
//! across episodes. This crate turns all three into flat work queues over
//! one shared scheduler ([`qmarl_qsim::par`]). Pipeline:
//!
//! ```text
//!          compile (once)         prebind (per call)         slab walk        fold
//! Circuit ─────────────▶ CompiledCircuit ────────▶ PreboundCircuit ────────▶ B lanes ────▶ outputs
//!   IR     fusion, slot   (cached by     params     (parameter-only  inputs   Jacobians
//!          resolution,     structural    frozen      trig hoisted)   vary     episodes
//!          validation)     hash)
//! ```
//!
//! * [`compile`] — lowers [`qmarl_vqc::ir::Circuit`] into a flat,
//!   fusion-optimised [`compile::CompiledCircuit`]: adjacent same-axis
//!   rotations on one wire fuse (their symbolic angles add), adjacent
//!   fixed gates pre-multiply, angle slots resolve to direct
//!   input/parameter indices, and wires are validated once so execution
//!   validates nothing. The unfused schedule and the trainable-occurrence
//!   table are kept for the gradient path, which must shift individual
//!   occurrences.
//! * [`cache`] — a process-wide compiled-circuit cache keyed by
//!   structural hash: every clone of a model (and every same-shaped
//!   model) shares one `Arc<CompiledCircuit>`.
//! * [`prebound`] — the one statevector execution path: [`prebound::prebind`]
//!   binds a compiled schedule to frozen parameters (hoisting all
//!   parameter-only trig), and lane slabs run many inputs through one
//!   schedule walk; a single request, and each shift-walk prefix and
//!   fork, is a one-lane slab of the same kernels. Also the prebound
//!   adjoint engine of the training update:
//!   [`prebound::prebind_adjoint`] binds the raw schedule with every
//!   op's inverse, and one reverse sweep serves the `Ideal` and the
//!   trajectory adjoint.
//! * [`batch`] — [`batch::BatchExecutor`], four entry points: forward
//!   and adjoint batches over prebound groups (the rollout tick and the
//!   update sweep), and forward and forward+Jacobian batches of one
//!   model under an [`backend::ExecutionBackend`]. The `Ideal` forward
//!   prebinds the fused schedule once per call and runs the batch as
//!   lane slabs (`Noisy` as density lane slabs on the same queue); the
//!   `Ideal`/`Sampled`/`Noisy` gradient walks each item's raw schedule
//!   once and forks every ±shift evaluation (a statevector, or ρ) from
//!   the shared prefix, one task per item (or per occurrence chunk when
//!   items are fewer than workers). Batched results are bit-identical to serial
//!   ones (fold order is fixed; property-tested at 1e-12 against
//!   `vqc::exec::run`).
//! * [`backend`] — [`backend::ExecutionBackend`]: the execution-model
//!   axis. `Ideal` (exact statevector, the default), `Sampled { shots }`
//!   (finite-shot readout with content-addressed per-evaluation seeds),
//!   `Noisy { model, shots }` (exact density-matrix execution with
//!   per-gate channels) and `Trajectory { model, samples }`
//!   (quantum-trajectory sampling of the same noise model at
//!   statevector cost). String-constructible
//!   (`"sampled:shots=1024"`), threaded through every executor queue and
//!   [`qnn::CompiledVqc`]; stochastic backends differentiate by the
//!   batched parameter-shift path (adjoint stays `Ideal`-only).
//! * [`superop`] — the compiled Noisy hot path: the raw schedule's
//!   statevector binding plus its channels, with every parameter-only
//!   one-qubit gate fused with its channel into a dense superoperator
//!   ([`qmarl_qsim::superop`]) **once** per evaluation batch, walked
//!   over density lane slabs in place of the per-gate interpreter
//!   (verified against it at 1e-12); the shift walk forks ρ through the
//!   same walker.
//! * [`trajectory`] — the Trajectory executor: `samples` statevectors
//!   as lanes of one prebound walk (the adjoint binding plus noise
//!   channels), per-sample Pauli errors drawn from
//!   derived per-sample streams (worker-count invariant, serial ≡
//!   batched), converging to the density result at `O(1/√samples)`.
//! * [`rollout`] — the episode collector: a
//!   [`qmarl_env::vector::VectorEnv`] advances all in-flight episodes in
//!   lockstep and the policy sees every live lane at once, so all
//!   `lanes × agents` circuit evaluations of a tick reach the
//!   [`batch::BatchExecutor`] as one flat batch. Seeds attach to the
//!   *episode*, so collected traces are identical for any lane count
//!   (see the module docs for the determinism contract).
//! * [`qnn`] — [`qnn::CompiledVqc`], the model-facing wrapper
//!   `qmarl-core`'s quantum actors and critics execute through.
//!
//! ## Quick example
//!
//! ```
//! use qmarl_runtime::prelude::*;
//! use qmarl_vqc::prelude::*;
//!
//! // The paper's 4-qubit actor shape, compiled once…
//! let model = VqcBuilder::new(4)
//!     .encoder_inputs(4)
//!     .ansatz_params(20)
//!     .readout(Readout::z_all(4))
//!     .build()?;
//! let compiled = CompiledVqc::new(model);
//! let params = compiled.model().init_params(7);
//!
//! // …then evaluated over a whole minibatch in one call.
//! let minibatch: Vec<Vec<f64>> = (0..32).map(|b| vec![0.01 * b as f64; 4]).collect();
//! let outputs = compiled.forward_batch(&minibatch, &params)?;
//! assert_eq!(outputs.len(), 32);
//! assert_eq!(outputs[0].len(), 4);
//! # Ok::<(), qmarl_runtime::error::RuntimeError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod batch;
pub mod cache;
pub mod compile;
pub mod error;
pub mod exec;
pub mod prebound;
pub mod qnn;
pub mod rollout;
pub mod superop;
pub mod trajectory;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::backend::ExecutionBackend;
    pub use crate::batch::BatchExecutor;
    pub use crate::batch::{AdjointGroup, PreboundGroup};
    pub use crate::cache::CircuitCache;
    pub use crate::compile::{circuit_hash, compile, CGate, CompiledCircuit, FusedAngle};
    pub use crate::error::RuntimeError;
    pub use crate::prebound::{
        prebind, prebind_adjoint, run_prebound, PreboundAdjoint, PreboundCircuit,
    };
    pub use crate::qnn::CompiledVqc;
    pub use crate::rollout::{
        collect_episodes_vec, derive_seed, EpisodeTrace, RolloutError, TraceStep, VecDecision,
        VecRolloutPolicy,
    };
    pub use crate::superop::{prebind_density, run_density, DensityPrebound};
    pub use crate::trajectory::{prebind_trajectory, TrajPrebound};
}
