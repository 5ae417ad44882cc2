//! # qmarl-vqc — variational quantum circuits with exact gradients
//!
//! The VQC layer of the
//! [QMARL reproduction](https://arxiv.org/abs/2203.10443): circuit IR,
//! the paper's layered angle **state encoder** (Fig. 1), structured and
//! random **parametrized circuits** (`U_var`), Pauli-Z **readouts** (`M`),
//! and three interchangeable gradient engines (parameter-shift, adjoint,
//! finite-difference) replacing the PyTorch autograd the authors used.
//!
//! ```
//! use qmarl_vqc::prelude::*;
//!
//! // The paper's centralized-critic shape: 16 state features folded into
//! // 4 qubits by 4 encoder layers, 48 trainable circuit angles, scalar
//! // value readout with a trainable affine head (48 + 2 = 50 trainables).
//! let critic = VqcBuilder::new(4)
//!     .encoder_inputs(16)
//!     .ansatz_params(48)
//!     .readout(Readout::mean_z(4))
//!     .output_head(OutputHead::Affine)
//!     .build()?;
//! let params = critic.init_params(42);
//! let state: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
//! let (value, jac) = critic.forward_with_jacobian(&state, &params, GradMethod::Adjoint)?;
//! assert_eq!(value.len(), 1);
//! assert_eq!(jac.n_params(), 50);
//! # Ok::<(), qmarl_vqc::error::VqcError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ansatz;
pub mod diagram;
pub mod encoder;
pub mod error;
pub mod exec;
pub mod grad;
pub mod ir;
pub mod observable;
pub mod qnn;
pub mod stats;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::ansatz::{init_params, layered_ansatz, random_layer_ansatz, RandomLayerConfig};
    pub use crate::encoder::{
        encoder_depth, layered_angle_encoder, reuploading_circuit, InputScaling,
    };
    pub use crate::error::VqcError;
    pub use crate::exec::{run, run_noisy};
    pub use crate::grad::{
        jacobian, jacobian_adjoint, jacobian_finite_diff, jacobian_parameter_shift, GradMethod,
        Jacobian,
    };
    pub use crate::ir::{Angle, Circuit, FixedGate, InputId, Op, ParamId};
    pub use crate::observable::Readout;
    pub use crate::qnn::{OutputHead, Vqc, VqcBuilder};
    pub use crate::stats::CircuitStats;
}
