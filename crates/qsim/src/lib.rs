//! # qmarl-qsim — exact quantum circuit simulation for QMARL
//!
//! The quantum substrate of the
//! [QMARL reproduction](https://arxiv.org/abs/2203.10443): an exact
//! statevector simulator, a density-matrix backend with NISQ noise
//! channels, a gate library, measurement primitives and the Bloch/HLS
//! visualisation used by the paper's Fig. 4.
//!
//! The paper ran its experiments on `torchquantum`'s simulator; this crate
//! plays that role (see `DESIGN.md` §1 for the substitution argument).
//!
//! Every gate runs through one kernel family: the methods of
//! [`rows::Slab`], a checked view of `L` statevectors stored
//! `slab[amp · L + lane]`, each with one scalar and one AVX2 body
//! ([`simd`] selects between them; the two are bit-identical). A single
//! statevector is the one-lane slab, and the wire-index functions of
//! [`apply`] are one-lane calls into the same methods.
//!
//! ## Quick example
//!
//! ```
//! use qmarl_qsim::prelude::*;
//!
//! // Build a Bell pair and read out ⟨Z₀Z₁⟩ = 1.
//! let mut psi = StateVector::zero(2);
//! psi.apply_gate1(0, &Gate1::hadamard())?;
//! psi.apply_cnot(0, 1)?;
//! let zz = PauliString::from_factors([(0, Pauli::Z), (1, Pauli::Z)]);
//! assert!((expectation(&psi, &zz)? - 1.0).abs() < 1e-12);
//! # Ok::<(), qmarl_qsim::error::QsimError>(())
//! ```
//!
//! ## Conventions
//!
//! * **Little-endian**: qubit `q` is bit `q` of the basis index.
//! * All angles are radians; `Rσ(θ) = e^{−iθσ/2}`.
//! * `f64` precision throughout; states stay normalised to ~1e-12 under
//!   unitary evolution (property-tested).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apply;
pub mod bloch;
pub mod complex;
pub mod density;
pub mod error;
pub mod gate;
pub mod measure;
pub mod noise;
pub mod par;
pub mod rows;
pub mod shots;
pub mod simd;
pub mod state;
pub mod superop;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::bloch::{amplitude_color, amplitude_grid, bloch_vector, BlochVector, Rgb};
    pub use crate::complex::Complex64;
    pub use crate::density::DensityMatrix;
    pub use crate::error::QsimError;
    pub use crate::gate::{Gate1, Gate2, RotationAxis};
    pub use crate::measure::{
        expectation, expectation_z, expectation_z_all, measure_qubit, sample_basis, Pauli,
        PauliString,
    };
    pub use crate::noise::{NoiseChannel, NoiseModel};
    pub use crate::shots::{measure_shots, z_standard_error, ShotRecord};
    pub use crate::state::StateVector;
}
