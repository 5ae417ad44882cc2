//! Tour of the quantum substrate: from raw gates to a differentiable VQC.
//!
//! ```text
//! cargo run --release --example bell_and_circuits
//! ```
//!
//! Walks the layers a QMARL model is made of: (1) statevector simulation
//! and entanglement, (2) the Fig. 1 encoder/ansatz circuit IR, (3) exact
//! gradients through the circuit, (4) NISQ noise on the density-matrix
//! backend.

use qmarl::qsim::prelude::*;
use qmarl::vqc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Raw simulation: a Bell pair ────────────────────────────────
    let mut bell = StateVector::zero(2);
    bell.apply_gate1(0, &Gate1::hadamard())?;
    bell.apply_cnot(0, 1)?;
    println!("Bell state amplitudes:\n{bell}");
    let zz = PauliString::from_factors([(0, Pauli::Z), (1, Pauli::Z)]);
    println!(
        "⟨Z₀Z₁⟩ = {:+.3} (perfectly correlated)",
        expectation(&bell, &zz)?
    );
    let b = bloch_vector(&bell, 0)?;
    println!(
        "qubit 0 Bloch vector length = {:.3} (0 ⇒ maximally entangled)\n",
        b.length()
    );

    // ── 2. The paper's circuit shapes ─────────────────────────────────
    let mut circuit = layered_angle_encoder(4, 16)?; // the critic's state encoder
    circuit.append_shifted(&layered_ansatz(4, 8)?)?;
    println!(
        "critic-style circuit ({}):",
        qmarl::vqc::diagram::summary(&circuit)
    );
    println!("{}", qmarl::vqc::diagram::render(&circuit));

    // ── 3. Exact gradients, checked against finite differences ───────
    // Actor-shaped model: 4 observation features, one encoder layer.
    let model = VqcBuilder::new(4)
        .encoder_inputs(4)
        .ansatz_params(8)
        .readout(Readout::z_all(4))
        .build()?;
    let params = model.init_params(42);
    let state = vec![0.15, 0.45, 0.7, 0.9];
    let (_, ps) = model.forward_with_jacobian(&state, &params, GradMethod::ParameterShift)?;
    let (_, adj) = model.forward_with_jacobian(&state, &params, GradMethod::Adjoint)?;
    // Finite differences are the numerical test oracle, not a
    // `GradMethod`: run them on the circuit with the model's scaled
    // inputs (this model has no output head, so the Jacobians align).
    let scaled = model.input_scaling().apply_all(&state);
    let fd = jacobian_finite_diff(model.circuit(), model.readout(), &scaled, &params, 1e-6)?;
    let z = model.forward(&state, &params)?;
    println!(
        "⟨Z⟩ readouts = [{:+.3}, {:+.3}, {:+.3}, {:+.3}]",
        z[0], z[1], z[2], z[3]
    );
    println!(
        "max |parameter-shift − adjoint|      = {:.2e}",
        ps.max_abs_diff(&adj)
    );
    println!(
        "max |parameter-shift − finite diff|  = {:.2e}\n",
        ps.max_abs_diff(&fd)
    );

    // ── 4. NISQ noise ─────────────────────────────────────────────────
    for p in [0.0, 0.01, 0.05, 0.2] {
        let noise = NoiseModel::depolarizing(p, 2.0 * p)?;
        let nz = model.forward_noisy(&state, &params, &noise)?;
        println!(
            "per-gate depolarizing p = {p:<5}: ⟨Z⟩ = [{:+.3}, {:+.3}, {:+.3}, {:+.3}]",
            nz[0], nz[1], nz[2], nz[3]
        );
    }
    println!("(readouts decay toward 0 — the maximally-mixed value — as noise grows;");
    println!(" this is why the paper keeps registers small under NISQ)");
    Ok(())
}
