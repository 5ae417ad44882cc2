//! Fixture: the `vqc` interpreter called from production code.

use qmarl_vqc::exec::run;
use qmarl_vqc::grad::{jacobian_adjoint, GradMethod};

pub fn leaks(model: &Vqc, c: &Circuit, r: &Readout, x: &[f64], p: &[f64], noise: &NoiseModel) {
    let _ = qmarl_vqc::exec::run_noisy(c, x, p, noise);
    let _ = jacobian_adjoint(c, r, x, p);
    let _ = model.forward_with_jacobian(x, p, GradMethod::Adjoint);
    let _ = model.forward_noisy(x, p, noise);
    let _ = model.forward_shots::<StdRng>(x, p, 8, &mut rng);
    let _ = Vqc::forward_noisy(model, x, p, noise);
    let _ = run_noisy(c, x, p, noise);
}

/// Docs may name `vqc::exec::run` and `forward_noisy(..)` freely.
pub fn fine(compiled: &CompiledVqc, model: &Vqc, xs: &[Vec<f64>], p: &[f64]) {
    let _ = compiled.forward_with_jacobian_batch_prebound(xs, p);
    let _ = "model.forward_noisy(x) in a string";
    let _ = crate::exec::run_raw_density(xs, p);
    // Known false negative: syntax cannot tell `Vqc::forward` apart.
    let _ = model.forward(&xs[0], p);
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_oracle_runs_in_tests() {
        let _ = qmarl_vqc::grad::jacobian_finite_diff(&c, &r, &[], &[], 1e-6);
        let _ = model.forward_noisy(&x, &p, &noise);
    }
}
