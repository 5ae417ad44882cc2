//! Ablation C: the cost of the three differentiation methods on the
//! paper's actor- and critic-shaped VQCs (DESIGN.md experiment index).
//!
//! Parameter-shift costs ~2 circuit runs per parameter, adjoint one
//! forward plus one backward sweep — the measured gap justifies using
//! adjoint as the training default while parameter-shift remains the
//! hardware-faithful reference.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use qmarl_vqc::prelude::*;

fn actor_model() -> Vqc {
    VqcBuilder::new(4)
        .encoder_inputs(4)
        .ansatz_params(42)
        .readout(Readout::z_all(4))
        .output_head(OutputHead::Affine)
        .build()
        .expect("paper actor shape")
}

fn critic_model() -> Vqc {
    VqcBuilder::new(4)
        .encoder_inputs(16)
        .ansatz_params(48)
        .readout(Readout::mean_z(4))
        .output_head(OutputHead::Affine)
        .build()
        .expect("paper critic shape")
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("vqc_forward");
    let actor = actor_model();
    let ap = actor.init_params(1);
    let obs = [0.1, 0.5, 0.9, 0.3];
    group.bench_function("actor_50p", |b| {
        b.iter(|| actor.forward(black_box(&obs), &ap).expect("forward"));
    });
    let critic = critic_model();
    let cp = critic.init_params(2);
    let state: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
    group.bench_function("critic_50p", |b| {
        b.iter(|| critic.forward(black_box(&state), &cp).expect("forward"));
    });
    group.finish();
}

fn bench_gradient_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("vqc_gradient_critic");
    group.sample_size(30);
    let critic = critic_model();
    let cp = critic.init_params(3);
    let state: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
    for (name, method) in [
        ("parameter_shift", GradMethod::ParameterShift),
        ("adjoint", GradMethod::Adjoint),
        ("finite_diff", GradMethod::FiniteDiff),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                critic
                    .forward_with_jacobian(black_box(&state), &cp, method)
                    .expect("jacobian")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward, bench_gradient_methods);
criterion_main!(benches);
