//! Runtime engine benchmarks: batched vs serial circuit execution.
//!
//! The acceptance bar for the runtime subsystem: on the paper's 4-qubit,
//! 3-layer ansatz, `BatchExecutor` must beat a serial `vqc::exec::run`
//! loop at batch sizes ≥ 32. The serial baselines below re-interpret the
//! circuit IR per evaluation (what the stack did before the runtime
//! existed); the batched rows run the `Ideal` forward pass (one prebound,
//! fused schedule over lane slabs) across the work-queue scheduler.
//! `compiled_serial` isolates the compilation win from the parallelism
//! win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use qmarl_runtime::prelude::*;
use qmarl_vqc::prelude::*;

/// The paper's actor-shaped circuit: 4 qubits, 4 encoder angles, 3
/// variational layers (4 rotations each) with CNOT entangling rings.
fn three_layer_circuit() -> Circuit {
    let mut c = layered_angle_encoder(4, 4).expect("encoder");
    c.append_shifted(&layered_ansatz(4, 12).expect("3-layer ansatz"))
        .expect("append");
    c
}

fn batch_inputs(batch: usize) -> Vec<Vec<f64>> {
    (0..batch)
        .map(|b| (0..4).map(|i| 0.03 * (b * 4 + i) as f64 - 0.5).collect())
        .collect()
}

fn bench_forward_batch(c: &mut Criterion) {
    let circuit = three_layer_circuit();
    let compiled = compile(&circuit);
    let params = init_params(circuit.param_count(), 7);
    let readout = Readout::z_all(4);
    let forward = |ex: &BatchExecutor, inputs: &[Vec<f64>]| {
        ex.expectation_batch_backend(
            &compiled,
            &readout,
            inputs,
            &params,
            &ExecutionBackend::Ideal,
        )
        .expect("batch")
    };
    let mut group = c.benchmark_group("runtime_forward_4q3l");
    for batch in [1usize, 8, 32, 128] {
        let inputs = batch_inputs(batch);
        group.bench_with_input(
            BenchmarkId::new("serial_interpreter", batch),
            &batch,
            |b, _| {
                b.iter(|| {
                    for item in &inputs {
                        let state = qmarl_vqc::exec::run(&circuit, black_box(item), &params);
                        black_box(readout.evaluate(&state.expect("run")).expect("readout"));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_serial", batch),
            &batch,
            |b, _| {
                let ex = BatchExecutor::serial();
                b.iter(|| black_box(forward(&ex, black_box(&inputs))));
            },
        );
        group.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, _| {
            let ex = BatchExecutor::default();
            b.iter(|| black_box(forward(&ex, black_box(&inputs))));
        });
    }
    group.finish();
}

fn bench_gradient_batch(c: &mut Criterion) {
    let circuit = three_layer_circuit();
    let compiled = compile(&circuit);
    let params = init_params(circuit.param_count(), 9);
    let readout = Readout::z_all(4);
    let mut group = c.benchmark_group("runtime_param_shift_4q3l");
    group.sample_size(10);
    for batch in [1usize, 4, 16] {
        let inputs = batch_inputs(batch);
        group.bench_with_input(BenchmarkId::new("serial", batch), &batch, |b, _| {
            b.iter(|| {
                for item in &inputs {
                    black_box(
                        jacobian_parameter_shift(&circuit, &readout, black_box(item), &params)
                            .expect("jacobian"),
                    );
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, _| {
            let ex = BatchExecutor::default();
            b.iter(|| {
                black_box(
                    ex.forward_and_jacobian_batch_backend(
                        &compiled,
                        &readout,
                        black_box(&inputs),
                        &params,
                        &ExecutionBackend::Ideal,
                    )
                    .expect("jacobian"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward_batch, bench_gradient_batch);
criterion_main!(benches);
