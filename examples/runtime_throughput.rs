//! Runtime throughput demo: circuits/sec, serial vs batched.
//!
//! Runs the paper's 4-qubit, 3-layer actor circuit through (a) the serial
//! IR interpreter (`vqc::exec::run` plus readout), (b) the `Ideal`
//! forward batch (one prebound, fused schedule over lane slabs) on one
//! worker, and (c) the same batch on the full executor, at several batch
//! sizes — the `framework_comparison`-style table for the execution
//! engine itself.
//!
//! ```text
//! cargo run --release --example runtime_throughput
//! ```

use std::time::Instant;

use qmarl::runtime::prelude::*;
use qmarl::vqc::prelude::*;

/// 4 qubits, 4 encoder angles, 3 variational layers of 4 rotations each.
fn three_layer_circuit() -> Circuit {
    let mut c = layered_angle_encoder(4, 4).expect("encoder");
    c.append_shifted(&layered_ansatz(4, 12).expect("3-layer ansatz"))
        .expect("append");
    c
}

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warmup, then the mean of `reps` timed repetitions.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let circuit = three_layer_circuit();
    let compiled = compile(&circuit);
    let params = init_params(circuit.param_count(), 42);
    let readout = Readout::z_all(4);
    let serial_ex = BatchExecutor::serial();
    let batch_ex = BatchExecutor::default();
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

    println!("runtime_throughput: 4-qubit / 3-layer ansatz");
    println!(
        "raw gates {}  fused gates {}  workers {}",
        compiled.raw_schedule().len(),
        compiled.fused_schedule().len(),
        batch_ex.workers(),
    );
    println!();
    println!(
        "{:>6} | {:>14} {:>14} {:>14} | {:>8} {:>8}",
        "batch", "interp c/s", "compiled c/s", "batched c/s", "vs-serial", "vs-comp"
    );

    for batch in [1usize, 8, 32, 128, 512] {
        let inputs: Vec<Vec<f64>> = (0..batch)
            .map(|b| (0..4).map(|i| 0.02 * (b * 4 + i) as f64 - 0.4).collect())
            .collect();
        let reps = (2048 / batch).clamp(3, 64);

        let t_interp = time(reps, || {
            for item in &inputs {
                let state = qmarl::vqc::exec::run(&circuit, item, &params).expect("run");
                std::hint::black_box(readout.evaluate(&state).expect("readout"));
            }
        });
        let t_compiled = time(reps, || {
            std::hint::black_box(forward(&serial_ex, &inputs));
        });
        let t_batched = time(reps, || {
            std::hint::black_box(forward(&batch_ex, &inputs));
        });

        let cps = |t: f64| batch as f64 / t;
        println!(
            "{:>6} | {:>14.0} {:>14.0} {:>14.0} | {:>7.2}x {:>7.2}x",
            batch,
            cps(t_interp),
            cps(t_compiled),
            cps(t_batched),
            t_interp / t_batched,
            t_compiled / t_batched,
        );
    }

    println!();
    println!("(c/s = circuits per second; vs-serial = batched speedup over the IR");
    println!(" interpreter loop, vs-comp = over the compiled single-worker loop)");
}
