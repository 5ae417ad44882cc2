//! Per-kernel throughput, scalar vs wide dispatch, on one statevector and
//! on lane slabs.
//!
//! Sweeps every gate-application kernel over register widths 2–12 qubits
//! and both SIMD dispatch levels (forced scalar, forced AVX2), recording
//! nanoseconds per amplitude. Each measurement cycles the target wire
//! through every qubit so low-stride (cache-friendly) and high-stride
//! pair traversals are averaged the way circuit execution actually mixes
//! them. The statevector rows call the wire-index `qsim::apply`
//! functions (one lane); the slab rows call the `qsim::rows::Slab`
//! methods on `L = 4` and `L = 32` lanes, the shapes of the batched
//! forwards and the update sweep's adjoint.
//!
//! Besides the criterion rows (one representative width per kernel), the
//! bench emits `BENCH_kernels.json` at the repository root so the kernel
//! layer's trajectory is recorded PR over PR, with the host's worker
//! count and auto-detected dispatch level. The two dispatch levels are
//! **bit-identical** (asserted in `qsim/tests/simd_parity.rs` and the
//! property suites); this sweep is pure throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use qmarl_qsim::apply;
use qmarl_qsim::complex::Complex64;
use qmarl_qsim::gate::{Gate1, Gate2, RotationAxis};
use qmarl_qsim::rows::Slab;
use qmarl_qsim::simd::{self, SimdLevel};

/// Register widths swept (inclusive).
const MIN_QUBITS: usize = 2;
const MAX_QUBITS: usize = 12;

/// Lane counts of the slab rows.
const SLAB_LANES: [usize; 2] = [4, 32];

/// `(sin θ/2, cos θ/2)` of the swept rotations.
const S: f64 = 0.29552020666133955;
const C: f64 = 0.955336489125606;

/// Amplitude-updates per measurement: iteration counts scale as
/// `TARGET >> n` so every cell costs roughly the same wall-clock.
const TARGET_FULL: usize = 1 << 22;
const TARGET_QUICK: usize = 1 << 14;

/// Deterministic non-trivial amplitudes: unit-magnitude phases from a
/// tiny LCG (timing only — the kernels never branch on values).
fn seed_state(len: usize) -> Vec<Complex64> {
    let mut x = 0x9e3779b97f4a7c15u64;
    let norm = 1.0 / (len as f64).sqrt();
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let phase = (x >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
            Complex64::new(norm * phase.cos(), norm * phase.sin())
        })
        .collect()
}

/// One kernel of the sweep: applies itself with the given "base" wire
/// (further wires are taken cyclically above it), on one statevector
/// (`apply`) and on a lane slab (`slab`, absent for Toffoli, which has no
/// slab kernel). `min_qubits` gates out widths too narrow for the
/// kernel's arity.
struct Kernel {
    name: &'static str,
    min_qubits: usize,
    apply: fn(&mut [Complex64], usize, usize),
    slab: Option<fn(&mut Slab<'_>, usize, usize)>,
}

/// The mask of the wire after `q`, cyclically.
fn next(q: usize, n: usize) -> usize {
    1 << ((q + 1) % n)
}

fn kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "rx",
            min_qubits: 1,
            apply: |amps, q, _n| apply::apply_rx_sc(amps, q, S, C),
            slab: Some(|sl, q, _n| sl.rot(RotationAxis::X, 1 << q, 0, S, C)),
        },
        Kernel {
            name: "ry",
            min_qubits: 1,
            apply: |amps, q, _n| apply::apply_ry_sc(amps, q, S, C),
            slab: Some(|sl, q, _n| sl.rot(RotationAxis::Y, 1 << q, 0, S, C)),
        },
        Kernel {
            name: "rz",
            min_qubits: 1,
            apply: |amps, q, _n| apply::apply_rz_sc(amps, q, S, C),
            slab: Some(|sl, q, _n| sl.rot(RotationAxis::Z, 1 << q, 0, S, C)),
        },
        Kernel {
            name: "gate1",
            min_qubits: 1,
            apply: |amps, q, _n| apply::apply_gate1(amps, q, &Gate1::hadamard()),
            slab: Some(|sl, q, _n| sl.gate1(1 << q, 0, &Gate1::hadamard())),
        },
        Kernel {
            name: "cnot",
            min_qubits: 2,
            apply: |amps, q, n| apply::apply_cnot(amps, q, (q + 1) % n),
            slab: Some(|sl, q, n| sl.cnot(1 << q, next(q, n))),
        },
        Kernel {
            name: "cz",
            min_qubits: 2,
            apply: |amps, q, n| apply::apply_cz(amps, q, (q + 1) % n),
            slab: Some(|sl, q, n| sl.cz(1 << q, next(q, n))),
        },
        Kernel {
            name: "crx",
            min_qubits: 2,
            apply: |amps, q, n| apply::apply_crx_sc(amps, q, (q + 1) % n, S, C),
            slab: Some(|sl, q, n| sl.rot(RotationAxis::X, next(q, n), 1 << q, S, C)),
        },
        Kernel {
            name: "gate2",
            min_qubits: 2,
            apply: |amps, q, n| apply::apply_gate2(amps, q, (q + 1) % n, &Gate2::cnot()),
            slab: Some(|sl, q, n| sl.gate2(1 << q, next(q, n), &Gate2::cnot())),
        },
        Kernel {
            name: "toffoli",
            min_qubits: 3,
            apply: |amps, q, n| apply::apply_toffoli(amps, q, (q + 1) % n, (q + 2) % n),
            slab: None,
        },
    ]
}

/// ns/amplitude of one kernel at one width and lane count under the
/// current dispatch level, target wire cycling across the register: one
/// lane runs the wire-index `apply` function, more lanes the slab method.
fn measure(kernel: &Kernel, n: usize, lanes: usize, target_updates: usize) -> f64 {
    let len = lanes << n;
    let iters = (target_updates / len).max(8);
    let mut amps = seed_state(len);
    let run = |amps: &mut [Complex64], q: usize| match kernel.slab {
        Some(slab) if lanes > 1 => slab(&mut Slab::new(amps, lanes), q, n),
        _ => (kernel.apply)(amps, q, n),
    };
    for q in 0..n.min(4) {
        run(&mut amps, q); // warm the caches and dispatch
    }
    let start = Instant::now();
    for it in 0..iters {
        run(&mut amps, it % n);
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    black_box(&amps);
    elapsed / (iters * len) as f64
}

/// ns/amplitude per `[kernel][width_index]`, `None` where not measured.
type Table = Vec<Vec<Option<f64>>>;

/// Runs the full sweep at one dispatch level and lane count. `None`
/// marks widths too narrow for a kernel, or a kernel with no slab method.
fn sweep(level: SimdLevel, lanes: usize, target_updates: usize) -> Table {
    simd::force(level);
    let out = kernels()
        .iter()
        .map(|k| {
            (MIN_QUBITS..=MAX_QUBITS)
                .map(|n| {
                    let runs = n >= k.min_qubits && (lanes == 1 || k.slab.is_some());
                    runs.then(|| measure(k, n, lanes, target_updates))
                })
                .collect()
        })
        .collect();
    simd::reinit_from_env();
    out
}

fn json_row(cells: &[Option<f64>]) -> String {
    let vals: Vec<String> = cells
        .iter()
        .map(|c| match c {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        })
        .collect();
    format!("[{}]", vals.join(", "))
}

/// The sweep at both levels for one lane count, as `(scalar, wide)`.
fn sweep_levels(lanes: usize, target: usize) -> (Table, Table) {
    let scalar = sweep(SimdLevel::Scalar, lanes, target);
    let wide = if simd::wide_supported() {
        sweep(SimdLevel::Avx2, lanes, target)
    } else {
        vec![vec![None; MAX_QUBITS - MIN_QUBITS + 1]; kernels().len()]
    };
    (scalar, wide)
}

/// The `{ kernel: { scalar, wide } }` body of one lane count, indented by
/// `pad`, skipping kernels with no measured cell.
fn json_kernels(scalar: &Table, wide: &Table, pad: &str) -> String {
    let rows: Vec<String> = kernels()
        .iter()
        .enumerate()
        .filter(|(i, _)| scalar[*i].iter().any(Option::is_some))
        .map(|(i, k)| {
            format!(
                "{pad}\"{}\": {{\n{pad}  \"scalar\": {},\n{pad}  \"wide\": {}\n{pad}}}",
                k.name,
                json_row(&scalar[i]),
                json_row(&wide[i]),
            )
        })
        .collect();
    rows.join(",\n")
}

/// Measures the sweep at both levels and every lane count and records it
/// as JSON.
fn emit_kernels_json(c: &mut Criterion) {
    let quick = std::env::var_os("QMARL_BENCH_QUICK").is_some_and(|v| v != "0");
    let target = if quick { TARGET_QUICK } else { TARGET_FULL };

    let (scalar, wide) = sweep_levels(1, target);
    let slabs: Vec<String> = SLAB_LANES
        .iter()
        .map(|&lanes| {
            let (s, w) = sweep_levels(lanes, target);
            format!(
                "    \"{lanes}\": {{\n{}\n    }}",
                json_kernels(&s, &w, "      ")
            )
        })
        .collect();

    let qubits: Vec<String> = (MIN_QUBITS..=MAX_QUBITS).map(|n| n.to_string()).collect();
    let json = format!(
        "{{\n  \"bench\": \"kernel_sweep\",\n  \
         \"unit\": \"ns_per_amplitude (target wire cycled across the register)\",\n  \
         \"dispatch_bit_identical\": \"asserted in qsim/tests/simd_parity.rs\",\n  \
         \"nproc\": {},\n  \"simd\": \"{:?}\",\n  \
         \"wide_supported\": {},\n  \
         \"qubits\": [{}],\n  \
         \"kernels\": {{\n{}\n  }},\n  \
         \"slab_kernels_by_lanes\": {{\n{}\n  }}\n}}\n",
        qmarl_qsim::par::default_workers(),
        simd::level(),
        simd::wide_supported(),
        qubits.join(", "),
        json_kernels(&scalar, &wide, "    "),
        slabs.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    if quick {
        // Quick (CI smoke) measurements are too noisy to record; keep
        // the committed trajectory file authoritative.
        println!("kernel_sweep: quick mode, not rewriting {path}");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("kernel_sweep: wrote {path}"),
            Err(e) => println!("kernel_sweep: could not write {path}: {e}"),
        }
    }
    for (i, k) in kernels().iter().enumerate() {
        let last = MAX_QUBITS - MIN_QUBITS;
        if let (Some(s), Some(w)) = (scalar[i][last], wide[i][last].or(scalar[i][last])) {
            println!(
                "kernel_sweep: {:8} @ {MAX_QUBITS}q  scalar {s:.3} ns/amp, wide {w:.3} ns/amp ({:.2}x)",
                k.name,
                s / w
            );
        }
    }
    let _ = c; // the JSON pass is measured manually, outside criterion
}

/// Criterion rows at one representative width, both dispatch levels —
/// the regression-visible subset of the sweep.
fn bench_kernels(c: &mut Criterion) {
    const N: usize = 10;
    let mut group = c.benchmark_group("kernel_sweep_10q");
    group.sample_size(20);
    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
        if level == SimdLevel::Avx2 && !simd::wide_supported() {
            continue;
        }
        for kernel in kernels() {
            group.bench_with_input(
                BenchmarkId::new(kernel.name, format!("{level:?}")),
                &level,
                |b, &level| {
                    simd::force(level);
                    let mut amps = seed_state(1 << N);
                    let mut it = 0usize;
                    b.iter(|| {
                        (kernel.apply)(&mut amps, it % N, N);
                        it += 1;
                        black_box(&mut amps);
                    });
                    simd::reinit_from_env();
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, emit_kernels_json);
criterion_main!(benches);
