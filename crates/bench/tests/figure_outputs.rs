//! Figure-bin drift regression: the harness-refactored binaries must
//! keep producing their historical artifacts byte for byte.
//!
//! Each test runs a figure/ablation compute core at a miniature
//! configuration and asserts the FNV fingerprint of every artifact's
//! exact bytes against the committed table. The paper scenario's
//! 300-step episodes make these minutes-long in debug, so they are
//! `#[ignore]`d from tier-1 and run in release by the CI `harness-smoke`
//! job (`cargo test --release -p qmarl-bench --test figure_outputs --
//! --ignored`).
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QMARL_BLESS=1 cargo test --release -p qmarl-bench --test figure_outputs -- --ignored --nocapture
//! ```

use qmarl_bench::figures::{
    ablation_ctde, ablation_encoding, ablation_noise, ablation_qubit_scaling, ablation_shots,
    fig3_training_curves, fig4_demonstration, table2_param_budgets, Artifact,
};
use qmarl_core::prelude::ExperimentConfig;

/// FNV-1a over artifact names and exact contents.
fn fingerprint(artifacts: &[&Artifact]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for a in artifacts {
        eat(a.name.as_bytes());
        eat(&[0xFF]);
        eat(a.content.as_bytes());
        eat(&[0xFE]);
    }
    h
}

fn check(label: &str, expected: u64, artifacts: &[&Artifact]) {
    let got = fingerprint(artifacts);
    if std::env::var("QMARL_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        println!("    (\"{label}\", {got:#x}),");
        return;
    }
    assert_eq!(
        got, expected,
        "{label}: artifact bytes drifted (got {got:#x}); if intentional, re-bless with \
         QMARL_BLESS=1 (see module docs)"
    );
}

#[test]
#[ignore = "minutes of training at the paper's 300-step episodes; run in release via CI"]
fn fig3_artifacts_are_byte_stable() {
    let out = fig3_training_curves(3, 2, 7, 2).expect("fig3 runs");
    assert_eq!(out.artifacts.len(), 4 + 1 + 4 * 2);
    check(
        "fig3",
        0x98906dbf3ce81727,
        &out.artifacts.iter().collect::<Vec<_>>(),
    );
}

#[test]
#[ignore = "minutes of training at the paper's 300-step episodes; run in release via CI"]
fn fig4_artifact_is_byte_stable() {
    let out = fig4_demonstration(2, 4, 7, 0, false).expect("fig4 runs");
    check("fig4", 0x479722e1c719cc94, &[&out.artifact]);
}

#[test]
#[ignore = "minutes of training at the paper's 300-step episodes; run in release via CI"]
fn ablation_ctde_artifact_is_byte_stable() {
    let out = ablation_ctde(3, 2, 7).expect("ctde ablation runs");
    check("ablation_ctde", 0x66cce56015e6dac9, &[&out.artifact]);
}

#[test]
#[ignore = "minutes of training at the paper's 300-step episodes; run in release via CI"]
fn ablation_noise_artifact_is_byte_stable() {
    let (rows, artifact) = ablation_noise(3, 2, 7).expect("noise ablation runs");
    assert_eq!(rows.len(), 8);
    assert_eq!(rows[0].p, 0.0);
    assert!(rows[0].tv.abs() < 1e-12, "p=0 must not drift the policy");
    check("ablation_noise", 0xca885f70487bca80, &[&artifact]);
}

#[test]
#[ignore = "minutes of training at the paper's 300-step episodes; run in release via CI"]
fn ablation_shots_artifact_is_byte_stable() {
    let (rows, artifact) = ablation_shots(3, 2, 7).expect("shots ablation runs");
    assert_eq!(rows.len(), 7);
    assert_eq!(rows.last().unwrap().shots, None);
    check("ablation_shots", 0x96ba42b7b98afc05, &[&artifact]);
}

#[test]
#[ignore = "tens of seconds of circuit regression; run in release via CI"]
fn ablation_encoding_artifact_is_byte_stable() {
    let (rows, artifact, _) = ablation_encoding(2, 2, 7, 48).expect("encoding ablation runs");
    assert_eq!(rows.len(), 3);
    check("ablation_encoding", 0xa5f203c1cd776ab8, &[&artifact]);
}

#[test]
#[ignore = "density-matrix purity rows; run in release via CI"]
fn ablation_qubit_scaling_deterministic_columns_are_stable() {
    // The µs columns are wall-clock and inherently non-reproducible, so
    // this pins only the deterministic structure: register widths and
    // noisy-execution purities.
    let (rows, artifact) = ablation_qubit_scaling(50, 0.01, 7).expect("scaling ablation runs");
    assert_eq!(
        rows.iter().map(|r| r.n_agents).collect::<Vec<_>>(),
        vec![1, 2, 3, 4]
    );
    assert_eq!(
        rows.iter().map(|r| r.naive_qubits).collect::<Vec<_>>(),
        vec![4, 8, 12, 16],
        "naive register grows as N * obs_dim while the encoded stays at 4"
    );
    for r in &rows {
        let enc = r.encoded_purity.expect("4 qubits is always tractable");
        assert!((0.0..=1.0 + 1e-12).contains(&enc));
        match r.naive_purity {
            // At N = 1 both layouts are the same 4-wire circuit; beyond
            // that the wider register strictly loses more purity.
            Some(naive) => assert!(
                naive <= enc + 1e-12 && (r.n_agents == 1 || naive < enc),
                "N={}: naive purity {naive} must undercut encoded {enc}",
                r.n_agents
            ),
            None => assert!(r.naive_qubits > 8, "only wide registers are intractable"),
        }
    }
    // The CSV carries the timing columns; just sanity-check its shape.
    assert_eq!(artifact.content.lines().count(), 5);
}

#[test]
fn table2_artifact_is_byte_stable() {
    // Parameter accounting is pure arithmetic: cheap enough for tier-1.
    let (reports, artifact) =
        table2_param_budgets(&ExperimentConfig::paper_default()).expect("budgets compute");
    assert_eq!(reports.len(), 5);
    check("table2", 0x6259d32b6ad91031, &[&artifact]);
}
