//! Fixture-corpus tests: each file under `fixtures/` pins one rule's
//! exact behavior — finding counts, (line, col) spans, scope edges, and
//! pragma suppression. The workspace walker skips `fixtures/`
//! directories, so these files never pollute the real sweep; tests feed
//! them through [`analyze_sources`] under rule-scoped fake paths.

use xcheck::{analyze_sources, Report};

fn analyze(rel_path: &str, src: &str) -> Report {
    analyze_sources(&[(rel_path.to_string(), src.to_string())])
}

/// `(line, col)` spans of every finding for `rule`, in report order.
fn spans(report: &Report, rule: &str) -> Vec<(u32, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn fma_fixture_exact_spans() {
    let src = include_str!("../fixtures/fma.rs");
    let r = analyze("crates/qsim/src/fma_fixture.rs", src);
    // Two `mul_add` calls plus one fused intrinsic name; the doc-comment
    // and string-literal mentions are invisible to the token rules.
    assert_eq!(spans(&r, "no-fma"), vec![(7, 15), (8, 18), (13, 13)]);
    assert_eq!(
        r.findings.len(),
        3,
        "no other rule fires: {:#?}",
        r.findings
    );
    assert_eq!(r.suppressed, 0);
}

#[test]
fn fma_fixture_out_of_scope_paths_are_clean() {
    let src = include_str!("../fixtures/fma.rs");
    // Same tokens outside qsim/runtime src: the rule does not apply.
    for path in [
        "crates/serve/src/fma_fixture.rs",
        "crates/qsim/tests/fma_fixture.rs",
        "crates/qsim/benches/fma_fixture.rs",
    ] {
        let r = analyze(path, src);
        assert!(
            spans(&r, "no-fma").is_empty(),
            "no-fma fired out of scope at {path}"
        );
    }
}

#[test]
fn unsafe_fixture_exact_spans() {
    let src = include_str!("../fixtures/unsafe_comments.rs");
    let r = analyze("crates/qsim/src/unsafe_fixture.rs", src);
    // The bare `unsafe fn` and the uncommented block fire; the
    // SAFETY-doc'd fn (comment above the attribute stack), the
    // commented block, and the cfg(test) block do not.
    assert_eq!(spans(&r, "unsafe-safety-comment"), vec![(3, 5), (19, 5)]);
    assert_eq!(r.findings.len(), 2);
}

#[test]
fn dispatch_fixture_exact_spans() {
    let src = include_str!("../fixtures/dispatch.rs");
    let r = analyze("crates/qsim/src/dispatch_fixture.rs", src);
    // Only the unguarded qualified call fires. The `wide()`-guarded
    // call, the declaration itself, and the same-named safe twin at
    // file scope (different module) are all exempt.
    assert_eq!(spans(&r, "target-feature-dispatch"), vec![(24, 19)]);
    assert_eq!(r.findings.len(), 1, "{:#?}", r.findings);
}

#[test]
fn determinism_fixture_exact_lines() {
    let src = include_str!("../fixtures/determinism.rs");
    let r = analyze("crates/runtime/src/det_fixture.rs", src);
    // One finding per offending token: `HashMap` in the use, bare
    // `SystemTime` twice, `Instant::now`, two `HashMap` mentions on the
    // declaration line, the free `thread::spawn`, and the free
    // `thread::Builder`. The bare `Instant` import (no `::now`) is not
    // flagged.
    let lines: Vec<u32> = spans(&r, "determinism").iter().map(|&(l, _)| l).collect();
    assert_eq!(lines, vec![3, 4, 7, 8, 8, 10, 11, 12]);
    assert_eq!(r.findings.len(), 8);
    // Both thread paths are pinned at the `thread` token.
    let threads: Vec<(u32, u32)> = spans(&r, "determinism")[6..].to_vec();
    assert_eq!(threads, vec![(11, 18), (12, 18)]);
    // The same file in a non-deterministic crate is out of scope.
    let r = analyze("crates/serve/src/det_fixture.rs", src);
    assert!(spans(&r, "determinism").is_empty());
}

#[test]
fn panic_serve_fixture_exact_spans() {
    let src = include_str!("../fixtures/panic_serve.rs");
    let r = analyze("crates/serve/src/panic_fixture.rs", src);
    // `.unwrap()`, `.expect()`, and `panic!` fire; `unwrap_or` and the
    // cfg(test) unwrap do not.
    assert_eq!(spans(&r, "no-panic-serve"), vec![(4, 15), (5, 15), (7, 9)]);
    assert_eq!(r.findings.len(), 3);
    // The core and runtime files the batcher runs through are in scope
    // too, with the same spans.
    for path in [
        "crates/core/src/policy.rs",
        "crates/core/src/serving.rs",
        "crates/runtime/src/prebound.rs",
    ] {
        let r = analyze(path, src);
        assert_eq!(
            spans(&r, "no-panic-serve"),
            vec![(4, 15), (5, 15), (7, 9)],
            "{path}"
        );
    }
    // The loadgen binary tree, other crates and the rest of core/runtime
    // are out of scope.
    for path in [
        "crates/serve/src/bin/panic_fixture.rs",
        "crates/qsim/src/panic_fixture.rs",
        "crates/core/src/trainer.rs",
        "crates/runtime/src/superop.rs",
        "crates/runtime/tests/prebound.rs",
    ] {
        let r = analyze(path, src);
        assert!(
            spans(&r, "no-panic-serve").is_empty(),
            "no-panic-serve fired out of scope at {path}"
        );
    }
}

#[test]
fn oracle_only_fixture_exact_spans() {
    let src = include_str!("../fixtures/oracle_only.rs");
    // The `exec` import and path (at the crate token), the Jacobian call,
    // the three `Vqc` method calls (turbofish included), the UFCS call
    // and the bare prelude `run_noisy`. The non-call import, the batched
    // runtime call, the prose and string mentions, the runtime's own
    // `crate::exec`, the bare `.forward(` and the cfg(test) oracle calls
    // do not fire.
    let expected = vec![
        (3, 5),
        (7, 13),
        (8, 13),
        (9, 19),
        (10, 19),
        (11, 19),
        (12, 18),
        (13, 13),
    ];
    for path in [
        "crates/core/src/oracle_fixture.rs",
        "crates/bench/src/bin/oracle_fixture.rs",
        "crates/runtime/src/qnn.rs",
        "perfbench/src/oracle_fixture.rs",
    ] {
        let r = analyze(path, src);
        assert_eq!(spans(&r, "oracle-only"), expected, "{path}");
        assert_eq!(
            r.findings.len(),
            expected.len(),
            "{path}: {:#?}",
            r.findings
        );
    }
}

#[test]
fn oracle_only_fixture_out_of_scope_paths_are_clean() {
    let src = include_str!("../fixtures/oracle_only.rs");
    // The oracle's own crate, integration tests, benches and examples
    // may run the interpreter.
    for path in [
        "crates/vqc/src/oracle_fixture.rs",
        "crates/core/tests/oracle_fixture.rs",
        "crates/bench/benches/oracle_fixture.rs",
        "examples/oracle_fixture.rs",
        "tests/oracle_fixture.rs",
        "perfbench/tests/oracle_fixture.rs",
    ] {
        let r = analyze(path, src);
        assert!(
            spans(&r, "oracle-only").is_empty(),
            "oracle-only fired out of scope at {path}"
        );
    }
}

#[test]
fn suppression_fixture_pragma_honored_and_policed() {
    let src = include_str!("../fixtures/suppressed.rs");
    let r = analyze("crates/runtime/src/suppressed_fixture.rs", src);
    // The justified pragma suppresses exactly the `Instant::now` it
    // anchors to (first code line below the comment run).
    assert_eq!(r.suppressed, 1);
    // The pragma with no written justification is itself a finding, and
    // does NOT suppress the violation on the fn's body line (it anchors
    // to the fn signature, not the body).
    assert_eq!(spans(&r, "bad-pragma"), vec![(9, 1)]);
    assert_eq!(spans(&r, "determinism"), vec![(11, 16)]);
    // The pragma that matches nothing is reported as stale.
    assert_eq!(spans(&r, "unused-suppression"), vec![(14, 1)]);
    assert_eq!(r.findings.len(), 3);
}

#[test]
fn clean_fixture_zero_findings() {
    let src = include_str!("../fixtures/clean.rs");
    // Run it under every scope a rule keys off: still zero findings.
    for path in [
        "crates/qsim/src/clean_fixture.rs",
        "crates/runtime/src/clean_fixture.rs",
        "crates/serve/src/clean_fixture.rs",
        "crates/harness/src/clean_fixture.rs",
        "perfbench/src/clean_fixture.rs",
    ] {
        let r = analyze(path, src);
        assert!(
            r.findings.is_empty(),
            "clean fixture flagged at {path}: {:#?}",
            r.findings
        );
        assert_eq!(r.suppressed, 0);
        assert_eq!(r.files, 1);
    }
}
