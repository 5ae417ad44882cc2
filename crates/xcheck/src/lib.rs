//! `xcheck` — the workspace's project-invariant static analyzer.
//!
//! The repo's correctness story rests on contracts no compiler checks:
//! bit-identical SIMD dispatch (no fused multiply-add in kernels),
//! worker-count-invariant determinism, documented `unsafe`
//! preconditions, `#[target_feature]` fns reached only through CPU
//! dispatch guards, a serve hot path that never panics, and a `vqc`
//! interpreter that only tests run (the oracle-only rule). `xcheck`
//! lexes every Rust source in the workspace (a real token-level lexer,
//! so comments and string literals never trigger rules) and enforces
//! those contracts as machine-checked rules with per-site suppression
//! pragmas:
//!
//! ```text
//! // xcheck: allow(<rule>[, <rule>]) — <written justification>
//! ```
//!
//! A pragma on its own line suppresses findings on the next code line;
//! a trailing pragma suppresses its own line; `allow-file(...)`
//! suppresses the whole file. Pragmas without a justification, naming
//! unknown rules, or suppressing nothing are themselves findings.
//!
//! Run it with `cargo run -p xcheck` (report) or
//! `cargo run -p xcheck -- --deny-all` (exit nonzero on any finding,
//! the CI gate). The crate is dependency-free by design — it must run
//! in the same offline container as the rest of the workspace.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{analyze_sources, analyze_workspace, Report, SourceFile};
pub use rules::{Context, Finding, RULES};
