//! The rule catalog: each rule encodes one invariant this repo's
//! correctness argument actually depends on.
//!
//! Rules operate on the lexed token stream plus the structure derived
//! by [`crate::engine`], so they are immune to comments and string
//! literals but still purely syntactic — each rule documents the
//! matching scheme it uses and the false-positive/negative tradeoffs.

use crate::engine::SourceFile;
use crate::lexer::TokenKind;

/// One rule violation (or meta-finding) at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// The rule catalog: `(name, invariant protected)`. The last two are
/// meta-rules emitted by the engine itself and cannot be suppressed.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-fma",
        "bit-identical SIMD dispatch: no fused multiply-add (`mul_add`, `_mm256_fmadd*`) in \
         qsim/runtime kernels, so scalar and AVX2 paths round identically",
    ),
    (
        "unsafe-safety-comment",
        "every `unsafe` block/fn/impl carries a `// SAFETY:` comment stating the \
         pointer/length/cpu-feature preconditions it relies on",
    ),
    (
        "target-feature-dispatch",
        "`#[target_feature]` fns are only called from other `#[target_feature]` fns or from \
         dispatch sites guarded by `simd::level()` / `wide()`",
    ),
    (
        "determinism",
        "deterministic crates (qsim, runtime, vqc, env, core, harness, chaos, neural) never \
         read wall clocks, spawn free threads, or iterate hash-ordered containers",
    ),
    (
        "no-panic-serve",
        "the serve hot path never panics: no `unwrap`/`expect`/`panic!`-family macros in \
         crates/serve non-test library code or in the core/runtime files its batcher runs \
         through",
    ),
    (
        "bad-pragma",
        "suppression pragmas parse, name known rules, anchor to code, and carry a written \
         justification (meta-rule; not suppressible)",
    ),
    (
        "unused-suppression",
        "suppression pragmas that no longer match a finding must be removed (meta-rule; not \
         suppressible)",
    ),
];

/// All rule names, for pragma validation.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|(n, _)| *n).collect()
}

/// Crates whose outputs must be bit-identical across worker counts and
/// SIMD levels. `serve`, `bench`, and the harness CLI's *reporting*
/// layer may read wall clocks (timing is metadata there, never data);
/// the harness compute path is in scope and uses pragmas for its
/// metadata-only timers.
const DETERMINISTIC_CRATES: &[&str] = &[
    "qsim", "runtime", "vqc", "env", "core", "harness", "chaos", "neural",
];

/// A `#[target_feature]` function declaration, keyed for call matching.
#[derive(Debug)]
pub struct TfDecl {
    pub name: String,
    /// Innermost named module (or file stem) of the declaration.
    pub mod_name: String,
    pub file_idx: usize,
}

/// Workspace-wide facts collected in pass one.
#[derive(Debug, Default)]
pub struct Context {
    pub tf_decls: Vec<TfDecl>,
}

impl Context {
    pub fn build(files: &[SourceFile]) -> Context {
        let mut ctx = Context::default();
        for (idx, f) in files.iter().enumerate() {
            for fun in &f.fns {
                if fun.is_target_feature {
                    ctx.tf_decls.push(TfDecl {
                        name: fun.name.clone(),
                        mod_name: fun.mod_name.clone(),
                        file_idx: idx,
                    });
                }
            }
        }
        ctx
    }
}

/// The crate a workspace-relative path belongs to (`crates/qsim/src/..`
/// → `qsim`), or `None` outside `crates/`.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// True for integration-test, bench, and example paths, which every
/// production-code rule skips.
fn is_test_path(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
}

/// True for library/binary source paths (`.../src/...`).
fn is_src_path(path: &str) -> bool {
    path.contains("/src/") || path.starts_with("src/")
}

/// Runs every rule on one file. `file_idx` is the file's index in the
/// workspace list (for declaration matching against `ctx`).
pub fn run_rules(file: &SourceFile, file_idx: usize, ctx: &Context) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_no_fma(file, &mut out);
    rule_unsafe_safety_comment(file, &mut out);
    rule_target_feature_dispatch(file, file_idx, ctx, &mut out);
    rule_determinism(file, &mut out);
    rule_no_panic_serve(file, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, rule: &'static str, file: &SourceFile, i: usize, msg: String) {
    let t = &file.tokens[i];
    out.push(Finding {
        rule,
        path: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
    });
}

/// **no-fma** — scope: `crates/qsim/src`, `crates/runtime/src` (tests
/// included: a fused reference inside a parity test would make the test
/// agree with a broken kernel). Flags the identifier `mul_add` and any
/// `_mm*` intrinsic whose name contains a fused-multiply form. Matching
/// is by token name, so an unfused helper must not be called `mul_add`
/// (the workspace uses `mul_acc` for the expanded complex fused-shape
/// helper for exactly this reason).
fn rule_no_fma(file: &SourceFile, out: &mut Vec<Finding>) {
    let scoped = matches!(crate_of(&file.rel_path), Some("qsim") | Some("runtime"))
        && is_src_path(&file.rel_path);
    if !scoped {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let fused_intrinsic = t.text.starts_with("_mm")
            && ["fmadd", "fmsub", "fnmadd", "fnmsub"]
                .iter()
                .any(|f| t.text.contains(f));
        if t.text == "mul_add" || fused_intrinsic {
            push(
                out,
                "no-fma",
                file,
                i,
                format!(
                    "`{}` fuses multiply-add with a single rounding; qsim/runtime kernels \
                     must round each op so scalar and AVX2 stay bit-identical",
                    t.text
                ),
            );
        }
    }
}

/// **unsafe-safety-comment** — scope: all `src/` paths, non-test code.
/// Every `unsafe` keyword introducing a block, fn, or impl must have a
/// comment containing `SAFETY` on the same line, directly above it, or
/// directly above the attributes stacked on it.
fn rule_unsafe_safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    if !is_src_path(&file.rel_path) || is_test_path(&file.rel_path) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") || file.in_cfg_test(i) {
            continue;
        }
        let form = match file.tokens.get(i + 1) {
            Some(n) if n.is_punct('{') => "block",
            Some(n) if n.is_ident("fn") || n.is_ident("extern") => "fn",
            Some(n) if n.is_ident("impl") || n.is_ident("trait") => "impl",
            _ => continue, // e.g. the contextual `unsafe` in attr strings
        };
        if !file.has_safety_comment(t.line) {
            push(
                out,
                "unsafe-safety-comment",
                file,
                i,
                format!(
                    "`unsafe` {form} without a `// SAFETY:` comment stating the preconditions \
                     it relies on"
                ),
            );
        }
    }
}

/// **target-feature-dispatch** — scope: everywhere (test code too: a
/// test calling an AVX2 kernel without a guard SIGILLs on older CPUs).
///
/// A call to a name declared `#[target_feature]` somewhere in the
/// workspace is matched conservatively: a path-qualified call
/// (`avx::rot_x_rows(..)`) matches only when the qualifier's last
/// segment equals the declaration's module (so the *safe* dispatcher
/// `rows::rot_x_rows` twin never matches its `avx::` namesake); an
/// unqualified call matches only declarations in the same file *and*
/// module. A matched call is fine when the enclosing fn is itself
/// `#[target_feature]`, or when its body calls a dispatch guard
/// (`level(`, `wide(`, `wide_supported(`) before the call site.
fn rule_target_feature_dispatch(
    file: &SourceFile,
    file_idx: usize,
    ctx: &Context,
    out: &mut Vec<Finding>,
) {
    if ctx.tf_decls.is_empty() {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let decls: Vec<&TfDecl> = ctx.tf_decls.iter().filter(|d| d.name == t.text).collect();
        if decls.is_empty() {
            continue;
        }
        // Declaration sites themselves: `fn name`.
        if i > 0 && file.tokens[i - 1].is_ident("fn") {
            continue;
        }
        // Must look like a call: `name(` or turbofish `name::<..>(`.
        let direct_call = file.tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let turbofish = file.tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && file.tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && file.tokens.get(i + 3).is_some_and(|n| n.is_punct('<'));
        if !direct_call && !turbofish {
            continue;
        }
        // Qualifier: the path segment immediately before `::name`.
        let qualifier = if i >= 3
            && file.tokens[i - 1].is_punct(':')
            && file.tokens[i - 2].is_punct(':')
            && file.tokens[i - 3].kind == TokenKind::Ident
        {
            Some(file.tokens[i - 3].text.as_str())
        } else {
            None
        };
        let matched = match qualifier {
            Some(q @ ("self" | "crate" | "super")) => {
                let _ = q;
                decls.iter().any(|d| d.file_idx == file_idx)
            }
            Some(q) => decls.iter().any(|d| d.mod_name == q),
            None => {
                let call_mod = file.mod_at(i);
                decls
                    .iter()
                    .any(|d| d.file_idx == file_idx && d.mod_name == call_mod)
            }
        };
        if !matched {
            continue;
        }
        let Some(enc) = file.enclosing_fn(i) else {
            push(
                out,
                "target-feature-dispatch",
                file,
                i,
                format!(
                    "`{}` is #[target_feature] but called outside any fn",
                    t.text
                ),
            );
            continue;
        };
        if enc.is_target_feature {
            continue;
        }
        let guarded = enc.body.is_some_and(|(start, _)| {
            file.tokens[start..i].windows(2).any(|w| {
                w[1].is_punct('(')
                    && (w[0].is_ident("level")
                        || w[0].is_ident("wide")
                        || w[0].is_ident("wide_supported"))
            })
        });
        if !guarded {
            push(
                out,
                "target-feature-dispatch",
                file,
                i,
                format!(
                    "`{}` is #[target_feature(enable = ...)] but the enclosing fn `{}` is \
                     neither #[target_feature] nor guarded by a simd::level()/wide() dispatch \
                     check before the call",
                    t.text, enc.name
                ),
            );
        }
    }
}

/// **determinism** — scope: the deterministic crates' `src/` trees,
/// non-test code. Flags `Instant::now` / `SystemTime` / `thread::spawn`
/// / `thread::Builder` path sequences and every `HashMap`/`HashSet`
/// identifier (hash iteration order varies per process, so their mere
/// presence in a deterministic crate needs justification). Both thread
/// paths are flagged because either one starts a free thread; parallel
/// work goes through `qsim::par::parallel_map`, whose one justified
/// spawn site feeds a pool that restores input order. Scoped spawns
/// (`scope.spawn`) are method calls on a scope that joins every thread,
/// and are not flagged.
fn rule_determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    let scoped = crate_of(&file.rel_path).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c))
        && is_src_path(&file.rel_path)
        && !is_test_path(&file.rel_path);
    if !scoped {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.in_cfg_test(i) {
            continue;
        }
        let path_call = |head: &str, tail: &str| {
            t.text == head
                && file.tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && file.tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && file.tokens.get(i + 3).is_some_and(|n| n.is_ident(tail))
        };
        if path_call("Instant", "now") {
            push(
                out,
                "determinism",
                file,
                i,
                "`Instant::now()` reads the wall clock in a deterministic crate; results must \
                 be a pure function of (config, seed)"
                    .to_string(),
            );
        } else if t.text == "SystemTime" {
            push(
                out,
                "determinism",
                file,
                i,
                "`SystemTime` in a deterministic crate; results must be a pure function of \
                 (config, seed)"
                    .to_string(),
            );
        } else if path_call("thread", "spawn") || path_call("thread", "Builder") {
            push(
                out,
                "determinism",
                file,
                i,
                format!(
                    "free thread (`thread::{}`) in a deterministic crate; run parallel work \
                     through `qsim::par::parallel_map`, which returns results in input order",
                    file.tokens[i + 3].text
                ),
            );
        } else if t.text == "HashMap" || t.text == "HashSet" {
            push(
                out,
                "determinism",
                file,
                i,
                format!(
                    "`{}` iterates in per-process hash order; use BTreeMap/BTreeSet in \
                     deterministic crates or justify that no iteration order escapes",
                    t.text
                ),
            );
        }
    }
}

/// Library files outside `crates/serve` that the batcher's inference
/// path runs through: `ServablePolicy::act_batch` in `core::serving`,
/// the actor policies it dispatches to, and the runtime's prebound batch
/// execution under them.
const SERVE_PATH_FILES: &[&str] = &[
    "crates/core/src/serving.rs",
    "crates/core/src/vec_policy.rs",
    "crates/core/src/policy.rs",
    "crates/runtime/src/batch.rs",
    "crates/runtime/src/prebound.rs",
    "crates/runtime/src/qnn.rs",
];

/// **no-panic-serve** — scope: `crates/serve/src` excluding `src/bin`
/// (the loadgen binary is test tooling, not the serving hot path), plus
/// [`SERVE_PATH_FILES`]; test code is exempt. Flags `.unwrap()` /
/// `.expect()` method calls and the panic-family macros.
fn rule_no_panic_serve(file: &SourceFile, out: &mut Vec<Finding>) {
    let path = file.rel_path.as_str();
    let scoped = (path.starts_with("crates/serve/src/")
        && !path.starts_with("crates/serve/src/bin/"))
        || SERVE_PATH_FILES.contains(&path);
    if !scoped {
        return;
    }
    const METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for (i, t) in file.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || file.in_cfg_test(i) {
            continue;
        }
        let method = METHODS.contains(&t.text.as_str())
            && i > 0
            && file.tokens[i - 1].is_punct('.')
            && file.tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        let mac = MACROS.contains(&t.text.as_str())
            && file.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if method {
            push(
                out,
                "no-panic-serve",
                file,
                i,
                format!(
                    "`.{}()` can panic on the serve hot path; return a typed error instead",
                    t.text
                ),
            );
        } else if mac {
            push(
                out,
                "no-panic-serve",
                file,
                i,
                format!(
                    "`{}!` panics on the serve hot path; return a typed error instead",
                    t.text
                ),
            );
        }
    }
}
