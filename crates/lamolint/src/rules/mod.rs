//! Rule dispatch: the per-file IR, the rule registry, and suppression
//! filtering.
//!
//! v2 architecture (DESIGN §12): every file is analyzed once into a
//! [`FileIr`] — token model, item graph, dataflow bindings, parsed
//! suppressions — and every rule is a [`RuleSpec`] entry in [`REGISTRY`]
//! running over that shared IR. The registry is the single source of
//! truth for "which rules exist": `check_source` dispatch and the CI
//! all-rules-present guard iterate it, so a new rule cannot be wired
//! into one surface and silently missed in another.

pub mod determinism;
pub mod faultpoints;
pub mod hotpath;
pub mod locks;
pub mod panics;

use crate::config::LintConfig;
use crate::dataflow::Bindings;
use crate::diag::{Diagnostic, Rule};
#[cfg(test)]
use crate::diag::ALL_RULES;
use crate::items::{ItemGraph, ItemKind};
use crate::model::FileModel;
use crate::suppress::{self, Allow};
pub use faultpoints::FaultSite;

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileScope {
    /// `wall-clock` applies (everywhere except crates/bench, whose whole
    /// purpose is timing, and files exempted in `lamolint.toml`).
    pub wall_clock: bool,
    /// `lib-unwrap` applies (library code: src/** minus bin targets,
    /// tests, benches, and the bench harness crate).
    pub lib_unwrap: bool,
    /// `forbid-unsafe` applies (crate roots: src/lib.rs).
    pub forbid_unsafe: bool,
    /// `faultpoint!` sites may be *declared* here (same footprint as
    /// `lib_unwrap`: library code only). The hygiene rule itself runs
    /// everywhere — outside this scope any site is a finding.
    pub faultpoints: bool,
    /// `serve-read-lock` applies: `crates/lamo-serve/src/**` minus bin
    /// targets (the serving read path is lock-free by contract; a bin
    /// sits at the CLI boundary, outside it).
    pub serve_lock_free: bool,
}

impl FileScope {
    /// Scope for a workspace-relative path (forward slashes), or `None`
    /// when the file is not lintable (vendored code, fixtures, target).
    /// Uses the default (empty) workspace configuration.
    pub fn classify(rel_path: &str) -> Option<FileScope> {
        FileScope::classify_with(rel_path, &LintConfig::default())
    }

    /// [`FileScope::classify`] honoring `lamolint.toml` exemptions.
    pub fn classify_with(rel_path: &str, config: &LintConfig) -> Option<FileScope> {
        let comps: Vec<&str> = rel_path.split('/').collect();
        if comps
            .iter()
            .any(|c| matches!(*c, "vendor" | "target" | "fixtures" | ".git"))
        {
            return None;
        }
        let is_bench_crate = rel_path.starts_with("crates/bench/");
        let in_tests = comps
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples"));
        let is_bin = comps.windows(2).any(|w| w == ["src", "bin"]);
        let exempt_clock = config.wall_clock_exempt.iter().any(|e| e == rel_path);
        Some(FileScope {
            wall_clock: !is_bench_crate && !exempt_clock,
            lib_unwrap: !is_bench_crate && !in_tests && !is_bin,
            forbid_unsafe: rel_path.ends_with("src/lib.rs") && !in_tests,
            faultpoints: !is_bench_crate && !in_tests && !is_bin,
            serve_lock_free: rel_path.starts_with("crates/lamo-serve/src/") && !is_bin,
        })
    }
}

/// The per-file intermediate representation every rule runs over. Built
/// once per file; immutable afterwards, so the parallel driver can share
/// nothing and still merge deterministically.
pub struct FileIr<'a> {
    pub path: &'a str,
    pub scope: FileScope,
    pub config: &'a LintConfig,
    /// Layer 0: comment-free depth-annotated tokens.
    pub model: FileModel,
    /// Layer 1: the item graph (fns/impls/mods with spans and attrs).
    pub items: ItemGraph,
    /// Layer 2: dataflow binding events (hash/float/alloc/scratch facts).
    pub flow: Bindings,
    /// Well-formed suppressions, with item-scope widening applied.
    pub allows: Vec<Allow>,
    /// Malformed suppressions — surfaced by the `bad-suppression` rule.
    pub allow_errors: Vec<Diagnostic>,
}

impl<'a> FileIr<'a> {
    /// Analyze `src` into the three-layer IR.
    pub fn build(
        path: &'a str,
        src: &str,
        scope: FileScope,
        config: &'a LintConfig,
    ) -> FileIr<'a> {
        let model = FileModel::build(src);
        let items = ItemGraph::build(&model);
        let flow = Bindings::collect(&model);
        let (mut allows, allow_errors) = suppress::parse_allows(path, &model.comments);
        widen_item_scope_allows(&model, &items, &mut allows);
        FileIr {
            path,
            scope,
            config,
            model,
            items,
            flow,
            allows,
            allow_errors,
        }
    }
}

/// An allow whose comment sits on a `fn`/`impl` header (any header line,
/// or above the first one with only comment/blank lines between — a
/// multi-line justification stays one directive) covers the whole item,
/// not just the next line. The item graph makes "the whole item" exact:
/// its last token's line. Any code token between the allow and the
/// header — even a closing `}` — blocks widening, so mid-body allows
/// keep their next-line scope.
fn widen_item_scope_allows(model: &FileModel, items: &ItemGraph, allows: &mut [Allow]) {
    if allows.is_empty() {
        return;
    }
    let code_lines: std::collections::BTreeSet<u32> =
        model.code.iter().map(|t| t.tok.line).collect();
    for allow in allows.iter_mut() {
        for item in items.items() {
            if !matches!(item.kind, ItemKind::Fn | ItemKind::Impl) {
                continue;
            }
            let (Some(first), Some(kw), Some(last)) = (
                model.tok(item.header_start),
                model.tok(item.kw),
                model.tok(item.end),
            ) else {
                continue;
            };
            let on_header = allow.line >= first.line && allow.line <= kw.line;
            let above_header = allow.line < first.line
                && (allow.line + 1..first.line).all(|l| !code_lines.contains(&l));
            if on_header || above_header {
                allow.end_line = allow.end_line.max(last.line);
                break; // items are in source order; the first (outermost) match wins
            }
        }
    }
}

/// Output accumulator one registry pass fills in.
#[derive(Default)]
pub struct RuleOutput {
    pub diags: Vec<Diagnostic>,
    /// Well-formed fault-injection sites (from `faultpoint-hygiene`), for
    /// the workspace-wide uniqueness pass in [`crate::run_check`].
    pub faultpoints: Vec<FaultSite>,
}

/// One registered rule: its catalog entry plus its runner. Runners do
/// their own scope gating so the registry loop stays uniform.
pub struct RuleSpec {
    pub rule: Rule,
    pub run: fn(&FileIr, &mut RuleOutput),
}

/// Every rule, in catalog order. Must stay in bijection with
/// [`ALL_RULES`] — pinned by a test below and by the CI report guard.
pub const REGISTRY: [RuleSpec; 12] = [
    RuleSpec {
        rule: Rule::NondetIteration,
        run: |ir, out| determinism::nondet_iteration(ir.path, &ir.model, &ir.flow, &mut out.diags),
    },
    RuleSpec {
        rule: Rule::WallClock,
        run: |ir, out| {
            if ir.scope.wall_clock {
                determinism::wall_clock(ir.path, &ir.model, &mut out.diags);
            }
        },
    },
    RuleSpec {
        rule: Rule::UnseededRng,
        run: |ir, out| determinism::unseeded_rng(ir.path, &ir.model, &mut out.diags),
    },
    RuleSpec {
        rule: Rule::GuardAcrossSpawn,
        run: |ir, out| locks::guard_across_spawn(ir.path, &ir.model, &mut out.diags),
    },
    RuleSpec {
        rule: Rule::InterprocGuard,
        run: |ir, out| locks::interproc_guard(ir.path, &ir.model, &ir.items, &mut out.diags),
    },
    RuleSpec {
        rule: Rule::LibUnwrap,
        run: |ir, out| {
            if ir.scope.lib_unwrap {
                panics::lib_unwrap(ir.path, &ir.model, &mut out.diags);
            }
        },
    },
    RuleSpec {
        rule: Rule::ForbidUnsafe,
        run: |ir, out| {
            if ir.scope.forbid_unsafe {
                panics::forbid_unsafe(ir.path, &ir.model, &mut out.diags);
            }
        },
    },
    RuleSpec {
        rule: Rule::BadSuppression,
        run: |ir, out| out.diags.extend(ir.allow_errors.iter().cloned()),
    },
    RuleSpec {
        rule: Rule::FaultpointHygiene,
        run: |ir, out| {
            out.faultpoints = faultpoints::faultpoint_hygiene(
                ir.path,
                &ir.model,
                ir.scope.faultpoints,
                &mut out.diags,
            );
        },
    },
    RuleSpec {
        rule: Rule::ServeReadLock,
        run: |ir, out| {
            if ir.scope.serve_lock_free {
                locks::serve_read_lock(ir.path, &ir.model, &mut out.diags);
            }
        },
    },
    RuleSpec {
        rule: Rule::AllocInHotLoop,
        run: |ir, out| hotpath::alloc_in_hot_loop(ir, &mut out.diags),
    },
    RuleSpec {
        rule: Rule::FpAccumOrder,
        run: |ir, out| hotpath::fp_accum_order(ir.path, &ir.model, &ir.flow, &mut out.diags),
    },
];

/// Result of linting one file.
pub struct FileOutcome {
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a justified `lamolint::allow`.
    pub suppressed: usize,
    /// Well-formed fault-injection sites declared by this file, for the
    /// workspace-wide uniqueness pass in [`crate::run_check`].
    pub faultpoints: Vec<FaultSite>,
}

/// Run every registered rule over one source file, with the default
/// (empty) workspace configuration.
pub fn check_source(rel_path: &str, src: &str, scope: FileScope) -> FileOutcome {
    check_source_with(rel_path, src, scope, &LintConfig::default())
}

/// Run every registered rule over one source file.
pub fn check_source_with(
    rel_path: &str,
    src: &str,
    scope: FileScope,
    config: &LintConfig,
) -> FileOutcome {
    let ir = FileIr::build(rel_path, src, scope, config);
    let mut out = RuleOutput::default();
    for spec in &REGISTRY {
        (spec.run)(&ir, &mut out);
    }
    // `bad-suppression` findings pass through untouched: the parser
    // rejects `allow(bad-suppression)`, so no allow can ever cover them.
    let before = out.diags.len();
    out.diags
        .retain(|d| !ir.allows.iter().any(|a| a.covers(d.rule, d.line)));
    let suppressed = before - out.diags.len();

    out.diags.sort();
    out.diags.dedup();
    FileOutcome {
        diagnostics: out.diags,
        suppressed,
        faultpoints: out.faultpoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        let lib = FileScope::classify("crates/core/src/labeling.rs").expect("lintable");
        assert!(lib.wall_clock && lib.lib_unwrap && !lib.forbid_unsafe);
        assert!(lib.faultpoints);

        let root = FileScope::classify("crates/core/src/lib.rs").expect("lintable");
        assert!(root.forbid_unsafe);

        let bench = FileScope::classify("crates/bench/src/lib.rs").expect("lintable");
        assert!(!bench.wall_clock && !bench.lib_unwrap && !bench.faultpoints);

        let bin = FileScope::classify("crates/bench/src/bin/scalability.rs").expect("lintable");
        assert!(!bin.lib_unwrap && !bin.faultpoints);

        let test = FileScope::classify("crates/core/tests/prop_labeling.rs").expect("lintable");
        assert!(!test.lib_unwrap && test.wall_clock && !test.faultpoints);
        assert!(!test.serve_lock_free && !lib.serve_lock_free);

        let serve = FileScope::classify("crates/lamo-serve/src/server.rs").expect("lintable");
        assert!(serve.serve_lock_free && serve.wall_clock && serve.lib_unwrap);
        let serve_bin = FileScope::classify("crates/lamo-serve/src/bin/serve.rs").expect("lintable");
        assert!(
            !serve_bin.serve_lock_free,
            "a bin sits at the CLI boundary, outside the read path"
        );
        let serve_test =
            FileScope::classify("crates/lamo-serve/tests/prop_serve.rs").expect("lintable");
        assert!(!serve_test.serve_lock_free);

        assert_eq!(FileScope::classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(
            FileScope::classify("crates/lamolint/tests/fixtures/clean.rs"),
            None
        );
    }

    #[test]
    fn wall_clock_exemption_is_file_scoped() {
        let config = LintConfig {
            wall_clock_exempt: vec!["crates/par-util/src/realtime.rs".into()],
            ..LintConfig::default()
        };
        let exempt =
            FileScope::classify_with("crates/par-util/src/realtime.rs", &config).expect("lintable");
        assert!(!exempt.wall_clock, "exempted file skips wall-clock");
        assert!(exempt.lib_unwrap, "other rules still apply");
        let sibling =
            FileScope::classify_with("crates/par-util/src/supervise.rs", &config).expect("lintable");
        assert!(sibling.wall_clock, "exemption does not leak to siblings");
    }

    #[test]
    fn registry_matches_catalog_exactly() {
        let registered: Vec<Rule> = REGISTRY.iter().map(|s| s.rule).collect();
        assert_eq!(
            registered,
            ALL_RULES.to_vec(),
            "REGISTRY and ALL_RULES must list the same rules in the same order"
        );
    }

    #[test]
    fn suppression_silences_and_counts() {
        let scope = FileScope::classify("crates/core/src/x.rs").expect("lintable");
        let src = "fn f() {\n\
                   // lamolint::allow(lib-unwrap): value inserted two lines up\n\
                   a.unwrap();\n\
                   b.unwrap();\n\
                   }";
        let out = check_source("crates/core/src/x.rs", src, scope);
        assert_eq!(out.suppressed, 1);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].line, 4);
    }

    #[test]
    fn bare_allow_reported_even_when_nothing_to_silence() {
        let scope = FileScope::classify("crates/core/src/x.rs").expect("lintable");
        let out = check_source(
            "crates/core/src/x.rs",
            "// lamolint::allow(lib-unwrap)\nfn f() {}",
            scope,
        );
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, Rule::BadSuppression);
    }

    #[test]
    fn item_scope_allow_covers_whole_fn() {
        let scope = FileScope::classify("crates/core/src/x.rs").expect("lintable");
        let src = "// lamolint::allow(lib-unwrap): startup-only config loader, crash is the contract\n\
                   fn load() {\n\
                   a.unwrap();\n\
                   b.unwrap();\n\
                   c.unwrap();\n\
                   }\n\
                   fn other() { d.unwrap(); }";
        let out = check_source("crates/core/src/x.rs", src, scope);
        assert_eq!(out.suppressed, 3, "all three unwraps in the annotated fn");
        assert_eq!(out.diagnostics.len(), 1, "the sibling fn is not covered");
        assert_eq!(out.diagnostics[0].line, 7);
    }

    #[test]
    fn item_scope_allow_on_attr_line_covers_whole_fn() {
        let scope = FileScope::classify("crates/core/src/x.rs").expect("lintable");
        let src = "#[inline] // lamolint::allow(lib-unwrap): invariants pinned by caller contract\n\
                   fn load() {\n\
                   a.unwrap();\n\
                   b.unwrap();\n\
                   }";
        let out = check_source("crates/core/src/x.rs", src, scope);
        assert_eq!(out.suppressed, 2);
        assert!(out.diagnostics.is_empty());
    }

    #[test]
    fn mid_body_allow_keeps_next_line_scope() {
        let scope = FileScope::classify("crates/core/src/x.rs").expect("lintable");
        let src = "fn load() {\n\
                   // lamolint::allow(lib-unwrap): index checked by the preceding guard\n\
                   a.unwrap();\n\
                   b.unwrap();\n\
                   }";
        let out = check_source("crates/core/src/x.rs", src, scope);
        assert_eq!(out.suppressed, 1, "mid-body allows stay next-line scoped");
        assert_eq!(out.diagnostics.len(), 1);
    }

    #[test]
    fn item_scope_allow_on_impl_covers_methods() {
        let scope = FileScope::classify("crates/core/src/x.rs").expect("lintable");
        let src = "// lamolint::allow(lib-unwrap): generated builder, every field is set by new()\n\
                   impl Builder {\n\
                   fn a(&self) { x.unwrap(); }\n\
                   fn b(&self) { y.unwrap(); }\n\
                   }";
        let out = check_source("crates/core/src/x.rs", src, scope);
        assert_eq!(out.suppressed, 2);
        assert!(out.diagnostics.is_empty());
    }
}
