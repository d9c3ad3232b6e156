#![forbid(unsafe_code)]
//! **lamolint** — the workspace's own static-analysis pass.
//!
//! PRs 1–2 bought two guarantees the proptests alone cannot keep safe
//! against future edits: byte-identical parallel output (DESIGN §10–§11)
//! and deadlock-free sharded caching. lamolint turns those into
//! CI-enforced law with a hand-rolled lexer (the build is offline; no
//! `syn`) and a three-layer analyzer over every `.rs` file in `crates/`
//! and `src/`:
//!
//! * **layer 0** — [`model::FileModel`]: comment-free, depth-annotated
//!   tokens;
//! * **layer 1** — [`items::ItemGraph`]: a total, error-recovering item
//!   parser (fns/impls/mods with spans, attributes, loop/closure
//!   nesting via [`items::BodyTree`]);
//! * **layer 2** — [`dataflow::Bindings`]: def-use binding events
//!   carrying hash/float/alloc/scratch facts per name.
//!
//! The twelve rules in [`rules::REGISTRY`] run over that shared IR —
//! determinism (`nondet-iteration`, `wall-clock`, `unseeded-rng`,
//! `fp-accum-order`), lock-safety (`guard-across-spawn`,
//! `interproc-guard`, `serve-read-lock`), fault-injection
//! (`faultpoint-hygiene`), panic-surface (`lib-unwrap`,
//! `forbid-unsafe`), hot-path allocation (`alloc-in-hot-loop`), and
//! suppression hygiene (`bad-suppression`).
//!
//! The driver lints the sorted file list in order on one thread, so the
//! report is deterministic by construction.
//!
//! Run `cargo run -p lamolint --release -- check` from anywhere in the
//! workspace; see DESIGN.md §12 for the rule catalog, the suppression
//! syntax, and the `lamolint.toml` exemption and hot-path lists.

pub mod config;
pub mod dataflow;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod suppress;

use config::LintConfig;
use diag::{Diagnostic, ALL_RULES};
#[cfg(test)]
use diag::Rule;
use rules::{FaultSite, FileScope};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregated result of linting a tree.
pub struct Report {
    /// Files actually analyzed (post scope filtering), sorted.
    pub files: Vec<String>,
    /// All surviving findings, sorted by (path, offset, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by justified suppressions.
    pub suppressed: usize,
}

impl Report {
    /// Number of findings per rule, in catalog order (zeroes included so
    /// report diffs across PRs line up).
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        ALL_RULES
            .iter()
            .map(|&r| {
                (
                    r.name(),
                    self.diagnostics.iter().filter(|d| d.rule == r).count(),
                )
            })
            .collect()
    }

    /// Process exit code: 0 clean, 1 findings.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.diagnostics.is_empty())
    }

    /// Human-readable rendering: one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if self.diagnostics.is_empty() {
            out.push_str(&format!(
                "lamolint: clean — {} files scanned, {} finding(s) \
                 suppressed with justification\n",
                self.files.len(),
                self.suppressed
            ));
        } else {
            out.push_str(&format!(
                "lamolint: {} finding(s) in {} files scanned ({} \
                 suppressed)\n",
                self.diagnostics.len(),
                self.files.len(),
                self.suppressed
            ));
        }
        out
    }

    /// Deterministic JSON rendering (same content as the human form;
    /// `target/lamolint-report.json` diffs track rule counts across PRs).
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"path\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \
                     \"message\": {}}}",
                    json_str(&d.path),
                    d.line,
                    d.col,
                    json_str(d.rule.name()),
                    json_str(&d.message)
                )
            })
            .collect();
        let counts: Vec<String> = self
            .rule_counts()
            .iter()
            .map(|(name, n)| format!("{}: {n}", json_str(name)))
            .collect();
        format!(
            "{{\"files_scanned\": {}, \"findings\": {}, \"suppressed\": {}, \
             \"rule_counts\": {{{}}}, \"diagnostics\": [{}]}}",
            self.files.len(),
            self.diagnostics.len(),
            self.suppressed,
            counts.join(", "),
            diags.join(", ")
        )
    }
}

/// JSON string literal with escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lint every `.rs` file under `<root>/crates` and `<root>/src`,
/// honoring `<root>/lamolint.toml` exemptions and hot-path entries.
///
/// Files are analyzed one after another in sorted path order, so the
/// report — and every byte of its JSON — is a pure function of the tree.
pub fn run_check(root: &Path) -> io::Result<Report> {
    let config = LintConfig::load(root);
    let mut files = Vec::new();
    for sub in ["crates", "src"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report {
        files: Vec::new(),
        diagnostics: Vec::new(),
        suppressed: 0,
    };
    // (declaring file, site) in path order — the walk is sorted, so
    // cross-file duplicate blame is deterministic.
    let mut sites: Vec<(String, FaultSite)> = Vec::new();
    for path in files {
        let rel = relative_slash_path(root, &path);
        let Some(scope) = FileScope::classify_with(&rel, &config) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        let outcome = rules::check_source_with(&rel, &src, scope, &config);
        for site in outcome.faultpoints {
            sites.push((rel.clone(), site));
        }
        report.suppressed += outcome.suppressed;
        report.diagnostics.extend(outcome.diagnostics);
        report.files.push(rel);
    }
    // Workspace-wide fault-site uniqueness: per-file duplicates were
    // already flagged in check_source; here every reuse of a name first
    // declared in an earlier file is a finding at the later site.
    for (i, (path, site)) in sites.iter().enumerate() {
        if let Some((first_path, first)) = sites[..i]
            .iter()
            .find(|(p, s)| s.name == site.name && p != path)
        {
            report.diagnostics.push(Diagnostic::new(
                path,
                site.line,
                site.col,
                diag::Rule::FaultpointHygiene,
                format!(
                    "fault-injection site name \"{}\" already declared at \
                     {first_path}:{}; site names are unique workspace-wide",
                    site.name, first.line
                ),
            ));
        }
    }
    report.diagnostics.sort();
    Ok(report)
}

/// Recursive, sorted `.rs` collection; skips vendored/generated trees.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across OSes and
/// in golden files).
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let report = Report {
            files: vec!["a.rs".into()],
            diagnostics: vec![Diagnostic::new(
                "a.rs",
                2,
                5,
                Rule::LibUnwrap,
                "msg with \"quote\"",
            )],
            suppressed: 3,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"files_scanned\": 1"));
        assert!(json.contains("\"findings\": 1"));
        assert!(json.contains("\"suppressed\": 3"));
        assert!(json.contains("\"lib-unwrap\": 1"));
        assert!(json.contains("\"nondet-iteration\": 0"));
        assert!(json.contains("\"alloc-in-hot-loop\": 0"));
        assert!(json.contains("msg with \\\"quote\\\""));
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn clean_report_exit_zero() {
        let report = Report {
            files: vec![],
            diagnostics: vec![],
            suppressed: 0,
        };
        assert_eq!(report.exit_code(), 0);
        assert!(report.render_human().contains("clean"));
    }
}
