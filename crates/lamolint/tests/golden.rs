//! Golden-file tests: every fixture under `tests/fixtures/*.rs` is linted
//! and its diagnostics compared against the `.expected` file next to it
//! (`line:col:rule` per finding, sorted).
//!
//! Fixtures carry a `//@ path: <pretend-path>` first line so each is
//! classified as the workspace location it imitates (the real fixture
//! path lives under `tests/fixtures/`, which the walker skips entirely).
//!
//! Regenerate expectations after a rule change with
//! `LAMOLINT_BLESS=1 cargo test -p lamolint --test golden` — then review
//! the diff like any other code change.

use lamolint::rules::{check_source, FileScope};
use lamolint::Report;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The workspace path a fixture pretends to live at.
fn pretend_path(src: &str, file_name: &str) -> String {
    let first = src.lines().next().unwrap_or_default();
    first
        .strip_prefix("//@ path:")
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| format!("crates/demo/src/{file_name}"))
}

fn render(diags: &[lamolint::diag::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("{}:{}:{}\n", d.line, d.col, d.rule.name()))
        .collect()
}

#[test]
fn fixtures_match_golden_expectations() {
    let bless = std::env::var_os("LAMOLINT_BLESS").is_some();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("fixture directory ships with the crate")
        .map(|e| e.expect("fixture dir entries are readable").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 9,
        "fixture corpus shrank: {} files",
        fixtures.len()
    );

    let mut seeded = 0usize;
    for path in fixtures {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("fixture names are valid UTF-8");
        let src = fs::read_to_string(&path).expect("fixture files are readable");
        let pretend = pretend_path(&src, name);
        let scope = FileScope::classify(&pretend)
            .expect("pretend paths must classify as lintable workspace code");
        let outcome = check_source(&pretend, &src, scope);
        let got = render(&outcome.diagnostics);

        let expected_path = path.with_extension("expected");
        if bless {
            fs::write(&expected_path, &got).expect("blessing writes next to the fixture");
            continue;
        }
        let want = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!("missing {}; run LAMOLINT_BLESS=1 to create it", expected_path.display())
        });
        assert_eq!(
            got, want,
            "fixture {name} diagnostics diverge from golden file; \
             re-bless with LAMOLINT_BLESS=1 if the change is intended"
        );

        // Exit-code semantics: every violation-seeding fixture must drive a
        // non-zero exit, every clean fixture a zero exit.
        let report = Report {
            files: vec![pretend],
            diagnostics: outcome.diagnostics,
            suppressed: outcome.suppressed,
        };
        if want.trim().is_empty() {
            assert_eq!(report.exit_code(), 0, "clean fixture {name} must exit 0");
        } else {
            assert_eq!(report.exit_code(), 1, "seeded fixture {name} must exit 1");
            seeded += 1;
        }
    }
    if !bless {
        assert!(seeded >= 6, "expected ≥ 6 violation-seeding fixtures, got {seeded}");
    }
}

#[test]
fn suppressed_fixture_counts_justified_allows() {
    let path = fixture_dir().join("suppressed.rs");
    let src = fs::read_to_string(&path).expect("suppressed.rs fixture exists");
    let pretend = pretend_path(&src, "suppressed.rs");
    let scope = FileScope::classify(&pretend).expect("fixture path classifies");
    let outcome = check_source(&pretend, &src, scope);
    assert_eq!(
        outcome.suppressed, 2,
        "the two justified allows must each silence one finding"
    );
}

#[test]
fn every_rule_is_exercised_by_some_fixture() {
    let mut hit: Vec<&str> = Vec::new();
    for entry in fs::read_dir(fixture_dir()).expect("fixture directory ships with the crate") {
        let path = entry.expect("fixture dir entries are readable").path();
        if path.extension().is_some_and(|e| e == "expected") {
            let body = fs::read_to_string(&path).expect("expected files are readable");
            for line in body.lines() {
                if let Some(rule) = line.rsplit(':').next() {
                    hit.push(match lamolint::diag::Rule::from_name(rule) {
                        Some(r) => r.name(),
                        None => panic!("golden file {} names unknown rule {rule}", path.display()),
                    });
                }
            }
        }
    }
    for rule in lamolint::diag::ALL_RULES {
        assert!(
            hit.contains(&rule.name()),
            "no fixture exercises rule {}",
            rule.name()
        );
    }
}
