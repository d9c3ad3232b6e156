//! The workspace itself is lamolint-clean, every registered rule shows
//! up in its report, and a full pass stays cheap enough to run serially
//! on every build.

use lamolint::diag::ALL_RULES;
use lamolint::{find_workspace_root, run_check};
use std::path::Path;
use std::time::Duration;

/// A debug-build pass over the workspace takes about 0.6 s on a 2-vCPU
/// Xeon; the bound leaves room for a loaded CI runner.
const DEBUG_PASS_BOUND: Duration = Duration::from_secs(10);

#[test]
fn workspace_is_clean_and_every_rule_is_reported() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the lamolint crate lives inside the workspace");
    // lamolint::allow(wall-clock): the elapsed time is the assertion, not an output
    let start = std::time::Instant::now();
    let report = run_check(&root).expect("workspace sources are readable");
    let elapsed = start.elapsed();

    assert!(
        report.diagnostics.is_empty(),
        "workspace has lamolint findings:\n{}",
        report.render_human()
    );
    assert!(
        report.files.len() > 100,
        "only {} files scanned",
        report.files.len()
    );
    let counts = report.rule_counts();
    for rule in ALL_RULES {
        assert!(
            counts.iter().any(|&(name, _)| name == rule.name()),
            "rule {} absent from the report",
            rule.name()
        );
    }
    assert!(
        elapsed < DEBUG_PASS_BOUND,
        "a serial pass took {elapsed:?} (bound {DEBUG_PASS_BOUND:?})"
    );
}
