#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): release build + the full test suite +
# the lamolint static-analysis pass (DESIGN.md §12).
# Run from anywhere; CI and EXPERIMENTS.md both invoke this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace --no-fail-fast
# The workspace pass above runs the serving robustness suites (chaos,
# store, prop_serve) in debug; this keeps them and the table/figure
# bins compiling in release even if workspace default-members ever narrow.
cargo test --release -p lamo-serve --no-run
cargo build --release -p lamofinder-bench --bins
cargo run -p lamolint --release -- check
