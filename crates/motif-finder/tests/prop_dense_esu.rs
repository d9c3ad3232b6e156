//! Property tests pinning the dense discovery kernels (DESIGN.md §15)
//! to the reference walker, byte for byte.
//!
//! The discovery front-end replaced the allocation-heavy list walker
//! (now `support/esu_oracle.rs`) with [`DenseEsuWalker`] (bit-packed
//! rows, flat extension arena) on the promise that the visit *sequence* — not just the visit
//! set — is unchanged. That promise is what makes the swap invisible to
//! the deterministic parallel merge: visit-order tags, truncation cuts
//! and budget accounting all key off the serial enumeration order.
//! These tests check the promise on random graphs:
//!
//! * per root, the dense walker emits the same occurrence lists in the
//!   same order as the rooted reference enumerator;
//! * early abort (the budget mechanism) stops both walkers at the same
//!   prefix with the same abort flag;
//! * full growth runs are byte-identical across worker counts 1/2/4
//!   under budgets drawn small enough to bind at the seed level and
//!   mid-range budgets that bind at extension levels, including the
//!   `truncated_levels` / `capped_levels` flags.

#[path = "support/esu_oracle.rs"]
mod esu_oracle;

use esu_oracle::enumerate_connected_subgraphs_rooted;
use motif_finder::{grow_frequent_subgraphs, DenseEsuWalker, GrowthConfig, GrowthReport};
use ppi_graph::{AdjBits, Graph, VertexId};
use proptest::prelude::*;

fn graph_strategy(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (3..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Every size-`k` visit at `root`, in order, stopping after `limit`
/// visits (`usize::MAX` = never). The abort flag mirrors the walker
/// return value: `true` iff `visit` returned `false`.
fn reference_walk(g: &Graph, k: usize, root: u32, limit: usize) -> (Vec<Vec<VertexId>>, bool) {
    let mut visits = Vec::new();
    let mut aborted = false;
    enumerate_connected_subgraphs_rooted(g, k, root, &mut |verts| {
        visits.push(verts.to_vec());
        if visits.len() >= limit {
            aborted = true;
            return false;
        }
        true
    });
    (visits, aborted)
}

fn dense_walk(
    walker: &mut DenseEsuWalker<'_>,
    root: u32,
    limit: usize,
) -> (Vec<Vec<VertexId>>, bool) {
    let mut visits = Vec::new();
    let keep_going = walker.enumerate_root(root, &mut |verts| {
        visits.push(verts.to_vec());
        visits.len() < limit
    });
    (visits, !keep_going)
}

/// Everything the deterministic merge can observe about a growth run:
/// per class the pattern's edge list, the stored occurrence images and
/// the total frequency, plus the truncation and cap flags.
type ReportFingerprint = (
    Vec<(Vec<(u32, u32)>, Vec<Vec<u32>>, usize)>,
    Vec<usize>,
    Vec<usize>,
);

fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            if u > v.0 {
                edges.push((v.0, u));
            }
        }
    }
    edges
}

fn fingerprint(report: &GrowthReport) -> ReportFingerprint {
    let classes = report
        .classes
        .iter()
        .map(|c| {
            let occs = c
                .occurrences
                .iter()
                .map(|o| o.vertices.iter().map(|v| v.0).collect())
                .collect();
            (edge_list(&c.pattern), occs, c.frequency)
        })
        .collect();
    (
        classes,
        report.truncated_levels.clone(),
        report.capped_levels.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense walker's full visit sequence per root — occurrence
    /// vertex lists in discovery order — matches the reference walker.
    #[test]
    fn dense_walk_matches_reference_per_root(
        g in graph_strategy(16, 40),
        k in 3usize..=5,
    ) {
        let k = k.min(g.vertex_count());
        let bits = AdjBits::new(&g);
        let mut walker = DenseEsuWalker::new(&bits, k);
        for root in 0..g.vertex_count() as u32 {
            let (expected, _) = reference_walk(&g, k, root, usize::MAX);
            let (got, aborted) = dense_walk(&mut walker, root, usize::MAX);
            prop_assert!(!aborted);
            prop_assert_eq!(&got, &expected, "root {}", root);
        }
    }

    /// Early abort — the budget mechanism — stops both walkers at the
    /// identical prefix with the identical abort flag, and leaves the
    /// dense walker reusable for the next root.
    #[test]
    fn dense_walk_abort_prefix_matches_reference(
        g in graph_strategy(14, 32),
        k in 3usize..=4,
        limit in 1usize..12,
    ) {
        let k = k.min(g.vertex_count());
        let bits = AdjBits::new(&g);
        let mut walker = DenseEsuWalker::new(&bits, k);
        for root in 0..g.vertex_count() as u32 {
            let (expected, expected_abort) = reference_walk(&g, k, root, limit);
            let (got, aborted) = dense_walk(&mut walker, root, limit);
            prop_assert_eq!(aborted, expected_abort, "root {}", root);
            prop_assert_eq!(&got, &expected, "root {}", root);
            // The walker must be clean for reuse after an abort: a
            // fresh unbounded walk from the same root still matches.
            let (full, _) = reference_walk(&g, k, root, usize::MAX);
            let (again, again_abort) = dense_walk(&mut walker, root, usize::MAX);
            prop_assert!(!again_abort);
            prop_assert_eq!(&again, &full, "reuse after abort, root {}", root);
        }
    }

    /// Growth output is byte-identical across worker counts when the
    /// candidate budget binds at the seed level (census larger than the
    /// budget), at extension levels (mid-range budgets) or never —
    /// classes, stored occurrences, frequencies and the truncation and
    /// cap flags all included.
    #[test]
    fn growth_is_thread_invariant_under_binding_budgets(
        g in graph_strategy(13, 26),
        budget in 1usize..=60,
        cap_classes in any::<bool>(),
    ) {
        let class_cap = if cap_classes { 3 } else { usize::MAX };
        let config = GrowthConfig {
            min_size: 3,
            max_size: 5,
            frequency_threshold: 2,
            max_stored_occurrences: 6,
            max_candidates_per_level: budget,
            max_classes_per_level: class_cap,
            threads: 1,
        };
        let reference = fingerprint(&grow_frequent_subgraphs(&g, &config));
        for threads in [2usize, 4] {
            let run = fingerprint(&grow_frequent_subgraphs(
                &g,
                &GrowthConfig { threads, ..config.clone() },
            ));
            prop_assert_eq!(&run, &reference, "threads {}", threads);
        }
    }
}
