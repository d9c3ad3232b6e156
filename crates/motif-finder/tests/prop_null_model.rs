//! Equivalence of the null-model kernel (DESIGN.md §15.1) with the
//! list-walking VF2 search it replaced.
//!
//! The uniqueness test keeps a pattern only when its capped, budgeted
//! count in randomized networks stays at or below its real count, so a
//! budget-bound search must stop at exactly the same node as before.
//! These properties check that on random G(n, m) targets with up to 150
//! vertices, for cliques, stars, complete bipartite graphs, cycles,
//! paths and random connected patterns of 3–8 vertices, and on one
//! fixed denser target:
//!
//! * every `CountResult` field and the nodes spent equal the oracle's,
//!   for caps {1, real + 1, unbounded} × budgets {1, 7, 50, 5000,
//!   unbounded}, where binding budgets are the point;
//! * the `count_occurrences_capped` wrapper agrees as well.
//!
//! A search node walks its shortest mapped-neighbour list when that list
//! has fewer entries than a row has words, and takes the word filter
//! otherwise. The target's shape forces each branch: with at most 64
//! vertices (one word per row) every anchored node takes the word
//! filter, and padded with isolated vertices until a row has more words
//! than any vertex has neighbours, every anchored node walks a list.
//! Targets of 65–150 vertices mix the two.

#[path = "support/vf2_oracle.rs"]
mod vf2_oracle;

use motif_finder::subgraph_match::interchangeable_classes;
use motif_finder::{count_occurrences_capped, NullNet, PatternPlan};
use ppi_graph::{AdjBits, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vf2_oracle::oracle_count;

const UNBOUNDED: usize = usize::MAX / 2;

/// A `k`-vertex pattern from family `family`: clique, star, complete
/// bipartite, cycle, path, or a random connected graph.
fn pattern(family: usize, k: usize, rng: &mut SmallRng) -> Graph {
    let k32 = k as u32;
    let mut edges = Vec::new();
    match family {
        0 => {
            for i in 0..k32 {
                edges.extend((i + 1..k32).map(|j| (i, j)));
            }
        }
        1 => edges.extend((1..k32).map(|j| (0, j))),
        2 => {
            let a = 2 + (k32 - 2) / 3;
            for i in 0..a {
                edges.extend((a..k32).map(|j| (i, j)));
            }
        }
        3 => edges.extend((0..k32).map(|i| (i, (i + 1) % k32))),
        4 => edges.extend((1..k32).map(|i| (i - 1, i))),
        _ => {
            // A random spanning tree plus a few chords keeps it connected.
            edges.extend((1..k32).map(|i| (rng.gen_range(0..i), i)));
            for _ in 0..rng.gen_range(0..k) {
                edges.push((rng.gen_range(0..k32), rng.gen_range(0..k32)));
            }
        }
    }
    Graph::from_edges(k, &edges)
}

/// Which search branch a target's shape forces on anchored nodes.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Up to 64 vertices: the word filter everywhere.
    OneWord,
    /// As drawn: 20–150 vertices, the two branches mixed.
    Mixed,
    /// Padded with isolated vertices: the list walk everywhere.
    Padded,
}

/// `g` laid out as `layout` asks (`OneWord` targets are drawn small).
fn laid_out(g: Graph, layout: Layout) -> Graph {
    let Layout::Padded = layout else {
        return g;
    };
    let max_degree = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
    let n = g.vertex_count().max(64 * (max_degree + 1));
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.0 .0, e.1 .0)).collect();
    let padded = Graph::from_edges(n, &edges);
    assert!(AdjBits::new(&padded).words_per_row() > max_degree);
    padded
}

/// Check one (target, pattern) pair over the whole cap × budget grid.
fn check_pair(target: &Graph, pattern: &Graph) -> Result<(), TestCaseError> {
    let classes = interchangeable_classes(pattern);
    // `real` may be a lower bound; the unbounded-budget row only runs
    // where the 5000-node search finished, so it stays cheap.
    let probe = oracle_count(target, pattern, &classes, UNBOUNDED, 5_000);
    let real = probe.count;
    for budget in [1, 7, 50, 5_000, UNBOUNDED] {
        if budget == UNBOUNDED && probe.budget_exhausted {
            continue;
        }
        let plan = PatternPlan::new(pattern, budget);
        for cap in [1, real + 1, UNBOUNDED] {
            let want = oracle_count(target, pattern, &classes, cap, budget);
            let want_result = (want.count, want.capped, want.budget_exhausted);
            let (got, nodes) = plan.count(&NullNet::new(target, plan.max_degree()), cap);
            prop_assert_eq!(
                ((got.count, got.capped, got.budget_exhausted), nodes),
                (want_result, want.nodes),
                "pattern {:?} budget {} cap {}",
                pattern,
                budget,
                cap
            );
            let wrapped = count_occurrences_capped(target, pattern, cap, budget);
            prop_assert_eq!(
                (wrapped.count, wrapped.capped, wrapped.budget_exhausted),
                want_result
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random target, one pattern of each family at a random size.
    #[test]
    fn dense_matcher_equals_reference(
        seed in any::<u64>(),
        n in 20usize..=150,
        density in 1usize..=4,
        k in 3usize..=8,
        layout in 0usize..3,
    ) {
        let layout = [Layout::OneWord, Layout::Mixed, Layout::Padded][layout];
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = match layout {
            Layout::OneWord => 20 + n % 45,
            _ => n,
        };
        let m = n * density * 3 / 4;
        let target = laid_out(ppi_graph::random::erdos_renyi_gnm(n, m, &mut rng), layout);
        for family in 0..6 {
            let p = pattern(family, k, &mut rng);
            check_pair(&target, &p)?;
        }
    }
}

/// A fixed G(90, 400) target (mean degree ~9, rows of two words, so
/// most anchored nodes take the word filter) with small patterns of
/// every family, where searches branch widely and budgets bind often;
/// then the same target padded, so every anchored node walks a list.
#[test]
fn fixed_dense_target_equals_reference() {
    let mut rng = SmallRng::seed_from_u64(5);
    let target = ppi_graph::random::erdos_renyi_gnm(90, 400, &mut rng);
    let patterns: Vec<Graph> = (3..=5)
        .flat_map(|k| (0..6).map(move |family| (family, k)))
        .map(|(family, k)| pattern(family, k, &mut rng))
        .collect();
    for layout in [Layout::Mixed, Layout::Padded] {
        let target = laid_out(target.clone(), layout);
        for p in &patterns {
            check_pair(&target, p).unwrap_or_else(|e| panic!("{layout:?}: {e}"));
        }
    }
}
