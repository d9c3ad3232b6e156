//! The dense ESU walker and the class collector against the
//! list-walking reference walker (`support/esu_oracle.rs`).
//!
//! * The reference walker itself: its sets are distinct, connected and
//!   as many as a brute-force subset scan finds; rooted enumeration
//!   partitions the census; an abort stops it at once.
//! * `DenseEsuWalker` visits the reference walker's leaf sequence root
//!   by root, aborts at the same prefix, is reusable after an abort and
//!   handles rows that span several 64-bit words.
//! * `count_connected_subgraphs` (dense) agrees with the brute-force
//!   count on random graphs.
//! * `ClassCollector` fed the reference enumeration caps stored
//!   occurrences but not the frequency, and reuses a shared code cache.

#[path = "support/esu_oracle.rs"]
mod esu_oracle;

use esu_oracle::{
    brute_force_count, enumerate_connected_subgraphs, enumerate_connected_subgraphs_rooted,
    EsuWalker,
};
use motif_finder::{count_connected_subgraphs, CanonCodeCache, ClassCollector, DenseEsuWalker};
use ppi_graph::algo::induces_connected;
use ppi_graph::{AdjBits, Graph, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn complete(n: u32) -> Graph {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            edges.push((i, j));
        }
    }
    Graph::from_edges(n as usize, &edges)
}

fn collect_sets(g: &Graph, k: usize) -> Vec<Vec<VertexId>> {
    let mut sets = Vec::new();
    enumerate_connected_subgraphs(g, k, &mut |s| {
        let mut v = s.to_vec();
        v.sort_unstable();
        sets.push(v);
        true
    });
    sets
}

/// Leaf sequence of the reference walker for one root, in visit
/// order (vertices in discovery order, untruncated).
fn reference_sequence(g: &Graph, k: usize, root: u32) -> Vec<Vec<VertexId>> {
    let mut seq = Vec::new();
    EsuWalker::new(g, k).enumerate_root(root, &mut |s| {
        seq.push(s.to_vec());
        true
    });
    seq
}

#[test]
fn sets_are_distinct_connected_and_match_brute_force() {
    let g = Graph::from_edges(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 4),
        ],
    );
    for k in 2..=6 {
        let sets = collect_sets(&g, k);
        let mut seen = std::collections::HashSet::new();
        for s in &sets {
            assert_eq!(s.len(), k);
            assert!(seen.insert(s.clone()), "duplicate set {s:?}");
            assert!(induces_connected(&g, s), "disconnected set {s:?}");
        }
        assert_eq!(sets.len(), brute_force_count(&g, k), "k={k}");
    }
}

#[test]
fn random_graphs_match_brute_force() {
    for seed in 0..5u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = ppi_graph::random::erdos_renyi_gnm(12, 18, &mut rng);
        for k in 3..=5 {
            assert_eq!(
                count_connected_subgraphs(&g, k),
                brute_force_count(&g, k),
                "seed={seed} k={k}"
            );
        }
    }
}

#[test]
fn rooted_enumeration_partitions_the_census() {
    let mut rng = SmallRng::seed_from_u64(11);
    let g = ppi_graph::random::erdos_renyi_gnm(16, 30, &mut rng);
    for k in 2..=5 {
        let whole = collect_sets(&g, k);
        let mut sharded = Vec::new();
        for root in 0..g.vertex_count() as u32 {
            enumerate_connected_subgraphs_rooted(&g, k, root, &mut |s| {
                assert_eq!(s[0], VertexId(root), "root is reported first");
                let mut v = s.to_vec();
                v.sort_unstable();
                sharded.push(v);
                true
            });
        }
        let mut whole_sorted = whole.clone();
        whole_sorted.sort();
        sharded.sort();
        assert_eq!(sharded, whole_sorted, "k={k}");
    }
}

#[test]
fn early_abort_stops_enumeration() {
    let k5 = complete(5);
    let mut seen = 0;
    enumerate_connected_subgraphs(&k5, 3, &mut |_| {
        seen += 1;
        seen < 4
    });
    assert_eq!(seen, 4);
}

#[test]
fn dense_walker_matches_reference_order_exactly() {
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = ppi_graph::random::erdos_renyi_gnm(70, 160, &mut rng);
        let bits = AdjBits::new(&g);
        for k in 2..=5 {
            let mut walker = DenseEsuWalker::new(&bits, k);
            for root in 0..g.vertex_count() as u32 {
                let mut dense = Vec::new();
                walker.enumerate_root(root, &mut |s| {
                    dense.push(s.to_vec());
                    true
                });
                assert_eq!(
                    dense,
                    reference_sequence(&g, k, root),
                    "seed={seed} k={k} root={root}"
                );
            }
        }
    }
}

#[test]
fn dense_walker_early_abort_matches_reference_prefix() {
    let g = Graph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 4),
            (6, 7),
        ],
    );
    let bits = AdjBits::new(&g);
    let full = reference_sequence(&g, 4, 0);
    assert!(full.len() > 2);
    for cut in 0..full.len() {
        let mut walker = DenseEsuWalker::new(&bits, 4);
        let mut seen = Vec::new();
        let aborted = !walker.enumerate_root(0, &mut |s| {
            seen.push(s.to_vec());
            seen.len() <= cut
        });
        assert!(aborted, "cut={cut}");
        assert_eq!(seen, full[..cut + 1], "cut={cut}");
    }
}

#[test]
fn dense_walker_is_reusable_across_roots_after_abort() {
    // An aborted root must leave no blocked bits or arena residue
    // behind; the next root's enumeration must be complete.
    let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (1, 3), (3, 4), (4, 5)]);
    let bits = AdjBits::new(&g);
    let mut walker = DenseEsuWalker::new(&bits, 3);
    walker.enumerate_root(0, &mut |_| false);
    for root in 0..g.vertex_count() as u32 {
        let mut dense = Vec::new();
        walker.enumerate_root(root, &mut |s| {
            dense.push(s.to_vec());
            true
        });
        assert_eq!(dense, reference_sequence(&g, 3, root), "root={root}");
    }
}

#[test]
fn dense_walker_spans_word_boundaries() {
    // A star centered past vertex 64 exercises multi-word rows and
    // the above-mask at both sides of a 64-bit boundary.
    let mut edges = vec![(60u32, 70u32)];
    for leaf in [61u32, 63, 64, 65, 127, 128] {
        edges.push((70, leaf));
    }
    let g = Graph::from_edges(130, &edges);
    let bits = AdjBits::new(&g);
    for k in 2..=4 {
        let mut walker = DenseEsuWalker::new(&bits, k);
        for root in 0..g.vertex_count() as u32 {
            let mut dense = Vec::new();
            walker.enumerate_root(root, &mut |s| {
                dense.push(s.to_vec());
                true
            });
            assert_eq!(dense, reference_sequence(&g, k, root), "k={k} root={root}");
        }
    }
}

#[test]
fn cap_truncates_storage_but_not_frequency() {
    // Star with 6 leaves: C(6,2)=15 path-of-3 occurrences.
    let g = Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
    let mut collector = ClassCollector::new(&g, 4);
    enumerate_connected_subgraphs(&g, 3, &mut |verts| {
        collector.add(verts);
        true
    });
    let classes = collector.into_classes();
    assert_eq!(classes.len(), 1);
    assert_eq!(classes[0].frequency, 15);
    assert_eq!(classes[0].occurrences.len(), 4);
}

#[test]
fn shared_cache_is_reused_across_collectors() {
    let g = Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]);
    let cache = CanonCodeCache::default();
    for _ in 0..2 {
        let mut collector = ClassCollector::with_cache(&g, usize::MAX, &cache);
        enumerate_connected_subgraphs(&g, 3, &mut |verts| {
            collector.add(verts);
            true
        });
        let classes = collector.into_classes();
        assert_eq!(classes.len(), 2);
    }
    // Triangle bits + one labeled-path shape per distinct packed form.
    assert!(cache.len() >= 2);
}
