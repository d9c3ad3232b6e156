//! Property-based tests for the motif-finding substrate.

#[path = "support/esu_oracle.rs"]
mod esu_oracle;

use esu_oracle::count_connected_subgraphs;
use motif_finder::{
    classify_size_k, count_occurrences, grow_frequent_subgraphs,
    subgraph_match::interchangeable_classes, GrowthConfig, Motif,
};
use ppi_graph::{Graph, VertexId};
use proptest::prelude::*;

fn graph_strategy(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (3..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn classification_conserves_enumeration(g in graph_strategy(12, 24), k in 3usize..5) {
        let total = count_connected_subgraphs(&g, k);
        let classes = classify_size_k(&g, k);
        let class_sum: usize = classes.iter().map(|c| c.frequency).sum();
        prop_assert_eq!(total, class_sum, "classes partition the subgraph census");
        // Patterns are pairwise non-isomorphic.
        for (i, a) in classes.iter().enumerate() {
            for b in classes.iter().skip(i + 1) {
                prop_assert!(!ppi_graph::are_isomorphic(&a.pattern, &b.pattern));
            }
        }
    }

    #[test]
    fn growth_output_is_frequent_and_valid(g in graph_strategy(14, 28)) {
        let config = GrowthConfig {
            min_size: 3,
            max_size: 5,
            frequency_threshold: 2,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        for class in &report.classes {
            prop_assert!(class.frequency >= 2);
            prop_assert!(class.pattern.vertex_count() >= 3);
            prop_assert!(class.pattern.vertex_count() <= 5);
            prop_assert!(ppi_graph::algo::is_connected(&class.pattern));
            let m = Motif {
                pattern: class.pattern.clone(),
                occurrences: class.occurrences.clone(),
                frequency: class.frequency,
                uniqueness: None,
            };
            prop_assert!(m.validate_against(&g), "occurrences align to pattern");
        }
    }

    #[test]
    fn growth_includes_all_frequent_size3_classes(g in graph_strategy(12, 24)) {
        let threshold = 2;
        let config = GrowthConfig {
            min_size: 3,
            max_size: 3,
            frequency_threshold: threshold,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        let reference = classify_size_k(&g, 3);
        for r in reference.iter().filter(|c| c.frequency >= threshold) {
            let found = report
                .classes
                .iter()
                .find(|c| ppi_graph::are_isomorphic(&c.pattern, &r.pattern));
            match found {
                Some(c) => prop_assert_eq!(c.frequency, r.frequency),
                None => prop_assert!(false, "missing frequent class {:?}", r.pattern),
            }
        }
    }

    #[test]
    fn growth_is_identical_across_thread_counts(g in graph_strategy(14, 30)) {
        // The parallel discovery front-end must be byte-identical for
        // any GrowthConfig::threads value: same class patterns, same
        // occurrence lists in the same order, same frequencies, same
        // truncation/capping reports. Exercised both with an unbounded
        // candidate budget and with a small one that forces the
        // exact-cut truncation machinery.
        for budget in [usize::MAX, 25] {
            let base = GrowthConfig {
                min_size: 3,
                max_size: 5,
                frequency_threshold: 2,
                max_stored_occurrences: 6,
                max_candidates_per_level: budget,
                ..Default::default()
            };
            let reference =
                grow_frequent_subgraphs(&g, &GrowthConfig { threads: 1, ..base.clone() });
            for threads in [2usize, 4] {
                let report =
                    grow_frequent_subgraphs(&g, &GrowthConfig { threads, ..base.clone() });
                prop_assert_eq!(&reference.truncated_levels, &report.truncated_levels);
                prop_assert_eq!(&reference.capped_levels, &report.capped_levels);
                prop_assert_eq!(reference.classes.len(), report.classes.len());
                for (a, b) in reference.classes.iter().zip(&report.classes) {
                    prop_assert_eq!(&a.pattern, &b.pattern);
                    prop_assert_eq!(a.frequency, b.frequency);
                    prop_assert_eq!(&a.occurrences, &b.occurrences);
                }
            }
        }
    }

    #[test]
    fn self_count_is_one(g in graph_strategy(8, 14)) {
        // Any connected graph occurs in itself exactly once as a vertex
        // set (when pattern == target).
        if ppi_graph::algo::is_connected(&g) && g.edge_count() > 0 {
            let r = count_occurrences(&g, &g, 10_000_000);
            prop_assert_eq!(r.count, 1);
        }
    }

    #[test]
    fn interchangeable_classes_are_automorphic(g in graph_strategy(8, 14)) {
        let class_of = interchangeable_classes(&g);
        for u in 0..g.vertex_count() {
            for v in u + 1..g.vertex_count() {
                if class_of[u] == class_of[v] {
                    prop_assert!(
                        ppi_graph::automorphism::are_symmetric(
                            &g,
                            VertexId(u as u32),
                            VertexId(v as u32)
                        ),
                        "interchangeable vertices must be symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn occurrence_vertex_sets_are_distinct(g in graph_strategy(10, 20), k in 3usize..5) {
        for class in classify_size_k(&g, k) {
            let mut sets: Vec<Vec<VertexId>> = class
                .occurrences
                .iter()
                .map(|o| o.vertex_set())
                .collect();
            sets.sort();
            let before = sets.len();
            sets.dedup();
            prop_assert_eq!(before, sets.len(), "one occurrence per vertex set");
        }
    }
}
