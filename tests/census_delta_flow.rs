//! Integration test: a live size-4 census, repaired edge by edge, must
//! publish exactly what the batch engine finds on the same graph.
//!
//! Single-edge inserts into a sparse random graph land repeatedly in
//! the same ESU positions of a few roots, so tag gaps exhaust and roots
//! renumber. Every renumber must keep each class's membership set
//! whole; a lost member shows up here as a published frequency below
//! the batch engine's.

use motif_finder::{grow_frequent_subgraphs, GrowthConfig, IncrementalCensus};
use par_util::RunContext;
use ppi_graph::{random::erdos_renyi_gnm, EdgeDelta, Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const K: usize = 4;

fn uncapped(k: usize) -> GrowthConfig {
    GrowthConfig {
        min_size: k,
        max_size: k,
        frequency_threshold: 1,
        max_stored_occurrences: usize::MAX,
        max_candidates_per_level: usize::MAX,
        max_classes_per_level: usize::MAX,
        threads: 1,
    }
}

/// Apply `deltas` random single-edge inserts to a `G(n, m)` census and
/// compare it with a full batch census after each one.
fn census_tracks_batch_engine(seed: u64, n: usize, m: usize, deltas: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g: Graph = erdos_renyi_gnm(n, m, &mut rng);
    let ctx = RunContext::unbounded();
    let mut census = IncrementalCensus::new(&g, K, usize::MAX, &ctx)
        .expect("an unbounded context never cancels the build");
    for step in 0..deltas {
        let (u, v) = loop {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v && !g.has_edge(VertexId(u), VertexId(v)) {
                break (u, v);
            }
        };
        census
            .apply(&EdgeDelta::new(&[(u, v)], &[]), &ctx)
            .expect("a fresh edge is a valid delta");
        g.add_edge(VertexId(u), VertexId(v));
        assert_eq!(census.graph(), &g, "seed {seed} delta {step}");

        let (ours, capped) = census.publish(1, usize::MAX);
        assert!(!capped);
        let batch = grow_frequent_subgraphs(&g, &uncapped(K)).classes;
        assert_eq!(
            ours.len(),
            batch.len(),
            "seed {seed} delta {step}: class count"
        );
        let mut members = 0usize;
        for (i, (a, b)) in ours.iter().zip(&batch).enumerate() {
            assert_eq!(
                a.pattern, b.pattern,
                "seed {seed} delta {step} class {i}: pattern"
            );
            assert_eq!(
                a.frequency, b.frequency,
                "seed {seed} delta {step} class {i}: frequency"
            );
            assert_eq!(
                a.occurrences, b.occurrences,
                "seed {seed} delta {step} class {i}: occurrences"
            );
            members += a.frequency;
        }
        assert_eq!(
            members,
            census.candidate_count(),
            "seed {seed} delta {step}"
        );
    }
}

#[test]
fn census_survives_renumbering_roots() {
    for seed in [1, 3] {
        census_tracks_batch_engine(seed, 150, 220, 60);
    }
}
