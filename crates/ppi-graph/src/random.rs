//! Random graph models and degree-preserving randomization.
//!
//! Motif *uniqueness* (Task 2 of the paper) compares subgraph frequencies
//! in the real network against an ensemble of randomized networks with
//! the **same degree sequence** [Milo et al. 2002]. The standard way to
//! sample that ensemble is repeated double-edge swaps
//! (`{a,b},{c,d} → {a,d},{c,b}`), implemented here, alongside the
//! Erdős–Rényi and Barabási–Albert models used by the synthetic-data
//! generators.

use crate::graph::{Edge, Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Erdős–Rényi `G(n, m)`: `m` distinct edges chosen uniformly among all
/// vertex pairs. Panics if `m` exceeds the number of possible edges.
pub fn erdos_renyi_gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max = n * n.saturating_sub(1) / 2;
    assert!(m <= max, "requested {m} edges but only {max} possible");
    let mut g = Graph::empty(n);
    while g.edge_count() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        g.add_edge(VertexId(u), VertexId(v));
    }
    g
}

/// Barabási–Albert preferential attachment: start from a small clique of
/// `m0 = m_per_step` vertices, then attach each new vertex to
/// `m_per_step` existing vertices chosen proportionally to degree.
/// Produces the heavy-tailed degree distribution characteristic of PPI
/// networks.
pub fn barabasi_albert<R: Rng>(n: usize, m_per_step: usize, rng: &mut R) -> Graph {
    assert!(m_per_step >= 1, "m_per_step must be at least 1");
    assert!(n > m_per_step, "need more vertices than edges per step");
    let mut g = Graph::empty(n);
    // Repeated-endpoint list: sampling an index uniformly is sampling a
    // vertex proportionally to its degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_per_step);

    // Seed clique on the first m0 + 1 vertices so every seed has degree ≥ m0.
    let m0 = m_per_step;
    for i in 0..=m0 as u32 {
        for j in 0..i {
            g.add_edge(VertexId(i), VertexId(j));
            endpoints.push(i);
            endpoints.push(j);
        }
    }

    for v in (m0 + 1)..n {
        let v = v as u32;
        // BTreeSet, not HashSet: `chosen` is iterated below, and its order
        // flows into `endpoints` and the edge list — HashSet order would
        // make the generated graph differ across runs despite the seed.
        let mut chosen = std::collections::BTreeSet::new();
        // Rejection-sample m distinct degree-proportional targets.
        while chosen.len() < m_per_step {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            chosen.insert(t);
        }
        for t in chosen {
            g.add_edge(VertexId(v), VertexId(t));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    g
}

/// Degree-preserving randomization by double-edge swaps.
///
/// Performs `swaps_per_edge × m` attempted swaps. A swap
/// `{a,b},{c,d} → {a,d},{c,b}` is applied only when it creates neither a
/// self-loop nor a parallel edge, which preserves every vertex degree
/// exactly. `swaps_per_edge = 10` is a conventional mixing budget.
pub fn degree_preserving_shuffle<R: Rng>(g: &Graph, swaps_per_edge: usize, rng: &mut R) -> Graph {
    let mut out = g.clone();
    let mut edges: Vec<Edge> = out.edges().collect();
    if edges.len() < 2 {
        return out;
    }
    let attempts = swaps_per_edge * edges.len();
    for _ in 0..attempts {
        let i = rng.gen_range(0..edges.len());
        let j = rng.gen_range(0..edges.len());
        if i == j {
            continue;
        }
        let Edge(a, b) = edges[i];
        let Edge(c, d) = edges[j];
        // Randomly orient the second edge to avoid bias.
        let (c, d) = if rng.gen_bool(0.5) { (c, d) } else { (d, c) };
        // New edges would be {a,d} and {c,b}.
        if a == d || c == b {
            continue;
        }
        if out.has_edge(a, d) || out.has_edge(c, b) {
            continue;
        }
        out.remove_edge(a, b);
        out.remove_edge(c, d);
        out.add_edge(a, d);
        out.add_edge(c, b);
        edges[i] = Edge::new(a, d);
        edges[j] = Edge::new(c, b);
    }
    out
}

/// Uniformly sample `k` distinct vertices.
pub fn sample_vertices<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Vec<VertexId> {
    let mut all: Vec<VertexId> = g.vertices().collect();
    all.shuffle(rng);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_has_requested_size() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = erdos_renyi_gnm(50, 100, &mut rng);
        assert_eq!(g.vertex_count(), 50);
        assert_eq!(g.edge_count(), 100);
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn gnm_rejects_impossible_edge_count() {
        let mut rng = SmallRng::seed_from_u64(1);
        erdos_renyi_gnm(3, 4, &mut rng);
    }

    #[test]
    fn ba_graph_is_connected_and_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = barabasi_albert(500, 2, &mut rng);
        assert_eq!(g.vertex_count(), 500);
        assert!(crate::algo::is_connected(&g));
        let ds = g.degree_sequence();
        // Hubs exist: max degree far above the mean.
        let mean = 2.0 * g.edge_count() as f64 / 500.0;
        assert!(ds[0] as f64 > 3.0 * mean, "max {} mean {}", ds[0], mean);
    }

    #[test]
    fn shuffle_preserves_degree_sequence_exactly() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = barabasi_albert(200, 3, &mut rng);
        let before: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        let shuffled = degree_preserving_shuffle(&g, 10, &mut rng);
        let after: Vec<usize> = shuffled.vertices().map(|v| shuffled.degree(v)).collect();
        assert_eq!(before, after, "per-vertex degrees must be preserved");
        assert_eq!(g.edge_count(), shuffled.edge_count());
    }

    #[test]
    fn shuffle_actually_changes_edges() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = erdos_renyi_gnm(100, 300, &mut rng);
        let shuffled = degree_preserving_shuffle(&g, 10, &mut rng);
        let before: std::collections::HashSet<_> = g.edges().collect();
        let moved = shuffled.edges().filter(|e| !before.contains(e)).count();
        assert!(moved > 100, "only {moved} edges moved");
    }

    #[test]
    fn shuffle_of_tiny_graph_is_identity() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = degree_preserving_shuffle(&g, 10, &mut rng);
        assert_eq!(s.edge_count(), 1);
        assert!(s.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn sample_vertices_distinct() {
        let g = Graph::empty(20);
        let mut rng = SmallRng::seed_from_u64(9);
        let s = sample_vertices(&g, 5, &mut rng);
        assert_eq!(s.len(), 5);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
