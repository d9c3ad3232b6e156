//! ESU enumeration of connected induced subgraphs (Wernicke's algorithm,
//! the core of FANMOD).
//!
//! ESU enumerates every connected vertex set of size `k` exactly once:
//! for each root `v`, it grows an extension set restricted to vertices
//! with id greater than `v` that are *exclusive* neighbors of the newest
//! subgraph vertex (not adjacent to any earlier subgraph vertex), which
//! yields each set via a unique derivation. This is the exact (Task 1)
//! enumerator used for small motif sizes and for counting subgraph
//! classes in randomized networks.
//!
//! Two walkers implement the identical traversal:
//!
//! * [`EsuWalker`] — the reference walker over sorted adjacency lists.
//!   It allocates one `Vec` per candidate (the cloned remaining-extension
//!   set), which makes it the *oracle*, not the hot path.
//! * [`DenseEsuWalker`] — the dense kernel (DESIGN.md §15): extension
//!   sets live in one flat arena (`extend_from_within`, no per-candidate
//!   allocation), the ESU blocked set is a bitset, and exclusive
//!   neighbors are found by word-wise `row(w) AND NOT blocked AND
//!   above(root)` over [`AdjBits`] rows. Set bits are emitted in
//!   ascending id order — exactly the order the reference walker pushes
//!   filtered sorted-adjacency neighbors — so the visit sequence is
//!   byte-identical to [`EsuWalker`] (pinned by unit tests here and the
//!   `prop_dense_esu` suite).

use ppi_graph::{AdjBits, Graph, VertexId};

/// Enumerate all connected induced size-`k` vertex sets of `g`, invoking
/// `visit` on each (vertices in discovery order, root first). Return
/// `false` from `visit` to abort the enumeration early.
pub fn enumerate_connected_subgraphs(
    g: &Graph,
    k: usize,
    visit: &mut dyn FnMut(&[VertexId]) -> bool,
) {
    if k == 0 || k > g.vertex_count() {
        return;
    }
    let mut walker = EsuWalker::new(g, k);
    for v in 0..g.vertex_count() as u32 {
        if !walker.enumerate_root(v, visit) {
            return;
        }
    }
}

/// Enumerate the connected induced size-`k` vertex sets rooted at `root`
/// only — the ESU partition cell containing the sets whose minimum
/// vertex is `root`. The union over all roots is exactly
/// [`enumerate_connected_subgraphs`]; the partition is what the parallel
/// discovery front-end shards across workers.
pub fn enumerate_connected_subgraphs_rooted(
    g: &Graph,
    k: usize,
    root: u32,
    visit: &mut dyn FnMut(&[VertexId]) -> bool,
) {
    if k == 0 || k > g.vertex_count() || root as usize >= g.vertex_count() {
        return;
    }
    EsuWalker::new(g, k).enumerate_root(root, visit);
}

/// The ESU tree walker shared by exact and rooted (sharded)
/// enumeration.
///
/// The walker is reusable across roots so callers iterating many roots
/// (the parallel seed level) pay for the `blocked` scratch vector once.
pub(crate) struct EsuWalker<'a> {
    g: &'a Graph,
    k: usize,
    root: u32,
    subgraph: Vec<VertexId>,
    /// blocked[u]: u is in V_sub, or has been placed in an extension
    /// set somewhere on the active path (u ∈ N(V_sub) with u > root).
    /// A blocked vertex is cleared by the stack frame that blocked it.
    blocked: Vec<bool>,
}

impl<'a> EsuWalker<'a> {
    /// Walker over `g` for size-`k` sets. `k` must be positive and at
    /// most the vertex count.
    pub(crate) fn new(g: &'a Graph, k: usize) -> Self {
        EsuWalker {
            g,
            k,
            root: 0,
            subgraph: Vec::with_capacity(k),
            blocked: vec![false; g.vertex_count()],
        }
    }

    /// Enumerate the sets rooted at `v`. Returns `false` iff `visit`
    /// aborted the enumeration.
    pub(crate) fn enumerate_root(
        &mut self,
        v: u32,
        visit: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.root = v;
        self.subgraph.push(VertexId(v));
        self.blocked[v as usize] = true;
        let ext: Vec<u32> = self
            .g
            .neighbors(VertexId(v))
            .iter()
            .copied()
            .filter(|&u| u > v)
            .collect();
        for &u in &ext {
            self.blocked[u as usize] = true;
        }
        let keep_going = self.extend(ext, visit);
        for &u in self.g.neighbors(VertexId(v)) {
            if u > v {
                self.blocked[u as usize] = false;
            }
        }
        self.blocked[v as usize] = false;
        self.subgraph.pop();
        keep_going
    }

    /// Process one extension set. All vertices of `ext` are already
    /// blocked by the caller, which is also responsible for unblocking
    /// them after this call returns.
    fn extend(&mut self, ext: Vec<u32>, visit: &mut dyn FnMut(&[VertexId]) -> bool) -> bool {
        if self.subgraph.len() == self.k {
            return visit(&self.subgraph);
        }
        let mut remaining = ext;
        while let Some(w) = remaining.pop() {
            // w stays blocked for the rest of this level: later branches
            // must not re-admit it (it is a neighbor of V_sub).
            let mut new_ext = remaining.clone();
            let mut added: Vec<u32> = Vec::new();
            for &u in self.g.neighbors(VertexId(w)) {
                if u > self.root && !self.blocked[u as usize] {
                    // u is an exclusive neighbor of w: not in V_sub and
                    // not adjacent to V_sub (otherwise it would be
                    // blocked), per the ESU invariant.
                    new_ext.push(u);
                    added.push(u);
                    self.blocked[u as usize] = true;
                }
            }
            self.subgraph.push(VertexId(w));
            let keep_going = self.extend(new_ext, visit);
            self.subgraph.pop();
            for &u in &added {
                self.blocked[u as usize] = false;
            }
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// The dense ESU walker: the same tree as [`EsuWalker`], visited in the
/// same order, over bit-packed adjacency rows and a flat extension
/// arena.
///
/// Per candidate the reference walker clones the remaining-extension
/// `Vec` and re-filters sorted adjacency lists; this walker instead
/// copies the remaining prefix inside one reusable arena
/// (`Vec::extend_from_within` — an amortized-free memcpy) and computes
/// the exclusive-neighbor additions as `row(w) & !blocked & above(root)`
/// word operations. The walker is reusable across roots, so a worker
/// enumerating many roots allocates nothing after warm-up.
pub struct DenseEsuWalker<'a> {
    bits: &'a AdjBits,
    k: usize,
    root: u32,
    subgraph: Vec<VertexId>,
    /// Bitset mirror of [`EsuWalker::blocked`]: subgraph members plus
    /// every vertex placed in an extension set on the active path.
    blocked: Vec<u64>,
    /// Flat stack of extension sets; each recursion frame owns the
    /// suffix it appended and truncates it on exit.
    arena: Vec<u32>,
}

impl<'a> DenseEsuWalker<'a> {
    /// Walker over the packed rows of a graph for size-`k` sets. `k`
    /// must be positive and at most the vertex count.
    pub fn new(bits: &'a AdjBits, k: usize) -> Self {
        DenseEsuWalker {
            bits,
            k,
            root: 0,
            subgraph: Vec::with_capacity(k),
            blocked: vec![0u64; bits.words_per_row()],
            arena: Vec::new(),
        }
    }

    #[inline]
    fn block(&mut self, u: u32) {
        self.blocked[(u / 64) as usize] |= 1u64 << (u % 64);
    }

    #[inline]
    fn unblock(&mut self, u: u32) {
        self.blocked[(u / 64) as usize] &= !(1u64 << (u % 64));
    }

    /// Enumerate the sets rooted at `v`, visiting leaves in exactly the
    /// order [`EsuWalker::enumerate_root`] does. Returns `false` iff
    /// `visit` aborted the enumeration.
    pub fn enumerate_root(
        &mut self,
        v: u32,
        visit: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        debug_assert!(self.arena.is_empty());
        self.root = v;
        self.subgraph.push(VertexId(v));
        self.block(v);
        let bits = self.bits;
        bits.for_each_neighbor_above(v, v, |u| {
            self.arena.push(u);
            self.block(u);
        });
        let keep_going = self.extend(0, visit);
        for i in 0..self.arena.len() {
            self.unblock(self.arena[i]);
        }
        self.unblock(v);
        self.arena.clear();
        self.subgraph.pop();
        keep_going
    }

    /// Process the extension set `arena[start..]`. Mirrors
    /// [`EsuWalker::extend`]: candidates are taken from the back; the
    /// child's extension set is the remaining prefix copied to the top
    /// of the arena plus `w`'s exclusive neighbors in ascending order.
    fn extend(&mut self, start: usize, visit: &mut dyn FnMut(&[VertexId]) -> bool) -> bool {
        if self.subgraph.len() == self.k {
            return visit(&self.subgraph);
        }
        let end = self.arena.len();
        let mut i = end;
        while i > start {
            i -= 1;
            let w = self.arena[i];
            // w stays blocked for the rest of this level, exactly like
            // the popped candidate of the reference walker.
            let child_start = self.arena.len();
            self.arena.extend_from_within(start..i);
            let added_start = self.arena.len();
            // Exclusive neighbors of w: > root, not in V_sub, not
            // adjacent to V_sub, not already in an extension set — all
            // one word-wise AND against the blocked bitset.
            let bits = self.bits;
            let row = bits.row(w);
            for (j, &rw) in row.iter().enumerate().skip((self.root / 64) as usize) {
                let mut word = rw & !self.blocked[j] & AdjBits::above_mask(self.root, j);
                while word != 0 {
                    let u = (j as u32) * 64 + word.trailing_zeros();
                    word &= word - 1;
                    self.arena.push(u);
                    self.blocked[j] |= 1u64 << (u % 64);
                }
            }
            self.subgraph.push(VertexId(w));
            let keep_going = self.extend(child_start, visit);
            self.subgraph.pop();
            for idx in added_start..self.arena.len() {
                let u = self.arena[idx];
                self.blocked[(u / 64) as usize] &= !(1u64 << (u % 64));
            }
            self.arena.truncate(child_start);
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// Count connected induced size-`k` subgraphs.
pub fn count_connected_subgraphs(g: &Graph, k: usize) -> usize {
    let mut count = 0usize;
    enumerate_connected_subgraphs(g, k, &mut |_| {
        count += 1;
        true
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppi_graph::algo::induces_connected;

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

    /// Brute-force reference: all k-subsets that induce a connected graph.
    fn brute_force_count(g: &Graph, k: usize) -> usize {
        let n = g.vertex_count();
        let mut count = 0;
        let mut subset: Vec<usize> = (0..k).collect();
        if k > n {
            return 0;
        }
        loop {
            let verts: Vec<VertexId> = subset.iter().map(|&i| VertexId(i as u32)).collect();
            if induces_connected(g, &verts) {
                count += 1;
            }
            // next k-combination
            let mut i = k;
            loop {
                if i == 0 {
                    return count;
                }
                i -= 1;
                if subset[i] != i + n - k {
                    break;
                }
                if i == 0 {
                    return count;
                }
            }
            subset[i] += 1;
            for j in i + 1..k {
                subset[j] = subset[j - 1] + 1;
            }
        }
    }

    #[test]
    fn complete_graph_counts_match_binomial() {
        let k5 = complete(5);
        assert_eq!(count_connected_subgraphs(&k5, 1), 5);
        assert_eq!(count_connected_subgraphs(&k5, 2), 10);
        assert_eq!(count_connected_subgraphs(&k5, 3), 10);
        assert_eq!(count_connected_subgraphs(&k5, 4), 5);
        assert_eq!(count_connected_subgraphs(&k5, 5), 1);
    }

    #[test]
    fn path_counts() {
        let p6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        for k in 1..=6 {
            assert_eq!(count_connected_subgraphs(&p6, k), 6 - k + 1, "k={k}");
        }
    }

    #[test]
    fn sets_are_distinct_connected_and_match_brute_force() {
        let g = Graph::from_edges(
            7,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 4)],
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
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
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
    fn star_counts() {
        let star = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(count_connected_subgraphs(&star, 2), 5);
        assert_eq!(count_connected_subgraphs(&star, 3), 10);
        assert_eq!(count_connected_subgraphs(&star, 4), 10);
    }

    #[test]
    fn rooted_enumeration_partitions_the_census() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
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
    fn oversized_or_zero_k_yields_nothing() {
        let g = complete(3);
        assert_eq!(count_connected_subgraphs(&g, 4), 0);
        assert_eq!(count_connected_subgraphs(&g, 0), 0);
    }

    #[test]
    fn disconnected_graph_components_enumerated_separately() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_eq!(count_connected_subgraphs(&g, 3), 2);
        assert_eq!(count_connected_subgraphs(&g, 4), 0);
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
    fn dense_walker_matches_reference_order_exactly() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
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
            &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 4), (6, 7)],
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
}
