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
//! [`DenseEsuWalker`] is the dense kernel (DESIGN.md §15): extension
//! sets live in one flat arena (`extend_from_within`, no per-candidate
//! allocation), the ESU blocked set is a bitset, and exclusive neighbors
//! are found by word-wise `row(w) AND NOT blocked AND above(root)` over
//! [`AdjBits`] rows. Set bits are emitted in ascending id order — exactly
//! the order a list walker pushes filtered sorted-adjacency neighbors.
//! The list-walking reference walker it replaced lives in
//! `tests/support/esu_oracle.rs`; the `dense_esu_oracle` and
//! `prop_dense_esu` suites pin the two visit sequences as identical.

use ppi_graph::{AdjBits, Graph, VertexId};

/// The dense ESU walker: the same tree as the reference list walker
/// (`tests/support/esu_oracle.rs`), visited in the same order, over
/// bit-packed adjacency rows and a flat extension arena.
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
    /// The ESU blocked set as a bitset: subgraph members plus every
    /// vertex placed in an extension set on the active path.
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
    /// order the reference walker does. Returns `false` iff `visit`
    /// aborted the enumeration.
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

    /// Process the extension set `arena[start..]`. Mirrors the reference
    /// walker's `extend`: candidates are taken from the back; the
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
    if k == 0 || k > g.vertex_count() {
        return 0;
    }
    let bits = AdjBits::new(g);
    let mut walker = DenseEsuWalker::new(&bits, k);
    let mut count = 0usize;
    for v in 0..g.vertex_count() as u32 {
        walker.enumerate_root(v, &mut |_| {
            count += 1;
            true
        });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: u32) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        Graph::from_edges(n as usize, &edges)
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
    fn star_counts() {
        let star = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(count_connected_subgraphs(&star, 2), 5);
        assert_eq!(count_connected_subgraphs(&star, 3), 10);
        assert_eq!(count_connected_subgraphs(&star, 4), 10);
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
}
