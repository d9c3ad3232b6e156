//! Reference enumerator for `motif_finder::esu`: the list-walking ESU
//! walker the dense kernel replaced, kept only as a test oracle. It
//! allocates one `Vec` per candidate (the cloned remaining-extension
//! set), which is why the library no longer runs it.
//! `DenseEsuWalker` must visit the same vertex sets in the same order,
//! abort at the same prefix and return the same abort flag.
//!
//! Each suite that includes this file uses a different part of it.
#![allow(dead_code)]

use ppi_graph::algo::induces_connected;
use ppi_graph::{Graph, VertexId};

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
pub struct EsuWalker<'a> {
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
    pub fn new(g: &'a Graph, k: usize) -> Self {
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
    pub fn enumerate_root(&mut self, v: u32, visit: &mut dyn FnMut(&[VertexId]) -> bool) -> bool {
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

/// Count connected induced size-`k` subgraphs with the reference walker.
pub fn count_connected_subgraphs(g: &Graph, k: usize) -> usize {
    let mut count = 0usize;
    enumerate_connected_subgraphs(g, k, &mut |_| {
        count += 1;
        true
    });
    count
}

/// Brute-force reference: all k-subsets that induce a connected graph.
pub fn brute_force_count(g: &Graph, k: usize) -> usize {
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
