//! Neighbor-joining tree construction (Saitou & Nei; BIONJ's ancestor),
//! the clustering engine behind the PRODISTIN baseline.
//!
//! Builds an unrooted-then-rooted binary join tree from a distance
//! matrix in `O(n³)`. PRODISTIN clusters proteins with BIONJ over
//! Czekanowski-Dice distances; plain NJ preserves the join topology on
//! our synthetic distances (DESIGN.md §5 records the substitution).

/// A join tree over `n_leaves` leaves. Leaves are nodes `0..n_leaves`;
/// internal nodes are appended in join order; the last node is the root.
#[derive(Clone, Debug)]
pub struct NjTree {
    /// Parent of each node (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Children of each node (empty for leaves; 2–3 for internals).
    pub children: Vec<Vec<usize>>,
    /// Number of leaves.
    pub n_leaves: usize,
}

impl NjTree {
    /// Leaf ids in the subtree rooted at `node`.
    pub fn leaves_under(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            if x < self.n_leaves {
                out.push(x);
            }
            stack.extend(self.children[x].iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Undirected tree neighbors of `node` (its parent and children) —
    /// the view that treats the NJ result as the unrooted tree it
    /// conceptually is.
    pub fn tree_neighbors(&self, node: usize) -> Vec<usize> {
        let mut out = self.children[node].clone();
        if let Some(p) = self.parent[node] {
            out.push(p);
        }
        out
    }

    /// The chain of ancestors of `node` (nearest first, root last).
    pub fn ancestors(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.parent[node];
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent[p];
        }
        out
    }
}

/// Build a neighbor-joining tree from a symmetric distance matrix.
///
/// # Panics
///
/// Panics if the matrix is not square or has fewer than 2 rows.
pub fn neighbor_joining(dist: &[Vec<f64>]) -> NjTree {
    let n = dist.len();
    assert!(n >= 2, "need at least two taxa");
    for row in dist {
        assert_eq!(row.len(), n, "distance matrix must be square");
    }

    // Working copy with room for internal nodes.
    let capacity = 2 * n - 1;
    let mut d = vec![vec![0.0f64; capacity]; capacity];
    for i in 0..n {
        for j in 0..n {
            d[i][j] = dist[i][j];
        }
    }
    let mut parent: Vec<Option<usize>> = vec![None; capacity];
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); capacity];
    let mut active: Vec<usize> = (0..n).collect();
    let mut next_node = n;

    while active.len() > 2 {
        let r = active.len() as f64;
        // Row sums over active nodes.
        let sums: Vec<f64> = active
            .iter()
            .map(|&i| active.iter().map(|&k| d[i][k]).sum())
            .collect();
        // Minimize Q(i,j) = (r-2) d(i,j) - R_i - R_j.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for a in 0..active.len() {
            for b in a + 1..active.len() {
                let q = (r - 2.0) * d[active[a]][active[b]] - sums[a] - sums[b];
                if q < best.2 {
                    best = (a, b, q);
                }
            }
        }
        let (ai, bi, _) = best;
        let (i, j) = (active[ai], active[bi]);
        let u = next_node;
        next_node += 1;
        parent[i] = Some(u);
        parent[j] = Some(u);
        children[u] = vec![i, j];
        // Distances from the new node.
        for &k in &active {
            if k == i || k == j {
                continue;
            }
            let duk = 0.5 * (d[i][k] + d[j][k] - d[i][j]);
            d[u][k] = duk.max(0.0);
            d[k][u] = d[u][k];
        }
        // Replace i, j by u in the active list.
        active.retain(|&x| x != i && x != j);
        active.push(u);
    }

    // Join the final pair under the root.
    let root = next_node;
    for &x in &active {
        parent[x] = Some(root);
    }
    children[root] = active.clone();
    parent.truncate(root + 1);
    children.truncate(root + 1);
    parent[root] = None;

    NjTree {
        parent,
        children,
        n_leaves: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight pairs far apart: {0,1} and {2,3}.
    fn two_cluster_matrix() -> Vec<Vec<f64>> {
        (0..4)
            .map(|i| {
                (0..4)
                    .map(|j| match (i == j, (i < 2) == (j < 2)) {
                        (true, _) => 0.0,
                        (false, true) => 0.1,
                        (false, false) => 1.0,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sibling_structure_reflects_clusters() {
        let tree = neighbor_joining(&two_cluster_matrix());
        // 0 and 1 must share their immediate parent; same for 2 and 3.
        assert_eq!(tree.parent[0], tree.parent[1]);
        assert_eq!(tree.parent[2], tree.parent[3]);
        assert_ne!(tree.parent[0], tree.parent[2]);
    }

    #[test]
    fn leaves_under_root_cover_everything() {
        let tree = neighbor_joining(&two_cluster_matrix());
        let root = tree.parent.len() - 1;
        assert_eq!(tree.leaves_under(root), vec![0, 1, 2, 3]);
        assert_eq!(tree.n_leaves, 4);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let tree = neighbor_joining(&two_cluster_matrix());
        let anc = tree.ancestors(0);
        assert!(!anc.is_empty());
        assert_eq!(*anc.last().unwrap(), tree.parent.len() - 1);
        assert_eq!(tree.ancestors(tree.parent.len() - 1), Vec::<usize>::new());
    }

    #[test]
    fn two_taxa_edge_case() {
        let d = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let tree = neighbor_joining(&d);
        assert_eq!(tree.parent[0], Some(2));
        assert_eq!(tree.parent[1], Some(2));
        assert_eq!(tree.children[2], vec![0, 1]);
    }

    #[test]
    fn every_nonroot_has_parent_and_tree_is_consistent() {
        // Random-ish additive distances over 9 taxa.
        let n = 9;
        let d: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            0.0
                        } else {
                            ((i as f64 - j as f64).abs() + 1.0).ln() + 0.3
                        }
                    })
                    .collect()
            })
            .collect();
        let tree = neighbor_joining(&d);
        let root = tree.parent.len() - 1;
        for v in 0..tree.parent.len() {
            if v == root {
                assert!(tree.parent[v].is_none());
            } else {
                let p = tree.parent[v].expect("non-root has parent");
                assert!(tree.children[p].contains(&v));
            }
        }
        assert_eq!(tree.leaves_under(root).len(), n);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_panics() {
        neighbor_joining(&[vec![0.0, 1.0], vec![0.0]]);
    }
}
