//! Reference matcher for `subgraph_match`: the list-walking constrained
//! VF2 search the null-model kernel replaced, kept only as the test
//! oracle of `tests/prop_null_model.rs`. The kernel must return the same `(count, capped, budget_exhausted)` triple, and
//! spend the same number of search nodes, for every target, pattern, cap
//! and node budget.

use ppi_graph::{Graph, VertexId};

/// What the reference search returns: the `CountResult` fields, plus
/// the nodes the target search spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleCount {
    pub count: usize,
    pub capped: bool,
    pub budget_exhausted: bool,
    pub nodes: usize,
}

/// The reference search, with the interchangeable classes `class_of`
/// of `pattern` supplied by the caller.
pub fn oracle_count(
    target: &Graph,
    pattern: &Graph,
    class_of: &[u32],
    cap: usize,
    node_budget: usize,
) -> OracleCount {
    let k = pattern.vertex_count();
    if k == 0 || k > target.vertex_count() || cap == 0 {
        return OracleCount {
            count: 0,
            capped: cap == 0,
            budget_exhausted: false,
            nodes: 0,
        };
    }
    let (dup, dup_exhausted) = {
        let mut st = MatchState::new(pattern, pattern, class_of, usize::MAX / 2, node_budget);
        st.search(0);
        (st.embeddings.max(1), st.budget == 0)
    };
    let embedding_cap = cap.saturating_mul(dup);
    let mut st = MatchState::new(target, pattern, class_of, embedding_cap, node_budget);
    st.search(0);
    OracleCount {
        count: (st.embeddings / dup).min(cap),
        capped: st.embeddings >= embedding_cap,
        budget_exhausted: st.budget == 0 || dup_exhausted,
        nodes: node_budget - st.budget,
    }
}

/// Matching order: highest-degree pattern vertex first, then maximize
/// connections to already placed vertices.
fn matching_order(pattern: &Graph) -> Vec<VertexId> {
    let k = pattern.vertex_count();
    let mut placed = vec![false; k];
    let mut order = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(usize, usize, u32)> = None;
        for v in 0..k as u32 {
            if placed[v as usize] {
                continue;
            }
            let vid = VertexId(v);
            let pn = pattern
                .neighbors(vid)
                .iter()
                .filter(|&&u| placed[u as usize])
                .count();
            let cand = (pn, pattern.degree(vid), v);
            let better = match best {
                None => true,
                Some((bpn, bd, bv)) => {
                    (pn, pattern.degree(vid)) > (bpn, bd)
                        || ((pn, pattern.degree(vid)) == (bpn, bd) && v < bv)
                }
            };
            if better {
                best = Some(cand);
            }
        }
        let (_, _, v) = best.expect("unplaced vertex exists");
        placed[v as usize] = true;
        order.push(VertexId(v));
    }
    order
}

struct MatchState<'a> {
    target: &'a Graph,
    pattern: &'a Graph,
    class_of: &'a [u32],
    order: Vec<VertexId>,
    mapping: Vec<u32>,
    used: Vec<bool>,
    embeddings: usize,
    embedding_cap: usize,
    budget: usize,
}

impl<'a> MatchState<'a> {
    fn new(
        target: &'a Graph,
        pattern: &'a Graph,
        class_of: &'a [u32],
        embedding_cap: usize,
        budget: usize,
    ) -> Self {
        MatchState {
            target,
            pattern,
            class_of,
            order: matching_order(pattern),
            mapping: vec![u32::MAX; pattern.vertex_count()],
            used: vec![false; target.vertex_count()],
            embeddings: 0,
            embedding_cap,
            budget,
        }
    }

    fn search(&mut self, depth: usize) {
        if self.embeddings >= self.embedding_cap || self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if depth == self.order.len() {
            self.embeddings += 1;
            return;
        }
        let p = self.order[depth];
        let anchor = self
            .pattern
            .neighbors(p)
            .iter()
            .find(|&&u| self.mapping[u as usize] != u32::MAX)
            .map(|&u| self.mapping[u as usize]);
        match anchor {
            Some(a) => {
                let candidates = self.target.neighbors(VertexId(a)).to_vec();
                for t in candidates {
                    self.try_candidate(p, t, depth);
                    if self.embeddings >= self.embedding_cap || self.budget == 0 {
                        return;
                    }
                }
            }
            None => {
                for t in 0..self.target.vertex_count() as u32 {
                    self.try_candidate(p, t, depth);
                    if self.embeddings >= self.embedding_cap || self.budget == 0 {
                        return;
                    }
                }
            }
        }
    }

    fn try_candidate(&mut self, p: VertexId, t: u32, depth: usize) {
        if self.used[t as usize] {
            return;
        }
        let tv = VertexId(t);
        if self.target.degree(tv) < self.pattern.degree(p) {
            return;
        }
        // Symmetry breaking: within an interchangeable class, pattern ids
        // must map to ascending target ids.
        let pc = self.class_of[p.index()];
        for (q, &tq) in self.mapping.iter().enumerate() {
            if tq == u32::MAX || self.class_of[q] != pc {
                continue;
            }
            let ok = if (q as u32) < p.0 { tq < t } else { tq > t };
            if !ok {
                return;
            }
        }
        // Induced feasibility against every mapped pattern vertex.
        for (q, &tq) in self.mapping.iter().enumerate() {
            if tq == u32::MAX {
                continue;
            }
            let pat_adj = self.pattern.has_edge(p, VertexId(q as u32));
            let tgt_adj = self.target.has_edge(tv, VertexId(tq));
            if pat_adj != tgt_adj {
                return;
            }
        }
        self.mapping[p.index()] = t;
        self.used[t as usize] = true;
        self.search(depth + 1);
        self.mapping[p.index()] = u32::MAX;
        self.used[t as usize] = false;
    }
}
