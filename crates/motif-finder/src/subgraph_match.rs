//! Induced subgraph matching of a small pattern inside a large network.
//!
//! Used by uniqueness testing: "how often does this motif occur in a
//! randomized network?". Occurrences are distinct vertex *sets*, so raw
//! embedding counts must be divided by the pattern's symmetry. Naively
//! that factor is `|Aut(pattern)|`, which is astronomically large for the
//! patterns PPI networks actually produce (cliques from protein
//! complexes, bipartite hub–target structures): `|Aut(K12)| = 12!`.
//!
//! We instead break symmetry over *interchangeable vertex classes*:
//! pattern vertices with identical neighborhoods (clique members, star
//! leaves, bipartite sides) are forced to map to ascending target ids.
//! Each occurrence set is then counted exactly `D` times, where `D` is
//! the number of automorphisms respecting the same ordering constraint —
//! computed by running the constrained matcher pattern-against-pattern.
//! For cliques and complete bipartite patterns `D = 1`; for cycles
//! `D = |Aut|/1` stays tiny. Orbit–stabilizer guarantees uniformity: the
//! intra-class permutations act freely on every embedding, and exactly
//! one member of each coset is ascending.
//!
//! **Dense kernel** (DESIGN.md §15.1). The null model counts hundreds of
//! patterns in each randomized network, so the per-pattern work (classes,
//! matching order, duplication factor) is compiled once into a
//! [`PatternPlan`], and the per-network work (packed adjacency, degree
//! masks) once into a [`NullNet`]. A search node then builds its
//! candidate set word-parallel, as the AND of the anchor's row, the
//! adjacency or non-adjacency rows of every mapped vertex, the class
//! order range and the degree mask. When a mapped neighbour's sorted
//! list is shorter than a bitset row has words, it walks the shortest
//! such list with O(1) bit tests instead. Both walk the same candidates
//! in ascending order, which is the order of the list-walking VF2
//! search this kernel replaced. So the search tree, the node budget
//! spent and every [`CountResult`] are identical to that search, which
//! the `prop_null_model` suite checks against a copy of it.

use ppi_graph::{AdjBits, Graph, VertexId};

/// Result of a capped counting run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountResult {
    /// Number of distinct occurrence sets found (saturates at the cap).
    pub count: usize,
    /// The count reached the requested cap (so the true count is ≥ it).
    pub capped: bool,
    /// The search exhausted its node budget; `count` is a lower bound.
    pub budget_exhausted: bool,
}

/// Count distinct vertex sets of `target` that induce a subgraph
/// isomorphic to `pattern`, stopping once `cap` sets are confirmed or
/// `node_budget` search steps are spent.
///
/// Builds a [`PatternPlan`] and a [`NullNet`] per call; callers that
/// count many patterns in one network, or one pattern in many, should
/// build those once and call [`PatternPlan::count`].
pub fn count_occurrences_capped(
    target: &Graph,
    pattern: &Graph,
    cap: usize,
    node_budget: usize,
) -> CountResult {
    let plan = PatternPlan::new(pattern, node_budget);
    let net = NullNet::new(target, plan.max_degree());
    plan.count(&net, cap).0
}

/// Exact occurrence-set count (no cap; budget still applies).
pub fn count_occurrences(target: &Graph, pattern: &Graph, node_budget: usize) -> CountResult {
    count_occurrences_capped(target, pattern, usize::MAX / 2, node_budget)
}

/// Group pattern vertices into interchangeable classes: `u ~ v` iff
/// `N(u) \ {v} == N(v) \ {u}` (swapping them is an automorphism
/// regardless of the rest of the graph). Returns `class_of[v]`.
pub fn interchangeable_classes(pattern: &Graph) -> Vec<u32> {
    let k = pattern.vertex_count();
    let mut class_of: Vec<u32> = (0..k as u32).collect();
    // Pairwise interchangeability is not transitive in general, and the
    // counting argument needs every transposition inside a class to be an
    // automorphism — so membership requires interchangeability with
    // every existing member.
    for v in 1..k as u32 {
        for c in 0..v {
            if class_of[c as usize] != c {
                continue; // not a class representative
            }
            let all_ok = (0..v)
                .filter(|&m| class_of[m as usize] == c)
                .all(|m| interchangeable(pattern, VertexId(m), VertexId(v)));
            if all_ok {
                class_of[v as usize] = c;
                break;
            }
        }
    }
    class_of
}

fn interchangeable(g: &Graph, u: VertexId, v: VertexId) -> bool {
    if g.degree(u) != g.degree(v) {
        return false;
    }
    let nu: Vec<u32> = g.neighbors(u).iter().copied().filter(|&x| x != v.0).collect();
    let nv: Vec<u32> = g.neighbors(v).iter().copied().filter(|&x| x != u.0).collect();
    nu == nv
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

/// A target network prepared for many pattern searches: its packed
/// adjacency rows plus one "degree ≥ d" bitset per pattern degree `d`.
/// The null model builds one per randomized network and shares it across
/// every pattern counted there.
pub struct NullNet<'g> {
    graph: &'g Graph,
    bits: AdjBits,
    /// Row `d` (`words_per_row` words): the vertices of degree ≥ `d`,
    /// for `d` in `0..=max_degree`. Row 0 is "every vertex".
    degree_rows: Vec<u64>,
    max_degree: usize,
}

impl<'g> NullNet<'g> {
    /// Prepare `graph` for patterns whose vertex degrees are at most
    /// `max_degree`.
    pub fn new(graph: &'g Graph, max_degree: usize) -> NullNet<'g> {
        let bits = AdjBits::new(graph);
        let wpr = bits.words_per_row();
        let mut degree_rows = vec![0u64; (max_degree + 1) * wpr];
        for v in graph.vertices() {
            let word = v.index() / 64;
            let bit = 1u64 << (v.0 % 64);
            for d in 0..=graph.degree(v).min(max_degree) {
                degree_rows[d * wpr + word] |= bit;
            }
        }
        NullNet {
            graph,
            bits,
            degree_rows,
            max_degree,
        }
    }

    #[inline]
    fn degree_row(&self, d: usize) -> &[u64] {
        let wpr = self.bits.words_per_row();
        &self.degree_rows[d * wpr..][..wpr]
    }

    #[inline]
    fn has_degree(&self, t: u32, d: usize) -> bool {
        self.degree_row(d)[t as usize / 64] >> (t % 64) & 1 == 1
    }
}

/// One depth of a compiled matching order. Earlier vertices are named by
/// the depth at which they were mapped.
#[derive(Clone, Debug)]
struct Level {
    /// Depth of the anchor: the lowest-id pattern neighbour mapped
    /// earlier. Candidates are the anchor image's neighbours; without
    /// an anchor, every vertex.
    anchor: Option<usize>,
    /// Pattern degree: candidates need at least this target degree.
    degree: usize,
    /// Earlier depths adjacent to this vertex, the anchor excluded.
    adjacent: Vec<usize>,
    /// Earlier depths not adjacent to this vertex.
    non_adjacent: Vec<usize>,
    /// Earlier depths of the same class with a lower pattern id: the
    /// candidate must lie above their images.
    after: Vec<usize>,
    /// Earlier depths of the same class with a higher pattern id: the
    /// candidate must lie below their images.
    before: Vec<usize>,
}

/// A pattern compiled for repeated counting: matching order, per-depth
/// constraints and the duplication factor, all computed once.
#[derive(Clone, Debug)]
pub struct PatternPlan {
    levels: Vec<Level>,
    max_degree: usize,
    node_budget: usize,
    /// Constrained automorphism count `D`.
    dup: usize,
    /// The self-search computing `dup` exhausted its budget.
    dup_exhausted: bool,
}

impl PatternPlan {
    /// Compile `pattern` for searches of at most `node_budget` nodes.
    /// The duplication factor runs under the same budget.
    pub fn new(pattern: &Graph, node_budget: usize) -> PatternPlan {
        let k = pattern.vertex_count();
        let class_of = interchangeable_classes(pattern);
        let order = matching_order(pattern);
        let mut depth_of = vec![0usize; k];
        for (d, p) in order.iter().enumerate() {
            depth_of[p.index()] = d;
        }
        let levels = order
            .iter()
            .enumerate()
            .map(|(d, &p)| {
                let anchor = pattern
                    .neighbors(p)
                    .iter()
                    .map(|&u| depth_of[u as usize])
                    .find(|&j| j < d);
                let mut level = Level {
                    anchor,
                    degree: pattern.degree(p),
                    adjacent: Vec::new(),
                    non_adjacent: Vec::new(),
                    after: Vec::new(),
                    before: Vec::new(),
                };
                for (j, &q) in order[..d].iter().enumerate() {
                    if pattern.has_edge(p, q) {
                        if Some(j) != anchor {
                            level.adjacent.push(j);
                        }
                    } else {
                        level.non_adjacent.push(j);
                    }
                    if class_of[q.index()] == class_of[p.index()] {
                        if q.0 < p.0 {
                            level.after.push(j);
                        } else {
                            level.before.push(j);
                        }
                    }
                }
                level
            })
            .collect();
        let max_degree = pattern.vertices().map(|v| pattern.degree(v)).max().unwrap_or(0);
        let mut plan = PatternPlan {
            levels,
            max_degree,
            node_budget,
            dup: 1,
            dup_exhausted: false,
        };
        if k > 0 {
            // Duplication factor: the constrained search of the pattern
            // in itself. If even this exhausts (a pathological symmetric
            // pattern beyond the interchangeable model), every count
            // reports budget exhaustion conservatively.
            let own = NullNet::new(pattern, max_degree);
            let mut search = PlanSearch::new(&own, &plan.levels, usize::MAX / 2, node_budget);
            search.search(0);
            plan.dup = search.embeddings.max(1);
            plan.dup_exhausted = search.budget == 0;
        }
        plan
    }

    /// Largest pattern degree: a [`NullNet`] counted against must have
    /// been built with at least this `max_degree`.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Count occurrence sets in `net`, stopping at `cap` sets or at the
    /// plan's node budget. Also returns the search nodes spent.
    pub fn count(&self, net: &NullNet<'_>, cap: usize) -> (CountResult, usize) {
        let k = self.levels.len();
        if k == 0 || k > net.graph.vertex_count() || cap == 0 {
            let r = CountResult {
                count: 0,
                capped: cap == 0,
                budget_exhausted: false,
            };
            return (r, 0);
        }
        assert!(
            self.max_degree <= net.max_degree,
            "NullNet degree masks must cover every pattern degree"
        );
        let embedding_cap = cap.saturating_mul(self.dup);
        let mut search = PlanSearch::new(net, &self.levels, embedding_cap, self.node_budget);
        search.search(0);
        let r = CountResult {
            count: (search.embeddings / self.dup).min(cap),
            capped: search.embeddings >= embedding_cap,
            budget_exhausted: search.budget == 0 || self.dup_exhausted,
        };
        (r, self.node_budget - search.budget)
    }
}

/// One capped, budgeted search of a compiled pattern in a network.
///
/// Each `search` call is one node of the constrained VF2 tree and costs
/// one budget unit. A node's candidates are walked in ascending id; the
/// last depth's candidates are leaves and are counted in bulk, which is
/// what visiting them one by one would spend and find.
struct PlanSearch<'a, 'g> {
    net: &'a NullNet<'g>,
    levels: &'a [Level],
    /// Target image of the pattern vertex mapped at each depth.
    images: Vec<u32>,
    embeddings: usize,
    embedding_cap: usize,
    budget: usize,
}

impl<'a, 'g> PlanSearch<'a, 'g> {
    fn new(
        net: &'a NullNet<'g>,
        levels: &'a [Level],
        embedding_cap: usize,
        budget: usize,
    ) -> PlanSearch<'a, 'g> {
        PlanSearch {
            net,
            levels,
            images: vec![u32::MAX; levels.len()],
            embeddings: 0,
            embedding_cap,
            budget,
        }
    }

    #[inline]
    fn stopped(&self) -> bool {
        self.embeddings >= self.embedding_cap || self.budget == 0
    }

    fn search(&mut self, depth: usize) {
        if self.stopped() {
            return;
        }
        self.budget -= 1;
        let net = self.net;
        let level = &self.levels[depth];
        // Class order: candidates lie strictly between the images of
        // the earlier class members.
        let lo = level
            .after
            .iter()
            .map(|&j| self.images[j] + 1)
            .max()
            .unwrap_or(0);
        let hi = level
            .before
            .iter()
            .map(|&j| self.images[j])
            .min()
            .unwrap_or(net.graph.vertex_count() as u32);
        if lo >= hi {
            return;
        }
        let Some(a) = level.anchor.map(|j| self.images[j]) else {
            self.walk_words(depth, net.degree_row(level.degree), lo, hi);
            return;
        };
        // Every mapped neighbour's sorted list holds the same candidates
        // in the same ascending order: walk the shortest if it has fewer
        // entries than a row has words (DESIGN.md §15.1).
        let shortest = level.adjacent.iter().map(|&q| self.images[q]).fold(a, |best, v| {
            if net.graph.degree(VertexId(v)) < net.graph.degree(VertexId(best)) {
                v
            } else {
                best
            }
        });
        let list = net.graph.neighbors(VertexId(shortest));
        if list.len() < net.bits.words_per_row() {
            self.walk_list(depth, a, list, lo, hi);
        } else {
            self.walk_words(depth, net.bits.row(a), lo, hi);
        }
    }

    /// Sparse branch: the candidates are the members of `list` (a
    /// mapped neighbour's sorted adjacency) in `lo..hi` that pass
    /// [`Self::feasible`] and are adjacent to the anchor image `a`.
    fn walk_list(&mut self, depth: usize, a: u32, list: &[u32], lo: u32, hi: u32) {
        let level = &self.levels[depth];
        let leaf = depth + 1 == self.levels.len();
        let limit = self.leaf_limit();
        let mut leaves = 0;
        for &t in &list[list.partition_point(|&t| t < lo)..] {
            if t >= hi || (leaf && leaves == limit) {
                break;
            }
            if !(self.net.bits.contains(a, t) && self.feasible(level, t)) {
                continue;
            }
            if leaf {
                leaves += 1;
                continue;
            }
            self.images[depth] = t;
            self.search(depth + 1);
            if self.stopped() {
                return;
            }
        }
        self.take_leaves(leaves);
    }

    /// Dense branch: the candidates are the set bits of
    /// [`Self::candidate_word`] over `base` (the anchor's row, or the
    /// degree mask without an anchor), word by word in ascending order.
    fn walk_words(&mut self, depth: usize, base: &[u64], lo: u32, hi: u32) {
        let level = &self.levels[depth];
        let leaf = depth + 1 == self.levels.len();
        let limit = self.leaf_limit();
        let mut leaves = 0;
        for j in (lo / 64) as usize..=((hi - 1) / 64) as usize {
            let mut word = self.candidate_word(level, base, j, lo, hi);
            if leaf {
                leaves += word.count_ones() as usize;
                if leaves >= limit {
                    break;
                }
                continue;
            }
            while word != 0 {
                let t = j as u32 * 64 + word.trailing_zeros();
                word &= word - 1;
                self.images[depth] = t;
                self.search(depth + 1);
                if self.stopped() {
                    return;
                }
            }
        }
        self.take_leaves(leaves);
    }

    /// Leaves a node may still visit: each costs one budget unit and
    /// adds one embedding.
    #[inline]
    fn leaf_limit(&self) -> usize {
        self.budget.min(self.embedding_cap - self.embeddings)
    }

    /// Count `found` leaf candidates of the current node as visited, up
    /// to [`Self::leaf_limit`]: what visiting them one by one spends.
    #[inline]
    fn take_leaves(&mut self, found: usize) {
        let take = found.min(self.leaf_limit());
        self.budget -= take;
        self.embeddings += take;
    }

    /// Word `j` of the candidate set: base row ∩ degree mask ∩ class
    /// range ∩ row(image) for adjacent mapped vertices ∩ ¬row(image)
    /// minus the image itself for non-adjacent ones. Images of adjacent
    /// vertices drop out because rows carry no self-loops.
    #[inline]
    fn candidate_word(&self, level: &Level, base: &[u64], j: usize, lo: u32, hi: u32) -> u64 {
        let bits = &self.net.bits;
        let mut word = base[j] & self.net.degree_row(level.degree)[j] & range_mask(j, lo, hi);
        for &q in &level.adjacent {
            word &= bits.row(self.images[q])[j];
        }
        for &q in &level.non_adjacent {
            let tq = self.images[q];
            word &= !bits.row(tq)[j];
            if tq as usize / 64 == j {
                word &= !(1u64 << (tq % 64));
            }
        }
        word
    }

    /// The per-vertex form of [`Self::candidate_word`] past the anchor
    /// and the class range: degree, adjacency to every other mapped
    /// neighbour, and non-adjacency to (and distinctness from) every
    /// mapped non-neighbour.
    #[inline]
    fn feasible(&self, level: &Level, t: u32) -> bool {
        let bits = &self.net.bits;
        self.net.has_degree(t, level.degree)
            && level
                .adjacent
                .iter()
                .all(|&q| bits.contains(self.images[q], t))
            && level.non_adjacent.iter().all(|&q| {
                let tq = self.images[q];
                tq != t && !bits.contains(tq, t)
            })
    }
}

/// Bits of word `j` whose ids lie in `lo..hi` (`j` overlaps the range).
#[inline]
fn range_mask(j: usize, lo: u32, hi: u32) -> u64 {
    let first = j as u32 * 64;
    let low = if lo > first { u64::MAX << (lo - first) } else { u64::MAX };
    let high = if hi - first < 64 {
        (1u64 << (hi - first)) - 1
    } else {
        u64::MAX
    };
    low & high
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

    fn triangle() -> Graph {
        complete(3)
    }

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    /// Complete bipartite K_{a,b}: hubs 0..a, targets a..a+b.
    fn bipartite(a: u32, b: u32) -> Graph {
        let mut edges = Vec::new();
        for i in 0..a {
            for j in a..a + b {
                edges.push((i, j));
            }
        }
        Graph::from_edges((a + b) as usize, &edges)
    }

    #[test]
    fn counts_triangles_in_k4() {
        let k4 = complete(4);
        let r = count_occurrences(&k4, &triangle(), 1_000_000);
        assert_eq!(r.count, 4);
        assert!(!r.budget_exhausted);
    }

    #[test]
    fn induced_semantics_exclude_supersets() {
        let k4 = complete(4);
        let r = count_occurrences(&k4, &path3(), 1_000_000);
        assert_eq!(r.count, 0);
    }

    #[test]
    fn counts_match_esu_classification() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        let g = ppi_graph::random::erdos_renyi_gnm(30, 60, &mut rng);
        for k in 3..=4 {
            let classes = crate::classes::classify_size_k(&g, k);
            for class in classes {
                let r = count_occurrences(&g, &class.pattern, 10_000_000);
                assert_eq!(
                    r.count, class.frequency,
                    "pattern {:?} freq mismatch",
                    class.pattern
                );
            }
        }
    }

    #[test]
    fn interchangeable_classes_of_standard_graphs() {
        // Clique: one class. Star: center alone, leaves together.
        // Path3: endpoints are interchangeable (both neighbor the middle).
        assert_eq!(interchangeable_classes(&complete(5)), vec![0, 0, 0, 0, 0]);
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(interchangeable_classes(&star), vec![0, 1, 1, 1]);
        assert_eq!(interchangeable_classes(&path3()), vec![0, 1, 0]);
        // C5: no two vertices share neighborhoods.
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(interchangeable_classes(&c5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn large_clique_counts_without_factorial_blowup() {
        // K12 inside K13: C(13,12) = 13 sets. |Aut(K12)| = 12! would be
        // hopeless to enumerate; symmetry breaking makes D = 1.
        let k13 = complete(13);
        let k12 = complete(12);
        let r = count_occurrences(&k13, &k12, 2_000_000);
        assert_eq!(r.count, 13);
        assert!(!r.budget_exhausted);
    }

    #[test]
    fn large_bipartite_counts_without_factorial_blowup() {
        // K_{2,10} inside K_{2,12}: choose 10 of 12 targets = 66 sets
        // (the hub pair is forced: targets have degree 2, hubs 12).
        let big = bipartite(2, 12);
        let pat = bipartite(2, 10);
        let r = count_occurrences(&big, &pat, 5_000_000);
        assert_eq!(r.count, 66);
        assert!(!r.budget_exhausted);
    }

    #[test]
    fn cap_stops_early() {
        let star = Graph::from_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]);
        let r = count_occurrences_capped(&star, &path3(), 2, 1_000_000);
        assert_eq!(r.count, 2);
        assert!(r.capped);
    }

    #[test]
    fn budget_exhaustion_reports_lower_bound() {
        let star = Graph::from_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7)]);
        let r = count_occurrences_capped(&star, &path3(), 1000, 5);
        assert!(r.budget_exhausted);
        assert!(r.count < 21);
    }

    #[test]
    fn zero_cap_and_oversized_pattern() {
        let g = triangle();
        let r = count_occurrences_capped(&g, &path3(), 0, 100);
        assert_eq!(r.count, 0);
        let big = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r2 = count_occurrences(&g, &big, 100);
        assert_eq!(r2.count, 0);
    }

    #[test]
    fn symmetric_pattern_counts_sets_not_embeddings() {
        let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = count_occurrences(&c4, &c4, 1_000_000);
        assert_eq!(r.count, 1);
        // Cycle symmetry is NOT interchangeable-class symmetry: the
        // duplication factor path still yields exact set counts.
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let r6 = count_occurrences(&c6, &c6, 1_000_000);
        assert_eq!(r6.count, 1);
    }

    #[test]
    fn paths_in_cycle() {
        // C6 contains 6 induced paths of 4 vertices.
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let p4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let r = count_occurrences(&c6, &p4, 1_000_000);
        assert_eq!(r.count, 6);
    }
}
