//! Occurrence similarity `SO` (Equation 3 of the paper).
//!
//! The similarity of two occurrences of the same motif is the sum, over
//! the motif's symmetric-vertex sets (automorphism orbits), of the best
//! pairing of corresponding vertices by `SV`, normalized by the motif
//! size:
//!
//! ```text
//! SO(oi, oj) = (1/|V|) Σ_orbits max_{pairings} Σ SV(vα, vβ)    (Eq. 3)
//! ```
//!
//! The per-orbit maximization is a maximum-weight assignment, solved
//! exactly in `O(t³)` per orbit (the paper enumerates pairings, which is
//! `O(t!)` — see DESIGN.md §5 on the PIGALE substitution).

use crate::assignment::{max_assignment_flat, AssignScratch};
use go_ontology::{DenseSimPlanes, KernelStats, ShardedCache, TermId, TermSimilarity};
use motif_finder::Occurrence;
use par_util::RunContext;
use ppi_graph::{automorphism_orbits, Graph};
use std::sync::atomic::{AtomicU64, Ordering};

/// Caller-owned scratch for [`OccurrenceScorer::so_scratch`] /
/// [`OccurrenceScorer::so_with_pairing_scratch`]: the flat per-orbit
/// weight buffer and the assignment solver's state. One scratch per
/// worker replaces the `Vec<Vec<f64>>` the old path allocated for every
/// orbit of every occurrence pair.
#[derive(Default)]
pub struct SoScratch {
    w: Vec<f64>,
    assign: Vec<usize>,
    hungarian: AssignScratch,
}

impl SoScratch {
    /// Empty scratch; buffers grow to the largest orbit seen and stay.
    pub fn new() -> Self {
        SoScratch::default()
    }
}

/// Per-motif dense SV plane: the distinct proteins touched by the
/// motif's occurrences get occurrence-local ids, and SV for every
/// protein pair is computed exactly once from the namespace ST plane —
/// the hot path then reads a flat triangle with no locks, no hashing
/// and no `(u32, u32)` keys.
struct SvPlane {
    /// Network vertex id → occurrence-local id (`u32::MAX` = the motif
    /// never touches this protein).
    local_of: Vec<u32>,
    /// Lower triangle incl. diagonal over local ids.
    tri: Vec<f64>,
    /// Distinct proteins covered.
    proteins: usize,
}

impl SvPlane {
    /// SV between network vertices `a` and `b`, if both are covered.
    #[inline]
    fn get(&self, a: u32, b: u32) -> Option<f64> {
        let la = self.local_of[a as usize];
        let lb = self.local_of[b as usize];
        if la == u32::MAX || lb == u32::MAX {
            return None;
        }
        let (i, j) = if la >= lb {
            (la as usize, lb as usize)
        } else {
            (lb as usize, la as usize)
        };
        Some(self.tri[i * (i + 1) / 2 + j])
    }
}

/// Precomputed context for scoring occurrence pairs of one motif.
///
/// `Sync`: the SO matrix rows are computed by parallel workers sharing
/// one scorer, so the SV memo is a [`ShardedCache`] rather than a
/// `RefCell`. With dense planes attached
/// ([`OccurrenceScorer::with_dense`] +
/// [`OccurrenceScorer::precompute_sv_plane`]) the hot path reads the
/// per-motif SV triangle instead and the memo only serves proteins the
/// plane does not cover.
pub struct OccurrenceScorer<'a> {
    sim: &'a TermSimilarity<'a>,
    /// Namespace-filtered annotation lists, indexed by network vertex id.
    terms_by_protein: &'a [Vec<TermId>],
    /// Pattern automorphism orbits as position lists (singletons kept).
    orbits: Vec<Vec<usize>>,
    size: usize,
    /// Protein-pair SV memo — occurrences of one motif overlap heavily
    /// (clique subsets, bipartite subsets), so the same protein pairs
    /// recur across thousands of occurrence pairs.
    sv_cache: ShardedCache<(u32, u32), f64>,
    /// Namespace-wide dense kernels (DESIGN.md §14), when enabled.
    dense: Option<&'a DenseSimPlanes>,
    /// Motif-local SV plane over the occurrence set.
    sv_plane: Option<SvPlane>,
    /// SV queries answered by the memoized oracle (all of them in a
    /// memoized run; plane misses in a dense run).
    oracle_calls: AtomicU64,
}

impl<'a> OccurrenceScorer<'a> {
    /// Build a scorer for `pattern`, reading annotations from
    /// `terms_by_protein` (one entry per network vertex, already
    /// restricted to the namespace being labeled).
    pub fn new(
        pattern: &Graph,
        sim: &'a TermSimilarity<'a>,
        terms_by_protein: &'a [Vec<TermId>],
    ) -> Self {
        let orbits = automorphism_orbits(pattern)
            .into_iter()
            .map(|o| o.into_iter().map(|v| v.index()).collect())
            .collect();
        Self::from_orbits(orbits, pattern.vertex_count(), sim, terms_by_protein)
    }

    /// Build a scorer from explicit symmetric-vertex sets (position
    /// lists), for callers that already hold the pattern's orbits, such
    /// as the clustering's [`crate::MotifSymmetry`].
    pub fn from_orbits(
        orbits: Vec<Vec<usize>>,
        size: usize,
        sim: &'a TermSimilarity<'a>,
        terms_by_protein: &'a [Vec<TermId>],
    ) -> Self {
        debug_assert_eq!(orbits.iter().map(Vec::len).sum::<usize>(), size);
        OccurrenceScorer {
            sim,
            terms_by_protein,
            orbits,
            size,
            sv_cache: ShardedCache::new(),
            dense: None,
            sv_plane: None,
            oracle_calls: AtomicU64::new(0),
        }
    }

    /// Attach the namespace-wide dense kernels (builder style). Call
    /// [`OccurrenceScorer::precompute_sv_plane`] afterwards to build the
    /// motif-local SV plane; until then queries still go to the oracle.
    pub fn with_dense(mut self, planes: &'a DenseSimPlanes) -> Self {
        self.dense = Some(planes);
        self
    }

    /// Build the motif-local SV plane over the distinct proteins touched
    /// by `occurrences`, reading the dense ST plane (a no-op without
    /// [`OccurrenceScorer::with_dense`]). Each protein pair costs one
    /// work tick; when `run` trips mid-build the partial plane is
    /// discarded (the caller abandons the motif anyway) and queries
    /// would fall back to the oracle.
    ///
    /// Cell values are byte-identical to the memoized path: both sides
    /// canonicalize a pair to (min protein, max protein) before the SV
    /// product, so orientation can never change the FP factor order.
    // lamolint::allow(alloc-in-hot-loop): one-shot per-motif plane build —
    // tri is preallocated at exact triangular capacity and becomes the
    // SvPlane's owned storage, so a caller-owned scratch could not outlive it
    pub fn precompute_sv_plane(&mut self, occurrences: &[Occurrence], run: &RunContext) {
        let Some(planes) = self.dense else {
            return;
        };
        let mut touched = vec![false; self.terms_by_protein.len()];
        for occ in occurrences {
            for v in &occ.vertices {
                touched[v.index()] = true;
            }
        }
        let mut local_of = vec![u32::MAX; self.terms_by_protein.len()];
        let mut vertex_ids: Vec<u32> = Vec::new();
        for (p, &hit) in touched.iter().enumerate() {
            if hit {
                local_of[p] = vertex_ids.len() as u32;
                vertex_ids.push(p as u32);
            }
        }
        let m = vertex_ids.len();
        let mut tri = Vec::with_capacity(m * (m + 1) / 2);
        for i in 0..m {
            if run.should_stop() {
                return;
            }
            for j in 0..=i {
                // `vertex_ids` ascends, so (j, i) is already the
                // canonical (min, max) protein orientation.
                tri.push(planes.sv_proteins(vertex_ids[j] as usize, vertex_ids[i] as usize));
            }
            run.tick((i + 1) as u64);
        }
        planes.record_sv_plane(m, tri.len());
        self.sv_plane = Some(SvPlane {
            local_of,
            tri,
            proteins: m,
        });
    }

    /// The symmetric vertex sets used for pairing (positions).
    pub fn orbits(&self) -> &[Vec<usize>] {
        &self.orbits
    }

    /// Vertex similarity `SV` between position `pa` of `a` and `pb` of
    /// `b`: a flat plane read when the motif SV plane covers the pair,
    /// else memoized per protein pair via the oracle. Both paths
    /// canonicalize to (min protein, max protein) before computing, so
    /// the value cannot depend on argument orientation or on which
    /// worker computes it first.
    pub fn sv(&self, a: &Occurrence, pa: usize, b: &Occurrence, pb: usize) -> f64 {
        let (va, vb) = (a.vertices[pa].0, b.vertices[pb].0);
        let (lo, hi) = if va <= vb { (va, vb) } else { (vb, va) };
        if let Some(plane) = &self.sv_plane {
            if let Some(v) = plane.get(lo, hi) {
                return v;
            }
        }
        match self.dense {
            Some(planes) => planes.record_oracle_fallback(),
            None => {
                self.oracle_calls.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.sv_cache.get_or_insert_with((lo, hi), || {
            self.sim
                .sv(&self.terms_by_protein[lo as usize], &self.terms_by_protein[hi as usize])
        })
    }

    /// Best pairing weight of one orbit: `SV` for a singleton, the
    /// maximum-weight assignment over the flat `t × t` similarity block
    /// otherwise (closed form for `t == 2`).
    fn orbit_best(&self, a: &Occurrence, b: &Occurrence, orbit: &[usize], s: &mut SoScratch) -> f64 {
        if orbit.len() == 1 {
            return self.sv(a, orbit[0], b, orbit[0]);
        }
        let t = orbit.len();
        s.w.clear();
        for &x in orbit {
            for &y in orbit {
                s.w.push(self.sv(a, x, b, y));
            }
        }
        max_assignment_flat(&s.w, t, t, &mut s.hungarian, &mut s.assign)
    }

    /// Occurrence similarity `SO(a, b)` per Equation 3.
    pub fn so(&self, a: &Occurrence, b: &Occurrence) -> f64 {
        let mut scratch = SoScratch::new();
        self.so_scratch(a, b, &mut scratch)
    }

    /// [`OccurrenceScorer::so`] with caller-owned scratch — the form the
    /// SO-matrix workers use so no per-pair buffers are allocated.
    pub fn so_scratch(&self, a: &Occurrence, b: &Occurrence, scratch: &mut SoScratch) -> f64 {
        debug_assert_eq!(a.len(), self.size);
        debug_assert_eq!(b.len(), self.size);
        if self.size == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for orbit in &self.orbits {
            total += self.orbit_best(a, b, orbit, scratch);
        }
        total / self.size as f64
    }

    /// Like [`OccurrenceScorer::so`], but also returns the chosen
    /// position pairing `pairing[pos_in_a] = pos_in_b` (identity outside
    /// symmetric sets).
    pub fn so_with_pairing(&self, a: &Occurrence, b: &Occurrence) -> (f64, Vec<usize>) {
        let mut scratch = SoScratch::new();
        self.so_with_pairing_scratch(a, b, &mut scratch)
    }

    /// [`OccurrenceScorer::so_with_pairing`] with caller-owned scratch.
    pub fn so_with_pairing_scratch(
        &self,
        a: &Occurrence,
        b: &Occurrence,
        scratch: &mut SoScratch,
    ) -> (f64, Vec<usize>) {
        let mut pairing: Vec<usize> = (0..self.size).collect();
        if self.size == 0 {
            return (0.0, pairing);
        }
        let mut total = 0.0;
        for orbit in &self.orbits {
            let best = self.orbit_best(a, b, orbit, scratch);
            if orbit.len() > 1 {
                for (xi, &yi) in scratch.assign.iter().enumerate() {
                    pairing[orbit[xi]] = orbit[yi];
                }
            }
            total += best;
        }
        (total / self.size as f64, pairing)
    }

    /// Diagnostics for this scorer: its motif SV plane (if built) and
    /// the oracle-call counter. When dense kernels are attached the same
    /// numbers are also accumulated into the shared
    /// [`DenseSimPlanes::stats`].
    pub fn kernel_stats(&self) -> KernelStats {
        let mut stats = KernelStats {
            sv_oracle_calls: self.oracle_calls.load(Ordering::Relaxed),
            ..KernelStats::default()
        };
        if let Some(plane) = &self.sv_plane {
            stats.sv_planes = 1;
            stats.sv_plane_proteins = plane.proteins;
            stats.sv_plane_pairs = plane.tri.len();
            stats.sv_plane_bytes = plane.tri.len() * std::mem::size_of::<f64>();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::{
        Annotations, Namespace, Ontology, OntologyBuilder, ProteinId, Relation, TermWeights,
    };
    use ppi_graph::VertexId;

    /// Ontology: root -> a -> {x, y}; root -> b.
    fn ontology() -> Ontology {
        let mut ob = OntologyBuilder::new();
        let root = ob.add_term("GO:0", "root", Namespace::BiologicalProcess);
        let a = ob.add_term("GO:1", "a", Namespace::BiologicalProcess);
        let b = ob.add_term("GO:2", "b", Namespace::BiologicalProcess);
        let x = ob.add_term("GO:3", "x", Namespace::BiologicalProcess);
        let y = ob.add_term("GO:4", "y", Namespace::BiologicalProcess);
        ob.add_edge(a, root, Relation::IsA);
        ob.add_edge(b, root, Relation::IsA);
        ob.add_edge(x, a, Relation::IsA);
        ob.add_edge(y, a, Relation::IsA);
        ob.build().unwrap()
    }

    fn weights(o: &Ontology) -> TermWeights {
        let mut ann = Annotations::new(10, o.term_count());
        let (x, y, b) = (TermId(3), TermId(4), TermId(2));
        for p in 0..3 {
            ann.annotate(ProteinId(p), x);
        }
        for p in 3..6 {
            ann.annotate(ProteinId(p), y);
        }
        for p in 6..10 {
            ann.annotate(ProteinId(p), b);
        }
        TermWeights::compute(o, &ann)
    }

    /// terms_by_protein for 6 network vertices:
    /// 0:{x} 1:{b} 2:{y} 3:{b} 4:{} 5:{x,b}
    fn protein_terms() -> Vec<Vec<TermId>> {
        vec![
            vec![TermId(3)],
            vec![TermId(2)],
            vec![TermId(4)],
            vec![TermId(2)],
            vec![],
            vec![TermId(3), TermId(2)],
        ]
    }

    #[test]
    fn identical_occurrences_score_one_when_fully_annotated() {
        let o = ontology();
        let w = weights(&o);
        let sim = TermSimilarity::new(&o, &w);
        let terms = protein_terms();
        // Pattern: path3 (orbits {0,2},{1}).
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let scorer = OccurrenceScorer::new(&pattern, &sim, &terms);
        let occ = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert!((scorer.so(&occ, &occ) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_pairing_recovers_swapped_endpoints() {
        let o = ontology();
        let w = weights(&o);
        let sim = TermSimilarity::new(&o, &w);
        let terms = protein_terms();
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let scorer = OccurrenceScorer::new(&pattern, &sim, &terms);
        // a = (x, b, y); b = (y, b, x): endpoints swapped. The orbit
        // pairing must map 0↔2 and score as if aligned.
        let oa = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        let ob = Occurrence::new(vec![VertexId(2), VertexId(1), VertexId(0)]);
        let (so, pairing) = scorer.so_with_pairing(&oa, &ob);
        assert!((so - 1.0).abs() < 1e-12, "so = {so}");
        assert_eq!(pairing, vec![2, 1, 0]);
    }

    #[test]
    fn fixed_alignment_scores_lower_than_symmetric() {
        let o = ontology();
        let w = weights(&o);
        let sim = TermSimilarity::new(&o, &w);
        let terms = protein_terms();
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let scorer = OccurrenceScorer::new(&pattern, &sim, &terms);
        let oa = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        let ob = Occurrence::new(vec![VertexId(2), VertexId(1), VertexId(0)]);
        // Identity alignment: SV(x,y) twice (siblings, < 1) + SV(b,b)=1.
        let fixed = (scorer.sv(&oa, 0, &ob, 0) + scorer.sv(&oa, 1, &ob, 1)
            + scorer.sv(&oa, 2, &ob, 2))
            / 3.0;
        assert!(fixed < scorer.so(&oa, &ob));
    }

    #[test]
    fn unannotated_positions_drag_score_down() {
        let o = ontology();
        let w = weights(&o);
        let sim = TermSimilarity::new(&o, &w);
        let terms = protein_terms();
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let scorer = OccurrenceScorer::new(&pattern, &sim, &terms);
        let oa = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        // Vertex 4 is unannotated.
        let ob = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(4)]);
        let so = scorer.so(&oa, &ob);
        assert!(so < 1.0 && so > 0.0);
    }

    #[test]
    fn asymmetric_pattern_uses_identity_orbits() {
        let o = ontology();
        let w = weights(&o);
        let sim = TermSimilarity::new(&o, &w);
        let terms = protein_terms();
        // Pattern: triangle with a tail (no symmetry between tail and
        // triangle vertices; orbits of the two non-attachment triangle
        // vertices are symmetric).
        let pattern = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let scorer = OccurrenceScorer::new(&pattern, &sim, &terms);
        assert_eq!(scorer.orbits().len(), 3);
        let occ = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(5)]);
        assert!((scorer.so(&occ, &occ) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scorer_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<OccurrenceScorer<'_>>();
        assert_sync::<TermSimilarity<'_>>();
    }

    #[test]
    fn so_is_symmetric() {
        let o = ontology();
        let w = weights(&o);
        let sim = TermSimilarity::new(&o, &w);
        let terms = protein_terms();
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let scorer = OccurrenceScorer::new(&pattern, &sim, &terms);
        let oa = Occurrence::new(vec![VertexId(0), VertexId(1), VertexId(2)]);
        let ob = Occurrence::new(vec![VertexId(5), VertexId(3), VertexId(2)]);
        assert!((scorer.so(&oa, &ob) - scorer.so(&ob, &oa)).abs() < 1e-12);
    }
}
