//! Motif-level label reuse for the incremental pipeline.
//!
//! Labeling is per-motif pure: [`LaMoFinder::label_motifs`] produces,
//! for each motif independently, a function of `(pattern, occurrences,
//! labeler config)` — the SV planes, SO matrices and clustering run
//! over the stored occurrence list only, while `motif_frequency` and
//! `uniqueness` are pass-throughs copied into every emitted
//! [`LabeledMotif`] (see `LaMoFinder::label_one`). An edge delta
//! therefore invalidates a motif's labels **only when its stored
//! occurrence window changes**: a class that merely gained frequency
//! beyond the storage cap reuses its clustering verbatim with the
//! pass-through fields patched.
//!
//! [`LabelCache`] is that memo. It keys on the class's stable identity
//! (the `(size, canonical code)` pair the incremental census reports)
//! and proves cleanliness by *exact* occurrence-list equality — no
//! hashing, so a collision can never smuggle stale labels into the
//! byte-identity guarantee. Dirty motifs are relabeled in one batch
//! call (one SV-plane build, full thread fan-out) and the outputs are
//! spliced back in dictionary order.
//!
//! That verdict is the only one the incremental pipeline makes: beside
//! its output the cache returns, for every reused labeled motif, its
//! index in the previous round's output, and the posting index reuses
//! exactly those segments (`function_prediction::SegmentedIndex`).

use crate::labeled::LabeledMotif;
use crate::lamofinder::LaMoFinder;
use motif_finder::{Motif, Occurrence};
use std::collections::HashMap;

/// Stable class identity: `(size, exact canonical code)`, as computed
/// by the incremental census (`motif_finder::delta::ClassKey`).
pub type MotifKey = (u8, u64);

struct CacheEntry {
    /// The stored occurrence window the labels were computed from.
    occurrences: Vec<Occurrence>,
    /// The motif's labeled output (pass-through fields as labeled).
    labeled: Vec<LabeledMotif>,
    /// Where the last splice put this entry's first labeled motif in
    /// its output; `None` until a splice places it.
    start: Option<usize>,
}

/// What one [`LabelCache::label`] round did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelCacheStats {
    /// Motifs whose labels were reused (occurrence window unchanged).
    pub reused: usize,
    /// Motifs relabeled from scratch (new, or window changed).
    pub relabeled: usize,
}

/// A memo of per-motif labeling results, keyed by stable class
/// identity, valid across edge deltas for one fixed labeler
/// configuration.
#[derive(Default)]
pub struct LabelCache {
    entries: HashMap<MotifKey, CacheEntry>,
}

impl LabelCache {
    /// Fresh, empty cache.
    pub fn new() -> LabelCache {
        LabelCache::default()
    }

    /// Label `motifs` (the full dictionary, in order, with `keys[i]`
    /// the stable identity of `motifs[i]`), reusing cached clusterings
    /// for every motif whose stored occurrence list is unchanged.
    /// Returns exactly what `labeler.label_motifs(motifs)` returns and,
    /// beside it, the reuse map: for each output entry, its index in the
    /// previous round's output if the entry was reused, `None` if its
    /// motif was relabeled.
    ///
    /// The cache is pruned to the current key set afterwards, so
    /// vanished classes do not accumulate. Callers must keep the
    /// labeler configuration fixed across rounds — the cache cannot
    /// observe it.
    pub fn label(
        &mut self,
        labeler: &LaMoFinder<'_>,
        keys: &[MotifKey],
        motifs: &[Motif],
    ) -> (Vec<LabeledMotif>, Vec<Option<usize>>, LabelCacheStats) {
        assert_eq!(keys.len(), motifs.len());
        let dirty: Vec<usize> = (0..motifs.len())
            .filter(|&i| {
                self.entries
                    .get(&keys[i])
                    .map(|e| e.occurrences != motifs[i].occurrences)
                    .unwrap_or(true)
            })
            .collect();

        // One batch call over the dirty motifs: one SV-plane build,
        // full thread fan-out, and per-motif outputs identical to the
        // full-dictionary call (labeling is per-motif pure).
        let dirty_motifs: Vec<Motif> = dirty.iter().map(|&i| motifs[i].clone()).collect();
        let dirty_out = if dirty_motifs.is_empty() {
            // Labeling zero motifs returns zero labels; skipping the
            // call also skips the labeler's per-call kernel setup.
            Vec::new()
        } else {
            labeler.label_motifs(&dirty_motifs)
        };
        // Recover per-motif boundaries: outputs are concatenated in
        // motif order and every labeled motif carries its pattern;
        // patterns are canonical representatives, distinct per class.
        let mut per_motif: Vec<Vec<LabeledMotif>> = dirty.iter().map(|_| Vec::new()).collect();
        let mut di = 0usize;
        for lm in dirty_out {
            while dirty_motifs[di].pattern != lm.pattern {
                di += 1;
            }
            per_motif[di].push(lm);
        }
        for (slot, &i) in dirty.iter().enumerate() {
            self.entries.insert(
                keys[i],
                CacheEntry {
                    occurrences: motifs[i].occurrences.clone(),
                    labeled: std::mem::take(&mut per_motif[slot]),
                    start: None,
                },
            );
        }

        // Splice: every motif reads its (possibly just refreshed)
        // entry, with the pass-through fields patched to the *current*
        // frequency and uniqueness. A reused entry's block maps 1:1 onto
        // where the previous splice put it.
        let stats = LabelCacheStats {
            reused: motifs.len() - dirty.len(),
            relabeled: dirty.len(),
        };
        let mut out = Vec::new();
        let mut reused_from = Vec::new();
        for (i, motif) in motifs.iter().enumerate() {
            let entry = self.entries.get_mut(&keys[i]).expect("every key is cached by now");
            let len = entry.labeled.len();
            match entry.start {
                Some(prev) => reused_from.extend((prev..prev + len).map(Some)),
                None => reused_from.resize(reused_from.len() + len, None),
            }
            entry.start = Some(out.len());
            out.extend(entry.labeled.iter().map(|lm| {
                let mut lm = lm.clone();
                lm.motif_frequency = motif.frequency;
                lm.uniqueness = motif.uniqueness;
                lm
            }));
        }
        self.entries.retain(|k, _| keys.contains(k));
        (out, reused_from, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::ClusteringConfig;
    use crate::lamofinder::LaMoFinderConfig;
    use go_ontology::{
        Annotations, InformativeConfig, Namespace, Ontology, OntologyBuilder, ProteinId, Relation,
    };
    use ppi_graph::{Graph, VertexId};

    /// Tiny world: root → F → {f1, f2}; 12 triangles annotated so that
    /// labeling emits schemes (mirrors the lamofinder unit tests).
    fn world() -> (Ontology, Annotations, Vec<Motif>) {
        let mut ob = OntologyBuilder::new();
        let root = ob.add_term("GO:0", "root", Namespace::BiologicalProcess);
        let f = ob.add_term("GO:1", "F", Namespace::BiologicalProcess);
        let f1 = ob.add_term("GO:2", "f1", Namespace::BiologicalProcess);
        let f2 = ob.add_term("GO:3", "f2", Namespace::BiologicalProcess);
        ob.add_edge(f, root, Relation::IsA);
        ob.add_edge(f1, f, Relation::IsA);
        ob.add_edge(f2, f, Relation::IsA);
        let ontology = ob.build().unwrap();
        let n_tri = 12u32;
        let mut ann = Annotations::new(3 * n_tri as usize + 4, ontology.term_count());
        let mut occurrences = Vec::new();
        for t in 0..n_tri {
            let b = t * 3;
            ann.annotate(ProteinId(b), f1);
            ann.annotate(ProteinId(b + 1), f1);
            ann.annotate(ProteinId(b + 2), f2);
            occurrences.push(Occurrence::new(vec![
                VertexId(b),
                VertexId(b + 1),
                VertexId(b + 2),
            ]));
        }
        // Padding proteins so F itself is informative (threshold 3).
        for p in 0..4 {
            ann.annotate(ProteinId(3 * n_tri + p), f);
        }
        let motif = Motif {
            pattern: Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]),
            occurrences,
            frequency: n_tri as usize,
            uniqueness: None,
        };
        (ontology, ann, vec![motif])
    }

    fn labeler<'a>(ontology: &'a Ontology, ann: &'a Annotations) -> LaMoFinder<'a> {
        LaMoFinder::new(
            ontology,
            ann,
            LaMoFinderConfig {
                informative: InformativeConfig {
                    min_direct: 3,
                    ..Default::default()
                },
                clustering: ClusteringConfig {
                    sigma: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn cache_output_matches_direct_labeling() {
        let (ontology, ann, motifs) = world();
        let lab = labeler(&ontology, &ann);
        let keys = vec![(3u8, 7u64)];
        let mut cache = LabelCache::new();
        let (out1, _, s1) = cache.label(&lab, &keys, &motifs);
        assert_eq!(s1.relabeled, 1);
        let direct = lab.label_motifs(&motifs);
        assert_eq!(out1.len(), direct.len());
        for (a, b) in out1.iter().zip(&direct) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.occurrences, b.occurrences);
            assert_eq!(a.motif_frequency, b.motif_frequency);
        }
        // Second round, unchanged: pure reuse, same bytes.
        let (out2, _, s2) = cache.label(&lab, &keys, &motifs);
        assert_eq!(s2.reused, 1);
        assert_eq!(s2.relabeled, 0);
        assert_eq!(out2.len(), out1.len());
        for (a, b) in out2.iter().zip(&out1) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.occurrences, b.occurrences);
        }
    }

    #[test]
    fn frequency_change_reuses_but_patches_pass_throughs() {
        let (ontology, ann, mut motifs) = world();
        let lab = labeler(&ontology, &ann);
        let keys = vec![(3u8, 7u64)];
        let mut cache = LabelCache::new();
        // First round: a path class over the same window sits ahead of
        // the triangle, so the triangle's block starts past the path's.
        let mut path = motifs[0].clone();
        path.pattern = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let (first, first_from, _) =
            cache.label(&lab, &[(3, 1), keys[0]], &[path, motifs[0].clone()]);
        assert!(first_from.iter().all(Option::is_none), "nothing to reuse yet");
        let tri_start = first.iter().position(|lm| lm.pattern == motifs[0].pattern).unwrap();
        assert!(tri_start > 0, "the path class emits labels");
        // The path class vanishes; the triangle's frequency grows beyond
        // the storage cap: window unchanged.
        motifs[0].frequency = 99;
        motifs[0].uniqueness = Some(0.5);
        let (out, reused_from, stats) = cache.label(&lab, &keys, &motifs);
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.relabeled, 0);
        // Every reused entry maps onto its previous output index.
        let want: Vec<Option<usize>> = (tri_start..first.len()).map(Some).collect();
        assert_eq!(reused_from, want);
        for (lm, from) in out.iter().zip(&reused_from) {
            assert_eq!(lm.scheme, first[from.unwrap()].scheme);
        }
        assert!(out.iter().all(|lm| lm.motif_frequency == 99));
        assert!(out.iter().all(|lm| lm.uniqueness == Some(0.5)));
        // And it still matches direct labeling of the patched motif.
        let direct = lab.label_motifs(&motifs);
        assert_eq!(out.len(), direct.len());
        for (a, b) in out.iter().zip(&direct) {
            assert_eq!(a.motif_frequency, b.motif_frequency);
            assert_eq!(a.uniqueness, b.uniqueness);
            assert_eq!(a.scheme, b.scheme);
        }
    }

    #[test]
    fn window_change_relabels_and_prunes_vanished_keys() {
        let (ontology, ann, mut motifs) = world();
        let lab = labeler(&ontology, &ann);
        let mut cache = LabelCache::new();
        cache.label(&lab, &[(3, 7)], &motifs);
        // Shrink the stored window: the entry must be refused.
        motifs[0].occurrences.pop();
        let (out, reused_from, stats) = cache.label(&lab, &[(3, 7)], &motifs);
        assert_eq!(stats.relabeled, 1);
        assert!(!out.is_empty());
        assert_eq!(reused_from, vec![None; out.len()]);
        let direct = lab.label_motifs(&motifs);
        assert_eq!(out.len(), direct.len());
        // A round over a different key set prunes the old entry.
        let empty: Vec<Motif> = Vec::new();
        cache.label(&lab, &[], &empty);
        assert!(cache.entries.is_empty());
    }
}
