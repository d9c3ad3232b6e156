//! Segment-level incremental maintenance of the [`PostingIndex`].
//!
//! The posting index is motif-major in everything it derives — one
//! count plane and one posting run per motif, the *segments* that
//! [`PostingIndex::build`] assembles — but stores postings
//! protein-major, so a naive "patch the dirty motif" would still
//! re-walk every occurrence to rebuild the interleave.
//! [`SegmentedIndex`] keeps the segments alive between deltas and
//! decides only which old segment each motif takes: a motif the caller
//! proves clean reuses its plane slab and posting run bit-for-bit, and
//! the rest are segmented and assembled by the same code as a
//! from-scratch build, so the output is byte-identical to one (pinned by
//! the equality tests in this module and the delta proptests).
//!
//! LMS (Eq. 4) rows are always recomputed — they are `O(motifs)` and
//! normalized by a per-size maximum, so one dirty motif can move every
//! same-size row. What survives a sign flip is decided per segment: a
//! plane is a function of `(occurrences, functions, sign(lms))`, so a
//! reused segment is only valid while its motif's zero-strength status
//! is unchanged; the updater checks this internally.

use crate::lms::lms_scores;
use crate::postings::{segment_motifs, PostingIndex, Segment};
use lamofinder::LabeledMotif;

/// A [`PostingIndex`] factory that remembers per-motif segments so an
/// edge delta only recomputes the dirty ones.
pub struct SegmentedIndex {
    n_categories: usize,
    protein_count: usize,
    lms: Vec<f64>,
    segments: Vec<Segment>,
}

/// What one [`SegmentedIndex::update`] recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexDeltaStats {
    /// Segments (plane slab + posting run) copied from the previous
    /// dictionary unchanged.
    pub segments_reused: usize,
    /// Segments recomputed (dirty motifs, new motifs, or zero-strength
    /// flips).
    pub segments_rebuilt: usize,
}

impl SegmentedIndex {
    /// Build the initial index and remember its segments.
    pub fn build(
        motifs: &[LabeledMotif],
        functions: &[Vec<usize>],
        n_categories: usize,
    ) -> (SegmentedIndex, PostingIndex) {
        let mut state = SegmentedIndex {
            n_categories,
            protein_count: functions.len(),
            lms: Vec::new(),
            segments: Vec::new(),
        };
        let reuse = vec![None; motifs.len()];
        let (index, _) = state.update(motifs, functions, &reuse);
        (state, index)
    }

    /// Rebuild the index for a revised dictionary. `reuse[i] = Some(j)`
    /// asserts that motif `i` has the same size and the same stored
    /// occurrence list as motif `j` of the previous dictionary (the
    /// caller's cleanliness proof — frequency and uniqueness may
    /// differ; they do not reach the segments); `None` forces a
    /// recompute. `functions` must be the same table across deltas
    /// (annotations do not change under an edge delta).
    pub fn update(
        &mut self,
        motifs: &[LabeledMotif],
        functions: &[Vec<usize>],
        reuse: &[Option<usize>],
    ) -> (PostingIndex, IndexDeltaStats) {
        assert_eq!(motifs.len(), reuse.len());
        assert_eq!(functions.len(), self.protein_count, "annotation table is delta-invariant");
        let lms = lms_scores(motifs);
        let old_lms = std::mem::take(&mut self.lms);
        let mut old_segments: Vec<Option<Segment>> =
            std::mem::take(&mut self.segments).into_iter().map(Some).collect();
        let mut segments_reused = 0;
        self.segments = segment_motifs(motifs, &lms, functions, self.n_categories, |mi| {
            // A segment survives only if its zero-strength status does
            // too — the plane of a flipped motif changes shape.
            let j = reuse[mi]?;
            let was_zero = *old_lms.get(j)? <= 0.0;
            if was_zero != (lms[mi] <= 0.0) {
                return None;
            }
            let segment = old_segments.get_mut(j)?.take();
            segments_reused += usize::from(segment.is_some());
            segment
        });
        let stats = IndexDeltaStats {
            segments_reused,
            segments_rebuilt: motifs.len() - segments_reused,
        };
        self.lms = lms.clone();
        (PostingIndex::assemble(lms, &self.segments, functions, self.n_categories), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::Namespace;
    use lamofinder::{LabelingScheme, VertexLabel};
    use motif_finder::Occurrence;
    use ppi_graph::{Graph, VertexId};

    /// Deterministic toy dictionary over `proteins` proteins.
    fn motif(seed: u64, size: usize, n_occ: usize, proteins: u32) -> LabeledMotif {
        let edges: Vec<(u32, u32)> = (0..size as u32 - 1).map(|i| (i, i + 1)).collect();
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as u32
        };
        LabeledMotif {
            pattern: Graph::from_edges(size, &edges),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); size]),
            occurrences: (0..n_occ)
                .map(|_| {
                    Occurrence::new((0..size).map(|_| VertexId(next(proteins))).collect())
                })
                .collect(),
            motif_frequency: n_occ,
            uniqueness: None,
        }
    }

    fn functions(proteins: usize, n_categories: usize) -> Vec<Vec<usize>> {
        (0..proteins)
            .map(|p| {
                let mut f: Vec<usize> = vec![p % n_categories];
                if p % 3 == 0 {
                    f.push((p / 3) % n_categories);
                }
                f.sort_unstable();
                f.dedup();
                f
            })
            .collect()
    }

    #[test]
    fn initial_build_matches_batch_build() {
        let motifs: Vec<LabeledMotif> =
            (0..6).map(|i| motif(i, 3 + (i as usize % 2), 5, 20)).collect();
        let funcs = functions(20, 4);
        let (_, ours) = SegmentedIndex::build(&motifs, &funcs, 4);
        assert_eq!(ours, PostingIndex::build(&motifs, &funcs, 4));
    }

    #[test]
    fn update_with_reuse_matches_batch_build() {
        let funcs = functions(25, 5);
        let mut motifs: Vec<LabeledMotif> =
            (0..8).map(|i| motif(i, 3, 4 + i as usize % 3, 25)).collect();
        let (mut state, _) = SegmentedIndex::build(&motifs, &funcs, 5);

        // Revision: motif 2 gains an occurrence (dirty), motif 5 is
        // dropped, a new motif appears at the end; the rest are clean.
        motifs[2].occurrences.push(Occurrence::new(vec![
            VertexId(1),
            VertexId(2),
            VertexId(3),
        ]));
        motifs[2].motif_frequency += 1;
        motifs.remove(5);
        motifs.push(motif(99, 4, 6, 25));
        let reuse: Vec<Option<usize>> = (0..motifs.len())
            .map(|i| match i {
                2 => None,                   // dirty
                7 => None,                   // new
                i if i < 5 => Some(i),       // clean, same position
                i => Some(i + 1),            // clean, shifted past the drop
            })
            .collect();
        let (ours, stats) = state.update(&motifs, &funcs, &reuse);
        assert_eq!(ours, PostingIndex::build(&motifs, &funcs, 5));
        assert_eq!(stats.segments_reused, 6);
        assert_eq!(stats.segments_rebuilt, 2);
    }

    #[test]
    fn zero_strength_flip_forces_recompute() {
        let funcs = functions(20, 4);
        let mut motifs: Vec<LabeledMotif> = (0..4).map(|i| motif(i, 3, 5, 20)).collect();
        // Motif 1 starts zero-strength (uniqueness 0 ⇒ raw = 0).
        motifs[1].uniqueness = Some(0.0);
        let (mut state, initial) = SegmentedIndex::build(&motifs, &funcs, 4);
        assert_eq!(initial, PostingIndex::build(&motifs, &funcs, 4));
        assert!(initial.lms[1] <= 0.0);

        // Same occurrences, but the motif regains strength: the claimed
        // clean reuse must be refused internally and the plane rebuilt.
        motifs[1].uniqueness = Some(1.0);
        let reuse: Vec<Option<usize>> = (0..4).map(Some).collect();
        let (ours, stats) = state.update(&motifs, &funcs, &reuse);
        assert_eq!(ours, PostingIndex::build(&motifs, &funcs, 4));
        assert!(ours.lms[1] > 0.0);
        assert_eq!(stats.segments_rebuilt, 1);
        assert_eq!(stats.segments_reused, 3);
    }

    #[test]
    fn repeated_updates_stay_identical() {
        let funcs = functions(30, 6);
        let mut motifs: Vec<LabeledMotif> =
            (0..5).map(|i| motif(i * 7 + 1, 3 + i as usize % 3, 6, 30)).collect();
        let (mut state, _) = SegmentedIndex::build(&motifs, &funcs, 6);
        for round in 0..4u64 {
            // Rotate: one motif replaced per round, others clean.
            let victim = (round as usize * 2) % motifs.len();
            motifs[victim] = motif(100 + round, 3, 5 + round as usize, 30);
            let reuse: Vec<Option<usize>> = (0..motifs.len())
                .map(|i| if i == victim { None } else { Some(i) })
                .collect();
            let (ours, _) = state.update(&motifs, &funcs, &reuse);
            assert_eq!(ours, PostingIndex::build(&motifs, &funcs, 6));
        }
    }
}
