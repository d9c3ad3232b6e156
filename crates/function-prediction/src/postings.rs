//! Posting-list form of the Eq. 5 predictor — the O(postings) merge
//! the serving layer compiles its per-protein answers with (DESIGN.md
//! §16).
//!
//! Eq. 5 read literally answers "which functions does protein `p`
//! have?" by re-walking **every** occurrence of **every** labeled motif,
//! even though `p` participates in only a handful. [`PostingIndex`]
//! inverts that scan once at build time: for each protein it records the sorted list of
//! `(motif, occurrence, position)` triples where the protein appears
//! (its *postings*), and for each `(motif, position)` the per-category
//! vote counts `δ` that Eq. 5 reads. A prediction is then a single merge
//! over `postings(p)` — O(|postings(p)| · C) instead of
//! O(Σ_g |g| · |occ(g)| · C) — with zero allocation when the caller
//! reuses a [`PredictScratch`].
//!
//! This module is the only code that turns motifs into postings. A build
//! first turns every motif into a *segment* — its count plane and its
//! posting run, motif-major — and then assembles the segments into the
//! protein-major index. The incremental updater (`crate::delta`) keeps
//! the segments between deltas and hands clean ones back to the same
//! assembly.
//!
//! The merge is the only Eq. 5 accumulation in the library: the
//! evaluation predictor [`LabeledMotifPredictor`](crate::LabeledMotifPredictor)
//! reads its score rows, and serving ranks them. It is **bitwise
//! identical** to the full scan: postings are ordered exactly as the
//! full scan visits them (motif-major, then occurrence, then position),
//! and the count planes are accumulated in the same order with the same
//! `f64` operations. The full scan lives in `tests/support/full_scan.rs`
//! as the property-tested oracle (`tests/prop_postings.rs`).

use crate::lms::lms_scores;
use lamofinder::LabeledMotif;

/// One appearance of a protein in the labeled-motif dictionary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Motif index in the dictionary.
    pub motif: u32,
    /// Occurrence index within the motif.
    pub occurrence: u32,
    /// Pattern position the protein plays in that occurrence.
    pub position: u32,
    /// How many occurrences of this motif place the protein at this
    /// position (the Eq. 5 self-exclusion multiplicity, precomputed so
    /// the read path never rescans occurrences).
    pub multiplicity: u32,
}

/// Caller-owned scratch for [`PostingIndex::predict_into`]: reusing one
/// per worker keeps the read path allocation-free after warm-up.
#[derive(Default)]
pub struct PredictScratch {
    scores: Vec<f64>,
    /// 1.0 at the queried protein's own categories, 0.0 elsewhere.
    own: Vec<f64>,
    ranked: Vec<(u32, f64)>,
}

impl PredictScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> PredictScratch {
        PredictScratch::default()
    }

    /// The ranked categories of the most recent prediction.
    pub fn ranked(&self) -> &[(u32, f64)] {
        &self.ranked
    }
}

/// Per-protein posting lists plus the Eq. 5 count planes, built once
/// from a labeled-motif dictionary and an annotation table.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PostingIndex {
    /// Number of functional categories `C`.
    pub n_categories: u32,
    /// LMS (Eq. 4) per motif — kept for all motifs so diagnostics line
    /// up with the dictionary, though zero-strength motifs emit nothing.
    pub lms: Vec<f64>,
    /// Posting offsets per protein (`protein_count + 1` entries).
    pub posting_offsets: Vec<u32>,
    /// Postings, sorted by `(motif, occurrence, position)` within each
    /// protein — the exact order the full-scan oracle visits.
    pub postings: Vec<Posting>,
    /// Count-plane offsets per motif (`motif_count + 1` entries), in
    /// units of `f64`; motif `m` position `v` category `c` lives at
    /// `counts[count_offsets[m] + v * C + c]`. Zero-strength motifs own
    /// an empty plane.
    pub count_offsets: Vec<u32>,
    /// δ count planes: per (motif, position) the number of occurrences
    /// whose protein at that position carries each category.
    pub counts: Vec<f64>,
    /// Category offsets per protein (`protein_count + 1` entries).
    pub function_offsets: Vec<u32>,
    /// Sorted category indices per protein (the generalization of the
    /// annotations the predictor excludes self-votes against).
    pub functions: Vec<u32>,
}

/// One motif's share of a [`PostingIndex`]: its count plane and its
/// posting run. A segment is a function of the motif's occurrences, the
/// annotation table and whether the motif has positive strength, so an
/// incremental update can carry it over unchanged (`crate::delta`).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Segment {
    /// `size * C` δ counts in full-scan order; empty for zero-strength
    /// motifs.
    plane: Vec<f64>,
    /// `(protein, occurrence, position, multiplicity)` in visit order
    /// (occurrence-major, then position); empty for zero-strength motifs.
    run: Vec<(u32, u32, u32, u32)>,
}

/// Segment every motif in dictionary order, taking `reuse(m)`'s segment
/// for motif `m` where it offers one and computing the rest.
///
/// Multiplicity of (protein, position) within one motif is counted in a
/// dense `protein_count × k` array shared by every motif: slot
/// `p * k + v`. Only the slots a motif touched are zeroed again after
/// it, so the reset costs what the count did.
pub(crate) fn segment_motifs(
    motifs: &[LabeledMotif],
    lms: &[f64],
    functions: &[Vec<usize>],
    n_categories: usize,
    mut reuse: impl FnMut(usize) -> Option<Segment>,
) -> Vec<Segment> {
    let protein_count = functions.len();
    let mut occupancy: Vec<u32> = Vec::new();
    let mut segments = Vec::with_capacity(motifs.len());
    for (mi, motif) in motifs.iter().enumerate() {
        if let Some(segment) = reuse(mi) {
            segments.push(segment);
            continue;
        }
        if lms[mi] <= 0.0 {
            segments.push(Segment::default());
            continue;
        }
        let k = motif.size();
        let mut plane = vec![0.0f64; k * n_categories];
        for occ in &motif.occurrences {
            for (v, &protein) in occ.vertices.iter().enumerate() {
                for &c in &functions[protein.index()] {
                    plane[v * n_categories + c] += 1.0;
                }
            }
        }
        // Every slot is zero between motifs, so growing keeps that true.
        if occupancy.len() < protein_count * k {
            occupancy.resize(protein_count * k, 0);
        }
        let occupants = || {
            motif.occurrences.iter().flat_map(|occ| {
                occ.vertices.iter().enumerate().map(|(v, &protein)| (v, protein.index()))
            })
        };
        for (v, p) in occupants() {
            occupancy[p * k + v] += 1;
        }
        let mut run = Vec::with_capacity(motif.occurrences.len() * k);
        for (oi, occ) in motif.occurrences.iter().enumerate() {
            for (v, &protein) in occ.vertices.iter().enumerate() {
                let multiplicity = occupancy[protein.index() * k + v];
                run.push((protein.0, oi as u32, v as u32, multiplicity));
            }
        }
        for (v, p) in occupants() {
            occupancy[p * k + v] = 0;
        }
        segments.push(Segment { plane, run });
    }
    segments
}

impl PostingIndex {
    /// Build the index: segment every motif, then assemble.
    /// `functions[p]` lists protein `p`'s category indices (each
    /// `< n_categories`), exactly as in a `PredictionContext`. Every occurrence vertex must be below
    /// `functions.len()`.
    pub fn build(
        motifs: &[LabeledMotif],
        functions: &[Vec<usize>],
        n_categories: usize,
    ) -> PostingIndex {
        let lms = lms_scores(motifs);
        let segments = segment_motifs(motifs, &lms, functions, n_categories, |_| None);
        PostingIndex::assemble(lms, &segments, functions, n_categories)
    }

    /// Interleave motif-major segments into the protein-major index.
    /// Placing each run in motif order appends every protein's postings
    /// already sorted by (motif, occurrence, position).
    pub(crate) fn assemble(
        lms: Vec<f64>,
        segments: &[Segment],
        functions: &[Vec<usize>],
        n_categories: usize,
    ) -> PostingIndex {
        let protein_count = functions.len();
        let mut count_offsets: Vec<u32> = Vec::with_capacity(segments.len() + 1);
        count_offsets.push(0);
        let mut counts: Vec<f64> = Vec::new();
        let mut per_protein = vec![0u32; protein_count];
        for segment in segments {
            counts.extend_from_slice(&segment.plane);
            count_offsets.push(counts.len() as u32);
            for &(p, ..) in &segment.run {
                per_protein[p as usize] += 1;
            }
        }

        let mut posting_offsets: Vec<u32> = Vec::with_capacity(protein_count + 1);
        let mut total = 0u32;
        posting_offsets.push(0);
        for &n in &per_protein {
            total += n;
            posting_offsets.push(total);
        }
        let mut cursor: Vec<u32> = posting_offsets[..protein_count].to_vec();
        let mut postings = vec![
            Posting {
                motif: 0,
                occurrence: 0,
                position: 0,
                multiplicity: 0,
            };
            total as usize
        ];
        for (mi, segment) in segments.iter().enumerate() {
            for &(p, occurrence, position, multiplicity) in &segment.run {
                let slot = cursor[p as usize] as usize;
                cursor[p as usize] += 1;
                postings[slot] = Posting {
                    motif: mi as u32,
                    occurrence,
                    position,
                    multiplicity,
                };
            }
        }

        let mut function_offsets: Vec<u32> = Vec::with_capacity(protein_count + 1);
        function_offsets.push(0);
        let mut flat_functions: Vec<u32> = Vec::new();
        for f in functions {
            flat_functions.extend(f.iter().map(|&c| c as u32));
            function_offsets.push(flat_functions.len() as u32);
        }

        PostingIndex {
            n_categories: n_categories as u32,
            lms,
            posting_offsets,
            postings,
            count_offsets,
            counts,
            function_offsets,
            functions: flat_functions,
        }
    }

    /// Number of proteins the index covers.
    pub fn protein_count(&self) -> usize {
        self.posting_offsets.len().saturating_sub(1)
    }

    /// Number of motifs in the underlying dictionary.
    pub fn motif_count(&self) -> usize {
        self.lms.len()
    }

    /// Protein `p`'s postings.
    pub fn postings_of(&self, p: usize) -> &[Posting] {
        &self.postings[self.posting_offsets[p] as usize..self.posting_offsets[p + 1] as usize]
    }

    /// Protein `p`'s category indices (sorted).
    pub fn functions_of(&self, p: usize) -> &[u32] {
        &self.functions[self.function_offsets[p] as usize..self.function_offsets[p + 1] as usize]
    }

    /// Eq. 5 for one protein: merge `postings(p)` into category scores,
    /// then rank. Returns the ranked `(category, score)` list borrowed
    /// from the scratch, and the number of postings consumed (the
    /// serving layer's work-tick count for this query).
    ///
    /// Bitwise identical to ranking the protein's full-scan score row.
    pub fn predict_into<'s>(
        &self,
        p: usize,
        scratch: &'s mut PredictScratch,
    ) -> (&'s [(u32, f64)], usize) {
        let consumed = self.score_into(p, scratch).1;
        rank_scores(&scratch.scores, &mut scratch.ranked);
        (&scratch.ranked, consumed)
    }

    /// The merge behind [`PostingIndex::predict_into`], unranked:
    /// returns protein `p`'s category scores, borrowed from the
    /// scratch, and the number of postings consumed.
    pub(crate) fn score_into<'s>(
        &self,
        p: usize,
        scratch: &'s mut PredictScratch,
    ) -> (&'s [f64], usize) {
        let c_n = self.n_categories as usize;
        scratch.scores.clear();
        scratch.scores.resize(c_n, 0.0);
        scratch.own.clear();
        scratch.own.resize(c_n, 0.0);
        for &c in self.functions_of(p) {
            scratch.own[c as usize] = 1.0;
        }
        let postings = self.postings_of(p);
        for posting in postings {
            let m = posting.motif as usize;
            let strength = self.lms[m];
            let plane = self.count_offsets[m] as usize + posting.position as usize * c_n;
            let counts = &self.counts[plane..plane + c_n];
            let mult = posting.multiplicity as f64;
            let cells = scratch.scores.iter_mut().zip(counts).zip(&scratch.own);
            for ((score, &count), &flag) in cells {
                // Same operand construction as the full scan: the
                // protein's own occupancies of this position are removed
                // before the vote is weighed.
                let own = mult * flag;
                let delta = count - own;
                if delta > 0.0 {
                    *score += delta * strength;
                }
            }
        }
        (&scratch.scores, postings.len())
    }

    /// Structural consistency check mirroring the build invariants, run
    /// by the artifact deserializer so a corrupted file can never drive
    /// `predict_into` into a panic.
    pub fn validate(&self) -> Result<(), &'static str> {
        let c_n = self.n_categories as usize;
        let motif_count = self.motif_count();
        if !offsets_ok(&self.posting_offsets, self.postings.len()) {
            return Err("posting offsets malformed");
        }
        if !offsets_ok(&self.count_offsets, self.counts.len()) {
            return Err("count offsets malformed");
        }
        if self.count_offsets.len() != motif_count + 1 {
            return Err("count table does not cover the dictionary");
        }
        if !offsets_ok(&self.function_offsets, self.functions.len()) {
            return Err("function offsets malformed");
        }
        if self.function_offsets.len() != self.posting_offsets.len() {
            return Err("function and posting tables cover different proteins");
        }
        if self.functions.iter().any(|&c| c as usize >= c_n) {
            return Err("category index out of range");
        }
        for posting in &self.postings {
            let m = posting.motif as usize;
            if m >= motif_count {
                return Err("posting names a motif outside the dictionary");
            }
            let plane = self.count_offsets[m] as usize;
            let plane_end = self.count_offsets[m + 1] as usize;
            let need = posting.position as usize * c_n + c_n;
            if plane + need > plane_end {
                return Err("posting position outside the motif's count plane");
            }
        }
        Ok(())
    }
}

/// Offset-table shape: non-empty, 0-anchored, non-decreasing,
/// terminated at `slab_len`.
fn offsets_ok(offsets: &[u32], slab_len: usize) -> bool {
    offsets.first() == Some(&0)
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets.last().copied().unwrap_or(u32::MAX) as usize == slab_len
}

/// Deterministic ranking of a score row, shared by every Eq. 5 reader:
/// descending score, ascending category index on ties (`total_cmp`, so
/// the order is total even for pathological inputs).
pub fn rank_scores(scores: &[f64], out: &mut Vec<(u32, f64)>) {
    out.clear();
    out.extend(scores.iter().enumerate().map(|(c, &s)| (c as u32, s)));
    out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::Namespace;
    use lamofinder::{LabelingScheme, VertexLabel};
    use motif_finder::Occurrence;
    use ppi_graph::{Graph, VertexId};

    fn edge_motif(pairs: &[(u32, u32)]) -> LabeledMotif {
        LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
            occurrences: pairs
                .iter()
                .map(|&(a, b)| Occurrence::new(vec![VertexId(a), VertexId(b)]))
                .collect(),
            motif_frequency: pairs.len(),
            uniqueness: Some(1.0),
        }
    }

    #[test]
    fn postings_are_sorted_and_counted() {
        let motifs = vec![edge_motif(&[(0, 1), (0, 2), (1, 0)])];
        let functions = vec![vec![0], vec![1], vec![0]];
        let index = PostingIndex::build(&motifs, &functions, 2);
        let p0 = index.postings_of(0);
        // Protein 0 appears at (occ 0, pos 0), (occ 1, pos 0), (occ 2, pos 1).
        assert_eq!(
            p0.iter().map(|p| (p.occurrence, p.position)).collect::<Vec<_>>(),
            vec![(0, 0), (1, 0), (2, 1)]
        );
        // Multiplicity: protein 0 sits at position 0 twice, position 1 once.
        assert_eq!(
            p0.iter().map(|p| p.multiplicity).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(index.protein_count(), 3);
        assert_eq!(index.motif_count(), 1);
        assert_eq!(index.functions_of(1), &[1]);
    }

    #[test]
    fn rank_orders_desc_with_index_tiebreak() {
        let mut out = Vec::new();
        rank_scores(&[1.0, 3.0, 1.0, 0.0], &mut out);
        assert_eq!(out, vec![(1, 3.0), (0, 1.0), (2, 1.0), (3, 0.0)]);
    }

    #[test]
    fn validate_rejects_corruption() {
        let motifs = vec![edge_motif(&[(0, 1)])];
        let functions = vec![vec![0], vec![1]];
        let good = PostingIndex::build(&motifs, &functions, 2);

        let mut bad = good.clone();
        bad.postings[0].motif = 7;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.postings[0].position = 9;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.functions[0] = 99;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.posting_offsets[1] = 77;
        assert!(bad.validate().is_err());

        let mut bad = good;
        bad.count_offsets.pop();
        assert!(bad.validate().is_err());
    }
}
