//! The paper's labeled-network-motif predictor (Section 5.1, Eq. 5).
//!
//! A protein occurring at position `v` of a labeled motif is
//! topologically similar to the proteins at `v` in the motif's *other*
//! occurrences; their functions, weighted by the motif's strength
//! (Eq. 4), vote for the protein's functions:
//!
//! ```text
//! f_x(p) = (1/z) Σ_{g ∋ p} δ_g(v, x) · LMS(g)                  (Eq. 5)
//! ```
//!
//! `δ_g(v, x)` is the frequency of function `x` at vertex `v` of `g`.
//! We compute it over occurrences, always excluding those where `p`
//! itself sits at `v`, so leave-one-out evaluation is leakage-free.
//!
//! Scores come from the posting-list merge the serving layer answers
//! with ([`PostingIndex`]): each row is what [`PostingIndex::predict_into`]
//! ranks. The full scan over every occurrence of every motif is kept
//! only as the test oracle (`tests/support/full_scan.rs`).

use crate::context::{FunctionPredictor, PredictionContext};
use crate::lms::lms_scores;
use crate::postings::{PostingIndex, PredictScratch};
use lamofinder::LabeledMotif;

/// The labeled-motif predictor. Owns the labeled motif dictionary.
pub struct LabeledMotifPredictor {
    motifs: Vec<LabeledMotif>,
    lms: Vec<f64>,
}

impl LabeledMotifPredictor {
    /// Build the predictor from a labeled motif dictionary.
    pub fn new(motifs: Vec<LabeledMotif>) -> Self {
        let lms = lms_scores(&motifs);
        LabeledMotifPredictor { motifs, lms }
    }

    /// Number of motifs in the dictionary.
    pub fn motif_count(&self) -> usize {
        self.motifs.len()
    }

    /// The LMS of motif `i` (diagnostics and the Eq. 4 report).
    pub fn lms(&self, i: usize) -> f64 {
        self.lms[i]
    }
}

impl FunctionPredictor for LabeledMotifPredictor {
    fn name(&self) -> &str {
        "LabeledMotif"
    }

    fn predict_all(&self, ctx: &PredictionContext<'_>) -> Vec<Vec<f64>> {
        let index = PostingIndex::build(&self.motifs, ctx.functions, ctx.n_categories);
        let mut scratch = PredictScratch::new();
        (0..ctx.protein_count())
            .map(|p| index.score_into(p, &mut scratch).0.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::{Namespace, TermId};
    use lamofinder::{LabelingScheme, VertexLabel};
    use motif_finder::Occurrence;
    use ppi_graph::{Graph, VertexId};

    /// An edge motif with occurrences (2i, 2i+1); position 0 proteins
    /// have category 0, position 1 proteins category 1.
    fn edge_motif(n_occ: usize) -> LabeledMotif {
        LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
            occurrences: (0..n_occ as u32)
                .map(|i| Occurrence::new(vec![VertexId(2 * i), VertexId(2 * i + 1)]))
                .collect(),
            motif_frequency: n_occ,
            uniqueness: Some(1.0),
        }
    }

    fn ctx_functions(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|p| vec![p % 2]).collect()
    }

    #[test]
    fn position_determines_prediction() {
        let motif = edge_motif(5);
        let functions = ctx_functions(10);
        let g = Graph::from_edges(10, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
        let ctx = PredictionContext {
            network: &g,
            functions: &functions,
            n_categories: 2,
            category_terms: &[TermId(0), TermId(1)],
        };
        let predictor = LabeledMotifPredictor::new(vec![motif]);
        let scores = predictor.predict_all(&ctx);
        // Protein 0 sits at position 0 → other position-0 proteins all
        // carry category 0.
        assert!(scores[0][0] > scores[0][1], "{:?}", scores[0]);
        assert!(scores[1][1] > scores[1][0], "{:?}", scores[1]);
    }

    #[test]
    fn own_labels_are_excluded() {
        // One occurrence only: protein 0 at position 0. With no other
        // occurrences, the prediction must be all zero (no leakage of
        // protein 0's own label).
        let motif = edge_motif(1);
        let functions = ctx_functions(2);
        let g = Graph::from_edges(2, &[(0, 1)]);
        let ctx = PredictionContext {
            network: &g,
            functions: &functions,
            n_categories: 2,
            category_terms: &[TermId(0), TermId(1)],
        };
        let predictor = LabeledMotifPredictor::new(vec![motif]);
        let scores = predictor.predict_all(&ctx);
        assert_eq!(scores[0], vec![0.0, 0.0]);
        assert_eq!(scores[1], vec![0.0, 0.0]);
    }

    #[test]
    fn stronger_motifs_dominate() {
        // Two motifs of the same size: one with support 10, one with 2.
        // Their LMS differ (1.0 vs 0.2); contributions scale accordingly.
        let big = edge_motif(10);
        let mut small = edge_motif(2);
        // Move the small motif's occurrences to other proteins with the
        // REVERSED category layout to create conflict on protein 20.
        small.occurrences = vec![
            Occurrence::new(vec![VertexId(20), VertexId(21)]),
            Occurrence::new(vec![VertexId(22), VertexId(23)]),
        ];
        let mut big2 = edge_motif(10);
        big2.occurrences.push(Occurrence::new(vec![
            VertexId(20),
            VertexId(24),
        ]));
        let mut functions = ctx_functions(25);
        functions[22] = vec![1]; // small motif votes 1 at position 0
        let g = Graph::empty(25);
        let ctx = PredictionContext {
            network: &g,
            functions: &functions,
            n_categories: 2,
            category_terms: &[TermId(0), TermId(1)],
        };
        let predictor = LabeledMotifPredictor::new(vec![big, big2, small]);
        let scores = predictor.predict_all(&ctx);
        // Protein 20 appears at position 0 of big2 (10 votes for cat 0,
        // LMS-weighted ~1.0) and of small (1 vote for cat 1, LMS ~2/11).
        assert!(scores[20][0] > scores[20][1], "{:?}", scores[20]);
        let _ = predictor.lms(0);
        assert_eq!(predictor.motif_count(), 3);
    }
}
