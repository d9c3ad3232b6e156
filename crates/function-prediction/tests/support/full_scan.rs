//! Reference scorer for the Eq. 5 predictor: the full scan over every
//! occurrence of every labeled motif that the posting-list merge
//! replaced, kept only as a test oracle. `PostingIndex::predict_into`
//! and `LabeledMotifPredictor::predict_all` must reproduce its score
//! rows bit for bit, so the accumulation order below is the contract:
//! motif-major, then occurrence, then position, then category.

use function_prediction::{lms_scores, PredictionContext};
use lamofinder::LabeledMotif;

/// Score matrix `scores[p][c]` of Eq. 5 for every protein of `ctx`,
/// excluding each protein's own occupancies of a position.
pub fn full_scan_scores(motifs: &[LabeledMotif], ctx: &PredictionContext<'_>) -> Vec<Vec<f64>> {
    let lms = lms_scores(motifs);
    let n = ctx.protein_count();
    let mut scores = vec![vec![0.0f64; ctx.n_categories]; n];

    for (mi, motif) in motifs.iter().enumerate() {
        let strength = lms[mi];
        if strength <= 0.0 {
            continue;
        }
        let k = motif.size();
        // Per-position category counts over all occurrences, plus the
        // per-(position, protein) occupancy needed for exclusion.
        let mut counts = vec![vec![0.0f64; ctx.n_categories]; k];
        for occ in &motif.occurrences {
            for (v, &protein) in occ.vertices.iter().enumerate() {
                for &c in &ctx.functions[protein.index()] {
                    counts[v][c] += 1.0;
                }
            }
        }
        // Contribution to each protein found at each position.
        for occ in &motif.occurrences {
            for (v, &protein) in occ.vertices.iter().enumerate() {
                let p = protein.index();
                for c in 0..ctx.n_categories {
                    // δ excluding p's own occupancies of v: remove
                    // p's own label contributions at this position.
                    let own = occurrences_of_at(motif, p, v) as f64
                        * f64::from(ctx.functions[p].contains(&c));
                    let delta = counts[v][c] - own;
                    if delta > 0.0 {
                        scores[p][c] += delta * strength;
                    }
                }
            }
        }
    }
    scores
}

/// How many occurrences of `motif` place protein `p` at position `v`.
fn occurrences_of_at(motif: &LabeledMotif, p: usize, v: usize) -> usize {
    motif
        .occurrences
        .iter()
        .filter(|o| o.vertices[v].index() == p)
        .count()
}
