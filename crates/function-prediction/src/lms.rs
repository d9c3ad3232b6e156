//! Labeled network motif strength — Equation 4 of the paper.
//!
//! ```text
//! LMS(g_labeled) = s(g_labeled) · |g_labeled| / max_k
//! ```
//!
//! where `|g_labeled|` is the labeled motif's frequency (its support:
//! the number of occurrences conforming to the scheme), `s` is the
//! parent motif's uniqueness, and `max_k` normalizes within each motif
//! size `k` (so meso-scale motifs are comparable to small ones).

use lamofinder::LabeledMotif;

/// Compute `LMS` for every labeled motif. Motifs without a measured
/// uniqueness contribute `s = 1`. The batch pipeline always measures
/// it, but the live trainer (`lamo_serve::IncrementalTrainer`) publishes
/// every class with `uniqueness: None`, so live LMS weighs frequency
/// alone.
pub fn lms_scores(motifs: &[LabeledMotif]) -> Vec<f64> {
    let raw: Vec<f64> = motifs
        .iter()
        .map(|m| m.uniqueness.unwrap_or(1.0) * m.support() as f64)
        .collect();
    // Per-size maxima.
    let mut max_by_size: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for (m, &r) in motifs.iter().zip(&raw) {
        let e = max_by_size.entry(m.size()).or_insert(0.0);
        if r > *e {
            *e = r;
        }
    }
    motifs
        .iter()
        .zip(&raw)
        .map(|(m, &r)| {
            let mk = max_by_size[&m.size()];
            if mk > 0.0 {
                r / mk
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::Namespace;
    use lamofinder::{LabelingScheme, VertexLabel};
    use motif_finder::Occurrence;
    use ppi_graph::{Graph, VertexId};

    fn motif(size: usize, support: usize, uniqueness: Option<f64>) -> LabeledMotif {
        let edges: Vec<(u32, u32)> = (0..size as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledMotif {
            pattern: Graph::from_edges(size, &edges),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); size]),
            occurrences: (0..support)
                .map(|i| {
                    Occurrence::new((0..size).map(|v| VertexId((i * size + v) as u32)).collect())
                })
                .collect(),
            motif_frequency: support,
            uniqueness,
        }
    }

    #[test]
    fn normalized_within_each_size() {
        let motifs = vec![
            motif(3, 100, Some(1.0)),
            motif(3, 50, Some(1.0)),
            motif(5, 10, Some(1.0)),
        ];
        let lms = lms_scores(&motifs);
        assert!((lms[0] - 1.0).abs() < 1e-12);
        assert!((lms[1] - 0.5).abs() < 1e-12);
        assert!((lms[2] - 1.0).abs() < 1e-12, "own-size max");
    }

    #[test]
    fn uniqueness_scales_strength() {
        let motifs = vec![motif(3, 100, Some(0.5)), motif(3, 100, Some(1.0))];
        let lms = lms_scores(&motifs);
        assert!((lms[0] - 0.5).abs() < 1e-12);
        assert!((lms[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_uniqueness_defaults_to_one() {
        let motifs = vec![motif(4, 20, None)];
        let lms = lms_scores(&motifs);
        assert!((lms[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        assert!(lms_scores(&[]).is_empty());
    }
}
