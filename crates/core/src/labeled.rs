//! The final product: labeled network motifs.

use crate::labeling::LabelingScheme;
use go_ontology::{Namespace, Ontology};
use motif_finder::Occurrence;
use ppi_graph::Graph;
use std::fmt::Write as _;

/// A network motif enriched with GO labels — the output of LaMoFinder
/// and the input to labeled-motif function prediction (Section 5).
#[derive(Clone, Debug)]
pub struct LabeledMotif {
    /// The topology (pattern vertices `0..k`).
    pub pattern: Graph,
    /// Which GO branch the labels come from.
    pub namespace: Namespace,
    /// The labeling scheme (vocabulary-filtered; empty label = unknown).
    pub scheme: LabelingScheme,
    /// Occurrences supporting the scheme, aligned to the pattern.
    pub occurrences: Vec<Occurrence>,
    /// Frequency of the *unlabeled* parent motif in the network.
    pub motif_frequency: usize,
    /// Uniqueness of the parent motif, when it was tested.
    pub uniqueness: Option<f64>,
}

impl LabeledMotif {
    /// Motif size.
    pub fn size(&self) -> usize {
        self.pattern.vertex_count()
    }

    /// Number of occurrences conforming to the scheme (the labeled
    /// motif's own frequency, `|g_labeled|` in Eq. 4).
    pub fn support(&self) -> usize {
        self.occurrences.len()
    }

    /// Human-readable rendering, used by the figure-7 style reports:
    /// one line per vertex with its labels, then the edge list.
    pub fn render(&self, ontology: &Ontology) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "labeled motif: size={} support={} namespace={}",
            self.size(),
            self.support(),
            self.namespace
        );
        for (i, label) in self.scheme.labels.iter().enumerate() {
            let names: Vec<&str> = label
                .terms
                .iter()
                .map(|&t| ontology.term(t).name.as_str())
                .collect();
            let rendered = if names.is_empty() {
                "unknown".to_string()
            } else {
                names.join(", ")
            };
            let _ = writeln!(out, "  v{i}: {rendered}");
        }
        let edges: Vec<String> = self
            .pattern
            .edges()
            .map(|e| format!("v{}-v{}", e.0, e.1))
            .collect();
        let _ = writeln!(out, "  edges: {}", edges.join(" "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::VertexLabel;
    use go_ontology::{OntologyBuilder, TermId};
    use ppi_graph::VertexId;

    #[test]
    fn render_names_and_unknowns() {
        let mut ob = OntologyBuilder::new();
        ob.add_term("GO:0", "splicing", Namespace::BiologicalProcess);
        let ontology = ob.build().unwrap();
        let lm = LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![
                VertexLabel::new(vec![TermId(0)]),
                VertexLabel::unknown(),
            ]),
            occurrences: vec![Occurrence::new(vec![VertexId(3), VertexId(4)])],
            motif_frequency: 5,
            uniqueness: Some(1.0),
        };
        let text = lm.render(&ontology);
        assert!(text.contains("v0: splicing"));
        assert!(text.contains("v1: unknown"));
        assert!(text.contains("edges: v0-v1"));
        assert_eq!(lm.support(), 1);
        assert_eq!(lm.size(), 2);
    }
}
