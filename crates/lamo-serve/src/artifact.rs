//! The immutable prediction artifact.
//!
//! [`ModelArtifact`] bundles everything Eq. 5 needs at query time —
//! the flattened labeled-motif dictionary ([`FlatMotifs`]), the
//! posting-list index ([`PostingIndex`]) and the category → GO-term
//! mapping — into one `Sync` value with no interior mutability, so any
//! number of worker threads can serve predictions from a shared
//! `Arc<ModelArtifact>` without a single lock (lamolint's
//! `serve-read-lock` rule keeps it that way).
//!
//! Built once from pipeline output via [`ModelArtifact::build`]; loaded
//! from disk via [`crate::format::read_artifact`], which re-validates
//! every structural invariant so a corrupted file can never panic the
//! read path.

use function_prediction::{PostingIndex, PredictScratch, PredictionContext};
use go_ontology::TermId;
use lamofinder::{FlatMotifs, LabeledMotif};

/// Fixed-size artifact header fields: the shape of the network and
/// category space the model was trained on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ArtifactMeta {
    /// Vertices in the training network (= proteins the index covers).
    pub protein_count: u64,
    /// Edges in the training network (provenance; not used at query
    /// time).
    pub network_edges: u64,
    /// Functional categories `C` scores are ranked over.
    pub n_categories: u32,
}

/// Immutable, `Sync` bundle of labeled motifs + LMS + posting lists.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ModelArtifact {
    /// Training-shape header.
    pub meta: ArtifactMeta,
    /// GO term id of each category index (`n_categories` entries),
    /// mapping ranked positions back to ontology terms.
    pub category_terms: Vec<u32>,
    /// The labeled-motif dictionary, flattened.
    pub motifs: FlatMotifs,
    /// The Eq. 5 posting-list index over that dictionary.
    pub index: PostingIndex,
}

impl ModelArtifact {
    /// Compile pipeline output into an artifact. `motifs` is the
    /// labeled dictionary; `ctx` is the same prediction context the
    /// batch evaluator uses (network + annotations + category space).
    pub fn build(motifs: &[LabeledMotif], ctx: &PredictionContext<'_>) -> ModelArtifact {
        ModelArtifact {
            meta: ArtifactMeta {
                protein_count: ctx.network.vertex_count() as u64,
                network_edges: ctx.network.edge_count() as u64,
                n_categories: ctx.n_categories as u32,
            },
            category_terms: ctx.category_terms.iter().map(|t| t.0).collect(),
            motifs: FlatMotifs::from_motifs(motifs),
            index: PostingIndex::build(motifs, ctx.functions, ctx.n_categories),
        }
    }

    /// Proteins the artifact can answer for (`0..protein_count`).
    pub fn protein_count(&self) -> usize {
        self.meta.protein_count as usize
    }

    /// Number of functional categories.
    pub fn n_categories(&self) -> usize {
        self.meta.n_categories as usize
    }

    /// GO term of category index `c`.
    pub fn term_of(&self, c: usize) -> TermId {
        TermId(self.category_terms[c])
    }

    /// Eq. 5 for protein `p`: ranked `(category, score)` list borrowed
    /// from the caller's scratch, plus the number of postings consumed
    /// (the server's work-tick count). O(|postings(p)| · C), zero
    /// allocation once the scratch is warm. The server calls it once
    /// per protein when it installs the artifact, and serves the rows.
    pub fn predict_into<'s>(
        &self,
        p: usize,
        scratch: &'s mut PredictScratch,
    ) -> (&'s [(u32, f64)], usize) {
        self.index.predict_into(p, scratch)
    }

    /// Full structural validation — the deserializer's last step before
    /// an artifact is allowed near the read path. Checks each component
    /// and every cross-component invariant `predict_into` relies on.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.motifs.validate()?;
        self.index.validate()?;
        if self.category_terms.len() != self.meta.n_categories as usize {
            return Err("category table length disagrees with header");
        }
        if self.index.n_categories != self.meta.n_categories {
            return Err("index category count disagrees with header");
        }
        if self.index.protein_count() as u64 != self.meta.protein_count {
            return Err("index protein count disagrees with header");
        }
        if self.index.motif_count() != self.motifs.motif_count() {
            return Err("index and dictionary motif counts disagree");
        }
        for posting in &self.index.postings {
            let m = posting.motif as usize;
            if posting.occurrence as usize >= self.motifs.occurrence_count(m)
                || posting.position as usize >= self.motifs.size(m)
            {
                return Err("posting points outside its motif's occurrences");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::Namespace;
    use lamofinder::{LabelingScheme, VertexLabel};
    use motif_finder::Occurrence;
    use ppi_graph::{Graph, VertexId};

    fn fixture() -> (Vec<LabeledMotif>, Graph, Vec<Vec<usize>>, Vec<TermId>) {
        let motifs = vec![LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
            occurrences: vec![
                Occurrence::new(vec![VertexId(0), VertexId(1)]),
                Occurrence::new(vec![VertexId(2), VertexId(1)]),
            ],
            motif_frequency: 2,
            uniqueness: Some(1.0),
        }];
        let network = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3)]);
        let functions = vec![vec![0], vec![1], vec![0], vec![]];
        let terms = vec![TermId(100), TermId(200)];
        (motifs, network, functions, terms)
    }

    fn build_fixture() -> ModelArtifact {
        let (motifs, network, functions, terms) = fixture();
        let ctx = PredictionContext {
            network: &network,
            functions: &functions,
            n_categories: 2,
            category_terms: &terms,
        };
        ModelArtifact::build(&motifs, &ctx)
    }

    #[test]
    fn artifact_is_sync_and_send() {
        fn assert_shareable<T: Sync + Send>() {}
        assert_shareable::<ModelArtifact>();
    }

    #[test]
    fn build_wires_every_component() {
        let artifact = build_fixture();
        artifact.validate().expect("freshly built artifact must validate");
        assert_eq!(artifact.protein_count(), 4);
        assert_eq!(artifact.n_categories(), 2);
        assert_eq!(artifact.meta.network_edges, 3);
        assert_eq!(artifact.term_of(1), TermId(200));
        assert_eq!(artifact.motifs.motif_count(), 1);
        let mut scratch = PredictScratch::new();
        let (ranked, consumed) = artifact.predict_into(3, &mut scratch);
        assert_eq!(consumed, 0, "protein 3 is in no occurrence");
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn validate_catches_cross_component_corruption() {
        let mut artifact = build_fixture();
        artifact.category_terms.pop();
        assert!(artifact.validate().is_err());

        let mut artifact = build_fixture();
        artifact.meta.protein_count = 99;
        assert!(artifact.validate().is_err());

        let mut artifact = build_fixture();
        artifact.index.postings[0].occurrence = 5;
        assert!(artifact.validate().is_err());
    }
}
