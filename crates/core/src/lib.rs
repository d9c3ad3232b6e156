#![forbid(unsafe_code)]
//! **LaMoFinder** — Labeled Motif Finder (Chen, Hsu, Lee, Ng; ICDE 2007).
//!
//! The paper's contribution: given the network motifs of a PPI network
//! (Tasks 1–2, provided by the `motif-finder` crate) and the Gene
//! Ontology annotations of the proteins (the `go-ontology` crate), solve
//! **Task 3** — assign GO labels to motif vertices such that the labeled
//! subgraphs still occur frequently in the underlying labeled network.
//!
//! Pipeline (Section 3 of the paper):
//!
//! 1. score occurrence pairs with `SO` (Eq. 3), built from the Lin term
//!    similarity `ST` (Eq. 1) and vertex similarity `SV` (Eq. 2), with
//!    symmetric-vertex pairing solved exactly ([`occ_similarity`],
//!    [`assignment`]);
//! 2. agglomeratively cluster the occurrence set, deriving at each merge
//!    the least-general labeling scheme, and stop clusters whose labels
//!    reach the border-informative frontier ([`clustering`],
//!    [`labeling`]);
//! 3. emit every scheme supported by at least σ occurrences as a
//!    [`LabeledMotif`] ([`labeled`], [`lamofinder`]).
//!
//! The naive random-generalization labeler and the k-medoids
//! partitioning baseline from the paper's discussion are provided for
//! ablations ([`naive`], [`kmeans`]).

pub mod assignment;
pub mod clustering;
pub mod flat;
pub mod kmeans;
pub mod label_cache;
pub mod labeled;
pub mod labeling;
pub mod lamofinder;
pub mod naive;
pub mod occ_similarity;

pub use assignment::{max_assignment, max_assignment_flat, AssignScratch};
pub use clustering::{
    cluster_occurrences, cluster_occurrences_supervised, compute_frontier, so_matrix,
    ClusteringConfig, LabelContext, LabeledCluster, Linkage, MotifSymmetry,
};
pub use kmeans::kmedoids_label;
pub use label_cache::{LabelCache, LabelCacheStats, MotifKey};
pub use flat::{namespace_from_tag, FlatMotifs};
pub use labeled::LabeledMotif;
pub use labeling::{LabelingScheme, VertexLabel};
pub use lamofinder::{LaMoFinder, LaMoFinderConfig, LabelCheckpoint};
pub use naive::{naive_label, NaiveOutcome};
pub use occ_similarity::{OccurrenceScorer, SoScratch};
