#![forbid(unsafe_code)]
//! Shared harness for the per-table / per-figure benchmark binaries,
//! perfbench and the release tripwires. See DESIGN.md §7 for the
//! experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! results.

pub mod report;

use function_prediction::CategoryView;
use go_ontology::{Namespace, TermId};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig, LabeledMotif};
use motif_finder::{
    FinderReport, GrowthConfig, Motif, MotifFinder, MotifFinderConfig, UniquenessConfig,
};
use synthetic_data::{MipsConfig, MipsDataset, YeastConfig, YeastDataset};

/// Experiment scale, selected by the first CLI argument
/// (`small` | `full`, default `full`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// ~10–20% of the paper's data sizes; finishes in seconds.
    Small,
    /// The paper's data sizes (4141/7095 yeast, 1877/2448 MIPS).
    Full,
}

impl Scale {
    /// Parse from the process arguments.
    pub fn from_args() -> Scale {
        match std::env::args().nth(1).as_deref() {
            Some("small") => Scale::Small,
            _ => Scale::Full,
        }
    }
}

/// Yeast dataset at the chosen scale.
pub fn yeast(scale: Scale) -> YeastDataset {
    let config = match scale {
        Scale::Small => YeastConfig::small(),
        Scale::Full => YeastConfig::default(),
    };
    YeastDataset::generate(&config)
}

/// MIPS dataset at the chosen scale.
pub fn mips(scale: Scale) -> MipsDataset {
    let config = match scale {
        Scale::Small => MipsConfig::small(),
        Scale::Full => MipsConfig::default(),
    };
    MipsDataset::generate(&config)
}

/// The motif-finder configuration used by the figure pipelines.
/// At full scale this follows the paper: sizes up to 20, frequency ≥ 100,
/// uniqueness > 0.95 (12 randomized networks ⇒ a motif must win all 12).
pub fn finder_config(scale: Scale) -> MotifFinderConfig {
    match scale {
        Scale::Full => MotifFinderConfig {
            growth: GrowthConfig {
                min_size: 3,
                max_size: 20,
                frequency_threshold: 100,
                max_stored_occurrences: 800,
                max_candidates_per_level: 800_000,
                max_classes_per_level: 200,
                threads: 0,
            },
            uniqueness: UniquenessConfig {
                // 12 randomizations with threshold 0.95 ⇒ a motif must
                // win all 12 (the paper's ">0.95" regime). The node
                // budget bounds per-pattern absence proofs; the partial
                // count decides (see motif_finder::uniqueness).
                n_random: 12,
                node_budget: 300_000,
                ..Default::default()
            },
            uniqueness_threshold: 0.95,
            seed: 2007,
        },
        Scale::Small => MotifFinderConfig {
            growth: GrowthConfig {
                min_size: 3,
                max_size: 8,
                frequency_threshold: 20,
                ..Default::default()
            },
            uniqueness: UniquenessConfig {
                n_random: 8,
                ..Default::default()
            },
            uniqueness_threshold: 0.85,
            seed: 2007,
        },
    }
}

/// Mine motifs from a network at the chosen scale.
pub fn find_motifs(network: &ppi_graph::Graph, scale: Scale) -> (Vec<Motif>, FinderReport) {
    MotifFinder::new(finder_config(scale)).find(network)
}

/// Label `motifs` in one namespace with paper-style parameters
/// (σ = 10 at full scale).
pub fn label_namespace(
    ontology: &go_ontology::Ontology,
    annotations: &go_ontology::Annotations,
    motifs: &[Motif],
    namespace: Namespace,
    scale: Scale,
) -> Vec<LabeledMotif> {
    let (sigma, min_direct) = match scale {
        Scale::Full => (10, 30),
        Scale::Small => (5, 5),
    };
    let labeler = LaMoFinder::new(
        ontology,
        annotations,
        LaMoFinderConfig {
            namespace,
            clustering: ClusteringConfig {
                sigma,
                ..Default::default()
            },
            informative: go_ontology::InformativeConfig {
                min_direct,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    labeler.label_motifs(motifs)
}

/// Label `motifs` in all three GO branches, as the paper does ("we call
/// LaMoFinder 3 times").
pub fn label_all_namespaces(
    ontology: &go_ontology::Ontology,
    annotations: &go_ontology::Annotations,
    motifs: &[Motif],
    scale: Scale,
) -> Vec<LabeledMotif> {
    Namespace::ALL
        .into_iter()
        .flat_map(|ns| label_namespace(ontology, annotations, motifs, ns, scale))
        .collect()
}

/// Category view for the MIPS prediction experiment.
pub fn mips_functions(data: &MipsDataset) -> CategoryView {
    CategoryView::new(&data.ontology, &data.annotations, &data.categories)
}

/// Top `n` terms by direct annotation count (ties broken by ascending
/// term id): the YeastDataset has no curated category list, so
/// perfbench and the tripwires derive the paper's 13-category space
/// deterministically from the data.
pub fn top_categories(annotations: &go_ontology::Annotations, n: usize) -> Vec<TermId> {
    let mut by_count: Vec<(usize, u32)> = (0..annotations.term_count())
        .map(|t| (annotations.direct_count(TermId(t as u32)), t as u32))
        .collect();
    by_count.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    by_count.into_iter().take(n).map(|(_, t)| TermId(t)).collect()
}
