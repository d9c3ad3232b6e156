//! The serving layer end to end (DESIGN.md §16): mine and label once,
//! build an immutable `ModelArtifact`, persist it in the checksummed
//! binary format, load it back, and answer queries from concurrent
//! worker threads — verifying along the way that every served answer is
//! byte-identical to the ranking of the evaluation predictor,
//! `LabeledMotifPredictor`.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use function_prediction::{
    rank_scores, CategoryView, FunctionPredictor, LabeledMotifPredictor, PredictionContext,
};
use go_ontology::Namespace;
use lamo_serve::{read_artifact, write_artifact, ModelArtifact, ServeConfig, Server};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig};
use motif_finder::{GrowthConfig, MotifFinder, MotifFinderConfig, UniquenessConfig};
use par_util::RunContext;
use synthetic_data::{MipsConfig, MipsDataset};

fn main() {
    // ── Train: the one-off batch pipeline (discover → label). ──────────
    let data = MipsDataset::generate(&MipsConfig::small());
    let view = CategoryView::new(&data.ontology, &data.annotations, &data.categories);
    let (motifs, _) = MotifFinder::new(MotifFinderConfig {
        growth: GrowthConfig {
            min_size: 3,
            max_size: 4,
            frequency_threshold: 15,
            ..Default::default()
        },
        uniqueness: UniquenessConfig {
            n_random: 5,
            ..Default::default()
        },
        uniqueness_threshold: 0.6,
        seed: 5,
    })
    .find(&data.network);
    let labeled = LaMoFinder::new(
        &data.ontology,
        &data.annotations,
        LaMoFinderConfig {
            namespace: Namespace::BiologicalProcess,
            clustering: ClusteringConfig {
                sigma: 5,
                ..Default::default()
            },
            informative: go_ontology::InformativeConfig {
                min_direct: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .label_motifs(&motifs);
    let ctx = PredictionContext {
        network: &data.network,
        functions: &view.functions,
        n_categories: view.n_categories(),
        category_terms: &data.categories,
    };
    println!(
        "trained: {} proteins, {} labeled motifs, {} categories",
        data.network.vertex_count(),
        labeled.len(),
        view.n_categories()
    );

    // ── Package: one immutable, validated artifact. ────────────────────
    let artifact = ModelArtifact::build(&labeled, &ctx);
    artifact.validate().expect("freshly built artifact validates");
    let postings: usize = (0..artifact.protein_count())
        .map(|p| artifact.index.postings_of(p).len())
        .sum();
    println!(
        "artifact: {} postings total (~{:.1} per protein — merged once per protein at install)",
        postings,
        postings as f64 / artifact.protein_count() as f64
    );

    // ── Persist + reload: versioned, per-section-checksummed bytes. ────
    let bytes = write_artifact(&artifact);
    let loaded = read_artifact(&bytes).expect("own bytes decode");
    assert_eq!(loaded, artifact, "roundtrip is lossless");
    assert_eq!(write_artifact(&loaded), bytes, "re-serialize is byte-identical");
    println!("format: {} bytes on disk, roundtrip byte-identical", bytes.len());
    // Corruption is detected, not mis-served: flip one bit anywhere.
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 1;
    let err = read_artifact(&corrupt).expect_err("bit flip detected");
    println!("corruption demo: {err}");

    // ── Serve: N workers, one Arc, zero locks on the read path. ────────
    let server = Server::start(
        Arc::new(loaded),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
        Arc::new(RunContext::unbounded()),
    );
    let proteins: Vec<usize> = (0..data.network.vertex_count()).collect();
    let answers = server.query_batch(&proteins);

    // Every served answer matches the evaluation predictor bit for bit.
    let oracle = LabeledMotifPredictor::new(labeled).predict_all(&ctx);
    let mut want = Vec::new();
    for (p, answer) in answers.iter().enumerate() {
        let prediction = answer.as_ref().expect("in-range protein");
        rank_scores(&oracle[p], &mut want);
        assert_eq!(prediction.ranked, want, "protein {p}");
    }
    // Show a protein the motifs actually vote on (best top score).
    let p = proteins
        .iter()
        .max_by(|&&a, &&b| {
            let best = |p: usize| answers[p].as_ref().expect("in-range").ranked[0].1;
            best(a).total_cmp(&best(b)).then(b.cmp(&a))
        })
        .copied()
        .expect("non-empty network");
    let top = &server.query(p).expect("in-range protein").ranked[..3];
    println!(
        "served {} proteins; protein {p} top categories: {:?}",
        answers.len(),
        top.iter()
            .map(|&(c, s)| (data.categories[c as usize], s))
            .collect::<Vec<_>>()
    );
    println!(
        "all {} served answers byte-identical to the evaluation predictor",
        answers.len()
    );
    server.shutdown();
}
