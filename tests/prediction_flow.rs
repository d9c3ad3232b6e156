//! Integration test: Section 5's function-prediction pipeline on a
//! small MIPS-style dataset — motif discovery → labeling → LMS-weighted
//! prediction, evaluated leave-one-out against all four baselines.

#[path = "../crates/function-prediction/tests/support/full_scan.rs"]
mod full_scan;

use full_scan::full_scan_scores;
use function_prediction::{
    rank_scores, Chi2Predictor, FunctionPredictor, LabeledMotifPredictor, LeaveOneOut,
    MrfPredictor, NeighborCountingPredictor, PredictionContext, ProdistinPredictor,
};
use go_ontology::Namespace;
use lamo_serve::{ModelArtifact, ServeConfig, Server};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig};
use motif_finder::{GrowthConfig, MotifFinder, MotifFinderConfig, UniquenessConfig};
use par_util::RunContext;
use std::sync::Arc;
use synthetic_data::{MipsConfig, MipsDataset};

struct World {
    dataset: MipsDataset,
    functions: Vec<Vec<usize>>,
    labeled: Vec<lamofinder::LabeledMotif>,
}

fn world() -> World {
    let dataset = MipsDataset::generate(&MipsConfig::small());
    let functions: Vec<Vec<usize>> = (0..dataset.network.vertex_count())
        .map(|p| {
            dataset
                .category_functions(go_ontology::ProteinId(p as u32))
                .iter()
                .map(|t| dataset.categories.iter().position(|c| c == t).unwrap())
                .collect()
        })
        .collect();

    let finder = MotifFinder::new(MotifFinderConfig {
        growth: GrowthConfig {
            min_size: 3,
            max_size: 4,
            frequency_threshold: 15,
            ..Default::default()
        },
        uniqueness: UniquenessConfig {
            n_random: 5,
            threads: 2,
            ..Default::default()
        },
        uniqueness_threshold: 0.6,
        seed: 5,
    });
    let (motifs, _) = finder.find(&dataset.network);
    let labeler = LaMoFinder::new(
        &dataset.ontology,
        &dataset.annotations,
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
    );
    let labeled = labeler.label_motifs(&motifs);
    World {
        dataset,
        functions,
        labeled,
    }
}

#[test]
fn all_methods_produce_valid_pr_curves() {
    let w = world();
    let ctx = PredictionContext {
        network: &w.dataset.network,
        functions: &w.functions,
        n_categories: w.dataset.categories.len(),
        category_terms: &w.dataset.categories,
    };
    let motif_pred = LabeledMotifPredictor::new(w.labeled.clone());
    let mrf = MrfPredictor {
        folds: 5,
        iterations: 15,
        beta: 1.2,
    };
    let prodistin = ProdistinPredictor::default();
    let methods: Vec<&dyn FunctionPredictor> = vec![
        &motif_pred,
        &NeighborCountingPredictor,
        &Chi2Predictor,
        &mrf,
        &prodistin,
    ];
    for method in methods {
        let curve = LeaveOneOut.evaluate(&ctx, method);
        assert_eq!(curve.points.len(), 13, "{}", method.name());
        let mut prev_recall = 0.0;
        for p in &curve.points {
            assert!((0.0..=1.0).contains(&p.precision), "{} {:?}", method.name(), p);
            assert!((0.0..=1.0).contains(&p.recall));
            assert!(p.recall >= prev_recall - 1e-12, "recall non-decreasing in k");
            prev_recall = p.recall;
        }
    }
}

#[test]
fn motif_predictor_has_real_signal() {
    let w = world();
    assert!(!w.labeled.is_empty(), "labeling must produce motifs");
    let ctx = PredictionContext {
        network: &w.dataset.network,
        functions: &w.functions,
        n_categories: w.dataset.categories.len(),
        category_terms: &w.dataset.categories,
    };
    let motif_pred = LabeledMotifPredictor::new(w.labeled.clone());
    let curve = LeaveOneOut.evaluate(&ctx, &motif_pred);
    // The planted structure guarantees position-correlated functions, so
    // the motif predictor must beat random by a wide margin at k = 1.
    let p1 = curve.points[0];
    let random_precision = 1.0 / 13.0;
    assert!(
        p1.precision > 3.0 * random_precision,
        "precision@1 = {} (random {})",
        p1.precision,
        random_precision
    );
}

#[test]
fn motif_predictor_outranks_neighbor_counting_on_regulon_targets() {
    // The adversarial construction: regulon targets' neighbors (hubs)
    // carry a *different* category, so NC errs where the motif position
    // is informative. Compare per-protein hits at k=1 restricted to
    // regulon targets.
    let w = world();
    let ctx = PredictionContext {
        network: &w.dataset.network,
        functions: &w.functions,
        n_categories: w.dataset.categories.len(),
        category_terms: &w.dataset.categories,
    };
    let motif_scores = LabeledMotifPredictor::new(w.labeled.clone()).predict_all(&ctx);
    let nc_scores = NeighborCountingPredictor.predict_all(&ctx);

    let top1 = |scores: &Vec<Vec<f64>>, p: usize| -> Option<usize> {
        (0..13)
            .filter(|&c| scores[p][c] > 0.0)
            .max_by(|&a, &b| scores[p][a].partial_cmp(&scores[p][b]).unwrap())
    };
    let mut motif_hits = 0usize;
    let mut nc_hits = 0usize;
    let mut total = 0usize;
    for (module, _) in w
        .dataset
        .modules
        .iter()
        .zip(&w.dataset.themes)
        .filter(|(m, _)| matches!(m.kind, synthetic_data::ModuleKind::Regulon { .. }))
    {
        let hubs = match module.kind {
            synthetic_data::ModuleKind::Regulon { hubs, .. } => hubs,
            _ => unreachable!(),
        };
        for &v in &module.members[hubs..] {
            let p = v.index();
            if w.functions[p].is_empty() {
                continue;
            }
            total += 1;
            if let Some(c) = top1(&motif_scores, p) {
                motif_hits += usize::from(w.functions[p].contains(&c));
            }
            if let Some(c) = top1(&nc_scores, p) {
                nc_hits += usize::from(w.functions[p].contains(&c));
            }
        }
    }
    assert!(total > 20, "need enough regulon targets, got {total}");
    assert!(
        motif_hits > nc_hits,
        "motif {motif_hits} vs NC {nc_hits} of {total} targets"
    );
}

#[test]
fn served_answers_equal_the_full_scan_ranking() {
    // The serving path end to end: compile the artifact from the labeled
    // motifs, serve every protein, and hold each answer bitwise to the
    // full scan's ranking and each query's ticks to its
    // postings.
    let w = world();
    let ctx = PredictionContext {
        network: &w.dataset.network,
        functions: &w.functions,
        n_categories: w.dataset.categories.len(),
        category_terms: &w.dataset.categories,
    };
    let oracle = full_scan_scores(&w.labeled, &ctx);
    let artifact = Arc::new(ModelArtifact::build(&w.labeled, &ctx));
    let n = artifact.protein_count();
    assert_eq!(oracle.len(), n);
    let posting_free = (0..n)
        .filter(|&p| artifact.index.postings_of(p).is_empty())
        .count();
    assert!(
        posting_free > 0 && posting_free < n,
        "the world must have proteins with and without postings ({posting_free} of {n} free)"
    );
    let proteins: Vec<usize> = (0..n).collect();
    let mut want = Vec::new();
    for workers in [1, 2] {
        let meter = Arc::new(RunContext::metered());
        let server = Server::start(
            Arc::clone(&artifact),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            Arc::clone(&meter),
        );
        let answers = server.query_batch(&proteins);
        server.shutdown();
        let mut postings = 0u64;
        for (p, answer) in answers.into_iter().enumerate() {
            let got = answer.expect("every protein is served");
            rank_scores(&oracle[p], &mut want);
            assert_eq!(got.protein, p);
            assert_eq!(got.epoch, 0);
            assert_eq!(got.postings, artifact.index.postings_of(p).len());
            assert_eq!(got.ranked.len(), want.len(), "workers={workers} p={p}");
            for (g, e) in got.ranked.iter().zip(&want) {
                assert_eq!(g.0, e.0, "workers={workers} p={p}");
                assert_eq!(g.1.to_bits(), e.1.to_bits(), "workers={workers} p={p}");
            }
            postings += got.postings as u64;
        }
        assert_eq!(meter.ticks_spent(), postings, "workers={workers}");
    }
}
