//! The two fixtures, and the calls that train and stand up a model on
//! them. Each call into a crate sits inside a span named after that
//! crate.

use crate::trace::Tracer;
use function_prediction::{CategoryView, PredictionContext};
use go_ontology::{Namespace, TermId};
use lamo_serve::{
    write_artifact, ArtifactStore, IncrementalTrainer, ModelArtifact, ServeConfig, Server,
    TrainerConfig,
};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig, LabeledMotif};
use lamofinder_bench::{finder_config, top_categories, Scale};
use motif_finder::{grow_frequent_subgraphs, uniqueness_scores, Motif};
use par_util::RunContext;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use synthetic_data::{YeastConfig, YeastDataset};

/// The paper evaluates against the top 13 functional categories.
const N_CATEGORIES: usize = 13;

/// Which generated interactome a workload runs on. Both are the
/// generator's fixed-seed datasets, so every run trains on the same
/// network; the run's seed drives the query order and the delta stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fixture {
    /// 420 proteins / 720 interactions.
    Small,
    /// 4141 proteins / 7095 interactions, the paper's size.
    Yeast,
}

impl Fixture {
    fn config(self) -> YeastConfig {
        match self {
            Fixture::Small => YeastConfig::small(),
            Fixture::Yeast => YeastConfig::default(),
        }
    }

    /// The incremental trainer's settings, as `profile_delta` uses them.
    pub fn trainer_config(self) -> TrainerConfig {
        match self {
            Fixture::Small => TrainerConfig {
                sizes: vec![3, 4],
                frequency_threshold: 20,
                max_stored: 2_000,
                max_classes: 300,
            },
            Fixture::Yeast => TrainerConfig {
                sizes: vec![3, 4],
                frequency_threshold: 100,
                max_stored: 64,
                max_classes: 200,
            },
        }
    }
}

/// A generated dataset with its category space.
pub struct Inputs {
    pub data: YeastDataset,
    pub categories: Vec<TermId>,
    pub view: CategoryView,
}

impl Inputs {
    pub fn generate(fixture: Fixture, tracer: &Tracer, parent: u64) -> Inputs {
        let data = {
            let _s = tracer.span("synthetic-data.generate", parent, 0);
            YeastDataset::generate(&fixture.config())
        };
        let categories = {
            let _s = tracer.span("go-ontology.top_categories", parent, 0);
            top_categories(&data.annotations, N_CATEGORIES)
        };
        let view = {
            let _s = tracer.span("function-prediction.category_view", parent, 0);
            CategoryView::new(&data.ontology, &data.annotations, &categories)
        };
        Inputs {
            data,
            categories,
            view,
        }
    }

    pub fn prediction_context(&self) -> PredictionContext<'_> {
        PredictionContext {
            network: &self.data.network,
            functions: &self.view.functions,
            n_categories: self.view.n_categories(),
            category_terms: &self.view.categories,
        }
    }

    /// A live model trained from scratch on `network` (the generated
    /// one, or a delta stream's current one), as `profile_delta` trains
    /// it: biological-process labels, the fixture's trainer settings.
    /// Ticks are metered on `ctx`.
    pub fn incremental_trainer(
        &self,
        network: &ppi_graph::Graph,
        fixture: Fixture,
        ctx: &RunContext,
    ) -> Result<IncrementalTrainer<'_>, String> {
        IncrementalTrainer::new(
            network,
            self.labeler(Namespace::BiologicalProcess),
            &self.view.functions,
            &self.categories,
            fixture.trainer_config(),
            ctx,
        )
        .map_err(|e| format!("incremental training failed: {e:?}"))
    }

    /// A labeler for `namespace` in the small-scale regime of
    /// `lamofinder_bench::label_namespace` (σ = 5, min_direct = 5), the
    /// regime `profile_delta` also trains with.
    pub fn labeler(&self, namespace: Namespace) -> LaMoFinder<'_> {
        LaMoFinder::new(
            &self.data.ontology,
            &self.data.annotations,
            LaMoFinderConfig {
                namespace,
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
    }
}

/// Counts from one batch training run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCounts {
    pub grow_classes: usize,
    pub uniqueness_kept: usize,
    pub labeled_motifs: usize,
    pub sv_plane_bytes: usize,
    pub st_plane_bytes: usize,
    pub artifact_bytes: usize,
    pub postings: usize,
}

/// A trained, published and recovered model.
pub struct Trained {
    /// Seconds from the generated dataset to the recovered artifact.
    pub secs: f64,
    /// Labeled motifs (batch training only; empty otherwise).
    pub labeled: Vec<LabeledMotif>,
    pub artifact: ModelArtifact,
    /// The serialized artifact, as published.
    pub bytes: Vec<u8>,
    pub counts: BatchCounts,
}

/// Batch pipeline: grow → uniqueness → label ×3 → artifact build →
/// store publish → recover, as `MotifFinder::find` and
/// `label_all_namespaces` run it with `finder_config(Scale::Small)`.
/// Errors name the correctness gate that failed.
pub fn train_batch(
    inputs: &Inputs,
    store: &ArtifactStore,
    tracer: &Tracer,
    rep: u64,
) -> Result<Trained, String> {
    let config = finder_config(Scale::Small);
    let network = &inputs.data.network;
    let t0 = Instant::now();
    let root = tracer.span("bench.train", 0, rep);
    let growth = {
        let _s = tracer.span("motif-finder.grow", root.id(), rep);
        grow_frequent_subgraphs(network, &config.growth)
    };
    let scores = {
        let _s = tracer.span("motif-finder.uniqueness", root.id(), rep);
        let patterns: Vec<_> = growth
            .classes
            .iter()
            .map(|c| (&c.pattern, c.frequency))
            .collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        uniqueness_scores(network, &patterns, &config.uniqueness, &mut rng)
    };
    let mut counts = BatchCounts {
        grow_classes: growth.classes.len(),
        ..BatchCounts::default()
    };
    let motifs: Vec<Motif> = growth
        .classes
        .into_iter()
        .zip(scores)
        .filter(|(_, s)| *s >= config.uniqueness_threshold)
        .map(|(class, s)| Motif {
            pattern: class.pattern,
            occurrences: class.occurrences,
            frequency: class.frequency,
            uniqueness: Some(s),
        })
        .collect();
    counts.uniqueness_kept = motifs.len();

    let mut labeled = Vec::new();
    for namespace in Namespace::ALL {
        let _s = tracer.span(label_span(namespace), root.id(), rep);
        let labeler = inputs.labeler(namespace);
        labeled.extend(labeler.label_motifs(&motifs));
        let stats = labeler.kernel_stats();
        counts.sv_plane_bytes += stats.sv_plane_bytes;
        counts.st_plane_bytes += stats.st_plane_bytes;
    }
    counts.labeled_motifs = labeled.len();

    let (categories, view) = {
        let _s = tracer.span("function-prediction.category_view", root.id(), rep);
        let categories = top_categories(&inputs.data.annotations, N_CATEGORIES);
        let view = CategoryView::new(&inputs.data.ontology, &inputs.data.annotations, &categories);
        (categories, view)
    };
    let artifact = {
        let _s = tracer.span("lamo-serve.artifact_build", root.id(), rep);
        let ctx = PredictionContext {
            network,
            functions: &view.functions,
            n_categories: view.n_categories(),
            category_terms: &categories,
        };
        ModelArtifact::build(&labeled, &ctx)
    };
    let recovered = publish_and_recover(&artifact, store, tracer, root.id(), rep)?;
    drop(root);
    let secs = t0.elapsed().as_secs_f64();

    artifact
        .validate()
        .map_err(|e| format!("train: built artifact fails validate(): {e}"))?;
    let bytes = write_artifact(&artifact);
    if write_artifact(&recovered) != bytes {
        return Err("train: recover() did not return the published bytes".to_string());
    }
    counts.artifact_bytes = bytes.len();
    counts.postings = artifact.index.postings.len();
    Ok(Trained {
        secs,
        labeled,
        artifact,
        bytes,
        counts,
    })
}

fn label_span(namespace: Namespace) -> &'static str {
    match namespace {
        Namespace::MolecularFunction => "core.label_mf",
        Namespace::BiologicalProcess => "core.label_bp",
        Namespace::CellularComponent => "core.label_cc",
    }
}

/// Incremental training from scratch, the live workload's trainer:
/// `IncrementalTrainer::new` → store publish → recover. Ticks are
/// metered on `ctx`.
pub fn train_incremental<'a>(
    inputs: &'a Inputs,
    fixture: Fixture,
    store: &ArtifactStore,
    tracer: &Tracer,
    ctx: &RunContext,
    rep: u64,
) -> Result<(Trained, IncrementalTrainer<'a>), String> {
    let t0 = Instant::now();
    let root = tracer.span("bench.train", 0, rep);
    let trainer = {
        let _s = tracer.span("lamo-serve.trainer_new", root.id(), rep);
        inputs
            .incremental_trainer(&inputs.data.network, fixture, ctx)
            .map_err(|e| format!("train: {e}"))?
    };
    let recovered = publish_and_recover(trainer.artifact(), store, tracer, root.id(), rep)?;
    drop(root);
    let secs = t0.elapsed().as_secs_f64();

    let artifact = trainer.artifact().clone();
    artifact
        .validate()
        .map_err(|e| format!("train: trained artifact fails validate(): {e}"))?;
    let bytes = write_artifact(&artifact);
    if write_artifact(&recovered) != bytes {
        return Err("train: recover() did not return the published bytes".to_string());
    }
    let counts = BatchCounts {
        labeled_motifs: artifact.motifs.motif_count(),
        artifact_bytes: bytes.len(),
        postings: artifact.index.postings.len(),
        ..BatchCounts::default()
    };
    Ok((
        Trained {
            secs,
            labeled: Vec::new(),
            artifact,
            bytes,
            counts,
        },
        trainer,
    ))
}

fn publish_and_recover(
    artifact: &ModelArtifact,
    store: &ArtifactStore,
    tracer: &Tracer,
    parent: u64,
    rep: u64,
) -> Result<ModelArtifact, String> {
    {
        let _s = tracer.span("lamo-serve.store_publish", parent, rep);
        store
            .publish(artifact, &RunContext::unbounded())
            .map_err(|e| format!("train: store publish failed: {e}"))?;
    }
    let _s = tracer.span("lamo-serve.store_recover", parent, rep);
    store
        .recover()
        .map(|r| r.artifact)
        .map_err(|e| format!("train: store recover failed: {e}"))
}

/// Stand a serving node up from scratch: generate the inputs, compile
/// the artifact from the labeled motifs (batch-trained models only),
/// cold-load the published artifact from the store, start the server
/// and stop it again. Returns the seconds taken.
pub fn setup_once(
    fixture: Fixture,
    labeled: &[LabeledMotif],
    store: &ArtifactStore,
    tracer: &Tracer,
    rep: u64,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let root = tracer.span("bench.setup", 0, rep);
    let inputs = Inputs::generate(fixture, tracer, root.id());
    if !labeled.is_empty() {
        let _s = tracer.span("lamo-serve.artifact_build", root.id(), rep);
        std::hint::black_box(ModelArtifact::build(labeled, &inputs.prediction_context()));
    }
    let artifact = {
        let _s = tracer.span("lamo-serve.store_recover", root.id(), rep);
        store
            .recover()
            .map_err(|e| format!("setup: store recover failed: {e}"))?
            .artifact
    };
    {
        let _s = tracer.span("lamo-serve.server_start", root.id(), rep);
        let server = Server::start(
            Arc::new(artifact),
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        server.shutdown();
    }
    drop(root);
    Ok(t0.elapsed().as_secs_f64())
}
