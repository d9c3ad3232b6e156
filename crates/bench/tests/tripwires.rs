//! Release-timed tripwires and the pinned artifact fingerprints.
//!
//! * **Fingerprints.** perfbench's three trained artifacts (the
//!   serve-small batch model and the small and yeast live trainers) are
//!   rebuilt through the `lamofinder_bench` API and their serialized
//!   bytes are pinned by FNV-1a 64. A change that moves one of these
//!   changes what the benchmark serves.
//! * **Delta bar.** On the 4141v/7095e yeast network every delta of at
//!   most 16 edges applies at least 25× faster than training from
//!   scratch, and every delta lands byte-identical to a rebuild.
//! * **Discovery.** Two growth workers are not slower than one.
//! * **Serving.** A served `predict_into` answers at least 100× faster
//!   than running the pipeline that built its artifact.
//!
//! The timed tests compare optimized code and the fingerprint test
//! trains at paper scale, so a debug build skips them all
//! (`cargo test --release -p lamofinder-bench --test tripwires` runs
//! them, in about a minute on two cores). Every test holds [`SERIAL`],
//! so no timing shares the CPU with another test of this file.

use function_prediction::{CategoryView, PredictScratch, PredictionContext};
use go_ontology::{Namespace, TermId};
use lamo_serve::{write_artifact, IncrementalTrainer, ModelArtifact, TrainerConfig};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig};
use lamofinder_bench::{
    find_motifs, finder_config, label_all_namespaces, top_categories, yeast, Scale,
};
use motif_finder::grow_frequent_subgraphs;
use par_util::RunContext;
use ppi_graph::{EdgeDelta, Graph};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use synthetic_data::YeastDataset;

/// The paper evaluates against the top 13 functional categories.
const N_CATEGORIES: usize = 13;
/// Edge counts per delta; the bar covers the rows of at most 16 edges.
const DELTA_SIZES: [usize; 5] = [0, 1, 4, 16, 64];
/// Yeast deltas of at most this many edges carry the speedup bar.
const BAR_EDGES: usize = 16;
/// Minimum apply-over-rebuild speedup for those deltas.
const DELTA_BAR: f64 = 25.0;
/// Minimum pipeline-over-served-predict speedup.
const SERVING_BAR: f64 = 100.0;

/// Held by every test: timings must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

// lamolint::allow(wall-clock): the tripwires compare elapsed times; no timing reaches program output
fn secs<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = run();
    (out, t.elapsed().as_secs_f64())
}

/// FNV-1a 64, perfbench's artifact fingerprint.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Deterministic delta against `g`: `edges - edges/2` additions of
/// absent edges, `edges/2` removals of present edges.
fn make_delta(g: &Graph, edges: usize, s: &mut u64) -> EdgeDelta {
    let n = g.vertex_count() as u32;
    let present: Vec<(u32, u32)> = g.edges().map(|e| (e.0 .0, e.1 .0)).collect();
    let n_removed = edges / 2;
    let mut removed: Vec<(u32, u32)> = Vec::with_capacity(n_removed);
    while removed.len() < n_removed {
        let e = present[(xorshift(s) % present.len() as u64) as usize];
        if !removed.contains(&e) {
            removed.push(e);
        }
    }
    let mut added: Vec<(u32, u32)> = Vec::with_capacity(edges - n_removed);
    while added.len() < edges - n_removed {
        let a = (xorshift(s) % n as u64) as u32;
        let b = (xorshift(s) % n as u64) as u32;
        let e = (a.min(b), a.max(b));
        if a != b && !g.has_edge(e.0.into(), e.1.into()) && !added.contains(&e) {
            added.push(e);
        }
    }
    EdgeDelta::new(&added, &removed)
}

/// A generated fixture with perfbench's category space.
struct Fixture {
    data: YeastDataset,
    categories: Vec<TermId>,
    view: CategoryView,
}

impl Fixture {
    fn new(scale: Scale) -> Fixture {
        let data = yeast(scale);
        let categories = top_categories(&data.annotations, N_CATEGORIES);
        let view = CategoryView::new(&data.ontology, &data.annotations, &categories);
        Fixture {
            data,
            categories,
            view,
        }
    }

    fn prediction_context(&self) -> PredictionContext<'_> {
        PredictionContext {
            network: &self.data.network,
            functions: &self.view.functions,
            n_categories: self.view.n_categories(),
            category_terms: &self.categories,
        }
    }

    /// Biological-process labeler at σ = 5, min_direct = 5.
    fn labeler(&self) -> LaMoFinder<'_> {
        LaMoFinder::new(
            &self.data.ontology,
            &self.data.annotations,
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
    }

    /// perfbench's live trainer, trained from scratch on `network`.
    fn trainer(&self, network: &Graph, scale: Scale) -> IncrementalTrainer<'_> {
        let config = match scale {
            Scale::Small => TrainerConfig {
                sizes: vec![3, 4],
                frequency_threshold: 20,
                max_stored: 2_000,
                max_classes: 300,
            },
            Scale::Full => TrainerConfig {
                sizes: vec![3, 4],
                frequency_threshold: 100,
                max_stored: 64,
                max_classes: 200,
            },
        };
        IncrementalTrainer::new(
            network,
            self.labeler(),
            &self.view.functions,
            &self.categories,
            config,
            &RunContext::unbounded(),
        )
        .expect("an unbounded context never cancels")
    }
}

/// The serve-small batch pipeline: generate, grow, null model, label
/// ×3 at σ = 5 / min_direct = 5, top 13 categories, artifact build.
fn serve_small_pipeline() -> ModelArtifact {
    let fixture = Fixture::new(Scale::Small);
    let (motifs, _) = find_motifs(&fixture.data.network, Scale::Small);
    let labeled = label_all_namespaces(
        &fixture.data.ontology,
        &fixture.data.annotations,
        &motifs,
        Scale::Small,
    );
    ModelArtifact::build(&labeled, &fixture.prediction_context())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "rebuilds the benchmark's artifacts; CI runs it with --release"
)]
fn perfbench_fingerprints_are_pinned() {
    let _serial = serial();
    let batch = write_artifact(&serve_small_pipeline());
    assert_eq!(
        format!("{:016x}", fnv1a64(&batch)),
        "f8fe1435a9e4e65b",
        "serve-small batch artifact"
    );
    for (scale, want) in [
        (Scale::Small, "68a875b18ef8bdcb"),
        (Scale::Full, "b483c1b20b4cbac6"),
    ] {
        let fixture = Fixture::new(scale);
        let trainer = fixture.trainer(&fixture.data.network, scale);
        let bytes = write_artifact(trainer.artifact());
        assert_eq!(
            format!("{:016x}", fnv1a64(&bytes)),
            want,
            "{scale:?} live trainer artifact"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times release code; CI runs it with --release"
)]
fn yeast_deltas_apply_25x_faster_than_a_rebuild() {
    let _serial = serial();
    let fixture = Fixture::new(Scale::Full);
    let mut trainer = fixture.trainer(&fixture.data.network, Scale::Full);
    let calm = RunContext::unbounded();
    let mut seed = 0x1a2b_3c4d_5e6f_7081u64 ^ fixture.data.network.edge_count() as u64;
    for edges in DELTA_SIZES {
        let delta = make_delta(trainer.graph(), edges, &mut seed);
        let inverse = EdgeDelta {
            added: delta.removed.clone(),
            removed: delta.added.clone(),
        };
        // Five applies of the same delta, reverted in between (untimed);
        // the fifth stays applied.
        let mut apply = f64::INFINITY;
        for rep in 0..5 {
            if rep > 0 {
                trainer
                    .apply_delta(&inverse, &calm)
                    .expect("inverse is valid");
            }
            let (report, t) = secs(|| trainer.apply_delta(&delta, &calm));
            report.expect("generated deltas are valid");
            apply = apply.min(t);
        }
        let post = trainer.graph().clone();
        let mut rebuild = f64::INFINITY;
        for _ in 0..3 {
            let (scratch, t) = secs(|| fixture.trainer(&post, Scale::Full));
            rebuild = rebuild.min(t);
            assert!(
                write_artifact(trainer.artifact()) == write_artifact(scratch.artifact()),
                "delta[{edges}]: incremental artifact diverged from a rebuild"
            );
        }
        let speedup = rebuild / apply.max(1e-12);
        println!("yeast delta[{edges:>2} edges]: apply {apply:.5}s, rebuild {rebuild:.3}s = {speedup:.1}x");
        if edges <= BAR_EDGES {
            assert!(
                speedup >= DELTA_BAR,
                "{edges}-edge yeast delta applied only {speedup:.1}x faster than a rebuild \
                 (need {DELTA_BAR}x)"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times release code; CI runs it with --release"
)]
fn discovery_at_two_threads_is_not_slower_than_one() {
    let _serial = serial();
    if std::thread::available_parallelism().map_or(1, |p| p.get()) < 2 {
        // One core: two workers would measure the scheduler.
        return;
    }
    let data = yeast(Scale::Small);
    let mut best = [f64::INFINITY; 2];
    let mut classes = [0usize; 2];
    for (i, threads) in [1usize, 2].into_iter().enumerate() {
        let mut config = finder_config(Scale::Small).growth;
        config.threads = threads;
        for _ in 0..3 {
            let (report, t) = secs(|| grow_frequent_subgraphs(&data.network, &config));
            best[i] = best[i].min(t);
            classes[i] = report.classes.len();
        }
    }
    println!(
        "discovery: threads=1 {:.3}s, threads=2 {:.3}s",
        best[0], best[1]
    );
    assert_eq!(
        classes[0], classes[1],
        "discovery output must not depend on threads"
    );
    assert!(
        best[1] <= best[0],
        "threads=2 took {:.3}s vs {:.3}s at threads=1",
        best[1],
        best[0]
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times release code; CI runs it with --release"
)]
fn served_predict_is_100x_faster_than_the_pipeline() {
    let _serial = serial();
    let (artifact, pipeline) = secs(serve_small_pipeline);
    let mut scratch = PredictScratch::new();
    let mut latencies: Vec<f64> = (0..artifact.protein_count())
        .map(|p| secs(|| artifact.predict_into(p, &mut scratch).1).1)
        .collect();
    latencies.sort_unstable_by(f64::total_cmp);
    let p50 = latencies[latencies.len() / 2];
    let speedup = pipeline / p50.max(1e-12);
    println!("serving: pipeline {pipeline:.2}s, predict p50 {p50:.2e}s = {speedup:.0}x");
    assert!(
        speedup >= SERVING_BAR,
        "served predict is only {speedup:.0}x faster than the pipeline (need {SERVING_BAR}x)"
    );
}
