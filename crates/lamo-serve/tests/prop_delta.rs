//! Delta-equivalence contracts of the incremental trainer:
//!
//! * **Byte identity** — after any sequence of random edge deltas
//!   (adds, removes, interleaved add-then-remove cancellations), the
//!   serialized artifact is bitwise identical to training from scratch
//!   on the post-delta network, at labeler thread counts 1/2/4 on
//!   either side.
//! * **Orphaning** — a removal batch that orphans every occurrence of
//!   a motif class drops the class, its labeled rows and its LMS rows
//!   from the artifact, still byte-identical to from-scratch.
//! * **No-op deltas** — add-then-remove of the same edge inside one
//!   delta cancels to a no-op; the artifact bytes do not move.
//! * **Typed rejection** — malformed deltas (duplicates, self-loops,
//!   already-present adds, absent removes) surface as the matching
//!   [`DeltaError`] carrying the offending pair, with the trainer and
//!   its artifact untouched.
//! * **Publish** — [`publish_delta`] persists through the crash-safe
//!   store and epoch-swaps the live server; answers on both sides of
//!   the swap are bit-exact against the artifact of their epoch.
//! * **Labels nothing** — a labeler whose σ or informative threshold
//!   no class can reach publishes a valid artifact with no labeled
//!   motifs, still takes deltas byte-identically to a rebuild, and
//!   every answer is the all-zero ranking with no postings.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use function_prediction::{rank_scores, CategoryView, PredictScratch};
use go_ontology::{
    Annotations, InformativeConfig, Namespace, Ontology, OntologyBuilder, ProteinId, Relation,
    TermId,
};
use lamo_serve::{
    publish_delta, read_artifact, write_artifact, ArtifactStore, IncrementalTrainer, ServeConfig,
    Server, TrainerConfig,
};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig};
use par_util::RunContext;
use ppi_graph::{DeltaError, EdgeDelta, Graph};
use proptest::prelude::*;
use synthetic_data::{GoGenConfig, MipsConfig, MipsDataset};

fn config() -> TrainerConfig {
    TrainerConfig {
        sizes: vec![3, 4],
        frequency_threshold: 2,
        max_stored: 2_000,
        max_classes: 300,
    }
}

// ───────────────────────── randomized world ─────────────────────────

struct World {
    data: MipsDataset,
    view: CategoryView,
}

/// One shared synthetic interactome (generated once; each test builds
/// its own trainers over it).
fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let data = MipsDataset::generate(&MipsConfig {
            n_proteins: 150,
            n_interactions: 220,
            go: GoGenConfig {
                terms_per_namespace: 60,
                root_fanout: 8,
                ..GoGenConfig::default()
            },
            ..MipsConfig::small()
        });
        let view = CategoryView::new(&data.ontology, &data.annotations, &data.categories);
        World { data, view }
    })
}

fn labeler<'a>(
    ontology: &'a Ontology,
    annotations: &'a Annotations,
    threads: usize,
    (sigma, min_direct): (usize, usize),
) -> LaMoFinder<'a> {
    LaMoFinder::new(
        ontology,
        annotations,
        LaMoFinderConfig {
            namespace: Namespace::BiologicalProcess,
            informative: InformativeConfig {
                min_direct,
                ..Default::default()
            },
            clustering: ClusteringConfig {
                sigma,
                ..Default::default()
            },
            threads,
            ..Default::default()
        },
    )
}

/// σ and the informative threshold every randomized-world trainer
/// labels with, unless a test asks for another pair.
const LABELING: (usize, usize) = (5, 5);

fn mips_trainer(network: &Graph, threads: usize) -> IncrementalTrainer<'static> {
    mips_trainer_labeling(network, threads, LABELING)
}

fn mips_trainer_labeling(
    network: &Graph,
    threads: usize,
    labeling: (usize, usize),
) -> IncrementalTrainer<'static> {
    let w = world();
    IncrementalTrainer::new(
        network,
        labeler(&w.data.ontology, &w.data.annotations, threads, labeling),
        &w.view.functions,
        &w.data.categories,
        config(),
        &RunContext::unbounded(),
    )
    .expect("unbounded context never cancels")
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A valid random delta against `g`: up to 3 removals of existing
/// edges, 1–3 additions of absent edges, and (sometimes) one
/// add-then-remove pair that must cancel to a no-op.
fn random_delta(g: &Graph, s: &mut u64) -> EdgeDelta {
    let n = g.vertex_count() as u32;
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.0 .0, e.1 .0)).collect();
    let mut removed: Vec<(u32, u32)> = Vec::new();
    for _ in 0..xorshift(s) % 3 {
        let e = edges[(xorshift(s) % edges.len() as u64) as usize];
        if !removed.contains(&e) {
            removed.push(e);
        }
    }
    let mut added: Vec<(u32, u32)> = Vec::new();
    for _ in 0..1 + xorshift(s) % 3 {
        for _ in 0..64 {
            let a = (xorshift(s) % n as u64) as u32;
            let b = (xorshift(s) % n as u64) as u32;
            let e = (a.min(b), a.max(b));
            if a != b && !g.has_edge(e.0.into(), e.1.into()) && !added.contains(&e) {
                added.push(e);
                break;
            }
        }
    }
    // Interleave an add-then-remove of one present edge: it must
    // cancel during normalization, exercising the no-op path inline.
    if xorshift(s).is_multiple_of(2) && !edges.is_empty() {
        let e = edges[(xorshift(s) % edges.len() as u64) as usize];
        if !removed.contains(&e) {
            added.push(e);
            removed.push(e);
        }
    }
    EdgeDelta::new(&added, &removed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: incremental maintenance across a random
    /// delta sequence serializes byte-identically to a from-scratch
    /// rebuild on the post-delta network, independent of thread count.
    #[test]
    fn delta_sequences_rebuild_byte_identical(
        seed in any::<u64>(),
        steps in 1usize..=3usize,
        t_inc_pick in 0usize..3usize,
        t_scratch_pick in 0usize..3usize,
    ) {
        let (t_inc, t_scratch) = ([1usize, 2, 4][t_inc_pick], [1usize, 2, 4][t_scratch_pick]);
        let w = world();
        let mut s = seed | 1;
        let mut trainer = mips_trainer(&w.data.network, t_inc);
        for _ in 0..steps {
            let delta = random_delta(trainer.graph(), &mut s);
            let report = trainer
                .apply_delta(&delta, &RunContext::unbounded())
                .expect("generated deltas are valid");
            prop_assert_eq!(report.census.len(), config().sizes.len());
        }
        let post = trainer.graph().clone();
        let scratch = mips_trainer(&post, t_scratch);
        prop_assert_eq!(
            write_artifact(trainer.artifact()),
            write_artifact(scratch.artifact()),
            "incremental artifact diverged from from-scratch rebuild"
        );
    }
}

/// The degenerate config that labels nothing: σ far above any class's
/// support, or an informative threshold no term reaches. The trainer
/// still publishes a valid artifact — with no labeled motifs — deltas
/// still match a rebuild byte for byte, and the server answers every
/// protein with the all-zero ranking from no postings.
#[test]
fn a_config_that_labels_nothing_serves_all_zero_answers() {
    let w = world();
    let n = w.data.network.vertex_count();
    let mut zero_ranking = Vec::new();
    rank_scores(&vec![0.0; w.data.categories.len()], &mut zero_ranking);
    for labeling in [(100_000, 5), (5, 100_000)] {
        let mut trainer = mips_trainer_labeling(&w.data.network, 1, labeling);
        let mut s = 0x5eed_u64;
        for _ in 0..2 {
            assert_eq!(trainer.artifact().motifs.motif_count(), 0, "{labeling:?}");
            let bytes = write_artifact(trainer.artifact());
            let decoded = read_artifact(&bytes).expect("an empty model is a valid artifact");
            assert_eq!(write_artifact(&decoded), bytes, "{labeling:?}");
            let delta = random_delta(trainer.graph(), &mut s);
            trainer
                .apply_delta(&delta, &RunContext::unbounded())
                .expect("generated deltas are valid");
            let rebuilt = mips_trainer_labeling(trainer.graph(), 1, labeling);
            assert_eq!(
                write_artifact(trainer.artifact()),
                write_artifact(rebuilt.artifact()),
                "{labeling:?}: delta diverged from a rebuild"
            );
        }
        assert_eq!(trainer.artifact().motifs.motif_count(), 0, "{labeling:?}");
        let server = Server::start(
            Arc::new(trainer.artifact().clone()),
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        let proteins: Vec<usize> = (0..n).collect();
        for (p, answer) in server.query_batch(&proteins).into_iter().enumerate() {
            let got = answer.expect("every protein is in range");
            assert_eq!(got.postings, 0, "{labeling:?} protein {p}");
            assert_eq!(got.ranked, zero_ranking, "{labeling:?} protein {p}");
        }
        server.shutdown();
    }
}

// ──────────────────────── deterministic world ───────────────────────

/// Hand-built interactome whose size-3 census is exactly two classes:
/// 12 disjoint triangles and 6 disjoint 3-paths, each annotated
/// `f1,f1,f2` so both classes emit labeling schemes (σ = 5), plus
/// padding proteins keeping the parent class informative.
struct HandWorld {
    ontology: Ontology,
    annotations: Annotations,
    network: Graph,
    categories: Vec<TermId>,
    functions: Vec<Vec<usize>>,
}

const TRIANGLES: u32 = 12;
const PATHS: u32 = 6;

fn hand_world() -> &'static HandWorld {
    static W: OnceLock<HandWorld> = OnceLock::new();
    W.get_or_init(|| {
        let mut ob = OntologyBuilder::new();
        let root = ob.add_term("GO:0", "root", Namespace::BiologicalProcess);
        let f = ob.add_term("GO:1", "F", Namespace::BiologicalProcess);
        let f1 = ob.add_term("GO:2", "f1", Namespace::BiologicalProcess);
        let f2 = ob.add_term("GO:3", "f2", Namespace::BiologicalProcess);
        ob.add_edge(f, root, Relation::IsA);
        ob.add_edge(f1, f, Relation::IsA);
        ob.add_edge(f2, f, Relation::IsA);
        let ontology = ob.build().expect("static DAG is well-formed");

        let path_base = 3 * TRIANGLES;
        let pad_base = path_base + 3 * PATHS;
        let n = (pad_base + 4) as usize;
        let mut annotations = Annotations::new(n, ontology.term_count());
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut functions = vec![Vec::new(); n];
        for t in 0..TRIANGLES {
            let b = 3 * t;
            edges.extend([(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
            annotations.annotate(ProteinId(b), f1);
            annotations.annotate(ProteinId(b + 1), f1);
            annotations.annotate(ProteinId(b + 2), f2);
            functions[b as usize] = vec![0];
            functions[b as usize + 1] = vec![0];
            functions[b as usize + 2] = vec![1];
        }
        for p in 0..PATHS {
            let b = path_base + 3 * p;
            edges.extend([(b, b + 1), (b + 1, b + 2)]);
            annotations.annotate(ProteinId(b), f1);
            annotations.annotate(ProteinId(b + 1), f1);
            annotations.annotate(ProteinId(b + 2), f2);
            functions[b as usize] = vec![0];
            functions[b as usize + 1] = vec![0];
            functions[b as usize + 2] = vec![1];
        }
        for p in 0..4 {
            annotations.annotate(ProteinId(pad_base + p), f);
        }
        HandWorld {
            ontology,
            annotations,
            network: Graph::from_edges(n, &edges),
            categories: vec![f1, f2],
            functions,
        }
    })
}

fn hand_trainer(network: &Graph, threads: usize) -> IncrementalTrainer<'static> {
    let w = hand_world();
    IncrementalTrainer::new(
        network,
        LaMoFinder::new(
            &w.ontology,
            &w.annotations,
            LaMoFinderConfig {
                namespace: Namespace::BiologicalProcess,
                informative: InformativeConfig {
                    min_direct: 3,
                    ..Default::default()
                },
                clustering: ClusteringConfig {
                    sigma: 5,
                    ..Default::default()
                },
                threads,
                ..Default::default()
            },
        ),
        &w.functions,
        &w.categories,
        TrainerConfig {
            sizes: vec![3],
            frequency_threshold: 1,
            ..config()
        },
        &RunContext::unbounded(),
    )
    .expect("unbounded context never cancels")
}

/// Orphan every 3-path occurrence in one delta: the class vanishes
/// from the dictionary, its labeled rows and LMS rows leave the index,
/// and the result still matches a from-scratch rebuild byte for byte.
#[test]
fn orphaning_removal_drops_class_and_its_rows() {
    let w = hand_world();
    let mut trainer = hand_trainer(&w.network, 1);
    let before_labeled = trainer.artifact().motifs.motif_count();
    let path_base = 3 * TRIANGLES;
    let cuts: Vec<(u32, u32)> = (0..PATHS)
        .map(|p| (path_base + 3 * p + 1, path_base + 3 * p + 2))
        .collect();
    let report = trainer
        .apply_delta(&EdgeDelta::new(&[], &cuts), &RunContext::unbounded())
        .expect("cutting existing edges is valid");
    assert_eq!(report.motif_count, 1, "only the triangle class survives");
    let after_labeled = trainer.artifact().motifs.motif_count();
    assert!(
        after_labeled < before_labeled,
        "the path class's labeled rows must leave the dictionary \
         ({before_labeled} -> {after_labeled})"
    );
    assert_eq!(
        trainer.artifact().index.motif_count(),
        after_labeled,
        "LMS/posting rows track the shrunk dictionary"
    );
    let scratch = hand_trainer(trainer.graph(), 1);
    assert_eq!(
        write_artifact(trainer.artifact()),
        write_artifact(scratch.artifact())
    );
}

/// An add-then-remove of the same edge inside one delta cancels to a
/// no-op whether or not the edge exists; the artifact bytes hold still.
#[test]
fn add_then_remove_same_edge_is_a_noop() {
    let w = hand_world();
    let mut trainer = hand_trainer(&w.network, 1);
    let before = write_artifact(trainer.artifact());
    // Absent edge: add + remove cancels.
    let absent = (0u32, 3 * TRIANGLES);
    let report = trainer
        .apply_delta(
            &EdgeDelta::new(&[absent], &[absent]),
            &RunContext::unbounded(),
        )
        .expect("cancelling pair is a valid no-op");
    assert_eq!(report.census[0].dirty_roots, 0);
    assert_eq!(write_artifact(trainer.artifact()), before);
    // Present edge: same cancellation rule.
    trainer
        .apply_delta(&EdgeDelta::new(&[(0, 1)], &[(0, 1)]), &RunContext::unbounded())
        .expect("cancelling pair is a valid no-op");
    assert_eq!(write_artifact(trainer.artifact()), before);
}

/// Malformed deltas are rejected with the typed error carrying the
/// offending pair, and the trainer's artifact does not move.
#[test]
fn invalid_deltas_are_typed_and_leave_the_artifact_alone() {
    let w = hand_world();
    let mut trainer = hand_trainer(&w.network, 1);
    let before = write_artifact(trainer.artifact());
    let absent = (0u32, 3 * TRIANGLES);
    let cases: Vec<(EdgeDelta, DeltaError)> = vec![
        (
            EdgeDelta::new(&[absent, (absent.1, absent.0)], &[]),
            DeltaError::DuplicateEdge { edge: absent },
        ),
        (
            EdgeDelta::new(&[(5, 5)], &[]),
            DeltaError::SelfLoop { edge: (5, 5) },
        ),
        (
            EdgeDelta::new(&[(1, 0)], &[]),
            DeltaError::AlreadyPresent { edge: (0, 1) },
        ),
        (
            EdgeDelta::new(&[], &[absent]),
            DeltaError::NotPresent { edge: absent },
        ),
    ];
    for (delta, want) in cases {
        let got = trainer
            .apply_delta(&delta, &RunContext::unbounded())
            .expect_err("malformed delta must be rejected");
        assert_eq!(got, want);
        assert_eq!(write_artifact(trainer.artifact()), before);
    }
}

/// End to end: apply a delta, persist through the crash-safe store,
/// epoch-swap the live server; answers on both sides of the swap are
/// bit-exact against the artifact of the epoch they report.
#[test]
fn publish_delta_swaps_the_live_server() {
    let w = hand_world();
    let mut trainer = hand_trainer(&w.network, 1);
    let ctx = Arc::new(RunContext::unbounded());
    let store = ArtifactStore::open(test_dir("publish_delta_swaps")).expect("fresh store opens");
    let first = Arc::new(trainer.artifact().clone());
    let server = Server::start(first.clone(), ServeConfig::default(), ctx.clone());

    let probe = 0usize;
    let pre = server.query(probe).expect("in-range protein");
    let mut scratch = PredictScratch::new();
    let (want, _) = first.predict_into(probe, &mut scratch);
    assert_eq!(pre.ranked, want, "pre-swap answer matches epoch-0 artifact");

    trainer
        .apply_delta(&EdgeDelta::new(&[], &[(0, 1)]), &RunContext::unbounded())
        .expect("cutting an existing edge is valid");
    let (generation, epoch) =
        publish_delta(trainer.artifact(), &store, &server, &ctx).expect("publish succeeds");
    assert_eq!(epoch, 1, "swap bumps the served epoch");

    let post = server.query(probe).expect("in-range protein");
    assert_eq!(post.epoch, epoch);
    let (want, _) = trainer.artifact().predict_into(probe, &mut scratch);
    assert_eq!(post.ranked, want, "post-swap answer matches the patched artifact");

    let recovered = store.recover().expect("store recovers");
    assert_eq!(recovered.generation, generation);
    assert_eq!(
        write_artifact(&recovered.artifact),
        write_artifact(trainer.artifact()),
        "store round-trips the patched artifact byte-identically"
    );
    server.shutdown();
}

/// Fresh per-test directory under the cargo-managed tmp root.
fn test_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}
