//! Chaos harness for the serving layer (ISSUE 9 tentpole, axis 4).
//!
//! Every test drives the server through a deterministic, seeded
//! [`FaultPlan`] over the `serve.*` faultpoint sites and checks the
//! three robustness invariants:
//!
//! 1. **No hang** — every test runs to completion; every `wait()`
//!    returns.
//! 2. **Exactly one typed answer** — each `submit` either refuses with
//!    a typed [`ServeError`] or yields a handle that resolves to
//!    exactly one `Ok(prediction)` / typed error; predictions are
//!    bit-exact against the artifact of the epoch they report.
//! 3. **The store always reopens good** — after any mix of crashed and
//!    successful publishes, [`ArtifactStore::recover`] returns the
//!    newest generation that actually completed.
//!
//! Faults are injected, never random at run time: the same seed replays
//! the same storm, so a failure here is a repro, not a flake.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use function_prediction::{PredictScratch, PredictionContext};
use go_ontology::{Namespace, TermId};
use lamo_serve::{
    AdmissionPolicy, ArtifactStore, ModelArtifact, Prediction, ServeConfig, ServeError, Server,
    StoreError,
};
use lamofinder::{LabeledMotif, LabelingScheme, VertexLabel};
use motif_finder::Occurrence;
use par_util::{FaultAction, FaultPlan, RunContext};
use ppi_graph::{Graph, VertexId};

/// The serving-side injection sites (the store site is exercised by
/// [`crashed_publishes_never_cost_the_store_a_good_generation`]).
const SERVER_SITES: &[&str] = &[
    "serve.admission",
    "serve.dequeue",
    "serve.predict",
    "serve.fulfill",
    "serve.swap",
];

/// Number of proteins in every test artifact (one shared network, so
/// any protein id is valid against any epoch).
const PROTEINS: usize = 3;

/// Small deterministic artifact; `variant` perturbs the annotations so
/// distinct epochs rank differently.
fn artifact(variant: usize) -> Arc<ModelArtifact> {
    let motifs = vec![LabeledMotif {
        pattern: Graph::from_edges(2, &[(0, 1)]),
        namespace: Namespace::BiologicalProcess,
        scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
        occurrences: vec![
            Occurrence::new(vec![VertexId(0), VertexId(1)]),
            Occurrence::new(vec![VertexId(1), VertexId(2)]),
        ],
        motif_frequency: 2,
        uniqueness: Some(1.0),
    }];
    let network = Graph::from_edges(PROTEINS, &[(0, 1), (1, 2)]);
    let functions = vec![vec![variant % 2], vec![0], vec![1]];
    let terms = vec![TermId(10), TermId(20)];
    Arc::new(ModelArtifact::build(
        &motifs,
        &PredictionContext {
            network: &network,
            functions: &functions,
            n_categories: 2,
            category_terms: &terms,
        },
    ))
}

/// Assert a served prediction is bit-exact against the artifact of the
/// epoch it reports.
fn assert_oracle_exact(got: &Prediction, epochs: &[&ModelArtifact]) {
    let source = epochs
        .get(got.epoch as usize)
        .unwrap_or_else(|| panic!("prediction reports unknown epoch {}", got.epoch));
    let mut scratch = PredictScratch::new();
    let (want, postings) = source.predict_into(got.protein, &mut scratch);
    assert_eq!(got.postings, postings, "postings drift at p={}", got.protein);
    assert_eq!(got.ranked.len(), want.len());
    for ((gc, gs), (wc, ws)) in got.ranked.iter().zip(want) {
        assert_eq!(gc, wc, "ranking drift at p={}", got.protein);
        assert_eq!(
            gs.to_bits(),
            ws.to_bits(),
            "score drift at p={} epoch={}",
            got.protein,
            got.epoch
        );
    }
}

/// Seeded storms over every serving site, at 1/2/4 workers, with a
/// mid-stream (and itself fault-exposed) hot swap. Client-side tallies
/// must agree exactly with the server's counters.
#[test]
fn seeded_chaos_storms_never_drop_an_answer() {
    let a1 = artifact(0);
    let a2 = artifact(1);
    for seed in 0..6u64 {
        for workers in [1usize, 2, 4] {
            let plan = FaultPlan::seeded(seed, SERVER_SITES, 10, 24);
            let server = Server::start(
                Arc::clone(&a1),
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
                Arc::new(RunContext::metered().with_faults(plan)),
            );
            let mut pending = Vec::new();
            for round in 0..4usize {
                for p in 0..PROTEINS {
                    match server.submit(p) {
                        Ok(handle) => pending.push(handle),
                        // A storm may refuse at admission — but only
                        // with a typed reason.
                        Err(
                            ServeError::WorkerPanicked
                            | ServeError::Cancelled
                            | ServeError::Overloaded { .. },
                        ) => {}
                        Err(other) => panic!("untyped admission refusal: {other}"),
                    }
                }
                if round == 1 {
                    // The swap races the storm; `serve.swap` may crash
                    // it, in which case the old epoch keeps serving.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        server.swap_artifact(Arc::clone(&a2))
                    }));
                }
            }
            let accepted = pending.len() as u64;
            let (mut ok, mut panicked) = (0u64, 0u64);
            for handle in pending {
                match handle.wait() {
                    Ok(prediction) => {
                        ok += 1;
                        assert_oracle_exact(&prediction, &[&a1, &a2]);
                    }
                    Err(ServeError::WorkerPanicked) => panicked += 1,
                    Err(ServeError::Cancelled) => {}
                    Err(other) => {
                        panic!("seed={seed} workers={workers}: untyped answer: {other}")
                    }
                }
            }
            let stats = server.stats();
            assert_eq!(stats.accepted, accepted, "seed={seed} workers={workers}");
            assert_eq!(stats.answered, ok, "seed={seed} workers={workers}");
            assert_eq!(stats.panicked, panicked, "seed={seed} workers={workers}");
            server.shutdown();
        }
    }
}

/// A panic storm that crashes the first K predictions outright: every
/// crashed request degrades to `WorkerPanicked`, every later request is
/// served exactly, and the counters account for each one.
#[test]
fn predict_panic_storm_degrades_each_crash_to_a_typed_answer() {
    const STORM: u64 = 8;
    const REQUESTS: usize = 24;
    let a = artifact(0);
    for workers in [1usize, 2, 4] {
        let mut plan = FaultPlan::new();
        for hit in 0..STORM {
            plan = plan.inject("serve.predict", hit, FaultAction::Panic);
        }
        let server = Server::start(
            Arc::clone(&a),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            Arc::new(RunContext::unbounded().with_faults(plan)),
        );
        let pending: Vec<_> = (0..REQUESTS)
            .map(|i| server.submit(i % PROTEINS).expect("in-range submit"))
            .collect();
        let (mut ok, mut panicked) = (0u64, 0u64);
        for handle in pending {
            match handle.wait() {
                Ok(prediction) => {
                    ok += 1;
                    assert_oracle_exact(&prediction, &[&a]);
                }
                Err(ServeError::WorkerPanicked) => panicked += 1,
                Err(other) => panic!("workers={workers}: unexpected answer: {other}"),
            }
        }
        assert_eq!(panicked, STORM, "exactly the armed hits crash");
        assert_eq!(ok, REQUESTS as u64 - STORM);
        // The pool survived the storm: it still serves, exactly.
        let after = server.query(0).expect("server alive after the storm");
        assert_oracle_exact(&after, &[&a]);
        let stats = server.stats();
        assert_eq!(stats.panicked, STORM);
        assert_eq!(stats.answered, ok + 1);
        server.shutdown();
    }
}

/// Multi-threaded submitters hammer a depth-1 queue under `Shed`:
/// client-observed refusals and acceptances must tally exactly with the
/// server's counters, and every accepted request resolves. The run is
/// metered, and every tick it spent is an answered query's postings:
/// a shed costs O(1) and walks no postings.
#[test]
fn saturation_storm_sheds_typed_and_loses_nothing() {
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 200;
    let a = artifact(0);
    let ctx = Arc::new(RunContext::metered());
    let server = Server::start(
        Arc::clone(&a),
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            admission: AdmissionPolicy::Shed,
        },
        Arc::clone(&ctx),
    );
    let (ok, shed, postings) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|c| {
                let server = &server;
                let a = &a;
                scope.spawn(move || {
                    let (mut ok, mut shed, mut postings) = (0u64, 0u64, 0u64);
                    for i in 0..PER_THREAD {
                        match server.submit((c + i) % PROTEINS) {
                            Ok(handle) => {
                                let got = handle.wait().expect("accepted request is served");
                                assert_oracle_exact(&got, &[a.as_ref()]);
                                ok += 1;
                                postings += got.postings as u64;
                            }
                            Err(ServeError::Overloaded { depth }) => {
                                assert_eq!(depth, 1, "shed reports the configured depth");
                                shed += 1;
                            }
                            Err(other) => panic!("unexpected refusal: {other}"),
                        }
                    }
                    (ok, shed, postings)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread must not panic"))
            .fold((0u64, 0u64, 0u64), |(a, b, c), (d, e, f)| {
                (a + d, b + e, c + f)
            })
    });
    assert_eq!(ok + shed, (SUBMITTERS * PER_THREAD) as u64);
    let stats = server.stats();
    assert_eq!(stats.accepted, ok);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.answered, ok);
    // A worker charges its ticks after delivering the answer; shutdown
    // joins the workers, so every charge has landed.
    server.shutdown();
    assert!(postings > 0, "answered queries walk postings");
    assert_eq!(
        ctx.ticks_spent(),
        postings,
        "shed requests must consume zero postings (O(1) shed)"
    );
}

/// The same storm under `Block`: nothing is shed — submitters park on
/// the full queue and every one of them is eventually admitted and
/// served. Completing at all proves no lost wakeup.
#[test]
fn saturation_storm_under_block_parks_instead_of_shedding() {
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 100;
    let a = artifact(0);
    let server = Server::start(
        Arc::clone(&a),
        ServeConfig {
            workers: 2,
            queue_depth: 1,
            admission: AdmissionPolicy::Block,
        },
        Arc::new(RunContext::unbounded()),
    );
    let served = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|c| {
                let server = &server;
                let a = &a;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let got = server
                            .submit((c + i) % PROTEINS)
                            .expect("Block admission never sheds")
                            .wait()
                            .expect("admitted request is served");
                        assert_oracle_exact(&got, &[a.as_ref()]);
                    }
                    PER_THREAD as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread must not panic"))
            .sum::<u64>()
    });
    let stats = server.stats();
    assert_eq!(served, (SUBMITTERS * PER_THREAD) as u64);
    assert_eq!(stats.accepted, served);
    assert_eq!(stats.answered, served);
    assert_eq!(stats.shed, 0, "Block parks; it never sheds");
    server.shutdown();
}

/// A crash injected inside `swap_artifact` leaves the old epoch
/// serving; the next swap succeeds and the epoch advances exactly once.
#[test]
fn crashed_swap_leaves_the_old_epoch_serving() {
    let a1 = artifact(0);
    let a2 = artifact(1);
    let plan = FaultPlan::new().inject("serve.swap", 0, FaultAction::Panic);
    let server = Server::start(
        Arc::clone(&a1),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::new(RunContext::unbounded().with_faults(plan)),
    );

    let crashed = catch_unwind(AssertUnwindSafe(|| server.swap_artifact(Arc::clone(&a2))));
    assert!(crashed.is_err(), "armed swap crashes");
    assert_eq!(server.epoch(), 0, "crashed swap must not move the epoch");
    let got = server.query(0).expect("server alive after crashed swap");
    assert_eq!(got.epoch, 0);
    assert_oracle_exact(&got, &[&a1]);

    // Hit 1 is unarmed: the retry lands and the new epoch serves.
    assert_eq!(server.swap_artifact(Arc::clone(&a2)), Ok(1));
    assert_eq!(server.epoch(), 1);
    let got = server.query(0).expect("server alive after real swap");
    assert_eq!(got.epoch, 1);
    assert_oracle_exact(&got, &[&a1, &a2]);
    assert_eq!(server.stats().swaps, 1, "only the successful swap counts");
    server.shutdown();
}

/// Hot swaps while clients query: every swap advances the epoch
/// exactly once, and no query in flight across a swap fails.
#[test]
fn swaps_under_load_advance_the_epoch_once_each() {
    const SWAPS: u64 = 200;
    let epochs = [artifact(0), artifact(1)];
    // Epoch `e` serves `epochs[e % 2]`.
    let by_epoch: Vec<&ModelArtifact> = (0..=SWAPS as usize)
        .map(|e| epochs[e % 2].as_ref())
        .collect();
    let server = Server::start(
        Arc::clone(&epochs[0]),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::new(RunContext::unbounded()),
    );
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (server, stop, served, by_epoch) = (&server, &stop, &served, &by_epoch);
        let client = scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let p = served.load(Ordering::Relaxed) as usize % PROTEINS;
                let got = server
                    .query(p)
                    .expect("a query under swap load is answered");
                assert_oracle_exact(&got, by_epoch);
                served.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Swap only once the client is querying (or has failed).
        while served.load(Ordering::Relaxed) == 0 && !client.is_finished() {
            std::thread::yield_now();
        }
        for swap in 1..=SWAPS {
            let next = Arc::clone(&epochs[swap as usize % 2]);
            assert_eq!(server.swap_artifact(next), Ok(swap));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(server.epoch(), SWAPS, "each swap bumps the epoch once");
    let stats = server.stats();
    assert_eq!(stats.swaps, SWAPS);
    assert_eq!(stats.answered, served.into_inner());
    server.shutdown();
}

/// Torn-write loop: interleave crashed publishes (injected at
/// `serve.store_write`) with successful ones. After every step the
/// store reopens to the newest *completed* generation, with nothing
/// skipped — crashes are invisible, not wreckage.
#[test]
fn crashed_publishes_never_cost_the_store_a_good_generation() {
    for seed in 0..4usize {
        let dir = chaos_store_dir(&format!("torn-writes-{seed}"));
        let store = ArtifactStore::open(&dir).expect("open");
        let mut published: Vec<(u64, Arc<ModelArtifact>)> = Vec::new();
        for step in 0..6usize {
            let a = artifact(step);
            if (seed + step) % 3 == 0 {
                let ctx = RunContext::unbounded().with_faults(FaultPlan::new().inject(
                    "serve.store_write",
                    0,
                    FaultAction::Panic,
                ));
                let crashed = catch_unwind(AssertUnwindSafe(|| store.publish(&a, &ctx)));
                assert!(crashed.is_err(), "armed publish crashes in the window");
            } else {
                let generation = store
                    .publish(&a, &RunContext::unbounded())
                    .expect("clean publish");
                published.push((generation, a));
            }
            // Invariant: the store reopens to a good generation after
            // *every* step (or reports typed emptiness before the
            // first success).
            let reopened = ArtifactStore::open(&dir).expect("reopen");
            match (reopened.recover(), published.last()) {
                (Ok(recovery), Some((generation, a))) => {
                    assert_eq!(recovery.generation, *generation);
                    assert_eq!(&recovery.artifact, a.as_ref());
                    assert!(recovery.skipped.is_empty(), "crashes leave no wreckage");
                }
                (Err(StoreError::NoGoodGeneration { skipped }), None) => {
                    assert!(skipped.is_empty())
                }
                (Ok(recovery), None) => {
                    panic!("recovered gen {} before any publish", recovery.generation)
                }
                (Err(err), _) => panic!("seed={seed} step={step}: {err}"),
            }
        }
        assert!(!published.is_empty(), "every seed lands some publishes");
    }
}

/// End-to-end crash loop: recover from the store, serve, hot-swap in a
/// freshly recovered artifact — the full restart path the fault model
/// promises.
#[test]
fn recovered_artifact_swaps_into_a_live_server() {
    let dir = chaos_store_dir("recover-swap");
    let store = ArtifactStore::open(&dir).expect("open");
    let ctx = RunContext::unbounded();
    store.publish(&artifact(0), &ctx).expect("gen 0");

    let recovered = Arc::new(store.recover().expect("good store").artifact);
    let server = Server::start(
        Arc::clone(&recovered),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::new(RunContext::unbounded()),
    );
    let got = server.query(1).expect("recovered artifact serves");
    assert_oracle_exact(&got, &[&recovered]);

    // Publish a new generation and roll the live server onto it.
    store.publish(&artifact(1), &ctx).expect("gen 1");
    let next = Arc::new(store.recover().expect("good store").artifact);
    assert_eq!(server.swap_artifact(Arc::clone(&next)), Ok(1));
    let got = server.query(1).expect("swapped artifact serves");
    assert_eq!(got.epoch, 1);
    assert_oracle_exact(&got, &[&recovered, &next]);
    server.shutdown();
}

/// Fresh per-test directory under the cargo-managed tmp root.
fn chaos_store_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}
