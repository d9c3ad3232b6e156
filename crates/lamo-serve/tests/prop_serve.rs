//! Property-based contracts of the serving layer:
//!
//! * **Oracle parity** — every answer the server produces (single or
//!   batched, at 1/2/4 workers) is bitwise identical to the full-scan
//!   oracle (`function-prediction/tests/support/full_scan.rs`) on the
//!   same world.
//! * **Format totality** — [`read_artifact`] never panics, on any byte
//!   string; corruption (truncation, bit flips) surfaces as a typed
//!   [`ArtifactError`] carrying a byte offset.
//! * **Roundtrip identity** — serialize → deserialize → re-serialize is
//!   the identity on bytes, and the decoded artifact equals the source.
//! * **Epoch atomicity** — under a mid-stream [`Server::swap_artifact`],
//!   every response is bit-identical to the oracle of the *single*
//!   epoch it reports; no answer mixes artifacts.
//! * **Shutdown totality** — [`Server::shutdown_now`] with requests
//!   still queued resolves every pending slot to `Closed` or a real
//!   (oracle-exact) prediction, at workers 1/2/4 — never a hang.

#[path = "../../function-prediction/tests/support/full_scan.rs"]
mod full_scan;

use std::sync::Arc;

use full_scan::full_scan_scores;
use function_prediction::{rank_scores, PredictionContext};
use go_ontology::{Namespace, TermId};
use lamo_serve::{
    read_artifact, write_artifact, ModelArtifact, PendingQuery, ServeConfig, ServeError, Server,
};
use lamofinder::{LabeledMotif, LabelingScheme, VertexLabel};
use motif_finder::Occurrence;
use par_util::RunContext;
use ppi_graph::{Graph, VertexId};
use proptest::prelude::*;

/// Random serving world (mirrors `prop_postings.rs`: mixed motif sizes,
/// arbitrary occupancy, optional uniqueness, sparse annotations).
#[derive(Debug, Clone)]
struct World {
    n: usize,
    cats: usize,
    functions: Vec<Vec<usize>>,
    motif_seeds: Vec<(usize, Vec<u32>, (bool, u8))>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (4usize..12, 2usize..5).prop_flat_map(|(n, cats)| {
        (
            proptest::collection::vec(proptest::collection::vec(0..cats, 0..3), n..=n),
            proptest::collection::vec(
                (
                    2usize..5,
                    proptest::collection::vec(any::<u32>(), 0..20),
                    (any::<bool>(), 0u8..=100),
                ),
                0..4,
            ),
        )
            .prop_map(move |(mut functions, motif_seeds)| {
                for f in &mut functions {
                    f.sort_unstable();
                    f.dedup();
                }
                World {
                    n,
                    cats,
                    functions,
                    motif_seeds,
                }
            })
    })
}

fn build_motifs(w: &World) -> Vec<LabeledMotif> {
    w.motif_seeds
        .iter()
        .enumerate()
        .map(|(mi, (k, seed, uniq))| {
            let occurrences: Vec<Occurrence> = seed
                .chunks_exact(*k)
                .map(|chunk| {
                    Occurrence::new(chunk.iter().map(|&v| VertexId(v % w.n as u32)).collect())
                })
                .collect();
            let edges: Vec<(u32, u32)> = (0..*k as u32 - 1).map(|i| (i, i + 1)).collect();
            LabeledMotif {
                pattern: Graph::from_edges(*k, &edges),
                // Alternate namespaces so the artifact's namespace column
                // carries more than one value through the roundtrip.
                namespace: match mi % 3 {
                    0 => Namespace::BiologicalProcess,
                    1 => Namespace::MolecularFunction,
                    _ => Namespace::CellularComponent,
                },
                scheme: LabelingScheme::new(vec![VertexLabel::unknown(); *k]),
                motif_frequency: occurrences.len(),
                occurrences,
                uniqueness: uniq.0.then(|| f64::from(uniq.1) / 100.0),
            }
        })
        .collect()
}

fn build_artifact(w: &World) -> (ModelArtifact, Vec<Vec<f64>>) {
    let motifs = build_motifs(w);
    let network = Graph::empty(w.n);
    let terms: Vec<TermId> = (0..w.cats as u32).map(TermId).collect();
    let ctx = PredictionContext {
        network: &network,
        functions: &w.functions,
        n_categories: w.cats,
        category_terms: &terms,
    };
    let oracle = full_scan_scores(&motifs, &ctx);
    let artifact = ModelArtifact::build(&motifs, &ctx);
    artifact.validate().expect("built artifact validates");
    (artifact, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single and batched queries at 1, 2, and 4 workers all agree
    /// bitwise with the full-scan oracle, each reports the protein's
    /// posting count, and a metered context is charged exactly those
    /// postings (the answer-table compile at start charges nothing).
    #[test]
    fn server_answers_match_oracle_at_every_worker_count(w in world_strategy()) {
        let (artifact, oracle) = build_artifact(&w);
        let artifact = Arc::new(artifact);
        let mut want = Vec::new();
        for workers in [1usize, 2, 4] {
            let ctx = Arc::new(RunContext::metered());
            let server = Server::start(
                Arc::clone(&artifact),
                ServeConfig { workers, ..ServeConfig::default() },
                Arc::clone(&ctx),
            );
            prop_assert_eq!(ctx.ticks_spent(), 0);
            let proteins: Vec<usize> = (0..w.n).collect();
            let batched = server.query_batch(&proteins);
            let mut answered_postings = 0u64;
            for p in 0..w.n {
                let single = server.query(p).expect("in-range protein");
                let from_batch = batched[p].as_ref().expect("in-range protein");
                let postings = artifact.index.postings_of(p).len();
                rank_scores(&oracle[p], &mut want);
                prop_assert_eq!(single.protein, p);
                prop_assert_eq!(single.postings, postings, "workers={} p={}", workers, p);
                prop_assert_eq!(from_batch.postings, postings, "workers={} p={}", workers, p);
                prop_assert_eq!(&single.ranked, &want, "workers={} p={}", workers, p);
                prop_assert_eq!(&from_batch.ranked, &want, "workers={} p={}", workers, p);
                for (got, expect) in single.ranked.iter().zip(&want) {
                    prop_assert_eq!(got.1.to_bits(), expect.1.to_bits());
                }
                for (got, expect) in from_batch.ranked.iter().zip(&want) {
                    prop_assert_eq!(got.1.to_bits(), expect.1.to_bits());
                }
                answered_postings += 2 * postings as u64;
            }
            // Ticks land after delivery; joining the workers settles them.
            server.shutdown();
            prop_assert_eq!(ctx.ticks_spent(), answered_postings, "workers={}", workers);
        }
    }

    /// serialize → deserialize → serialize is the identity on bytes,
    /// and decoding reproduces the artifact exactly.
    #[test]
    fn roundtrip_is_byte_identical(w in world_strategy()) {
        let (artifact, _) = build_artifact(&w);
        let bytes = write_artifact(&artifact);
        let decoded = read_artifact(&bytes).expect("own output decodes");
        prop_assert_eq!(&decoded, &artifact);
        prop_assert_eq!(write_artifact(&decoded), bytes);
    }

    /// The decoder is total: arbitrary bytes produce `Ok` or a typed
    /// error whose offset stays within the input — never a panic.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        if let Err(e) = read_artifact(&bytes) {
            prop_assert!(e.offset <= bytes.len());
            prop_assert!(!e.to_string().is_empty());
        }
    }

    /// Every strict prefix of a valid artifact fails with a typed error
    /// (no partial decode), and its offset points into the input.
    #[test]
    fn truncation_yields_typed_error(w in world_strategy(), cut_seed in any::<u32>()) {
        let (artifact, _) = build_artifact(&w);
        let bytes = write_artifact(&artifact);
        let cut = cut_seed as usize % bytes.len();
        let err = read_artifact(&bytes[..cut]).expect_err("prefix cannot decode");
        prop_assert!(err.offset <= cut);
    }

    /// Any single bit flip is detected: magic/version/framing checks or
    /// a section checksum catch it, with the failing offset in range.
    #[test]
    fn bit_flip_yields_typed_error(w in world_strategy(), flip_seed in any::<u64>()) {
        let (artifact, _) = build_artifact(&w);
        let mut bytes = write_artifact(&artifact);
        let pos = flip_seed as usize % bytes.len();
        let bit = (flip_seed >> 32) % 8;
        bytes[pos] ^= 1 << bit;
        let err = read_artifact(&bytes).expect_err("corrupted artifact cannot decode");
        prop_assert!(err.offset <= bytes.len());
        prop_assert!(!err.to_string().is_empty());
    }

    /// Swap atomicity: queries race a hot swap between two different
    /// worlds, and every answer matches — bit for bit — the full-scan
    /// oracle of exactly the epoch it reports. A torn read (scores from
    /// one artifact, ranking or epoch from the other) cannot satisfy
    /// this for both oracles at once.
    #[test]
    fn every_response_is_bit_identical_to_one_epoch(
        w1 in world_strategy(),
        w2 in world_strategy(),
    ) {
        let (a1, oracle1) = build_artifact(&w1);
        let (a2, oracle2) = build_artifact(&w2);
        let a1 = Arc::new(a1);
        let a2 = Arc::new(a2);
        // Stay in the id range both epochs can answer, so every
        // response is a prediction carrying an epoch to check against.
        let shared = w1.n.min(w2.n);
        for workers in [1usize, 2, 4] {
            let server = Server::start(
                Arc::clone(&a1),
                ServeConfig { workers, ..ServeConfig::default() },
                Arc::new(RunContext::unbounded()),
            );
            let mut pending: Vec<(usize, PendingQuery)> = Vec::new();
            for round in 0..4usize {
                for p in 0..shared {
                    pending.push((p, server.submit(p).expect("in-range submit")));
                }
                if round == 1 {
                    server.swap_artifact(Arc::clone(&a2)).expect("valid swap");
                }
            }
            let mut want = Vec::new();
            for (p, handle) in pending {
                let got = handle.wait().expect("in-range query is served");
                let oracle = match got.epoch {
                    0 => &oracle1,
                    1 => &oracle2,
                    other => return Err(TestCaseError::fail(format!("epoch {other}"))),
                };
                rank_scores(&oracle[p], &mut want);
                prop_assert_eq!(&got.ranked, &want, "workers={} p={} epoch={}", workers, p, got.epoch);
                for (g, e) in got.ranked.iter().zip(&want) {
                    prop_assert_eq!(g.1.to_bits(), e.1.to_bits());
                }
            }
            server.shutdown();
        }
    }

    /// Shutdown totality: `shutdown_now` with a backlog still queued
    /// resolves every pending slot — each answer is either `Closed`
    /// (discarded at dequeue) or a real, oracle-exact prediction
    /// (already being served). Waiting on every handle also proves no
    /// hang at any worker count.
    #[test]
    fn shutdown_now_resolves_every_pending_slot(w in world_strategy()) {
        let (artifact, oracle) = build_artifact(&w);
        let artifact = Arc::new(artifact);
        for workers in [1usize, 2, 4] {
            let server = Server::start(
                Arc::clone(&artifact),
                ServeConfig { workers, ..ServeConfig::default() },
                Arc::new(RunContext::unbounded()),
            );
            let pending: Vec<(usize, PendingQuery)> = (0..3 * w.n)
                .map(|i| {
                    let p = i % w.n;
                    (p, server.submit(p).expect("in-range submit"))
                })
                .collect();
            let stats = server.shutdown_now();
            let mut served = 0usize;
            let mut want = Vec::new();
            for (p, handle) in pending {
                match handle.wait() {
                    Ok(prediction) => {
                        served += 1;
                        rank_scores(&oracle[p], &mut want);
                        prop_assert_eq!(&prediction.ranked, &want, "workers={} p={}", workers, p);
                    }
                    Err(ServeError::Closed) => {}
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("unexpected error: {other}")));
                    }
                }
            }
            // Sanity: the counters agree with what the clients saw.
            prop_assert_eq!(served as u64, stats.answered);
        }
    }
}
