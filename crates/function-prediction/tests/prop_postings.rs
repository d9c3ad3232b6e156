//! Property-based byte-identity oracle for the posting-list predictor:
//! [`PostingIndex::predict_into`] and [`LabeledMotifPredictor`]'s score
//! rows must reproduce the full scan (`support/full_scan.rs`) *bit for
//! bit* on arbitrary worlds — mixed motif sizes, repeated proteins
//! within an occurrence, zero-strength motifs, unannotated proteins, and
//! empty dictionaries. Equal-up-to-epsilon is not enough: the serving
//! layer promises byte-identical artifacts, and leave-one-out evaluation
//! reads the raw rows, so the score accumulation order itself is the
//! contract.

#[path = "support/full_scan.rs"]
mod full_scan;

use full_scan::full_scan_scores;
use function_prediction::{
    rank_scores, FunctionPredictor, LabeledMotifPredictor, PostingIndex, PredictScratch,
    PredictionContext,
};
use go_ontology::{Namespace, TermId};
use lamofinder::{LabeledMotif, LabelingScheme, VertexLabel};
use motif_finder::Occurrence;
use ppi_graph::{Graph, VertexId};
use proptest::prelude::*;

/// Random prediction world: `n` proteins with sparse annotations, and a
/// motif dictionary of mixed sizes with arbitrary occurrence placements
/// (including a protein occupying several positions of one occurrence).
#[derive(Debug, Clone)]
struct World {
    n: usize,
    cats: usize,
    functions: Vec<Vec<usize>>,
    /// Per motif: (size, flat vertex seed, uniqueness percent or None).
    /// The Option is seeded as (has, percent) — the vendored proptest
    /// subset has no `option::of` combinator.
    motif_seeds: Vec<(usize, Vec<u32>, (bool, u8))>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (4usize..14, 2usize..5).prop_flat_map(|(n, cats)| {
        (
            proptest::collection::vec(proptest::collection::vec(0..cats, 0..3), n..=n),
            proptest::collection::vec(
                (
                    2usize..5,
                    proptest::collection::vec(any::<u32>(), 0..24),
                    (any::<bool>(), 0u8..=100),
                ),
                0..5,
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

fn edge_motif(pairs: &[(u32, u32)]) -> LabeledMotif {
    LabeledMotif {
        pattern: Graph::from_edges(2, &[(0, 1)]),
        namespace: Namespace::BiologicalProcess,
        scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
        occurrences: pairs
            .iter()
            .map(|&(a, b)| Occurrence::new(vec![VertexId(a), VertexId(b)]))
            .collect(),
        motif_frequency: pairs.len(),
        uniqueness: Some(1.0),
    }
}

/// The posting path against the full scan on one fixed world: ranked
/// answers, each score's bits and the postings consumed.
fn parity_case(motifs: Vec<LabeledMotif>, functions: Vec<Vec<usize>>, c_n: usize) {
    let network = Graph::empty(functions.len());
    let ctx = PredictionContext {
        network: &network,
        functions: &functions,
        n_categories: c_n,
        category_terms: &(0..c_n).map(|i| TermId(i as u32)).collect::<Vec<_>>(),
    };
    let oracle = full_scan_scores(&motifs, &ctx);
    let index = PostingIndex::build(&motifs, &functions, c_n);
    index.validate().unwrap();
    let mut scratch = PredictScratch::new();
    let mut want = Vec::new();
    assert_eq!(oracle.len(), functions.len());
    for (p, expected) in oracle.iter().enumerate() {
        let (got, consumed) = index.predict_into(p, &mut scratch);
        rank_scores(expected, &mut want);
        assert_eq!(got, &want[..], "protein {p}");
        assert_eq!(consumed, index.postings_of(p).len());
        for (c, score) in got {
            assert!(
                expected[*c as usize].to_bits() == score.to_bits(),
                "protein {p} category {c}"
            );
        }
    }
}

#[test]
fn matches_full_scan_on_shared_positions() {
    let motifs = vec![edge_motif(&[(0, 1), (2, 3), (0, 3), (4, 1)])];
    let functions = vec![vec![0], vec![1], vec![0, 1], vec![1], vec![0]];
    parity_case(motifs, functions, 2);
}

#[test]
fn matches_full_scan_with_multiple_motifs_and_zero_strength() {
    let mut weak = edge_motif(&[(5, 6)]);
    weak.uniqueness = Some(0.0); // raw 0 within its size class ⇒ but
                                 // max is positive, so LMS = 0 ⇒ skipped
    let motifs = vec![
        edge_motif(&[(0, 1), (2, 1), (3, 1)]),
        weak,
        edge_motif(&[(4, 5), (6, 5)]),
    ];
    let functions = vec![
        vec![0],
        vec![1],
        vec![2],
        vec![0, 2],
        vec![1],
        vec![2],
        vec![],
    ];
    parity_case(motifs, functions, 3);
}

#[test]
fn empty_dictionary_and_unannotated_proteins() {
    parity_case(Vec::new(), vec![vec![], vec![0]], 2);
}

fn build_motifs(w: &World) -> Vec<LabeledMotif> {
    w.motif_seeds
        .iter()
        .map(|(k, seed, uniq)| {
            let occurrences: Vec<Occurrence> = seed
                .chunks_exact(*k)
                .map(|chunk| {
                    Occurrence::new(chunk.iter().map(|&v| VertexId(v % w.n as u32)).collect())
                })
                .collect();
            let edges: Vec<(u32, u32)> = (0..*k as u32 - 1).map(|i| (i, i + 1)).collect();
            LabeledMotif {
                pattern: Graph::from_edges(*k, &edges),
                namespace: Namespace::BiologicalProcess,
                scheme: LabelingScheme::new(vec![VertexLabel::unknown(); *k]),
                motif_frequency: occurrences.len(),
                occurrences,
                uniqueness: uniq.0.then(|| f64::from(uniq.1) / 100.0),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole parity law: for every protein, the posting path's
    /// ranked output equals ranking the oracle's score row, and each
    /// score matches the oracle's f64 down to the last bit.
    #[test]
    fn posting_predict_is_bitwise_identical_to_full_scan(w in world_strategy()) {
        let motifs = build_motifs(&w);
        let network = Graph::empty(w.n);
        let terms: Vec<TermId> = (0..w.cats as u32).map(TermId).collect();
        let ctx = PredictionContext {
            network: &network,
            functions: &w.functions,
            n_categories: w.cats,
            category_terms: &terms,
        };
        let oracle = full_scan_scores(&motifs, &ctx);

        let index = PostingIndex::build(&motifs, &w.functions, w.cats);
        prop_assert!(index.validate().is_ok());
        let mut scratch = PredictScratch::new();
        let mut want = Vec::new();
        prop_assert_eq!(oracle.len(), w.n);
        for (p, expected) in oracle.iter().enumerate() {
            let (got, consumed) = index.predict_into(p, &mut scratch);
            prop_assert_eq!(consumed, index.postings_of(p).len());
            rank_scores(expected, &mut want);
            prop_assert_eq!(got.len(), want.len());
            for (g, o) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, o.0, "protein {} rank order", p);
                prop_assert_eq!(
                    g.1.to_bits(),
                    o.1.to_bits(),
                    "protein {} category {}: {} vs {}", p, g.0, g.1, o.1
                );
            }
        }
    }

    /// The evaluation predictor's raw score rows — what leave-one-out
    /// curves read — equal the full scan's, bit for bit.
    #[test]
    fn predictor_rows_are_bitwise_identical_to_full_scan(w in world_strategy()) {
        let motifs = build_motifs(&w);
        let network = Graph::empty(w.n);
        let terms: Vec<TermId> = (0..w.cats as u32).map(TermId).collect();
        let ctx = PredictionContext {
            network: &network,
            functions: &w.functions,
            n_categories: w.cats,
            category_terms: &terms,
        };
        let oracle = full_scan_scores(&motifs, &ctx);
        let rows = LabeledMotifPredictor::new(motifs).predict_all(&ctx);
        prop_assert_eq!(rows.len(), oracle.len());
        for (p, (row, expected)) in rows.iter().zip(&oracle).enumerate() {
            prop_assert_eq!(row.len(), expected.len(), "protein {}", p);
            for (c, (got, want)) in row.iter().zip(expected).enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "protein {} category {}: {} vs {}", p, c, got, want
                );
            }
        }
    }

    /// Work bound: predict touches exactly the protein's postings —
    /// their count equals the protein's occupancy over all positive-LMS
    /// motifs, independent of dictionary size.
    #[test]
    fn posting_count_equals_positive_strength_occupancy(w in world_strategy()) {
        let motifs = build_motifs(&w);
        let predictor = LabeledMotifPredictor::new(motifs.clone());
        let index = PostingIndex::build(&motifs, &w.functions, w.cats);
        for p in 0..w.n {
            let manual: usize = motifs
                .iter()
                .enumerate()
                .filter(|(mi, _)| predictor.lms(*mi) > 0.0)
                .map(|(_, m)| {
                    m.occurrences
                        .iter()
                        .flat_map(|o| &o.vertices)
                        .filter(|v| v.index() == p)
                        .count()
                })
                .sum();
            prop_assert_eq!(index.postings_of(p).len(), manual, "protein {}", p);
        }
    }
}
