//! Property-based byte-identity tests for the dense labeling path: the
//! precomputed ST/SV planes must equal the memoized [`TermSimilarity`]
//! oracle bit for bit — the SO matrix entry-wise at thread counts
//! {1, 2, 4}, and the end-to-end labeled output of [`LaMoFinder`]
//! against a clustering run over a [`LabelContext`] with no planes.

use go_ontology::{
    Annotations, DenseSimPlanes, InformativeConfig, Namespace, Ontology, OntologyBuilder,
    ProteinId, Relation, TermId, TermSimilarity, TermWeights,
};
use lamofinder::{
    cluster_occurrences, compute_frontier, so_matrix, ClusteringConfig, LaMoFinder,
    LaMoFinderConfig, LabelContext, MotifSymmetry, OccurrenceScorer,
};
use motif_finder::{Motif, Occurrence};
use par_util::RunContext;
use ppi_graph::{Graph, VertexId};
use proptest::prelude::*;

/// Random world: chain-DAG ontology, random annotations and triangle
/// occurrences — triangles so a non-singleton orbit (all three positions
/// interchange) exercises the flat-assignment path.
#[derive(Debug, Clone)]
struct World {
    terms: usize,
    parent_seed: Vec<u32>,
    protein_terms: Vec<Vec<u32>>,
    occ_triples: Vec<(u32, u32, u32)>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        5usize..14,
        proptest::collection::vec(any::<u32>(), 16),
        proptest::collection::vec(proptest::collection::vec(0u32..14, 0..4), 9..24),
        proptest::collection::vec((0u32..24, 0u32..24, 0u32..24), 3..12),
    )
        .prop_map(|(terms, parent_seed, protein_terms, occ_triples)| World {
            terms,
            parent_seed,
            protein_terms,
            occ_triples,
        })
}

fn build(w: &World) -> (Ontology, Annotations, Vec<Occurrence>) {
    let mut b = OntologyBuilder::new();
    for i in 0..w.terms {
        b.add_term(format!("GO:{i}"), format!("t{i}"), Namespace::BiologicalProcess);
    }
    for i in 1..w.terms {
        let p = (w.parent_seed[i % w.parent_seed.len()] as usize) % i;
        b.add_edge(TermId(i as u32), TermId(p as u32), Relation::IsA);
    }
    let ontology = b.build().unwrap();
    let n = w.protein_terms.len();
    let mut ann = Annotations::new(n, w.terms);
    for (p, terms) in w.protein_terms.iter().enumerate() {
        for &t in terms {
            ann.annotate(ProteinId(p as u32), TermId(t % w.terms as u32));
        }
    }
    let occs: Vec<Occurrence> = w
        .occ_triples
        .iter()
        .map(|&(a, b, c)| (a % n as u32, b % n as u32, c % n as u32))
        .filter(|&(a, b, c)| a != b && b != c && a != c)
        .map(|(a, b, c)| Occurrence::new(vec![VertexId(a), VertexId(b), VertexId(c)]))
        .collect();
    (ontology, ann, occs)
}

fn terms_by_protein(ann: &Annotations) -> Vec<Vec<TermId>> {
    (0..ann.protein_count())
        .map(|p| ann.terms_of(ProteinId(p as u32)).to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_so_matrix_equals_memoized_at_every_thread_count(w in world_strategy()) {
        let (ontology, ann, occs) = build(&w);
        if occs.is_empty() {
            return Ok(());
        }
        let weights = TermWeights::compute(&ontology, &ann);
        let sim = TermSimilarity::new(&ontology, &weights);
        let lists = terms_by_protein(&ann);
        let planes = DenseSimPlanes::build(
            &ontology, &weights, &lists, 2, &RunContext::unbounded(),
        )
        .expect("no faults injected")
        .expect("passive context never cancels");
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let symmetry = MotifSymmetry::undirected(&pattern, 64);
        let run = RunContext::unbounded();

        let matrix = |dense: bool, threads: usize| {
            let mut scorer = OccurrenceScorer::from_orbits(
                symmetry.orbits.clone(),
                symmetry.size,
                &sim,
                &lists,
            );
            if dense {
                scorer = scorer.with_dense(&planes);
                scorer.precompute_sv_plane(&occs, &run);
            }
            so_matrix(&scorer, &occs, threads, &run).expect("no faults injected")
        };

        let reference = matrix(false, 1);
        for threads in [1usize, 2, 4] {
            let dense = matrix(true, threads);
            for (i, (dr, rr)) in dense.iter().zip(&reference).enumerate() {
                for (j, (d, r)) in dr.iter().zip(rr).enumerate() {
                    prop_assert_eq!(
                        d.to_bits(),
                        r.to_bits(),
                        "SO[{}][{}] at {} threads: {} vs {}",
                        i, j, threads, d, r
                    );
                }
            }
        }
    }

    #[test]
    fn dense_label_motifs_equals_memoized(w in world_strategy()) {
        let (ontology, ann, occs) = build(&w);
        if occs.is_empty() {
            return Ok(());
        }
        let pattern = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let motifs = vec![Motif {
            pattern,
            occurrences: occs.clone(),
            frequency: occs.len(),
            uniqueness: None,
        }];
        let clustering = ClusteringConfig {
            sigma: 2,
            ..Default::default()
        };
        let finder = |threads: usize| {
            LaMoFinder::new(&ontology, &ann, LaMoFinderConfig {
                informative: InformativeConfig {
                    min_direct: 1,
                    ..Default::default()
                },
                clustering: clustering.clone(),
                threads,
                ..Default::default()
            })
        };
        // The oracle: the same clustering over a context without dense
        // planes, so every ST/SV value comes from `TermSimilarity`.
        let oracle = finder(1);
        let sim = TermSimilarity::new(&ontology, oracle.weights());
        let frontier = compute_frontier(&ontology, oracle.informative());
        let ctx = LabelContext {
            ontology: &ontology,
            sim: &sim,
            informative: oracle.informative(),
            terms_by_protein: oracle.terms_by_protein(),
            frontier: &frontier,
            dense: None,
        };
        let memoized = cluster_occurrences(
            &motifs[0].pattern,
            &occs,
            &ctx,
            &ClusteringConfig {
                threads: 1,
                ..clustering.clone()
            },
        );
        for threads in [1usize, 2, 4] {
            let dense = finder(threads).label_motifs(&motifs);
            prop_assert_eq!(memoized.len(), dense.len());
            for (a, b) in memoized.iter().zip(&dense) {
                prop_assert_eq!(&a.scheme, &b.scheme);
                prop_assert_eq!(&a.occurrences, &b.occurrences);
                prop_assert_eq!(b.motif_frequency, occs.len());
            }
        }
    }
}
