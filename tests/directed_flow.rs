//! Integration test: the directed-motif future-work extension —
//! directed mining on a GRN, uniqueness via arc swaps, and labeling with
//! direction-aware symmetry.

use go_ontology::{InformativeConfig, Namespace, ProteinId};
use lamofinder::{ClusteringConfig, LaMoFinder, LaMoFinderConfig, MotifSymmetry};
use motif_finder::find_directed_motifs;
use ppi_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use synthetic_data::{GrnConfig, GrnDataset};

fn dataset() -> GrnDataset {
    GrnDataset::generate(&GrnConfig::default())
}

/// Biological-process labeling tuned to the small GRN fixture.
fn grn_config(threads: usize) -> LaMoFinderConfig {
    LaMoFinderConfig {
        namespace: Namespace::BiologicalProcess,
        informative: InformativeConfig {
            min_direct: 4,
            ..Default::default()
        },
        clustering: ClusteringConfig {
            sigma: 4,
            ..Default::default()
        },
        threads,
        ..Default::default()
    }
}

#[test]
fn ffl_is_found_as_a_directed_motif() {
    let d = dataset();
    let mut rng = SmallRng::seed_from_u64(3);
    let motifs = find_directed_motifs(&d.network, 3, 20, 8, 0.8, 500, &mut rng);
    assert!(!motifs.is_empty());
    let ffl_pattern = DiGraph::from_arcs(3, &[(0, 1), (0, 2), (1, 2)]);
    let ffl = motifs
        .iter()
        .find(|m| ppi_graph::are_digraphs_isomorphic(&m.pattern, &ffl_pattern));
    let ffl = ffl.expect("FFL must be a motif in a GRN with 30 planted FFLs");
    assert!(ffl.frequency >= 30);
    assert!(ffl.validate_against(&d.network));
}

#[test]
fn directed_labeling_separates_regulator_and_target_roles() {
    let d = dataset();
    let mut rng = SmallRng::seed_from_u64(3);
    let motifs = find_directed_motifs(&d.network, 3, 20, 6, 0.8, 500, &mut rng);
    let labeler = LaMoFinder::new(&d.ontology, &d.annotations, grn_config(0));
    let labeled = labeler.label_directed_motifs(&motifs);
    assert!(!labeled.is_empty(), "directed labeling must produce motifs");
    for lm in &labeled {
        assert!(lm.support() >= 4);
        assert!(!lm.scheme.is_all_unknown());
        // Labels conform: each label covers an annotation of the protein
        // at that position in every occurrence (namespace-aware rule).
        for occ in &lm.occurrences {
            for (label, &v) in lm.scheme.labels.iter().zip(&occ.vertices) {
                if label.is_unknown() {
                    continue;
                }
                let terms = d.annotations.terms_of(ProteinId(v.0));
                if terms.is_empty() {
                    continue;
                }
                for &t in &label.terms {
                    assert!(
                        terms.iter().any(|&a| d.ontology.is_same_or_ancestor(t, a)),
                        "label must cover an annotation"
                    );
                }
            }
        }
    }
}

#[test]
fn directed_labeling_is_identical_at_any_thread_count() {
    let d = dataset();
    let mut rng = SmallRng::seed_from_u64(3);
    // Uniqueness threshold 0: every frequent class is labeled, so the
    // slice holds several motifs.
    let motifs = find_directed_motifs(&d.network, 3, 20, 6, 0.0, 500, &mut rng);
    assert!(motifs.len() > 1, "the multi-motif slice must fan out over motifs");
    // Several motifs fan out at the motif level; a single motif moves
    // the thread budget into its SO matrix rows.
    for slice in [&motifs[..], &motifs[..1]] {
        let render = |threads: usize| {
            let labeler = LaMoFinder::new(&d.ontology, &d.annotations, grn_config(threads));
            format!("{:?}", labeler.label_directed_motifs(slice))
        };
        let serial = render(1);
        assert!(serial.contains("LabeledDirectedMotif"), "the slice labels something");
        for threads in [2, 4] {
            assert_eq!(render(threads), serial, "threads {threads}, {} motifs", slice.len());
        }
    }
}

#[test]
fn directed_symmetry_is_finer_than_skeleton_symmetry() {
    let ffl = DiGraph::from_arcs(3, &[(0, 1), (0, 2), (1, 2)]);
    let directed = MotifSymmetry::directed(&ffl, 64);
    assert_eq!(directed.orbits.len(), 3, "FFL roles are all distinct");
    assert_eq!(directed.autos.len(), 1, "FFL is rigid");
    let undirected = MotifSymmetry::undirected(&ffl.skeleton(), 64);
    assert_eq!(undirected.orbits.len(), 1, "skeleton triangle is transitive");

    // Bi-fan: directed orbits pair regulators and pair targets.
    let bifan = DiGraph::from_arcs(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
    let sym = MotifSymmetry::directed(&bifan, 64);
    assert_eq!(sym.orbits, vec![vec![0, 1], vec![2, 3]]);
    assert_eq!(sym.classes, vec![vec![0, 1], vec![2, 3]]);
}
