//! Property-based tests for the prediction stack: score-matrix
//! invariants shared by all methods, PR-curve laws, and distance metric
//! properties.

use function_prediction::{
    czekanowski_dice, neighbor_joining, Chi2Predictor, FunctionPredictor, LeaveOneOut,
    MrfPredictor, NeighborCountingPredictor, PredictionContext, ProdistinPredictor,
};
use go_ontology::TermId;
use ppi_graph::{Graph, VertexId};
use proptest::prelude::*;

fn world_strategy() -> impl Strategy<Value = (Graph, Vec<Vec<usize>>)> {
    (4usize..16, 2usize..5).prop_flat_map(|(n, cats)| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n),
            proptest::collection::vec(
                proptest::collection::vec(0..cats, 0..3),
                n..=n,
            ),
        )
            .prop_map(move |(edges, mut functions)| {
                for f in &mut functions {
                    f.sort_unstable();
                    f.dedup();
                }
                (Graph::from_edges(n, &edges), functions)
            })
    })
}

fn n_categories(functions: &[Vec<usize>]) -> usize {
    functions
        .iter()
        .flat_map(|f| f.iter().copied())
        .max()
        .map_or(1, |m| m + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_methods_produce_finite_full_matrices((g, functions) in world_strategy()) {
        let cats = n_categories(&functions);
        let terms: Vec<TermId> = (0..cats as u32).map(TermId).collect();
        let ctx = PredictionContext {
            network: &g,
            functions: &functions,
            n_categories: cats,
            category_terms: &terms,
        };
        let mrf = MrfPredictor { folds: 3, iterations: 5, beta: 1.0 };
        let prodistin = ProdistinPredictor::default();
        let methods: Vec<&dyn FunctionPredictor> =
            vec![&NeighborCountingPredictor, &Chi2Predictor, &mrf, &prodistin];
        for m in methods {
            let scores = m.predict_all(&ctx);
            prop_assert_eq!(scores.len(), g.vertex_count(), "{}", m.name());
            for row in &scores {
                prop_assert_eq!(row.len(), cats);
                for &s in row {
                    prop_assert!(s.is_finite(), "{} produced {}", m.name(), s);
                }
            }
        }
    }

    #[test]
    fn pr_curve_recall_is_monotone_in_k((g, functions) in world_strategy()) {
        let cats = n_categories(&functions);
        let terms: Vec<TermId> = (0..cats as u32).map(TermId).collect();
        let ctx = PredictionContext {
            network: &g,
            functions: &functions,
            n_categories: cats,
            category_terms: &terms,
        };
        let curve = LeaveOneOut.evaluate(&ctx, &NeighborCountingPredictor);
        prop_assert_eq!(curve.points.len(), cats);
        let mut prev = 0.0;
        for p in &curve.points {
            prop_assert!((0.0..=1.0).contains(&p.precision));
            prop_assert!((0.0..=1.0).contains(&p.recall));
            prop_assert!(p.recall >= prev - 1e-12);
            prev = p.recall;
        }
    }

    #[test]
    fn czekanowski_dice_is_a_bounded_symmetric_distance((g, _) in world_strategy()) {
        let n = g.vertex_count() as u32;
        for i in 0..n.min(6) {
            prop_assert_eq!(czekanowski_dice(&g, VertexId(i), VertexId(i)), 0.0);
            for j in 0..n.min(6) {
                let d = czekanowski_dice(&g, VertexId(i), VertexId(j));
                prop_assert!((0.0..=1.0).contains(&d));
                prop_assert!(
                    (d - czekanowski_dice(&g, VertexId(j), VertexId(i))).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn nj_tree_structure_is_sound(
        n in 3usize..10,
        seed in proptest::collection::vec(0.01f64..1.0, 64),
    ) {
        // Build a random symmetric distance matrix.
        let mut d = vec![vec![0.0; n]; n];
        let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        for ((i, j), v) in pairs.zip(seed.into_iter().cycle()) {
            d[i][j] = v;
            d[j][i] = v;
        }
        let tree = neighbor_joining(&d);
        prop_assert_eq!(tree.n_leaves, n);
        let root = tree.parent.len() - 1;
        prop_assert_eq!(tree.leaves_under(root).len(), n);
        // Every non-root node's parent lists it as a child.
        for v in 0..tree.parent.len() {
            match tree.parent[v] {
                Some(p) => prop_assert!(tree.children[p].contains(&v)),
                None => prop_assert_eq!(v, root),
            }
        }
        // Leaves have no children; internal nodes have >= 2.
        for v in 0..tree.parent.len() {
            if v < n {
                prop_assert!(tree.children[v].is_empty());
            } else {
                prop_assert!(tree.children[v].len() >= 2);
            }
        }
    }

    #[test]
    fn nc_scores_equal_manual_neighbor_count((g, functions) in world_strategy()) {
        let cats = n_categories(&functions);
        let terms: Vec<TermId> = (0..cats as u32).map(TermId).collect();
        let ctx = PredictionContext {
            network: &g,
            functions: &functions,
            n_categories: cats,
            category_terms: &terms,
        };
        let scores = NeighborCountingPredictor.predict_all(&ctx);
        prop_assert_eq!(scores.len(), g.vertex_count());
        for (p, row) in scores.iter().enumerate() {
            prop_assert_eq!(row.len(), cats);
            for (c, &score) in row.iter().enumerate() {
                let manual = g
                    .neighbors(VertexId(p as u32))
                    .iter()
                    .filter(|&&u| functions[u as usize].contains(&c))
                    .count() as f64;
                prop_assert_eq!(score, manual);
            }
        }
    }
}
