//! Leave-one-out evaluation and precision–recall curves (Section 5.2 /
//! Figure 9).
//!
//! Following the protocol of the compared methods: for every annotated
//! protein, hide its functions, rank all categories, and take the top
//! `k` as predictions. Sweeping `k` from 1 to the number of categories
//! traces the precision–recall curve ("the k most frequent functions are
//! assigned as the k most likely functions").

use crate::context::{FunctionPredictor, PredictionContext};
use par_util::{faultpoint, run_supervised, Interrupted, RunContext};
use ppi_graph::VertexId;

/// One point of a precision–recall curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrPoint {
    /// Number of predicted functions per protein.
    pub k: usize,
    /// Micro-averaged precision.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
}

/// A named precision–recall curve.
#[derive(Clone, Debug)]
pub struct PrCurve {
    /// Method name.
    pub method: String,
    /// Points for k = 1..=n_categories.
    pub points: Vec<PrPoint>,
}

impl PrCurve {
    /// Maximum F1 over the curve (a convenient scalar summary).
    pub fn max_f1(&self) -> f64 {
        self.points
            .iter()
            .map(|p| {
                if p.precision + p.recall == 0.0 {
                    0.0
                } else {
                    2.0 * p.precision * p.recall / (p.precision + p.recall)
                }
            })
            .fold(0.0, f64::max)
    }

    /// Precision at the point whose recall first reaches `r` (linear
    /// scan; `None` if never reached).
    pub fn precision_at_recall(&self, r: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.recall >= r)
            .map(|p| p.precision)
    }
}

/// A resumable evaluation checkpoint: the curve points completed so
/// far (point `i` is always `k = i + 1`, so the prefix length alone
/// determines where to resume).
#[derive(Clone, Debug, Default)]
pub struct EvalCheckpoint {
    /// Completed prefix of the precision–recall curve.
    pub points: Vec<PrPoint>,
}

/// Leave-one-out evaluation harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeaveOneOut;

impl LeaveOneOut {
    /// Run `predictor` over every annotated protein of `ctx` and return
    /// its precision–recall curve.
    ///
    /// Legacy uninterruptible entry point: runs the supervised engine
    /// under a passive [`RunContext`].
    pub fn evaluate(
        &self,
        ctx: &PredictionContext<'_>,
        predictor: &dyn FunctionPredictor,
    ) -> PrCurve {
        let scores = predictor.predict_all(ctx);
        self.curve_from_scores(ctx, predictor.name(), &scores)
    }

    /// [`LeaveOneOut::evaluate`] under a supervising [`RunContext`].
    pub fn evaluate_supervised(
        &self,
        ctx: &PredictionContext<'_>,
        predictor: &dyn FunctionPredictor,
        run: &RunContext,
    ) -> Result<PrCurve, Interrupted<EvalCheckpoint>> {
        let scores = predictor.predict_all(ctx);
        self.resume_curve_from_scores(
            ctx,
            predictor.name(),
            &scores,
            EvalCheckpoint::default(),
            run,
        )
    }

    /// Build the curve from a precomputed score matrix.
    pub fn curve_from_scores(
        &self,
        ctx: &PredictionContext<'_>,
        name: &str,
        scores: &[Vec<f64>],
    ) -> PrCurve {
        self.resume_curve_from_scores(
            ctx,
            name,
            scores,
            EvalCheckpoint::default(),
            &RunContext::unbounded(),
        )
        .expect("a passive context without injected faults never interrupts evaluation")
    }

    /// Resume the curve sweep from `checkpoint` (completed `k` prefix)
    /// under `run`. One `k` is the checkpointable unit: scoring it
    /// costs `|eligible|` work ticks (charged up front), and every
    /// point is a pure function of `(ctx, scores, k)`, so resumption is
    /// bit-identical to an uninterrupted sweep.
    pub fn resume_curve_from_scores(
        &self,
        ctx: &PredictionContext<'_>,
        name: &str,
        scores: &[Vec<f64>],
        checkpoint: EvalCheckpoint,
        run: &RunContext,
    ) -> Result<PrCurve, Interrupted<EvalCheckpoint>> {
        let eligible: Vec<usize> = (0..ctx.protein_count())
            .filter(|&p| ctx.has_functions(VertexId(p as u32)))
            .collect();
        let total_truth: usize = eligible.iter().map(|&p| ctx.functions[p].len()).sum();

        // Per-protein category ranking (descending score, ties by id).
        let rankings: Vec<Vec<usize>> = eligible
            .iter()
            .map(|&p| {
                let mut order: Vec<usize> = (0..ctx.n_categories).collect();
                order.sort_by(|&a, &b| {
                    scores[p][b]
                        .partial_cmp(&scores[p][a])
                        .expect("prediction scores are finite by construction, so partial_cmp succeeds")
                        .then(a.cmp(&b))
                });
                order
            })
            .collect();

        let mut points = checkpoint.points;
        points.truncate(ctx.n_categories);
        for k in points.len() + 1..=ctx.n_categories {
            // Charge the whole point up front: the sweep stops *between*
            // points, never inside one, so the completed prefix is
            // always a clean checkpoint.
            if !run.tick(eligible.len() as u64) {
                return Err(Interrupted::Cancelled {
                    checkpoint: EvalCheckpoint { points },
                });
            }
            // The point is computed inside an inline supervised worker
            // so an injected (or real) panic surfaces as a typed error
            // carrying the completed prefix instead of unwinding.
            let outcome = run_supervised(1, "prediction.eval", run, |_| {
                faultpoint!(run, "prediction.eval_k");
                let mut correct = 0usize;
                let mut predicted = 0usize;
                for (idx, &p) in eligible.iter().enumerate() {
                    // Only predict categories with positive evidence;
                    // this keeps precision meaningful at large k.
                    let picks = rankings[idx]
                        .iter()
                        .take(k)
                        .filter(|&&c| scores[p][c] > 0.0);
                    for &c in picks {
                        predicted += 1;
                        if ctx.functions[p].contains(&c) {
                            correct += 1;
                        }
                    }
                }
                let precision = if predicted == 0 {
                    0.0
                } else {
                    correct as f64 / predicted as f64
                };
                let recall = if total_truth == 0 {
                    0.0
                } else {
                    correct as f64 / total_truth as f64
                };
                PrPoint {
                    k,
                    precision,
                    recall,
                }
            });
            if let Some(panic) = outcome.panic {
                return Err(Interrupted::WorkerPanicked {
                    panic,
                    checkpoint: EvalCheckpoint { points },
                });
            }
            if run.should_stop() {
                return Err(Interrupted::Cancelled {
                    checkpoint: EvalCheckpoint { points },
                });
            }
            let point = outcome
                .results
                .into_iter()
                .next()
                .expect("the single inline eval worker always returns one point");
            points.push(point);
        }
        Ok(PrCurve {
            method: name.to_string(),
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::TermId;
    use ppi_graph::Graph;

    struct Oracle;
    impl FunctionPredictor for Oracle {
        fn name(&self) -> &str {
            "oracle"
        }
        fn predict_all(&self, ctx: &PredictionContext<'_>) -> Vec<Vec<f64>> {
            // Cheats by reading the truth — allowed only inside this test.
            ctx.functions
                .iter()
                .map(|f| {
                    (0..ctx.n_categories)
                        .map(|c| if f.contains(&c) { 1.0 } else { 0.0 })
                        .collect()
                })
                .collect()
        }
    }

    struct Uniform;
    impl FunctionPredictor for Uniform {
        fn name(&self) -> &str {
            "uniform"
        }
        fn predict_all(&self, ctx: &PredictionContext<'_>) -> Vec<Vec<f64>> {
            vec![vec![1.0; ctx.n_categories]; ctx.protein_count()]
        }
    }

    fn ctx_fixture<'a>(
        g: &'a Graph,
        functions: &'a [Vec<usize>],
        terms: &'a [TermId],
    ) -> PredictionContext<'a> {
        PredictionContext {
            network: g,
            functions,
            n_categories: terms.len(),
            category_terms: terms,
        }
    }

    #[test]
    fn oracle_reaches_perfect_precision_and_full_recall() {
        let g = Graph::empty(4);
        let functions = vec![vec![0], vec![1], vec![0, 2], vec![]];
        let terms = [TermId(0), TermId(1), TermId(2)];
        let ctx = ctx_fixture(&g, &functions, &terms);
        let curve = LeaveOneOut.evaluate(&ctx, &Oracle);
        assert_eq!(curve.method, "oracle");
        // Positive-evidence filtering keeps precision at 1 for all k.
        for p in &curve.points {
            assert!((p.precision - 1.0).abs() < 1e-12, "{p:?}");
        }
        assert!((curve.points.last().unwrap().recall - 1.0).abs() < 1e-12);
        assert!((curve.max_f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_predictor_has_low_precision() {
        let g = Graph::empty(4);
        let functions = vec![vec![0], vec![1], vec![2], vec![0]];
        let terms = [TermId(0), TermId(1), TermId(2)];
        let ctx = ctx_fixture(&g, &functions, &terms);
        let curve = LeaveOneOut.evaluate(&ctx, &Uniform);
        let last = curve.points.last().unwrap();
        assert!((last.recall - 1.0).abs() < 1e-12, "uniform@k=3 hits all");
        assert!(last.precision < 0.5);
    }

    #[test]
    fn precision_at_recall_scans_correctly() {
        let curve = PrCurve {
            method: "m".into(),
            points: vec![
                PrPoint { k: 1, precision: 0.9, recall: 0.3 },
                PrPoint { k: 2, precision: 0.7, recall: 0.6 },
                PrPoint { k: 3, precision: 0.5, recall: 0.9 },
            ],
        };
        assert_eq!(curve.precision_at_recall(0.5), Some(0.7));
        assert_eq!(curve.precision_at_recall(0.95), None);
    }

    #[test]
    fn unannotated_proteins_are_skipped() {
        let g = Graph::empty(2);
        let functions = vec![vec![], vec![]];
        let terms = [TermId(0)];
        let ctx = ctx_fixture(&g, &functions, &terms);
        let curve = LeaveOneOut.evaluate(&ctx, &Uniform);
        for p in &curve.points {
            assert_eq!(p.precision, 0.0);
            assert_eq!(p.recall, 0.0);
        }
    }
}
