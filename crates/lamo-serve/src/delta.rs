//! Incremental model maintenance: edge delta in, patched artifact out.
//!
//! [`IncrementalTrainer`] is the serving-side owner of the three
//! incremental layers built below it — the per-size
//! [`IncrementalCensus`] (dirty-region re-census), the [`LabelCache`]
//! (per-motif label reuse) and the [`SegmentedIndex`] (per-motif plane
//! and posting-run reuse). [`IncrementalTrainer::apply_delta`] threads
//! one [`EdgeDelta`] through all of them and recompiles the
//! [`ModelArtifact`], with the invariant the delta proptests pin: the
//! serialized artifact is **byte-identical** to training from scratch
//! on the post-delta network. The label cache decides reuse once: the
//! reuse map it returns is handed to the segmented index unchanged, and
//! the artifact is wrapped by the same constructor as
//! [`ModelArtifact::build`].
//!
//! The trainer is transactional at the granularity the layers provide:
//! a validation error or cooperative cancellation leaves every census
//! on the pre-delta graph (already-repaired sizes are rolled back with
//! the inverse delta) and the published artifact untouched. The
//! censuses enumerate exhaustively — there is no candidate budget, so
//! the engine is equivalent to the batch grower with an unbounded
//! `max_candidates_per_level`; size is bounded instead by the
//! exact-small ceiling (`2 ≤ k ≤ 8`).
//!
//! [`publish_delta`] is the last hop: persist the patched artifact
//! through the crash-safe [`ArtifactStore`] and epoch-swap it into a
//! live [`Server`] — under the `delta.publish` faultpoint, so the chaos
//! tests can prove a crash anywhere in the publish path leaves both the
//! served epoch and the store's recovery outcome unchanged.

use crate::artifact::ModelArtifact;
use crate::server::Server;
use crate::store::{ArtifactStore, StoreError};
use function_prediction::{IndexDeltaStats, PredictionContext, SegmentedIndex};
use go_ontology::TermId;
use lamofinder::{LaMoFinder, LabelCache, LabelCacheStats, MotifKey};
use motif_finder::{CensusDeltaStats, IncrementalCensus, Motif};
use par_util::{faultpoint, RunContext};
use ppi_graph::{DeltaError, EdgeDelta, Graph};
use std::sync::Arc;

/// Pipeline knobs the trainer keeps fixed across deltas (the caches
/// cannot observe config changes, so there is no setter — build a new
/// trainer to retune).
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Motif sizes to maintain, strictly ascending, each within the
    /// exact-small window `2..=8`. One census per size.
    pub sizes: Vec<usize>,
    /// Minimum class frequency for a motif to enter the dictionary.
    pub frequency_threshold: usize,
    /// Stored-occurrence cap per class (the labeling window).
    pub max_stored: usize,
    /// Dictionary cap per size, strongest classes first.
    pub max_classes: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            sizes: vec![3],
            frequency_threshold: 2,
            max_stored: 2_000,
            max_classes: 300,
        }
    }
}

/// What one [`IncrementalTrainer::apply_delta`] round actually redid,
/// layer by layer — the observability half of the O(dirty-region)
/// claim.
#[derive(Clone, Debug, Default)]
pub struct DeltaReport {
    /// Per-size census repair stats, in `config.sizes` order.
    pub census: Vec<CensusDeltaStats>,
    /// Label reuse vs. relabel counts.
    pub labels: LabelCacheStats,
    /// Segment reuse vs. rebuild counts.
    pub index: IndexDeltaStats,
    /// Motif dictionary size after the delta.
    pub motif_count: usize,
    /// Labeled motifs in the artifact after the delta.
    pub labeled_count: usize,
    /// Whether any size's dictionary was truncated at `max_classes`.
    pub capped: bool,
}

impl DeltaReport {
    /// Largest dirty region across sizes: distinct vertices appearing
    /// in a retracted/inserted candidate or a changed endpoint (grows
    /// with `k`).
    pub fn dirty_vertices(&self) -> usize {
        self.census.iter().map(|s| s.dirty_vertices).max().unwrap_or(0)
    }

    /// Largest dirty-root count across sizes.
    pub fn dirty_roots(&self) -> usize {
        self.census.iter().map(|s| s.dirty_roots).max().unwrap_or(0)
    }
}

/// A live model: owns the incremental censuses, the label cache and
/// the segmented index, and keeps a compiled [`ModelArtifact`] current
/// under edge deltas.
pub struct IncrementalTrainer<'a> {
    config: TrainerConfig,
    labeler: LaMoFinder<'a>,
    functions: &'a [Vec<usize>],
    category_terms: &'a [TermId],
    censuses: Vec<IncrementalCensus>,
    cache: LabelCache,
    index: SegmentedIndex,
    artifact: ModelArtifact,
}

impl<'a> IncrementalTrainer<'a> {
    /// Train from scratch on `network` and compile the initial
    /// artifact. Meters one tick per enumerated candidate on `ctx`;
    /// cancellation returns [`DeltaError::Cancelled`].
    pub fn new(
        network: &Graph,
        labeler: LaMoFinder<'a>,
        functions: &'a [Vec<usize>],
        category_terms: &'a [TermId],
        config: TrainerConfig,
        ctx: &RunContext,
    ) -> Result<IncrementalTrainer<'a>, DeltaError> {
        assert!(!config.sizes.is_empty(), "at least one motif size");
        assert!(
            config.sizes.windows(2).all(|w| w[0] < w[1]),
            "sizes must be strictly ascending"
        );
        assert_eq!(
            functions.len(),
            network.vertex_count(),
            "one function list per protein (artifact validation requires it)"
        );
        let censuses = config
            .sizes
            .iter()
            .map(|&k| IncrementalCensus::new(network, k, config.max_stored, ctx))
            .collect::<Result<Vec<_>, _>>()?;
        let (index, _) = SegmentedIndex::build(&[], functions, category_terms.len());
        let mut trainer = IncrementalTrainer {
            config,
            labeler,
            functions,
            category_terms,
            censuses,
            cache: LabelCache::new(),
            index,
            artifact: ModelArtifact::default(),
        };
        trainer.refresh();
        Ok(trainer)
    }

    /// The compiled artifact for the current network state.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The current (post-delta) network.
    pub fn graph(&self) -> &Graph {
        self.censuses[0].graph()
    }

    /// Repair every layer for `delta` and recompile the artifact.
    ///
    /// On a validation error nothing has changed. On cancellation,
    /// sizes repaired before the cut are rolled back with the inverse
    /// delta, so the trainer is left fully on the pre-delta network and
    /// remains usable; the published artifact is untouched either way.
    pub fn apply_delta(
        &mut self,
        delta: &EdgeDelta,
        ctx: &RunContext,
    ) -> Result<DeltaReport, DeltaError> {
        let mut census_stats = Vec::with_capacity(self.censuses.len());
        for i in 0..self.censuses.len() {
            match self.censuses[i].apply(delta, ctx) {
                Ok(stats) => census_stats.push(stats),
                Err(err) => {
                    // Put the already-repaired sizes back on the
                    // pre-delta graph. The inverse of a delta that just
                    // applied is valid by construction, and rollback
                    // must not itself be cancellable.
                    let inverse = EdgeDelta {
                        added: delta.removed.clone(),
                        removed: delta.added.clone(),
                    };
                    let calm = RunContext::unbounded();
                    for census in &mut self.censuses[..i] {
                        census
                            .apply(&inverse, &calm)
                            .expect("inverse delta restores the pre-delta graph");
                    }
                    return Err(err);
                }
            }
        }
        let mut report = self.refresh();
        report.census = census_stats;
        Ok(report)
    }

    /// Re-publish the dictionary from the censuses, relabel what moved,
    /// reassemble the index and recompile the artifact.
    fn refresh(&mut self) -> DeltaReport {
        // Dictionary: each census publishes exactly what the batch
        // grower would; sizes ascending keeps the flat order stable.
        let mut keys: Vec<MotifKey> = Vec::new();
        let mut motifs: Vec<Motif> = Vec::new();
        let mut capped = false;
        for census in &self.censuses {
            let (classes, was_capped) =
                census.publish(self.config.frequency_threshold, self.config.max_classes);
            capped |= was_capped;
            for class in classes {
                keys.push(IncrementalCensus::key_of(&class));
                motifs.push(Motif {
                    pattern: class.pattern,
                    occurrences: class.occurrences,
                    frequency: class.frequency,
                    uniqueness: None,
                });
            }
        }

        // The cache's reuse map is the segmented index's cleanliness
        // proof: a reused entry is a clone of the previous round's entry
        // at the mapped index, and the cache patches only frequency and
        // uniqueness, which never reach the segments.
        let (labeled, reused_from, label_stats) = self.cache.label(&self.labeler, &keys, &motifs);
        let (index, index_stats) = self.index.update(&labeled, self.functions, &reused_from);
        let ctx = PredictionContext {
            network: self.censuses[0].graph(),
            functions: self.functions,
            n_categories: self.category_terms.len(),
            category_terms: self.category_terms,
        };
        self.artifact = ModelArtifact::with_index(&labeled, index, &ctx);

        DeltaReport {
            census: Vec::new(),
            labels: label_stats,
            index: index_stats,
            motif_count: motifs.len(),
            labeled_count: labeled.len(),
            capped,
        }
    }
}

/// Why a [`publish_delta`] did not complete.
#[derive(Debug)]
pub enum PublishError {
    /// The store rejected or failed the durable write; nothing became
    /// visible.
    Store(StoreError),
    /// The server rejected the swap (e.g. protein-count mismatch with
    /// in-flight queries' expectations); the store already holds the
    /// new generation.
    Swap(&'static str),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Store(e) => write!(f, "publish: store write failed: {e}"),
            PublishError::Swap(e) => write!(f, "publish: artifact swap refused: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

/// Persist `artifact` as the next store generation, then epoch-swap it
/// into the live server. Returns `(generation, epoch)`.
///
/// Durability comes first: the swap only happens once the bytes are
/// recoverable, so a crash between the two steps serves the old model
/// from a store that already holds the new one — recovery converges
/// forward, never back. The `delta.publish` faultpoint sits before
/// both, modeling a crash on entry.
pub fn publish_delta(
    artifact: &ModelArtifact,
    store: &ArtifactStore,
    server: &Server,
    ctx: &RunContext,
) -> Result<(u64, u64), PublishError> {
    faultpoint!(ctx, "delta.publish");
    let generation = store.publish(artifact, ctx).map_err(PublishError::Store)?;
    let epoch = server
        .swap_artifact(Arc::new(artifact.clone()))
        .map_err(PublishError::Swap)?;
    Ok((generation, epoch))
}
