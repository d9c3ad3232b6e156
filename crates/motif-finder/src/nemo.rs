//! NeMoFinder-style frequent-subgraph growth (Chen et al., SIGKDD'06 —
//! the upstream tool the paper feeds into LaMoFinder).
//!
//! Level-wise Apriori growth over *occurrence sets*: every frequent
//! size-`k` class is extended by one neighboring vertex per occurrence,
//! the resulting size-`k+1` sets are deduplicated and re-classified, and
//! classes below the frequency threshold are pruned. Downward closure
//! holds — every occurrence of a frequent `k+1` class contains a
//! connected `k`-subset belonging to a class of at least the same
//! frequency — so growth from frequent classes is complete as long as
//! occurrence storage is not truncated. Truncation (the caps below)
//! trades completeness for bounded memory exactly like NeMoFinder's own
//! partition-based pruning; hit caps are reported.
//!
//! # Parallel discovery
//!
//! Both phases shard work across [`GrowthConfig::threads`] scoped
//! workers and produce **byte-identical output for any thread count**.
//! Work is assigned by deterministic interleaving ([`strided`]): worker
//! `w` of `T` owns items `w, w + T, 2T + w, …` of the serial order, so
//! the sharding is a pure function of the thread count (no atomic pulls
//! in the hot loop) and expensive early items — high-degree ESU roots —
//! spread evenly instead of landing on one worker:
//!
//! * the **seed level** shards ESU enumeration by root vertex (each root
//!   owns the candidate sets whose minimum vertex it is — a disjoint
//!   partition of the census), walking each root with the dense
//!   bit-packed kernel ([`DenseEsuWalker`], DESIGN.md §15). Every
//!   candidate carries a `(root, sequence)` tag, its position in the
//!   serial enumeration order; per-worker [`ClassCollector`]s are merged
//!   deterministically on those tags ([`merge_tagged_classes`]). The
//!   candidate budget is honored exactly: workers stop classifying roots
//!   once the running candidate count passes the budget, and if the
//!   budget truly binds, a second sharded pass re-classifies precisely
//!   the first `max_candidates_per_level` candidates of the serial order
//!   (the optimistic pass is kept whenever the budget did not bind,
//!   which is the common case);
//! * **extension levels** run in two phases. Phase A shards the stored
//!   occurrences across workers, each generating its one-vertex
//!   extensions — through a reused scratch buffer, no per-candidate
//!   allocation — into a sharded dedup map keyed by the sorted vertex
//!   set, keeping the smallest `(occurrence item, derivation)` tag per
//!   set — first-seen semantics identical to the serial `HashSet` walk,
//!   independent of worker interleaving (a set is copied to the heap
//!   only the first time it is seen). The surviving sets are sorted by
//!   tag, truncated to the budget, and phase B classifies contiguous
//!   tag ranges on per-worker collectors, merged as above.
//!
//! All workers share one canonical-code memo ([`CanonCodeCache`]) across
//! levels, so each distinct labeled candidate shape pays for exactly one
//! canonicalization per growth run.
//!
//! A level is reported in [`GrowthReport::truncated_levels`] iff
//! candidates beyond the budget actually exist — an exactly-exhausted
//! budget is not truncation.
//!
//! # Supervision (DESIGN.md §13)
//!
//! Growth runs under a [`RunContext`]: every candidate visited costs
//! one work tick, workers drain cooperatively once the context trips,
//! and worker panics are caught at the pool boundary. The supervised
//! entry points ([`grow_frequent_subgraphs_supervised`],
//! [`resume_growth`]) return `Interrupted` with a [`GrowthCheckpoint`]
//! of the last *completed* level boundary; a level interrupted mid-way
//! is conservatively discarded (a tick can trip on the level's final
//! candidate, indistinguishable from mid-level), so each remaining
//! level is recomputed as the pure function of (graph, config,
//! checkpoint) it is — which is what makes `resume` byte-identical to
//! an uninterrupted run at any thread count. The legacy
//! [`grow_frequent_subgraphs`] wraps the supervised engine with a
//! passive context whose per-tick cost is one relaxed load.

use crate::classes::{
    finalize_classes, merge_tagged_classes, CanonCodeCache, ClassCollector, SubgraphClass,
};
use crate::esu::DenseEsuWalker;
use crate::motif::Occurrence;
use par_util::{
    faultpoint, resolve_threads, run_supervised, strided, Interrupted, PoolOutcome, RunContext,
    WorkerPanic,
};
use ppi_graph::{AdjBits, Graph, VertexId};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Growth parameters.
#[derive(Clone, Debug)]
pub struct GrowthConfig {
    /// Smallest motif size to report (paper pipeline: 3).
    pub min_size: usize,
    /// Largest motif size to grow to (paper: 20, meso-scale).
    pub max_size: usize,
    /// Minimum occurrence count for a class to be frequent (paper: 100).
    pub frequency_threshold: usize,
    /// Per-class cap on stored occurrences (frequency keeps counting).
    pub max_stored_occurrences: usize,
    /// Per-level cap on candidate sets examined (safety valve for dense
    /// hubs; a hit is reported in [`GrowthReport::truncated_levels`]).
    pub max_candidates_per_level: usize,
    /// Cap on frequent classes carried to the next level (highest
    /// frequency first). Tree-shaped classes proliferate combinatorially
    /// at meso-scale sizes; they are pruned here and the pruning is
    /// reported in [`GrowthReport::capped_levels`].
    pub max_classes_per_level: usize,
    /// Worker threads for discovery; `0` = one per available core (the
    /// same convention as `LaMoFinderConfig::threads`). Output is
    /// byte-identical for every value.
    pub threads: usize,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            min_size: 3,
            max_size: 20,
            frequency_threshold: 100,
            max_stored_occurrences: 2_000,
            max_candidates_per_level: 2_000_000,
            max_classes_per_level: 300,
            threads: 0,
        }
    }
}

/// Output of [`grow_frequent_subgraphs`].
#[derive(Clone, Debug, Default)]
pub struct GrowthReport {
    /// Frequent classes of every size in `[min_size, max_size]`, ordered
    /// by size then descending frequency.
    pub classes: Vec<SubgraphClass>,
    /// Sizes at which the candidate cap truncated the search (candidates
    /// beyond the cap existed).
    pub truncated_levels: Vec<usize>,
    /// Sizes at which the class cap pruned frequent classes.
    pub capped_levels: Vec<usize>,
}

/// A resumable discovery checkpoint: the state at the last *completed*
/// level boundary.
///
/// `Default` is the fresh-start checkpoint (nothing completed). The
/// invariant at a boundary: `frequent` holds the frequent classes of
/// `completed_size` (post filter + cap) and the report fields hold
/// everything for strictly smaller sizes, so [`resume_growth`] replays
/// the remaining levels exactly as an uninterrupted run would compute
/// them.
#[derive(Clone, Debug, Default)]
pub struct GrowthCheckpoint {
    /// Frequent classes already committed to the report (sizes below
    /// `completed_size`).
    pub classes: Vec<SubgraphClass>,
    /// Truncation records accumulated so far.
    pub truncated_levels: Vec<usize>,
    /// Class-cap records accumulated so far.
    pub capped_levels: Vec<usize>,
    /// Frequent classes of the last completed level (`None` before the
    /// seed level completes — the fresh-start state).
    pub frequent: Option<Vec<SubgraphClass>>,
    /// The size whose classes `frequent` holds.
    pub completed_size: usize,
}

/// Run the level-wise growth over `g`.
///
/// Legacy uninterruptible entry point: runs the supervised engine under
/// a passive [`RunContext`] (per-tick cost: one relaxed load).
pub fn grow_frequent_subgraphs(g: &Graph, config: &GrowthConfig) -> GrowthReport {
    grow_frequent_subgraphs_supervised(g, config, &RunContext::unbounded())
        .expect("a passive context without injected faults never interrupts growth")
}

/// Run the level-wise growth under `ctx`: cancellation (tick budget,
/// external token, injected fault) or a worker panic returns
/// [`Interrupted`] with the last completed level boundary as a
/// [`GrowthCheckpoint`].
// The Err variant owns the whole checkpoint by design: interruption is
// the cold path, and callers hand the value straight back to
// `resume_growth`, so boxing would only add an allocation there.
#[allow(clippy::result_large_err)]
pub fn grow_frequent_subgraphs_supervised(
    g: &Graph,
    config: &GrowthConfig,
    ctx: &RunContext,
) -> Result<GrowthReport, Interrupted<GrowthCheckpoint>> {
    resume_growth(g, config, GrowthCheckpoint::default(), ctx)
}

/// Resume growth from `checkpoint` (use [`GrowthCheckpoint::default`]
/// for a fresh run). For any checkpoint produced by an interrupted run
/// over the same `(g, config)`, the resumed output is byte-identical to
/// an uninterrupted run at any thread count.
// See `grow_frequent_subgraphs_supervised` for the large-Err rationale.
#[allow(clippy::result_large_err)]
pub fn resume_growth(
    g: &Graph,
    config: &GrowthConfig,
    checkpoint: GrowthCheckpoint,
    ctx: &RunContext,
) -> Result<GrowthReport, Interrupted<GrowthCheckpoint>> {
    assert!(config.min_size >= 2, "motifs need at least 2 vertices");
    assert!(config.min_size <= config.max_size);
    let threads = resolve_threads(config.threads);
    let budget = config.max_candidates_per_level.max(1);
    let cache = CanonCodeCache::default();
    // One packed adjacency build per growth run, shared by every walker
    // and collector across all levels (DESIGN.md §15).
    let bits = AdjBits::new(g);

    let mut report = GrowthReport {
        classes: checkpoint.classes,
        truncated_levels: checkpoint.truncated_levels,
        capped_levels: checkpoint.capped_levels,
    };

    // Seed level (skipped when the checkpoint already completed it):
    // enumerate min_size exhaustively (budget-capped). Nothing is
    // committed before the first boundary, so interruption here resumes
    // from scratch.
    let (mut frequent, mut size) = match checkpoint.frequent {
        Some(frequent) => (frequent, checkpoint.completed_size),
        None => {
            faultpoint!(ctx, "nemo.seed_level");
            if ctx.should_stop() {
                return Err(Interrupted::Cancelled {
                    checkpoint: GrowthCheckpoint::default(),
                });
            }
            let (classes, truncated, panic) =
                seed_level(g, &bits, config, threads, budget, &cache, ctx);
            if let Some(panic) = panic {
                return Err(Interrupted::WorkerPanicked {
                    panic,
                    checkpoint: GrowthCheckpoint::default(),
                });
            }
            if ctx.should_stop() {
                return Err(Interrupted::Cancelled {
                    checkpoint: GrowthCheckpoint::default(),
                });
            }
            if truncated {
                report.truncated_levels.push(config.min_size);
            }
            let mut frequent: Vec<SubgraphClass> = classes
                .into_iter()
                .filter(|c| c.frequency >= config.frequency_threshold)
                .collect();
            cap_classes(&mut frequent, config, config.min_size, &mut report);
            (frequent, config.min_size)
        }
    };

    // Boundary invariant at the top of each iteration: `frequent` holds
    // the completed size-`size` classes and `report.classes` everything
    // below — exactly what a checkpoint captures. The commit of
    // `frequent` into the report is deferred until the next level
    // completes so an interruption can hand back a clean boundary.
    loop {
        if frequent.is_empty() {
            break;
        }
        if size == config.max_size {
            report.classes.append(&mut frequent);
            break;
        }
        faultpoint!(ctx, "nemo.extension_level");
        if ctx.should_stop() {
            return Err(Interrupted::Cancelled {
                checkpoint: boundary(report, frequent, size),
            });
        }

        let (classes, truncated, panic) =
            extension_level(g, &bits, &frequent, config, threads, budget, &cache, ctx);
        if let Some(panic) = panic {
            return Err(Interrupted::WorkerPanicked {
                panic,
                checkpoint: boundary(report, frequent, size),
            });
        }
        if ctx.should_stop() {
            return Err(Interrupted::Cancelled {
                checkpoint: boundary(report, frequent, size),
            });
        }

        // Level size+1 completed cleanly: commit and advance.
        report.classes.append(&mut frequent);
        if truncated {
            report.truncated_levels.push(size + 1);
        }
        frequent = classes
            .into_iter()
            .filter(|c| c.frequency >= config.frequency_threshold)
            .collect();
        cap_classes(&mut frequent, config, size + 1, &mut report);
        size += 1;
    }

    Ok(report)
}

/// Materialize the boundary checkpoint for the state entering the
/// current loop iteration. Takes ownership: interruption abandons the
/// run, so the accumulated report and frequent set move into the
/// checkpoint instead of being deep-cloned (classes at meso-scale sizes
/// carry thousands of stored occurrences each).
fn boundary(report: GrowthReport, frequent: Vec<SubgraphClass>, size: usize) -> GrowthCheckpoint {
    GrowthCheckpoint {
        classes: report.classes,
        truncated_levels: report.truncated_levels,
        capped_levels: report.capped_levels,
        frequent: Some(frequent),
        completed_size: size,
    }
}

/// Seed level: classify the size-`min_size` ESU census, sharded by root
/// vertex, honoring the candidate budget exactly.
///
/// The optimistic pass walks each worker's interleaved root shard with
/// the dense kernel and classifies it; each completed root adds its
/// candidate count to a shared total, and a worker that observes the
/// total at or above the budget stops classifying its remaining roots
/// (it still probes them for a single candidate, so that "do candidates
/// beyond the budget exist?" is answered exactly). If the census fits
/// the budget the optimistic collectors are merged and returned.
/// Otherwise truncation binds: candidate counts are completed serially
/// in root order with early abort (at most `budget` visits), locating
/// the exact cut — the root and in-root offset where the serial budget
/// exhausts — and a second sharded pass classifies exactly the
/// candidates before the cut.
fn seed_level(
    g: &Graph,
    bits: &AdjBits,
    config: &GrowthConfig,
    threads: usize,
    budget: usize,
    cache: &CanonCodeCache,
    ctx: &RunContext,
) -> (Vec<SubgraphClass>, bool, Option<WorkerPanic>) {
    let k = config.min_size;
    let n = g.vertex_count();
    let emitted = AtomicUsize::new(0);
    let overflow = AtomicBool::new(false);

    type SeedPart = (Vec<crate::classes::TaggedClass>, Vec<(u32, u32)>);
    let PoolOutcome {
        results: parts,
        panic,
    }: PoolOutcome<SeedPart> = run_supervised(threads, "nemo.seed", ctx, |wid| {
        let mut collector =
            ClassCollector::with_kernel(g, bits, config.max_stored_occurrences, cache);
        let mut counts: Vec<(u32, u32)> = Vec::new();
        let mut walker = DenseEsuWalker::new(bits, k);
        for root in strided(n, threads, wid) {
            let root = root as u32;
            if ctx.should_stop() {
                break;
            }
            faultpoint!(ctx, "nemo.seed_worker");
            faultpoint!(ctx, "nemo.canon_cache", cache, &(k as u8, 0u64));
            if emitted.load(Ordering::Relaxed) >= budget {
                // The budget is spent; enumerating this root can only
                // feed the (discarded) optimistic collectors. Probe it
                // for one candidate so the truncation report stays
                // exact, then move on.
                if !overflow.load(Ordering::Relaxed) {
                    let mut any = false;
                    walker.enumerate_root(root, &mut |_| {
                        any = true;
                        false
                    });
                    if any {
                        overflow.store(true, Ordering::Relaxed);
                    }
                }
                continue;
            }
            let mut seq = 0u32;
            walker.enumerate_root(root, &mut |verts| {
                collector.add_tagged(verts, (root, seq));
                seq += 1;
                ctx.tick(1)
            });
            counts.push((root, seq));
            emitted.fetch_add(seq as usize, Ordering::Relaxed);
        }
        (collector.into_tagged_classes(), counts)
    });
    if let Some(panic) = panic {
        return (Vec::new(), false, Some(panic));
    }
    if ctx.should_stop() {
        // Partial census (tick budget or external cancel): the caller
        // discards this level, so skip the cut analysis entirely.
        return (Vec::new(), false, None);
    }

    let mut root_counts: Vec<Option<u32>> = vec![None; n];
    let mut collected: Vec<Vec<crate::classes::TaggedClass>> = Vec::with_capacity(parts.len());
    let mut total: usize = 0;
    for (classes, counts) in parts {
        collected.push(classes);
        for (root, count) in counts {
            total += count as usize;
            root_counts[root as usize] = Some(count);
        }
    }

    let truncated = total > budget || overflow.load(Ordering::Relaxed);
    if !truncated {
        // Every candidate was classified (skipped roots, if any, were
        // all probed empty): the optimistic pass is the full census.
        let merged = merge_tagged_classes(g, collected, config.max_stored_occurrences);
        return (finalize_classes(merged), false, None);
    }
    drop(collected);

    // Truncation binds. Locate the serial cut: the first `budget`
    // candidates in root order. Unknown counts (skipped roots) are
    // filled by a counting walk with early abort — at most `budget`
    // candidates are visited in total before the cut is found.
    let mut walker = DenseEsuWalker::new(bits, k);
    let mut remaining = budget;
    let mut cut_root = 0u32;
    let mut cut_len = 0u32; // candidates kept from cut_root
    for root in 0..n as u32 {
        if ctx.should_stop() {
            return (Vec::new(), false, None);
        }
        let count = root_counts[root as usize].unwrap_or_else(|| {
            let mut c = 0u32;
            let cap = remaining as u32;
            walker.enumerate_root(root, &mut |_| {
                c += 1;
                c < cap && ctx.tick(1)
            });
            c
        }) as usize;
        if count >= remaining {
            cut_root = root;
            cut_len = remaining as u32;
            break;
        }
        remaining -= count;
    }
    if ctx.should_stop() {
        return (Vec::new(), false, None);
    }

    // Second pass: classify exactly the candidates before the cut,
    // sharded by root again (the canonical-code cache is already warm).
    let PoolOutcome {
        results: parts,
        panic,
    }: PoolOutcome<Vec<crate::classes::TaggedClass>> =
        run_supervised(threads, "nemo.seed_cut", ctx, |wid| {
            let mut collector =
                ClassCollector::with_kernel(g, bits, config.max_stored_occurrences, cache);
            let mut walker = DenseEsuWalker::new(bits, k);
            for root in strided(cut_root as usize + 1, threads, wid) {
                let root = root as u32;
                if ctx.should_stop() {
                    break;
                }
                let mut seq = 0u32;
                walker.enumerate_root(root, &mut |verts| {
                    collector.add_tagged(verts, (root, seq));
                    seq += 1;
                    (root != cut_root || seq < cut_len) && ctx.tick(1)
                });
            }
            collector.into_tagged_classes()
        });
    if let Some(panic) = panic {
        return (Vec::new(), false, Some(panic));
    }
    if ctx.should_stop() {
        return (Vec::new(), false, None);
    }
    let merged = merge_tagged_classes(g, parts, config.max_stored_occurrences);
    (finalize_classes(merged), true, None)
}

/// Number of dedup shards at extension levels (power of two).
const DEDUP_SHARDS: usize = 64;

/// A deduplicated extension candidate: first-seen tag plus the location
/// of its vertex set in the level's flat dedup maps —
/// `(tag, map index, key index)`.
type Candidate = ((u32, u32), u32, u32);

/// One shard of the extension-level first-seen map.
type DedupShard = Mutex<FlatSetMap>;

/// Candidate consumer for [`each_extension`]: `(key, tag)` per emitted
/// extension set; return `false` to abort the walk.
type EmitCandidate<'e> = dyn FnMut(&[u32], (u32, u32)) -> bool + 'e;

/// Empty open-addressing slot marker (key indices stay below the
/// candidate budget, far under `u32::MAX`).
const EMPTY_SLOT: u32 = u32::MAX;

/// Flat-arena first-seen map for fixed-width sorted vertex sets: keys
/// live back to back in one arena, an open-addressing index maps a key
/// to its arena slot, and the minimum `(item, derivation)` tag is kept
/// per key. An insert allocates only when the arena or index doubles
/// (amortized), never per candidate, so extension-level dedup is
/// allocation-free per emission and the kept sets sit contiguously in
/// memory for phase B to stream over (DESIGN.md §15).
struct FlatSetMap {
    /// Vertices per key (level size + 1).
    width: usize,
    /// Keys back to back: key `i` occupies `arena[i*width..][..width]`.
    arena: Vec<u32>,
    /// Minimum tag per key, aligned with arena order.
    tags: Vec<(u32, u32)>,
    /// Open-addressing slots: [`EMPTY_SLOT`] or a key index.
    table: Vec<u32>,
    mask: usize,
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl FlatSetMap {
    /// An empty map for `width`-vertex keys, pre-sized for about
    /// `expected` distinct keys.
    fn with_width(width: usize, expected: usize) -> FlatSetMap {
        let slots = (expected.max(8) * 2).next_power_of_two();
        FlatSetMap {
            width,
            arena: Vec::new(),
            tags: Vec::new(),
            table: vec![EMPTY_SLOT; slots],
            mask: slots - 1,
            hasher: BuildHasherDefault::default(),
        }
    }

    /// Number of distinct keys inserted.
    fn len(&self) -> usize {
        self.tags.len()
    }

    /// The `i`-th inserted key.
    fn key(&self, i: usize) -> &[u32] {
        &self.arena[i * self.width..][..self.width]
    }

    /// The minimum tag recorded for the `i`-th key.
    fn tag(&self, i: usize) -> (u32, u32) {
        self.tags[i]
    }

    /// Home probe slot for `key` under the current table size. The low
    /// hash bits are discarded: they picked the dedup shard, so all
    /// keys within one shard agree on them.
    fn home_slot(&self, key: &[u32]) -> usize {
        (self.hasher.hash_one(key) >> 6) as usize & self.mask
    }

    /// Whether `key` is present.
    fn contains(&self, key: &[u32]) -> bool {
        let mut slot = self.home_slot(key);
        loop {
            match self.table[slot] {
                EMPTY_SLOT => return false,
                idx => {
                    if self.key(idx as usize) == key {
                        return true;
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Insert `key`, keeping the minimum tag if it is already present.
    /// Returns whether the key is new.
    fn insert_min(&mut self, key: &[u32], tag: (u32, u32)) -> bool {
        debug_assert_eq!(key.len(), self.width);
        if (self.tags.len() + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let mut slot = self.home_slot(key);
        loop {
            match self.table[slot] {
                EMPTY_SLOT => {
                    self.table[slot] = self.tags.len() as u32;
                    self.arena.extend_from_slice(key);
                    self.tags.push(tag);
                    return true;
                }
                idx => {
                    let idx = idx as usize;
                    if self.key(idx) == key {
                        if tag < self.tags[idx] {
                            self.tags[idx] = tag;
                        }
                        return false;
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Double the table and re-place every key index.
    fn grow(&mut self) {
        let slots = self.table.len() * 2;
        self.mask = slots - 1;
        self.table.clear();
        self.table.resize(slots, EMPTY_SLOT);
        for i in 0..self.tags.len() {
            let mut slot = self.home_slot(self.key(i));
            while self.table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = i as u32;
        }
    }
}

/// Generate the one-vertex extensions of `occ` in serial derivation
/// order, invoking `emit(key, tag)` with the sorted extended vertex set
/// and its `(item, derivation)` tag. Returns `false` iff `emit`
/// aborted. Shared by the parallel phase-A workers and the bounded
/// serial walk, so both generate candidates in the identical order.
///
/// `base` and `key_buf` are caller-owned scratch buffers reused across
/// items: the emitted key is a borrowed view into `key_buf`, valid for
/// the duration of the `emit` call, so generating a candidate allocates
/// nothing — the consumer copies the slice into its flat arena only
/// when the set is new.
fn each_extension(
    g: &Graph,
    occ: &Occurrence,
    item: u32,
    base: &mut Vec<u32>,
    key_buf: &mut Vec<u32>,
    emit: &mut EmitCandidate<'_>,
) -> bool {
    base.clear();
    base.extend(occ.vertices.iter().map(|v| v.0));
    base.sort_unstable();
    let mut seq = 0u32;
    for &v in &occ.vertices {
        for &u in g.neighbors(v) {
            let pos = base.partition_point(|&x| x < u);
            if pos < base.len() && base[pos] == u {
                continue; // u is already a member of the occurrence
            }
            key_buf.clear();
            key_buf.extend_from_slice(&base[..pos]);
            key_buf.push(u);
            key_buf.extend_from_slice(&base[pos..]);
            let tag = (item, seq);
            seq += 1;
            if !emit(key_buf, tag) {
                return false;
            }
        }
    }
    true
}

/// One extension level: grow every stored occurrence of `frequent` by
/// one neighboring vertex, deduplicate, classify.
#[allow(clippy::too_many_arguments)] // internal plumbing of the growth engine
fn extension_level(
    g: &Graph,
    bits: &AdjBits,
    frequent: &[SubgraphClass],
    config: &GrowthConfig,
    threads: usize,
    budget: usize,
    cache: &CanonCodeCache,
    ctx: &RunContext,
) -> (Vec<SubgraphClass>, bool, Option<WorkerPanic>) {
    // Occurrence items in serial order; the item index is the major tag.
    let items: Vec<&Occurrence> = frequent.iter().flat_map(|c| &c.occurrences).collect();
    let width = items.first().map_or(0, |occ| occ.vertices.len() + 1);

    // Cheap emission bound: every occurrence vertex contributes at most
    // its degree of one-vertex extensions, so `bound` caps the number
    // of candidates (unique or not) this level can generate. It picks
    // the generation strategy; both strategies produce the identical
    // candidate prefix, so the choice never changes output.
    let bound: usize = items
        .iter()
        .map(|occ| occ.vertices.iter().map(|&v| g.neighbors(v).len()).sum::<usize>())
        .sum();

    let (maps, candidates, truncated) = if bound > budget {
        // The budget may bind, and honoring it exactly requires the
        // serial first-seen prefix, so generate it directly: walk the
        // items in serial order with early abort at the first unique
        // set beyond the budget (whose existence is exactly what the
        // truncation flag reports). Running the parallel phase first
        // would generate the same candidates again only to discard
        // them — binding levels dominate meso-scale growth, and this
        // double generation (plus its per-candidate allocations) was
        // the pre-dense engine's cost center.
        let mut map = FlatSetMap::with_width(width, budget.min(bound));
        let mut base: Vec<u32> = Vec::new();
        let mut key_buf: Vec<u32> = Vec::new();
        let mut truncated = false;
        for (i, occ) in items.iter().enumerate() {
            let keep_going =
                each_extension(g, occ, i as u32, &mut base, &mut key_buf, &mut |key, tag| {
                    if !ctx.tick(1) {
                        return false;
                    }
                    if map.len() == budget {
                        if map.contains(key) {
                            return true;
                        }
                        truncated = true;
                        return false;
                    }
                    map.insert_min(key, tag);
                    true
                });
            if !keep_going {
                break;
            }
        }
        if ctx.should_stop() {
            return (Vec::new(), false, None);
        }
        // Serial insertion order is first-seen order — already sorted
        // by tag.
        let candidates: Vec<Candidate> =
            (0..map.len()).map(|ki| (map.tag(ki), 0u32, ki as u32)).collect();
        (vec![map], candidates, truncated)
    } else {
        // The budget cannot bind: phase A shards the items across
        // workers with no budget bookkeeping at all, each generating
        // into a sharded first-seen map. Each candidate's tag is its
        // position in the serial generation order and the map keeps the
        // smallest tag per set, so the surviving (set, tag) pairs are
        // independent of worker scheduling.
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        let dedup: Vec<DedupShard> = (0..DEDUP_SHARDS)
            .map(|_| Mutex::new(FlatSetMap::with_width(width, bound / DEDUP_SHARDS / 4)))
            .collect();
        let PoolOutcome { results: _, panic } =
            run_supervised(threads, "nemo.extension", ctx, |wid| {
                let mut base: Vec<u32> = Vec::new();
                let mut key_buf: Vec<u32> = Vec::new();
                for i in strided(items.len(), threads, wid) {
                    if ctx.should_stop() {
                        break;
                    }
                    faultpoint!(ctx, "nemo.extension_worker");
                    each_extension(
                        g,
                        items[i],
                        i as u32,
                        &mut base,
                        &mut key_buf,
                        &mut |key, tag| {
                            let shard = hasher.hash_one(key) as usize & (DEDUP_SHARDS - 1);
                            dedup[shard]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .insert_min(key, tag);
                            ctx.tick(1)
                        },
                    );
                }
            });
        if let Some(panic) = panic {
            return (Vec::new(), false, Some(panic));
        }
        if ctx.should_stop() {
            // Partial candidate map: the caller discards this level.
            return (Vec::new(), false, None);
        }
        let maps: Vec<FlatSetMap> = dedup
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let mut candidates: Vec<Candidate> = maps
            .iter()
            .enumerate()
            .flat_map(|(mi, m)| (0..m.len()).map(move |ki| (m.tag(ki), mi as u32, ki as u32)))
            .collect();
        // Every emission has a distinct tag, so sorting on the (unique)
        // minimum tags is a total order: the arena insertion order —
        // the only scheduling-dependent state — cancels out here.
        candidates.sort_unstable_by_key(|&(tag, ..)| tag);
        (maps, candidates, false)
    };

    // Phase B: classify contiguous tag ranges on per-worker collectors,
    // reading each vertex set straight out of the flat arenas.
    let chunk = candidates.len().div_ceil(threads.max(1)).max(1);
    let ranges: Vec<&[Candidate]> = candidates.chunks(chunk).collect();
    let workers = ranges.len().max(1);
    let PoolOutcome {
        results: parts,
        panic,
    }: PoolOutcome<Vec<crate::classes::TaggedClass>> =
        run_supervised(workers, "nemo.extension_classify", ctx, |wid| {
            let mut collector =
                ClassCollector::with_kernel(g, bits, config.max_stored_occurrences, cache);
            let mut verts: Vec<VertexId> = Vec::new();
            for r in strided(ranges.len(), workers, wid) {
                if ctx.should_stop() {
                    break;
                }
                for &(tag, mi, ki) in ranges[r] {
                    verts.clear();
                    verts.extend(maps[mi as usize].key(ki as usize).iter().map(|&x| VertexId(x)));
                    collector.add_tagged(&verts, tag);
                }
            }
            collector.into_tagged_classes()
        });
    if let Some(panic) = panic {
        return (Vec::new(), false, Some(panic));
    }
    if ctx.should_stop() {
        return (Vec::new(), false, None);
    }
    let merged = merge_tagged_classes(g, parts, config.max_stored_occurrences);
    (finalize_classes(merged), truncated, None)
}

/// Keep at most `max_classes_per_level` classes (already sorted by
/// descending frequency by the collector), recording the pruning.
fn cap_classes(
    frequent: &mut Vec<SubgraphClass>,
    config: &GrowthConfig,
    size: usize,
    report: &mut GrowthReport,
) {
    if frequent.len() > config.max_classes_per_level {
        frequent.truncate(config.max_classes_per_level);
        report.capped_levels.push(size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A network with 5 disjoint triangles and 4 disjoint paths of 4.
    fn planted() -> Graph {
        let mut edges = Vec::new();
        for t in 0..5u32 {
            let b = t * 3;
            edges.extend_from_slice(&[(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
        }
        for p in 0..4u32 {
            let b = 15 + p * 4;
            edges.extend_from_slice(&[(b, b + 1), (b + 1, b + 2), (b + 2, b + 3)]);
        }
        Graph::from_edges(31, &edges)
    }

    #[test]
    fn finds_planted_triangles() {
        let g = planted();
        let config = GrowthConfig {
            min_size: 3,
            max_size: 3,
            frequency_threshold: 5,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        // Frequent size-3 classes: triangle (5 occurrences) and the
        // 3-path (2 per path-of-4 = 8 occurrences).
        assert_eq!(report.classes.len(), 2);
        let tri = report
            .classes
            .iter()
            .find(|c| c.pattern.edge_count() == 3)
            .expect("triangle class");
        assert_eq!(tri.frequency, 5);
        let path = report
            .classes
            .iter()
            .find(|c| c.pattern.edge_count() == 2)
            .expect("path class");
        assert_eq!(path.frequency, 8);
        assert!(report.truncated_levels.is_empty());
    }

    #[test]
    fn growth_reaches_size_four() {
        let g = planted();
        let config = GrowthConfig {
            min_size: 3,
            max_size: 4,
            frequency_threshold: 4,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        // Size 3: triangle (5) and path3 (5*0 from triangles? paths-of-4
        // give 2 path3 each = 8). Size 4: path4 (4).
        let sizes: Vec<usize> = report
            .classes
            .iter()
            .map(|c| c.pattern.vertex_count())
            .collect();
        assert!(sizes.contains(&3));
        assert!(sizes.contains(&4));
        let p4 = report
            .classes
            .iter()
            .find(|c| c.pattern.vertex_count() == 4)
            .unwrap();
        assert_eq!(p4.frequency, 4);
        assert_eq!(p4.pattern.edge_count(), 3);
    }

    #[test]
    fn frequency_threshold_prunes() {
        let g = planted();
        let config = GrowthConfig {
            min_size: 3,
            max_size: 6,
            frequency_threshold: 6,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        // Only path3 has frequency >= 6 (8 of them); nothing at size 4+
        // has 6 occurrences, so growth stops.
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].pattern.edge_count(), 2);
    }

    #[test]
    fn occurrences_validate_against_network() {
        let g = planted();
        let config = GrowthConfig {
            min_size: 3,
            max_size: 4,
            frequency_threshold: 2,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        assert!(!report.classes.is_empty());
        for class in &report.classes {
            let m = crate::motif::Motif {
                pattern: class.pattern.clone(),
                occurrences: class.occurrences.clone(),
                frequency: class.frequency,
                uniqueness: None,
            };
            assert!(m.validate_against(&g));
        }
    }

    #[test]
    fn candidate_cap_reports_truncation() {
        let g = planted();
        let config = GrowthConfig {
            min_size: 3,
            max_size: 3,
            frequency_threshold: 1,
            max_candidates_per_level: 3,
            ..Default::default()
        };
        let report = grow_frequent_subgraphs(&g, &config);
        assert_eq!(report.truncated_levels, vec![3]);
    }

    #[test]
    fn exactly_exhausted_seed_budget_is_not_truncation() {
        // planted() has exactly 13 size-3 candidates (5 triangles + 2
        // paths-of-3 per path-of-4). A budget of exactly 13 examines all
        // of them — no candidate exists beyond the budget, so reporting
        // truncation would be the historical off-by-one.
        let g = planted();
        let base = GrowthConfig {
            min_size: 3,
            max_size: 3,
            frequency_threshold: 1,
            ..Default::default()
        };
        let exact = grow_frequent_subgraphs(
            &g,
            &GrowthConfig {
                max_candidates_per_level: 13,
                ..base.clone()
            },
        );
        assert!(exact.truncated_levels.is_empty(), "budget == census");
        assert_eq!(exact.classes.len(), 2);
        let under = grow_frequent_subgraphs(
            &g,
            &GrowthConfig {
                max_candidates_per_level: 12,
                ..base
            },
        );
        assert_eq!(under.truncated_levels, vec![3]);
    }

    #[test]
    fn exactly_exhausted_extension_budget_is_not_truncation() {
        // Star with 6 leaves: 15 size-3 candidates, C(6,3) = 20 unique
        // size-4 extension candidates — the extension level exceeds the
        // seed level, so a budget of 20 isolates the boundary there.
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        let base = GrowthConfig {
            min_size: 3,
            max_size: 4,
            frequency_threshold: 2,
            ..Default::default()
        };
        let exact = grow_frequent_subgraphs(
            &g,
            &GrowthConfig {
                max_candidates_per_level: 20,
                ..base.clone()
            },
        );
        assert!(exact.truncated_levels.is_empty(), "budget == unique sets");
        let star4 = exact
            .classes
            .iter()
            .find(|c| c.pattern.vertex_count() == 4)
            .expect("star-4 class");
        assert_eq!(star4.frequency, 20);
        let under = grow_frequent_subgraphs(
            &g,
            &GrowthConfig {
                max_candidates_per_level: 19,
                ..base
            },
        );
        assert_eq!(under.truncated_levels, vec![4]);
    }

    /// Full byte-level equality of two growth reports.
    fn assert_reports_identical(a: &GrowthReport, b: &GrowthReport, what: &str) {
        assert_eq!(a.truncated_levels, b.truncated_levels, "{what}: truncated");
        assert_eq!(a.capped_levels, b.capped_levels, "{what}: capped");
        assert_eq!(a.classes.len(), b.classes.len(), "{what}: class count");
        for (i, (ca, cb)) in a.classes.iter().zip(&b.classes).enumerate() {
            assert_eq!(ca.pattern, cb.pattern, "{what}: class {i} pattern");
            assert_eq!(ca.frequency, cb.frequency, "{what}: class {i} frequency");
            assert_eq!(ca.occurrences, cb.occurrences, "{what}: class {i} occurrences");
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(17);
        let g = ppi_graph::random::barabasi_albert(60, 2, &mut rng);
        let base = GrowthConfig {
            min_size: 3,
            max_size: 5,
            frequency_threshold: 3,
            max_stored_occurrences: 7,
            ..Default::default()
        };
        let reference = grow_frequent_subgraphs(&g, &GrowthConfig { threads: 1, ..base.clone() });
        assert!(!reference.classes.is_empty());
        for threads in [2, 4] {
            let report = grow_frequent_subgraphs(&g, &GrowthConfig { threads, ..base.clone() });
            assert_reports_identical(&reference, &report, &format!("threads={threads}"));
        }
    }

    #[test]
    fn truncated_output_is_identical_across_thread_counts() {
        // Budgets that bind at both levels exercise the exact-cut second
        // pass and the extension budget under parallel dedup.
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(23);
        let g = ppi_graph::random::erdos_renyi_gnm(50, 120, &mut rng);
        for budget in [10, 37, 100] {
            let base = GrowthConfig {
                min_size: 3,
                max_size: 4,
                frequency_threshold: 2,
                max_stored_occurrences: 5,
                max_candidates_per_level: budget,
                ..Default::default()
            };
            let reference =
                grow_frequent_subgraphs(&g, &GrowthConfig { threads: 1, ..base.clone() });
            for threads in [2, 4] {
                let report =
                    grow_frequent_subgraphs(&g, &GrowthConfig { threads, ..base.clone() });
                assert_reports_identical(
                    &reference,
                    &report,
                    &format!("budget={budget} threads={threads}"),
                );
            }
        }
    }
}
