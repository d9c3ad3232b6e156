//! Incremental census maintenance — O(dirty-region) motif updates.
//!
//! A one-edge revision to the interactome invalidates only the
//! subgraph candidates whose ESU derivation can see that edge, yet the
//! batch pipeline re-enumerates the whole network. [`IncrementalCensus`]
//! keeps the full size-`k` census alive between revisions and repairs
//! it in place — surgically: the only candidates re-examined are the
//! ones whose vertex set *contains a changed endpoint pair*, the
//! [`AdjBits`] matrix is patched bit-wise instead of repacked, and
//! every other candidate (even inside dirty roots) is spliced through
//! untouched.
//!
//! # Dirty-set derivation — enumerated, not searched for
//!
//! ESU enumerates each connected `k`-set exactly once, rooted at its
//! minimum vertex, and classifies it from the packed adjacency bits
//! over its own vertices. A candidate set `S` is therefore inert under
//! a delta unless `S` contains **both endpoints of some changed
//! edge** — toggling `{u, v}` cannot alter the membership, class or
//! relative position of any set that does not contain the pair. That
//! turns the dirty set from a search problem into an enumeration
//! problem: the candidates to retract are exactly the *pre*-graph
//! connected `k`-sets containing a changed pair, and the candidates to
//! insert are exactly the *post*-graph ones. Both come out of
//! forbidden-set growth seeded at the pair (each superset generated
//! exactly once, connectivity checked per complete set), so no BFS
//! ball, distance criterion or re-walked root segment appears anywhere:
//! the planning work is O(churn), plus one linear pair-containment scan
//! of each root segment that owns a retraction.
//!
//! # Surgical repair — O(churn), not O(dirty segment)
//!
//! Even inside a dirty root, a candidate set `S` that does **not**
//! contain both endpoints of some changed edge is inert:
//!
//! * its *membership* is unchanged (connectivity of the induced
//!   subgraph only depends on edges inside `S`),
//! * its *class* is unchanged (classification reads only the packed
//!   bits over `S`), and
//! * its *visit position relative to other inert candidates* is
//!   unchanged: extension lists along its ESU derivation are built by
//!   order-preserving operations (copy-prefix + append ascending
//!   exclusive neighbors), and toggling edge `{u, v}` only inserts or
//!   deletes the endpoint itself from those lists — it never permutes
//!   the remaining elements.
//!
//! So the repair removes exactly the old candidates containing a
//! changed pair, enumerates the post-graph connected `k`-sets
//! containing a changed pair (forbidden-set growth seeded at the pair —
//! each superset generated once), and splices the newcomers in at their
//! ESU visit positions, computed by simulating the unique derivation of
//! each set and comparing *extension-position keys* (the walker pops
//! candidates from the back, so keys compare lexicographically with
//! reversed element order). Per-root tags are gap-coded
//! (`(root, stable_seq)` with `stable_seq` spaced [`TAG_GAP`] apart) so
//! a splice leaves every inert candidate's tag — and therefore every
//! class membership tree — untouched; a root renumbers only when a gap
//! exhausts. Tags order identically to the batch engine's dense serial
//! tags and never reach the published artifact, so the result stays
//! byte-identical to a from-scratch census of the post-delta graph
//! (pinned by the equivalence tests against
//! [`crate::nemo::grow_frequent_subgraphs`]).
//!
//! # Scope
//!
//! The engine maintains *exact single-size* censuses (`k ≤ 8`, the
//! packed-bits fast path). Budget-truncated meso-scale growth is not
//! delta-capable: extension levels derive from the prior level's class
//! order, so a local edit cascades globally. Multi-size artifacts run
//! one engine per size.
//!
//! # Fault discipline
//!
//! [`IncrementalCensus::apply`] is transactional against cooperative
//! cancellation: the `delta.patch` and `delta.census` faultpoints fire
//! before/after the in-place patch, and a context that trips mid-walk
//! reverts the patch and returns [`DeltaError::Cancelled`] with the
//! census unchanged. A hard panic (chaos `FaultAction::Panic`) leaves
//! the engine poisoned — discard it; anything already published or
//! persisted is unaffected (see the lamo-serve chaos suite).

use crate::classes::{
    finalize_classes, packed_bits_of, CanonCodeCache, SubgraphClass, Tag, TaggedClass,
};
use crate::esu::DenseEsuWalker;
use crate::motif::Occurrence;
use par_util::{faultpoint, RunContext};
use ppi_graph::canonical::{small_canonical_code, small_graph_from_bits, SMALL_CANON_MAX};
use ppi_graph::{AdjBits, DeltaError, EdgeDelta, Graph, NormalizedDelta, VertexId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Stable identity of an isomorphism class across deltas: `(size,
/// exact canonical code)`. The downstream label cache keys on this.
pub type ClassKey = (u8, u64);

/// What one [`IncrementalCensus::apply`] touched.
#[derive(Clone, Debug, Default)]
pub struct CensusDeltaStats {
    /// Root segments spliced (at least one candidate retracted or
    /// inserted).
    pub dirty_roots: usize,
    /// Distinct vertices appearing in a changed candidate or changed
    /// endpoint — the region the repair rewrote.
    pub dirty_vertices: usize,
    /// Candidates retracted — old census members whose vertex set
    /// contains a changed endpoint pair.
    pub retracted: usize,
    /// Candidates inserted — post-graph connected sets containing a
    /// changed endpoint pair (reclassified survivors re-enter here).
    pub inserted: usize,
    /// Classes whose membership changed (gained or lost candidates),
    /// by stable key. Everything absent from this list kept its
    /// occurrence window bit-for-bit.
    pub touched: Vec<ClassKey>,
}

/// One isomorphism class in the live census. Frequency and first-seen
/// are derived from `members` at publish time, so retraction is just
/// set removal.
struct ClassInfo {
    /// Exact canonical code (key half of [`ClassKey`]).
    code: u64,
    /// Canonical representative over `0..k`.
    pattern: Graph,
    /// Every current candidate of this class, by serial tag.
    members: BTreeSet<Tag>,
}

/// Spacing between freshly assigned stable sequence numbers: room for
/// ~10 consecutive midpoint insertions at one spot before the owning
/// root renumbers.
const TAG_GAP: u64 = 1 << 10;

/// The candidates rooted at one vertex, in ESU visit order: entry `i`
/// is class `class_ids[i]` with aligned occurrence
/// `verts[i*k .. (i+1)*k]` and stable tag `(root, sseqs[i])`.
/// `sseqs` is strictly increasing and gap-coded so splices leave the
/// tags of untouched candidates alone.
#[derive(Default)]
struct RootSegment {
    class_ids: Vec<u32>,
    verts: Vec<VertexId>,
    sseqs: Vec<u32>,
}

impl RootSegment {
    fn len(&self) -> usize {
        self.class_ids.len()
    }
}

/// Gap-coded stable sequence numbers for a fresh segment of `n`
/// candidates: `TAG_GAP` apart when it fits in `u32`, evenly squeezed
/// otherwise.
fn gap_seqs(n: usize) -> Vec<u32> {
    let step = TAG_GAP.min(u64::from(u32::MAX) / (n as u64 + 2)).max(1);
    (0..n as u64).map(|i| ((i + 1) * step) as u32).collect()
}

/// Is the `k`-vertex graph with packed adjacency bits `bits` (the
/// [`packed_bits_of`] layout: bit `i * k + j` set iff `i ~ j`)
/// connected? Bitmask flood from vertex 0 — a handful of word ops, no
/// allocation, no adjacency-list walks.
fn packed_connected(k: usize, bits: u64) -> bool {
    let full = (1u64 << k) - 1;
    let mut reach = 1u64;
    loop {
        let mut next = reach;
        let mut m = reach;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            next |= (bits >> (i * k)) & full;
        }
        if next == reach {
            return reach == full;
        }
        reach = next;
    }
}

/// Planned repair of one dirty root: candidate indices to retract and
/// classified newcomers with their splice positions.
#[derive(Default)]
struct RootPlan {
    /// Ascending indices into the old segment.
    removals: Vec<usize>,
    /// Sorted by `(pos, visit order)` before commit.
    insertions: Vec<Insertion>,
}

/// One newcomer candidate: where it splices in among the surviving
/// candidates, its occurrence (canonical-label order) and class.
struct Insertion {
    /// Number of surviving candidates the walker visits before it.
    pos: usize,
    verts: Vec<VertexId>,
    cid: u32,
    /// ESU derivation key, for ordering within an insertion run.
    key: Vec<u32>,
}

/// Does the candidate with derivation key `a` get visited before the
/// one with key `b` (same root)? The walker pops extension candidates
/// from the back, so at the first level where the keys differ the
/// *higher* extension position is visited first. Keys of distinct
/// same-size sets always differ.
fn visits_before(a: &[u32], b: &[u32]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return x > y;
        }
    }
    false
}

/// Reusable scratch for [`derivation_key`]: a stamped blocked-mark
/// array (`mark[v] == stamp` means blocked, so no clearing between
/// calls) plus the extension list.
struct KeyScratch {
    mark: Vec<u32>,
    /// Membership stamp for the set being derived: one load replaces a
    /// `contains` scan on every extension push.
    member: Vec<u32>,
    stamp: u32,
    ext: Vec<u32>,
}

impl KeyScratch {
    fn new(n: usize) -> KeyScratch {
        KeyScratch {
            mark: vec![0; n],
            member: vec![0; n],
            stamp: 0,
            ext: Vec::new(),
        }
    }
}

/// Extension-position sequence of the unique ESU derivation of the
/// sorted set `sorted` (rooted at `sorted[0]`) on `g`: at each step the
/// next member is the set element sitting *last* in the extension list
/// (the walker pops from the back, so any set member left deeper in the
/// list would be blocked and unreachable in this branch). Two keys at
/// the same root compare lexicographically with reversed element
/// order — see [`visits_before`].
fn derivation_key(g: &Graph, s: &mut KeyScratch, sorted: &[u32]) -> Vec<u32> {
    let root = sorted[0];
    s.stamp = s.stamp.wrapping_add(1);
    if s.stamp == 0 {
        s.mark.fill(0);
        s.member.fill(0);
        s.stamp = 1;
    }
    let stamp = s.stamp;
    for &m in sorted {
        s.member[m as usize] = stamp;
    }
    s.mark[root as usize] = stamp;
    s.ext.clear();
    // Ascending extension positions of the set members currently in the
    // ext list: the next derivation step always consumes the *last*
    // one, so no backward scan of the ext list is ever needed. Members
    // enter at push time (ascending indices) and truncation to the
    // popped position can only drop non-members (every surviving
    // recorded position is below the popped maximum).
    let mut mpos = [0u32; SMALL_CANON_MAX];
    let mut mlen = 0usize;
    for &w in g.neighbors(VertexId(root)) {
        if w > root {
            if s.member[w as usize] == stamp {
                mpos[mlen] = s.ext.len() as u32;
                mlen += 1;
            }
            s.ext.push(w);
            s.mark[w as usize] = stamp;
        }
    }
    let mut key = Vec::with_capacity(sorted.len() - 1);
    for _ in 1..sorted.len() {
        assert!(mlen > 0, "connected rooted sets always have an ESU derivation");
        mlen -= 1;
        let pos = mpos[mlen] as usize;
        key.push(pos as u32);
        let w = s.ext[pos];
        s.ext.truncate(pos);
        for &x in g.neighbors(VertexId(w)) {
            if x > root && s.mark[x as usize] != stamp {
                if s.member[x as usize] == stamp {
                    mpos[mlen] = s.ext.len() as u32;
                    mlen += 1;
                }
                s.ext.push(x);
                s.mark[x as usize] = stamp;
            }
        }
    }
    key
}

/// A live, repairable size-`k` census of a mutable network.
pub struct IncrementalCensus {
    k: usize,
    max_stored: usize,
    graph: Graph,
    bits: AdjBits,
    cache: CanonCodeCache,
    /// Packed adjacency bits → (class id, canonical labeling). Pure
    /// function of the bits, so it survives deltas unchanged.
    bits_memo: HashMap<u64, (u32, u64)>,
    /// Canonical code → class id.
    code_buckets: HashMap<u64, u32>,
    classes: Vec<ClassInfo>,
    roots: Vec<RootSegment>,
}

impl IncrementalCensus {
    /// Build the full census of `g` at size `k` (`2 ≤ k ≤ 8`),
    /// metering one tick per candidate on `ctx`.
    pub fn new(
        g: &Graph,
        k: usize,
        max_stored: usize,
        ctx: &RunContext,
    ) -> Result<IncrementalCensus, DeltaError> {
        assert!((2..=SMALL_CANON_MAX).contains(&k), "delta engine is exact-small only");
        let bits = AdjBits::new(g);
        let mut census = IncrementalCensus {
            k,
            max_stored,
            graph: g.clone(),
            bits,
            cache: CanonCodeCache::default(),
            bits_memo: HashMap::new(),
            code_buckets: HashMap::new(),
            classes: Vec::new(),
            roots: Vec::new(),
        };
        let all: Vec<u32> = (0..g.vertex_count() as u32).collect();
        let segments = census.walk_roots(&all, ctx).ok_or(DeltaError::Cancelled)?;
        census.roots = segments
            .into_iter()
            .map(|(_, mut seg)| {
                seg.sseqs = gap_seqs(seg.len());
                seg
            })
            .collect();
        for (r, seg) in census.roots.iter().enumerate() {
            for (i, &cid) in seg.class_ids.iter().enumerate() {
                census.classes[cid as usize].members.insert((r as u32, seg.sseqs[i]));
            }
        }
        Ok(census)
    }

    /// Motif size this census maintains.
    pub fn size(&self) -> usize {
        self.k
    }

    /// The current (post-delta) network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Total candidates currently in the census.
    pub fn candidate_count(&self) -> usize {
        self.roots.iter().map(|s| s.class_ids.len()).sum()
    }

    /// Repair the census for `delta`. Returns what changed, or a typed
    /// error with the census untouched (validation failure, or
    /// cooperative cancellation — patches are reverted).
    pub fn apply(
        &mut self,
        delta: &EdgeDelta,
        ctx: &RunContext,
    ) -> Result<CensusDeltaStats, DeltaError> {
        let norm = delta.normalize(&self.graph)?;
        if norm.is_empty() {
            return Ok(CensusDeltaStats::default());
        }
        let pairs: Vec<(u32, u32)> = norm.added.iter().chain(&norm.removed).copied().collect();

        // Retraction side, planned on the *pre* graph (nothing is
        // patched yet, so cancellation here needs no rollback): the
        // candidates to retract are the pre-graph pair supersets, but
        // only their roots are recorded — the per-root scan in
        // `plan_repair` recovers the exact indices more cheaply than
        // set-equality lookups would.
        let mut removal_roots: BTreeSet<u32> = BTreeSet::new();
        for &(u, v) in &pairs {
            let done = self.collect_pair_supersets(
                u,
                v,
                &mut |set| {
                    removal_roots.insert(set[0]);
                },
                ctx,
            );
            if !done {
                return Err(DeltaError::Cancelled);
            }
        }

        faultpoint!(ctx, "delta.patch");
        if ctx.should_stop() {
            return Err(DeltaError::Cancelled);
        }
        self.patch(&norm, false);

        faultpoint!(ctx, "delta.census");
        let planned = if ctx.should_stop() {
            None
        } else {
            self.plan_repair(&pairs, &removal_roots, ctx)
        };
        let (plans, dirty_vertices) = match planned {
            Some(planned) => planned,
            None => {
                // Cooperative cancellation: put the graph and bit
                // matrix back; any fresh (empty) class registrations
                // from classification are unobservable.
                self.patch(&norm, true);
                return Err(DeltaError::Cancelled);
            }
        };

        // Commit — infallible: splice each planned root, keeping
        // per-class membership in step.
        let mut stats = CensusDeltaStats {
            dirty_roots: plans.len(),
            dirty_vertices,
            ..CensusDeltaStats::default()
        };
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for (root, plan) in plans {
            stats.retracted += plan.removals.len();
            stats.inserted += plan.insertions.len();
            self.commit_root(root, plan, &mut touched);
        }
        debug_assert_eq!(
            self.classes.iter().map(|c| c.members.len()).sum::<usize>(),
            self.candidate_count(),
            "every live candidate is a member of exactly one class"
        );
        // Exactly the classes whose occurrence stream changed — inert
        // candidates keep their class, content and relative order, so
        // publish-level cleanliness is what the label cache consumes.
        stats.touched = touched
            .into_iter()
            .map(|cid| {
                let c = &self.classes[cid as usize];
                (self.k as u8, c.code)
            })
            .collect();
        Ok(stats)
    }

    /// Report the census exactly as the batch engine would: classes in
    /// descending frequency (ties first-seen), occurrences truncated to
    /// the storage cap in serial-tag order (first occurrence always
    /// kept), filtered at `frequency_threshold` and capped at
    /// `max_classes`. Returns the classes and whether the cap bound.
    pub fn publish(
        &self,
        frequency_threshold: usize,
        max_classes: usize,
    ) -> (Vec<SubgraphClass>, bool) {
        let keep = self.max_stored.max(1);
        let tagged: Vec<TaggedClass> = self
            .classes
            .iter()
            .filter(|c| !c.members.is_empty())
            .map(|c| TaggedClass {
                pattern: c.pattern.clone(),
                first_seen: *c.members.iter().next().expect("filter kept only non-empty member sets"),
                frequency: c.members.len(),
                occurrences: c
                    .members
                    .iter()
                    .take(keep)
                    .map(|&(r, s)| {
                        let seg = &self.roots[r as usize];
                        let i = seg
                            .sseqs
                            .binary_search(&s)
                            .expect("member tags always resolve to a live candidate");
                        let verts = seg.verts[i * self.k..][..self.k].to_vec();
                        ((r, s), Occurrence::new(verts))
                    })
                    .collect(),
            })
            .collect();
        let mut out: Vec<SubgraphClass> = finalize_classes(tagged)
            .into_iter()
            .filter(|c| c.frequency >= frequency_threshold)
            .collect();
        let capped = out.len() > max_classes;
        if capped {
            out.truncate(max_classes);
        }
        (out, capped)
    }

    /// The stable key of a published class (size, exact canonical code
    /// of its pattern — already the canonical representative).
    pub fn key_of(class: &SubgraphClass) -> ClassKey {
        (
            class.pattern.vertex_count() as u8,
            ppi_graph::canonical::small_adjacency_bits(&class.pattern),
        )
    }

    /// Apply (or revert, with `revert = true`) the delta to the owned
    /// graph and bit matrix.
    fn patch(&mut self, norm: &NormalizedDelta, revert: bool) {
        if revert {
            norm.revert(&mut self.graph);
        } else {
            norm.apply_to(&mut self.graph);
        }
        for &(a, b) in &norm.added {
            self.bits.patch(a, b, !revert);
        }
        for &(a, b) in &norm.removed {
            self.bits.patch(a, b, revert);
        }
    }

    /// Read-only repair planning on the patched graph: which candidates
    /// leave each affected root, which enter, and where. Also counts
    /// the dirty-region vertices (those in any changed candidate or
    /// endpoint). Returns `None` on cooperative cancellation (the only
    /// mutations so far — memo and empty-class registrations — are
    /// unobservable).
    fn plan_repair(
        &mut self,
        pairs: &[(u32, u32)],
        removal_roots: &BTreeSet<u32>,
        ctx: &RunContext,
    ) -> Option<(BTreeMap<u32, RootPlan>, usize)> {
        let k = self.k;
        let n = self.graph.vertex_count();
        let mut endpoint = vec![false; n];
        let mut dirty_mark = vec![false; n];
        let mut dirty_vertices = 0usize;
        for &(a, b) in pairs {
            endpoint[a as usize] = true;
            endpoint[b as usize] = true;
            for x in [a, b] {
                if !dirty_mark[x as usize] {
                    dirty_mark[x as usize] = true;
                    dirty_vertices += 1;
                }
            }
        }

        // 1. Retractions: one pair-containment scan over each segment
        //    that the pre-graph enumeration proved owns a retraction.
        let mut plans: BTreeMap<u32, RootPlan> = BTreeMap::new();
        let mut hits: Vec<u32> = Vec::with_capacity(k);
        for &r in removal_roots {
            let seg = &self.roots[r as usize];
            // Cancellation at segment granularity: segments are dirty
            // roots only, and the per-candidate test is a few flag
            // reads — metering each one would cost more than the work.
            if !ctx.tick(seg.len() as u64) {
                return None;
            }
            let mut removals = Vec::new();
            for i in 0..seg.len() {
                let verts = &seg.verts[i * k..(i + 1) * k];
                let nhits = verts.iter().filter(|v| endpoint[v.0 as usize]).count();
                if nhits >= 2 {
                    hits.clear();
                    hits.extend(verts.iter().map(|v| v.0).filter(|&v| endpoint[v as usize]));
                    if pairs
                        .iter()
                        .any(|&(a, b)| hits.contains(&a) && hits.contains(&b))
                    {
                        removals.push(i);
                        for v in verts {
                            if !dirty_mark[v.0 as usize] {
                                dirty_mark[v.0 as usize] = true;
                                dirty_vertices += 1;
                            }
                        }
                    }
                }
            }
            debug_assert!(
                !removals.is_empty(),
                "every root of a pre-graph pair superset owns a retraction"
            );
            plans.insert(
                r,
                RootPlan {
                    removals,
                    ..RootPlan::default()
                },
            );
        }

        // 2. Post-graph connected k-sets containing a changed pair
        //    (BTreeSet: dedups sets shared by two pairs, and fixes the
        //    processing order deterministically).
        let mut new_sets: BTreeSet<Vec<u32>> = BTreeSet::new();
        for &(u, v) in pairs {
            let done = self.collect_pair_supersets(
                u,
                v,
                &mut |set| {
                    new_sets.insert(set.to_vec());
                },
                ctx,
            );
            if !done {
                return None;
            }
        }

        // 3. Classify each newcomer and pin its splice position among
        //    the surviving candidates of its root. `new_sets` is
        //    sorted, so newcomers of one root arrive consecutively and
        //    the per-root survivor list and key cache are built once.
        let mut scratch = KeyScratch::new(n);
        let mut sorted_buf = [VertexId(0); SMALL_CANON_MAX];
        let mut cur_root = u32::MAX;
        let mut survivors: Vec<u32> = Vec::new();
        let mut key_cache: Vec<Option<Vec<u32>>> = Vec::new();
        for set in new_sets {
            if !ctx.tick(1) {
                return None;
            }
            for &v in &set {
                if !dirty_mark[v as usize] {
                    dirty_mark[v as usize] = true;
                    dirty_vertices += 1;
                }
            }
            let root = set[0];
            if root != cur_root {
                cur_root = root;
                let seg = &self.roots[root as usize];
                let removals = plans.get(&root).map(|p| p.removals.as_slice()).unwrap_or(&[]);
                survivors.clear();
                survivors.reserve(seg.len() - removals.len());
                let mut ri = 0usize;
                for i in 0..seg.len() {
                    if ri < removals.len() && removals[ri] == i {
                        ri += 1;
                    } else {
                        survivors.push(i as u32);
                    }
                }
                key_cache.clear();
                key_cache.resize(survivors.len(), None);
            }
            let sorted = &mut sorted_buf[..k];
            for (s, &v) in sorted.iter_mut().zip(&set) {
                *s = VertexId(v);
            }
            let (cid, lab) = self.classify_sorted(sorted);
            let key = derivation_key(&self.graph, &mut scratch, &set);
            // Splice position: count the surviving candidates the
            // walker visits before this set.
            let seg = &self.roots[root as usize];
            let pos = {
                let mut lo = 0usize;
                let mut hi = survivors.len();
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let graph = &self.graph;
                    let sk = key_cache[mid].get_or_insert_with(|| {
                        let i = survivors[mid] as usize;
                        let mut sv: Vec<u32> =
                            seg.verts[i * k..(i + 1) * k].iter().map(|v| v.0).collect();
                        sv.sort_unstable();
                        derivation_key(graph, &mut scratch, &sv)
                    });
                    if visits_before(sk, &key) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            let sorted = &sorted_buf[..k];
            plans.entry(root).or_default().insertions.push(Insertion {
                pos,
                verts: (0..k)
                    .map(|i| sorted[(lab >> (4 * i) & 0xF) as usize])
                    .collect(),
                cid,
                key,
            });
        }
        for plan in plans.values_mut() {
            plan.insertions.sort_by(|a, b| {
                a.pos.cmp(&b.pos).then_with(|| {
                    if visits_before(&a.key, &b.key) {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                })
            });
        }
        Some((plans, dirty_vertices))
    }

    /// Splice one planned root: retract, merge insertions at their
    /// positions, assign gap tags (renumbering the root only when a gap
    /// exhausts), and keep class membership trees in step. Survivor
    /// runs are copied chunk-wise, so the splice costs one memcpy of
    /// the segment plus O(retractions + insertions) bookkeeping.
    fn commit_root(&mut self, root: u32, plan: RootPlan, touched: &mut BTreeSet<u32>) {
        let RootPlan {
            removals,
            insertions,
        } = plan;
        if removals.is_empty() && insertions.is_empty() {
            return;
        }
        let k = self.k;
        let old = std::mem::take(&mut self.roots[root as usize]);
        for &i in &removals {
            let cid = old.class_ids[i];
            self.classes[cid as usize].members.remove(&(root, old.sseqs[i]));
            touched.insert(cid);
        }
        let surv_len = old.len() - removals.len();
        let merged_len = surv_len + insertions.len();
        // Sized to this root alone: a hub's capacity never passes on to
        // the next, smaller root.
        let mut seg = RootSegment {
            class_ids: Vec::with_capacity(merged_len),
            verts: Vec::with_capacity(merged_len * k),
            sseqs: Vec::with_capacity(merged_len),
        };
        // Merged position of each insertion (in `insertions` order),
        // for member registration after the tags settle.
        let mut ins_at: Vec<usize> = Vec::with_capacity(insertions.len());
        let mut fits = true;
        {
            let mut ri = 0usize; // next removal (ascending old indices)
            let mut next_old = 0usize; // next old index not yet consumed
            let mut emitted = 0usize; // survivors emitted so far
            let mut ii = 0usize; // next insertion
            while ii < insertions.len() || emitted < surv_len {
                // Copy survivor runs up to the next insertion point.
                let target = if ii < insertions.len() {
                    insertions[ii].pos
                } else {
                    surv_len
                };
                while emitted < target {
                    while ri < removals.len() && removals[ri] == next_old {
                        ri += 1;
                        next_old += 1;
                    }
                    let chunk_end = if ri < removals.len() {
                        removals[ri]
                    } else {
                        old.len()
                    };
                    let take = (chunk_end - next_old).min(target - emitted);
                    seg.class_ids
                        .extend_from_slice(&old.class_ids[next_old..next_old + take]);
                    seg.verts
                        .extend_from_slice(&old.verts[next_old * k..(next_old + take) * k]);
                    seg.sseqs
                        .extend_from_slice(&old.sseqs[next_old..next_old + take]);
                    next_old += take;
                    emitted += take;
                }
                // Emit the insertion run anchored at `target`, spread
                // across the surrounding tag gap.
                let run_start = ii;
                while ii < insertions.len() && insertions[ii].pos == target {
                    ii += 1;
                }
                let run = (ii - run_start) as u64;
                if run > 0 {
                    let lo = u64::from(seg.sseqs.last().copied().unwrap_or(0));
                    let hi = if emitted < surv_len {
                        // Tag of the next survivor: skip any removals
                        // sitting at the cursor without consuming them.
                        let mut oi = next_old;
                        let mut rj = ri;
                        while rj < removals.len() && removals[rj] == oi {
                            rj += 1;
                            oi += 1;
                        }
                        u64::from(old.sseqs[oi])
                    } else {
                        u64::from(u32::MAX)
                    };
                    let step = (hi - lo) / (run + 1);
                    if step == 0 {
                        fits = false;
                    }
                    for (m, ins) in insertions[run_start..ii].iter().enumerate() {
                        ins_at.push(seg.sseqs.len());
                        seg.class_ids.push(ins.cid);
                        seg.verts.extend_from_slice(&ins.verts);
                        seg.sseqs.push((lo + (m as u64 + 1) * step) as u32);
                    }
                }
            }
        }
        if !fits {
            // Gap exhausted: renumber the whole root. Tags are internal
            // (ordering-only), so re-tagging survivors is invisible to
            // publish and is not reported as touched. A survivor's new
            // tag may equal a later survivor's old one, so every old tag
            // leaves the membership trees before any new tag enters.
            seg.sseqs = gap_seqs(merged_len);
            let mut moves: Vec<(u32, usize)> = Vec::with_capacity(surv_len);
            let mut ins_ptr = 0usize;
            let mut ri = 0usize;
            let mut oi = 0usize;
            for pos in 0..merged_len {
                if ins_ptr < ins_at.len() && ins_at[ins_ptr] == pos {
                    ins_ptr += 1;
                    continue;
                }
                while ri < removals.len() && removals[ri] == oi {
                    ri += 1;
                    oi += 1;
                }
                let cid = old.class_ids[oi];
                self.classes[cid as usize].members.remove(&(root, old.sseqs[oi]));
                moves.push((cid, pos));
                oi += 1;
            }
            for (cid, pos) in moves {
                self.classes[cid as usize].members.insert((root, seg.sseqs[pos]));
            }
        }
        // Register the newcomers under their settled tags.
        for (ins, &pos) in insertions.iter().zip(&ins_at) {
            self.classes[ins.cid as usize]
                .members
                .insert((root, seg.sseqs[pos]));
            touched.insert(ins.cid);
        }
        self.roots[root as usize] = seg;
    }

    /// Connected `k`-sets of the current graph containing both `u` and
    /// `v`, emitted as sorted vertex lists. Forbidden-set growth from
    /// the seed pair generates each superset exactly once; connectivity
    /// is checked once per complete set (the seed itself may sit in two
    /// components until the growth bridges them), so the same routine
    /// serves the retraction side (pre graph, before the patch) and the
    /// insertion side (post graph). Returns `false` on cooperative
    /// cancellation.
    ///
    /// Hot-path shape (the delta engine calls this once per changed
    /// pair per size): candidates propagate ESU-style — a child node
    /// inherits the parent's remaining candidates and appends only the
    /// *exclusive* neighbors of the vertex just added, found through a
    /// `seen` mark array — and leaf connectivity reads the packed
    /// adjacency bits (one shift-and-mask per vertex pair plus a
    /// bitmask flood) instead of a hash-set BFS over full hub
    /// adjacency lists.
    fn collect_pair_supersets(
        &self,
        u: u32,
        v: u32,
        emit: &mut dyn FnMut(&[u32]),
        ctx: &RunContext,
    ) -> bool {
        struct Frame<'e> {
            g: &'e Graph,
            bits: &'e AdjBits,
            k: usize,
            /// seen[w]: w is in the growing set, spent as a candidate
            /// in some enclosing frame (forbidden for this subtree), or
            /// queued as a candidate on this path.
            seen: Vec<bool>,
            set: Vec<u32>,
            emit: &'e mut dyn FnMut(&[u32]),
        }
        impl Frame<'_> {
            fn rec(&mut self, cand: &[u32], ctx: &RunContext) -> bool {
                if !ctx.tick(cand.len() as u64 + 1) {
                    return false;
                }
                if self.set.len() + 1 == self.k {
                    // Last level: every candidate completes a set; no
                    // child candidates are needed.
                    let mut sorted = [VertexId(0); SMALL_CANON_MAX];
                    for &w in cand {
                        let s = &mut sorted[..self.k];
                        for (slot, &x) in s.iter_mut().zip(self.set.iter().chain([&w])) {
                            *slot = VertexId(x);
                        }
                        s.sort_unstable();
                        let packed = packed_bits_of(self.bits, s);
                        if packed_connected(self.k, packed) {
                            let mut out = [0u32; SMALL_CANON_MAX];
                            for (o, x) in out.iter_mut().zip(s.iter()) {
                                *o = x.0;
                            }
                            (self.emit)(&out[..self.k]);
                        }
                    }
                    return true;
                }
                // Take candidates from the back; a spent vertex stays
                // `seen` for its siblings (each superset grown once).
                let mut child: Vec<u32> = Vec::with_capacity(cand.len() + 8);
                for i in (0..cand.len()).rev() {
                    let w = cand[i];
                    child.clear();
                    child.extend_from_slice(&cand[..i]);
                    child.extend(
                        self.g
                            .neighbors(VertexId(w))
                            .iter()
                            .copied()
                            .filter(|&x| !self.seen[x as usize]),
                    );
                    for &x in &child[i..] {
                        self.seen[x as usize] = true;
                    }
                    self.set.push(w);
                    let ok = self.rec(&child, ctx);
                    self.set.pop();
                    // Exclusive discoveries are forbidden only inside
                    // `w`'s subtree — sets without `w` may still reach
                    // them through other growth paths.
                    for &x in &child[i..] {
                        self.seen[x as usize] = false;
                    }
                    if !ok {
                        return false;
                    }
                }
                true
            }
        }
        if self.k < 2 {
            return true;
        }
        let mut seen = vec![false; self.graph.vertex_count()];
        seen[u as usize] = true;
        seen[v as usize] = true;
        let mut cand: Vec<u32> = Vec::new();
        for x in [u, v] {
            let start = cand.len();
            cand.extend(
                self.graph
                    .neighbors(VertexId(x))
                    .iter()
                    .copied()
                    .filter(|&w| !seen[w as usize]),
            );
            for &w in &cand[start..] {
                seen[w as usize] = true;
            }
        }
        let mut frame = Frame {
            g: &self.graph,
            bits: &self.bits,
            k: self.k,
            seen,
            set: vec![u, v],
            emit,
        };
        frame.rec(&cand, ctx)
    }

    /// Classify a sorted candidate set on the current bit matrix,
    /// registering a fresh class if its canonical code is new — the
    /// same memoized path [`Self::walk_roots`] uses.
    fn classify_sorted(&mut self, sorted: &[VertexId]) -> (u32, u64) {
        let k = self.k;
        let packed = packed_bits_of(&self.bits, sorted);
        match self.bits_memo.entry(packed) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(memo) => {
                let (code, lab) = self.cache.get_or_insert_with((k as u8, packed), || {
                    small_canonical_code(&small_graph_from_bits(k, packed))
                });
                let cid = match self.code_buckets.entry(code) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let cid = self.classes.len() as u32;
                        e.insert(cid);
                        self.classes.push(ClassInfo {
                            code,
                            pattern: small_graph_from_bits(k, code),
                            members: BTreeSet::new(),
                        });
                        cid
                    }
                };
                *memo.insert((cid, lab))
            }
        }
    }

    /// Enumerate and classify the candidates of each listed root on
    /// the current bit matrix, one tick per candidate. Returns `None`
    /// on cooperative cancellation (partial work discarded; fresh
    /// classes may remain registered with no members, which is
    /// unobservable).
    fn walk_roots(&mut self, roots: &[u32], ctx: &RunContext) -> Option<Vec<(u32, RootSegment)>> {
        let k = self.k;
        let bits = &self.bits;
        let cache = &self.cache;
        let bits_memo = &mut self.bits_memo;
        let code_buckets = &mut self.code_buckets;
        let classes = &mut self.classes;
        let mut walker = DenseEsuWalker::new(bits, k);
        let mut out = Vec::with_capacity(roots.len());
        for &root in roots {
            let mut seg = RootSegment::default();
            let completed = walker.enumerate_root(root, &mut |verts| {
                let mut buf = [VertexId(0); SMALL_CANON_MAX];
                let sorted = &mut buf[..k];
                sorted.copy_from_slice(verts);
                sorted.sort_unstable();
                let packed = packed_bits_of(bits, sorted);
                let (cid, lab) = match bits_memo.entry(packed) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(memo) => {
                        let (code, lab) = cache.get_or_insert_with((k as u8, packed), || {
                            small_canonical_code(&small_graph_from_bits(k, packed))
                        });
                        let cid = match code_buckets.entry(code) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                let cid = classes.len() as u32;
                                e.insert(cid);
                                classes.push(ClassInfo {
                                    code,
                                    pattern: small_graph_from_bits(k, code),
                                    members: BTreeSet::new(),
                                });
                                cid
                            }
                        };
                        *memo.insert((cid, lab))
                    }
                };
                seg.class_ids.push(cid);
                seg.verts
                    .extend((0..k).map(|i| sorted[(lab >> (4 * i) & 0xF) as usize]));
                ctx.tick(1)
            });
            if !completed || ctx.should_stop() {
                return None;
            }
            out.push((root, seg));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nemo::{grow_frequent_subgraphs, GrowthConfig};

    fn config(k: usize, threshold: usize, max_stored: usize, max_classes: usize) -> GrowthConfig {
        GrowthConfig {
            min_size: k,
            max_size: k,
            frequency_threshold: threshold,
            max_stored_occurrences: max_stored,
            max_candidates_per_level: usize::MAX,
            max_classes_per_level: max_classes,
            threads: 1,
        }
    }

    fn assert_classes_identical(ours: &[SubgraphClass], oracle: &[SubgraphClass]) {
        assert_eq!(ours.len(), oracle.len(), "class count");
        for (a, b) in ours.iter().zip(oracle) {
            assert_eq!(a.pattern, b.pattern, "pattern");
            assert_eq!(a.frequency, b.frequency, "frequency");
            assert_eq!(a.occurrences, b.occurrences, "occurrences");
        }
    }

    /// Deterministic scale-free-ish test graph.
    fn seed_graph(n: u32, extra: &[(u32, u32)]) -> Graph {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (v, v / 2)).collect();
        edges.extend_from_slice(extra);
        Graph::from_edges(n as usize, &edges)
    }

    #[test]
    fn fresh_census_matches_batch_engine() {
        let g = seed_graph(40, &[(3, 9), (5, 20), (7, 31), (2, 17)]);
        for k in 2..=5 {
            let census = IncrementalCensus::new(&g, k, 5, &RunContext::unbounded()).unwrap();
            let (ours, _) = census.publish(2, usize::MAX);
            let oracle = grow_frequent_subgraphs(&g, &config(k, 2, 5, usize::MAX));
            assert_classes_identical(&ours, &oracle.classes);
        }
    }

    #[test]
    fn delta_census_matches_batch_engine_on_post_graph() {
        let mut g = seed_graph(60, &[(4, 11), (9, 26), (13, 40)]);
        let ctx = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 4, 6, &ctx).unwrap();
        let deltas = [
            EdgeDelta::new(&[(0, 33), (12, 50)], &[(4, 11)]),
            EdgeDelta::new(&[(4, 11)], &[(0, 33), (1, 3)]),
            EdgeDelta::new(&[(58, 2)], &[]),
            EdgeDelta::new(&[], &[(58, 2), (12, 50)]),
        ];
        for delta in &deltas {
            census.apply(delta, &ctx).unwrap();
            delta.normalize(&g).unwrap().apply_to(&mut g);
            let (ours, _) = census.publish(2, usize::MAX);
            let oracle = grow_frequent_subgraphs(&g, &config(4, 2, 6, usize::MAX));
            assert_classes_identical(&ours, &oracle.classes);
            assert_eq!(census.graph(), &g);
        }
    }

    #[test]
    fn storage_cap_and_class_cap_match_batch_engine() {
        let g = seed_graph(50, &[(6, 13), (21, 44)]);
        let ctx = RunContext::unbounded();
        for max_stored in [0, 1, 3] {
            let mut census = IncrementalCensus::new(&g, 3, max_stored, &ctx).unwrap();
            census
                .apply(&EdgeDelta::new(&[(10, 30)], &[(6, 13)]), &ctx)
                .unwrap();
            let mut post = g.clone();
            post.add_edge(VertexId(10), VertexId(30));
            post.remove_edge(VertexId(6), VertexId(13));
            for max_classes in [1, 2, usize::MAX] {
                let (ours, _) = census.publish(2, max_classes);
                let oracle =
                    grow_frequent_subgraphs(&post, &config(3, 2, max_stored, max_classes));
                assert_classes_identical(&ours, &oracle.classes);
            }
        }
    }

    #[test]
    fn orphaning_removal_vanishes_class() {
        // One triangle hanging off a path: removing a triangle edge
        // orphans every triangle occurrence.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let ctx = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 3, 4, &ctx).unwrap();
        let (before, _) = census.publish(1, usize::MAX);
        assert_eq!(before.len(), 2, "path class + triangle class");
        let stats = census
            .apply(&EdgeDelta::new(&[], &[(0, 2)]), &ctx)
            .unwrap();
        let (after, _) = census.publish(1, usize::MAX);
        assert_eq!(after.len(), 1, "triangle class must vanish");
        assert!(after.iter().all(|c| c.pattern.edge_count() == 2));
        // Both the path class and the (vanished) triangle class were
        // touched.
        assert_eq!(stats.touched.len(), 2);
        // And the oracle agrees.
        let mut post = g.clone();
        post.remove_edge(VertexId(0), VertexId(2));
        let oracle = grow_frequent_subgraphs(&post, &config(3, 1, 4, usize::MAX));
        assert_classes_identical(&after, &oracle.classes);
    }

    #[test]
    fn empty_and_cancelling_deltas_touch_nothing() {
        let g = seed_graph(30, &[]);
        let ctx = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 3, 4, &ctx).unwrap();
        let before = census.publish(1, usize::MAX).0;
        for delta in [
            EdgeDelta::default(),
            EdgeDelta::new(&[(2, 9)], &[(2, 9)]),
        ] {
            let stats = census.apply(&delta, &ctx).unwrap();
            assert_eq!(stats.dirty_roots, 0);
            assert!(stats.touched.is_empty());
            assert_classes_identical(&census.publish(1, usize::MAX).0, &before);
        }
    }

    #[test]
    fn validation_errors_leave_census_untouched() {
        let g = seed_graph(30, &[]);
        let ctx = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 3, 4, &ctx).unwrap();
        let before = census.publish(1, usize::MAX).0;
        let bad = [
            (EdgeDelta::new(&[(5, 5)], &[]), DeltaError::SelfLoop { edge: (5, 5) }),
            (
                EdgeDelta::new(&[(1, 2), (2, 1)], &[]),
                DeltaError::DuplicateEdge { edge: (1, 2) },
            ),
            (
                EdgeDelta::new(&[(1, 0)], &[]),
                DeltaError::AlreadyPresent { edge: (0, 1) },
            ),
            (
                EdgeDelta::new(&[], &[(0, 29)]),
                DeltaError::NotPresent { edge: (0, 29) },
            ),
        ];
        for (delta, want) in bad {
            assert_eq!(census.apply(&delta, &ctx).unwrap_err(), want);
            assert_classes_identical(&census.publish(1, usize::MAX).0, &before);
        }
    }

    #[test]
    fn cancellation_reverts_patches() {
        let g = seed_graph(40, &[(3, 9)]);
        let passive = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 4, 4, &passive).unwrap();
        let before = census.publish(1, usize::MAX).0;
        // A tick budget too small for the re-walk trips mid-census.
        let tiny = RunContext::with_tick_budget(1);
        let err = census
            .apply(&EdgeDelta::new(&[(0, 35)], &[(3, 9)]), &tiny)
            .unwrap_err();
        assert_eq!(err, DeltaError::Cancelled);
        assert_classes_identical(&census.publish(1, usize::MAX).0, &before);
        // The engine still works after the aborted apply.
        census
            .apply(&EdgeDelta::new(&[(0, 35)], &[(3, 9)]), &passive)
            .unwrap();
        let mut post = g.clone();
        post.add_edge(VertexId(0), VertexId(35));
        post.remove_edge(VertexId(3), VertexId(9));
        let oracle = grow_frequent_subgraphs(&post, &config(4, 1, 4, usize::MAX));
        assert_classes_identical(&census.publish(1, usize::MAX).0, &oracle.classes);
    }

    #[test]
    fn a_hub_commit_leaves_no_capacity_to_later_roots() {
        // Root 0 is a 30-leaf star hub (435 paths at k = 3); 31-32-33-34
        // is a path and 35 is isolated, so root 33 starts empty.
        let mut edges: Vec<(u32, u32)> = (1..=30).map(|leaf| (0, leaf)).collect();
        edges.extend_from_slice(&[(31, 32), (32, 33), (33, 34)]);
        let g = Graph::from_edges(36, &edges);
        let ctx = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 3, usize::MAX, &ctx).unwrap();
        // Commit the hub root (29 retractions), then the small root 33
        // (one insertion, {33, 34, 35}).
        census.apply(&EdgeDelta::new(&[], &[(0, 30)]), &ctx).unwrap();
        census.apply(&EdgeDelta::new(&[(34, 35)], &[]), &ctx).unwrap();
        assert_eq!(census.roots[0].len(), 406);
        assert_eq!(census.roots[33].len(), 1);
        // Four is the smallest allocation a push makes.
        let bound = |len: usize| (2 * len).max(4);
        for (r, seg) in census.roots.iter().enumerate() {
            let n = seg.len();
            assert!(seg.class_ids.capacity() <= bound(n), "root {r} class_ids");
            assert!(seg.sseqs.capacity() <= bound(n), "root {r} sseqs");
            assert!(seg.verts.capacity() <= bound(3 * n), "root {r} verts");
        }
    }

    #[test]
    fn touched_keys_are_exact_membership_changes() {
        // Adding a pendant edge far from a disjoint triangle must not
        // mark the triangle class dirty.
        let g = Graph::from_edges(
            10,
            &[(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (7, 8)],
        );
        let ctx = RunContext::unbounded();
        let mut census = IncrementalCensus::new(&g, 3, 4, &ctx).unwrap();
        let stats = census
            .apply(&EdgeDelta::new(&[(8, 9)], &[]), &ctx)
            .unwrap();
        let triangle_key = {
            let (classes, _) = census.publish(1, usize::MAX);
            let tri = classes.iter().find(|c| c.pattern.edge_count() == 3).unwrap();
            IncrementalCensus::key_of(tri)
        };
        assert!(!stats.touched.is_empty(), "the path class gained members");
        assert!(
            !stats.touched.contains(&triangle_key),
            "triangle class must stay clean"
        );
    }
}
