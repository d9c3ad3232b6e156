//! Grouping subgraph occurrences into isomorphism classes.
//!
//! This is the hottest loop of the growth phase (millions of candidate
//! sets), so classification is split by candidate size:
//!
//! * **k ≤ 8** (the FANMOD/graphlet regime): the candidate's induced
//!   adjacency matrix fits one `u64` word, so each candidate is mapped
//!   to an **exact canonical code** (orbit-pruned
//!   individualization–refinement search over the packed bits,
//!   `ppi_graph::canonical::small_canonical_code`). Codes are memoized
//!   in a [`ShardedCache`] keyed on the packed bits — across a run only
//!   one canonical search is paid per distinct labeled shape — and the
//!   class bucket key *is* the code, so classification is a hash lookup
//!   and no per-candidate color refinement or VF2 runs at all. The class
//!   pattern is the canonical representative, which also makes the
//!   occurrence alignment a table lookup (the memoized canonical
//!   labeling) and lets parallel workers merge classes by code equality.
//! * **k > 8** (meso-scale): candidates are bucketed by a cheap
//!   isomorphism invariant (size, degree sequence, refinement color
//!   histogram) and matched by VF2 against the representative patterns
//!   of the bucket, computing the equitable refinement once per
//!   candidate — exact without full canonicalization.
//!
//! Each class keeps its occurrences position-aligned to the class
//! pattern (the alignment LaMoFinder's labeling needs). Occurrences
//! carry a `(major, minor)` **tag** — their position in the serial
//! enumeration order — so per-worker collectors produced by the parallel
//! discovery front-end can be merged into the exact classes, occurrence
//! order and truncation the serial pass yields (see
//! [`merge_tagged_classes`]).

use crate::motif::Occurrence;
use par_util::ShardedCache;
use ppi_graph::canonical::{
    small_canonical_code, small_graph_from_bits, SMALL_CANON_MAX,
};
use ppi_graph::isomorphism::find_isomorphism_prepared;
use ppi_graph::refinement::refine_colors;
use ppi_graph::{AdjBits, Graph, VertexId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Position of a candidate in the serial enumeration order: `(major,
/// minor)` = (ESU root, sequence within the root) at the seed level, or
/// (occurrence item, derivation within the item) at extension levels.
/// Lexicographic order over tags is the serial visit order.
pub(crate) type Tag = (u32, u32);

/// Memo of exact canonical codes keyed on `(n, packed adjacency bits)`;
/// the value is `(canonical code, packed canonical labeling)` as
/// returned by [`small_canonical_code`]. Shareable across worker
/// threads and growth levels (the key includes the vertex count).
pub type CanonCodeCache = ShardedCache<(u8, u64), (u64, u64)>;

/// One isomorphism class of subgraph occurrences.
#[derive(Clone, Debug)]
pub struct SubgraphClass {
    /// Representative pattern over vertices `0..k` (for k ≤ 8, the
    /// canonical representative of the class).
    pub pattern: Graph,
    /// Occurrences aligned to `pattern` (may be truncated at the cap).
    pub occurrences: Vec<Occurrence>,
    /// Total occurrences seen (≥ `occurrences.len()`).
    pub frequency: usize,
}

/// A class under construction: [`SubgraphClass`] plus the tags the
/// deterministic parallel merge needs.
#[derive(Clone, Debug)]
pub(crate) struct TaggedClass {
    pub pattern: Graph,
    /// Tag of the first candidate that joined the class.
    pub first_seen: Tag,
    pub frequency: usize,
    /// Stored occurrences with their tags, in tag order.
    pub occurrences: Vec<(Tag, Occurrence)>,
}

impl TaggedClass {
    fn into_class(self) -> SubgraphClass {
        SubgraphClass {
            pattern: self.pattern,
            occurrences: self.occurrences.into_iter().map(|(_, o)| o).collect(),
            frequency: self.frequency,
        }
    }
}

/// Cheap isomorphism-invariant bucket key for the k > 8 path: (n, m,
/// sorted degree sequence, sorted refinement color histogram).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct InvariantKey {
    n: u32,
    m: u32,
    degrees: Vec<u16>,
    color_sizes: Vec<u16>,
}

fn invariant_key(g: &Graph, colors: &[u32]) -> InvariantKey {
    let mut degrees: Vec<u16> = g.vertices().map(|v| g.degree(v) as u16).collect();
    degrees.sort_unstable();
    let k = colors.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut color_sizes = vec![0u16; k];
    for &c in colors {
        color_sizes[c as usize] += 1;
    }
    color_sizes.sort_unstable();
    InvariantKey {
        n: g.vertex_count() as u32,
        m: g.edge_count() as u32,
        degrees,
        color_sizes,
    }
}

/// Induced subgraph over a *small* vertex set, relabeled to `0..k` in
/// ascending vertex order. Returns the subgraph and the sorted vertex
/// list (`sub` vertex `i` = `sorted[i]`).
fn induced_small(network: &Graph, verts: &[VertexId]) -> (Graph, Vec<VertexId>) {
    let mut sorted: Vec<VertexId> = verts.to_vec();
    sorted.sort_unstable();
    let mut sub = Graph::empty(sorted.len());
    for (i, &v) in sorted.iter().enumerate() {
        // Walk v's neighbors that are inside the (sorted) set.
        for &u in network.neighbors(v) {
            if u <= v.0 {
                continue;
            }
            if let Ok(j) = sorted.binary_search(&VertexId(u)) {
                sub.add_edge(VertexId(i as u32), VertexId(j as u32));
            }
        }
    }
    (sub, sorted)
}

/// Packed adjacency bits of the induced subgraph over `sorted` (already
/// ascending, at most [`SMALL_CANON_MAX`] vertices), read off the
/// bit-packed rows — one shift-and-mask per vertex pair, no binary
/// search, and the induced subgraph itself is never materialized.
pub(crate) fn packed_bits_of(bits: &AdjBits, sorted: &[VertexId]) -> u64 {
    let n = sorted.len();
    let mut packed = 0u64;
    for i in 0..n {
        for j in i + 1..n {
            if bits.contains(sorted[i].0, sorted[j].0) {
                packed |= 1 << (i * n + j);
                packed |= 1 << (j * n + i);
            }
        }
    }
    packed
}

/// The historical packed-bits path: `O(k²)` `has_edge` binary searches
/// against the sorted adjacency lists. Kept as the regression oracle
/// for [`packed_bits_of`].
#[cfg(test)]
fn packed_bits_of_has_edge(network: &Graph, sorted: &[VertexId]) -> u64 {
    let n = sorted.len();
    let mut bits = 0u64;
    for i in 0..n {
        for j in i + 1..n {
            if network.has_edge(sorted[i], sorted[j]) {
                bits |= 1 << (i * n + j);
                bits |= 1 << (j * n + i);
            }
        }
    }
    bits
}

/// Canonical-code memo handle: collectors either own a private cache or
/// borrow one shared across worker threads.
enum CacheHandle<'a> {
    Owned(Box<CanonCodeCache>),
    Shared(&'a CanonCodeCache),
}

impl CacheHandle<'_> {
    fn get(&self) -> &CanonCodeCache {
        match self {
            CacheHandle::Owned(c) => c,
            CacheHandle::Shared(c) => c,
        }
    }
}

/// Packed-row handle: collectors either pack the network themselves or
/// borrow the rows a discovery run packed once and shared.
enum BitsHandle<'a> {
    Owned(Box<AdjBits>),
    Shared(&'a AdjBits),
}

impl BitsHandle<'_> {
    fn get(&self) -> &AdjBits {
        match self {
            BitsHandle::Owned(b) => b,
            BitsHandle::Shared(b) => b,
        }
    }
}

/// Accumulates vertex sets into isomorphism classes.
pub struct ClassCollector<'a> {
    network: &'a Graph,
    /// Bit-packed adjacency rows of `network` (owned or shared).
    bits: BitsHandle<'a>,
    /// Cap on stored occurrences per class (`usize::MAX` = unlimited);
    /// the first occurrence is always stored, frequency keeps counting
    /// past the cap.
    max_stored: usize,
    cache: CacheHandle<'a>,
    /// Collector-local packed-id fast path: packed adjacency bits →
    /// (class index, canonical labeling). The dominant small-k
    /// candidates repeat a handful of packed ids, so after the first
    /// sighting of each id classification is one local hash lookup —
    /// no shared-cache lock, no canonical machinery at all.
    bits_memo: HashMap<(u8, u64), (usize, u64)>,
    /// Canonical code → class index (k ≤ 8); consulted only on a
    /// `bits_memo` miss (a packed id seen for the first time).
    code_buckets: HashMap<(u8, u64), usize>,
    /// Invariant key → class indices (k > 8).
    buckets: HashMap<InvariantKey, Vec<usize>>,
    classes: Vec<TaggedClass>,
    /// Refined colors of k > 8 class patterns (index-aligned to
    /// `classes`; empty for canonical-code classes).
    class_colors: Vec<Vec<u32>>,
    /// Auto-incremented minor tag for untagged [`ClassCollector::add`].
    next_seq: u32,
}

impl<'a> ClassCollector<'a> {
    /// New collector over `network` with a private canonical-code memo,
    /// storing at most `max_stored` occurrences per class.
    pub fn new(network: &'a Graph, max_stored: usize) -> Self {
        Self::build(
            network,
            BitsHandle::Owned(Box::new(AdjBits::new(network))),
            max_stored,
            CacheHandle::Owned(Box::default()),
        )
    }

    /// New collector sharing `cache` — every worker benefits from every
    /// other worker's canonical searches. Packs its own adjacency rows;
    /// workers of a discovery run use [`ClassCollector::with_kernel`]
    /// to share the rows too.
    pub fn with_cache(network: &'a Graph, max_stored: usize, cache: &'a CanonCodeCache) -> Self {
        Self::build(
            network,
            BitsHandle::Owned(Box::new(AdjBits::new(network))),
            max_stored,
            CacheHandle::Shared(cache),
        )
    }

    /// New collector sharing both the packed adjacency rows and the
    /// canonical-code memo — the parallel discovery configuration: the
    /// rows are packed once per run, never per worker.
    pub fn with_kernel(
        network: &'a Graph,
        bits: &'a AdjBits,
        max_stored: usize,
        cache: &'a CanonCodeCache,
    ) -> Self {
        Self::build(
            network,
            BitsHandle::Shared(bits),
            max_stored,
            CacheHandle::Shared(cache),
        )
    }

    fn build(
        network: &'a Graph,
        bits: BitsHandle<'a>,
        max_stored: usize,
        cache: CacheHandle<'a>,
    ) -> Self {
        ClassCollector {
            network,
            bits,
            max_stored,
            cache,
            bits_memo: HashMap::new(),
            code_buckets: HashMap::new(),
            buckets: HashMap::new(),
            classes: Vec::new(),
            class_colors: Vec::new(),
            next_seq: 0,
        }
    }

    /// Add one connected vertex set. Returns the class index it joined.
    pub fn add(&mut self, verts: &[VertexId]) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.add_tagged(verts, (0, seq))
    }

    /// Add one connected vertex set carrying its serial-order tag. Tags
    /// must be strictly increasing across calls on one collector.
    pub(crate) fn add_tagged(&mut self, verts: &[VertexId], tag: Tag) -> usize {
        if verts.len() <= SMALL_CANON_MAX {
            self.add_small(verts, tag)
        } else {
            self.add_large(verts, tag)
        }
    }

    /// k ≤ 8: packed-id fast path. The candidate's packed adjacency
    /// bits (read off the bit-packed rows into a stack buffer — no heap
    /// allocation) are looked up in the collector-local memo; only a
    /// first-sighted packed id touches the shared canonical-code cache
    /// and the canonical machinery. No per-candidate refinement or VF2.
    fn add_small(&mut self, verts: &[VertexId], tag: Tag) -> usize {
        let n = verts.len();
        let mut buf = [VertexId(0); SMALL_CANON_MAX];
        let sorted = &mut buf[..n];
        sorted.copy_from_slice(verts);
        sorted.sort_unstable();
        let bits = packed_bits_of(self.bits.get(), sorted);
        let (idx, lab) = match self.bits_memo.entry((n as u8, bits)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(memo) => {
                // First sighting of this packed id: resolve it to the
                // exact canonical code (shared memo — one canonical
                // search per distinct labeled shape per run) and to its
                // class bucket, then record the resolution locally.
                let (code, lab) = self
                    .cache
                    .get()
                    .get_or_insert_with((n as u8, bits), || {
                        small_canonical_code(&small_graph_from_bits(n, bits))
                    });
                let idx = match self.code_buckets.entry((n as u8, code)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let idx = self.classes.len();
                        e.insert(idx);
                        self.classes.push(TaggedClass {
                            pattern: small_graph_from_bits(n, code),
                            first_seen: tag,
                            frequency: 0,
                            occurrences: Vec::new(),
                        });
                        self.class_colors.push(Vec::new());
                        idx
                    }
                };
                *memo.insert((idx, lab))
            }
        };
        let class = &mut self.classes[idx];
        class.frequency += 1;
        if class.occurrences.is_empty() || class.occurrences.len() < self.max_stored {
            // Canonical position i is played by the sorted-set vertex at
            // canonical-labeling slot i.
            let aligned: Vec<VertexId> = (0..n)
                .map(|i| sorted[(lab >> (4 * i) & 0xF) as usize])
                .collect();
            class.occurrences.push((tag, Occurrence::new(aligned)));
        }
        idx
    }

    /// k > 8: invariant bucket + VF2 against bucket representatives.
    fn add_large(&mut self, verts: &[VertexId], tag: Tag) -> usize {
        let (sub, map) = induced_small(self.network, verts);
        let colors = refine_colors(&sub, None);
        let key = invariant_key(&sub, &colors);
        if let Some(bucket) = self.buckets.get(&key) {
            for &idx in bucket {
                let class_colors = &self.class_colors[idx];
                let class = &mut self.classes[idx];
                if let Some(iso) =
                    find_isomorphism_prepared(&class.pattern, class_colors, &sub, &colors)
                {
                    class.frequency += 1;
                    if class.occurrences.is_empty() || class.occurrences.len() < self.max_stored
                    {
                        // pattern vertex i plays network vertex map[iso[i]].
                        let aligned: Vec<VertexId> =
                            iso.iter().map(|t| map[t.index()]).collect();
                        class.occurrences.push((tag, Occurrence::new(aligned)));
                    }
                    return idx;
                }
            }
        }
        // New class: the induced subgraph itself is the pattern; the
        // identity alignment maps pattern vertex i to map[i].
        let idx = self.classes.len();
        self.buckets.entry(key).or_default().push(idx);
        self.classes.push(TaggedClass {
            pattern: sub,
            first_seen: tag,
            frequency: 1,
            occurrences: vec![(tag, Occurrence::new(map))],
        });
        self.class_colors.push(colors);
        idx
    }

    /// Finish, returning the classes sorted by descending frequency
    /// (ties keep first-seen order).
    pub fn into_classes(self) -> Vec<SubgraphClass> {
        finalize_classes(self.into_tagged_classes())
    }

    /// Finish, returning the tagged classes in first-seen order — the
    /// form [`merge_tagged_classes`] consumes.
    pub(crate) fn into_tagged_classes(self) -> Vec<TaggedClass> {
        // Tags increase across adds, so insertion order is first-seen
        // order already.
        self.classes
    }

    /// Number of classes so far.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// Sort tagged classes the way the serial collector reports them —
/// descending frequency, ties in first-seen order — and strip the tags.
pub(crate) fn finalize_classes(mut classes: Vec<TaggedClass>) -> Vec<SubgraphClass> {
    classes.sort_by_key(|c| c.first_seen);
    classes.sort_by_key(|c| std::cmp::Reverse(c.frequency)); // stable
    classes.into_iter().map(TaggedClass::into_class).collect()
}

/// Merge per-worker tagged classes into the classes a single serial
/// collector over the tag-ordered candidate stream would have built:
///
/// * classes are matched across workers exactly — by canonical code for
///   k ≤ 8 (patterns are canonical representatives, so code equality is
///   `Graph` equality), by invariant bucket + VF2 for k > 8;
/// * the merged representative pattern is the pattern of the member
///   with the smallest `first_seen` tag — i.e. of the globally first
///   candidate, exactly what the serial collector picks;
/// * occurrences of members whose local representative differs from the
///   merged one (possible only for k > 8) are re-aligned by a fresh VF2
///   run against their vertex set, reproducing the serial alignment;
/// * occurrence lists are merged in tag order and truncated to
///   `max_stored` — identical to the serial cap because every worker's
///   stream is a tag-ordered subsequence of the serial stream.
///
/// The output is therefore byte-identical for any worker count (and for
/// k > 8, to the historical serial collector).
pub(crate) fn merge_tagged_classes(
    network: &Graph,
    parts: Vec<Vec<TaggedClass>>,
    max_stored: usize,
) -> Vec<TaggedClass> {
    let mut groups: Vec<Vec<TaggedClass>> = Vec::new();
    let mut code_index: HashMap<(u8, u64), usize> = HashMap::new();
    let mut big_index: HashMap<InvariantKey, Vec<usize>> = HashMap::new();
    // Refined colors of each group's match representative (the first
    // member inserted), for the k > 8 VF2 matching only.
    let mut group_colors: Vec<Vec<u32>> = Vec::new();

    for part in parts {
        'classes: for class in part {
            let n = class.pattern.vertex_count();
            if n <= SMALL_CANON_MAX {
                let key = (
                    n as u8,
                    ppi_graph::canonical::small_adjacency_bits(&class.pattern),
                );
                match code_index.entry(key) {
                    Entry::Occupied(e) => groups[*e.get()].push(class),
                    Entry::Vacant(e) => {
                        e.insert(groups.len());
                        groups.push(vec![class]);
                        group_colors.push(Vec::new());
                    }
                }
            } else {
                let colors = refine_colors(&class.pattern, None);
                let key = invariant_key(&class.pattern, &colors);
                if let Some(bucket) = big_index.get(&key) {
                    for &gi in bucket {
                        if find_isomorphism_prepared(
                            &groups[gi][0].pattern,
                            &group_colors[gi],
                            &class.pattern,
                            &colors,
                        )
                        .is_some()
                        {
                            groups[gi].push(class);
                            continue 'classes;
                        }
                    }
                }
                let gi = groups.len();
                big_index.entry(key).or_default().push(gi);
                groups.push(vec![class]);
                group_colors.push(colors);
            }
        }
    }

    groups
        .into_iter()
        .map(|mut members| {
            members.sort_by_key(|m| m.first_seen);
            let rep = members[0].pattern.clone();
            let first_seen = members[0].first_seen;
            let frequency = members.iter().map(|m| m.frequency).sum();
            let needs_realign = members.iter().any(|m| m.pattern != rep);
            let rep_colors = if needs_realign {
                refine_colors(&rep, None)
            } else {
                Vec::new()
            };
            let mut occurrences: Vec<(Tag, Occurrence)> = Vec::new();
            for member in members {
                if member.pattern == rep {
                    occurrences.extend(member.occurrences);
                } else {
                    for (tag, occ) in member.occurrences {
                        occurrences.push((tag, realign(network, &rep, &rep_colors, &occ)));
                    }
                }
            }
            occurrences.sort_by_key(|&(tag, _)| tag);
            occurrences.truncate(max_stored.max(1));
            TaggedClass {
                pattern: rep,
                first_seen,
                frequency,
                occurrences,
            }
        })
        .collect()
}

/// Re-align an occurrence onto `rep` exactly as the serial collector
/// aligns a fresh candidate: sort the vertex set, extract the induced
/// subgraph from the network, VF2 `rep → sub`. The member's pattern is
/// isomorphic to `rep` by construction, so the search always succeeds.
/// Only runs for k > 8 members whose local representative lost the
/// first-seen race, so it is far off the hot path.
fn realign(network: &Graph, rep: &Graph, rep_colors: &[u32], occ: &Occurrence) -> Occurrence {
    let (sub, map) = induced_small(network, &occ.vertices);
    let colors = refine_colors(&sub, None);
    let iso = find_isomorphism_prepared(rep, rep_colors, &sub, &colors)
        .expect("merged class members are isomorphic");
    Occurrence::new(iso.iter().map(|t| map[t.index()]).collect())
}

/// Enumerate all connected size-`k` subgraphs of `g` and group them into
/// isomorphism classes (unlimited occurrence storage). Runs on the
/// dense kernels: the adjacency rows are packed once and shared by the
/// walker and the collector.
pub fn classify_size_k(g: &Graph, k: usize) -> Vec<SubgraphClass> {
    if k == 0 || k > g.vertex_count() {
        return Vec::new();
    }
    let bits = AdjBits::new(g);
    let cache = CanonCodeCache::default();
    let mut collector = ClassCollector::with_kernel(g, &bits, usize::MAX, &cache);
    let mut walker = crate::esu::DenseEsuWalker::new(&bits, k);
    for v in 0..g.vertex_count() as u32 {
        walker.enumerate_root(v, &mut |verts| {
            collector.add(verts);
            true
        });
    }
    collector.into_classes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every connected size-`k` vertex set of `g`, in the dense
    /// walker's serial order.
    fn each_connected_set(g: &Graph, k: usize, visit: &mut dyn FnMut(&[VertexId])) {
        let bits = AdjBits::new(g);
        let mut walker = crate::esu::DenseEsuWalker::new(&bits, k);
        for v in 0..g.vertex_count() as u32 {
            walker.enumerate_root(v, &mut |verts| {
                visit(verts);
                true
            });
        }
    }

    #[test]
    fn triangles_and_paths_separate() {
        // Network: triangle 0-1-2 and path 3-4-5-6.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]);
        let classes = classify_size_k(&g, 3);
        assert_eq!(classes.len(), 2);
        // Paths (2 of them: 3-4-5, 4-5-6) outnumber triangles (1).
        assert_eq!(classes[0].frequency, 2);
        assert_eq!(classes[0].pattern.edge_count(), 2);
        assert_eq!(classes[1].frequency, 1);
        assert_eq!(classes[1].pattern.edge_count(), 3);
    }

    #[test]
    fn occurrences_are_aligned_to_pattern() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]);
        for class in classify_size_k(&g, 3) {
            let motif = crate::motif::Motif {
                pattern: class.pattern.clone(),
                occurrences: class.occurrences.clone(),
                frequency: class.frequency,
                uniqueness: None,
            };
            assert!(motif.validate_against(&g));
        }
    }

    #[test]
    fn unsorted_vertex_sets_are_handled() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut collector = ClassCollector::new(&g, usize::MAX);
        let a = collector.add(&[VertexId(2), VertexId(0), VertexId(1)]);
        let b = collector.add(&[VertexId(4), VertexId(2), VertexId(3)]);
        assert_eq!(a, b, "same path class regardless of input order");
        let classes = collector.into_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].frequency, 2);
        let motif = crate::motif::Motif {
            pattern: classes[0].pattern.clone(),
            occurrences: classes[0].occurrences.clone(),
            frequency: 2,
            uniqueness: None,
        };
        assert!(motif.validate_against(&g));
    }

    #[test]
    fn same_degree_sequence_different_classes() {
        // C6 vs two triangles: same degree sequence; must split.
        let g = Graph::from_edges(
            12,
            &[
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), // C6
                (6, 7), (7, 8), (8, 6), (9, 10), (10, 11), (11, 9), // 2 x C3
            ],
        );
        let classes = classify_size_k(&g, 6);
        // Size-6 connected sets: the C6 itself (two triangles are
        // disconnected from each other).
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].frequency, 1);
    }

    #[test]
    fn small_patterns_are_canonical_representatives() {
        // Two collectors fed the same class from *differently labeled*
        // candidates must produce the identical pattern graph — the
        // canonical representative — so parallel workers agree on
        // patterns without negotiation.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut c1 = ClassCollector::new(&g, usize::MAX);
        let mut c2 = ClassCollector::new(&g, usize::MAX);
        c1.add(&[VertexId(0), VertexId(1), VertexId(2)]);
        c2.add(&[VertexId(4), VertexId(5), VertexId(3)]);
        let p1 = &c1.into_classes()[0].pattern;
        let p2 = &c2.into_classes()[0].pattern;
        assert_eq!(p1, p2, "patterns are canonical, not first-seen-labeled");
    }

    #[test]
    fn merge_matches_single_collector() {
        // Split a candidate stream across two "workers" by parity of the
        // serial tag; the merge must reproduce the single-collector
        // classes, occurrence lists and frequencies exactly.
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let g = ppi_graph::random::erdos_renyi_gnm(20, 45, &mut rng);
        for max_stored in [usize::MAX, 3] {
            let mut serial = ClassCollector::new(&g, max_stored);
            let cache = CanonCodeCache::default();
            let mut w0 = ClassCollector::with_cache(&g, max_stored, &cache);
            let mut w1 = ClassCollector::with_cache(&g, max_stored, &cache);
            let mut seq = 0u32;
            each_connected_set(&g, 4, &mut |verts| {
                serial.add_tagged(verts, (0, seq));
                if seq.is_multiple_of(2) {
                    w0.add_tagged(verts, (0, seq));
                } else {
                    w1.add_tagged(verts, (0, seq));
                }
                seq += 1;
            });
            let expect = finalize_classes(serial.into_tagged_classes());
            let merged = finalize_classes(merge_tagged_classes(
                &g,
                vec![w0.into_tagged_classes(), w1.into_tagged_classes()],
                max_stored,
            ));
            assert_eq!(expect.len(), merged.len());
            for (a, b) in expect.iter().zip(&merged) {
                assert_eq!(a.pattern, b.pattern);
                assert_eq!(a.frequency, b.frequency);
                assert_eq!(a.occurrences, b.occurrences, "max_stored={max_stored}");
            }
        }
    }

    #[test]
    fn packed_bits_match_has_edge_oracle_on_random_graphs() {
        // The dense packed-id coding must agree bit-for-bit with the
        // historical binary-search path for every candidate set.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = ppi_graph::random::erdos_renyi_gnm(40, 90, &mut rng);
            let bits = AdjBits::new(&g);
            for k in 2..=8 {
                for _ in 0..50 {
                    // k distinct ids via partial Fisher–Yates.
                    let mut ids: Vec<u32> = (0..40).collect();
                    for i in 0..k {
                        let j = rng.gen_range(i..ids.len());
                        ids.swap(i, j);
                    }
                    let mut sorted: Vec<VertexId> =
                        ids[..k].iter().map(|&v| VertexId(v)).collect();
                    sorted.sort_unstable();
                    assert_eq!(
                        packed_bits_of(&bits, &sorted),
                        packed_bits_of_has_edge(&g, &sorted),
                        "seed={seed} set={sorted:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_handles_large_patterns_with_realignment() {
        // k = 9 > SMALL_CANON_MAX exercises the VF2 matching + realign
        // path: worker 1 first sees the class from a different labeled
        // candidate than worker 0, so its local pattern differs from the
        // merged representative.
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(9);
        let g = ppi_graph::random::erdos_renyi_gnm(14, 22, &mut rng);
        let k = 9;
        let mut serial = ClassCollector::new(&g, usize::MAX);
        let mut w0 = ClassCollector::new(&g, usize::MAX);
        let mut w1 = ClassCollector::new(&g, usize::MAX);
        let mut seq = 0u32;
        each_connected_set(&g, k, &mut |verts| {
            serial.add_tagged(verts, (0, seq));
            if seq.is_multiple_of(2) {
                w0.add_tagged(verts, (0, seq));
            } else {
                w1.add_tagged(verts, (0, seq));
            }
            seq += 1;
        });
        assert!(seq > 2, "graph too sparse for the test to bite");
        let expect = finalize_classes(serial.into_tagged_classes());
        let merged = finalize_classes(merge_tagged_classes(
            &g,
            vec![w0.into_tagged_classes(), w1.into_tagged_classes()],
            usize::MAX,
        ));
        assert_eq!(expect.len(), merged.len());
        for (a, b) in expect.iter().zip(&merged) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.frequency, b.frequency);
            assert_eq!(a.occurrences, b.occurrences);
        }
    }
}
