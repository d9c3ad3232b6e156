//! Dense similarity kernels for the labeling hot path (DESIGN.md §14).
//!
//! The memoized [`crate::similarity::TermSimilarity`] oracle pays two sharded-hash lookups
//! and (on a miss) an allocating DAG walk per `ST` query. Labeling asks
//! for the same small set of term pairs millions of times, so this
//! module precomputes everything once per namespace:
//!
//! * [`AncestorBitsets`] — one ancestor-or-self bit row per term, so the
//!   lowest common parent is a word-wise `AND` plus a min-weight scan
//!   instead of a merge of two sorted ancestor vectors;
//! * [`TermInterner`] — the GO terms that actually appear in the
//!   network's namespace-filtered annotations, mapped to a compact dense
//!   index (ascending in `TermId`, so interned order is term order);
//! * [`StPlane`] — the lower-triangular `|T_used|²/2` plane of `ST`
//!   values over interned terms, built row-parallel under a
//!   [`RunContext`];
//! * [`DenseSimPlanes`] — the bundle above plus CSR per-protein interned
//!   term lists, which is what `OccurrenceScorer` reads to compute each
//!   protein-pair `SV` with tight loops and zero locking.
//!
//! Every kernel is **byte-identical** to the memoized oracle: the same
//! FP operations in the same order ([`crate::similarity::st_value`] is
//! shared verbatim), the same LCP tie-break (ascending-id scan with a
//! strict `<` equals the oracle's first-minimum `min_by`), and the same
//! shared-term fast path in `SV`. The oracle stays authoritative for the
//! cold paths (`merge_labels`, aligners); [`KernelStats`] reports what
//! each side actually did.

use crate::ontology::Ontology;
use crate::similarity::{sorted_intersect, st_value};
use crate::term::TermId;
use crate::weights::TermWeights;
use par_util::{run_supervised, strided, PoolOutcome, RunContext, WorkerPanic};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "no dense index" in lookup tables.
const ABSENT: u32 = u32::MAX;

/// Set bit `i` in a `u64` word row.
#[inline]
fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1u64 << (i % 64);
}

/// Ancestor-or-self bitsets: one bit row per covered term, over the bit
/// space of *all* ontology terms (ancestors of a used term need not be
/// used themselves). Rows can cover a subset of terms so the memory
/// stays `|T_covered| × |T|/8` bits rather than quadratic in the full
/// ontology.
pub struct AncestorBitsets {
    /// Words per row: `⌈term_count / 64⌉`.
    words: usize,
    /// Term index → row index, [`ABSENT`] when the term has no row.
    row_of: Vec<u32>,
    /// Row-major bit storage, `rows × words`.
    bits: Vec<u64>,
}

impl AncestorBitsets {
    /// Bitsets covering every term of `ontology`.
    pub fn build(ontology: &Ontology) -> Self {
        let all: Vec<TermId> = ontology.term_ids().collect();
        Self::for_terms(ontology, &all)
    }

    /// Bitsets covering exactly `terms` (row order = slice order).
    pub fn for_terms(ontology: &Ontology, terms: &[TermId]) -> Self {
        let n = ontology.term_count();
        let words = n.div_ceil(64).max(1);
        let mut row_of = vec![ABSENT; n];
        let mut bits = vec![0u64; terms.len() * words];
        for (r, &t) in terms.iter().enumerate() {
            row_of[t.index()] = r as u32;
            let row = &mut bits[r * words..(r + 1) * words];
            set_bit(row, t.index());
            for &a in ontology.ancestors(t) {
                set_bit(row, a.index());
            }
        }
        AncestorBitsets { words, row_of, bits }
    }

    /// The ancestor-or-self bit row of `t`, if covered.
    fn row(&self, t: TermId) -> Option<&[u64]> {
        let r = self.row_of[t.index()] as usize;
        (r != ABSENT as usize).then(|| &self.bits[r * self.words..(r + 1) * self.words])
    }

    /// Lowest common parent of `a` and `b`: the common ancestor-or-self
    /// with minimum weight. Selection is identical to
    /// [`TermSimilarity::lowest_common_parent`] — the scan runs in
    /// ascending term id with a strict `<`, which keeps the smallest id
    /// among equal-weight minima exactly like the oracle's
    /// first-minimum `min_by`. `None` when the terms share no ancestor
    /// or either term has no row.
    pub fn lowest_common_parent(
        &self,
        weights: &TermWeights,
        a: TermId,
        b: TermId,
    ) -> Option<TermId> {
        let (ra, rb) = (self.row(a)?, self.row(b)?);
        let mut best: Option<(f64, TermId)> = None;
        for (w, (&xa, &xb)) in ra.iter().zip(rb).enumerate() {
            let mut x = xa & xb;
            while x != 0 {
                let bit = x.trailing_zeros() as usize;
                x &= x - 1;
                let t = TermId((w * 64 + bit) as u32);
                let wt = weights.weight(t);
                if best.is_none_or(|(bw, _)| wt < bw) {
                    best = Some((wt, t));
                }
            }
        }
        best.map(|(_, t)| t)
    }
}

/// Compact dense index over the terms that actually occur in the
/// namespace-filtered annotation lists. Dense ids ascend with `TermId`,
/// so interned order equals term order (this is what lets the ST plane
/// normalize pairs by dense index alone).
pub struct TermInterner {
    /// Term index → dense id, [`ABSENT`] for unused terms.
    dense_of: Vec<u32>,
    /// Dense id → term, ascending.
    terms: Vec<TermId>,
}

impl TermInterner {
    /// Intern every term appearing in `lists` (term ids must be
    /// `< term_count`).
    pub fn from_term_lists(term_count: usize, lists: &[Vec<TermId>]) -> Self {
        let mut used = vec![false; term_count];
        for list in lists {
            for &t in list {
                used[t.index()] = true;
            }
        }
        let mut dense_of = vec![ABSENT; term_count];
        let mut terms = Vec::new();
        for (i, &u) in used.iter().enumerate() {
            if u {
                dense_of[i] = terms.len() as u32;
                terms.push(TermId(i as u32));
            }
        }
        TermInterner { dense_of, terms }
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no term was interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Dense id of `t`, if interned.
    pub fn dense(&self, t: TermId) -> Option<u32> {
        let d = self.dense_of[t.index()];
        (d != ABSENT).then_some(d)
    }

    /// The term behind dense id `d`.
    pub fn term(&self, d: u32) -> TermId {
        self.terms[d as usize]
    }

    /// All interned terms, ascending.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }
}

/// Lower-triangular dense plane of `ST` values over interned terms:
/// cell `(i, j)` with `j ≤ i` lives at `i·(i+1)/2 + j`; the diagonal is
/// 1 by Eq. 1 (`ST(t, t) = 1`).
pub struct StPlane {
    n: usize,
    tri: Vec<f64>,
}

/// One build worker's shard output: `(row, start)` markers into a flat
/// buffer of that shard's row values.
type ShardRows = (Vec<(usize, usize)>, Vec<f64>);

impl StPlane {
    #[inline]
    fn slot(i: usize, j: usize) -> usize {
        i * (i + 1) / 2 + j
    }

    /// `ST` between interned terms `a` and `b` (order-free).
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> f64 {
        let (i, j) = if a >= b {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        self.tri[Self::slot(i, j)]
    }

    /// Number of interned terms covered.
    pub fn terms(&self) -> usize {
        self.n
    }

    /// Plane storage in bytes.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.tri.as_slice())
    }

    /// Build the plane row-parallel under `run` (each cell costs one
    /// work tick; rows are strided across workers so the triangular
    /// row costs balance). Returns `Ok(None)` when the context tripped
    /// mid-build (the partial plane is discarded); a worker panic
    /// surfaces as `Err` like every supervised stage.
    // lamolint::allow(alloc-in-hot-loop): per-worker flat accumulators —
    // one allocation amortized over every row the shard owns; the build
    // runs once per namespace and its output *is* the plane
    pub fn build(
        ontology: &Ontology,
        weights: &TermWeights,
        interner: &TermInterner,
        threads: usize,
        run: &RunContext,
    ) -> Result<Option<StPlane>, WorkerPanic> {
        let n = interner.len();
        let bitsets = AncestorBitsets::for_terms(ontology, interner.terms());
        let threads = threads.clamp(1, n.max(1));
        // Each worker appends every row it owns into one flat buffer and
        // records `(row, start)` markers — no per-row Vec, so the shard
        // does O(1) amortized allocations instead of one per term.
        let PoolOutcome {
            results: parts,
            panic,
        }: PoolOutcome<ShardRows> =
            run_supervised(threads, "go.st_plane", run, |wid| {
                let mut starts: Vec<(usize, usize)> = Vec::new();
                let mut flat: Vec<f64> = Vec::new();
                for i in strided(n, threads, wid) {
                    if run.should_stop() {
                        break;
                    }
                    let ti = interner.term(i as u32);
                    let start = flat.len();
                    for j in 0..i {
                        let tj = interner.term(j as u32);
                        // `tj < ti` (interned order is term order),
                        // matching the oracle's normalized (min, max)
                        // argument order exactly.
                        flat.push(st_value(weights, tj, ti, || {
                            bitsets.lowest_common_parent(weights, tj, ti)
                        }));
                    }
                    flat.push(1.0);
                    run.tick((i + 1) as u64);
                    starts.push((i, start));
                }
                (starts, flat)
            });
        if let Some(panic) = panic {
            return Err(panic);
        }
        if run.should_stop() {
            return Ok(None);
        }
        let mut tri = vec![0.0f64; n * (n + 1) / 2];
        for (starts, flat) in parts {
            for (i, start) in starts {
                tri[Self::slot(i, 0)..=Self::slot(i, i)]
                    .copy_from_slice(&flat[start..start + i + 1]);
            }
        }
        Ok(Some(StPlane { n, tri }))
    }
}

/// Unified kernel diagnostics: what the dense planes and the memoized
/// oracle each did during a labeling run. All counters are additive —
/// [`KernelStats::merged`] combines the two sides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Interned terms covered by the ST plane (`0` = memoized run).
    pub st_plane_terms: usize,
    /// ST plane storage in bytes.
    pub st_plane_bytes: usize,
    /// Work ticks spent building the ST plane (0 under a passive
    /// context, which does not meter).
    pub st_plane_build_ticks: u64,
    /// Per-motif SV planes built.
    pub sv_planes: usize,
    /// Total distinct proteins covered across SV planes.
    pub sv_plane_proteins: usize,
    /// Total protein-pair cells across SV planes.
    pub sv_plane_pairs: usize,
    /// Total SV plane storage in bytes.
    pub sv_plane_bytes: usize,
    /// `SV` queries answered by the memoized oracle instead of a plane
    /// (every query in a memoized run; plane misses in a dense run).
    pub sv_oracle_calls: u64,
    /// Term pairs memoized in the oracle's `ST` cache.
    pub st_memo_pairs: usize,
    /// Term pairs memoized in the oracle's LCP cache.
    pub lcp_memo_pairs: usize,
}

impl KernelStats {
    /// Field-wise sum of two diagnostics records.
    pub fn merged(self, other: &KernelStats) -> KernelStats {
        KernelStats {
            st_plane_terms: self.st_plane_terms + other.st_plane_terms,
            st_plane_bytes: self.st_plane_bytes + other.st_plane_bytes,
            st_plane_build_ticks: self.st_plane_build_ticks + other.st_plane_build_ticks,
            sv_planes: self.sv_planes + other.sv_planes,
            sv_plane_proteins: self.sv_plane_proteins + other.sv_plane_proteins,
            sv_plane_pairs: self.sv_plane_pairs + other.sv_plane_pairs,
            sv_plane_bytes: self.sv_plane_bytes + other.sv_plane_bytes,
            sv_oracle_calls: self.sv_oracle_calls + other.sv_oracle_calls,
            st_memo_pairs: self.st_memo_pairs + other.st_memo_pairs,
            lcp_memo_pairs: self.lcp_memo_pairs + other.lcp_memo_pairs,
        }
    }
}

/// The per-namespace dense kernel bundle: interner + ST plane + CSR
/// per-protein interned term lists, plus atomic counters that the
/// per-motif SV planes report into (they are built concurrently by the
/// motif workers).
pub struct DenseSimPlanes {
    interner: TermInterner,
    plane: StPlane,
    /// CSR offsets: protein `p`'s interned terms are
    /// `term_data[term_offsets[p]..term_offsets[p + 1]]`.
    term_offsets: Vec<u32>,
    /// Interned term ids per protein, in annotation (ascending term)
    /// order — interning is monotone, so these are ascending too.
    term_data: Vec<u32>,
    /// Ticks the ST plane build cost (0 under a passive context).
    build_ticks: u64,
    sv_planes: AtomicU64,
    sv_plane_proteins: AtomicU64,
    sv_plane_pairs: AtomicU64,
    sv_oracle_calls: AtomicU64,
}

impl DenseSimPlanes {
    /// Build the full bundle for one namespace: intern the terms of
    /// `terms_by_protein`, compute the ST plane with `threads` workers
    /// under `run`, and lay the per-protein term lists out in CSR form.
    /// `Ok(None)` when the context tripped mid-build.
    // lamolint::allow(alloc-in-hot-loop): CSR output storage preallocated
    // at exact capacity — pushes never reallocate, and the vectors are
    // the bundle's owned fields, not per-query temporaries
    pub fn build(
        ontology: &Ontology,
        weights: &TermWeights,
        terms_by_protein: &[Vec<TermId>],
        threads: usize,
        run: &RunContext,
    ) -> Result<Option<DenseSimPlanes>, WorkerPanic> {
        let interner = TermInterner::from_term_lists(ontology.term_count(), terms_by_protein);
        let Some(plane) = StPlane::build(ontology, weights, &interner, threads, run)? else {
            return Ok(None);
        };
        // Work-tick volume the plane build issues: row `i` ticks `i + 1`
        // cells, so a completed build is always n(n+1)/2. Computed here
        // rather than read back from `run`, which doesn't meter ticks
        // under a passive context.
        let n = interner.len() as u64;
        let build_ticks = n * (n + 1) / 2;
        let total_terms: usize = terms_by_protein.iter().map(Vec::len).sum();
        let mut term_offsets = Vec::with_capacity(terms_by_protein.len() + 1);
        let mut term_data = Vec::with_capacity(total_terms);
        term_offsets.push(0u32);
        for list in terms_by_protein {
            for &t in list {
                let d = interner
                    .dense(t)
                    .expect("every term in terms_by_protein was interned from the same lists");
                term_data.push(d);
            }
            term_offsets.push(term_data.len() as u32);
        }
        Ok(Some(DenseSimPlanes {
            interner,
            plane,
            term_offsets,
            term_data,
            build_ticks,
            sv_planes: AtomicU64::new(0),
            sv_plane_proteins: AtomicU64::new(0),
            sv_plane_pairs: AtomicU64::new(0),
            sv_oracle_calls: AtomicU64::new(0),
        }))
    }

    /// The used-term interner.
    pub fn interner(&self) -> &TermInterner {
        &self.interner
    }

    /// The dense ST plane.
    pub fn st_plane(&self) -> &StPlane {
        &self.plane
    }

    /// Interned (ascending) annotation terms of protein `p`.
    #[inline]
    pub fn interned_terms(&self, p: usize) -> &[u32] {
        &self.term_data[self.term_offsets[p] as usize..self.term_offsets[p + 1] as usize]
    }

    /// `SV` (Eq. 2) over two interned term lists, reading the ST plane.
    /// Mirrors [`TermSimilarity::sv`] operation for operation: shared
    /// term → 1, empty side → 0, else the `1 − Π(1 − ST)` product with
    /// the same factor order and the same exact-zero early exit.
    pub fn sv_interned(&self, terms_a: &[u32], terms_b: &[u32]) -> f64 {
        if terms_a.is_empty() || terms_b.is_empty() {
            return 0.0;
        }
        if sorted_intersect(terms_a, terms_b) {
            return 1.0;
        }
        let mut product = 1.0f64;
        for &ta in terms_a {
            for &tb in terms_b {
                product *= 1.0 - self.plane.get(ta, tb);
                if product == 0.0 {
                    return 1.0;
                }
            }
        }
        1.0 - product
    }

    /// `SV` between proteins `p` and `q` (by network vertex id).
    #[inline]
    pub fn sv_proteins(&self, p: usize, q: usize) -> f64 {
        self.sv_interned(self.interned_terms(p), self.interned_terms(q))
    }

    /// Record one per-motif SV plane (called by `OccurrenceScorer`).
    pub fn record_sv_plane(&self, proteins: usize, pairs: usize) {
        self.sv_planes.fetch_add(1, Ordering::Relaxed);
        self.sv_plane_proteins
            .fetch_add(proteins as u64, Ordering::Relaxed);
        self.sv_plane_pairs.fetch_add(pairs as u64, Ordering::Relaxed);
    }

    /// Record one `SV` query that fell back to the memoized oracle.
    pub fn record_oracle_fallback(&self) {
        self.sv_oracle_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero the per-run SV counters. A cached bundle is reused across
    /// labeling runs; resetting at run entry keeps `stats()` scoped to
    /// the current run, exactly as a fresh build would report.
    pub fn reset_run_counters(&self) {
        self.sv_planes.store(0, Ordering::Relaxed);
        self.sv_plane_proteins.store(0, Ordering::Relaxed);
        self.sv_plane_pairs.store(0, Ordering::Relaxed);
        self.sv_oracle_calls.store(0, Ordering::Relaxed);
    }

    /// Diagnostics snapshot for this bundle (memo counters are the
    /// oracle's side — see [`TermSimilarity::kernel_stats`]).
    pub fn stats(&self) -> KernelStats {
        let pairs = self.sv_plane_pairs.load(Ordering::Relaxed) as usize;
        KernelStats {
            st_plane_terms: self.plane.terms(),
            st_plane_bytes: self.plane.bytes(),
            st_plane_build_ticks: self.build_ticks,
            sv_planes: self.sv_planes.load(Ordering::Relaxed) as usize,
            sv_plane_proteins: self.sv_plane_proteins.load(Ordering::Relaxed) as usize,
            sv_plane_pairs: pairs,
            sv_plane_bytes: pairs * std::mem::size_of::<f64>(),
            sv_oracle_calls: self.sv_oracle_calls.load(Ordering::Relaxed),
            st_memo_pairs: 0,
            lcp_memo_pairs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{Annotations, ProteinId};
    use crate::ontology::OntologyBuilder;
    use crate::similarity::TermSimilarity;
    use crate::term::{Namespace, Relation};

    /// root(1.0) -> a(0.6) -> {x(0.3), y(0.3)}; root -> b(0.4); one MF
    /// term in a foreign namespace.
    fn fixture() -> (Ontology, Annotations) {
        let mut ob = OntologyBuilder::new();
        let root = ob.add_term("GO:0", "root", Namespace::BiologicalProcess);
        let a = ob.add_term("GO:1", "a", Namespace::BiologicalProcess);
        let b = ob.add_term("GO:2", "b", Namespace::BiologicalProcess);
        let x = ob.add_term("GO:3", "x", Namespace::BiologicalProcess);
        let y = ob.add_term("GO:4", "y", Namespace::BiologicalProcess);
        let _mf = ob.add_term("GO:5", "mf", Namespace::MolecularFunction);
        ob.add_edge(a, root, Relation::IsA);
        ob.add_edge(b, root, Relation::IsA);
        ob.add_edge(x, a, Relation::IsA);
        ob.add_edge(y, a, Relation::IsA);
        let o = ob.build().expect("fixture ontology is acyclic and well-formed");
        let mut ann = Annotations::new(10, o.term_count());
        for p in 0..3 {
            ann.annotate(ProteinId(p), x);
        }
        for p in 3..6 {
            ann.annotate(ProteinId(p), y);
        }
        for p in 6..10 {
            ann.annotate(ProteinId(p), b);
        }
        (o, ann)
    }

    #[test]
    fn bitset_lcp_matches_oracle_on_all_pairs() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let sim = TermSimilarity::new(&o, &w);
        let bits = AncestorBitsets::build(&o);
        for a in o.term_ids() {
            for b in o.term_ids() {
                assert_eq!(
                    bits.lowest_common_parent(&w, a, b),
                    sim.lowest_common_parent(a, b),
                    "lcp({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn uncovered_terms_have_no_lcp() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let bits = AncestorBitsets::for_terms(&o, &[TermId(3)]);
        assert_eq!(bits.lowest_common_parent(&w, TermId(3), TermId(3)), Some(TermId(3)));
        assert_eq!(bits.lowest_common_parent(&w, TermId(3), TermId(4)), None);
    }

    #[test]
    fn interner_is_monotone_and_round_trips() {
        let lists = vec![vec![TermId(4)], vec![], vec![TermId(1), TermId(4)]];
        let interner = TermInterner::from_term_lists(6, &lists);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.dense(TermId(1)), Some(0));
        assert_eq!(interner.dense(TermId(4)), Some(1));
        assert_eq!(interner.dense(TermId(0)), None);
        assert_eq!(interner.term(0), TermId(1));
        assert_eq!(interner.term(1), TermId(4));
        assert_eq!(interner.terms(), &[TermId(1), TermId(4)]);
    }

    #[test]
    fn st_plane_matches_oracle_bitwise() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let sim = TermSimilarity::new(&o, &w);
        let lists: Vec<Vec<TermId>> = vec![
            vec![TermId(2), TermId(3)],
            vec![TermId(4)],
            vec![TermId(1)],
        ];
        let interner = TermInterner::from_term_lists(o.term_count(), &lists);
        let plane = StPlane::build(&o, &w, &interner, 2, &RunContext::unbounded())
            .expect("no faults are injected")
            .expect("a passive context never cancels the build");
        for i in 0..interner.len() as u32 {
            for j in 0..interner.len() as u32 {
                let (ta, tb) = (interner.term(i), interner.term(j));
                assert_eq!(
                    plane.get(i, j).to_bits(),
                    sim.st(ta, tb).to_bits(),
                    "st({ta:?}, {tb:?})"
                );
            }
        }
    }

    #[test]
    fn plane_build_honors_cancellation() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let lists: Vec<Vec<TermId>> =
            (0..5).map(|t| vec![TermId(t)]).collect();
        let interner = TermInterner::from_term_lists(o.term_count(), &lists);
        let run = RunContext::unbounded();
        run.cancel();
        let plane = StPlane::build(&o, &w, &interner, 1, &run).expect("no faults are injected");
        assert!(plane.is_none(), "a cancelled build yields no plane");
    }

    #[test]
    fn dense_planes_sv_matches_oracle_bitwise() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let sim = TermSimilarity::new(&o, &w);
        // Per-protein BP term lists straight from the fixture.
        let lists: Vec<Vec<TermId>> = (0..10)
            .map(|p| ann.terms_of(ProteinId(p)).to_vec())
            .collect();
        let planes = DenseSimPlanes::build(&o, &w, &lists, 1, &RunContext::unbounded())
            .expect("no faults are injected")
            .expect("a passive context never cancels the build");
        for p in 0..10 {
            for q in 0..10 {
                assert_eq!(
                    planes.sv_proteins(p, q).to_bits(),
                    sim.sv(&lists[p], &lists[q]).to_bits(),
                    "sv({p}, {q})"
                );
            }
        }
    }

    #[test]
    fn sv_interned_edge_cases() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let lists: Vec<Vec<TermId>> = vec![
            vec![TermId(3)],
            vec![TermId(3), TermId(4)],
            vec![],
            vec![TermId(2)],
        ];
        let planes = DenseSimPlanes::build(&o, &w, &lists, 1, &RunContext::unbounded())
            .expect("no faults are injected")
            .expect("a passive context never cancels the build");
        // Shared term → exactly 1 (fast path).
        assert_eq!(planes.sv_proteins(0, 1), 1.0);
        // Empty side → 0.
        assert_eq!(planes.sv_proteins(0, 2), 0.0);
        assert_eq!(planes.sv_proteins(2, 2), 0.0);
        // Disjoint lists → strictly between 0 and 1 here (x vs b share
        // only the root).
        let v = planes.sv_proteins(0, 3);
        assert!((0.0..1.0).contains(&v), "v = {v}");
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let lists: Vec<Vec<TermId>> = vec![vec![TermId(3)], vec![TermId(4)]];
        let planes = DenseSimPlanes::build(&o, &w, &lists, 1, &RunContext::unbounded())
            .expect("no faults are injected")
            .expect("a passive context never cancels the build");
        planes.record_sv_plane(3, 6);
        planes.record_oracle_fallback();
        let s = planes.stats();
        assert_eq!(s.st_plane_terms, 2);
        assert_eq!(s.st_plane_bytes, 3 * 8);
        assert_eq!(s.sv_planes, 1);
        assert_eq!(s.sv_plane_proteins, 3);
        assert_eq!(s.sv_plane_pairs, 6);
        assert_eq!(s.sv_plane_bytes, 48);
        assert_eq!(s.sv_oracle_calls, 1);
        let sim = TermSimilarity::new(&o, &w);
        let _ = sim.st(TermId(3), TermId(4));
        let merged = s.merged(&sim.kernel_stats());
        assert_eq!(merged.st_memo_pairs, 1);
        assert_eq!(merged.sv_planes, 1);
    }

    #[test]
    fn plane_build_is_thread_invariant() {
        let (o, ann) = fixture();
        let w = TermWeights::compute(&o, &ann);
        let lists: Vec<Vec<TermId>> = (0..10)
            .map(|p| ann.terms_of(ProteinId(p)).to_vec())
            .collect();
        let build = |threads| {
            DenseSimPlanes::build(&o, &w, &lists, threads, &RunContext::unbounded())
                .expect("no faults are injected")
                .expect("a passive context never cancels the build")
        };
        let one = build(1);
        for threads in [2, 4] {
            let other = build(threads);
            assert_eq!(one.plane.tri.len(), other.plane.tri.len());
            for (a, b) in one.plane.tri.iter().zip(&other.plane.tri) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
