//! Agglomerative occurrence clustering — Algorithms 1 and 2 of the paper.
//!
//! Each occurrence starts as its own cluster carrying its proteins'
//! annotations as the initial labeling scheme. The most similar pair of
//! *active* clusters is merged (average linkage over the occurrence-pair
//! `SO` matrix, maintained by Lance–Williams updates); each merge
//! re-derives the least-general labeling scheme. A cluster stops when
//! more than `stop_fraction` of the motif's vertices carry labels at (or
//! above) the border-informative frontier — generalizing further would
//! only produce labels "too general" to be useful. Clusters holding at
//! least `σ` occurrences are emitted as labeled motifs.
//!
//! Merging aligns the smaller cluster onto the larger via the pattern
//! automorphism that best matches the two schemes — the step where the
//! motif's symmetric vertices (Section 2, issue 2) are resolved without
//! inflating labels.

use crate::labeling::{
    initial_scheme, merge_schemes, vocabulary_filter, LabelingScheme, VertexLabel,
};
use crate::occ_similarity::OccurrenceScorer;
use go_ontology::{InformativeClasses, Ontology, ProteinId, TermSimilarity};
use motif_finder::Occurrence;
use par_util::{faultpoint, run_supervised, strided, PoolOutcome, RunContext, WorkerPanic};
use ppi_graph::{enumerate_isomorphisms, Graph};

/// Linkage rule for cluster-to-cluster similarity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Linkage {
    /// Mean over all occurrence pairs (default).
    #[default]
    Average,
    /// Most similar pair.
    Single,
    /// Least similar pair.
    Complete,
}

/// Clustering parameters.
#[derive(Clone, Debug)]
pub struct ClusteringConfig {
    /// Minimum occurrences per emitted labeling scheme (paper: σ = 10).
    pub sigma: usize,
    /// Fraction of vertices at the border frontier that stops a cluster
    /// (paper: "more than half" → 0.5).
    pub stop_fraction: f64,
    /// Cap on pattern automorphisms enumerated for merge alignment.
    /// Large symmetric orbits are handled separately (and exactly) via
    /// interchangeable-class assignment, so a small cap suffices.
    pub max_automorphisms: usize,
    /// Linkage rule.
    pub linkage: Linkage,
    /// Worker threads for the pairwise SO matrix (`0` = one per
    /// available core). Only the matrix build parallelizes — every entry
    /// is a pure function of the occurrence pair, so the output is
    /// byte-identical for any thread count. [`crate::LaMoFinder`] sets
    /// this to `1` when it is already parallel across motifs.
    pub threads: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            sigma: 10,
            stop_fraction: 0.5,
            max_automorphisms: 64,
            linkage: Linkage::Average,
            threads: 0,
        }
    }
}

// Thread-budget resolution lives in `par-util` (shared with the
// uniqueness null model and the discovery front-end); re-exported for
// the crate-internal callers.
pub(crate) use par_util::resolve_threads;

/// One emitted cluster: a labeling scheme with its supporting
/// occurrences (aligned copies).
#[derive(Clone, Debug)]
pub struct LabeledCluster {
    /// Vocabulary-filtered labeling scheme.
    pub scheme: LabelingScheme,
    /// Aligned occurrences supporting the scheme.
    pub occurrences: Vec<Occurrence>,
}

struct Cluster {
    occs: Vec<Occurrence>,
    scheme: LabelingScheme,
    /// Cached order-insensitive label view for the stop-rule fast path.
    multiset: Vec<Vec<go_ontology::TermId>>,
    stopped: bool,
    alive: bool,
}

/// Shared read-only labeling context (built once per namespace by
/// [`crate::LaMoFinder`]).
pub struct LabelContext<'a> {
    /// The GO DAG.
    pub ontology: &'a Ontology,
    /// Term similarity oracle (with weights).
    pub sim: &'a TermSimilarity<'a>,
    /// Informative / border classification.
    pub informative: &'a InformativeClasses,
    /// Namespace-filtered annotations per network vertex.
    pub terms_by_protein: &'a [Vec<go_ontology::TermId>],
    /// `frontier[t]`: term `t` is a border term or an ancestor of one —
    /// a label that cannot usefully generalize further.
    pub frontier: &'a [bool],
    /// Precomputed dense ST/SV kernels for the SO hot path. `None`
    /// routes everything through the memoized oracle (`sim`).
    pub dense: Option<&'a go_ontology::DenseSimPlanes>,
}

impl LabelContext<'_> {
    /// Whether a vertex label has reached the border frontier.
    fn label_at_frontier(&self, label: &VertexLabel) -> bool {
        !label.is_unknown() && label.terms.iter().any(|t| self.frontier[t.index()])
    }

    /// Number of scheme vertices at the frontier.
    fn frontier_count(&self, scheme: &LabelingScheme) -> usize {
        scheme
            .labels
            .iter()
            .filter(|l| self.label_at_frontier(l))
            .count()
    }
}

/// Precompute the `frontier` vector for [`LabelContext`].
pub fn compute_frontier(ontology: &Ontology, informative: &InformativeClasses) -> Vec<bool> {
    let n = ontology.term_count();
    let mut frontier = vec![false; n];
    for &t in ontology.topological_order().iter().rev() {
        frontier[t.index()] = informative.is_border(t)
            || ontology
                .children(t)
                .iter()
                .any(|&(c, _)| frontier[c.index()]);
    }
    frontier
}

/// Symmetry information of a motif pattern: its automorphism orbits
/// ("symmetric vertex sets"), a capped set of explicit automorphisms and
/// the interchangeable vertex classes.
pub struct MotifSymmetry {
    /// Number of pattern vertices.
    pub size: usize,
    /// Orbits as position lists (singletons included).
    pub orbits: Vec<Vec<usize>>,
    /// Enumerated automorphisms (identity first, capped).
    pub autos: Vec<Vec<usize>>,
    /// Interchangeable classes with ≥ 2 members.
    pub classes: Vec<Vec<usize>>,
}

impl MotifSymmetry {
    /// Symmetry of an undirected pattern.
    pub fn undirected(pattern: &Graph, max_autos: usize) -> Self {
        let k = pattern.vertex_count();
        let orbits = ppi_graph::automorphism_orbits(pattern)
            .into_iter()
            .map(|o| o.into_iter().map(|v| v.index()).collect())
            .collect();
        let identity: Vec<usize> = (0..k).collect();
        let mut autos = vec![identity.clone()];
        enumerate_isomorphisms(pattern, pattern, None, &mut |m| {
            let perm: Vec<usize> = m.iter().map(|v| v.index()).collect();
            if perm != identity {
                autos.push(perm);
            }
            autos.len() < max_autos
        });
        let classes = group_classes(
            &motif_finder::subgraph_match::interchangeable_classes(pattern),
        );
        MotifSymmetry {
            size: k,
            orbits,
            autos,
            classes,
        }
    }
}

fn group_classes(class_of: &[u32]) -> Vec<Vec<usize>> {
    let mut by_class: std::collections::HashMap<u32, Vec<usize>> =
        std::collections::HashMap::new();
    for (v, &c) in class_of.iter().enumerate() {
        by_class.entry(c).or_default().push(v);
    }
    let mut classes: Vec<Vec<usize>> = by_class.into_values().filter(|c| c.len() >= 2).collect();
    classes.sort();
    classes
}

/// Run the agglomerative clustering over one motif's occurrences and
/// return every labeling scheme supported by ≥ σ occurrences.
pub fn cluster_occurrences(
    pattern: &Graph,
    occurrences: &[Occurrence],
    ctx: &LabelContext<'_>,
    config: &ClusteringConfig,
) -> Vec<LabeledCluster> {
    cluster_occurrences_supervised(pattern, occurrences, ctx, config, &RunContext::unbounded())
        .expect("a passive context without injected faults never panics a worker")
}

/// [`cluster_occurrences`] under a supervising [`RunContext`]: one SO
/// cell scored costs one work tick, the agglomerative loop drains at
/// merge boundaries once the context trips, and a panicking matrix
/// worker surfaces as a typed [`WorkerPanic`]. A cancelled call returns
/// `Ok` with a partial (possibly empty) result the caller must discard
/// after checking [`RunContext::should_stop`] — clustering is
/// all-or-nothing per motif, so the checkpointable unit is the whole
/// motif (see `LaMoFinder::resume_label_motifs`).
pub fn cluster_occurrences_supervised(
    pattern: &Graph,
    occurrences: &[Occurrence],
    ctx: &LabelContext<'_>,
    config: &ClusteringConfig,
    run: &RunContext,
) -> Result<Vec<LabeledCluster>, WorkerPanic> {
    let n = occurrences.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let symmetry = MotifSymmetry::undirected(pattern, config.max_automorphisms);
    let mut scorer = OccurrenceScorer::from_orbits(
        symmetry.orbits.clone(),
        symmetry.size,
        ctx.sim,
        ctx.terms_by_protein,
    );
    if let Some(planes) = ctx.dense {
        scorer = scorer.with_dense(planes);
        scorer.precompute_sv_plane(occurrences, run);
        if run.should_stop() {
            return Ok(Vec::new());
        }
    }
    let aligner = Aligner::from_symmetry(&symmetry);

    // Pairwise occurrence similarities (SO, Eq. 3).
    let mut sim = so_matrix(&scorer, occurrences, resolve_threads(config.threads), run)?;
    if run.should_stop() {
        return Ok(Vec::new());
    }

    // Singleton clusters.
    let mut clusters: Vec<Cluster> = occurrences
        .iter()
        .map(|o| {
            let scheme = initial_scheme(o, &|p: ProteinId| {
                ctx.terms_by_protein[p.index()].clone()
            });
            let stopped = is_stopped(&scheme, ctx, config, symmetry.size);
            let multiset = scheme_multiset(&scheme);
            Cluster {
                occs: vec![o.clone()],
                scheme,
                multiset,
                stopped,
                alive: true,
            }
        })
        .collect();
    let mut sizes: Vec<usize> = vec![1; n];
    let mut emitted: Vec<LabeledCluster> = Vec::new();

    // Per-row best eligible partner (`row_best[i]` = best `j > i`),
    // maintained incrementally instead of rescanning all O(n²) pairs per
    // merge. Tie-breaking matches the naive double loop exactly — the
    // smallest `(i, j)` among maximal pairs wins — so the merge sequence
    // (and therefore the output) is unchanged.
    let mut row_best: Vec<Option<(usize, f64)>> = (0..n)
        .map(|i| best_partner(&clusters, &sim, i))
        .collect();

    loop {
        // Merge boundaries are the drain points of the agglomerative
        // phase: a tripped context abandons the (whole-motif) unit.
        if run.should_stop() {
            return Ok(Vec::new());
        }
        // Most similar eligible pair. A stopped cluster may still absorb
        // a cluster with the *same* labels (no generalization happens);
        // pairs where either side is stopped and the labels differ are
        // frozen, per the paper's stop rule.
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, rb) in row_best.iter().enumerate() {
            if let Some((j, s)) = *rb {
                if best.is_none_or(|(_, _, bs)| s > bs) {
                    best = Some((i, j, s));
                }
            }
        }
        let Some((i, j, _)) = best else { break };

        // Align cluster j's scheme (and occurrences) to cluster i via the
        // best-fitting pattern automorphism.
        let perm = aligner.align(&clusters[i].scheme, &clusters[j].scheme, ctx);
        let scheme_j = permute_scheme(&clusters[j].scheme, &perm);
        let occs_j: Vec<Occurrence> = clusters[j]
            .occs
            .iter()
            .map(|o| permute_occurrence(o, &perm))
            .collect();

        let merged_scheme = merge_schemes(&clusters[i].scheme, &scheme_j, ctx.sim, ctx.informative);
        clusters[i].multiset = scheme_multiset(&merged_scheme);
        clusters[i].scheme = merged_scheme;
        clusters[i].occs.extend(occs_j);
        clusters[j].alive = false;
        clusters[i].stopped = is_stopped(&clusters[i].scheme, ctx, config, symmetry.size);

        // Lance–Williams similarity update.
        let (si, sj) = (sizes[i] as f64, sizes[j] as f64);
        for k in 0..n {
            if k == i || k == j || !clusters[k].alive {
                continue;
            }
            let new = match config.linkage {
                Linkage::Average => (si * sim[i][k] + sj * sim[j][k]) / (si + sj),
                Linkage::Single => sim[i][k].max(sim[j][k]),
                Linkage::Complete => sim[i][k].min(sim[j][k]),
            };
            sim[i][k] = new;
            sim[k][i] = new;
        }
        sizes[i] += sizes[j];

        // Repair `row_best`. Only cluster `i` changed (labels, stop
        // state, similarities) and cluster `j` died, so:
        //  * row `j` is gone;
        //  * row `i` is rescanned in full (all its pairs changed);
        //  * any row whose cached best pointed at `i` or `j` is
        //    rescanned (its candidate changed value or died);
        //  * every other row `k < i` gets an incremental check of the
        //    one changed pair `(k, i)` — value and eligibility both
        //    shifted. Rows `k > i` not pointing at `i`/`j` hold pairs
        //    untouched by the merge.
        row_best[j] = None;
        for k in 0..n {
            if k == i || !clusters[k].alive {
                continue;
            }
            let points_at_merge = matches!(row_best[k], Some((b, _)) if b == i || b == j);
            if points_at_merge {
                row_best[k] = best_partner(&clusters, &sim, k);
            } else if k < i && pair_eligible(&clusters[k], &clusters[i]) {
                let v = sim[k][i];
                let better = match row_best[k] {
                    None => true,
                    // Equal scores keep the smaller column index,
                    // matching the ascending-`j` scan order.
                    Some((bj, bv)) => v > bv || (v == bv && i < bj),
                };
                if better {
                    row_best[k] = Some((i, v));
                }
            }
        }
        row_best[i] = best_partner(&clusters, &sim, i);
    }

    for c in clusters.iter().filter(|c| c.alive) {
        if c.occs.len() >= config.sigma {
            let filtered = vocabulary_filter(&c.scheme, ctx.informative);
            if !filtered.is_all_unknown() {
                emitted.push(LabeledCluster {
                    scheme: filtered,
                    occurrences: c.occs.clone(),
                });
            }
        }
    }
    // Deduplicate identical schemes, keeping the best-supported cluster.
    emitted.sort_by_key(|c| std::cmp::Reverse(c.occurrences.len()));
    let mut unique: Vec<LabeledCluster> = Vec::new();
    for c in emitted {
        if !unique.iter().any(|u| u.scheme == c.scheme) {
            unique.push(c);
        }
    }
    Ok(unique)
}

/// The full pairwise SO matrix, built by `threads` supervised workers
/// over strided rows. Every entry is a pure function of the
/// occurrence pair (the SV/ST memo tables are insert-once and
/// value-deterministic), so the matrix is identical for any thread
/// count. Every scored cell costs one work tick; a tripped context
/// leaves unvisited rows zeroed (the caller discards the partial
/// matrix), and a panicking worker surfaces as `Err`.
pub fn so_matrix(
    scorer: &OccurrenceScorer<'_>,
    occurrences: &[Occurrence],
    threads: usize,
    run: &RunContext,
) -> Result<Vec<Vec<f64>>, WorkerPanic> {
    let n = occurrences.len();
    let mut sim = vec![vec![0.0f64; n]; n];
    let threads = threads.clamp(1, n.max(1));
    let PoolOutcome {
        results: parts,
        panic,
    }: PoolOutcome<Vec<(usize, Vec<f64>)>> =
        run_supervised(threads, "core.so_matrix", run, |wid| {
            let mut part: Vec<(usize, Vec<f64>)> = Vec::new();
            let mut scratch = crate::occ_similarity::SoScratch::new();
            for i in strided(n, threads, wid) {
                if run.should_stop() {
                    break;
                }
                faultpoint!(run, "core.so_row");
                let row: Vec<f64> = (i + 1..n)
                    .map(|j| scorer.so_scratch(&occurrences[i], &occurrences[j], &mut scratch))
                    .collect();
                run.tick((n - i - 1) as u64);
                part.push((i, row));
            }
            part
        });
    if let Some(panic) = panic {
        return Err(panic);
    }
    for part in parts {
        for (i, row) in part {
            for (off, s) in row.into_iter().enumerate() {
                let j = i + 1 + off;
                sim[i][j] = s;
                sim[j][i] = s;
            }
        }
    }
    Ok(sim)
}

/// Whether two clusters may merge under the stop rule: a stopped side
/// freezes the pair unless the labels are identical (absorbing an
/// identical cluster generalizes nothing).
fn pair_eligible(a: &Cluster, b: &Cluster) -> bool {
    !((a.stopped || b.stopped) && a.multiset != b.multiset)
}

/// Best eligible partner of row `i` among alive clusters `j > i`,
/// scanning in ascending `j` with strict `>` so equal scores keep the
/// smallest column — the naive double loop's tie-breaking.
fn best_partner(clusters: &[Cluster], sim: &[Vec<f64>], i: usize) -> Option<(usize, f64)> {
    if !clusters[i].alive {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for j in i + 1..clusters.len() {
        if !clusters[j].alive || !pair_eligible(&clusters[i], &clusters[j]) {
            continue;
        }
        if best.is_none_or(|(_, s)| sim[i][j] > s) {
            best = Some((j, sim[i][j]));
        }
    }
    best
}

/// Order-insensitive view of a scheme's labels, used to let identical
/// clusters merge past the stop rule.
fn scheme_multiset(scheme: &LabelingScheme) -> Vec<Vec<go_ontology::TermId>> {
    let mut sets: Vec<Vec<go_ontology::TermId>> =
        scheme.labels.iter().map(|l| l.terms.clone()).collect();
    sets.sort();
    sets
}

fn is_stopped(
    scheme: &LabelingScheme,
    ctx: &LabelContext<'_>,
    config: &ClusteringConfig,
    size: usize,
) -> bool {
    ctx.frontier_count(scheme) as f64 > config.stop_fraction * size as f64
}

/// Scheme-to-scheme automorphism alignment.
///
/// Two candidate families are considered: (a) a small set of enumerated
/// pattern automorphisms (covers coupled symmetries like path flips),
/// and (b) the optimal within-class assignment over *interchangeable*
/// vertex classes (identical neighborhoods) — every within-class
/// permutation is an automorphism, so the Hungarian solution is both
/// valid and optimal for the big orbits (clique members, star leaves,
/// bipartite sides) without enumerating factorially many maps.
pub(crate) struct Aligner {
    autos: Vec<Vec<usize>>,
    /// Interchangeable classes with at least two members.
    classes: Vec<Vec<usize>>,
    size: usize,
}

impl Aligner {
    pub(crate) fn new(pattern: &Graph, max_autos: usize) -> Self {
        Self::from_symmetry(&MotifSymmetry::undirected(pattern, max_autos))
    }

    pub(crate) fn from_symmetry(sym: &MotifSymmetry) -> Self {
        Aligner {
            autos: sym.autos.clone(),
            classes: sym.classes.clone(),
            size: sym.size,
        }
    }

    /// Pick the alignment `π` maximizing `Σ SV(a[i], b[π(i)])`.
    pub(crate) fn align(
        &self,
        a: &LabelingScheme,
        b: &LabelingScheme,
        ctx: &LabelContext<'_>,
    ) -> Vec<usize> {
        let score = |perm: &[usize]| -> f64 {
            a.labels
                .iter()
                .enumerate()
                .map(|(i, la)| ctx.sim.sv(&la.terms, &b.labels[perm[i]].terms))
                .sum()
        };
        let mut best_perm = self.autos[0].clone();
        let mut best_score = score(&best_perm);
        for perm in &self.autos[1..] {
            let s = score(perm);
            if s > best_score {
                best_score = s;
                best_perm = perm.clone();
            }
        }
        if !self.classes.is_empty() {
            // Class-wise Hungarian candidate (an automorphism by
            // construction).
            let mut perm: Vec<usize> = (0..self.size).collect();
            for class in &self.classes {
                let w: Vec<Vec<f64>> = class
                    .iter()
                    .map(|&x| {
                        class
                            .iter()
                            .map(|&y| ctx.sim.sv(&a.labels[x].terms, &b.labels[y].terms))
                            .collect()
                    })
                    .collect();
                let (assign, _) = crate::assignment::max_assignment(&w);
                for (xi, &yi) in assign.iter().enumerate() {
                    perm[class[xi]] = class[yi];
                }
            }
            let s = score(&perm);
            if s > best_score {
                best_perm = perm;
            }
        }
        best_perm
    }
}

pub(crate) fn permute_scheme(scheme: &LabelingScheme, perm: &[usize]) -> LabelingScheme {
    LabelingScheme::new((0..perm.len()).map(|i| scheme.labels[perm[i]].clone()).collect())
}

pub(crate) fn permute_occurrence(occ: &Occurrence, perm: &[usize]) -> Occurrence {
    Occurrence::new((0..perm.len()).map(|i| occ.vertices[perm[i]]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use go_ontology::{
        Annotations, InformativeConfig, Namespace, OntologyBuilder, Relation, TermId, TermWeights,
    };
    use ppi_graph::VertexId;

    /// Ontology: root -> {A, B}; A -> {x1, x2}; B -> {y1, y2}.
    /// Weights via synthetic annotation counts; informative threshold 2.
    struct Fix {
        ontology: go_ontology::Ontology,
        annotations: Annotations,
    }

    fn fix(protein_terms: &[Vec<u32>]) -> Fix {
        let mut ob = OntologyBuilder::new();
        let root = ob.add_term("GO:0", "root", Namespace::BiologicalProcess);
        let a = ob.add_term("GO:1", "A", Namespace::BiologicalProcess);
        let b = ob.add_term("GO:2", "B", Namespace::BiologicalProcess);
        let x1 = ob.add_term("GO:3", "x1", Namespace::BiologicalProcess);
        let x2 = ob.add_term("GO:4", "x2", Namespace::BiologicalProcess);
        let y1 = ob.add_term("GO:5", "y1", Namespace::BiologicalProcess);
        let y2 = ob.add_term("GO:6", "y2", Namespace::BiologicalProcess);
        ob.add_edge(a, root, Relation::IsA);
        ob.add_edge(b, root, Relation::IsA);
        ob.add_edge(x1, a, Relation::IsA);
        ob.add_edge(x2, a, Relation::IsA);
        ob.add_edge(y1, b, Relation::IsA);
        ob.add_edge(y2, b, Relation::IsA);
        let ontology = ob.build().unwrap();
        // Two padding proteins directly on A and two on B so that both
        // inner terms are informative (threshold 2) and hence the border
        // sits at {A, B}, with x/y below it in the vocabulary.
        let n = protein_terms.len();
        let mut annotations = Annotations::new(n + 4, ontology.term_count());
        for (p, terms) in protein_terms.iter().enumerate() {
            for &t in terms {
                annotations.annotate(ProteinId(p as u32), TermId(t));
            }
        }
        annotations.annotate(ProteinId(n as u32), TermId(1));
        annotations.annotate(ProteinId(n as u32 + 1), TermId(1));
        annotations.annotate(ProteinId(n as u32 + 2), TermId(2));
        annotations.annotate(ProteinId(n as u32 + 3), TermId(2));
        Fix {
            ontology,
            annotations,
        }
    }

    fn run(
        fixture: &Fix,
        pattern: &Graph,
        occs: &[Occurrence],
        sigma: usize,
    ) -> Vec<LabeledCluster> {
        let weights = TermWeights::compute(&fixture.ontology, &fixture.annotations);
        let sim = TermSimilarity::new(&fixture.ontology, &weights);
        let informative = InformativeClasses::compute(
            &fixture.ontology,
            &fixture.annotations,
            InformativeConfig {
                min_direct: 2,
                ..Default::default()
            },
        );
        let frontier = compute_frontier(&fixture.ontology, &informative);
        let terms_by_protein: Vec<Vec<TermId>> = (0..fixture.annotations.protein_count())
            .map(|p| fixture.annotations.terms_of(ProteinId(p as u32)).to_vec())
            .collect();
        let ctx = LabelContext {
            ontology: &fixture.ontology,
            sim: &sim,
            informative: &informative,
            terms_by_protein: &terms_by_protein,
            frontier: &frontier,
            dense: None,
        };
        let config = ClusteringConfig {
            sigma,
            ..Default::default()
        };
        cluster_occurrences(pattern, occs, &ctx, &config)
    }

    fn edge_occ(a: u32, b: u32) -> Occurrence {
        Occurrence::new(vec![VertexId(a), VertexId(b)])
    }

    #[test]
    fn homogeneous_occurrences_get_specific_labels() {
        // 8 proteins all annotated x1, paired into 4 edge occurrences.
        let fixture = fix(&vec![vec![3]; 8]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        let out = run(&fixture, &pattern, &occs, 3);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert_eq!(c.occurrences.len(), 4);
        for l in &c.scheme.labels {
            assert_eq!(l.terms, vec![TermId(3)], "labels stay at x1");
        }
    }

    #[test]
    fn sibling_annotations_generalize_to_parent() {
        // Positions 0: x1/x2 alternating → generalize to A.
        // Position 1: all y1 → stays y1.
        let fixture = fix(&[
            vec![3],
            vec![5],
            vec![4],
            vec![5],
            vec![3],
            vec![5],
            vec![4],
            vec![5],
        ]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        let out = run(&fixture, &pattern, &occs, 4);
        assert_eq!(out.len(), 1, "schemes: {out:?}");
        let scheme = &out[0].scheme;
        // One endpoint at A, the other at y1 — but the edge pattern is
        // symmetric, so alignment may put them in either order.
        let mut label_sets: Vec<Vec<TermId>> =
            scheme.labels.iter().map(|l| l.terms.clone()).collect();
        label_sets.sort();
        assert_eq!(label_sets, vec![vec![TermId(1)], vec![TermId(5)]]);
    }

    #[test]
    fn symmetric_alignment_avoids_over_generalization() {
        // Edge occurrences with endpoints swapped in half the cases:
        // (x1, y1) and (y1, x1). With automorphism alignment the labels
        // stay (x1, y1); without it they would generalize to the root.
        let fixture = fix(&[
            vec![3],
            vec![5],
            vec![5],
            vec![3],
            vec![3],
            vec![5],
            vec![5],
            vec![3],
        ]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        let out = run(&fixture, &pattern, &occs, 4);
        assert_eq!(out.len(), 1);
        let mut label_sets: Vec<Vec<TermId>> =
            out[0].scheme.labels.iter().map(|l| l.terms.clone()).collect();
        label_sets.sort();
        assert_eq!(label_sets, vec![vec![TermId(3)], vec![TermId(5)]]);
    }

    #[test]
    fn sigma_filters_small_clusters() {
        let fixture = fix(&vec![vec![3]; 4]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs = vec![edge_occ(0, 1), edge_occ(2, 3)];
        assert!(run(&fixture, &pattern, &occs, 3).is_empty());
        assert_eq!(run(&fixture, &pattern, &occs, 2).len(), 1);
    }

    #[test]
    fn unannotated_proteins_adopt_cluster_labels() {
        // Protein 6, 7 unannotated; the rest x1.
        let fixture = fix(&[
            vec![3],
            vec![3],
            vec![3],
            vec![3],
            vec![3],
            vec![3],
            vec![],
            vec![],
        ]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        let out = run(&fixture, &pattern, &occs, 4);
        assert_eq!(out.len(), 1);
        for l in &out[0].scheme.labels {
            assert_eq!(l.terms, vec![TermId(3)]);
        }
        // The emitted scheme conforms to every occurrence, including the
        // one with unannotated proteins.
        for o in &out[0].occurrences {
            assert!(out[0]
                .scheme
                .conforms_to(o, &fixture.ontology, &fixture.annotations));
        }
    }

    #[test]
    fn all_unannotated_emits_nothing() {
        let fixture = fix(&vec![vec![]; 8]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        assert!(run(&fixture, &pattern, &occs, 2).is_empty());
    }

    #[test]
    fn linkage_variants_produce_valid_output() {
        let fixture = fix(&[
            vec![3],
            vec![5],
            vec![4],
            vec![5],
            vec![3],
            vec![5],
            vec![4],
            vec![5],
        ]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
            let weights = TermWeights::compute(&fixture.ontology, &fixture.annotations);
            let sim = TermSimilarity::new(&fixture.ontology, &weights);
            let informative = InformativeClasses::compute(
                &fixture.ontology,
                &fixture.annotations,
                InformativeConfig {
                    min_direct: 2,
                    ..Default::default()
                },
            );
            let frontier = compute_frontier(&fixture.ontology, &informative);
            let terms_by_protein: Vec<Vec<TermId>> = (0..fixture.annotations.protein_count())
                .map(|p| fixture.annotations.terms_of(ProteinId(p as u32)).to_vec())
                .collect();
            let ctx = LabelContext {
                ontology: &fixture.ontology,
                sim: &sim,
                informative: &informative,
                terms_by_protein: &terms_by_protein,
                frontier: &frontier,
                dense: None,
            };
            let config = ClusteringConfig {
                sigma: 2,
                linkage,
                ..Default::default()
            };
            let out = cluster_occurrences(&pattern, &occs, &ctx, &config);
            assert!(!out.is_empty(), "{linkage:?} produced nothing");
            for c in &out {
                for o in &c.occurrences {
                    assert!(c.scheme.conforms_to(o, &fixture.ontology, &fixture.annotations));
                }
            }
        }
    }

    #[test]
    fn motif_symmetry_of_path_and_clique() {
        let path4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let sym = MotifSymmetry::undirected(&path4, 64);
        assert_eq!(sym.orbits, vec![vec![0, 3], vec![1, 2]]);
        assert_eq!(sym.autos.len(), 2, "identity + flip");
        // Path endpoints are interchangeable (both neighbor distinct
        // middles? no — endpoints attach to different middles), so no
        // interchangeable class covers them; the flip is coupled.
        assert!(sym.classes.is_empty(), "{:?}", sym.classes);

        let mut edges = Vec::new();
        for i in 0..4u32 {
            for j in i + 1..4 {
                edges.push((i, j));
            }
        }
        let k4 = Graph::from_edges(4, &edges);
        let sym = MotifSymmetry::undirected(&k4, 8);
        assert_eq!(sym.orbits.len(), 1);
        assert_eq!(sym.classes, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn emitted_schemes_conform_to_their_occurrences() {
        let fixture = fix(&[
            vec![3, 5],
            vec![5],
            vec![4],
            vec![5, 6],
            vec![3],
            vec![5],
            vec![4, 3],
            vec![5],
        ]);
        let pattern = Graph::from_edges(2, &[(0, 1)]);
        let occs: Vec<Occurrence> = (0..4).map(|i| edge_occ(2 * i, 2 * i + 1)).collect();
        for cluster in run(&fixture, &pattern, &occs, 2) {
            for o in &cluster.occurrences {
                assert!(
                    cluster
                        .scheme
                        .conforms_to(o, &fixture.ontology, &fixture.annotations),
                    "scheme {:?} vs occurrence {o:?}",
                    cluster.scheme
                );
            }
        }
    }
}
