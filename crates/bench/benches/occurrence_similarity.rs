//! Criterion bench: occurrence similarity SO (Eq. 3) across motif
//! shapes — asymmetric, flip-symmetric and big-orbit (clique) patterns —
//! plus the Hungarian assignment kernel itself.

use criterion::{criterion_group, criterion_main, Criterion};
use go_ontology::{ProteinId, TermId, TermSimilarity, TermWeights};
use lamofinder::assignment::max_assignment;
use lamofinder::OccurrenceScorer;
use motif_finder::Occurrence;
use ppi_graph::{Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use synthetic_data::{generate_ontology, GoGenConfig};

struct World {
    ontology: go_ontology::Ontology,
    weights: TermWeights,
    terms_by_protein: Vec<Vec<TermId>>,
}

fn world() -> World {
    let mut rng = SmallRng::seed_from_u64(9);
    let ontology = generate_ontology(&GoGenConfig::default(), &mut rng);
    let terms: Vec<TermId> = ontology.term_ids().collect();
    let n = 500;
    let mut ann = go_ontology::Annotations::new(n, ontology.term_count());
    for p in 0..n as u32 {
        for _ in 0..4 {
            ann.annotate(ProteinId(p), terms[rng.gen_range(0..terms.len())]);
        }
    }
    let weights = TermWeights::compute(&ontology, &ann);
    let terms_by_protein: Vec<Vec<TermId>> = (0..n)
        .map(|p| ann.terms_of(ProteinId(p as u32)).to_vec())
        .collect();
    World {
        ontology,
        weights,
        terms_by_protein,
    }
}

fn occs(k: usize, count: usize, rng: &mut SmallRng) -> Vec<Occurrence> {
    (0..count)
        .map(|_| {
            let mut verts = Vec::with_capacity(k);
            while verts.len() < k {
                let v = VertexId(rng.gen_range(0..500));
                if !verts.contains(&v) {
                    verts.push(v);
                }
            }
            Occurrence::new(verts)
        })
        .collect()
}

fn bench_occurrence_similarity(c: &mut Criterion) {
    let w = world();
    let sim = TermSimilarity::new(&w.ontology, &w.weights);
    let mut rng = SmallRng::seed_from_u64(4);

    // Asymmetric: triangle with tail (3 singleton orbits + one pair).
    let tail = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
    // Flip-symmetric path of 5.
    let path5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    // One big orbit: K6 (6-way Hungarian per pair).
    let mut k6_edges = Vec::new();
    for i in 0..6u32 {
        for j in i + 1..6 {
            k6_edges.push((i, j));
        }
    }
    let k6 = Graph::from_edges(6, &k6_edges);

    let mut group = c.benchmark_group("so_40x40");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for (name, pattern) in [("tailed_triangle", &tail), ("path5", &path5), ("k6", &k6)] {
        let k = pattern.vertex_count();
        let pool = occs(k, 40, &mut rng);
        let scorer = OccurrenceScorer::new(pattern, &sim, &w.terms_by_protein);
        group.bench_function(name, |b| {
            b.iter(|| {
                for a in &pool {
                    for bb in &pool {
                        black_box(scorer.so(a, bb));
                    }
                }
            })
        });
    }
    group.finish();

    // Hungarian kernel alone.
    for n in [4usize, 8, 16] {
        let m: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        c.bench_function(format!("hungarian_{n}x{n}"), |b| {
            b.iter(|| black_box(max_assignment(&m)))
        });
    }
}

criterion_group!(benches, bench_occurrence_similarity);
criterion_main!(benches);
