//! Profile the serving layer end to end and write `BENCH_serving.json`.
//!
//! For each fixture (the 420v/720e small network, and with the default
//! `full` argument also the paper-scale 4141v/7095e yeast network):
//! run the batch pipeline once (discovery → labeling → categories),
//! compile the [`ModelArtifact`], serialize it, time a cold load, then
//! measure the query path — single-predict latency, throughput and
//! p50/p99 across client threads 1/2/4 (clamped to the host), and
//! batch-vs-single amplification. The small fixture also asserts the
//! ISSUE 7 acceptance bar: a served prediction must be ≥ 100× faster
//! than answering the same question with a fresh pipeline run.
//!
//! This binary lives in the bench crate — the one place the `wall-clock`
//! lint allows timing code: the server itself batches by arrival order
//! and meters work in ticks, and latency is measured here, at the
//! boundary, the same way `par_util::realtime` confines deadlines.

use function_prediction::{CategoryView, PredictScratch, PredictionContext};
use lamo_serve::{read_artifact, write_artifact, ModelArtifact, ServeConfig, Server};
use lamofinder_bench::report::{json_array, JsonObject};
use lamofinder_bench::{find_motifs, label_all_namespaces, top_categories, yeast, Scale};
use par_util::RunContext;
use std::sync::Arc;
use std::time::Instant;

/// The paper evaluates against the top 13 functional categories.
const N_CATEGORIES: usize = 13;
/// Queries per client thread in the throughput sweep.
const QUERIES_PER_CLIENT: usize = 2000;
/// Batch size for the amplification measurement.
const BATCH: usize = 64;

fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] * 1e6
}

struct FixtureReport {
    row: String,
    predict_p50_secs: f64,
    pipeline_secs: f64,
}

fn profile_fixture(name: &str, scale: Scale, cores: usize) -> FixtureReport {
    // ── Batch pipeline: what a user pays *without* the serving layer.
    let t_pipeline = Instant::now();
    let data = yeast(scale);
    let (motifs, _report) = find_motifs(&data.network, scale);
    let labeled = label_all_namespaces(&data.ontology, &data.annotations, &motifs, scale);
    let categories = top_categories(&data.annotations, N_CATEGORIES);
    let view = CategoryView::new(&data.ontology, &data.annotations, &categories);
    let ctx = PredictionContext {
        network: &data.network,
        functions: &view.functions,
        n_categories: view.n_categories(),
        category_terms: &view.categories,
    };
    let t_build = Instant::now();
    let artifact = ModelArtifact::build(&labeled, &ctx);
    let build_secs = t_build.elapsed().as_secs_f64();
    let pipeline_secs = t_pipeline.elapsed().as_secs_f64();
    artifact
        .validate()
        .expect("pipeline-built artifact must satisfy every structural invariant");

    // ── Binary roundtrip + cold load (file under target/, never /tmp).
    let bytes = write_artifact(&artifact);
    let path = format!("target/lamo-serve-artifact-{name}.bin");
    std::fs::write(&path, &bytes).expect("write artifact file under target/");
    let t_load = Instant::now();
    let loaded_bytes = std::fs::read(&path).expect("read back the artifact file");
    let loaded = read_artifact(&loaded_bytes).expect("persisted artifact must decode");
    let cold_load_secs = t_load.elapsed().as_secs_f64();
    assert_eq!(loaded, artifact, "load must reproduce the built artifact");
    let artifact = Arc::new(loaded);

    // ── Raw predict latency (no server hop): the 100×-vs-pipeline bar.
    let protein_count = artifact.protein_count();
    let mut scratch = PredictScratch::new();
    let mut latencies: Vec<f64> = Vec::with_capacity(protein_count);
    for p in 0..protein_count {
        let t = Instant::now();
        let (ranked, _postings) = artifact.predict_into(p, &mut scratch);
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(ranked.len(), view.n_categories());
        latencies.push(elapsed);
    }
    latencies.sort_unstable_by(f64::total_cmp);
    let predict_p50_secs = latencies[latencies.len() / 2];
    let predict_p50_us = percentile_us(&latencies, 0.50);
    let predict_p99_us = percentile_us(&latencies, 0.99);

    // ── Served throughput × client threads {1,2,4} (clamped): each
    // client thread times its own queries; qps is aggregate. Requested
    // counts that clamp to the same effective count share one
    // measurement (same dedup as profile_find's growth sweep), but
    // every emitted row carries its own `threads` value — the rows are
    // per-request, the *numbers* are per-effective-count.
    struct ClientRun {
        queries: usize,
        qps: f64,
        p50: f64,
        p99: f64,
    }
    let mut client_rows: Vec<String> = Vec::new();
    let mut measured: Vec<(usize, ClientRun)> = Vec::new();
    for requested in [1usize, 2, 4] {
        let effective = requested.min(cores);
        if !measured.iter().any(|(e, _)| *e == effective) {
            let server = Server::start(
                Arc::clone(&artifact),
                ServeConfig {
                    workers: 0,
                    max_batch: 32,
                    ..ServeConfig::default()
                },
                Arc::new(RunContext::unbounded()),
            );
            let t_all = Instant::now();
            let mut all: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..effective)
                    .map(|c| {
                        let server = &server;
                        scope.spawn(move || {
                            let mut lat = Vec::with_capacity(QUERIES_PER_CLIENT);
                            for i in 0..QUERIES_PER_CLIENT {
                                let p = (c + i * effective) % protein_count;
                                let t = Instant::now();
                                let answer = server.query(p);
                                lat.push(t.elapsed().as_secs_f64());
                                assert!(answer.is_ok(), "served query must succeed");
                            }
                            lat
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread must not panic"))
                    .collect()
            });
            let wall = t_all.elapsed().as_secs_f64();
            server.shutdown();
            all.sort_unstable_by(f64::total_cmp);
            let queries = effective * QUERIES_PER_CLIENT;
            measured.push((
                effective,
                ClientRun {
                    queries,
                    qps: queries as f64 / wall,
                    p50: percentile_us(&all, 0.50),
                    p99: percentile_us(&all, 0.99),
                },
            ));
        }
        let (_, run) = measured
            .iter()
            .find(|(e, _)| *e == effective)
            .expect("just measured this effective count");
        println!(
            "{name} serve[clients={requested} effective={effective}]: \
             {:.0} qps, p50 {:.1}µs, p99 {:.1}µs",
            run.qps, run.p50, run.p99
        );
        client_rows.push(
            JsonObject::new()
                .int("threads", requested)
                .int("effective_threads", effective)
                .int("queries", run.queries)
                .num("qps", run.qps)
                .num("p50_us", run.p50)
                .num("p99_us", run.p99)
                .render(),
        );
    }

    // ── Batch-vs-single amplification on one server: the batched path
    // pays one submit per query but drains in runs, so its per-query
    // overhead should be lower.
    let server = Server::start(
        Arc::clone(&artifact),
        ServeConfig {
            workers: 0,
            max_batch: BATCH,
            ..ServeConfig::default()
        },
        Arc::new(RunContext::unbounded()),
    );
    let proteins: Vec<usize> = (0..BATCH).map(|i| i % protein_count).collect();
    let t_single = Instant::now();
    for &p in &proteins {
        server
            .query(p)
            .expect("single query must succeed on a live server");
    }
    let single_secs = t_single.elapsed().as_secs_f64();
    let t_batched = Instant::now();
    let answers = server.query_batch(&proteins);
    let batched_secs = t_batched.elapsed().as_secs_f64();
    assert!(answers.iter().all(Result::is_ok));
    server.shutdown();
    let amplification = if batched_secs > 0.0 {
        single_secs / batched_secs
    } else {
        0.0
    };
    println!(
        "{name} batch[{BATCH}]: singles {single_secs:.4}s, batched {batched_secs:.4}s \
         ({amplification:.2}x)"
    );

    let row = JsonObject::new()
        .str("fixture", name)
        .int("vertices", data.network.vertex_count())
        .int("edges", data.network.edge_count())
        .int("categories", view.n_categories())
        .int("labeled_motifs", artifact.motifs.motif_count())
        .int("postings", artifact.index.postings.len())
        .int("artifact_bytes", bytes.len())
        .num("pipeline_secs", pipeline_secs)
        .num("artifact_build_secs", build_secs)
        .num("cold_load_secs", cold_load_secs)
        .num("predict_p50_us", predict_p50_us)
        .num("predict_p99_us", predict_p99_us)
        .num(
            "pipeline_over_predict",
            if predict_p50_secs > 0.0 {
                pipeline_secs / predict_p50_secs
            } else {
                f64::INFINITY
            },
        )
        .raw("clients", json_array(&client_rows))
        .raw(
            "batch",
            JsonObject::new()
                .int("batch_size", BATCH)
                .num("single_secs", single_secs)
                .num("batched_secs", batched_secs)
                .num("amplification", amplification)
                .render(),
        )
        .render();
    FixtureReport {
        row,
        predict_p50_secs,
        pipeline_secs,
    }
}

fn main() {
    let scale = Scale::from_args();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut fixtures: Vec<String> = Vec::new();
    let small = profile_fixture("small", Scale::Small, cores);

    // ISSUE 7 acceptance bar: serving must beat a fresh pipeline run by
    // ≥ 100× on the small fixture. In practice the gap is ~10⁶.
    let speedup = small.pipeline_secs / small.predict_p50_secs.max(1e-12);
    assert!(
        speedup >= 100.0,
        "serving bar missed: pipeline {:.2}s vs predict p50 {:.2e}s = {speedup:.0}x",
        small.pipeline_secs,
        small.predict_p50_secs
    );
    println!("small: served predict is {speedup:.0}x faster than a fresh pipeline run");
    fixtures.push(small.row);

    // The yeast fixture mines at paper scale and takes minutes; CI runs
    // `profile_serve -- small` and relies on the committed full run.
    if scale == Scale::Full {
        fixtures.push(profile_fixture("yeast", Scale::Full, cores).row);
    }

    let doc = JsonObject::new()
        .str("benchmark", "serving")
        .str(
            "scale",
            if scale == Scale::Full { "full" } else { "small" },
        )
        .int("available_parallelism", cores)
        .int("queries_per_client", QUERIES_PER_CLIENT)
        .raw("fixtures", json_array(&fixtures))
        .render();
    std::fs::write("BENCH_serving.json", format!("{doc}\n")).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json");
}
