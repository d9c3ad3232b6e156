//! Profile the supervision layer's work-tick accounting and the serving
//! layer's degraded modes, writing `BENCH_robustness.json`.
//!
//! Supervision: the discovery and labeling pipelines run under a
//! passive context (no metering) and a metered one (every tick
//! counted), repeated with the minimum taken, and the relative overhead
//! reported; the budget is < 3% overhead (DESIGN.md §13).
//!
//! Serving (DESIGN.md §16 "Serving fault model"): a deliberately
//! starved server (1 worker, tiny queue) is driven to saturation to
//! measure shed rate and the qps/p99 of what still gets through, with a
//! tick-accounting tripwire proving sheds are O(1) (a shed request
//! consumes zero postings); then `swap_artifact` latency is measured
//! under continuous query load. A `ServerStats` dump lands in
//! `target/server-stats.json` for the CI artifact.

use function_prediction::{CategoryView, PredictionContext};
use lamo_serve::{AdmissionPolicy, ModelArtifact, PendingQuery, ServeConfig, ServeError, Server};
use lamofinder_bench::report::{check, json_array, JsonObject};
use lamofinder_bench::{finder_config, label_all_namespaces, top_categories, yeast, Scale};
use lamofinder::{LaMoFinder, LaMoFinderConfig};
use motif_finder::{resume_growth, GrowthCheckpoint, Motif};
use par_util::RunContext;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const REPEATS: usize = 5;
const OVERHEAD_BUDGET_PCT: f64 = 3.0;
/// Categories in the serving fixture (the paper's evaluation space).
const N_CATEGORIES: usize = 13;
/// Open-loop burst size for the saturation measurement.
const BURST: usize = 4000;
/// Queue depth of the deliberately starved server.
const STARVED_DEPTH: usize = 4;
/// Artifact swaps timed under load.
const SWAPS: usize = 200;

/// Minimum wall time of `run` over [`REPEATS`] repetitions.
fn min_secs(mut run: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time one workload under a passive and a metered context and render
/// its row. `work` must run the pipeline to completion under the given
/// context; the metered pass also reports the tick volume.
fn profile(name: &str, work: impl Fn(&RunContext)) -> (f64, String) {
    // Warm-up pass so neither timed variant pays first-touch costs.
    work(&RunContext::unbounded());
    let passive = min_secs(|| work(&RunContext::unbounded()));
    let metered_ctx = RunContext::metered();
    work(&metered_ctx);
    let ticks = metered_ctx.ticks_spent();
    let metered = min_secs(|| work(&RunContext::metered()));
    let overhead_pct = if passive > 0.0 {
        (metered - passive) / passive * 100.0
    } else {
        0.0
    };
    println!(
        "{name}: passive {passive:.3}s, metered {metered:.3}s ({ticks} ticks) \
         -> overhead {overhead_pct:+.2}% [{}]",
        check(overhead_pct < OVERHEAD_BUDGET_PCT)
    );
    let row = JsonObject::new()
        .str("workload", name)
        .num("passive_secs", passive)
        .num("metered_secs", metered)
        .int("ticks", ticks as usize)
        .num("overhead_pct", overhead_pct)
        .render();
    (overhead_pct, row)
}

fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] * 1e6
}

fn stats_json(stats: &lamo_serve::StatsSnapshot) -> String {
    JsonObject::new()
        .int("accepted", stats.accepted as usize)
        .int("shed", stats.shed as usize)
        .int("answered", stats.answered as usize)
        .int("panicked", stats.panicked as usize)
        .int("deadline_expired", stats.deadline_expired as usize)
        .int("swaps", stats.swaps as usize)
        .render()
}

/// Open-loop burst against a starved server (1 worker, queue depth
/// [`STARVED_DEPTH`], shed policy): measures shed rate and the qps/p99
/// of the requests that were admitted, and asserts the O(1)-shed
/// tripwire — every tick the server charged is accounted to an answered
/// prediction's postings, so the shed requests consumed none.
fn profile_saturation(artifact: &Arc<ModelArtifact>) -> (String, String) {
    let ctx = Arc::new(RunContext::metered());
    let server = Server::start(
        Arc::clone(artifact),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            queue_depth: STARVED_DEPTH,
            admission: AdmissionPolicy::Shed,
        },
        Arc::clone(&ctx),
    );
    let protein_count = artifact.protein_count();
    let mut pending: Vec<(Instant, PendingQuery)> = Vec::new();
    let mut shed = 0usize;
    let t_burst = Instant::now();
    for i in 0..BURST {
        match server.submit(i % protein_count) {
            Ok(handle) => pending.push((Instant::now(), handle)),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected submit failure under saturation: {e}"),
        }
    }
    // FIFO + one worker: handle i completes before handle i+1, so the
    // elapsed time when each wait returns approximates its completion
    // latency even though the waits run sequentially.
    let accepted = pending.len();
    let mut latencies: Vec<f64> = Vec::with_capacity(accepted);
    let mut postings_total = 0u64;
    for (t, handle) in pending {
        let prediction = handle.wait().expect("accepted request must be served");
        latencies.push(t.elapsed().as_secs_f64());
        postings_total += prediction.postings as u64;
    }
    let wall = t_burst.elapsed().as_secs_f64();
    latencies.sort_unstable_by(f64::total_cmp);
    let stats = server.stats();
    server.shutdown();

    // The tripwire. A shed that walked postings (or charged ticks any
    // other way) breaks this equality.
    assert_eq!(
        ctx.ticks_spent(),
        postings_total,
        "shed requests must consume zero postings (O(1) shed)"
    );
    assert_eq!(stats.shed as usize, shed);
    assert_eq!(stats.accepted as usize, accepted);
    assert_eq!(stats.answered as usize, accepted);

    let shed_rate = shed as f64 / BURST as f64;
    let qps = accepted as f64 / wall.max(1e-12);
    let p99 = percentile_us(&latencies, 0.99);
    println!(
        "serving saturation: burst {BURST} -> accepted {accepted}, shed {shed} \
         ({:.1}% shed), {qps:.0} qps, p99 {p99:.1}µs, tripwire {} \
         ({postings_total} postings == {} ticks)",
        shed_rate * 100.0,
        check(true),
        ctx.ticks_spent()
    );
    let row = JsonObject::new()
        .str("mode", "queue_saturation")
        .int("burst", BURST)
        .int("queue_depth", STARVED_DEPTH)
        .int("workers", 1)
        .int("accepted", accepted)
        .int("shed", shed)
        .num("shed_rate", shed_rate)
        .num("admitted_qps", qps)
        .num("admitted_p99_us", p99)
        .int("ticks_spent", ctx.ticks_spent() as usize)
        .int("answered_postings", postings_total as usize)
        .bool("shed_is_o1", true)
        .render();
    (row, stats_json(&stats))
}

/// Time [`Server::swap_artifact`] while client threads keep querying:
/// swap latency is what an operator pays to push a new model, and the
/// load thread proves readers never block (every query under swap load
/// succeeds).
fn profile_swap(artifact: &Arc<ModelArtifact>) -> (String, String) {
    let server = Server::start(
        Arc::clone(artifact),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::new(RunContext::unbounded()),
    );
    let protein_count = artifact.protein_count();
    let stop = AtomicBool::new(false);
    let (mut swap_lat, served_under_load) = std::thread::scope(|scope| {
        let server = &server;
        let stop = &stop;
        let load = scope.spawn(move || {
            let mut served = 0usize;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                server
                    .query(i % protein_count)
                    .expect("query under swap load must succeed");
                served += 1;
                i += 1;
            }
            served
        });
        let mut lat = Vec::with_capacity(SWAPS);
        for _ in 0..SWAPS {
            let t = Instant::now();
            server
                .swap_artifact(Arc::clone(artifact))
                .expect("a valid artifact always swaps");
            lat.push(t.elapsed().as_secs_f64());
        }
        stop.store(true, Ordering::Relaxed);
        let served = load.join().expect("load thread must not panic");
        (lat, served)
    });
    assert_eq!(server.epoch(), SWAPS as u64, "each swap bumps the epoch once");
    let stats = server.stats();
    server.shutdown();
    swap_lat.sort_unstable_by(f64::total_cmp);
    let p50 = percentile_us(&swap_lat, 0.50);
    let p99 = percentile_us(&swap_lat, 0.99);
    println!(
        "serving swap-under-load: {SWAPS} swaps over {served_under_load} live queries, \
         swap p50 {p50:.1}µs, p99 {p99:.1}µs"
    );
    let row = JsonObject::new()
        .str("mode", "swap_under_load")
        .int("swaps", SWAPS)
        .int("workers", 2)
        .int("queries_served_during", served_under_load)
        .num("swap_p50_us", p50)
        .num("swap_p99_us", p99)
        .render();
    (row, stats_json(&stats))
}

fn main() {
    let scale = Scale::from_args();
    let data = yeast(scale);
    let config = finder_config(scale);

    let mut rows: Vec<String> = Vec::new();
    let mut worst = f64::NEG_INFINITY;

    // Discovery: the growth loop ticks per candidate scored.
    let growth_config = config.growth.clone();
    let (overhead, row) = profile("discovery", |ctx| {
        resume_growth(&data.network, &growth_config, GrowthCheckpoint::default(), ctx)
            .expect("a complete context never interrupts discovery");
    });
    rows.push(row);
    worst = worst.max(overhead);

    // Labeling: ticks per similarity row and per motif. The motifs come
    // from one discovery pass over the same network.
    let report = resume_growth(
        &data.network,
        &config.growth,
        GrowthCheckpoint::default(),
        &RunContext::unbounded(),
    )
    .expect("a passive context never interrupts discovery");
    let motifs: Vec<Motif> = report
        .classes
        .into_iter()
        .map(|c| Motif {
            pattern: c.pattern,
            occurrences: c.occurrences,
            frequency: c.frequency,
            uniqueness: None,
        })
        .collect();
    let labeler = LaMoFinder::new(
        &data.ontology,
        &data.annotations,
        LaMoFinderConfig::default(),
    );
    let (overhead, row) = profile("labeling", |ctx| {
        labeler
            .label_motifs_supervised(&motifs, ctx)
            .expect("a complete context never interrupts labeling");
    });
    rows.push(row);
    worst = worst.max(overhead);

    // ── Serving degraded modes. The artifact is compiled from the same
    // discovery pass; whatever the scale, the starved-queue and
    // swap-under-load shapes are the measurement, not the data size.
    let labeled = label_all_namespaces(&data.ontology, &data.annotations, &motifs, scale);
    let categories = top_categories(&data.annotations, N_CATEGORIES);
    let view = CategoryView::new(&data.ontology, &data.annotations, &categories);
    let artifact = Arc::new(ModelArtifact::build(
        &labeled,
        &PredictionContext {
            network: &data.network,
            functions: &view.functions,
            n_categories: view.n_categories(),
            category_terms: &view.categories,
        },
    ));
    let (saturation_row, saturation_stats) = profile_saturation(&artifact);
    let (swap_row, swap_stats) = profile_swap(&artifact);

    // ServerStats dump for the CI artifact: the raw counters behind the
    // degraded-mode rows.
    let stats_doc = JsonObject::new()
        .raw("saturation", saturation_stats)
        .raw("swap_under_load", swap_stats)
        .render();
    std::fs::write("target/server-stats.json", format!("{stats_doc}\n"))
        .expect("write target/server-stats.json");

    let doc = JsonObject::new()
        .str("benchmark", "robustness")
        .str(
            "scale",
            if scale == Scale::Full { "full" } else { "small" },
        )
        .int("vertices", data.network.vertex_count())
        .int("edges", data.network.edge_count())
        .int("motifs_labeled", motifs.len())
        .int("repeats", REPEATS)
        .num("overhead_budget_pct", OVERHEAD_BUDGET_PCT)
        .num("worst_overhead_pct", worst)
        .raw("workloads", json_array(&rows))
        .raw("serving_degraded", json_array(&[saturation_row, swap_row]))
        .render();
    std::fs::write("BENCH_robustness.json", format!("{doc}\n"))
        .expect("write BENCH_robustness.json");
    println!(
        "wrote BENCH_robustness.json (worst overhead {worst:+.2}%, budget {OVERHEAD_BUDGET_PCT}%) \
         and target/server-stats.json"
    );
}
