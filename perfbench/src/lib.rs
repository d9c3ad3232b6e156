#![forbid(unsafe_code)]
//! End-to-end and per-layer benchmark of the LaMoFinder system: the
//! batch pipeline (motif growth, the null-model uniqueness test,
//! labeling in three GO namespaces, artifact build, store publish and
//! recovery), the serving layer, and live edge-delta updates.
//!
//! Every run reports every end-to-end metric, so every workload runs
//! the same four phases on its fixture — train, set-up, reads, live
//! updates — and differs in which phase gets the measured time:
//!
//! * `serve-small`: two runs of the batch pipeline on the 420v/720e
//!   fixture (growth and the null model dominate them), then rounds of
//!   reads of its 8 MB artifact — an open loop, one client for latency,
//!   a closed loop for capacity — whose heavy postings set the tail,
//!   each followed by windows of updates;
//! * `live-yeast`: incremental training on the 4141v/7095e network,
//!   then a seeded delta stream with a reader beside it; `apply_delta`
//!   sets the update latency.
//!
//! Reads and updates run in rounds, one per second of `--seconds`, so
//! each samples the whole run. Read figures are medians over a run's
//! fixed rounds (see [`serve::Reads`]); update figures pool every
//! update. A run does a fixed amount of update work, so what the
//! program holds after it does not depend on how fast it went.
//!
//! A run checks its outputs before it reports a number (see
//! [`run`]); a traced run repeats the workload with spans on and
//! reports per-layer metrics instead of end-to-end ones.

pub mod fixture;
pub mod host;
pub mod live;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use fixture::{Fixture, Inputs, Trained};
use lamo_serve::{ArtifactStore, IncrementalTrainer, ServeConfig, Server};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use par_util::RunContext;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace::Tracer;

/// Open-loop request rate: about a quarter of the capacity of one
/// server worker on the small fixture's artifact on a 2-core AMD EPYC
/// host, a small share of it on the yeast artifact's light queries. At
/// half capacity the small fixture's p99 is set by bursts of heavy
/// queries queued behind each other and moves ±50% from run to run.
pub const OPEN_LOOP_RATE: f64 = 10_000.0;
/// Rounds per second of `--seconds`. Each round runs one set-up, one
/// round of reads and the workload's update windows.
const ROUNDS_PER_S: f64 = 1.0;

/// Each traced layer and its self-time metric.
const LAYER_SELF_S: [(&str, &str); 8] = [
    ("synthetic-data", "synthetic-data.self_s"),
    ("ppi-graph", "ppi-graph.self_s"),
    ("go-ontology", "go-ontology.self_s"),
    ("motif-finder", "motif-finder.self_s"),
    ("core", "core.self_s"),
    ("function-prediction", "function-prediction.self_s"),
    ("lamo-serve", "lamo-serve.self_s"),
    ("bench", "bench.self_s"),
];

/// Served latency bucketed by postings consumed: `[lo, hi)`, then the
/// median and count metric names.
const POSTING_BUCKETS: [(u32, u32, &str, &str); 4] = [
    (
        0,
        16,
        "lamo-serve.served_p50_us.postings_lt16",
        "lamo-serve.queries.postings_lt16",
    ),
    (
        16,
        256,
        "lamo-serve.served_p50_us.postings_lt256",
        "lamo-serve.queries.postings_lt256",
    ),
    (
        256,
        4096,
        "lamo-serve.served_p50_us.postings_lt4096",
        "lamo-serve.queries.postings_lt4096",
    ),
    (
        4096,
        u32::MAX,
        "lamo-serve.served_p50_us.postings_ge4096",
        "lamo-serve.queries.postings_ge4096",
    ),
];

/// A workload: one fixture, its training repeats, and what each round
/// of reads and updates holds.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub fixture: Fixture,
    /// Batch pipeline (true) or incremental trainer (false).
    pub batch: bool,
    /// Training repeats; `train_s` is their median.
    pub train_reps: usize,
    /// Seconds of reads per round, split between the open loop, the
    /// single client and the closed loop.
    pub read_s: f64,
    /// Update windows per round (16 updates each). Together with the
    /// reads they take about a second on a 2-core AMD EPYC host.
    pub windows: usize,
    /// The single client blocks on each answer (true) or spins on it
    /// (false). Spinning keeps the client's own wake-up out of the heavy
    /// queries' latency. On the yeast artifact a query costs 0.04 µs and
    /// latency is all wake-ups: a spinning client's p50 read 3 µs in some
    /// runs and 5 µs in others, while a blocking one pays both wake-ups
    /// every time and holds.
    pub single_client_blocks: bool,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-small",
        fixture: Fixture::Small,
        batch: true,
        train_reps: 2,
        read_s: 0.4,
        windows: 2,
        single_client_blocks: false,
    },
    Workload {
        name: "live-yeast",
        fixture: Fixture::Yeast,
        batch: false,
        train_reps: 15,
        read_s: 0.2,
        windows: 4,
        single_client_blocks: true,
    },
];

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny run for the smoke test: one repeat of everything, one round
    /// with one window of updates.
    pub smoke: bool,
}

/// A finished run.
pub struct Outcome {
    /// `None` when every correctness gate passed.
    pub error: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    /// The run's stores, for [`Outcome::remove_stores`].
    pub store_dir: PathBuf,
}

impl Outcome {
    /// Delete the run's stores. Called once the result is out, so the
    /// time it takes is in no metric.
    pub fn remove_stores(&self) -> std::io::Result<()> {
        match std::fs::remove_dir_all(&self.store_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// The result line for this run's mode.
    pub fn result_line(&self, trace: bool) -> String {
        let specs = if trace { PER_LAYER } else { END_TO_END };
        let rendered = if self.error.is_none() {
            self.metrics.render(specs)
        } else {
            "{}".to_string()
        };
        metrics::result_line(self.error.is_none(), self.attempted, self.failed, &rendered)
    }
}

/// Minimum length of a query order, about what one run's open loop
/// submits on the small fixture.
const ORDER_LEN: usize = 1 << 17;

/// The order proteins are queried in: seeded permutations of `0..n`
/// back to back, each drawn afresh, at least `ORDER_LEN` long. On the
/// small fixture a run passes over all proteins hundreds of times, and
/// the read tail is set by its few heaviest ones and the queries queued
/// behind them; replaying one arrangement every pass would make that
/// tail a property of the seed instead of the server.
pub fn query_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order = Vec::with_capacity(ORDER_LEN.next_multiple_of(n.max(1)));
    while order.len() < ORDER_LEN && n > 0 {
        let start = order.len();
        order.extend(0..n);
        let pass = &mut order[start..];
        for i in (1..n).rev() {
            pass.swap(i, rng.gen_range(0..=i));
        }
    }
    order
}

/// Where stores and traces go: under the build directory, inside the
/// checkout.
fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench")
}

/// Run one workload. Untraced: one pass, end-to-end metrics. Traced: an
/// untraced pass, then a traced pass; per-layer metrics come from the
/// traced pass and the tracing overhead is the gap between the two.
pub fn run(options: &Options) -> Outcome {
    let dir = work_dir().join(format!("{}-{}", options.workload.name, std::process::id()));
    match run_in(options, &dir) {
        Ok(outcome) => outcome,
        Err((error, attempted, failed)) => Outcome {
            error: Some(error),
            attempted,
            failed,
            metrics: Metrics::default(),
            notes: Vec::new(),
            store_dir: dir,
        },
    }
}

type RunError = (String, u64, u64);

fn run_in(options: &Options, dir: &Path) -> Result<Outcome, RunError> {
    let untraced = Tracer::new(false);
    let plain = pass(options, &dir.join("plain"), &untraced)?;
    let mut notes = vec![format!("# host {}", plain.host), plain.note.clone()];
    if !options.trace {
        let mut metrics = plain.end_to_end.clone();
        metrics.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
        return Ok(Outcome {
            error: None,
            attempted: plain.attempted,
            failed: plain.failed,
            metrics,
            notes,
            store_dir: dir.to_path_buf(),
        });
    }

    let tracer = Tracer::new(true);
    let traced = pass(options, &dir.join("traced"), &tracer)?;
    let spans = tracer.spans();
    let err = |e: String| (e, traced.attempted, traced.failed);
    let coverage = trace::child_coverage(&spans, "bench.train").unwrap_or(0.0);
    if coverage < 0.95 {
        return Err(err(format!(
            "trace: stage spans cover only {:.1}% of train_s (need 95%)",
            coverage * 100.0
        )));
    }
    let mut metrics = traced.per_layer;
    metrics.set("trace.spans", spans.len() as f64);
    metrics.set("trace.train_coverage", coverage);
    let self_s = trace::layer_self_s(&spans);
    for (layer, name) in LAYER_SELF_S {
        metrics.set(name, self_s.get(layer).copied().unwrap_or(0.0));
    }
    // Positive means the traced pass read worse than the untraced one.
    for (metric, overhead) in [
        ("setup_s", "trace.overhead_pct.setup_s"),
        ("train_s", "trace.overhead_pct.train_s"),
        ("read_qps", "trace.overhead_pct.read_qps"),
        ("read_p50_us", "trace.overhead_pct.read_p50_us"),
        ("read_p99_us", "trace.overhead_pct.read_p99_us"),
        ("update_p50_ms", "trace.overhead_pct.update_p50_ms"),
        ("update_p95_ms", "trace.overhead_pct.update_p95_ms"),
    ] {
        let (base, with) = (
            plain.end_to_end.get(metric).unwrap_or(0.0),
            traced.end_to_end.get(metric).unwrap_or(0.0),
        );
        let worse = if metric == "read_qps" {
            base - with
        } else {
            with - base
        };
        let gap = if base > 0.0 {
            worse / base * 100.0
        } else {
            0.0
        };
        metrics.set(overhead, gap);
    }

    let layer_json = self_s
        .iter()
        .map(|(layer, s)| format!("\"{layer}\": {s}"))
        .collect::<Vec<_>>()
        .join(", ");
    let header = format!(
        "{{\"host\": {}, \"layer_self_s\": {{{layer_json}}}}}",
        traced.host
    );
    let path = work_dir().join(format!(
        "trace-{}-seed{}.jsonl",
        options.workload.name, options.seed
    ));
    tracer
        .write(&path, &header)
        .map_err(|e| err(format!("trace: cannot write {}: {e}", path.display())))?;
    notes.push(format!(
        "# trace {} ({} spans)",
        path.display(),
        spans.len()
    ));
    Ok(Outcome {
        error: None,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics,
        notes,
        store_dir: dir.to_path_buf(),
    })
}

const DIFFERENT_ARTIFACT: &str = "train: repeated training produced a different artifact";

/// A trained model, its store, and for the incremental trainer the
/// trainer itself with the context its ticks were metered on.
type TrainRep<'a> = (
    Trained,
    ArtifactStore,
    Option<(IncrementalTrainer<'a>, RunContext)>,
);

/// One training repeat. Each publishes into a store of its own, as a
/// cold deployment would: in a store that has already replaced its
/// manifest, an ext4 fsync waits for a journal commit (20-80 ms on a
/// shared virtual disk, varying with its load), which would swamp the 0.1 s yeast
/// training. The update stream's window checkpoints pay that cost, as
/// a long-lived store does.
fn train_once<'a>(
    w: Workload,
    inputs: &'a Inputs,
    dir: &Path,
    tracer: &Tracer,
    rep: u64,
) -> Result<TrainRep<'a>, String> {
    let path = dir.join(format!("train-{rep}"));
    let store = ArtifactStore::open(&path)
        .map_err(|e| format!("store: cannot open {}: {e}", path.display()))?;
    if w.batch {
        let t = fixture::train_batch(inputs, &store, tracer, rep)?;
        Ok((t, store, None))
    } else {
        let ctx = RunContext::metered();
        let (t, trainer) =
            fixture::train_incremental(inputs, w.fixture, &store, tracer, &ctx, rep)?;
        Ok((t, store, Some((trainer, ctx))))
    }
}

/// One pass of a workload.
struct Pass {
    end_to_end: Metrics,
    per_layer: Metrics,
    attempted: u64,
    failed: u64,
    host: String,
    note: String,
}

fn pass(options: &Options, dir: &Path, tracer: &Tracer) -> Result<Pass, RunError> {
    let w = options.workload;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let fail = |e: String, attempted: u64, failed: u64| (e, attempted, failed);
    let open = |path: PathBuf| {
        ArtifactStore::open(&path)
            .map_err(|e| format!("store: cannot open {}: {e}", path.display()))
    };
    let live_store = open(dir.join("live")).map_err(|e| fail(e, 0, 0))?;
    let inputs = Inputs::generate(w.fixture, tracer, 0);
    let mut per_layer = Metrics::default();
    for spec in PER_LAYER {
        per_layer.set(spec.name, 0.0);
    }

    // ── Train. The incremental trainer's repeats (0.1 s each) run half
    // here and half after the rounds, so a slow stretch of the shared
    // host spoils one half, not the median. Batch repeats all run here:
    // two already span 7 s, and one after the rounds would train on a
    // heap the update stream has fragmented, raising the peak RSS.
    let reps = if options.smoke { 1 } else { w.train_reps };
    let now = |n: usize| if w.batch { n } else { n.div_ceil(2) };
    let mut train_s: Vec<f64> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut last = None;
    for rep in 0..now(reps) as u64 {
        attempted += 1;
        let t =
            train_once(w, &inputs, dir, tracer, rep).map_err(|e| fail(e, attempted, failed + 1))?;
        if last
            .as_ref()
            .is_some_and(|(prev, ..): &(Trained, _, _)| prev.bytes != t.0.bytes)
        {
            return Err(fail(DIFFERENT_ARTIFACT.to_string(), attempted, failed));
        }
        train_s.push(t.0.secs);
        last = Some(t);
    }
    let (model, train_store, incremental) = last.expect("at least one training run");
    let train_fp = host::fnv1a64(&model.bytes);

    // ── Rounds: a set-up, reads, then update windows, so each phase
    // samples the whole run. A read round is an open loop at a fixed
    // rate, one client with one query in flight, and a closed loop at
    // capacity; each read figure is a median over rounds (see
    // `serve::Reads`). Read latency is the single client's, which polls
    // for its answer: on a shared VM the host stalls a vCPU for
    // milliseconds several times a second, and an open loop charges each
    // stall to every request due during it, so its p99 tracks the host
    // (270-1230 µs from one second to the next on the same code) while
    // the single client's holds within ~10%. Update windows have a paced
    // reader beside them, whose latency is a per-layer metric.
    let (live_trainer, train_ctx) = match incremental {
        Some(t) => t,
        None => (
            inputs
                .incremental_trainer(&inputs.data.network, w.fixture, &RunContext::unbounded())
                .map_err(|e| fail(e, attempted, failed))?,
            RunContext::metered(),
        ),
    };
    let live_fp = host::fnv1a64(&lamo_serve::write_artifact(live_trainer.artifact()));
    let mut stream =
        live::Stream::start(&inputs, w.fixture, live_trainer, &live_store, options.seed);
    let (rounds, windows) = if options.smoke {
        (1, 1)
    } else {
        (
            ((options.seconds * ROUNDS_PER_S).round() as usize).max(1),
            w.windows,
        )
    };
    let read_ctx = Arc::new(RunContext::metered());
    let server = Server::start(
        Arc::new(model.artifact.clone()),
        ServeConfig::default(),
        Arc::clone(&read_ctx),
    );
    let order = query_order(model.artifact.protein_count(), options.seed);
    let third = w.read_s / 3.0;
    let (mut open_reads, mut single_reads, mut closed_reads) = (
        serve::Reads::default(),
        serve::Reads::default(),
        serve::Reads::default(),
    );
    for round in 0..rounds {
        attempted += 1;
        setup_s.push(
            fixture::setup_once(
                w.fixture,
                &model.labeled,
                &train_store,
                tracer,
                round as u64,
            )
            .map_err(|e| fail(e, attempted, failed + 1))?,
        );
        // Each round serves a fresh copy of the artifact, hot-swapped in.
        // Where a copy lands in physical memory sets the cache conflicts
        // of the heavy queries' postings walks: one copy held a whole
        // run's p99 at 200 µs or at 275 µs, while fresh copies vary from
        // round to round and their median holds.
        server
            .swap_artifact(Arc::new(model.artifact.clone()))
            .map_err(|e| fail(format!("read: swap refused: {e}"), attempted, failed))?;
        open_reads.add_round(serve::open_loop(
            &server,
            &order,
            OPEN_LOOP_RATE,
            third,
            tracer,
        ));
        single_reads.add_round(serve::single_client(
            &server,
            &order,
            third,
            w.single_client_blocks,
            tracer,
        ));
        // With the server's worker, one thread per vCPU: one more
        // measures the host's scheduler.
        let clients = host::available_parallelism().saturating_sub(1).max(1);
        closed_reads.add_round(serve::closed_loop(&server, &order, clients, third, tracer));
        stream
            .windows(windows, tracer)
            .map_err(|e| fail(e, attempted + stream.updates() as u64, failed + 1))?;
    }
    let live = stream
        .finish(tracer)
        .map_err(|e| fail(e, attempted, failed + 1))?;
    attempted += live.update_ms.len() as u64 + live.reads.tally.submitted;
    failed += live.reads.tally.failed;

    let stats = server.stats();
    server.shutdown();
    let mut tally = open_reads.tally;
    tally.add(single_reads.tally);
    tally.add(closed_reads.tally);
    attempted += tally.submitted;
    failed += tally.failed;
    serve::check_tallies(tally, stats).map_err(|e| fail(e, attempted, failed))?;
    // Every loop is gated; the per-layer predict and hop timings come
    // from the single client, whose answers never queue.
    for reads in [&open_reads, &closed_reads] {
        serve::verify_samples(&reads.samples, &model.artifact, tracer)
            .map_err(|e| fail(e, attempted, failed))?;
    }
    let verified = serve::verify_samples(&single_reads.samples, &model.artifact, tracer)
        .map_err(|e| fail(e, attempted, failed))?;

    // ── The other half of the training repeats.
    for rep in now(reps)..reps {
        attempted += 1;
        let (t, ..) = train_once(w, &inputs, dir, tracer, rep as u64)
            .map_err(|e| fail(e, attempted, failed + 1))?;
        if t.bytes != model.bytes {
            return Err(fail(DIFFERENT_ARTIFACT.to_string(), attempted, failed));
        }
        train_s.push(t.secs);
    }

    let windows = live.update_ms.len() / live::UPDATES_PER_WINDOW;
    let note = format!(
        "# live: {} of {windows} windows ended off the initial artifact; final artifact {} a from-scratch rebuild",
        live.drifted_windows,
        if live.rebuild_identical { "equals" } else { "differs from" }
    );
    let host = host::record(
        w.name,
        options.seed,
        dir,
        &[("train_artifact", train_fp), ("live_artifact", live_fp)],
    );

    // ── End-to-end metrics.
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setup_s));
    e2e.set("train_s", median(&train_s));
    if single_reads.latency_us.is_empty() || live.update_ms.is_empty() {
        return Err(fail(
            "run: no reads or no updates measured".to_string(),
            attempted,
            failed,
        ));
    }
    e2e.set("read_qps", closed_reads.qps());
    e2e.set("read_p50_us", single_reads.p50_us());
    e2e.set("read_p99_us", single_reads.p99_us());
    e2e.set("update_p50_ms", percentile(&live.update_ms, 0.5));
    e2e.set("update_p95_ms", percentile(&live.update_ms, 0.95));
    e2e.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);

    // ── Per-layer metrics (meaningful only when traced).
    if tracer.enabled() {
        let span_median = |name: &str| median(&tracer.durations_s(name));
        let p = &mut per_layer;
        p.set(
            "synthetic-data.generate_s",
            span_median("synthetic-data.generate"),
        );
        p.set("motif-finder.grow_s", span_median("motif-finder.grow"));
        p.set(
            "motif-finder.uniqueness_s",
            span_median("motif-finder.uniqueness"),
        );
        p.set("core.label_mf_s", span_median("core.label_mf"));
        p.set("core.label_bp_s", span_median("core.label_bp"));
        p.set("core.label_cc_s", span_median("core.label_cc"));
        p.set(
            "lamo-serve.artifact_build_s",
            span_median("lamo-serve.artifact_build"),
        );
        let c = model.counts;
        p.set("motif-finder.grow_classes", c.grow_classes as f64);
        p.set("motif-finder.uniqueness_kept", c.uniqueness_kept as f64);
        p.set("core.labeled_motifs", c.labeled_motifs as f64);
        p.set("core.sv_plane_bytes", c.sv_plane_bytes as f64);
        p.set("go-ontology.st_plane_bytes", c.st_plane_bytes as f64);
        p.set("lamo-serve.artifact_bytes", c.artifact_bytes as f64);
        p.set("function-prediction.postings", c.postings as f64);

        let reads = &single_reads;
        let raw: Vec<f64> = verified.iter().map(|v| v.0).collect();
        let hop: Vec<f64> = verified.iter().map(|v| v.1 - v.0).collect();
        p.set("function-prediction.predict_p50_us", percentile(&raw, 0.5));
        p.set("function-prediction.predict_p99_us", percentile(&raw, 0.99));
        let postings: Vec<f64> = reads.postings.iter().map(|&n| f64::from(n)).collect();
        p.set(
            "function-prediction.postings_per_query_p99",
            percentile(&postings, 0.99),
        );
        for (lo, hi, p50_name, count_name) in POSTING_BUCKETS {
            let bucket: Vec<f64> = reads
                .latency_us
                .iter()
                .zip(&reads.postings)
                .filter(|(_, &n)| (lo..hi).contains(&n))
                .map(|(&l, _)| f64::from(l))
                .collect();
            p.set(p50_name, median(&bucket));
            p.set(count_name, bucket.len() as f64);
        }
        p.set("lamo-serve.hop_p50_us", median(&hop));
        p.set("lamo-serve.answered", stats.answered as f64);
        p.set("lamo-serve.shed", stats.shed as f64);
        p.set("lamo-serve.open_loop_p50_us", open_reads.p50_us());
        p.set("lamo-serve.open_loop_p99_us", open_reads.p99_us());
        let late: Vec<f64> = open_reads.late_us.iter().map(|&l| f64::from(l)).collect();
        p.set("bench.generator_late_p99_us", percentile(&late, 0.99));
        p.set("lamo-serve.live_read_p50_us", live.reads.p50_us());
        p.set("lamo-serve.live_read_p99_us", live.reads.p99_us());

        let quarter = (live.publish_ms.len() / 4).max(1);
        p.set("lamo-serve.store_publish_ms", median(&live.publish_ms));
        p.set(
            "lamo-serve.store_publish_q1_ms",
            median(&live.publish_ms[..quarter.min(live.publish_ms.len())]),
        );
        p.set(
            "lamo-serve.store_publish_q4_ms",
            median(&live.publish_ms[live.publish_ms.len().saturating_sub(quarter)..]),
        );
        p.set("lamo-serve.write_artifact_ms", median(&live.write_ms));
        p.set("lamo-serve.swap_ms", median(&live.swap_ms));
        p.set("lamo-serve.store_recover_ms", median(&live.recover_ms));
        p.set("lamo-serve.store_generations", live.generations as f64);
        p.set("lamo-serve.drifted_windows", live.drifted_windows as f64);
        p.set(
            "lamo-serve.rebuild_identical",
            f64::from(u8::from(live.rebuild_identical)),
        );
        for (i, name) in [
            "lamo-serve.apply_delta_1e_ms",
            "lamo-serve.apply_delta_4e_ms",
            "lamo-serve.apply_delta_16e_ms",
            "lamo-serve.apply_delta_64e_ms",
        ]
        .into_iter()
        .enumerate()
        {
            p.set(name, median(&live.apply_ms[i]));
        }
        p.set("ppi-graph.delta_edges", live.delta_edges as f64);
        p.set("motif-finder.census_dirty_roots", live.dirty_roots as f64);
        p.set("motif-finder.census_inserted", live.inserted as f64);
        p.set("motif-finder.census_retracted", live.retracted as f64);
        p.set("core.labels_relabeled", live.relabeled as f64);
        p.set(
            "function-prediction.segments_rebuilt",
            live.segments_rebuilt as f64,
        );
        p.set(
            "par-util.serve_ticks",
            (read_ctx.ticks_spent() + live.serve_ticks) as f64,
        );
        p.set(
            "par-util.train_ticks",
            (train_ctx.ticks_spent() + live.train_ticks) as f64,
        );
    }

    Ok(Pass {
        end_to_end: e2e,
        per_layer,
        attempted,
        failed,
        host,
        note,
    })
}
