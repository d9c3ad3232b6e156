//! The live-update stream: seeded edge deltas through
//! `IncrementalTrainer::apply_delta`, each installed in the live server
//! as a new epoch, with one paced reader querying the same server
//! while they run. Each window ends with a durable checkpoint: the
//! artifact is published into the store and recovered from it.
//!
//! Deltas come in windows of eight (`WINDOW_SIZES`, in seeded order),
//! and each window then reverts its deltas in reverse order, so every
//! window must end on the generated network.
//!
//! The store's publish is timed apart from the update. Its fsync waits
//! for an ext4 journal commit on a shared virtual disk: 40-85 ms, which
//! moves by a third between runs minutes apart on the same code. Inside
//! the update it would make the update figures a reading of the disk,
//! and apply_delta (1-30 ms) would not show in them.
//!
//! A window should also end on the initial artifact, since
//! `apply_delta` promises the bytes of a from-scratch rebuild. With
//! motif sizes {3, 4} the trainer drifts from that after a few dozen
//! deltas (class frequencies first, then the dictionary and postings),
//! so the drift is counted and reported, not gated; served answers are
//! gated against the artifact of the epoch that answered them, checked
//! while the update loop still holds that epoch.

use crate::fixture::{Fixture, Inputs};
use crate::host::fnv1a64;
use crate::serve::{self, Reads, Sample};
use crate::trace::Tracer;
use function_prediction::PredictScratch;
use lamo_serve::{
    write_artifact, ArtifactStore, IncrementalTrainer, ModelArtifact, ServeConfig, Server,
};
use par_util::RunContext;
use ppi_graph::{EdgeDelta, Graph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edges per delta.
pub const DELTA_SIZES: [usize; 4] = [1, 4, 16, 64];
/// The sizes of one window's deltas. Smaller deltas are the more
/// common, and no size's share ends near the 50th or 95th percentile of
/// the updates: the 4-edge deltas hold 25-62.5% and the 64-edge ones
/// 87.5-100%. With equal shares the median would fall on the boundary
/// between the 4- and 16-edge deltas and read the slowest 4-edge one.
const WINDOW_SIZES: [usize; 8] = [1, 1, 4, 4, 4, 16, 16, 64];
/// Deltas pushed per window (each is then reverted).
const WINDOW: usize = WINDOW_SIZES.len();
/// Updates per window: the pushes and their reverts.
pub const UPDATES_PER_WINDOW: usize = 2 * WINDOW;

/// What the stream measured.
#[derive(Default)]
pub struct Live {
    /// Per update: delta handed to `apply_delta` until its epoch is
    /// installed in the server, in ms.
    pub update_ms: Vec<f64>,
    /// `apply_delta` ms per delta size, in `DELTA_SIZES` order.
    pub apply_ms: [Vec<f64>; 4],
    /// Per window: the checkpoint's store publish, in ms.
    pub publish_ms: Vec<f64>,
    /// Per update: installing the new artifact in the server, in ms.
    pub swap_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub delta_edges: u64,
    pub dirty_roots: u64,
    pub inserted: u64,
    pub retracted: u64,
    pub relabeled: u64,
    pub segments_rebuilt: u64,
    pub generations: usize,
    pub train_ticks: u64,
    pub serve_ticks: u64,
    pub reads: Reads,
    /// Raw `predict_into` µs and served µs of each verified sample.
    pub verified: Vec<(f64, f64)>,
    /// Windows that ended on the generated network but not on the
    /// initial artifact: the incremental trainer's drift from a
    /// from-scratch rebuild.
    pub drifted_windows: u64,
    /// Whether the final artifact equals a from-scratch rebuild.
    pub rebuild_identical: bool,
    pub reader_stats: Option<lamo_serve::StatsSnapshot>,
}

/// Checks the live reader's samples against the artifact of the epoch
/// that answered them. The reader has one query in flight, so its
/// samples arrive in epoch order: once a sample of epoch `e` is in,
/// no earlier epoch can be named again and its artifact is dropped.
/// Only the epochs since the last sample are held — normally the
/// current one and the one before it.
struct Verifier {
    held: VecDeque<(u64, Arc<ModelArtifact>)>,
    samples: Receiver<Sample>,
    scratch: PredictScratch,
    checked: u64,
}

impl Verifier {
    fn new(initial: Arc<ModelArtifact>, samples: Receiver<Sample>) -> Verifier {
        Verifier {
            held: VecDeque::from([(0, initial)]),
            samples,
            scratch: PredictScratch::new(),
            checked: 0,
        }
    }

    /// Hold a newly installed epoch, which must follow the last one.
    fn install(&mut self, epoch: u64, artifact: Arc<ModelArtifact>) -> Result<(), String> {
        let last = self.held.back().map_or(0, |(e, _)| *e);
        if epoch != last + 1 {
            return Err(format!(
                "live: publish installed epoch {epoch} after epoch {last}"
            ));
        }
        self.held.push_back((epoch, artifact));
        Ok(())
    }

    /// Check every sample received so far.
    fn drain(&mut self, live: &mut Live, tracer: &Tracer) -> Result<(), String> {
        while let Ok(sample) = self.samples.try_recv() {
            self.check(&sample, live, tracer)?;
        }
        Ok(())
    }

    /// Check the samples still in flight once the reader has stopped.
    fn finish(mut self, live: &mut Live, tracer: &Tracer) -> Result<(), String> {
        while let Ok(sample) = self.samples.recv() {
            self.check(&sample, live, tracer)?;
        }
        Ok(())
    }

    fn check(&mut self, sample: &Sample, live: &mut Live, tracer: &Tracer) -> Result<(), String> {
        while self.held.len() > 1 && self.held[0].0 < sample.epoch {
            self.held.pop_front();
        }
        let Some((_, artifact)) = self.held.iter().find(|(e, _)| *e == sample.epoch) else {
            return Err(format!(
                "live: a sample names epoch {}, which was never installed or came out of order",
                sample.epoch
            ));
        };
        live.verified.push(serve::verify_sample(
            sample,
            artifact,
            &mut self.scratch,
            tracer,
            self.checked,
        )?);
        self.checked += 1;
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `edges - edges/2` insertions of absent edges and `edges/2` removals
/// of present ones, drawn from `rng` against `g`.
fn make_delta(g: &Graph, edges: usize, rng: &mut SmallRng) -> EdgeDelta {
    let n = g.vertex_count() as u32;
    let present: Vec<(u32, u32)> = g.edges().map(|e| (e.0 .0, e.1 .0)).collect();
    let n_removed = edges / 2;
    let mut removed: Vec<(u32, u32)> = Vec::with_capacity(n_removed);
    while removed.len() < n_removed {
        let e = present[rng.gen_range(0..present.len())];
        if !removed.contains(&e) {
            removed.push(e);
        }
    }
    let mut added: Vec<(u32, u32)> = Vec::with_capacity(edges - n_removed);
    while added.len() < edges - n_removed {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let e = (a.min(b), a.max(b));
        if a != b && !g.has_edge(e.0.into(), e.1.into()) && !added.contains(&e) {
            added.push(e);
        }
    }
    EdgeDelta::new(&added, &removed)
}

/// The seeded size order of one window: `WINDOW_SIZES`, shuffled.
fn window_sizes(rng: &mut SmallRng) -> [usize; WINDOW] {
    let mut sizes = WINDOW_SIZES;
    for i in (1..WINDOW).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
}

/// The update stream of one run: the trainer, its store and live
/// server, and the reader's verifier. Windows run in batches
/// ([`Stream::windows`]) so that other phases can be interleaved with
/// them; [`Stream::finish`] ends the stream and runs its last checks.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    fixture: Fixture,
    trainer: IncrementalTrainer<'a>,
    store: &'a ArtifactStore,
    server: Server,
    serve_ctx: Arc<RunContext>,
    ctx: RunContext,
    order: Vec<usize>,
    rng: SmallRng,
    sink: Sender<Sample>,
    verifier: Verifier,
    initial_fp: u64,
    window: u64,
    live: Live,
}

impl<'a> Stream<'a> {
    /// Serve `trainer`'s artifact from a new server. The store starts
    /// empty and is left for the caller to remove.
    pub fn start(
        inputs: &'a Inputs,
        fixture: Fixture,
        trainer: IncrementalTrainer<'a>,
        store: &'a ArtifactStore,
        seed: u64,
    ) -> Stream<'a> {
        let initial = Arc::new(trainer.artifact().clone());
        let initial_fp = fnv1a64(&write_artifact(&initial));
        let order = crate::query_order(initial.protein_count(), seed ^ 0x5eed_0001);
        let serve_ctx = Arc::new(RunContext::metered());
        let server = Server::start(
            Arc::clone(&initial),
            ServeConfig::default(),
            Arc::clone(&serve_ctx),
        );
        let (sink, samples) = mpsc::channel();
        Stream {
            inputs,
            fixture,
            trainer,
            store,
            server,
            serve_ctx,
            ctx: RunContext::metered(),
            order,
            rng: SmallRng::seed_from_u64(seed ^ 0xde17_a000),
            sink,
            verifier: Verifier::new(initial, samples),
            initial_fp,
            window: 0,
            live: Live::default(),
        }
    }

    /// Updates done so far.
    pub fn updates(&self) -> usize {
        self.live.update_ms.len()
    }

    /// Run `n` more windows, whose reads make one round of the read
    /// figures (see `serve::Reads`). Errors name the correctness gate
    /// that failed.
    pub fn windows(&mut self, n: usize, tracer: &Tracer) -> Result<(), String> {
        let mut round = Reads::default();
        for _ in 0..n {
            // A fresh reader thread per window, so the host places each
            // reader anew; it stops before the window's checkpoint.
            let stop = AtomicBool::new(false);
            let submitted = self.live.reads.tally.submitted + round.tally.submitted;
            let first = (submitted % self.order.len() as u64) as usize;
            let (server, order, sink) = (&self.server, &self.order, &self.sink);
            let (result, reads) = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    serve::live_reader(server, order, first, &stop, sink.clone(), tracer)
                });
                let result = run_window(
                    &mut self.trainer,
                    server,
                    &self.ctx,
                    &mut self.rng,
                    &mut self.live,
                    &mut self.verifier,
                    tracer,
                    self.window,
                );
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                (result, reader.join().expect("live reader panicked"))
            });
            round.pool(reads);
            result?;
            end_window(
                &self.trainer,
                &self.inputs.data.network,
                self.store,
                &self.serve_ctx,
                self.initial_fp,
                &mut self.live,
                tracer,
                self.window,
            )?;
            self.window += 1;
        }
        self.live.reads.add_round(round);
        Ok(())
    }

    /// Stop the server and check what is left: the reader's last
    /// samples and the client and server tallies. Then one from-scratch
    /// rebuild on the final network, outside the timed stream, reported
    /// and not gated: the streamed artifact drifts from it (see
    /// `Live::drifted_windows`).
    pub fn finish(self, tracer: &Tracer) -> Result<Live, String> {
        let Stream {
            inputs,
            fixture,
            trainer,
            store,
            server,
            serve_ctx,
            ctx,
            sink,
            verifier,
            mut live,
            ..
        } = self;
        drop(sink);
        verifier.finish(&mut live, tracer)?;
        live.reader_stats = Some(server.stats());
        server.shutdown();
        live.train_ticks = ctx.ticks_spent();
        live.serve_ticks = serve_ctx.ticks_spent();
        live.generations = store
            .generations()
            .map_err(|e| format!("live: store listing failed: {e}"))?
            .len();
        if let Some(stats) = live.reader_stats {
            serve::check_tallies(live.reads.tally, stats)?;
        }
        let rebuilt = inputs
            .incremental_trainer(trainer.graph(), fixture, &RunContext::unbounded())
            .map_err(|e| format!("live: rebuild: {e}"))?;
        live.rebuild_identical =
            write_artifact(rebuilt.artifact()) == write_artifact(trainer.artifact());
        Ok(live)
    }
}

/// Window end: the checkpoint, then its checks. Gates: the network is
/// back to the generated one, and the store recovers the checkpoint
/// byte for byte. Measured: whether the artifact is back to the initial
/// one.
#[allow(clippy::too_many_arguments)]
fn end_window(
    trainer: &IncrementalTrainer<'_>,
    generated: &Graph,
    store: &ArtifactStore,
    serve_ctx: &RunContext,
    initial_fp: u64,
    live: &mut Live,
    tracer: &Tracer,
    window: u64,
) -> Result<(), String> {
    if !trainer.graph().edges().eq(generated.edges()) {
        return Err(format!(
            "live: window {window} did not restore the generated network"
        ));
    }
    {
        let _s = tracer.span("lamo-serve.store_publish", 0, window);
        let t = Instant::now();
        store
            .publish(trainer.artifact(), serve_ctx)
            .map_err(|e| format!("live: store publish failed: {e}"))?;
        live.publish_ms.push(ms(t.elapsed()));
    }
    let bytes = {
        let _s = tracer.span("lamo-serve.write_artifact", 0, window);
        let t = Instant::now();
        let bytes = write_artifact(trainer.artifact());
        live.write_ms.push(ms(t.elapsed()));
        bytes
    };
    if fnv1a64(&bytes) != initial_fp {
        live.drifted_windows += 1;
    }
    let recovered = {
        let _s = tracer.span("lamo-serve.store_recover", 0, window);
        let t = Instant::now();
        let r = store.recover();
        live.recover_ms.push(ms(t.elapsed()));
        r
    };
    match recovered {
        Ok(r) if write_artifact(&r.artifact) == bytes => Ok(()),
        _ => Err(format!(
            "live: store did not recover window {window}'s artifact"
        )),
    }
}

/// Push one window of deltas, then revert them in reverse order.
#[allow(clippy::too_many_arguments)]
fn run_window(
    trainer: &mut IncrementalTrainer<'_>,
    server: &Server,
    ctx: &RunContext,
    rng: &mut SmallRng,
    live: &mut Live,
    verifier: &mut Verifier,
    tracer: &Tracer,
    window: u64,
) -> Result<(), String> {
    let mut pushed: Vec<(usize, EdgeDelta)> = Vec::with_capacity(WINDOW);
    for size in window_sizes(rng) {
        let delta = {
            let _s = tracer.span("ppi-graph.make_delta", 0, window);
            make_delta(trainer.graph(), size, rng)
        };
        update(trainer, &delta, size, server, ctx, live, verifier, tracer)?;
        pushed.push((size, delta));
    }
    for (size, delta) in pushed.into_iter().rev() {
        let inverse = EdgeDelta {
            added: delta.removed,
            removed: delta.added,
        };
        update(trainer, &inverse, size, server, ctx, live, verifier, tracer)?;
    }
    Ok(())
}

/// One update: `apply_delta`, then the new artifact installed in the
/// server as the next epoch. Then the reader's samples so far are
/// checked, outside the timed update.
#[allow(clippy::too_many_arguments)]
fn update(
    trainer: &mut IncrementalTrainer<'_>,
    delta: &EdgeDelta,
    size: usize,
    server: &Server,
    ctx: &RunContext,
    live: &mut Live,
    verifier: &mut Verifier,
    tracer: &Tracer,
) -> Result<(), String> {
    let request = live.update_ms.len() as u64;
    let t0 = Instant::now();
    let root = tracer.span("bench.update", 0, request);
    let report = {
        let _s = tracer.span("lamo-serve.apply_delta", root.id(), request);
        trainer.apply_delta(delta, ctx)
    };
    let t_applied = Instant::now();
    let report = report.map_err(|e| format!("live: apply_delta failed: {e:?}"))?;
    let (artifact, epoch) = {
        let _s = tracer.span("lamo-serve.swap", root.id(), request);
        let artifact = Arc::new(trainer.artifact().clone());
        let epoch = server
            .swap_artifact(Arc::clone(&artifact))
            .map_err(|e| format!("live: swap refused: {e}"))?;
        (artifact, epoch)
    };
    drop(root);
    let done = Instant::now();
    live.update_ms.push(ms(done - t0));
    live.swap_ms.push(ms(done - t_applied));
    verifier.install(epoch, artifact)?;
    verifier.drain(live, tracer)?;
    let slot = DELTA_SIZES
        .iter()
        .position(|&s| s == size)
        .expect("sizes come from DELTA_SIZES");
    live.apply_ms[slot].push(ms(t_applied - t0));
    live.delta_edges += (delta.added.len() + delta.removed.len()) as u64;
    for c in &report.census {
        live.dirty_roots += c.dirty_roots as u64;
        live.inserted += c.inserted as u64;
        live.retracted += c.retracted as u64;
    }
    live.relabeled += report.labels.relabeled as u64;
    live.segments_rebuilt += report.index.segments_rebuilt as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_the_window_sizes() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sizes = window_sizes(&mut rng);
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 1, 4, 4, 4, 16, 16, 64]);
    }
}
