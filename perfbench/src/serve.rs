//! Read traffic against a live [`Server`]: an open loop at a fixed
//! rate, a closed loop with one client per core beside the server's
//! worker, one client with one query in flight, and the paced reader
//! that runs beside the update stream.
//!
//! Every `SAMPLE_STRIDE`-th answer is kept as a digest for the
//! correctness gate (bitwise equality with `predict_into`) and, when
//! tracing, recorded as a span.

use crate::host::fnv1a64;
use crate::stats;
use crate::trace::Tracer;
use function_prediction::PredictScratch;
use lamo_serve::{ModelArtifact, PendingQuery, Prediction, ServeError, Server, StatsSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Every n-th query is sampled for the correctness gate and the trace.
pub const SAMPLE_STRIDE: u64 = 16;
/// Queries each capacity client keeps in flight.
const CLOSED_DEPTH: usize = 16;
/// The reader beside the update stream sleeps this long after each
/// answer. Unpaced it would keep a vCPU busy beside the update thread
/// and the server worker, three threads on two vCPUs: its p99 then read
/// 2 or 6 µs by where the host placed the threads, and its load moved
/// the update figures. Every wake-up of the reader or the worker can
/// preempt the update thread, so it reads at about 1k queries/s.
const LIVE_THINK: Duration = Duration::from_millis(1);

/// Client-side tallies of one loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub submitted: u64,
    pub answered: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.submitted += other.submitted;
        self.answered += other.answered;
        self.failed += other.failed;
    }

    fn count(&mut self, response: &Result<Prediction, ServeError>) {
        self.submitted += 1;
        match response {
            Ok(_) => self.answered += 1,
            Err(_) => self.failed += 1,
        }
    }
}

/// One sampled answer, reduced to what the gate compares.
pub struct Sample {
    pub protein: usize,
    pub epoch: u64,
    pub postings: usize,
    /// fnv1a64 over the ranked `(category, score bits)` list.
    pub digest: u64,
    /// Served latency from submission, µs.
    pub served_us: f32,
}

fn digest(ranked: &[(u32, f64)]) -> u64 {
    let bytes: Vec<u8> = ranked
        .iter()
        .flat_map(|(c, s)| c.to_le_bytes().into_iter().chain(s.to_bits().to_le_bytes()))
        .collect();
    fnv1a64(&bytes)
}

/// One round of a read loop, pooled over that round's answers.
#[derive(Clone, Copy, Debug)]
struct Round {
    p50_us: f64,
    p99_us: f64,
    qps: f64,
}

/// What a read loop measured, over one round or several.
///
/// The read figures a run reports are medians over its rounds of each
/// round's pooled figure. Rounds are fixed by the workload, not picked
/// by value: every round carries the same traffic (and, beside the
/// update stream, the same mix of updates), so anything the program
/// does shows in every round, while a stretch in which the shared host
/// stalls its vCPUs spoils only the round it falls in.
#[derive(Default)]
pub struct Reads {
    pub tally: Tally,
    /// Latency of answered queries in µs, in answer order (open loop:
    /// from its due time; closed loop: from submission): every answer
    /// of a loop, every `SAMPLE_STRIDE`-th once pooled into rounds.
    pub latency_us: Vec<f32>,
    /// Postings each answered query consumed, aligned with `latency_us`.
    pub postings: Vec<u32>,
    /// How late the open-loop generator submitted, in µs.
    pub late_us: Vec<f32>,
    /// Sampled answers, unless the loop streams them to a verifier.
    pub samples: Vec<Sample>,
    /// Wall seconds the loop ran, from its start to its last answer.
    pub secs: f64,
    rounds: Vec<Round>,
    sink: Option<Sender<Sample>>,
}

impl Reads {
    /// Median over rounds of the answers per second.
    pub fn qps(&self) -> f64 {
        self.round_median(|r| r.qps)
    }

    /// Median over rounds of the latency p50, in µs.
    pub fn p50_us(&self) -> f64 {
        self.round_median(|r| r.p50_us)
    }

    /// Median over rounds of the latency p99, in µs.
    pub fn p99_us(&self) -> f64 {
        self.round_median(|r| r.p99_us)
    }

    fn round_median(&self, figure: impl Fn(&Round) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(figure).collect();
        stats::median(&values)
    }

    /// Append one loop's answers as a round of their own. The round's
    /// figures use every answer; past them only every
    /// `SAMPLE_STRIDE`-th answer's latency and postings are kept, so the
    /// memory the benchmark holds does not grow with the server's speed.
    pub fn add_round(&mut self, mut round: Reads) {
        let latency: Vec<f64> = round.latency_us.iter().map(|&l| f64::from(l)).collect();
        self.rounds.push(Round {
            p50_us: stats::percentile(&latency, 0.5),
            p99_us: stats::percentile(&latency, 0.99),
            qps: if round.secs > 0.0 {
                latency.len() as f64 / round.secs
            } else {
                0.0
            },
        });
        let stride = SAMPLE_STRIDE as usize;
        round.latency_us = round.latency_us.into_iter().step_by(stride).collect();
        round.postings = round.postings.into_iter().step_by(stride).collect();
        self.pool(round);
    }

    /// Pool `other`'s answers with this one's. Wall times add up: the
    /// loops ran one after the other.
    pub fn pool(&mut self, other: Reads) {
        self.tally.add(other.tally);
        self.latency_us.extend(other.latency_us);
        self.postings.extend(other.postings);
        self.late_us.extend(other.late_us);
        self.samples.extend(other.samples);
        self.secs += other.secs;
    }

    fn answered(&mut self, index: u64, p: &Prediction, latency: Duration, served: Duration) {
        self.latency_us.push(us(latency));
        self.postings
            .push(u32::try_from(p.postings).unwrap_or(u32::MAX));
        if index.is_multiple_of(SAMPLE_STRIDE) {
            let sample = Sample {
                protein: p.protein,
                epoch: p.epoch,
                postings: p.postings,
                digest: digest(&p.ranked),
                served_us: us(served),
            };
            match &self.sink {
                // The verifier outlives the reader; a closed channel only
                // means the run is already failing.
                Some(tx) => drop(tx.send(sample)),
                None => self.samples.push(sample),
            }
        }
    }
}

fn us(d: Duration) -> f32 {
    (d.as_secs_f64() * 1e6) as f32
}

/// Open loop: submit `order[i % len]` at `start + i / rate` until
/// `secs` have passed, whatever the server's progress, timing each
/// answer from its due time. One client thread both submits and
/// collects: it spins between due times and polls the oldest pending
/// answer, so it needs a core of its own. Answers are collected in
/// submission order, which is the order a single server worker
/// completes them in.
pub fn open_loop(server: &Server, order: &[usize], rate: f64, secs: f64, tracer: &Tracer) -> Reads {
    let start = Instant::now();
    let total = (secs * rate) as u64;
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let mut reads = Reads::default();
    let mut pending: VecDeque<(u64, Instant, Instant, PendingQuery)> = VecDeque::new();
    let mut next = 0u64;
    while next < total || !pending.is_empty() {
        let now = Instant::now();
        if next < total && now >= due(next) {
            let due_at = due(next);
            reads.late_us.push(us(now - due_at));
            match server.submit(order[(next % order.len() as u64) as usize]) {
                Ok(query) => pending.push_back((next, due_at, now, query)),
                Err(e) => reads.tally.count(&Err(e)),
            }
            next += 1;
            continue;
        }
        let answer = pending.front().and_then(|(.., query)| query.try_wait());
        match answer {
            Some(response) => {
                let done = Instant::now();
                let (i, due_at, submitted, _) = pending.pop_front().expect("front exists");
                reads.tally.count(&response);
                if let Ok(p) = response {
                    if i.is_multiple_of(SAMPLE_STRIDE) {
                        tracer.record("lamo-serve.query", 0, i, submitted, done);
                    }
                    reads.answered(i, &p, done - due_at, done - submitted);
                }
            }
            None => std::hint::spin_loop(),
        }
    }
    reads.secs = start.elapsed().as_secs_f64();
    reads
}

/// Closed loop for capacity: `clients` threads each keep `CLOSED_DEPTH`
/// queries in flight — the next is sent only when the oldest is
/// answered — until `secs` have passed. With requests always queued the
/// worker drains batches instead of waking per request, so throughput
/// measures the server, not thread wake-ups on the host.
pub fn closed_loop(
    server: &Server,
    order: &[usize],
    clients: usize,
    secs: f64,
    tracer: &Tracer,
) -> Reads {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut all = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    reader(
                        server,
                        order,
                        (c, clients),
                        CLOSED_DEPTH,
                        deadline,
                        stop,
                        None,
                        Wait::Block,
                        tracer,
                    )
                })
            })
            .collect();
        let mut all = Reads::default();
        for h in handles {
            all.pool(h.join().expect("closed-loop client panicked"));
        }
        all
    });
    // The clients ran side by side: the loop took the wall time of all.
    all.secs = start.elapsed().as_secs_f64();
    all
}

/// How a reader waits for its answers.
#[derive(Clone, Copy)]
enum Wait {
    /// Block on the answer.
    Block,
    /// Spin on the answer, so the client's own wake-up is not timed.
    Poll,
    /// Block on the answer, then sleep this long before the next query.
    Paced(Duration),
}

/// One closed-loop client `(index, of)` with `depth` queries in flight:
/// queries `order[index], order[index + of], ...` (wrapping) until
/// `deadline` or until `stop` is set, then collects what is in flight.
/// Latency is timed from each query's submission. Samples go to `sink`
/// when there is one.
#[allow(clippy::too_many_arguments)]
fn reader(
    server: &Server,
    order: &[usize],
    (client, clients): (usize, usize),
    depth: usize,
    deadline: Instant,
    stop: &AtomicBool,
    sink: Option<Sender<Sample>>,
    wait: Wait,
    tracer: &Tracer,
) -> Reads {
    let start = Instant::now();
    let mut reads = Reads {
        sink,
        ..Reads::default()
    };
    let mut pending: VecDeque<(u64, Instant, PendingQuery)> = VecDeque::with_capacity(depth);
    let mut next = 0u64;
    loop {
        let now = Instant::now();
        if pending.len() < depth && now < deadline && !stop.load(Ordering::Relaxed) {
            let index = next * clients as u64 + client as u64;
            next += 1;
            match server.submit(order[(index % order.len() as u64) as usize]) {
                Ok(query) => pending.push_back((index, now, query)),
                Err(e) => reads.tally.count(&Err(e)),
            }
            continue;
        }
        let Some((index, sent, query)) = pending.pop_front() else {
            break;
        };
        let response = match wait {
            Wait::Poll => loop {
                match query.try_wait() {
                    Some(r) => break r,
                    None => std::hint::spin_loop(),
                }
            },
            Wait::Block | Wait::Paced(_) => query.wait(),
        };
        let done = Instant::now();
        reads.tally.count(&response);
        if let Ok(p) = response {
            if index.is_multiple_of(SAMPLE_STRIDE) {
                tracer.record("lamo-serve.query", 0, index, sent, done);
            }
            reads.answered(index, &p, done - sent, done - sent);
        }
        if let Wait::Paced(think) = wait {
            std::thread::sleep(think);
        }
    }
    reads.secs = start.elapsed().as_secs_f64();
    reads.sink = None;
    reads
}

/// Latency loop: one client with one query in flight for `secs`, so a
/// host stall delays one query rather than every query due during it.
/// It blocks on each answer or spins on it.
pub fn single_client(
    server: &Server,
    order: &[usize],
    secs: f64,
    blocks: bool,
    tracer: &Tracer,
) -> Reads {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let stop = AtomicBool::new(false);
    reader(
        server,
        order,
        (0, 1),
        1,
        deadline,
        &stop,
        None,
        if blocks { Wait::Block } else { Wait::Poll },
        tracer,
    )
}

/// The reader beside the update stream: one client, one query in
/// flight and `LIVE_THINK` between queries, from `order[first]` on until
/// `stop` is set. Its samples go to `sink` as they are answered, so the
/// update loop can check each against its epoch's artifact while that
/// epoch is still held.
pub fn live_reader(
    server: &Server,
    order: &[usize],
    first: usize,
    stop: &AtomicBool,
    sink: Sender<Sample>,
    tracer: &Tracer,
) -> Reads {
    let far = Instant::now() + Duration::from_secs(24 * 3600);
    // As client `first` of one, it queries order[first], order[first + 1], ...
    reader(
        server,
        order,
        (first, 1),
        1,
        far,
        stop,
        Some(sink),
        Wait::Paced(LIVE_THINK),
        tracer,
    )
}

/// Correctness gate for one sample: it must equal `predict_into` on
/// `artifact` — same postings, same ranking, same score bits. Returns
/// the raw `predict_into` latency and the served latency, in µs.
pub fn verify_sample(
    sample: &Sample,
    artifact: &ModelArtifact,
    scratch: &mut PredictScratch,
    tracer: &Tracer,
    request: u64,
) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let (ranked, postings) = artifact.predict_into(sample.protein, scratch);
    let done = Instant::now();
    tracer.record("function-prediction.predict_into", 0, request, t0, done);
    if postings != sample.postings || digest(ranked) != sample.digest {
        return Err(format!(
            "read: served prediction for protein {} (epoch {}) differs from predict_into",
            sample.protein, sample.epoch
        ));
    }
    Ok((f64::from(us(done - t0)), f64::from(sample.served_us)))
}

/// [`verify_sample`] over samples all answered from `artifact`.
pub fn verify_samples(
    samples: &[Sample],
    artifact: &ModelArtifact,
    tracer: &Tracer,
) -> Result<Vec<(f64, f64)>, String> {
    let mut scratch = PredictScratch::new();
    samples
        .iter()
        .enumerate()
        .map(|(n, s)| verify_sample(s, artifact, &mut scratch, tracer, n as u64))
        .collect()
}

/// Correctness gate: the clients' tallies must add up, and must match
/// the server's own counters once every accepted request is answered.
pub fn check_tallies(tally: Tally, stats: StatsSnapshot) -> Result<(), String> {
    let server_failed = stats.shed + stats.panicked + stats.deadline_expired;
    if tally.answered + tally.failed != tally.submitted
        || tally.answered != stats.answered
        || tally.failed != server_failed
        || stats.accepted != stats.answered + stats.panicked + stats.deadline_expired
    {
        return Err(format!(
            "read: tallies disagree: client {tally:?}, server {stats:?}"
        ));
    }
    Ok(())
}
