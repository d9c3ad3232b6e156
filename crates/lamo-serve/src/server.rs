//! Multi-worker query front end over a hot-swappable [`ModelArtifact`].
//!
//! Installing an artifact ([`Server::start`], [`Server::swap_artifact`])
//! compiles its answer table on the installing thread: the ranked
//! Eq. 5 row of every protein with postings, each computed by
//! [`ModelArtifact::predict_into`] and so bitwise the postings merge's
//! answer, plus one shared all-zero row for every posting-free protein.
//! N worker threads drain a [`BatchQueue`] of requests and answer each
//! by copying its row, so the read path allocates only the response
//! vectors it hands back and never walks postings. Everything the
//! workers *read* — the artifact and its table, installed together as
//! one value — sits behind an
//! epoch-counted `Arc` snapshot with no locks held across prediction
//! (lamolint's `serve-read-lock` rule checks the crate); the only
//! synchronization is the request queue, the per-request
//! [`ResponseSlot`]s, and the [`EpochCell`], all in `par_util::batch`.
//!
//! Robustness (DESIGN.md §16 "Serving fault model"):
//!
//! * **Bounded admission.** The queue carries
//!   [`ServeConfig::queue_depth`]; a full queue sheds with
//!   [`ServeError::Overloaded`] under [`AdmissionPolicy::Shed`] or
//!   parks the submitting thread under [`AdmissionPolicy::Block`].
//!   Shedding is O(1): a refused request touches no postings and
//!   charges no ticks. [`ServerStats`] counts both outcomes.
//! * **Deadlines.** [`Server::submit_with_deadline`] stamps a request
//!   with an absolute tick deadline (admission tick + budget); expiry
//!   is checked only at dequeue, so answered work is always complete —
//!   a prediction is never torn down mid-flight.
//! * **Hot swap.** [`Server::swap_artifact`] validates a new artifact,
//!   compiles its answer table on the caller's thread (charging no
//!   ticks) and installs the pair in the [`EpochCell`]. Workers
//!   snapshot `(epoch, model)` once per request; in-flight queries
//!   finish entirely on the epoch they loaded and every [`Prediction`]
//!   records which epoch answered it.
//! * **Panic containment.** All per-request work — including every
//!   `faultpoint!` site — runs inside one `catch_unwind`; the client
//!   gets [`ServeError::WorkerPanicked`], the worker and its siblings
//!   keep serving. [`Server::shutdown`] drains accepted work;
//!   [`Server::shutdown_now`] fails what is still queued with
//!   [`ServeError::Closed`]. Either way every submitted request
//!   resolves to exactly one typed response.
//!
//! Determinism: batching is FIFO arrival order, at most 32 requests
//! per dequeue — no timers, no wall clock anywhere in the query path;
//! load is metered in [`RunContext`] work ticks (one per posting of the
//! answered protein — what the merge behind its row consumed), charged
//! *after* a response is delivered so a budget trip fails the next
//! query, never one already served.

use crate::artifact::ModelArtifact;
use function_prediction::{rank_scores, PredictScratch};
use par_util::faultpoint;
use par_util::{BatchQueue, EpochCell, PushOutcome, ResponseSlot, RunContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What `submit` does when the queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse immediately with [`ServeError::Overloaded`] — the caller
    /// sees back-pressure as a typed error in O(1).
    Shed,
    /// Park the submitting thread until a worker drains space (or the
    /// server closes). Bounded wait: the queue never exceeds its depth.
    Block,
}

/// Max requests a worker takes per queue drain.
const MAX_BATCH: usize = 32;

/// Server shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads (0 ⇒ one per available core).
    pub workers: usize,
    /// Max requests queued awaiting a worker (0 ⇒ unbounded, for
    /// trusted embedded callers only — production fronts should bound).
    pub queue_depth: usize,
    /// What to do with a submit that finds the queue full.
    pub admission: AdmissionPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_depth: 1024,
            admission: AdmissionPolicy::Shed,
        }
    }
}

/// Why a query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Protein id outside the artifact's training network.
    UnknownProtein { protein: usize, protein_count: usize },
    /// The server is shutting down and no longer accepts work (or
    /// [`Server::shutdown_now`] discarded this already-queued request).
    Closed,
    /// The run was cancelled (tick budget spent or token tripped)
    /// before this query was answered.
    Cancelled,
    /// The query panicked inside a worker (or the admission path
    /// panicked before the request was queued); the server survived.
    WorkerPanicked,
    /// The queue was full under [`AdmissionPolicy::Shed`]; `depth` is
    /// the configured capacity. The request consumed no postings.
    Overloaded { depth: usize },
    /// The request's tick deadline passed while it waited in the
    /// queue. Checked at dequeue only — never mid-prediction.
    DeadlineExpired,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownProtein {
                protein,
                protein_count,
            } => write!(
                f,
                "protein {protein} outside the artifact's network (0..{protein_count})"
            ),
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::Cancelled => write!(f, "run cancelled before the query was answered"),
            ServeError::WorkerPanicked => write!(f, "query panicked in a worker"),
            ServeError::Overloaded { depth } => {
                write!(f, "queue full at depth {depth}; request shed")
            }
            ServeError::DeadlineExpired => {
                write!(f, "tick deadline expired while the request was queued")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One answered query.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// The protein asked about.
    pub protein: usize,
    /// Categories ranked by Eq. 5 score (descending, index ascending on
    /// ties) — bitwise identical to the full-scan oracle's ranking.
    pub ranked: Vec<(u32, f64)>,
    /// Postings of the protein — what the Eq. 5 merge behind its
    /// answer consumed (= work ticks charged).
    pub postings: usize,
    /// Artifact epoch that answered: 0 for the artifact the server
    /// started with, bumped by each [`Server::swap_artifact`]. Every
    /// prediction is computed entirely against one epoch's artifact.
    pub epoch: u64,
}

type Response = Result<Prediction, ServeError>;

struct Request {
    protein: usize,
    /// Absolute tick deadline (admission tick + budget), if any.
    deadline: Option<u64>,
    slot: Arc<ResponseSlot<Response>>,
}

/// Handle to an in-flight query submitted with [`Server::submit`].
pub struct PendingQuery {
    slot: Arc<ResponseSlot<Response>>,
}

impl PendingQuery {
    /// Block until the answer arrives.
    pub fn wait(self) -> Response {
        self.slot.wait()
    }

    /// Take the answer if it already arrived (non-blocking).
    pub fn try_wait(&self) -> Option<Response> {
        self.slot.try_take()
    }

    /// Stop waiting for this query. The worker's eventual delivery is
    /// refused and dropped by the slot, so an abandoning client leaks
    /// nothing and can never be blocked by its own query again.
    pub fn abandon(self) {
        self.slot.abandon();
    }
}

/// Saturation counters, updated with plain atomics (the serving read
/// path stays lock-free; `serve-read-lock` enforces it).
#[derive(Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    shed: AtomicU64,
    answered: AtomicU64,
    panicked: AtomicU64,
    deadline_expired: AtomicU64,
    swaps: AtomicU64,
}

/// One coherent-enough read of the counters (each counter is read
/// atomically; the set is a snapshot in the monitoring sense).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests that made it into the queue.
    pub accepted: u64,
    /// Requests refused with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Requests answered with a prediction.
    pub answered: u64,
    /// Requests answered [`ServeError::WorkerPanicked`].
    pub panicked: u64,
    /// Requests answered [`ServeError::DeadlineExpired`].
    pub deadline_expired: u64,
    /// Successful [`Server::swap_artifact`] calls.
    pub swaps: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
        }
    }
}

/// Every protein's ranked Eq. 5 answer, compiled from one artifact
/// when it is installed. Proteins with postings own a row each; every
/// posting-free protein shares row 0, `rank_scores` of all zeros, which
/// is what `predict_into` returns for them.
struct AnswerTable {
    /// Entries per row: the artifact's category count.
    width: usize,
    /// Row index of each protein.
    row_of: Vec<u32>,
    /// The rows, `width` entries each, back to back.
    rows: Vec<(u32, f64)>,
}

impl AnswerTable {
    /// Compile every row with [`ModelArtifact::predict_into`], so each
    /// row is bitwise the postings merge's answer. Charges no ticks.
    fn compile(artifact: &ModelArtifact) -> AnswerTable {
        let index = &artifact.index;
        let width = index.n_categories as usize;
        let protein_count = index.protein_count();
        let with_postings = (0..protein_count)
            .filter(|&p| !index.postings_of(p).is_empty())
            .count();
        let mut rows = Vec::with_capacity((1 + with_postings) * width);
        rank_scores(&vec![0.0; width], &mut rows);
        let mut row_of = vec![0u32; protein_count];
        let mut next_row = 1u32;
        let mut scratch = PredictScratch::new();
        for (p, row) in row_of.iter_mut().enumerate() {
            if index.postings_of(p).is_empty() {
                continue;
            }
            *row = next_row;
            next_row += 1;
            rows.extend_from_slice(artifact.predict_into(p, &mut scratch).0);
        }
        AnswerTable {
            width,
            row_of,
            rows,
        }
    }

    /// Protein `p`'s ranked `(category, score)` row.
    fn row(&self, p: usize) -> &[(u32, f64)] {
        let start = self.row_of[p] as usize * self.width;
        &self.rows[start..start + self.width]
    }
}

/// What one epoch serves: an artifact and the answers compiled from it,
/// installed together so an epoch is always one model.
struct Installed {
    artifact: Arc<ModelArtifact>,
    answers: AnswerTable,
}

impl Installed {
    fn compile(artifact: Arc<ModelArtifact>) -> Arc<Installed> {
        let answers = AnswerTable::compile(&artifact);
        Arc::new(Installed { artifact, answers })
    }
}

/// The serving front end. Workers run until [`Server::shutdown`] or
/// drop.
pub struct Server {
    queue: Arc<BatchQueue<Request>>,
    ctx: Arc<RunContext>,
    cell: Arc<EpochCell<Installed>>,
    stats: Arc<ServerStats>,
    /// Set by [`Server::shutdown_now`]: workers fail still-queued
    /// requests with [`ServeError::Closed`] instead of serving them.
    closing: Arc<AtomicBool>,
    admission: AdmissionPolicy,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Compile the artifact's answer table on the calling thread, then
    /// spawn the worker pool. The context meters served work: one tick
    /// per posting of each answered protein, so
    /// `RunContext::with_tick_budget` bounds total service
    /// deterministically and `ctx.cancel()` (or the realtime `Deadline`
    /// adapter at the CLI boundary) stops the pool gracefully. The
    /// compile charges no ticks.
    ///
    /// The artifact is trusted as given: [`ModelArtifact::build`] and
    /// [`crate::read_artifact`] only yield valid ones.
    pub fn start(artifact: Arc<ModelArtifact>, config: ServeConfig, ctx: Arc<RunContext>) -> Server {
        let worker_count = par_util::resolve_threads(config.workers);
        let queue: Arc<BatchQueue<Request>> = if config.queue_depth == 0 {
            Arc::new(BatchQueue::new())
        } else {
            Arc::new(BatchQueue::bounded(config.queue_depth))
        };
        let cell = Arc::new(EpochCell::new(Installed::compile(artifact)));
        let stats = Arc::new(ServerStats::default());
        let closing = Arc::new(AtomicBool::new(false));
        let workers = (0..worker_count)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let cell = Arc::clone(&cell);
                let ctx = Arc::clone(&ctx);
                let stats = Arc::clone(&stats);
                let closing = Arc::clone(&closing);
                std::thread::spawn(move || worker_loop(&queue, &cell, &ctx, &stats, &closing))
            })
            .collect();
        Server {
            queue,
            ctx,
            cell,
            stats,
            closing,
            admission: config.admission,
            workers,
        }
    }

    /// The artifact currently being served (the newest epoch's).
    pub fn artifact(&self) -> Arc<ModelArtifact> {
        Arc::clone(&self.cell.load().1.artifact)
    }

    /// The current artifact epoch (0 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// A snapshot of the saturation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Install `artifact` as the new current model and return its
    /// epoch. The swap happens between batches from the workers' point
    /// of view: queries that already snapshotted the old epoch finish
    /// on it (their [`Prediction::epoch`] says so), queries dequeued
    /// from now on see the new one. Readers never block — the cell is
    /// held only long enough to clone an `Arc`.
    ///
    /// The artifact is validated first; a structurally invalid one is
    /// refused and the current epoch keeps serving. A valid one has its
    /// answer table compiled here, on the calling thread, charging no
    /// ticks; workers keep answering from the old epoch meanwhile. An
    /// injected `serve.swap` fault fires *before* the install, so a
    /// mid-swap crash leaves the old epoch intact.
    pub fn swap_artifact(&self, artifact: Arc<ModelArtifact>) -> Result<u64, &'static str> {
        artifact.validate()?;
        let installed = Installed::compile(artifact);
        faultpoint!(self.ctx, "serve.swap");
        let epoch = self.cell.swap(installed);
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(epoch)
    }

    /// Enqueue a query; errors that need no worker (bounds, shutdown,
    /// cancellation, overload) are returned immediately. Blocks only
    /// under [`AdmissionPolicy::Block`] with a full queue.
    pub fn submit(&self, protein: usize) -> Result<PendingQuery, ServeError> {
        self.admit(protein, None)
    }

    /// [`submit`](Server::submit), stamping the request with a tick
    /// budget: if more than `budget_ticks` work ticks are charged
    /// between admission and dequeue, the request fails with
    /// [`ServeError::DeadlineExpired`] instead of being served. A
    /// budget of 0 means "serve only if no work lands ahead of me".
    ///
    /// Deadlines are measured on the server's [`RunContext`] tick
    /// counter, so they only bite under a metered context
    /// ([`RunContext::metered`] or `with_tick_budget`); under a passive
    /// one the counter never moves and every deadline is trivially met.
    pub fn submit_with_deadline(
        &self,
        protein: usize,
        budget_ticks: u64,
    ) -> Result<PendingQuery, ServeError> {
        self.admit(protein, Some(budget_ticks))
    }

    fn admit(&self, protein: usize, budget: Option<u64>) -> Result<PendingQuery, ServeError> {
        let protein_count = self.cell.load().1.artifact.protein_count();
        if protein >= protein_count {
            return Err(ServeError::UnknownProtein {
                protein,
                protein_count,
            });
        }
        if self.ctx.should_stop() {
            return Err(ServeError::Cancelled);
        }
        // The admission faultpoint runs guarded on the submitting
        // thread: an injected panic here becomes a typed refusal, so
        // even a faulted submit yields exactly one answer.
        let ctx = &self.ctx;
        if catch_unwind(AssertUnwindSafe(|| {
            faultpoint!(ctx, "serve.admission");
        }))
        .is_err()
        {
            return Err(ServeError::WorkerPanicked);
        }
        let deadline = budget.map(|b| self.ctx.ticks_spent().saturating_add(b));
        let slot = Arc::new(ResponseSlot::new());
        let request = Request {
            protein,
            deadline,
            slot: Arc::clone(&slot),
        };
        let outcome = match (self.queue.capacity(), self.admission) {
            (Some(_), AdmissionPolicy::Block) => self.queue.push_wait(request),
            _ => self.queue.push(request),
        };
        match outcome {
            PushOutcome::Queued => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(PendingQuery { slot })
            }
            PushOutcome::Full { depth } => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded { depth })
            }
            PushOutcome::Closed => Err(ServeError::Closed),
        }
    }

    /// Answer one query, blocking until a worker serves it.
    pub fn query(&self, protein: usize) -> Response {
        self.submit(protein)?.wait()
    }

    /// Submit a whole batch, then collect every answer. Results line up
    /// with `proteins` index for index; each is independent, so one bad
    /// id fails only its own slot.
    pub fn query_batch(&self, proteins: &[usize]) -> Vec<Response> {
        let pending: Vec<Result<PendingQuery, ServeError>> =
            proteins.iter().map(|&p| self.submit(p)).collect();
        pending
            .into_iter()
            .map(|handle| handle.and_then(PendingQuery::wait))
            .collect()
    }

    /// Stop accepting work, drain what was accepted, join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Stop accepting work and *discard* what is still queued: workers
    /// answer every pending slot [`ServeError::Closed`] without
    /// predicting, then exit. A query already being served finishes
    /// normally. Every accepted request still resolves exactly once.
    /// Returns the final counter values — the server is gone, so this
    /// is the only place they are complete.
    pub fn shutdown_now(mut self) -> StatsSnapshot {
        self.closing.store(true, Ordering::Relaxed);
        self.shutdown_in_place();
        self.stats.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside catch_unwind (queue logic,
            // not query logic) surfaces here instead of being lost.
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(
    queue: &BatchQueue<Request>,
    cell: &EpochCell<Installed>,
    ctx: &RunContext,
    stats: &ServerStats,
    closing: &AtomicBool,
) {
    let mut batch: Vec<Request> = Vec::new();
    while queue.pop_batch(MAX_BATCH, &mut batch) {
        for request in batch.drain(..) {
            if closing.load(Ordering::Relaxed) {
                request.slot.fulfill(Err(ServeError::Closed));
                continue;
            }
            serve_one(request, cell, ctx, stats);
        }
    }
}

/// Serve one dequeued request. *Everything* fallible — the dequeue,
/// predict, and fulfill faultpoints and the row lookup itself — runs
/// inside one `catch_unwind`, so an injected or organic panic anywhere
/// in the per-request path degrades to [`ServeError::WorkerPanicked`]
/// and the slot is still fulfilled exactly once, outside the guard.
fn serve_one(
    request: Request,
    cell: &EpochCell<Installed>,
    ctx: &RunContext,
    stats: &ServerStats,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        answer(request.protein, request.deadline, cell, ctx)
    }));
    let (response, ticks) = match outcome {
        Ok(answered) => answered,
        Err(_) => (Err(ServeError::WorkerPanicked), 0),
    };
    match &response {
        Ok(_) => stats.answered.fetch_add(1, Ordering::Relaxed),
        Err(ServeError::WorkerPanicked) => stats.panicked.fetch_add(1, Ordering::Relaxed),
        Err(ServeError::DeadlineExpired) => {
            stats.deadline_expired.fetch_add(1, Ordering::Relaxed)
        }
        Err(_) => 0,
    };
    // Deliver first, charge after: a budget trip fails the next query,
    // never one already served. A refused delivery (abandoned client)
    // still charges — the work happened.
    request.slot.fulfill(response);
    ctx.tick(ticks);
}

fn answer(
    protein: usize,
    deadline: Option<u64>,
    cell: &EpochCell<Installed>,
    ctx: &RunContext,
) -> (Response, u64) {
    faultpoint!(ctx, "serve.dequeue");
    if ctx.should_stop() {
        return (Err(ServeError::Cancelled), 0);
    }
    // Deadline is checked here, at dequeue, and nowhere later: once a
    // prediction starts it always completes.
    if let Some(deadline) = deadline {
        if ctx.ticks_spent() > deadline {
            return (Err(ServeError::DeadlineExpired), 0);
        }
    }
    let (epoch, model) = cell.load();
    // Admission checked bounds against the artifact of its moment; a
    // swap to a smaller network in between must degrade to a typed
    // refusal, not an out-of-range panic.
    let protein_count = model.artifact.protein_count();
    if protein >= protein_count {
        return (
            Err(ServeError::UnknownProtein {
                protein,
                protein_count,
            }),
            0,
        );
    }
    faultpoint!(ctx, "serve.predict");
    // The answer was compiled at install; the query is charged the
    // postings the merge would have consumed.
    let postings = model.artifact.index.postings_of(protein).len();
    let prediction = Prediction {
        protein,
        ranked: model.answers.row(protein).to_vec(),
        postings,
        epoch,
    };
    faultpoint!(ctx, "serve.fulfill");
    (Ok(prediction), postings as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use function_prediction::PredictionContext;
    use go_ontology::{Namespace, TermId};
    use lamofinder::{LabeledMotif, LabelingScheme, VertexLabel};
    use motif_finder::Occurrence;
    use par_util::{FaultAction, FaultPlan};
    use ppi_graph::{Graph, VertexId};

    fn artifact() -> Arc<ModelArtifact> {
        let motifs = vec![LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
            occurrences: vec![
                Occurrence::new(vec![VertexId(0), VertexId(1)]),
                Occurrence::new(vec![VertexId(2), VertexId(1)]),
                Occurrence::new(vec![VertexId(2), VertexId(3)]),
            ],
            motif_frequency: 3,
            uniqueness: Some(1.0),
        }];
        let network = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3)]);
        let functions = vec![vec![0], vec![1], vec![0], vec![1]];
        let terms = vec![TermId(10), TermId(20)];
        Arc::new(ModelArtifact::build(
            &motifs,
            &PredictionContext {
                network: &network,
                functions: &functions,
                n_categories: 2,
                category_terms: &terms,
            },
        ))
    }

    /// A second artifact over a smaller network (3 proteins), so a swap
    /// to it shrinks the valid id range.
    fn small_artifact() -> Arc<ModelArtifact> {
        let motifs = vec![LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
            occurrences: vec![
                Occurrence::new(vec![VertexId(0), VertexId(1)]),
                Occurrence::new(vec![VertexId(1), VertexId(2)]),
            ],
            motif_frequency: 2,
            uniqueness: Some(1.0),
        }];
        let network = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let functions = vec![vec![1], vec![0], vec![1]];
        let terms = vec![TermId(10), TermId(20)];
        Arc::new(ModelArtifact::build(
            &motifs,
            &PredictionContext {
                network: &network,
                functions: &functions,
                n_categories: 2,
                category_terms: &terms,
            },
        ))
    }

    /// A third artifact: protein 1 sits in every occurrence (the heavy
    /// one) and protein 4 in none (posting-free).
    fn hub_artifact() -> Arc<ModelArtifact> {
        let motifs = vec![LabeledMotif {
            pattern: Graph::from_edges(2, &[(0, 1)]),
            namespace: Namespace::BiologicalProcess,
            scheme: LabelingScheme::new(vec![VertexLabel::unknown(); 2]),
            occurrences: vec![
                Occurrence::new(vec![VertexId(0), VertexId(1)]),
                Occurrence::new(vec![VertexId(2), VertexId(1)]),
                Occurrence::new(vec![VertexId(3), VertexId(1)]),
                Occurrence::new(vec![VertexId(1), VertexId(0)]),
            ],
            motif_frequency: 4,
            uniqueness: Some(1.0),
        }];
        let network = Graph::from_edges(5, &[(0, 1), (2, 1), (3, 1)]);
        let functions = vec![vec![0, 2], vec![1], vec![2], vec![0], vec![1]];
        let terms = vec![TermId(10), TermId(20), TermId(30)];
        Arc::new(ModelArtifact::build(
            &motifs,
            &PredictionContext {
                network: &network,
                functions: &functions,
                n_categories: 3,
                category_terms: &terms,
            },
        ))
    }

    fn assert_bitwise(got: &Prediction, want: &Prediction) {
        assert_eq!(got, want);
        for (g, w) in got.ranked.iter().zip(&want.ranked) {
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "protein {}", got.protein);
        }
    }

    fn expected(artifact: &ModelArtifact, p: usize, epoch: u64) -> Prediction {
        let mut scratch = PredictScratch::new();
        let (ranked, postings) = artifact.predict_into(p, &mut scratch);
        Prediction {
            protein: p,
            ranked: ranked.to_vec(),
            postings,
            epoch,
        }
    }

    #[test]
    fn single_queries_match_direct_prediction() {
        let artifact = artifact();
        let server = Server::start(
            Arc::clone(&artifact),
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        for p in 0..artifact.protein_count() {
            assert_eq!(server.query(p), Ok(expected(&artifact, p, 0)));
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.answered, 4);
        assert_eq!(stats.shed, 0);
        server.shutdown();
    }

    #[test]
    fn batched_queries_match_and_align() {
        let artifact = artifact();
        let server = Server::start(
            Arc::clone(&artifact),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            Arc::new(RunContext::unbounded()),
        );
        let asked = [3, 0, 2, 0, 1];
        let answers = server.query_batch(&asked);
        for (&p, answer) in asked.iter().zip(&answers) {
            assert_eq!(answer, &Ok(expected(&artifact, p, 0)));
        }
    }

    #[test]
    fn unknown_protein_rejected_at_submit() {
        let artifact = artifact();
        let server = Server::start(
            artifact,
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        assert_eq!(
            server.query(99),
            Err(ServeError::UnknownProtein {
                protein: 99,
                protein_count: 4
            })
        );
    }

    #[test]
    fn cancellation_fails_fast() {
        let artifact = artifact();
        let ctx = Arc::new(RunContext::unbounded());
        let server = Server::start(artifact, ServeConfig::default(), Arc::clone(&ctx));
        ctx.cancel();
        assert_eq!(server.query(0), Err(ServeError::Cancelled));
    }

    #[test]
    fn tick_budget_bounds_served_work() {
        let artifact = artifact();
        // Protein 1 has 2 postings; a 1-tick budget serves the first
        // query and trips before the second.
        let ctx = Arc::new(RunContext::with_tick_budget(1));
        let server = Server::start(Arc::clone(&artifact), ServeConfig::default(), Arc::clone(&ctx));
        assert_eq!(server.query(1), Ok(expected(&artifact, 1, 0)));
        assert_eq!(server.query(1), Err(ServeError::Cancelled));
        assert_eq!(ctx.ticks_spent(), 2);
    }

    #[test]
    fn shutdown_then_submit_is_closed() {
        let artifact = artifact();
        let ctx = Arc::new(RunContext::unbounded());
        let server = Server::start(Arc::clone(&artifact), ServeConfig::default(), ctx);
        server.shutdown();
        let server = Server::start(artifact, ServeConfig::default(), Arc::new(RunContext::unbounded()));
        server.queue.close();
        assert_eq!(server.query(0), Err(ServeError::Closed));
    }

    #[test]
    fn full_queue_sheds_in_constant_work() {
        let artifact = artifact();
        let ctx = Arc::new(RunContext::unbounded());
        // No workers drain the queue here: we want a deterministically
        // full queue, so we build the raw parts without Server::start.
        let server = Server {
            queue: Arc::new(BatchQueue::bounded(2)),
            ctx: Arc::clone(&ctx),
            cell: Arc::new(EpochCell::new(Installed::compile(Arc::clone(&artifact)))),
            stats: Arc::new(ServerStats::default()),
            closing: Arc::new(AtomicBool::new(false)),
            admission: AdmissionPolicy::Shed,
            workers: Vec::new(),
        };
        let a = server.submit(0).expect("depth 2 admits the first");
        let b = server.submit(1).expect("and the second");
        assert_eq!(
            server.submit(2).map(|_| ()),
            Err(ServeError::Overloaded { depth: 2 })
        );
        let stats = server.stats();
        assert_eq!((stats.accepted, stats.shed), (2, 1));
        // The shed was O(1): no ticks were charged for any of it.
        assert_eq!(ctx.ticks_spent(), 0);
        // Pending queries resolve once the queue closes and a worker
        // drains — here no worker exists, so just drop the handles and
        // the queue; abandoned slots leak nothing.
        a.abandon();
        b.abandon();
        server.queue.close();
    }

    #[test]
    fn deadline_expires_at_dequeue_not_mid_flight() {
        let artifact = artifact();
        // Deadlines ride the tick counter, so the context must meter.
        let ctx = Arc::new(RunContext::metered());
        // Raw parts, no live workers: both requests must be queued
        // before any work is charged, which a racing worker can't
        // guarantee. FIFO then charges the plain query's postings
        // before the budget-0 request is dequeued, so its deadline
        // (stamped at admission) has passed by then.
        let server = Server {
            queue: Arc::new(BatchQueue::new()),
            ctx: Arc::clone(&ctx),
            cell: Arc::new(EpochCell::new(Installed::compile(Arc::clone(&artifact)))),
            stats: Arc::new(ServerStats::default()),
            closing: Arc::new(AtomicBool::new(false)),
            admission: AdmissionPolicy::Shed,
            workers: Vec::new(),
        };
        let first = server.submit(1).expect("admitted");
        let strict = server.submit_with_deadline(1, 0).expect("admitted");
        let generous = server
            .submit_with_deadline(1, u64::MAX)
            .expect("admitted");
        server.queue.close();
        worker_loop(&server.queue, &server.cell, &ctx, &server.stats, &server.closing);
        assert_eq!(first.wait(), Ok(expected(&artifact, 1, 0)));
        assert_eq!(strict.wait(), Err(ServeError::DeadlineExpired));
        // A generous budget survives the queueing delay.
        assert_eq!(generous.wait(), Ok(expected(&artifact, 1, 0)));
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.answered, 2);
    }

    #[test]
    fn swap_changes_epoch_and_bounds() {
        let big = artifact();
        let small = small_artifact();
        let server = Server::start(
            Arc::clone(&big),
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        assert_eq!(server.query(3), Ok(expected(&big, 3, 0)));
        assert_eq!(server.epoch(), 0);
        assert_eq!(server.swap_artifact(Arc::clone(&small)), Ok(1));
        assert_eq!(server.epoch(), 1);
        // Answers now come from the new epoch's artifact...
        assert_eq!(server.query(2), Ok(expected(&small, 2, 1)));
        // ...and ids beyond its smaller network are refused at submit.
        assert_eq!(
            server.query(3),
            Err(ServeError::UnknownProtein {
                protein: 3,
                protein_count: 3
            })
        );
        assert_eq!(server.stats().swaps, 1);
    }

    #[test]
    fn swapped_in_answers_equal_the_new_artifacts_merge() {
        let hub = hub_artifact();
        assert_eq!(hub.index.postings_of(4).len(), 0);
        assert_eq!(hub.index.postings_of(1).len(), 4);
        let server = Server::start(
            artifact(),
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        assert_eq!(server.swap_artifact(Arc::clone(&hub)), Ok(1));
        for p in [4, 1] {
            let got = server.query(p).expect("in range");
            assert_bitwise(&got, &expected(&hub, p, 1));
        }
        server.shutdown();
    }

    #[test]
    fn ticks_are_answered_postings_and_compiles_charge_none() {
        let ctx = Arc::new(RunContext::metered());
        let server = Server::start(artifact(), ServeConfig::default(), Arc::clone(&ctx));
        assert_eq!(ctx.ticks_spent(), 0);
        let hub = hub_artifact();
        assert_eq!(server.swap_artifact(Arc::clone(&hub)), Ok(1));
        assert_eq!(ctx.ticks_spent(), 0);
        let asked = [1, 4, 0, 1, 3];
        let mut want = 0;
        for &p in &asked {
            let got = server.query(p).expect("in range");
            assert_eq!(got.postings, hub.index.postings_of(p).len());
            want += got.postings as u64;
        }
        // Ticks are charged after delivery; joining the worker settles them.
        server.shutdown();
        assert_eq!(ctx.ticks_spent(), want);
        assert_eq!(want, 11, "proteins 1, 4, 0, 1, 3 hold 4, 0, 2, 4, 1 postings");
    }

    #[test]
    fn request_admitted_before_shrinking_swap_gets_typed_refusal() {
        let big = artifact();
        let small = small_artifact();
        let ctx = Arc::new(RunContext::unbounded());
        // Raw parts again: the request must sit in the queue across the
        // swap, which needs no worker racing us.
        let server = Server {
            queue: Arc::new(BatchQueue::new()),
            ctx: Arc::clone(&ctx),
            cell: Arc::new(EpochCell::new(Installed::compile(Arc::clone(&big)))),
            stats: Arc::new(ServerStats::default()),
            closing: Arc::new(AtomicBool::new(false)),
            admission: AdmissionPolicy::Shed,
            workers: Vec::new(),
        };
        let pending = server.submit(3).expect("valid under the big artifact");
        assert_eq!(server.swap_artifact(small), Ok(1));
        // Drain the queue by hand the way a worker would.
        let mut batch = Vec::new();
        assert!(server.queue.pop_batch(8, &mut batch));
        for request in batch {
            serve_one(request, &server.cell, &ctx, &server.stats);
        }
        assert_eq!(
            pending.wait(),
            Err(ServeError::UnknownProtein {
                protein: 3,
                protein_count: 3
            })
        );
        server.queue.close();
    }

    #[test]
    fn shutdown_now_fails_queued_requests_closed() {
        let artifact = artifact();
        let ctx = Arc::new(RunContext::unbounded());
        // Build with no live workers so requests stay queued, then flip
        // closing and run a worker loop to completion by hand.
        let server = Server {
            queue: Arc::new(BatchQueue::new()),
            ctx: Arc::clone(&ctx),
            cell: Arc::new(EpochCell::new(Installed::compile(Arc::clone(&artifact)))),
            stats: Arc::new(ServerStats::default()),
            closing: Arc::new(AtomicBool::new(false)),
            admission: AdmissionPolicy::Shed,
            workers: Vec::new(),
        };
        let pending: Vec<PendingQuery> =
            (0..3).map(|p| server.submit(p).expect("admitted")).collect();
        server.closing.store(true, Ordering::Relaxed);
        server.queue.close();
        worker_loop(&server.queue, &server.cell, &ctx, &server.stats, &server.closing);
        for handle in pending {
            assert_eq!(handle.wait(), Err(ServeError::Closed));
        }
    }

    #[test]
    fn injected_predict_panic_is_contained() {
        let artifact = artifact();
        let plan = FaultPlan::new().inject("serve.predict", 0, FaultAction::Panic);
        let ctx = Arc::new(RunContext::unbounded().with_faults(plan));
        let server = Server::start(Arc::clone(&artifact), ServeConfig::default(), ctx);
        // First query eats the injected panic; the worker survives and
        // the second query is served normally.
        assert_eq!(server.query(0), Err(ServeError::WorkerPanicked));
        assert_eq!(server.query(0), Ok(expected(&artifact, 0, 0)));
        let stats = server.stats();
        assert_eq!((stats.panicked, stats.answered), (1, 1));
        server.shutdown();
    }

    #[test]
    fn injected_admission_panic_is_a_typed_refusal() {
        let artifact = artifact();
        let plan = FaultPlan::new().inject("serve.admission", 0, FaultAction::Panic);
        let ctx = Arc::new(RunContext::unbounded().with_faults(plan));
        let server = Server::start(Arc::clone(&artifact), ServeConfig::default(), ctx);
        assert_eq!(
            server.submit(0).map(|_| ()),
            Err(ServeError::WorkerPanicked)
        );
        // Only the first admission hit is faulted; service continues.
        assert_eq!(server.query(0), Ok(expected(&artifact, 0, 0)));
    }

    #[test]
    fn invalid_swap_is_refused_and_old_epoch_serves_on() {
        let artifact = artifact();
        let server = Server::start(
            Arc::clone(&artifact),
            ServeConfig::default(),
            Arc::new(RunContext::unbounded()),
        );
        let broken = {
            let mut m = (*artifact).clone();
            m.category_terms.pop();
            Arc::new(m)
        };
        assert!(server.swap_artifact(broken).is_err());
        assert_eq!(server.epoch(), 0);
        assert_eq!(server.query(0), Ok(expected(&artifact, 0, 0)));
        assert_eq!(server.stats().swaps, 0);
    }
}
