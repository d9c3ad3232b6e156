//! Pipeline supervision: cooperative cancellation, deterministic
//! work-tick budgets, worker panic isolation, and seeded fault
//! injection (DESIGN.md §13).
//!
//! A long discovery or labeling run must be interruptible without
//! losing determinism. The mechanism is a [`RunContext`] threaded by
//! reference through every parallel stage: workers call
//! [`RunContext::tick`] once per unit of work (candidate visited,
//! SO cell scored) and stop pulling work the moment it returns `false`.
//! Deadlines are counted in *ticks*, never wall time, so a metered run
//! is replayable and the `wall-clock` lint stays intact; the only
//! wall-time component lives in [`crate::realtime`], which merely trips
//! the same [`CancelToken`].
//!
//! Interrupted stages return [`Interrupted`] carrying a checkpoint of
//! every *completed* unit of work. Which checkpoint a cancelled run
//! produces may depend on thread interleaving — but resuming any of
//! them replays only whole units, each a pure function of its inputs,
//! so `resume(checkpoint)` is byte-identical to an uninterrupted run at
//! any thread count.
//!
//! Fault injection is first-class: a [`FaultPlan`] schedules a panic,
//! a cancellation, or a cache-shard poisoning at the n-th execution of
//! a named [`faultpoint!`] site, which is how the containment and
//! resume-equality suites drive the layer deterministically.

use crate::ShardedCache;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared cooperative cancellation flag.
///
/// Cloning yields a handle to the *same* flag, so one copy can be
/// handed to a watchdog (see [`crate::realtime`]) while the pipeline
/// polls another through [`RunContext::tick`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// What an armed fault does when its site/hit pair comes up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the worker that reaches the site (exercises the
    /// `catch_unwind` containment path).
    Panic,
    /// Trip the run's [`CancelToken`] (exercises cooperative draining
    /// and checkpointing).
    Cancel,
    /// Poison one shard of the [`ShardedCache`] passed at the site
    /// (exercises first-writer-wins shard recovery). Ignored at sites
    /// without a cache argument.
    PoisonShard,
}

/// One scheduled fault: the `hit`-th execution (0-based, counted
/// per-site across all threads) of `site` performs `action`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultArm {
    pub site: String,
    pub hit: u64,
    pub action: FaultAction,
}

/// A deterministic schedule of injected faults, keyed by faultpoint
/// site name and per-site execution count.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    arms: Vec<FaultArm>,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `action` at the `hit`-th execution of `site`.
    pub fn inject(mut self, site: &str, hit: u64, action: FaultAction) -> FaultPlan {
        self.arms.push(FaultArm {
            site: site.to_string(),
            hit,
            action,
        });
        self
    }

    /// Whether the plan schedules anything.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// The scheduled arms.
    pub fn arms(&self) -> &[FaultArm] {
        &self.arms
    }

    /// A pseudo-random plan drawn from a SplitMix64 stream: `n` arms
    /// over `sites`, each at a hit count below `max_hit`. Same seed,
    /// same plan — sweeps in tests stay replayable.
    pub fn seeded(seed: u64, sites: &[&str], n: usize, max_hit: u64) -> FaultPlan {
        let mut state = seed;
        let mut plan = FaultPlan::new();
        if sites.is_empty() {
            return plan;
        }
        for _ in 0..n {
            let site = sites[(splitmix64(&mut state) as usize) % sites.len()];
            let hit = splitmix64(&mut state) % max_hit.max(1);
            let action = match splitmix64(&mut state) % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Cancel,
                _ => FaultAction::PoisonShard,
            };
            plan = plan.inject(site, hit, action);
        }
        plan
    }
}

/// SplitMix64 step — a tiny, dependency-free deterministic stream for
/// [`FaultPlan::seeded`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Panic payload used by [`FaultAction::Panic`], recognizable in
/// [`WorkerPanic::detail`] as `injected fault at <site>`.
#[derive(Debug)]
pub struct InjectedFault {
    pub site: String,
}

/// Per-run fault bookkeeping: the plan plus per-site execution counts.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    hits: Mutex<HashMap<String, u64>>,
}

/// Execution context threaded through every supervised pipeline stage.
///
/// Two modes:
/// * **passive** ([`RunContext::unbounded`]) — `tick` is a single
///   relaxed load of the cancel flag; this is what the legacy
///   non-supervised entry points run under.
/// * **metered** ([`RunContext::with_tick_budget`]) — `tick`
///   additionally counts work units and trips the cancel token once
///   the budget is spent. A budget of `0` stops at the very first
///   tick, which is what cancel-at-every-tick sweeps iterate over.
#[derive(Debug)]
pub struct RunContext {
    cancel: CancelToken,
    /// Tick budget; `u64::MAX` means unlimited.
    budget: u64,
    /// Whether ticks are counted at all (passive contexts skip the
    /// `fetch_add` so the legacy hot path pays one load per tick).
    metered: bool,
    ticks: AtomicU64,
    panicked: AtomicBool,
    faults: Option<FaultState>,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext::unbounded()
    }
}

impl RunContext {
    fn with_mode(budget: u64, metered: bool) -> RunContext {
        RunContext {
            cancel: CancelToken::new(),
            budget,
            metered,
            ticks: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            faults: None,
        }
    }

    /// Passive context: never trips on its own; only an external
    /// [`CancelToken::cancel`] (or an injected fault) stops the run.
    pub fn unbounded() -> RunContext {
        RunContext::with_mode(u64::MAX, false)
    }

    /// Metered context that counts ticks but never trips by itself —
    /// for measuring tick overhead and reporting progress.
    pub fn metered() -> RunContext {
        RunContext::with_mode(u64::MAX, true)
    }

    /// Metered context that trips its own cancel token after `budget`
    /// work ticks.
    pub fn with_tick_budget(budget: u64) -> RunContext {
        RunContext::with_mode(budget, true)
    }

    /// Attach a fault plan (builder style; used by the injection
    /// suites).
    pub fn with_faults(mut self, plan: FaultPlan) -> RunContext {
        self.faults = Some(FaultState {
            plan,
            hits: Mutex::new(HashMap::new()),
        });
        self
    }

    /// Record `n` units of work. Returns `true` when the stage may
    /// continue, `false` once cancellation has been requested (budget
    /// spent, external cancel, injected cancel, or a sibling panic).
    /// The boolean matches the ESU visit-closure convention, so hot
    /// loops can return `ctx.tick(1)` directly.
    #[inline]
    pub fn tick(&self, n: u64) -> bool {
        if self.metered && n > 0 {
            let spent = self.ticks.fetch_add(n, Ordering::Relaxed).saturating_add(n);
            if spent >= self.budget {
                self.cancel.cancel();
            }
        }
        !self.cancel.is_cancelled()
    }

    /// Whether the stage should stop pulling work.
    #[inline]
    pub fn should_stop(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Ticks recorded so far (metered contexts only; passive contexts
    /// report 0).
    pub fn ticks_spent(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Request cancellation of this run.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the underlying cancel token, e.g. to arm a
    /// [`crate::realtime::Deadline`] against it.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether a supervised worker panicked during this run.
    pub fn worker_panicked(&self) -> bool {
        self.panicked.load(Ordering::Relaxed)
    }

    fn mark_panicked(&self) {
        self.panicked.store(true, Ordering::Relaxed);
        self.cancel.cancel();
    }

    /// The action armed for the current execution of `site`, if any.
    /// Costs one `Option` check when no plan is attached.
    fn faultpoint_action(&self, site: &str) -> Option<FaultAction> {
        let state = self.faults.as_ref()?;
        let hit = {
            let mut hits = state.hits.lock().unwrap_or_else(PoisonError::into_inner);
            let count = hits.entry(site.to_string()).or_insert(0);
            let hit = *count;
            *count += 1;
            hit
        };
        state
            .plan
            .arms
            .iter()
            .find(|a| a.site == site && a.hit == hit)
            .map(|a| a.action)
    }

    /// Execute the faultpoint `site` (prefer the [`faultpoint!`]
    /// macro, which the `faultpoint-hygiene` lint checks for placement
    /// and name uniqueness). [`FaultAction::PoisonShard`] is ignored
    /// here; sites with a cache use [`RunContext::faultpoint_cache`].
    pub fn faultpoint(&self, site: &str) {
        match self.faultpoint_action(site) {
            Some(FaultAction::Panic) => injected_panic(site),
            Some(FaultAction::Cancel) => self.cancel.cancel(),
            Some(FaultAction::PoisonShard) | None => {}
        }
    }

    /// Faultpoint variant for sites with a [`ShardedCache`] in scope:
    /// [`FaultAction::PoisonShard`] poisons the shard holding `key`.
    pub fn faultpoint_cache<K: Hash + Eq, V: Copy>(
        &self,
        site: &str,
        cache: &ShardedCache<K, V>,
        key: &K,
    ) {
        match self.faultpoint_action(site) {
            Some(FaultAction::Panic) => injected_panic(site),
            Some(FaultAction::Cancel) => self.cancel.cancel(),
            Some(FaultAction::PoisonShard) => cache.poison_shard(key),
            None => {}
        }
    }
}

/// Panic with an [`InjectedFault`] payload. `panic_any` carries the
/// typed payload through `catch_unwind` so [`WorkerPanic::detail`] can
/// name the site.
fn injected_panic(site: &str) -> ! {
    std::panic::panic_any(InjectedFault {
        site: site.to_string(),
    })
}

/// Mark a fault-injection site. Forms:
///
/// ```ignore
/// faultpoint!(ctx, "stage.site");
/// faultpoint!(ctx, "stage.cache_site", &cache, &key);
/// ```
///
/// Site names must be unique string literals and the macro may only
/// appear in library code — both enforced by lamolint's
/// `faultpoint-hygiene` rule.
#[macro_export]
macro_rules! faultpoint {
    ($ctx:expr, $site:literal) => {
        $ctx.faultpoint($site)
    };
    ($ctx:expr, $site:literal, $cache:expr, $key:expr) => {
        $ctx.faultpoint_cache($site, $cache, $key)
    };
}

/// A panic caught at a supervised worker boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Stage label supplied by the pool (`"nemo.seed"`, …).
    pub stage: &'static str,
    /// Rendered panic payload.
    pub detail: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked in {}: {}", self.stage, self.detail)
    }
}

/// Typed interruption outcome of a supervised stage. Both variants
/// carry a checkpoint of every completed unit of work; resuming from
/// it reproduces the uninterrupted output byte-for-byte.
#[derive(Clone, Debug)]
pub enum Interrupted<C> {
    /// The cancel token tripped (budget spent, external cancel, or an
    /// injected cancel) and the stage drained cooperatively.
    Cancelled { checkpoint: C },
    /// A worker panicked; siblings were drained and the panic was
    /// converted into this typed error instead of unwinding the
    /// caller.
    WorkerPanicked { panic: WorkerPanic, checkpoint: C },
}

impl<C> Interrupted<C> {
    /// The carried checkpoint.
    pub fn checkpoint(&self) -> &C {
        match self {
            Interrupted::Cancelled { checkpoint } => checkpoint,
            Interrupted::WorkerPanicked { checkpoint, .. } => checkpoint,
        }
    }

    /// Consume into the carried checkpoint.
    pub fn into_checkpoint(self) -> C {
        match self {
            Interrupted::Cancelled { checkpoint } => checkpoint,
            Interrupted::WorkerPanicked { checkpoint, .. } => checkpoint,
        }
    }

    /// Map the checkpoint type (for layering one stage's interruption
    /// over another's).
    pub fn map_checkpoint<D>(self, f: impl FnOnce(C) -> D) -> Interrupted<D> {
        match self {
            Interrupted::Cancelled { checkpoint } => Interrupted::Cancelled {
                checkpoint: f(checkpoint),
            },
            Interrupted::WorkerPanicked { panic, checkpoint } => Interrupted::WorkerPanicked {
                panic,
                checkpoint: f(checkpoint),
            },
        }
    }
}

impl<C> fmt::Display for Interrupted<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::Cancelled { .. } => {
                write!(f, "run cancelled at a checkpoint boundary")
            }
            Interrupted::WorkerPanicked { panic, .. } => write!(f, "{panic}"),
        }
    }
}

/// Outcome of a supervised worker pool: results of the workers that
/// completed, plus the first caught panic (by worker index) if any.
/// Sibling results survive a panic — they are collected, not thrown
/// away — which is what lets checkpoints keep completed work.
pub struct PoolOutcome<T> {
    pub results: Vec<T>,
    pub panic: Option<WorkerPanic>,
}

/// Run `worker` on `threads` scoped workers with per-worker panic
/// isolation. Worker `i` is called as `worker(i)`, with the indices
/// `0..threads` each handed out once, so a pool can shard its items
/// with [`crate::strided`]. Each worker body runs under
/// `catch_unwind`; a panic marks the context
/// ([`RunContext::worker_panicked`]) and trips the cancel token so
/// siblings drain cooperatively, then all workers are joined and the
/// first panic (in worker-index order, deterministic) is reported in
/// the [`PoolOutcome`]. `threads <= 1` runs `worker(0)` inline with
/// identical semantics.
pub fn run_supervised<T, F>(
    threads: usize,
    stage: &'static str,
    ctx: &RunContext,
    worker: F,
) -> PoolOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let guarded = |wid: usize| {
        catch_unwind(AssertUnwindSafe(|| worker(wid))).map_err(|payload| {
            ctx.mark_panicked();
            WorkerPanic {
                stage,
                detail: panic_detail(payload.as_ref()),
            }
        })
    };
    let joined: Vec<Result<T, WorkerPanic>> = if threads <= 1 {
        vec![guarded(0)]
    } else {
        std::thread::scope(|scope| {
            let guarded = &guarded;
            let handles: Vec<_> = (0..threads)
                .map(|wid| scope.spawn(move || guarded(wid)))
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    // Unreachable in practice: the worker body is fully
                    // wrapped in catch_unwind. Kept as a typed fallback
                    // so a join failure can never unwind the supervisor.
                    handle.join().unwrap_or_else(|_| {
                        ctx.mark_panicked();
                        Err(WorkerPanic {
                            stage,
                            detail: "worker panicked outside the unwind guard".to_string(),
                        })
                    })
                })
                .collect()
        })
    };
    let mut results = Vec::new();
    let mut panic = None;
    for outcome in joined {
        match outcome {
            Ok(v) => results.push(v),
            Err(p) => {
                panic.get_or_insert(p);
            }
        }
    }
    PoolOutcome { results, panic }
}

/// Render a caught panic payload: injected faults, `&str` and `String`
/// messages are recognized; anything else gets a placeholder.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
        format!("injected fault at {}", fault.site)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared atomic work counter for pools whose workers pull item
/// indices; a thin convenience so call sites stay uniform.
pub struct WorkQueue {
    next: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// Queue over `0..len`.
    pub fn new(len: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Next unclaimed index, or `None` when the queue is drained.
    pub fn pull(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_context_never_trips() {
        let ctx = RunContext::unbounded();
        for _ in 0..10_000 {
            assert!(ctx.tick(1));
        }
        assert!(!ctx.should_stop());
        assert_eq!(ctx.ticks_spent(), 0, "passive contexts do not count");
    }

    #[test]
    fn budget_trips_exactly_at_spend() {
        let ctx = RunContext::with_tick_budget(5);
        assert!(ctx.tick(2));
        assert!(ctx.tick(2));
        assert!(!ctx.tick(2), "5th/6th tick crosses the budget");
        assert!(ctx.should_stop());
        assert_eq!(ctx.ticks_spent(), 6);
    }

    #[test]
    fn zero_budget_stops_at_first_tick() {
        let ctx = RunContext::with_tick_budget(0);
        assert!(!ctx.should_stop(), "no work attempted yet");
        assert!(!ctx.tick(1));
        assert!(ctx.should_stop());
    }

    #[test]
    fn external_token_cancels() {
        let ctx = RunContext::unbounded();
        let token = ctx.cancel_token();
        assert!(ctx.tick(1));
        token.cancel();
        assert!(!ctx.tick(1));
        assert!(ctx.should_stop());
    }

    #[test]
    fn fault_plan_counts_hits_per_site() {
        let plan = FaultPlan::new().inject("a.site", 2, FaultAction::Cancel);
        let ctx = RunContext::unbounded().with_faults(plan);
        faultpoint!(&ctx, "a.site");
        assert!(!ctx.should_stop());
        faultpoint!(&ctx, "a.site");
        assert!(!ctx.should_stop());
        faultpoint!(&ctx, "a.site");
        assert!(ctx.should_stop(), "third hit (index 2) trips the cancel");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let sites = ["x.a", "x.b", "x.c"];
        let p1 = FaultPlan::seeded(42, &sites, 8, 100);
        let p2 = FaultPlan::seeded(42, &sites, 8, 100);
        assert_eq!(p1.arms(), p2.arms());
        assert_eq!(p1.arms().len(), 8);
        let p3 = FaultPlan::seeded(43, &sites, 8, 100);
        assert_ne!(p1.arms(), p3.arms(), "different seeds draw different plans");
    }

    #[test]
    fn injected_panic_is_caught_and_named() {
        let plan = FaultPlan::new().inject("boom.site", 0, FaultAction::Panic);
        let ctx = RunContext::unbounded().with_faults(plan);
        let outcome = run_supervised(1, "test.stage", &ctx, |_| {
            faultpoint!(&ctx, "boom.site");
            7u32
        });
        assert!(outcome.results.is_empty());
        let panic = outcome.panic.expect("the injected panic must surface");
        assert_eq!(panic.stage, "test.stage");
        assert!(panic.detail.contains("boom.site"), "detail: {}", panic.detail);
        assert!(ctx.worker_panicked());
        assert!(ctx.should_stop(), "a panic cancels the run for siblings");
    }

    #[test]
    fn sibling_results_survive_a_panic() {
        let queue = WorkQueue::new(64);
        let ctx = RunContext::unbounded();
        let hits = AtomicU64::new(0);
        let outcome = run_supervised(4, "test.stage", &ctx, |_| {
            let mut local = 0u64;
            while let Some(i) = queue.pull() {
                if ctx.should_stop() {
                    break;
                }
                if i == 5 && hits.fetch_add(1, Ordering::Relaxed) == 0 {
                    std::panic::panic_any(InjectedFault {
                        site: "manual".to_string(),
                    });
                }
                local += 1;
            }
            local
        });
        assert!(outcome.panic.is_some(), "the panic must be reported");
        assert_eq!(
            outcome.results.len(),
            3,
            "the three sibling workers drain and return their results"
        );
    }

    #[test]
    fn workers_receive_each_index_once() {
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::unbounded();
            let outcome = run_supervised(threads, "test.stage", &ctx, |wid| wid);
            assert!(outcome.panic.is_none());
            let mut ids = outcome.results;
            ids.sort_unstable();
            assert_eq!(ids, (0..threads).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    #[test]
    fn interrupted_accessors() {
        let cancelled: Interrupted<u32> = Interrupted::Cancelled { checkpoint: 9 };
        assert_eq!(*cancelled.checkpoint(), 9);
        let mapped = cancelled.map_checkpoint(|c| c + 1);
        assert_eq!(mapped.into_checkpoint(), 10);
        let panicked = Interrupted::WorkerPanicked {
            panic: WorkerPanic {
                stage: "s",
                detail: "d".to_string(),
            },
            checkpoint: 3u32,
        };
        assert!(panicked.to_string().contains("worker panicked in s"));
        assert_eq!(panicked.into_checkpoint(), 3);
    }

    #[test]
    fn work_queue_drains_once() {
        let queue = WorkQueue::new(3);
        assert_eq!(queue.pull(), Some(0));
        assert_eq!(queue.pull(), Some(1));
        assert_eq!(queue.pull(), Some(2));
        assert_eq!(queue.pull(), None);
        assert_eq!(queue.pull(), None);
    }
}
