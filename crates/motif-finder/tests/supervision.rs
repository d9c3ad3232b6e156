//! Interruption determinism for supervised motif discovery: a run
//! cancelled at any work-tick budget and resumed from its checkpoint
//! must produce byte-identical output to an uninterrupted run, at every
//! thread count; injected worker panics surface as typed errors whose
//! checkpoints resume just as cleanly; injected shard poisoning is
//! recovered without changing a byte. The null model (uniqueness) runs
//! under the same contract: typed panics and cancellations, and scores
//! and tick totals that do not depend on the thread count.

use motif_finder::{
    grow_frequent_subgraphs, resume_growth, uniqueness_scores, uniqueness_scores_supervised,
    GrowthCheckpoint, GrowthConfig, GrowthReport, MotifFinder, MotifFinderConfig,
    UniquenessConfig,
};
use par_util::{FaultAction, FaultPlan, Interrupted, RunContext};
use ppi_graph::Graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn workload_graph() -> Graph {
    let mut rng = SmallRng::seed_from_u64(11);
    ppi_graph::random::barabasi_albert(40, 2, &mut rng)
}

fn workload_config(threads: usize) -> GrowthConfig {
    GrowthConfig {
        min_size: 3,
        max_size: 4,
        frequency_threshold: 3,
        max_stored_occurrences: 7,
        threads,
        ..Default::default()
    }
}

/// Full byte-level equality of two growth reports.
fn assert_reports_identical(a: &GrowthReport, b: &GrowthReport, what: &str) {
    assert_eq!(a.truncated_levels, b.truncated_levels, "{what}: truncated");
    assert_eq!(a.capped_levels, b.capped_levels, "{what}: capped");
    assert_eq!(a.classes.len(), b.classes.len(), "{what}: class count");
    for (i, (ca, cb)) in a.classes.iter().zip(&b.classes).enumerate() {
        assert_eq!(ca.pattern, cb.pattern, "{what}: class {i} pattern");
        assert_eq!(ca.frequency, cb.frequency, "{what}: class {i} frequency");
        assert_eq!(ca.occurrences, cb.occurrences, "{what}: class {i} occurrences");
    }
}

/// Run to completion with budget `t`: either it finishes outright or it
/// checkpoints and a fresh unbounded resume finishes it.
fn run_with_interrupt_at(
    g: &Graph,
    config: &GrowthConfig,
    t: u64,
    what: &str,
) -> (GrowthReport, bool) {
    match resume_growth(g, config, GrowthCheckpoint::default(), &RunContext::with_tick_budget(t)) {
        Ok(report) => (report, false),
        Err(Interrupted::Cancelled { checkpoint }) => {
            let report = resume_growth(g, config, checkpoint, &RunContext::unbounded())
                .unwrap_or_else(|_| panic!("{what}: unbounded resume must complete"));
            (report, true)
        }
        Err(Interrupted::WorkerPanicked { panic, .. }) => {
            panic!("{what}: no fault was injected, yet a worker panicked: {panic}")
        }
    }
}

#[test]
fn cancel_sweep_and_resume_is_byte_identical_across_threads() {
    let g = workload_graph();
    let reference = grow_frequent_subgraphs(&g, &workload_config(1));
    assert!(!reference.classes.is_empty(), "workload must find motifs");

    // Total tick volume of an uninterrupted run sizes the sweep.
    let metered = RunContext::metered();
    resume_growth(&g, &workload_config(1), GrowthCheckpoint::default(), &metered)
        .expect("a metered context never trips, so growth completes");
    let total = metered.ticks_spent();
    assert!(total > 0, "discovery must spend work ticks");

    let step = (total / 16).max(1);
    for threads in [1usize, 2, 4] {
        let config = workload_config(threads);
        let mut interrupted_runs = 0;
        let mut t = 0;
        while t <= total + step {
            let what = format!("threads={threads} budget={t}");
            let (report, interrupted) = run_with_interrupt_at(&g, &config, t, &what);
            interrupted_runs += usize::from(interrupted);
            assert_reports_identical(&reference, &report, &what);
            t += step;
        }
        assert!(
            interrupted_runs > 0,
            "threads={threads}: the sweep must actually interrupt some runs"
        );
    }
}

#[test]
fn budget_zero_interrupts_before_any_work() {
    let g = workload_graph();
    let err = resume_growth(
        &g,
        &workload_config(2),
        GrowthCheckpoint::default(),
        &RunContext::with_tick_budget(0),
    )
    .expect_err("a zero budget trips at the first tick");
    match err {
        Interrupted::Cancelled { checkpoint } => {
            assert!(checkpoint.frequent.is_none(), "no level completed");
            assert!(checkpoint.classes.is_empty(), "nothing committed");
        }
        Interrupted::WorkerPanicked { panic, .. } => {
            panic!("no fault injected, yet a worker panicked: {panic}")
        }
    }
}

#[test]
fn injected_worker_panic_is_typed_and_checkpoint_resumes() {
    let g = workload_graph();
    let reference = grow_frequent_subgraphs(&g, &workload_config(1));

    // Hits are 0-based: arm 0 fires at the site's first execution.
    for (site, hit, threads) in [
        ("nemo.seed_worker", 0u64, 1usize),
        ("nemo.seed_worker", 2, 4),
        ("nemo.extension_worker", 1, 2),
    ] {
        let plan = FaultPlan::new().inject(site, hit, FaultAction::Panic);
        let ctx = RunContext::unbounded().with_faults(plan);
        let err = resume_growth(&g, &workload_config(threads), GrowthCheckpoint::default(), &ctx)
            .expect_err("the injected panic must interrupt the run");
        let checkpoint = match err {
            Interrupted::WorkerPanicked { panic, checkpoint } => {
                assert!(
                    panic.detail.contains(site),
                    "panic detail names the site: {panic}"
                );
                checkpoint
            }
            Interrupted::Cancelled { .. } => {
                panic!("site {site}: expected a typed worker panic, got plain cancellation")
            }
        };
        let report = resume_growth(&g, &workload_config(threads), checkpoint, &RunContext::unbounded())
            .expect("resume after a contained panic completes");
        assert_reports_identical(&reference, &report, &format!("panic at {site}"));
    }
}

#[test]
fn injected_shard_poison_is_recovered_byte_identically() {
    let g = workload_graph();
    let reference = grow_frequent_subgraphs(&g, &workload_config(1));
    for threads in [1usize, 4] {
        let plan = FaultPlan::new().inject("nemo.canon_cache", 0, FaultAction::PoisonShard);
        let ctx = RunContext::unbounded().with_faults(plan);
        let report = resume_growth(&g, &workload_config(threads), GrowthCheckpoint::default(), &ctx)
            .expect("a poisoned shard is recovered, not fatal");
        assert_reports_identical(&reference, &report, &format!("poison threads={threads}"));
    }
}

#[test]
fn injected_cancel_checkpoints_at_a_level_boundary() {
    let g = workload_graph();
    let reference = grow_frequent_subgraphs(&g, &workload_config(2));
    let plan = FaultPlan::new().inject("nemo.extension_level", 0, FaultAction::Cancel);
    let ctx = RunContext::unbounded().with_faults(plan);
    let checkpoint = match resume_growth(&g, &workload_config(2), GrowthCheckpoint::default(), &ctx)
    {
        Err(Interrupted::Cancelled { checkpoint }) => checkpoint,
        Err(Interrupted::WorkerPanicked { panic, .. }) => {
            panic!("cancel injection must not panic a worker: {panic}")
        }
        Ok(_) => panic!("the injected cancel must interrupt the run"),
    };
    assert_eq!(
        checkpoint.completed_size, 3,
        "the seed level completed before the extension-level fault"
    );
    let report = resume_growth(&g, &workload_config(2), checkpoint, &RunContext::unbounded())
        .expect("resume after the injected cancel completes");
    assert_reports_identical(&reference, &report, "cancel at extension level");
}

/// Null-model workload: the growth classes of the supervision graph,
/// six randomized networks, and a node budget that binds for some
/// searches.
fn null_model_config(threads: usize) -> UniquenessConfig {
    UniquenessConfig {
        n_random: 6,
        swaps_per_edge: 4,
        node_budget: 2_000,
        threads,
    }
}

fn null_model_run(
    g: &Graph,
    threads: usize,
    ctx: &RunContext,
) -> Result<Vec<f64>, Interrupted<()>> {
    let growth = grow_frequent_subgraphs(g, &workload_config(1));
    let patterns: Vec<(&Graph, usize)> = growth
        .classes
        .iter()
        .map(|c| (&c.pattern, c.frequency))
        .collect();
    let mut rng = SmallRng::seed_from_u64(19);
    uniqueness_scores_supervised(g, &patterns, &null_model_config(threads), &mut rng, ctx)
}

#[test]
fn null_model_scores_and_ticks_are_thread_count_invariant() {
    let g = workload_graph();
    let reference = {
        let growth = grow_frequent_subgraphs(&g, &workload_config(1));
        let patterns: Vec<(&Graph, usize)> = growth
            .classes
            .iter()
            .map(|c| (&c.pattern, c.frequency))
            .collect();
        let mut rng = SmallRng::seed_from_u64(19);
        uniqueness_scores(&g, &patterns, &null_model_config(1), &mut rng)
    };
    assert!(
        reference.iter().any(|&s| s < 1.0) && reference.iter().any(|&s| s > 0.0),
        "the workload must score some patterns above and some below random: {reference:?}"
    );
    let mut totals = Vec::new();
    for threads in [1usize, 2, 4] {
        let ctx = RunContext::metered();
        let scores = null_model_run(&g, threads, &ctx).expect("a metered context never trips");
        let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        let want: Vec<u64> = reference.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, want, "threads={threads}: scores differ");
        totals.push(ctx.ticks_spent());
    }
    assert!(totals[0] > 0, "the null model must charge search nodes");
    assert_eq!(totals, vec![totals[0]; 3], "tick totals differ across thread counts");
}

#[test]
fn null_model_injected_panic_is_typed() {
    let g = workload_graph();
    for (hit, threads) in [(0u64, 1usize), (3, 2), (5, 4)] {
        let plan = FaultPlan::new().inject("uniqueness.network", hit, FaultAction::Panic);
        let ctx = RunContext::unbounded().with_faults(plan);
        match null_model_run(&g, threads, &ctx) {
            Err(Interrupted::WorkerPanicked { panic, .. }) => {
                assert_eq!(panic.stage, "uniqueness");
                assert!(
                    panic.detail.contains("uniqueness.network"),
                    "panic detail names the site: {panic}"
                );
            }
            Err(Interrupted::Cancelled { .. }) => {
                panic!("hit {hit}: expected a typed worker panic, got plain cancellation")
            }
            Ok(_) => panic!("hit {hit}: the injected panic must interrupt the run"),
        }
    }
}

#[test]
fn null_model_cancellation_is_typed() {
    let g = workload_graph();
    let plan = FaultPlan::new().inject("uniqueness.network", 2, FaultAction::Cancel);
    let ctx = RunContext::unbounded().with_faults(plan);
    assert!(
        matches!(null_model_run(&g, 2, &ctx), Err(Interrupted::Cancelled { .. })),
        "an injected cancel must interrupt the null model"
    );
    // A tick budget below the run's total trips mid-run; one at the
    // total lets it finish.
    let metered = RunContext::metered();
    let scores = null_model_run(&g, 1, &metered).expect("a metered context never trips");
    let total = metered.ticks_spent();
    assert!(matches!(
        null_model_run(&g, 2, &RunContext::with_tick_budget(total / 2)),
        Err(Interrupted::Cancelled { .. })
    ));
    let full = null_model_run(&g, 2, &RunContext::with_tick_budget(total))
        .expect("a budget that the last search exhausts still completes the run");
    assert_eq!(full, scores);
}

#[test]
fn finder_runs_both_stages_supervised() {
    let g = workload_graph();
    let config = MotifFinderConfig {
        growth: workload_config(2),
        uniqueness: null_model_config(2),
        uniqueness_threshold: 0.5,
        seed: 3,
    };
    let finder = MotifFinder::new(config);
    let (motifs, report) = finder.find(&g);
    let (again, _) = finder
        .find_supervised(&g, &RunContext::metered())
        .expect("a metered context never trips");
    assert_eq!(motifs.len(), again.len());
    assert_eq!(report.motifs_found, motifs.len());
    let plan = FaultPlan::new().inject("uniqueness.network", 0, FaultAction::Panic);
    let ctx = RunContext::unbounded().with_faults(plan);
    assert!(matches!(
        finder.find_supervised(&g, &ctx),
        Err(Interrupted::WorkerPanicked { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (budget, thread count) interruption point resumes to the
    /// reference output.
    #[test]
    fn interruption_point_never_changes_output(budget in 0u64..4_000, threads in 1usize..5) {
        let g = workload_graph();
        let reference = grow_frequent_subgraphs(&g, &workload_config(1));
        let what = format!("prop budget={budget} threads={threads}");
        let (report, _) = run_with_interrupt_at(&g, &workload_config(threads), budget, &what);
        assert_reports_identical(&reference, &report, &what);
    }
}
