//! Thread-budget resolution and deterministic work sharding.
//!
//! All `threads` configuration knobs in the workspace share one
//! convention: `0` means one worker per available core, any other value
//! is taken literally. Work is split with [`strided`] over the worker
//! index [`crate::run_supervised`] passes in, so that each worker's
//! share — and therefore the merged output — depends only on the item
//! order and the worker count, never on scheduling.

/// Resolve a `threads` knob: `0` = one worker per available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// Deterministic interleaved shard assignment: the indices of `0..total`
/// that worker `worker` owns when `workers` workers each take every
/// `workers`-th item. Contiguous range sharding concentrates expensive
/// items (e.g. high-degree ESU roots, which come first in degree-skewed
/// vertex numberings) on one worker; interleaving spreads them evenly
/// while staying a pure function of `(total, workers, worker)` — no
/// atomic pulls in the hot loop, and each worker's stream is an
/// ascending (hence tag-ordered) subsequence of the serial order.
pub fn strided(total: usize, workers: usize, worker: usize) -> impl Iterator<Item = usize> {
    (worker..total).step_by(workers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_count_is_literal() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn zero_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn strided_shards_partition_the_index_range() {
        for total in [0usize, 1, 7, 10, 64] {
            for workers in [1usize, 2, 3, 5, 8] {
                let mut all: Vec<usize> = (0..workers)
                    .flat_map(|w| strided(total, workers, w).collect::<Vec<_>>())
                    .collect();
                for w in 0..workers {
                    let shard: Vec<usize> = strided(total, workers, w).collect();
                    assert!(
                        shard.windows(2).all(|p| p[0] < p[1]),
                        "shard {w} not ascending"
                    );
                }
                all.sort_unstable();
                assert_eq!(all, (0..total).collect::<Vec<_>>(), "{total}/{workers}");
            }
        }
    }

    #[test]
    fn strided_zero_workers_treated_as_one() {
        let shard: Vec<usize> = strided(4, 0, 0).collect();
        assert_eq!(shard, vec![0, 1, 2, 3]);
    }
}
