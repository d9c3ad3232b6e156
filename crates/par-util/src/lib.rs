#![forbid(unsafe_code)]
//! Shared parallelism utilities.
//!
//! Every parallel stage in the workspace follows the same conventions:
//! a `threads` knob where `0` means one worker per available core, work
//! split deterministically so output is byte-identical for any thread
//! count, and pure-function memo tables shared between workers. The
//! pieces implementing those conventions live here so the labeling
//! pipeline (`lamofinder`), the uniqueness null model and the discovery
//! front-end (`motif-finder`) do not each carry a private copy.
//!
//! [`run_supervised`] is the one way library code fans work out: it
//! spawns `threads` workers on `std::thread::scope`, passes each its
//! index in `0..threads` (pools shard their items with [`strided`]),
//! and isolates worker panics behind `catch_unwind` (DESIGN.md §13).
//! [`RunContext`] carries a cooperative [`CancelToken`] plus a
//! deterministic work-tick budget, and [`FaultPlan`] + the
//! [`faultpoint!`] macro inject deterministic faults for the
//! containment test suites. The only wall-clock-aware piece is
//! [`realtime::Deadline`], confined to the bench/CLI boundary.
//!
//! Locks are plain `std::sync` locks. Every acquisition recovers
//! through poison with `unwrap_or_else(PoisonError::into_inner)`: no
//! critical section here leaves its state half-updated, and a panic is
//! reported by the supervisor that caught it, not by a poison error.

pub mod batch;
pub mod realtime;
pub mod sharded;
pub mod supervise;
pub mod threads;

pub use batch::{BatchQueue, EpochCell, PushOutcome, ResponseSlot};
pub use sharded::ShardedCache;
pub use supervise::{
    run_supervised, CancelToken, FaultAction, FaultArm, FaultPlan, InjectedFault, Interrupted,
    PoolOutcome, RunContext, WorkQueue, WorkerPanic,
};
pub use threads::{resolve_threads, strided};
