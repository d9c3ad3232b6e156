#![forbid(unsafe_code)]
//! **lamo-serve** — the online serving layer (DESIGN.md §16).
//!
//! Every other entry point in this workspace is a batch binary that
//! re-walks the whole pipeline per question. This crate turns the
//! pipeline's output into a product: a [`ModelArtifact`] precompiles
//! the labeled motifs, the Eq. 4 LMS table and — the perf core —
//! per-protein posting lists, so answering "which functions does
//! protein `p` have?" (Eq. 5) is an O(|postings(p)|) merge instead of a
//! full scan; [`format`] gives the artifact a versioned, checksummed
//! binary form so a server loads once and answers from flat buffers;
//! and [`Server`] runs that merge once per protein when it installs an
//! artifact, then answers from the compiled rows with N worker threads
//! sharing one `Arc`.
//!
//! Determinism and safety rules, enforced by lamolint:
//!
//! * the read path acquires **no locks** (`serve-read-lock` rule) — all
//!   coordination lives in `par_util::batch`, and the artifact itself
//!   is immutable and `Sync`;
//! * the query path touches **no wall clock** — batching is a pure
//!   function of arrival order, and load limits are `RunContext` work
//!   ticks; latency is measured outside this crate, by perfbench and
//!   the `crates/bench` tripwires.

pub mod artifact;
pub mod delta;
pub mod format;
pub mod server;
pub mod store;

pub use artifact::{ArtifactMeta, ModelArtifact};
pub use delta::{publish_delta, DeltaReport, IncrementalTrainer, PublishError, TrainerConfig};
pub use format::{read_artifact, write_artifact, ArtifactError, ArtifactErrorKind, FORMAT_VERSION};
pub use server::{
    AdmissionPolicy, PendingQuery, Prediction, ServeConfig, ServeError, Server, StatsSnapshot,
};
pub use store::{ArtifactStore, Recovery, StoreError};
