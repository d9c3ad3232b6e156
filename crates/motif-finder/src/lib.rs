#![forbid(unsafe_code)]
//! Network-motif discovery substrate (Tasks 1 and 2 of the paper).
//!
//! * [`esu`] — exact ESU/FANMOD enumeration of connected subgraphs;
//! * [`classes`] — grouping occurrences into isomorphism classes;
//! * [`nemo`] — NeMoFinder-style level-wise frequent-subgraph growth up
//!   to meso-scale sizes;
//! * [`subgraph_match`] — capped induced-pattern counting in large
//!   networks;
//! * [`uniqueness`] — frequency comparison against degree-matched
//!   randomized networks (parallel and supervised);
//! * [`finder`] — the end-to-end [`MotifFinder`].

pub mod classes;
pub mod delta;
pub mod esu;
pub mod finder;
pub mod motif;
pub mod nemo;
pub mod subgraph_match;
pub mod uniqueness;

pub use classes::{classify_size_k, CanonCodeCache, ClassCollector, SubgraphClass};
pub use delta::{CensusDeltaStats, ClassKey, IncrementalCensus};
pub use esu::{count_connected_subgraphs, DenseEsuWalker};
pub use finder::{FinderReport, MotifFinder, MotifFinderConfig};
pub use motif::{Motif, Occurrence};
pub use nemo::{
    grow_frequent_subgraphs, grow_frequent_subgraphs_supervised, resume_growth, GrowthCheckpoint,
    GrowthConfig, GrowthReport,
};
pub use subgraph_match::{
    count_occurrences, count_occurrences_capped, CountResult, NullNet, PatternPlan,
};
pub use uniqueness::{uniqueness_scores, uniqueness_scores_supervised, UniquenessConfig};
