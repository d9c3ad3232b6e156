#![forbid(unsafe_code)]
//! Graph substrate for the LaMoFinder reproduction.
//!
//! This crate provides everything the motif-mining pipeline needs from a
//! graph library, implemented from scratch:
//!
//! * [`Graph`] / [`GraphBuilder`] — simple undirected graphs with sorted
//!   adjacency lists ([`graph`]);
//! * classic algorithms — BFS, connectivity, components, clustering
//!   coefficients ([`algo`]);
//! * VF2-style (sub)graph isomorphism with pinning support
//!   ([`isomorphism`]);
//! * equitable color refinement (1-WL), shared by the isomorphism,
//!   canonical-form and automorphism machinery ([`refinement`]);
//! * exact canonical forms for motif-sized graphs ([`canonical`]);
//! * automorphism orbits — the paper's "symmetric vertex sets"
//!   ([`automorphism`]);
//! * random graph models and the degree-preserving edge-swap
//!   randomization required by motif uniqueness testing ([`random`]);
//! * named PPI networks and an edge-list interchange format ([`io`]);
//! * validated edge deltas for incremental interactome revisions
//!   ([`delta`]).

pub mod algo;
pub mod automorphism;
pub mod bits;
pub mod canonical;
pub mod delta;
pub mod graph;
pub mod io;
pub mod isomorphism;
pub mod random;
pub mod refinement;

pub use automorphism::{automorphism_orbits, symmetric_vertex_sets};
pub use bits::AdjBits;
pub use canonical::{
    canonical_form, canonical_graph, canonical_labeling, small_adjacency_bits,
    small_canonical_code, small_graph_from_bits, CanonicalKey, SMALL_CANON_MAX,
};
pub use delta::{DeltaError, EdgeDelta, NormalizedDelta};
pub use graph::{Edge, Graph, GraphBuilder, VertexId};
pub use io::{ParseError, PpiNetwork};
pub use isomorphism::{are_isomorphic, enumerate_isomorphisms, find_isomorphism, Mapping};
