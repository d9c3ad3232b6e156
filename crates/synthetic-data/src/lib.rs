#![forbid(unsafe_code)]
//! Synthetic substitutes for the paper's datasets (DESIGN.md §5).
//!
//! * [`paper_example`] — the worked example of Figures 1–4 and Tables
//!   1–4, with the DAG reconstruction that reproduces Table 1 exactly;
//! * [`go_gen`] — synthetic three-namespace GO DAG generator;
//! * [`modules`] — planted network modules (complexes, regulons, rings);
//! * [`annotate`] — structure-correlated annotation generator;
//! * [`yeast`] — BIND-scale interactome (4141 proteins / 7095 edges);
//! * [`mips`] — MIPS-scale dataset (1877 proteins / 2448 interactions,
//!   13 top functional categories) for the Fig. 9 prediction benchmark.

pub mod annotate;
pub mod go_gen;
pub mod mips;
pub mod modules;
pub mod paper_example;
pub mod yeast;

pub use annotate::{annotate_network, pick_themes, AnnotateConfig, ModuleTheme};
pub use go_gen::{generate_ontology, leaf_terms, top_categories, GoGenConfig};
pub use mips::{MipsConfig, MipsDataset};
pub use modules::{add_background, plant_modules, ModuleKind, PlantedModule};
pub use paper_example::PaperExample;
pub use yeast::{YeastConfig, YeastDataset};
