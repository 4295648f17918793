//! Synthetic directed-graph generators with planted ground truth.
//!
//! The paper's conclusion laments that "we are aware of no synthetic graph
//! generators for producing realistic directed graphs with known ground
//! truth clusters". This module provides one — the **shared-link DSBM**
//! ([`dsbm`]) — whose planted clusters are defined the way the paper argues
//! real directed clusters are: members *share in-links and out-links*
//! (Figure 1, the Guzmania case study) rather than linking to each other.
//! It also provides a stochastic Kronecker generator (the paper's ref \[14\])
//! and small deterministic toy graphs used in tests and examples; the
//! DSBM's noise degrees come from an internal power-law sampler.

pub mod dsbm;
pub mod kronecker;
mod powerlaw;
pub mod toy;

pub use dsbm::{shared_link_dsbm, GeneratedGraph, SharedLinkDsbmConfig};
pub use kronecker::{kronecker_graph, KroneckerConfig};
pub use toy::{cycle_graph, figure1_graph, guzmania_graph, star_graph, two_cliques};
