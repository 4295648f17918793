//! The four workloads. Each stresses a different layer, so that for
//! every optimisation one workload exercises its mechanism and another
//! bypasses it (README.md, "Which metric each layer should move").

pub mod cluster_wiki;
pub mod serve_mix;
pub mod sweep_wiki;
pub mod sym_kron;
