//! Pipeline plans: the explicit DAG of typed stages executed by the
//! engine.
//!
//! A plan for a sweep over `M` symmetrization methods and `C` clusterers
//! contains one shared `Load` node, and per (method, clusterer) pair an
//! independent `Symmetrize → [Prune →] Cluster → Evaluate` chain hanging
//! off it. Symmetrize nodes are deliberately *per pair*, not per method:
//! deduplication is the artifact cache's job (content-addressed by graph
//! fingerprint + method parameters), which also dedupes across separate
//! plans sharing one engine. The DAG's role is ordering and concurrency,
//! not memoization.

use crate::event::StageKind;
use crate::spec::{Clusterer, SymMethod};

/// One node of the pipeline DAG.
#[derive(Debug, Clone)]
pub struct StageNode {
    /// Node id == index into [`Plan::nodes`].
    pub id: usize,
    /// The typed stage this node executes.
    pub kind: StageKind,
    /// Human-readable label for events.
    pub label: String,
    /// Ids of nodes whose artifacts this node consumes.
    pub deps: Vec<usize>,
    /// The symmetrization method (set on Symmetrize/Prune/Cluster/Evaluate
    /// nodes; carried downstream for record assembly).
    pub method: Option<SymMethod>,
    /// The clusterer (set on Cluster/Evaluate nodes).
    pub clusterer: Option<Clusterer>,
    /// The extra prune threshold (set on Prune nodes only).
    pub prune_threshold: Option<f64>,
}

#[expect(
    clippy::expect_used,
    reason = "plan construction guarantees the field; a None is a Plan::build bug"
)]
impl StageNode {
    /// The method of a Symmetrize, Prune, Cluster or Evaluate node.
    pub(crate) fn planned_method(&self) -> SymMethod {
        self.method.expect("node has a method")
    }

    /// The clusterer of a Cluster or Evaluate node.
    pub(crate) fn planned_clusterer(&self) -> Clusterer {
        self.clusterer.expect("node has a clusterer")
    }

    /// The threshold of a Prune node.
    pub(crate) fn planned_threshold(&self) -> f64 {
        self.prune_threshold.expect("node has a threshold")
    }
}

/// Declarative description of a sweep: which methods × which clusterers,
/// with an optional extra prune pass between them.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Stage-1 methods to sweep.
    pub methods: Vec<SymMethod>,
    /// Stage-2 clusterers to sweep.
    pub clusterers: Vec<Clusterer>,
    /// When set, insert a `Prune` stage thresholding each symmetrized
    /// graph at this value before clustering (§3.5 post-hoc sparsification).
    pub extra_prune: Option<f64>,
}

/// A fully-built DAG ready for execution.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Nodes in id order. Dependencies always point to lower ids, so id
    /// order is a valid topological order.
    pub nodes: Vec<StageNode>,
}

impl Plan {
    /// Builds the DAG for a spec. Node 0 is always the shared Load node.
    pub fn build(spec: &PipelineSpec) -> Plan {
        let mut nodes = Vec::new();
        nodes.push(StageNode {
            id: 0,
            kind: StageKind::Load,
            label: "input graph".to_string(),
            deps: vec![],
            method: None,
            clusterer: None,
            prune_threshold: None,
        });
        for &method in &spec.methods {
            for &clusterer in &spec.clusterers {
                let sym_id = nodes.len();
                nodes.push(StageNode {
                    id: sym_id,
                    kind: StageKind::Symmetrize,
                    label: method.name(),
                    deps: vec![0],
                    method: Some(method),
                    clusterer: None,
                    prune_threshold: None,
                });
                let mut upstream = sym_id;
                if let Some(t) = spec.extra_prune {
                    let prune_id = nodes.len();
                    nodes.push(StageNode {
                        id: prune_id,
                        kind: StageKind::Prune,
                        label: format!("{} @ {t}", method.name()),
                        deps: vec![sym_id],
                        method: Some(method),
                        clusterer: None,
                        prune_threshold: Some(t),
                    });
                    upstream = prune_id;
                }
                let cluster_id = nodes.len();
                nodes.push(StageNode {
                    id: cluster_id,
                    kind: StageKind::Cluster,
                    label: format!("{} + {}", method.name(), clusterer.label()),
                    deps: vec![upstream],
                    method: Some(method),
                    clusterer: Some(clusterer),
                    prune_threshold: None,
                });
                nodes.push(StageNode {
                    id: cluster_id + 1,
                    kind: StageKind::Evaluate,
                    label: format!("{} + {}", method.name(), clusterer.label()),
                    deps: vec![cluster_id],
                    method: Some(method),
                    clusterer: Some(clusterer),
                    prune_threshold: None,
                });
            }
        }
        Plan { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan is empty (it never is — Load is always present).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// In-degree of every node (dependencies not yet satisfied at start).
    pub(crate) fn indegrees(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.deps.len()).collect()
    }

    /// Reverse adjacency: for each node, who depends on it.
    pub(crate) fn dependents(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &d in &n.deps {
                out[d].push(n.id);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(extra_prune: Option<f64>) -> PipelineSpec {
        PipelineSpec {
            methods: SymMethod::lineup(0.0, 0.0),
            clusterers: vec![
                Clusterer::MlrMcl { inflation: 2.0 },
                Clusterer::Metis { k: 5 },
            ],
            extra_prune,
        }
    }

    #[test]
    fn node_counts_match_sweep_size() {
        // 1 load + 4×2 × (sym + cluster + eval) = 25.
        let plan = Plan::build(&spec(None));
        assert_eq!(plan.len(), 25);
        // With prune: 1 + 8 × 4 = 33.
        let plan = Plan::build(&spec(Some(1.0)));
        assert_eq!(plan.len(), 33);
        assert!(!plan.is_empty());
    }

    #[test]
    fn ids_are_topological() {
        let plan = Plan::build(&spec(Some(0.5)));
        for n in &plan.nodes {
            assert_eq!(n.id, plan.nodes.iter().position(|m| m.id == n.id).unwrap());
            for &d in &n.deps {
                assert!(d < n.id, "dep {d} does not precede node {}", n.id);
            }
        }
    }

    #[test]
    fn load_fans_out_to_every_symmetrize_node() {
        let plan = Plan::build(&spec(None));
        let deps_on_load = plan.dependents()[0].len();
        assert_eq!(deps_on_load, 8); // 4 methods × 2 clusterers
        let indeg = plan.indegrees();
        assert_eq!(indeg[0], 0);
        assert!(indeg.iter().skip(1).all(|&d| d == 1));
    }

    #[test]
    fn evaluate_nodes_carry_method_and_clusterer() {
        let plan = Plan::build(&spec(None));
        for n in &plan.nodes {
            match n.kind {
                StageKind::Evaluate | StageKind::Cluster => {
                    assert!(n.method.is_some() && n.clusterer.is_some());
                }
                StageKind::Symmetrize => {
                    assert!(n.method.is_some() && n.clusterer.is_none());
                }
                _ => {}
            }
        }
    }
}
