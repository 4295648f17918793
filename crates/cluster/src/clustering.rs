//! The result of a clustering: a dense assignment of nodes to clusters.

/// A hard clustering of `n` nodes into `k` clusters labeled `0..k`.
///
/// Every node belongs to exactly one cluster (algorithms that produce
/// singletons simply put such nodes in their own cluster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    assignments: Vec<u32>,
    n_clusters: usize,
    converged: bool,
}

impl Clustering {
    /// Builds from raw assignments, renumbering cluster ids to a dense
    /// `0..k` in order of first appearance.
    pub fn from_assignments(raw: &[u32]) -> Clustering {
        let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut assignments = Vec::with_capacity(raw.len());
        for &c in raw {
            let next = remap.len() as u32;
            let dense = *remap.entry(c).or_insert(next);
            assignments.push(dense);
        }
        Clustering {
            assignments,
            n_clusters: remap.len(),
            converged: true,
        }
    }

    /// Builds the trivial clustering with every node in one cluster.
    pub(crate) fn single_cluster(n: usize) -> Clustering {
        Clustering {
            assignments: vec![0; n],
            n_clusters: usize::from(n > 0),
            converged: true,
        }
    }

    /// Builds the discrete clustering with every node its own cluster.
    pub fn singletons(n: usize) -> Clustering {
        Clustering {
            assignments: (0..n as u32).collect(),
            n_clusters: n,
            converged: true,
        }
    }

    /// Marks whether the producing algorithm converged. Iterative
    /// algorithms (MCL, MLR-MCL) that exhaust their iteration budget return
    /// the best-effort clustering flagged `converged = false` instead of an
    /// opaque error; direct algorithms leave the default `true`.
    pub fn with_converged(mut self, converged: bool) -> Self {
        self.converged = converged;
        self
    }

    /// False when the producing algorithm hit its iteration budget without
    /// converging (the clustering is best-effort).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.assignments.len()
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Cluster id of `node`.
    pub fn cluster_of(&self, node: usize) -> u32 {
        self.assignments[node]
    }

    /// The dense assignment vector.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Member lists per cluster, each sorted ascending.
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.n_clusters];
        for (node, &c) in self.assignments.iter().enumerate() {
            out[c as usize].push(node as u32);
        }
        out
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters];
        for &c in &self.assignments {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// True if two nodes share a cluster.
    pub fn same_cluster(&self, a: usize, b: usize) -> bool {
        self.assignments[a] == self.assignments[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignments_renumbers_densely() {
        let c = Clustering::from_assignments(&[7, 3, 7, 9]);
        assert_eq!(c.n_clusters(), 3);
        assert_eq!(c.assignments(), &[0, 1, 0, 2]);
        assert!(c.same_cluster(0, 2));
        assert!(!c.same_cluster(0, 1));
    }

    #[test]
    fn clusters_and_sizes() {
        let c = Clustering::from_assignments(&[0, 1, 0, 1, 1]);
        assert_eq!(c.clusters(), vec![vec![0, 2], vec![1, 3, 4]]);
        assert_eq!(c.sizes(), vec![2, 3]);
    }

    #[test]
    fn converged_flag_defaults_true_and_is_settable() {
        let c = Clustering::from_assignments(&[0, 1]);
        assert!(c.converged());
        let c = c.with_converged(false);
        assert!(!c.converged());
        assert!(Clustering::single_cluster(2).converged());
        assert!(Clustering::singletons(2).converged());
    }

    #[test]
    fn trivial_constructors() {
        let one = Clustering::single_cluster(4);
        assert_eq!(one.n_clusters(), 1);
        assert!(one.same_cluster(0, 3));
        let disc = Clustering::singletons(3);
        assert_eq!(disc.n_clusters(), 3);
        assert!(!disc.same_cluster(0, 1));
        let empty = Clustering::single_cluster(0);
        assert_eq!(empty.n_clusters(), 0);
        assert_eq!(empty.n_nodes(), 0);
    }
}
