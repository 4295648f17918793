//! Ground-truth category assignments for external cluster evaluation.
//!
//! Mirrors the paper's setup (§4.1): categories may overlap (a Wikipedia
//! page belongs to multiple categories), and a substantial fraction of nodes
//! may carry no label at all (35% in Wikipedia, 20% in Cora).

use crate::{GraphError, Result};

/// Possibly-overlapping ground-truth categories over `n` nodes.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    n_nodes: usize,
    /// Member node ids per category, each list sorted ascending.
    categories: Vec<Vec<u32>>,
}

impl GroundTruth {
    /// Builds from category membership lists. Lists are sorted and
    /// deduplicated; empty categories are rejected.
    pub fn new(n_nodes: usize, mut categories: Vec<Vec<u32>>) -> Result<Self> {
        for (i, cat) in categories.iter_mut().enumerate() {
            cat.sort_unstable();
            cat.dedup();
            let Some(&last) = cat.last() else {
                return Err(GraphError::Invalid(format!("category {i} is empty")));
            };
            if last as usize >= n_nodes {
                return Err(GraphError::Invalid(format!(
                    "category {i} references node {last} >= n_nodes {n_nodes}"
                )));
            }
        }
        Ok(GroundTruth {
            n_nodes,
            categories,
        })
    }

    /// Builds from a per-node label vector (`None` = unlabeled). Produces
    /// one category per distinct label value.
    pub fn from_labels(labels: &[Option<u32>]) -> Result<Self> {
        let max_label = labels.iter().flatten().copied().max();
        let n_cats = max_label.map_or(0, |m| m as usize + 1);
        let mut categories = vec![Vec::new(); n_cats];
        for (node, l) in labels.iter().enumerate() {
            if let Some(l) = l {
                categories[*l as usize].push(node as u32);
            }
        }
        categories.retain(|c| !c.is_empty());
        GroundTruth::new(labels.len(), categories)
    }

    /// Number of nodes the assignment covers.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of categories.
    pub fn n_categories(&self) -> usize {
        self.categories.len()
    }

    /// Member nodes of category `c`, sorted ascending.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.categories[c]
    }

    /// All categories.
    pub fn categories(&self) -> &[Vec<u32>] {
        &self.categories
    }

    /// Inverted index: for each node, the categories containing it.
    pub fn node_categories(&self) -> Vec<Vec<u32>> {
        let mut idx = vec![Vec::new(); self.n_nodes];
        for (c, members) in self.categories.iter().enumerate() {
            for &m in members {
                idx[m as usize].push(c as u32);
            }
        }
        idx
    }

    /// Number of nodes with at least one category.
    fn n_labeled(&self) -> usize {
        let mut seen = vec![false; self.n_nodes];
        for members in &self.categories {
            for &m in members {
                seen[m as usize] = true;
            }
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Fraction of nodes with no category, as in Table 1's footnotes.
    pub fn unlabeled_fraction(&self) -> f64 {
        if self.n_nodes == 0 {
            return 0.0;
        }
        1.0 - self.n_labeled() as f64 / self.n_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let gt = GroundTruth::new(5, vec![vec![3, 1, 3], vec![4]]).unwrap();
        assert_eq!(gt.members(0), &[1, 3]);
        assert_eq!(gt.n_categories(), 2);
    }

    #[test]
    fn rejects_empty_or_out_of_bounds() {
        assert!(GroundTruth::new(5, vec![vec![]]).is_err());
        assert!(GroundTruth::new(3, vec![vec![5]]).is_err());
    }

    #[test]
    fn from_labels_groups_by_value() {
        let labels = vec![Some(0), Some(1), None, Some(0)];
        let gt = GroundTruth::from_labels(&labels).unwrap();
        assert_eq!(gt.n_categories(), 2);
        assert_eq!(gt.members(0), &[0, 3]);
        assert_eq!(gt.members(1), &[1]);
        assert_eq!(gt.n_labeled(), 3);
        assert!((gt.unlabeled_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overlapping_membership_allowed() {
        let gt = GroundTruth::new(3, vec![vec![0, 1], vec![1, 2]]).unwrap();
        let idx = gt.node_categories();
        assert_eq!(idx[1], vec![0, 1]);
        assert_eq!(gt.n_labeled(), 3);
    }

    #[test]
    fn empty_ground_truth() {
        let gt = GroundTruth::new(0, vec![]).unwrap();
        assert_eq!(gt.n_labeled(), 0);
        assert_eq!(gt.unlabeled_fraction(), 0.0);
    }
}
