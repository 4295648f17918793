//! Seeded input construction shared by the workloads. The seed only
//! ever reaches code in this package: the program under test sees the
//! generated inputs, never the seed.

use symclust::graph::{DiGraph, GroundTruth};

/// SplitMix64: the benchmark's only random source. Sub-streams are
/// derived by mixing a label into the seed (`Rng::new(seed ^ label)`),
/// so adding a consumer never shifts another consumer's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The same graph and ground truth under a seeded renaming of the nodes.
///
/// `sweep-wiki` runs the repo's canonical Wikipedia stand-in (the paper's
/// corpus is one fixed graph too) and lets the seed choose only how it is
/// presented: node ids, edge order, fingerprints and every cache key
/// change with the seed, the clustering problem does not. A freshly
/// generated graph per seed moved the sweep's R-MCL iteration count, and
/// with it the op time, by ±15 % from seed to seed — the engine exposes
/// no iteration budget to hold it still — where a renaming moves it by
/// under 2 %.
pub fn relabel(g: &DiGraph, truth: &GroundTruth, seed: u64) -> (DiGraph, GroundTruth) {
    let n = g.n_nodes();
    let mut new_id: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut new_id);
    let edges: Vec<(usize, usize)> = g
        .edges()
        .map(|(u, v, _)| (new_id[u], new_id[v as usize]))
        .collect();
    let graph = DiGraph::from_edges(n, &edges).expect("renaming keeps every edge in range");
    let categories = truth
        .categories()
        .iter()
        .map(|members| members.iter().map(|&u| new_id[u as usize] as u32).collect())
        .collect();
    let truth = GroundTruth::new(n, categories).expect("renaming keeps every member in range");
    (graph, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let c = Rng::new(8).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn relabel_keeps_the_graph_up_to_renaming() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let truth = GroundTruth::new(5, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
        let (h, t) = relabel(&g, &truth, 42);
        assert_eq!((h.n_nodes(), h.n_edges()), (5, 4));
        let mut out: Vec<usize> = h.out_degrees();
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 1, 1, 1]);
        let sizes: Vec<usize> = t.categories().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2]);
        // Category members still form the 3-cycle and the single edge.
        let tri = t.members(0);
        let inside = h
            .edges()
            .filter(|&(u, v, _)| tri.contains(&(u as u32)) && tri.contains(&v))
            .count();
        assert_eq!(inside, 3);
        assert_ne!(
            relabel(&g, &truth, 43).0.edges().collect::<Vec<_>>(),
            h.edges().collect::<Vec<_>>()
        );
    }
}
