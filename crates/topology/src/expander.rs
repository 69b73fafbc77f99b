//! Circulant expander networks (Xpander-style comparison topologies).
//!
//! The paper's introduction lists "improving global network properties such
//! as bisection bandwidth, edge-expansion" (citing Xpander-style expander
//! datacenters) among the contention-mitigation approaches its partition
//! analysis complements. This module provides a deterministic family of
//! circulant graphs — Cayley graphs of `Z_n` with a symmetric generator set —
//! that serve as the expander baseline in comparisons: with well-spread
//! generators their algebraic connectivity far exceeds a torus of equal
//! degree, which is exactly the property that makes their partitions hard to
//! improve by re-shaping.

use crate::Topology;

/// A circulant graph `C_n(S)`: vertex `v` is adjacent to `v ± s (mod n)` for
/// every generator `s ∈ S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circulant {
    n: usize,
    generators: Vec<usize>,
}

impl Circulant {
    /// Create a circulant graph on `n` vertices with the given generator set.
    ///
    /// Generators must be distinct, non-zero and at most `n / 2`. A generator
    /// equal to exactly `n / 2` (when `n` is even) contributes a single link
    /// per vertex pair; all others contribute two.
    ///
    /// # Panics
    /// Panics if `n < 2`, the generator list is empty, or a generator is out
    /// of range or repeated.
    pub fn new(n: usize, mut generators: Vec<usize>) -> Self {
        assert!(n >= 2, "circulant graphs need at least 2 vertices");
        assert!(!generators.is_empty(), "at least one generator required");
        generators.sort_unstable();
        for w in generators.windows(2) {
            assert_ne!(w[0], w[1], "repeated generator {}", w[0]);
        }
        for &s in &generators {
            assert!(
                s >= 1 && s <= n / 2,
                "generator {s} out of range 1..={}",
                n / 2
            );
        }
        Self { n, generators }
    }

    /// A degree-`2k` expander with generators spread geometrically:
    /// `round(n^(i/k))` for `i = 0 … k − 1`, bumped to the next free value on
    /// collisions. The mix of short and long chords gives a much smaller
    /// diameter and a much larger spectral gap than a ring of the same size,
    /// deterministically and without randomness.
    ///
    /// # Panics
    /// Panics if `k` is zero or `n < 2 · n^((k−1)/k)` (the generators would
    /// not fit below `n / 2`).
    pub fn spread(n: usize, k: usize) -> Self {
        assert!(k >= 1, "need at least one generator");
        let mut generators = Vec::with_capacity(k);
        for i in 0..k {
            let mut g = (n as f64).powf(i as f64 / k as f64).round() as usize;
            g = g.max(1);
            while generators.contains(&g) {
                g += 1;
            }
            assert!(
                g <= n / 2,
                "generator {g} exceeds n/2 = {}; reduce k for n = {n}",
                n / 2
            );
            generators.push(g);
        }
        Self::new(n, generators)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The generator set, sorted ascending.
    pub fn generators(&self) -> &[usize] {
        &self.generators
    }
}

impl Topology for Circulant {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(2 * self.generators.len());
        for &s in &self.generators {
            let forward = (v + s) % self.n;
            let backward = (v + self.n - s) % self.n;
            out.push((forward, 1.0));
            if forward != backward {
                out.push((backward, 1.0));
            }
        }
        out
    }

    fn name(&self) -> String {
        format!("circulant(n={}, S={:?})", self.n, self.generators)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_the_single_generator_circulant() {
        let ring = Circulant::new(8, vec![1]);
        assert_eq!(ring.num_nodes(), 8);
        assert!(ring.is_regular());
        assert_eq!(ring.degree(0), 2);
        assert_eq!(ring.num_links(), 8);
        assert!(ring.to_graph().is_connected());
    }

    #[test]
    fn antipodal_generator_contributes_one_link() {
        let g = Circulant::new(8, vec![4]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.num_links(), 4);
    }

    #[test]
    fn spread_generators_are_distinct_and_in_range() {
        for (n, k) in [(64usize, 3usize), (100, 4), (256, 4)] {
            let g = Circulant::spread(n, k);
            assert_eq!(g.generators().len(), k);
            let mut sorted = g.generators().to_vec();
            sorted.dedup();
            assert_eq!(sorted.len(), k);
            assert!(g.to_graph().is_connected(), "n={n}, k={k}");
        }
    }

    #[test]
    fn spread_chords_beat_the_ring_decisively() {
        // Adding geometrically spread chords to the 64-ring divides the
        // diameter by more than 4 at the cost of raising the degree from 2
        // to 6 — the qualitative property that makes expander datacenters a
        // different regime from tori in the paper's related-work discussion.
        let expander = Circulant::spread(64, 3);
        assert_eq!(expander.degree(0), 6);
        let ring = Circulant::new(64, vec![1]);
        let expander_diameter = expander.to_graph().diameter();
        let ring_diameter = ring.to_graph().diameter();
        assert_eq!(ring_diameter, 32);
        assert!(
            4 * expander_diameter < ring_diameter,
            "expander {expander_diameter} vs ring {ring_diameter}"
        );
    }

    #[test]
    fn cut_identity_holds() {
        // Equation (1) of the paper on a non-torus regular topology.
        let g = Circulant::spread(30, 3);
        let k = g.degree(0);
        let subset: Vec<usize> = (0..10).collect();
        let ind = crate::indicator(g.num_nodes(), &subset);
        let interior = g.interior_size(&ind);
        let cut = g.cut_size(&ind);
        assert_eq!(k * 10, 2 * interior + cut);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_generator_rejected() {
        let _ = Circulant::new(8, vec![5]);
    }

    #[test]
    #[should_panic(expected = "repeated generator")]
    fn repeated_generator_rejected() {
        let _ = Circulant::new(8, vec![2, 2]);
    }
}
