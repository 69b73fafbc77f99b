//! Slim Fly (McKay–Miller–Širáň) diameter-2 networks.
//!
//! Section 5 of the paper notes that Slim Fly "is more difficult to analyze
//! in the general case, since the cabling layout varies greatly based on the
//! global network size, necessitating exhaustive search". This module
//! provides the underlying MMS graph construction so that the exhaustive and
//! spectral tools of the workspace have something concrete to search over.
//!
//! For a prime `q ≡ 1 (mod 4)` with primitive root `ξ`, the MMS graph has
//! `2 q²` vertices split into two groups:
//!
//! * `(0, x, y)` with `x, y ∈ Z_q`, adjacent to `(0, x, y′)` iff
//!   `y − y′ ∈ X` where `X = {1, ξ², ξ⁴, …}` (the non-zero squares);
//! * `(1, m, c)` with `m, c ∈ Z_q`, adjacent to `(1, m, c′)` iff
//!   `c − c′ ∈ X′` where `X′ = {ξ, ξ³, …}` (the non-squares);
//! * `(0, x, y)` adjacent to `(1, m, c)` iff `y = m · x + c (mod q)`.
//!
//! The result is `(3q − 1)/2`-regular with diameter 2 — the router graph of
//! the Slim Fly family introduced by Besta and Hoefler.

use crate::Topology;

/// A Slim Fly (MMS) router graph for prime `q ≡ 1 (mod 4)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlimFly {
    q: usize,
    /// Generator set `X` (non-zero quadratic residues of `Z_q`).
    squares: Vec<usize>,
    /// Generator set `X′` (non-residues).
    non_squares: Vec<usize>,
}

fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl SlimFly {
    /// Construct the MMS graph for a prime `q ≡ 1 (mod 4)` (e.g. 5, 13, 17).
    ///
    /// # Panics
    /// Panics if `q` is not a prime congruent to 1 modulo 4.
    pub fn new(q: usize) -> Self {
        assert!(is_prime(q), "q = {q} must be prime");
        assert!(q % 4 == 1, "q = {q} must be congruent to 1 mod 4");
        // Non-zero quadratic residues and non-residues of Z_q.
        let mut squares: Vec<usize> = (1..q).map(|a| a * a % q).collect();
        squares.sort_unstable();
        squares.dedup();
        let non_squares: Vec<usize> = (1..q).filter(|a| !squares.contains(a)).collect();
        Self {
            q,
            squares,
            non_squares,
        }
    }

    /// The field size `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Router degree `(3q − 1)/2`.
    pub fn router_degree(&self) -> usize {
        (3 * self.q - 1) / 2
    }

    /// Decompose a vertex index into `(group, a, b)` with `a, b ∈ Z_q`.
    pub fn coords(&self, v: usize) -> (usize, usize, usize) {
        let q = self.q;
        let group = v / (q * q);
        let rest = v % (q * q);
        (group, rest / q, rest % q)
    }

    /// Vertex index of `(group, a, b)`.
    pub fn index(&self, group: usize, a: usize, b: usize) -> usize {
        group * self.q * self.q + a * self.q + b
    }
}

impl Topology for SlimFly {
    fn num_nodes(&self) -> usize {
        2 * self.q * self.q
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let q = self.q;
        let (group, a, b) = self.coords(v);
        let mut out = Vec::with_capacity(self.router_degree());
        if group == 0 {
            // Intra-group: (0, x, y) ~ (0, x, y + s) for s in X.
            for &s in &self.squares {
                out.push((self.index(0, a, (b + s) % q), 1.0));
            }
            // Cross edges: (0, x, y) ~ (1, m, y - m x).
            for m in 0..q {
                let c = (b + q * q - (m * a) % q) % q;
                out.push((self.index(1, m, c), 1.0));
            }
        } else {
            // Intra-group: (1, m, c) ~ (1, m, c + s) for s in X'.
            for &s in &self.non_squares {
                out.push((self.index(1, a, (b + s) % q), 1.0));
            }
            // Cross edges: (1, m, c) ~ (0, x, m x + c).
            for x in 0..q {
                let y = ((a * x) % q + b) % q;
                out.push((self.index(0, x, y), 1.0));
            }
        }
        out
    }

    fn name(&self) -> String {
        format!("slimfly(q={})", self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q5_structure() {
        let sf = SlimFly::new(5);
        assert_eq!(sf.num_nodes(), 50);
        assert_eq!(sf.router_degree(), 7);
        assert!(sf.is_regular());
        assert_eq!(sf.degree(0), 7);
        // Quadratic residues of Z_5 are {1, 4}.
        assert_eq!(sf.squares, vec![1, 4]);
        assert_eq!(sf.non_squares, vec![2, 3]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        for q in [5usize, 13] {
            let sf = SlimFly::new(q);
            for v in 0..sf.num_nodes() {
                for (u, _) in sf.neighbor_links(v) {
                    assert!(
                        sf.neighbor_links(u).iter().any(|&(w, _)| w == v),
                        "q={q}: edge {v}->{u} has no reverse"
                    );
                }
            }
        }
    }

    #[test]
    fn diameter_is_two() {
        for q in [5usize, 13] {
            let sf = SlimFly::new(q);
            let graph = sf.to_graph();
            assert!(graph.is_connected(), "q={q}");
            assert_eq!(graph.diameter(), 2, "q={q}");
        }
    }

    #[test]
    fn no_self_loops_or_duplicate_edges() {
        let sf = SlimFly::new(5);
        for v in 0..sf.num_nodes() {
            let mut neighbors: Vec<usize> =
                sf.neighbor_links(v).into_iter().map(|(u, _)| u).collect();
            assert!(!neighbors.contains(&v), "self loop at {v}");
            let before = neighbors.len();
            neighbors.sort_unstable();
            neighbors.dedup();
            assert_eq!(neighbors.len(), before, "duplicate neighbour at {v}");
        }
    }

    #[test]
    fn coordinate_round_trip() {
        let sf = SlimFly::new(13);
        for v in [0usize, 12, 13, 168, 169, 337] {
            let (g, a, b) = sf.coords(v);
            assert_eq!(sf.index(g, a, b), v);
        }
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn composite_q_rejected() {
        let _ = SlimFly::new(9);
    }

    #[test]
    #[should_panic(expected = "congruent to 1 mod 4")]
    fn q_three_mod_four_rejected() {
        let _ = SlimFly::new(7);
    }
}
