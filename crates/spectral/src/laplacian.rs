//! Sparse graph Laplacians in CSR form.
//!
//! The spectral route to the small-set expansion (Lee, Oveis Gharan and
//! Trevisan, JACM 2014 — reference \[23\] of the paper) works with the
//! eigenvalues of the normalized Laplacian `L = I - D^{-1/2} A D^{-1/2}`.
//! This module builds weighted combinatorial and normalized Laplacians from
//! any [`Topology`] and exposes the matrix–vector products the iterative
//! eigensolver in [`crate::eigen`] needs. Products are parallelised over rows
//! with rayon; the matrices themselves are immutable once built.

use netpart_topology::Topology;
use rayon::prelude::*;

/// A symmetric sparse matrix in compressed sparse row (CSR) form.
///
/// Only the storage needed for matrix–vector products is kept: row offsets,
/// column indices and values. Symmetry is by construction (both `(u, v)` and
/// `(v, u)` entries are stored) and is relied upon by the eigensolver.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build a CSR matrix from triplets `(row, col, value)`.
    ///
    /// Duplicate `(row, col)` entries are summed. Entries must satisfy
    /// `row < n` and `col < n`.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(r, c, v) in triplets {
            assert!(
                r < n && c < n,
                "triplet index ({r}, {c}) out of range 0..{n}"
            );
            per_row[r].push((c, v));
        }
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_offsets.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let col = row[i].0;
                let mut sum = 0.0;
                while i < row.len() && row[i].0 == col {
                    sum += row[i].1;
                    i += 1;
                }
                col_indices.push(col);
                values.push(sum);
            }
            row_offsets.push(col_indices.len());
        }
        Self {
            n,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Matrix dimension (the matrix is `n × n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Parallel matrix–vector product `y = M x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length mismatch");
        (0..self.n)
            .into_par_iter()
            .map(|row| {
                let start = self.row_offsets[row];
                let end = self.row_offsets[row + 1];
                let mut acc = 0.0;
                for k in start..end {
                    acc += self.values[k] * x[self.col_indices[k]];
                }
                acc
            })
            .collect()
    }

    /// Entries of row `row` as `(column, value)` pairs.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_offsets[row];
        let end = self.row_offsets[row + 1];
        (start..end).map(move |k| (self.col_indices[k], self.values[k]))
    }
}

/// A graph Laplacian together with the degree data needed to interpret its
/// spectrum.
#[derive(Debug, Clone)]
pub struct Laplacian {
    matrix: CsrMatrix,
    /// Weighted degree (sum of incident link capacities) of every node.
    degrees: Vec<f64>,
    /// Whether this is the normalized Laplacian `I - D^{-1/2} A D^{-1/2}`.
    normalized: bool,
}

impl Laplacian {
    /// Weighted combinatorial Laplacian `L = D - A` of a topology.
    pub fn combinatorial<T: Topology>(topo: &T) -> Self {
        let n = topo.num_nodes();
        let mut triplets = Vec::new();
        let mut degrees = vec![0.0; n];
        for (u, degree) in degrees.iter_mut().enumerate() {
            for (v, cap) in topo.neighbor_links(u) {
                *degree += cap;
                triplets.push((u, v, -cap));
            }
        }
        for (u, &d) in degrees.iter().enumerate() {
            triplets.push((u, u, d));
        }
        Self {
            matrix: CsrMatrix::from_triplets(n, &triplets),
            degrees,
            normalized: false,
        }
    }

    /// Normalized Laplacian `L = I - D^{-1/2} A D^{-1/2}` of a topology.
    ///
    /// # Panics
    /// Panics if any node has zero weighted degree (isolated node).
    pub fn normalized<T: Topology>(topo: &T) -> Self {
        let n = topo.num_nodes();
        let mut degrees = vec![0.0; n];
        for (u, degree) in degrees.iter_mut().enumerate() {
            for (_, cap) in topo.neighbor_links(u) {
                *degree += cap;
            }
        }
        assert!(
            degrees.iter().all(|&d| d > 0.0),
            "normalized Laplacian requires every node to have positive degree"
        );
        let mut triplets = Vec::new();
        for u in 0..n {
            for (v, cap) in topo.neighbor_links(u) {
                triplets.push((u, v, -cap / (degrees[u] * degrees[v]).sqrt()));
            }
            triplets.push((u, u, 1.0));
        }
        Self {
            matrix: CsrMatrix::from_triplets(n, &triplets),
            degrees,
            normalized: true,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.matrix.n()
    }

    /// Whether this is the normalized variant.
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    /// Weighted degrees of every node.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// The underlying CSR matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Apply the Laplacian: `y = L x`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.matrix.matvec(x)
    }

    /// An upper bound on the largest eigenvalue of this Laplacian.
    ///
    /// For the normalized Laplacian this is the universal bound 2; for the
    /// combinatorial Laplacian, twice the maximum weighted degree.
    pub fn eigenvalue_upper_bound(&self) -> f64 {
        if self.normalized {
            2.0
        } else {
            2.0 * self.degrees.iter().cloned().fold(0.0, f64::max)
        }
    }

    /// The null-space direction of this Laplacian: the all-ones vector for
    /// the combinatorial Laplacian, `D^{1/2} 1` for the normalized one.
    /// Returned normalized to unit Euclidean length.
    pub fn kernel_vector(&self) -> Vec<f64> {
        let raw: Vec<f64> = if self.normalized {
            self.degrees.iter().map(|d| d.sqrt()).collect()
        } else {
            vec![1.0; self.n()]
        };
        let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
        raw.into_iter().map(|x| x / norm).collect()
    }

    /// The Rayleigh quotient `xᵀ L x / xᵀ x` of a vector.
    ///
    /// # Panics
    /// Panics if `x` is (numerically) the zero vector.
    pub fn rayleigh_quotient(&self, x: &[f64]) -> f64 {
        let lx = self.apply(x);
        let num: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let den: f64 = x.iter().map(|a| a * a).sum();
        assert!(den > 1e-300, "Rayleigh quotient of the zero vector");
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_topology::{Hypercube, Torus};

    #[test]
    fn csr_sums_duplicate_triplets() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        assert_eq!(m.nnz(), 2);
        let y = m.matvec(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn csr_rejects_out_of_range_indices() {
        let _ = CsrMatrix::from_triplets(2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn combinatorial_laplacian_annihilates_constants() {
        let torus = Torus::new(vec![4, 3]);
        let lap = Laplacian::combinatorial(&torus);
        let ones = vec![1.0; torus.num_nodes()];
        let y = lap.apply(&ones);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn normalized_laplacian_annihilates_sqrt_degrees() {
        let cube = Hypercube::new(3);
        let lap = Laplacian::normalized(&cube);
        let kernel = lap.kernel_vector();
        let y = lap.apply(&kernel);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn laplacian_quadratic_form_equals_sum_over_edges() {
        // xᵀ L x = Σ_{(u,v) ∈ E} w_uv (x_u - x_v)² for the combinatorial Laplacian.
        let torus = Torus::new(vec![3, 3]);
        let lap = Laplacian::combinatorial(&torus);
        let x: Vec<f64> = (0..torus.num_nodes()).map(|i| (i as f64).sin()).collect();
        let lx = lap.apply(&x);
        let quad: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let mut edge_sum = 0.0;
        for l in torus.links() {
            edge_sum += l.capacity * (x[l.u] - x[l.v]).powi(2);
        }
        assert!((quad - edge_sum).abs() < 1e-9, "{quad} vs {edge_sum}");
    }

    #[test]
    fn rayleigh_quotient_of_kernel_is_zero() {
        let torus = Torus::new(vec![5, 2]);
        for lap in [
            Laplacian::combinatorial(&torus),
            Laplacian::normalized(&torus),
        ] {
            let k = lap.kernel_vector();
            assert!(lap.rayleigh_quotient(&k).abs() < 1e-12);
        }
    }

    #[test]
    fn degrees_match_topology_capacity() {
        // Each node of a BG/Q-style torus with a length-2 dimension has 10
        // incident links of unit capacity.
        let torus = Torus::new(vec![4, 4, 4, 4, 2]);
        let lap = Laplacian::combinatorial(&torus);
        assert!(lap.degrees().iter().all(|&d| (d - 10.0).abs() < 1e-12));
    }

    #[test]
    fn eigenvalue_upper_bounds() {
        let torus = Torus::new(vec![4, 4]);
        assert_eq!(Laplacian::normalized(&torus).eigenvalue_upper_bound(), 2.0);
        assert_eq!(
            Laplacian::combinatorial(&torus).eigenvalue_upper_bound(),
            8.0
        );
    }
}
