//! Link-contention lower bounds from isoperimetric data.
//!
//! Ballard et al. (COMHPC 2016, reference \[7\] of the paper) derive lower
//! bounds on the *contention cost* — the number of words the busiest link
//! must carry — of a parallel algorithm on a given network: if every set of
//! `t` processors must exchange `Q(t)` words with its complement, then some
//! link in the minimum cut around the best-connected set of `t` processors
//! carries at least `Q(t) / cut(t)` words, and the contention cost is the
//! maximum of this ratio over all scales `t ≤ P/2`.
//!
//! For the kernels modelled in [`crate::kernels`] we use the uniform-spread
//! crossing model `Q(t) = W · t · (P − t) / P`, which is exact for
//! all-to-all-like patterns (FFT transposes, CAPS BFS exchanges between
//! random partner groups) and a documented lower-bound-preserving relaxation
//! for the rest: at the bisection it reduces to the familiar `W · P / 4`
//! words crossing `cut(P/2)` links.
//!
//! `cut(t)` is the smallest cuboid cut of volume `t` (the edge-isoperimetric
//! analysis of Section 3). One lattice pass
//! ([`netpart_iso::cuboid::min_cut_profile`]) yields it for every `t ≤ P/2`
//! at once, in `O(P·D)` time for a `D`-dimensional partition of `P` nodes,
//! and the bound walks that profile in ascending `t`.

use crate::kernels::Kernel;
use netpart_iso::cuboid::min_cut_profile;

/// Bytes per word used to convert word counts into seconds (double precision).
pub const BYTES_PER_WORD: f64 = 8.0;

/// A contention lower bound for one kernel on one partition geometry.
#[derive(Debug, Clone)]
pub struct ContentionBound {
    /// Words the busiest link must carry.
    pub words_on_busiest_link: f64,
    /// The corresponding time lower bound in seconds.
    pub seconds: f64,
    /// The set size `t` attaining the bound.
    pub critical_scale: u64,
    /// Cut size (links) of the isoperimetric-optimal cuboid at the critical scale.
    pub cut_links: u64,
    /// Whether the critical scale is the bisection `P/2` (the paper's claim
    /// that the small-set expansion is attained at the bisection).
    pub attained_at_bisection: bool,
}

/// Model tying a kernel to the physical link parameters of the machine.
#[derive(Debug, Clone, Copy)]
pub struct ContentionModel {
    /// The kernel being executed.
    pub kernel: Kernel,
    /// Bandwidth of a single link in gigabytes per second per direction
    /// (2.0 for Blue Gene/Q).
    pub link_bandwidth_gbs: f64,
}

impl ContentionModel {
    /// A model with the Blue Gene/Q link bandwidth of 2 GB/s per direction.
    pub fn bgq(kernel: Kernel) -> Self {
        Self {
            kernel,
            link_bandwidth_gbs: 2.0,
        }
    }

    /// Compute the contention lower bound of this kernel on a partition whose
    /// node-level torus dimensions are `node_dims`, with one rank per node.
    ///
    /// The bound is the largest `Q(t) / cut(t)` over the achievable cuboid
    /// volumes `t ≤ P/2`, visited in ascending order so the smallest maximising
    /// scale wins ties. The cuts come from one pass over the extent lattice
    /// ([`min_cut_profile`]): `O(P·D)` time and `O(P)` memory for `P` nodes in
    /// `D` dimensions.
    ///
    /// # Panics
    /// Panics if the partition has fewer than 2 nodes.
    pub fn contention_bound(&self, node_dims: &[usize]) -> ContentionBound {
        let p: u64 = node_dims.iter().map(|&a| a as u64).product();
        assert!(
            p >= 2,
            "a partition of {p} node(s) has no internal links to contend for"
        );
        let words = self.kernel.words_per_proc(p);
        let mut best = ContentionBound {
            words_on_busiest_link: 0.0,
            seconds: 0.0,
            critical_scale: p / 2,
            cut_links: 0,
            attained_at_bisection: true,
        };
        for (t, &cut) in min_cut_profile(node_dims).iter().enumerate() {
            // 0 marks a volume no cuboid realises.
            if cut == 0 {
                continue;
            }
            let t = t as u64;
            // Uniform-spread crossing volume Q(t) = W · t · (P - t) / P.
            let crossing = words * t as f64 * (p - t) as f64 / p as f64;
            let per_link = crossing / cut as f64;
            if per_link > best.words_on_busiest_link {
                best.words_on_busiest_link = per_link;
                best.critical_scale = t;
                best.cut_links = cut;
                best.attained_at_bisection = t == p / 2;
            }
        }
        best.seconds =
            best.words_on_busiest_link * BYTES_PER_WORD / (self.link_bandwidth_gbs * 1e9);
        best
    }

    /// Predicted contention-time ratio between two equal-sized partition
    /// geometries (`worse / better`): the speedup a contention-bound
    /// execution gains from the better geometry.
    ///
    /// # Panics
    /// Panics if the two geometries have different node counts.
    pub fn geometry_speedup(&self, worse_dims: &[usize], better_dims: &[usize]) -> f64 {
        let pw: u64 = worse_dims.iter().map(|&a| a as u64).product();
        let pb: u64 = better_dims.iter().map(|&a| a as u64).product();
        assert_eq!(pw, pb, "geometry comparison requires equal node counts");
        let worse = self.contention_bound(worse_dims);
        let better = self.contention_bound(better_dims);
        if better.seconds <= 0.0 {
            1.0
        } else {
            worse.seconds / better.seconds
        }
    }
}

/// How the runtime of a kernel on a partition is expected to be dominated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeRegime {
    /// Link contention is the largest lower-bound term: improving the
    /// partition geometry translates directly into wall-clock speedup.
    ContentionBound,
    /// Per-node injection bandwidth dominates: geometry changes move the
    /// contention term but not the critical path.
    BandwidthBound,
    /// Computation dominates: the network is not the bottleneck.
    ComputeBound,
}

/// Lower-bound terms (all in seconds) of one kernel on one partition.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeBreakdown {
    /// The link-contention lower bound.
    pub contention_seconds: f64,
    /// The per-node injection-bandwidth lower bound (`W` words through one
    /// node's links).
    pub bandwidth_seconds: f64,
    /// The computation lower bound.
    pub compute_seconds: f64,
}

impl RuntimeBreakdown {
    /// The dominant term.
    pub fn regime(&self) -> RuntimeRegime {
        if self.contention_seconds >= self.bandwidth_seconds
            && self.contention_seconds >= self.compute_seconds
        {
            RuntimeRegime::ContentionBound
        } else if self.bandwidth_seconds >= self.compute_seconds {
            RuntimeRegime::BandwidthBound
        } else {
            RuntimeRegime::ComputeBound
        }
    }

    /// The overall runtime lower bound (maximum of the three terms).
    pub fn lower_bound_seconds(&self) -> f64 {
        self.contention_seconds
            .max(self.bandwidth_seconds)
            .max(self.compute_seconds)
    }

    /// Fraction of the lower bound attributable to contention; the closer to
    /// one, the larger the payoff of a better partition geometry.
    pub fn contention_fraction(&self) -> f64 {
        let lb = self.lower_bound_seconds();
        if lb <= 0.0 {
            0.0
        } else {
            self.contention_seconds / lb
        }
    }
}

/// Parameters of the node hardware needed to place the contention bound next
/// to the compute and injection-bandwidth bounds.
#[derive(Debug, Clone, Copy)]
pub struct NodeModel {
    /// Sustained floating-point rate of one node in GFLOP/s.
    pub gflops_per_node: f64,
    /// Injection bandwidth of one node in GB/s (all links combined).
    pub injection_gbs: f64,
}

impl NodeModel {
    /// Blue Gene/Q node: 204.8 GFLOP/s peak, 10 links × 2 GB/s injection.
    pub fn bgq() -> Self {
        Self {
            gflops_per_node: 204.8,
            injection_gbs: 20.0,
        }
    }
}

/// Compute the full runtime breakdown of a kernel on a partition.
pub fn runtime_breakdown(
    model: &ContentionModel,
    node: &NodeModel,
    node_dims: &[usize],
) -> RuntimeBreakdown {
    let p: u64 = node_dims.iter().map(|&a| a as u64).product();
    let contention = model.contention_bound(node_dims);
    let words = model.kernel.words_per_proc(p);
    let flops = model.kernel.flops_per_proc(p);
    RuntimeBreakdown {
        contention_seconds: contention.seconds,
        bandwidth_seconds: words * BYTES_PER_WORD / (node.injection_gbs * 1e9),
        compute_seconds: flops / (node.gflops_per_node * 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node-level dims of a Mira partition given midplane-level geometry.
    fn node_dims(midplanes: [usize; 4]) -> Vec<usize> {
        vec![
            midplanes[0] * 4,
            midplanes[1] * 4,
            midplanes[2] * 4,
            midplanes[3] * 4,
            2,
        ]
    }

    #[test]
    fn doubling_the_bisection_halves_the_contention_bound() {
        // Table 1, 4 midplanes: 4x1x1x1 (256 links) vs 2x2x1x1 (512 links).
        let model = ContentionModel::bgq(Kernel::DirectNBody { bodies: 1 << 20 });
        let speedup = model.geometry_speedup(&node_dims([4, 1, 1, 1]), &node_dims([2, 2, 1, 1]));
        assert!((speedup - 2.0).abs() < 1e-9, "speedup {speedup}");
    }

    #[test]
    fn contention_bound_attained_at_bisection_for_bgq_partitions() {
        let model = ContentionModel::bgq(Kernel::ClassicalMatmul { n: 8192 });
        for geometry in [[4usize, 1, 1, 1], [2, 2, 1, 1], [4, 2, 1, 1], [2, 2, 2, 1]] {
            let bound = model.contention_bound(&node_dims(geometry));
            assert!(bound.attained_at_bisection, "geometry {geometry:?}");
        }
    }

    #[test]
    fn contention_bound_scales_linearly_with_words() {
        let dims = node_dims([2, 2, 1, 1]);
        let small = ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 1e6,
            flops_per_proc: 1.0,
        })
        .contention_bound(&dims);
        let large = ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 2e6,
            flops_per_proc: 1.0,
        })
        .contention_bound(&dims);
        assert!((large.words_on_busiest_link / small.words_on_busiest_link - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bisection_formula_recovered_for_uniform_pattern() {
        // At the bisection the bound is exactly (W * P/4) / cut.
        let dims = node_dims([2, 2, 1, 1]);
        let p: u64 = dims.iter().map(|&a| a as u64).product();
        let w = 1e6;
        let model = ContentionModel::bgq(Kernel::Custom {
            words_per_proc: w,
            flops_per_proc: 1.0,
        });
        let bound = model.contention_bound(&dims);
        assert_eq!(bound.critical_scale, p / 2);
        assert_eq!(bound.cut_links, 512);
        let expected = w * p as f64 / 4.0 / 512.0;
        assert!((bound.words_on_busiest_link - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn better_geometry_never_increases_the_bound() {
        let model = ContentionModel::bgq(Kernel::Fft { n: 1 << 26 });
        let pairs = [
            ([4usize, 1, 1, 1], [2usize, 2, 1, 1]),
            ([4, 2, 1, 1], [2, 2, 2, 1]),
            ([4, 4, 1, 1], [2, 2, 2, 2]),
            ([4, 3, 2, 1], [3, 2, 2, 2]),
        ];
        for (worse, better) in pairs {
            let s = model.geometry_speedup(&node_dims(worse), &node_dims(better));
            assert!(s >= 1.0 - 1e-12, "{worse:?} -> {better:?}: {s}");
        }
    }

    #[test]
    fn nbody_contention_term_grows_faster_with_scale_than_strassen() {
        // Future-work claim: direct N-body has a greater asymptotic contention
        // lower bound than fast matmul, so the relative weight of its
        // contention term (against its own compute term) grows faster as the
        // partition grows. Strong-scale both kernels from 4 to 16 midplanes
        // and compare how much the contention-to-compute ratio inflates.
        let nbody = ContentionModel::bgq(Kernel::DirectNBody { bodies: 1 << 22 });
        let strassen = ContentionModel::bgq(Kernel::StrassenMatmul { n: 32_928 });
        let node = NodeModel::bgq();
        let small = node_dims([2, 2, 1, 1]); // 4 midplanes, best geometry
        let large = node_dims([2, 2, 2, 2]); // 16 midplanes, best geometry
        let ratio = |model: &ContentionModel, dims: &[usize]| {
            let b = runtime_breakdown(model, &node, dims);
            b.contention_seconds / b.compute_seconds
        };
        let nbody_growth = ratio(&nbody, &large) / ratio(&nbody, &small);
        let strassen_growth = ratio(&strassen, &large) / ratio(&strassen, &small);
        assert!(
            nbody_growth > strassen_growth,
            "nbody growth {nbody_growth} vs strassen growth {strassen_growth}"
        );
        assert!(
            nbody_growth > 1.0,
            "contention weight must grow when strong scaling"
        );
    }

    #[test]
    fn regime_classification_is_consistent() {
        let b = RuntimeBreakdown {
            contention_seconds: 3.0,
            bandwidth_seconds: 1.0,
            compute_seconds: 2.0,
        };
        assert_eq!(b.regime(), RuntimeRegime::ContentionBound);
        assert_eq!(b.lower_bound_seconds(), 3.0);
        assert!((b.contention_fraction() - 1.0).abs() < 1e-12);

        let c = RuntimeBreakdown {
            contention_seconds: 0.1,
            bandwidth_seconds: 0.2,
            compute_seconds: 5.0,
        };
        assert_eq!(c.regime(), RuntimeRegime::ComputeBound);
        assert!(c.contention_fraction() < 0.1);
    }

    #[test]
    fn compute_bound_kernel_is_classified_as_such() {
        // A kernel with enormous flops and negligible communication.
        let model = ContentionModel::bgq(Kernel::Custom {
            words_per_proc: 10.0,
            flops_per_proc: 1e15,
        });
        let breakdown = runtime_breakdown(&model, &NodeModel::bgq(), &node_dims([2, 2, 1, 1]));
        assert_eq!(breakdown.regime(), RuntimeRegime::ComputeBound);
    }

    #[test]
    #[should_panic(expected = "equal node counts")]
    fn geometry_comparison_requires_equal_sizes() {
        let model = ContentionModel::bgq(Kernel::Fft { n: 1 << 20 });
        let _ = model.geometry_speedup(&node_dims([4, 1, 1, 1]), &node_dims([2, 1, 1, 1]));
    }

    #[test]
    #[should_panic(expected = "no internal links")]
    fn single_node_partition_rejected() {
        let model = ContentionModel::bgq(Kernel::Fft { n: 1 << 20 });
        let _ = model.contention_bound(&[1, 1]);
    }
}
