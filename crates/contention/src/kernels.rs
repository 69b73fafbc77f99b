//! Per-processor communication-cost models of the kernels the paper's
//! future-work section singles out.
//!
//! The inevitable-contention machinery of Ballard et al. (COMHPC 2016,
//! reference \[7\] of the paper) needs, for every kernel, a lower bound on the
//! number of words each processor must exchange with the rest of the machine.
//! The models below use the published communication lower bounds of the
//! respective communication-optimal algorithms, expressed in words (8-byte
//! values) per processor:
//!
//! * classical matrix multiplication — `Θ(n² / √P)` (Irony–Toledo–Tiskin);
//! * Strassen-Winograd — `Θ(n² / P^{2/ω₀})` with `ω₀ = log₂ 7`
//!   (Ballard–Demmel–Holtz–Lipshitz–Schwartz);
//! * direct N-body (all-pairs) — `Θ(n / √P)` per step with force symmetry,
//!   but `Θ(n)` words of particle data must still stream through each
//!   processor per step without a replication blow-up, which is the regime
//!   the paper's future-work remark refers to;
//! * FFT — `Θ((n/P) · log n / log(n/P))` (transpose algorithm).
//!
//! Absolute constants are irrelevant to the contention *ratios* between
//! partition geometries, which is what the analysis consumes; they matter
//! only when comparing against computation time, so each model also exposes
//! its flop count.

/// A parallel kernel with known communication and computation costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Classical (non-Strassen) dense matrix multiplication of `n × n` matrices.
    ClassicalMatmul {
        /// Matrix dimension.
        n: u64,
    },
    /// Strassen-Winograd fast matrix multiplication of `n × n` matrices.
    StrassenMatmul {
        /// Matrix dimension.
        n: u64,
    },
    /// Direct (all-pairs) N-body force evaluation, one time step.
    DirectNBody {
        /// Number of particles.
        bodies: u64,
    },
    /// Radix-2 fast Fourier transform of `n` points.
    Fft {
        /// Transform length (must be a power of two for the model to be exact).
        n: u64,
    },
    /// A custom kernel with explicitly supplied per-processor costs.
    Custom {
        /// Words each processor must exchange with the rest of the machine.
        words_per_proc: f64,
        /// Floating-point operations per processor.
        flops_per_proc: f64,
    },
}

impl Kernel {
    /// Human-readable kernel name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::ClassicalMatmul { .. } => "classical matmul",
            Kernel::StrassenMatmul { .. } => "Strassen-Winograd matmul",
            Kernel::DirectNBody { .. } => "direct N-body",
            Kernel::Fft { .. } => "FFT",
            Kernel::Custom { .. } => "custom kernel",
        }
    }

    /// Lower bound on the words each processor exchanges with the rest of the
    /// machine when the kernel runs on `p` processors.
    ///
    /// # Panics
    /// Panics if `p` is zero.
    pub fn words_per_proc(&self, p: u64) -> f64 {
        assert!(p >= 1, "at least one processor required");
        let p = p as f64;
        match *self {
            Kernel::ClassicalMatmul { n } => {
                let n = n as f64;
                n * n / p.sqrt()
            }
            Kernel::StrassenMatmul { n } => {
                let n = n as f64;
                let omega0 = 7f64.log2();
                n * n / p.powf(2.0 / omega0)
            }
            Kernel::DirectNBody { bodies } => {
                // One step of the all-pairs computation: every processor must
                // see every particle at least once, minus the n/p it already
                // holds.
                let n = bodies as f64;
                (n - n / p).max(0.0)
            }
            Kernel::Fft { n } => {
                let n = n as f64;
                if p <= 1.0 || n <= p {
                    0.0
                } else {
                    (n / p) * n.log2() / (n / p).log2()
                }
            }
            Kernel::Custom { words_per_proc, .. } => words_per_proc,
        }
    }

    /// Floating-point operations per processor on `p` processors.
    ///
    /// # Panics
    /// Panics if `p` is zero.
    pub fn flops_per_proc(&self, p: u64) -> f64 {
        assert!(p >= 1, "at least one processor required");
        let p = p as f64;
        match *self {
            Kernel::ClassicalMatmul { n } => {
                let n = n as f64;
                2.0 * n * n * n / p
            }
            Kernel::StrassenMatmul { n } => {
                let n = n as f64;
                let omega0 = 7f64.log2();
                // Leading-order flop count of Strassen-Winograd.
                n.powf(omega0) / p
            }
            Kernel::DirectNBody { bodies } => {
                let n = bodies as f64;
                // ~20 flops per pairwise interaction is the usual convention.
                20.0 * n * n / p
            }
            Kernel::Fft { n } => {
                let n = n as f64;
                5.0 * n * n.log2() / p
            }
            Kernel::Custom { flops_per_proc, .. } => flops_per_proc,
        }
    }

    /// Ratio of communication to computation per processor (words per flop).
    ///
    /// Contention matters more for kernels with a higher ratio: the paper's
    /// future-work section predicts a larger partition-geometry impact for
    /// direct N-body than for fast matrix multiplication for exactly this
    /// reason.
    pub fn communication_intensity(&self, p: u64) -> f64 {
        let flops = self.flops_per_proc(p);
        if flops <= 0.0 {
            f64::INFINITY
        } else {
            self.words_per_proc(p) / flops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classical_matmul_words_scale_with_inverse_sqrt_p() {
        let k = Kernel::ClassicalMatmul { n: 1024 };
        let w4 = k.words_per_proc(4);
        let w16 = k.words_per_proc(16);
        assert!((w4 / w16 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn strassen_moves_fewer_words_than_classical() {
        // The whole point of CAPS: asymptotically less communication.
        let n = 32_928;
        let classical = Kernel::ClassicalMatmul { n };
        let strassen = Kernel::StrassenMatmul { n };
        for p in [2048u64, 4096, 8192] {
            assert!(
                strassen.words_per_proc(p) < classical.words_per_proc(p),
                "p = {p}"
            );
        }
    }

    #[test]
    fn nbody_words_approach_total_particle_count() {
        let k = Kernel::DirectNBody { bodies: 1_000_000 };
        let w = k.words_per_proc(4096);
        assert!(w > 0.99e6 && w < 1.0e6);
        // On a single processor nothing needs to move.
        assert_eq!(k.words_per_proc(1), 0.0);
    }

    #[test]
    fn fft_words_vanish_when_problem_fits_on_one_node() {
        let k = Kernel::Fft { n: 1024 };
        assert_eq!(k.words_per_proc(1), 0.0);
        assert_eq!(k.words_per_proc(2048), 0.0);
        assert!(k.words_per_proc(64) > 0.0);
    }

    #[test]
    fn nbody_intensity_grows_faster_with_p_than_strassen() {
        // The future-work claim: direct N-body has a greater asymptotic
        // contention lower bound than fast matmul. In per-processor terms,
        // its words-per-flop ratio grows ~linearly with P (the particle set
        // does not shrink as processors are added) while Strassen's grows
        // only as P^{2/ω₀ - ... } ≈ P^0.29.
        let nbody = Kernel::DirectNBody { bodies: 1_000_000 };
        let strassen = Kernel::StrassenMatmul { n: 32_928 };
        let p = 2048u64;
        let nbody_growth = nbody.communication_intensity(4 * p) / nbody.communication_intensity(p);
        let strassen_growth =
            strassen.communication_intensity(4 * p) / strassen.communication_intensity(p);
        assert!(nbody_growth > 3.9 && nbody_growth < 4.1, "{nbody_growth}");
        assert!(strassen_growth < 2.0, "{strassen_growth}");
        assert!(nbody_growth > strassen_growth);
    }

    #[test]
    fn custom_kernel_reports_given_costs() {
        let k = Kernel::Custom {
            words_per_proc: 123.0,
            flops_per_proc: 456.0,
        };
        assert_eq!(k.words_per_proc(77), 123.0);
        assert_eq!(k.flops_per_proc(77), 456.0);
        assert!((k.communication_intensity(77) - 123.0 / 456.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Kernel::Fft { n: 8 }.words_per_proc(0);
    }
}
