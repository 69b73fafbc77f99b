//! Fast matrix multiplication: local kernels and the CAPS execution model.
//!
//! The paper's application experiments (Sections 4.2 and 4.3) run the
//! communication-avoiding parallel Strassen-Winograd algorithm (CAPS) of
//! Ballard, Lipshitz et al. This crate provides:
//!
//! * [`dense`] — a dense matrix type and classical multiplication kernels
//!   (sequential and rayon-parallel).
//! * [`winograd`] — the shared-memory Strassen-Winograd recursion, used as a
//!   correctness oracle and as the local-compute calibration kernel.
//! * [`caps`] — the CAPS traffic/compute model executed on the engine's
//!   flow simulator: BFS-step group exchanges, rank-count constraints (`f · 7^k`),
//!   and the Table 3 experiment configurations.
//! * [`scaling`] — the Table 4 / Figure 6 strong-scaling experiment.
//!
//! # Example
//!
//! ```
//! use netpart_strassen::dense::{matmul_classical, Matrix};
//! use netpart_strassen::winograd::strassen_winograd;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let a = Matrix::random(32, 32, &mut rng);
//! let b = Matrix::random(32, 32, &mut rng);
//! let fast = strassen_winograd(&a, &b, 8);
//! assert!(fast.max_abs_diff(&matmul_classical(&a, &b)) < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod caps;
pub mod dense;
pub mod scaling;
pub mod winograd;

pub use caps::{mira_table3_configs, run_caps, CapsConfig, CapsRunResult};
pub use dense::{matmul_classical, matmul_parallel, Matrix};
pub use scaling::{mira_table4_plan, run_strong_scaling, ScalingPoint, ScalingResult};
pub use winograd::{strassen_flops, strassen_winograd};
