//! Edge-isoperimetric analysis of network graphs.
//!
//! This crate implements the mathematical core of *Network Partitioning and
//! Avoidable Contention* (SPAA 2020):
//!
//! * [`bound`] — the Bollobás–Leader inequality for cubic tori (Theorem 2.1)
//!   and the paper's generalization to tori with arbitrary dimension lengths
//!   (Theorem 3.1).
//! * [`cuboid`] — explicit optimal cuboid constructions `S_r` (Lemma 3.2),
//!   enumeration of all cuboid shapes of a given volume, the minimal-cut
//!   cuboid search used by Lemma 3.3, and the minimal-cut profile of every
//!   volume up to half the torus in one lattice pass.
//! * [`bisection`] — bisection bandwidth of tori and of Blue Gene/Q style
//!   networks (the `2·N/L` formula), plus exhaustive bisection for small
//!   graphs.
//! * [`exact`] — brute-force solutions of the edge-isoperimetric problem on
//!   small instances of arbitrary topologies, used to validate the bounds.
//! * [`expansion`] — small-set expansion `h_t(G)` (Section 2), which links
//!   the isoperimetric profile to inevitable-contention lower bounds.
//! * [`harper`] — Harper's exact solution for hypercubes.
//! * [`lindsey`] — Lindsey's exact solution for Cartesian products of cliques
//!   (HyperX networks).
//! * [`weighted`] — weighted-edge variants needed for Dragonfly and
//!   low-dimensional tori with heterogeneous cables.
//!
//! # Example
//!
//! ```
//! use netpart_iso::{bound, bisection, cuboid};
//!
//! // JUQUEEN's network at node granularity: 28 x 8 x 8 x 8 x 2.
//! let dims = [28, 8, 8, 8, 2];
//! // Its bisection bandwidth in links (2 GB/s each): 2 * N / 28 = 2048.
//! assert_eq!(bisection::torus_bisection_links(&dims), 2048);
//!
//! // The Theorem 3.1 lower bound is valid and tight for the optimal half cuboid.
//! let n: u64 = dims.iter().product::<usize>() as u64;
//! let lower = bound::general_torus_bound(&dims, n / 2);
//! let (best, cut) = cuboid::min_cut_cuboid(&dims, n / 2).unwrap();
//! assert!(lower <= cut as f64 + 1e-6);
//! assert_eq!(cut, 2048);
//! assert_eq!(best.iter().product::<usize>() as u64, n / 2);
//! ```

#![warn(missing_docs)]

pub mod bisection;
pub mod bound;
pub mod cuboid;
pub mod exact;
pub mod expansion;
pub mod harper;
pub mod lindsey;
pub mod weighted;

pub use bisection::{bgq_bisection_links, exact_bisection, torus_bisection_links};
pub use bound::{best_r, cubic_torus_bound, general_torus_bound};
pub use cuboid::{construction_sr, enumerate_cuboid_extents, min_cut_cuboid};
pub use exact::{exact_min_cut, exact_min_cut_capacity};
pub use expansion::{cuboid_small_set_expansion, small_set_expansion};
pub use harper::{harper_cut, harper_initial_segment};
pub use lindsey::{lindsey_cut, lindsey_initial_segment};
