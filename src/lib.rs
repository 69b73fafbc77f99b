//! # netpart — Network Partitioning and Avoidable Contention
//!
//! A reproduction of Oltchik & Schwartz, *Network Partitioning and Avoidable
//! Contention* (SPAA 2020), packaged as a reusable Rust workspace. This
//! facade crate re-exports the individual components:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`topology`] | torus / mesh / hypercube / HyperX / Dragonfly / fat-tree graph models |
//! | [`iso`] | edge-isoperimetric bounds, cuboid constructions, bisection, small-set expansion |
//! | [`machines`] | Blue Gene/Q machines (Mira, JUQUEEN, Sequoia, hypothetical) and allocation policies |
//! | [`alloc`] | partition-geometry optimization, the paper's tables and figures, scheduling advice |
//! | [`engine`] | discrete-event simulation core, topology-generic fabrics, routers and flow/cluster scenarios (the only flow simulator, tori included) |
//! | [`scenario`] | declarative scenario specs, the named registry and the parallel sweep runner |
//! | [`mpi`] | simulated ranks, task mappings, collectives and phase programs |
//! | [`strassen`] | dense kernels, Strassen-Winograd, and the CAPS distributed execution model |
//! | [`core`] | the high-level analysis / recommendation / experiment API |
//! | [`spectral`] | Laplacians, Fiedler vectors, sweep cuts, Cheeger bounds, spectral bisection |
//! | [`contention`] | kernel communication models and inevitable-contention lower bounds |
//! | [`kernels`] | N-body / FFT / SUMMA traffic generators and the bisection-sensitivity harness |
//! | [`sched`] | contention-aware job scheduler simulator (placement, policies, metrics) |
//! | [`service`] | JSON-lines TCP daemon serving advice/simulation queries with caching and batching |
//!
//! ## Quick start
//!
//! ```
//! use netpart::core::analysis;
//! use netpart::machines::{known, AllocationSystem};
//!
//! let report = analysis::analyze_policy(&AllocationSystem::mira_production());
//! assert_eq!(report.improvable_sizes(), vec![4, 8, 16, 24]);
//! let rec = analysis::recommend(&known::mira(), 24).unwrap();
//! println!("ask for {} ({} links)", rec.geometry, rec.bisection_links);
//! ```

#![warn(missing_docs)]

pub use netpart_alloc as alloc;
pub use netpart_contention as contention;
pub use netpart_core as core;
pub use netpart_engine as engine;
pub use netpart_iso as iso;
pub use netpart_kernels as kernels;
pub use netpart_machines as machines;
pub use netpart_mpi as mpi;
pub use netpart_scenario as scenario;
pub use netpart_sched as sched;
pub use netpart_service as service;
pub use netpart_spectral as spectral;
pub use netpart_strassen as strassen;
pub use netpart_topology as topology;
