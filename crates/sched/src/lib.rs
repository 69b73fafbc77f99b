//! Contention-aware job scheduling on partitioned torus machines.
//!
//! The paper closes by observing that allocation decisions could be improved
//! if the scheduler knew whether a job is network-bound: a free but
//! sub-optimal partition might be fine for a compute-bound job, while a
//! contention-bound job is better off waiting for a geometry with optimal
//! internal bisection. This crate turns that observation into a simulator:
//!
//! * [`placement`] — occupancy tracking of the machine's midplane grid and
//!   cuboid placement with wrap-around anchors.
//! * [`trace`] — synthetic job traces (sizes, arrivals, runtimes, contention
//!   hints) with a contention-aware runtime model.
//! * [`policy`] — geometry-oblivious, best-bisection and hint-aware
//!   allocation policies.
//! * [`engine_sim`] — FCFS discrete-event simulation expressed as a
//!   `netpart-engine` component (composable with other engine scenarios).
//! * [`simulator`] — per-job outcomes, per-policy metrics (wait, slowdown,
//!   contention penalty, utilization) and policy comparison.
//!
//! # Example
//!
//! ```
//! use netpart_sched::{generate_trace, simulate_events, SchedPolicy, TraceConfig};
//! use netpart_machines::known;
//!
//! let juqueen = known::juqueen();
//! let trace = generate_trace(&TraceConfig::default_for(&juqueen, 30, 1));
//! let metrics = simulate_events(&juqueen, SchedPolicy::HintAware { tolerance: 0.99 }, &trace);
//! // Every contention-bound job received a geometry with optimal bisection.
//! assert_eq!(metrics.outcomes.len(), 30);
//! assert!(metrics.optimal_geometry_fraction() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod engine_sim;
pub mod placement;
pub mod policy;
pub mod simulator;
pub mod trace;

pub use engine_sim::{simulate_events, simulate_events_with};
pub use placement::{OccupancyGrid, Placement};
pub use policy::SchedPolicy;
pub use simulator::{compare_policies, JobOutcome, RunMetrics};
pub use trace::{generate_trace, Job, TraceConfig};
