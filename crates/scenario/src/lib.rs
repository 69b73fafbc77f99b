//! Declarative scenarios over the `netpart-engine` substrate.
//!
//! This crate is the third layer of the workspace's simulation stack
//! (topology → engine → **scenario** → service): a typed, serializable
//! vocabulary that names every simulation the engine can run — topology ×
//! routing × traffic × allocator/policy × seed — plus a registry of named
//! scenarios and a rayon-parallel sweep runner.
//!
//! Before this layer existed, every workload was a bespoke binary wired to
//! one simulator; now a workload is a [`ScenarioSpec`] value:
//!
//! ```
//! use netpart_scenario::{
//!     run_scenario, RoutingSpec, ScenarioSpec, TopologySpec, TrafficSpec,
//! };
//!
//! let spec = ScenarioSpec {
//!     topology: TopologySpec::Torus(vec![8, 8, 4, 4, 2]),
//!     routing: RoutingSpec::DimensionOrdered,
//!     traffic: TrafficSpec::paper_pairing(),
//!     seed: 0,
//! };
//! let result = run_scenario(&spec).unwrap();
//! assert!(result.makespan > 0.0);
//! assert_eq!(result.units, result.nodes); // one pairing flow per node
//! ```
//!
//! Sweeps fan specs out across the rayon pool and return one canonical
//! [`ScenarioResult`] (or [`ScenarioError`]) per spec, in input order:
//!
//! ```
//! use netpart_scenario::{run_sweep, standard_sweep};
//!
//! let results = run_sweep(&standard_sweep()[..4]);
//! assert!(results.iter().all(Result::is_ok));
//! ```
//!
//! The [`advice`] module asks the allocation question on the same
//! vocabulary: an [`AdviceSpec`] names a fabric, a routing algorithm, an
//! allocation size and candidate generators, and [`run_advice`] returns the
//! candidates ranked by simulated exchange time next to their fabric-generic
//! contention lower bounds:
//!
//! ```
//! use netpart_scenario::{run_advice, named_advice};
//!
//! let advice = run_advice(&named_advice("advise-dragonfly").unwrap()).unwrap();
//! let best = advice.best().unwrap();
//! assert!(best.simulated_seconds > 0.0 && best.gap >= 1.0);
//! ```

#![warn(missing_docs)]

pub mod advice;
pub mod registry;
pub mod run;
pub mod spec;

pub use advice::{
    run_advice, run_advice_with, run_allocation_sweep, run_allocation_sweep_with, run_readvise,
    run_readvise_with, score_candidates, score_candidates_reset, AdviceResult, AdviceSpec,
    AllocationSpec, CandidateResult, CandidateScore, MAX_ADVICE_CANDIDATES, MAX_RANDOM_SAMPLES,
};
pub use registry::{
    advice_registry, named, named_advice, registry, standard_allocation_sweep, standard_sweep,
};
pub use run::{
    run_scenario, run_scenario_with, run_sweep, run_sweep_with, ScenarioDetail, ScenarioError,
    ScenarioResult,
};

// Re-exported so sweep drivers can choose how to run and construct a sink
// without a direct `netpart-engine` or `netpart-telemetry` dependency.
pub use netpart_engine::{Exec, FabricPatch, LinkPatch, NodePatch, Telemetry, TelemetryEvent};
pub use spec::{
    build_fabric, check_max_nodes, estimated_size, machine_by_name, AllocatorSpec, FabricError,
    PolicySpec, RoutingSpec, ScenarioSpec, TopologySpec, TrafficSpec, MAX_FABRIC_CHANNELS,
    MAX_FABRIC_NODES, MAX_FLOWS, MAX_JOBS,
};
