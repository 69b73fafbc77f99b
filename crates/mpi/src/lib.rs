//! Simulated message-passing layer over the engine's flow simulator.
//!
//! The paper's experiments are MPI programs; what matters for contention is
//! not the library machinery but the traffic each operation injects and the
//! placement of ranks on nodes. This crate provides exactly that:
//!
//! * [`mapping`] — rank-to-node task mappings (linear, round-robin, random),
//!   including multi-rank-per-node configurations like Table 3's.
//! * [`comm`] — communicators and group splits (CAPS uses 7-way splits).
//! * [`collectives`] — flow generators for point-to-point exchanges,
//!   broadcasts, allgather/allreduce rings, all-to-all, and the CAPS
//!   group-counterpart exchange, plus [`aggregate_flows`] to merge
//!   rank-level flows into node-level ones.
//! * [`program`] — alternating compute/communication phase execution with
//!   optional communication hiding, producing the computation/communication
//!   breakdowns the paper reports. Each communication phase runs through
//!   [`netpart_engine::simulate_flows`] with dimension-ordered routing on a
//!   torus [`Fabric`](netpart_engine::Fabric) ([`phase_seconds`]).
//!
//! # Example
//!
//! ```
//! use netpart_engine::Fabric;
//! use netpart_mpi::{collectives, mapping::RankMapping, program::{run_program, Program}};
//! use netpart_topology::Torus;
//!
//! // A Blue Gene/Q partition (2 GB/s per link and direction), kept small so
//! // the example runs quickly.
//! let fabric = Fabric::from_torus(Torus::new(vec![4, 4, 4, 2]), 2.0);
//! let ranks = RankMapping::one_rank_per_node(fabric.num_nodes());
//! let mut program = Program::new();
//! program.push_collective("allreduce", collectives::ring_allreduce(&ranks, 0.064));
//! let result = run_program(&fabric, &program);
//! assert!(result.raw_comm_seconds > 0.0);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod mapping;
pub mod program;

pub use collectives::aggregate_flows;
pub use comm::Communicator;
pub use mapping::{MappingStrategy, RankMapping};
pub use program::{phase_seconds, run_program, Program, ProgramPhase, ProgramResult};
