//! Discrete-event simulation core and topology-generic network fabric.
//!
//! The paper's experiments — and the seed reproduction — simulate exactly one
//! machine shape: a Blue Gene/Q torus, with dimension-ordered routing and an
//! FCFS trace replay. This crate supplies the substrate that frees both
//! simulators from that shape, in three layers:
//!
//! 1. **The event core** ([`event`], [`sim`]) — an event queue with
//!    deterministic `(time, id)` tie-breaking (a bucketed calendar queue by
//!    default, with a binary-heap reference core selected by
//!    [`QueueKind`]), an `f64` clock, typed event payloads, and
//!    component/handler registration in the style of dslab: components
//!    implement [`Component`] and exchange payloads through
//!    [`Context::emit`].
//! 2. **The fabric** ([`fabric`], [`router`], [`maxmin`], [`fluid`]) — any
//!    [`netpart_topology::Topology`] becomes a [`Fabric`] of directed
//!    channels; a [`Router`] (dimension-ordered on tori, shortest-path /
//!    ECMP / Valiant anywhere) assigns channel paths; the max–min fair fluid
//!    core turns routed flows into completion times. This is the only flow
//!    simulator in the workspace: the paper's torus experiments run through
//!    it too.
//! 3. **Scenarios** ([`flowsim`], [`cluster`]) — the flow simulation (one
//!    fluid run to completion) and a dynamic job-stream scheduler (an
//!    engine component), both running unchanged on tori, Dragonflies,
//!    fat-trees, Slim Flies, expanders and hypercubes.
//!
//! How a computation runs — solver mode, queue core, telemetry sink — is
//! one [`Exec`] value passed in explicitly ([`exec`]); no choice changes an
//! answer, and none is process-global.
//!
//! # The event model
//!
//! A simulation owns a clock (seconds, `f64`), a queue of [`Event`]s and a
//! set of components. Each event carries a *typed* payload: a scenario
//! defines one payload enum and every component matches on it — there is no
//! downcasting. Events scheduled for the same instant are delivered in the
//! order they were scheduled (the queue breaks ties by event id), which makes
//! every run bit-reproducible. Delivering an event hands the component a
//! [`Context`] through which it reads the clock ([`Context::time`]) and
//! schedules or cancels future events ([`Context::emit`],
//! [`Context::cancel`]).
//!
//! # Writing a new scenario
//!
//! 1. Define the payload enum and the per-component state.
//! 2. Implement [`Component`] for each piece of state; handle each payload
//!    variant and `emit` follow-up events.
//! 3. Register the components with [`Simulation::add_component`], seed the
//!    initial events with [`Simulation::schedule`], and call
//!    [`Simulation::run`].
//! 4. Publish results through an `Rc<RefCell<…>>` handle shared between the
//!    component and the caller (see [`cluster`] for a stateful example).
//!
//! ```
//! use netpart_engine::{Component, Context, Event, Simulation};
//! use std::{cell::RefCell, rc::Rc};
//!
//! #[derive(Clone)]
//! enum Tick { Once(u32) }
//!
//! struct Counter { seen: Rc<RefCell<Vec<(f64, u32)>>> }
//!
//! impl Component<Tick> for Counter {
//!     fn on_event(&mut self, event: Event<Tick>, ctx: &mut Context<'_, Tick>) {
//!         let Tick::Once(n) = event.payload;
//!         self.seen.borrow_mut().push((ctx.time(), n));
//!         if n > 0 {
//!             ctx.emit_self(Tick::Once(n - 1), 2.5);
//!         }
//!     }
//! }
//!
//! let seen = Rc::new(RefCell::new(Vec::new()));
//! let mut sim = Simulation::new();
//! let id = sim.add_component("counter", Box::new(Counter { seen: seen.clone() }));
//! sim.schedule(1.0, id, Tick::Once(2));
//! sim.run();
//! assert_eq!(*seen.borrow(), vec![(1.0, 2), (3.5, 1), (6.0, 0)]);
//! ```
//!
//! # Flow simulation on any topology
//!
//! ```
//! use netpart_engine::{simulate_flows, Fabric, Flow, ShortestPath};
//! use netpart_topology::Hypercube;
//!
//! let fabric = Fabric::from_topology(&Hypercube::new(4), 2.0);
//! let flows: Vec<Flow> = (0..16)
//!     .map(|src| Flow { src, dst: 15 - src, gigabytes: 1.0 })
//!     .collect();
//! let result = simulate_flows(&fabric, &ShortestPath, &flows).unwrap();
//! assert!(result.makespan >= result.bottleneck_lower_bound);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod event;
pub mod exec;
pub mod fabric;
pub mod flowsim;
pub mod fluid;
pub mod incremental;
pub mod maxmin;
pub mod router;
pub mod sim;

pub use cluster::{
    simulate_cluster, simulate_cluster_with, synthetic_job_stream, Allocator, BlockedAllocator,
    ClusterJob, ClusterMetrics, ClusterOutcome, CompactAllocator, RandomAllocator,
    ScatterAllocator,
};
pub use error::EngineError;
pub use event::{ComponentId, Event, EventId, EventQueue, QueueKind};
pub use exec::Exec;
pub use fabric::{Channel, Fabric, FabricPatch, LinkPatch, NodePatch};
pub use flowsim::{
    pairing_flows, route_flows, route_flows_csr, simulate_flows, simulate_flows_with,
    static_estimate, Flow,
};
pub use fluid::{FluidOutcome, FluidSim};
pub use incremental::{IncrementalMaxMin, SolverMode};
pub use maxmin::{max_min_rates_csr, max_min_rates_warm, ChannelId, MaxMinScratch};
pub use router::{DimensionOrdered, Ecmp, Router, ShortestPath, TieBreak, Valiant};
pub use sim::{Component, Context, Simulation};

// Re-exported so downstream layers can take a telemetry sink without
// depending on `netpart-telemetry` directly.
pub use netpart_telemetry::{Telemetry, TelemetryEvent};
