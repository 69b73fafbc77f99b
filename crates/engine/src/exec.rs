//! The execution choices of one computation, carried as one value.
//!
//! How a simulation runs never changes what it computes: every pair of
//! choices is pinned bit-identical by the parity suites (`incremental_parity`,
//! `queue_parity`). So an [`Exec`] is handed to a computation explicitly,
//! next to its inputs, and never enters a spec, a cache key or a response.
//! Entry points take it as `foo_with(args, exec: impl Into<Exec>)`; their
//! plain `foo(args)` form runs `Exec::default()`.

use crate::event::QueueKind;
use crate::incremental::SolverMode;
use netpart_telemetry::Telemetry;

/// Execution choices of one computation. The default runs the batch solver
/// on the calendar queue with telemetry disabled.
#[derive(Debug, Clone, Default)]
pub struct Exec {
    /// Max–min solver of every [`FluidSim`](crate::FluidSim) the
    /// computation builds.
    pub solver: SolverMode,
    /// Event-queue core of every [`Simulation`](crate::Simulation) the
    /// computation builds.
    pub queue: QueueKind,
    /// Sink for the computation's spans and events.
    pub telemetry: Telemetry,
}

impl Exec {
    /// The same solver and queue, reporting through `telemetry`: how a
    /// caller hands a child span's handle to a callee.
    pub fn with_telemetry(&self, telemetry: &Telemetry) -> Exec {
        Exec {
            solver: self.solver,
            queue: self.queue,
            telemetry: telemetry.clone(),
        }
    }
}

/// A bare solver mode, everything else default. Exists only so that the
/// socket benchmark (`perfbench/`), which passes a [`SolverMode`] to the
/// `_with` entry points, keeps compiling; drop it when that benchmark is
/// ported to build an [`Exec`].
impl From<SolverMode> for Exec {
    fn from(solver: SolverMode) -> Self {
        Exec {
            solver,
            ..Exec::default()
        }
    }
}
