//! Phase-structured program execution on the simulated network.
//!
//! A [`Program`] is an alternating sequence of computation and communication
//! phases, which is exactly how the paper reports its matrix-multiplication
//! results: computation time (identical across geometries) and communication
//! time (dependent on the partition geometry), with optional
//! communication-hiding overlap.

use crate::collectives::Phases;
use netpart_engine::{simulate_flows, DimensionOrdered, Fabric, Flow};

/// One step of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPhase {
    /// Human-readable label (appears in traces).
    pub label: String,
    /// Node-level flows injected concurrently in this phase.
    pub flows: Vec<Flow>,
    /// Local computation time of this phase in seconds (identical on every
    /// node; the slowest node determines the phase length).
    pub compute_seconds: f64,
    /// Whether the computation can overlap (hide) the communication of this
    /// phase; if so the phase costs `max(comm, compute)`, otherwise the sum.
    pub overlap: bool,
}

impl ProgramPhase {
    /// A communication-only phase.
    pub fn comm(label: impl Into<String>, flows: Vec<Flow>) -> Self {
        Self {
            label: label.into(),
            flows,
            compute_seconds: 0.0,
            overlap: false,
        }
    }

    /// A computation-only phase.
    pub fn compute(label: impl Into<String>, seconds: f64) -> Self {
        Self {
            label: label.into(),
            flows: Vec::new(),
            compute_seconds: seconds,
            overlap: false,
        }
    }
}

/// A full program: phases executed back to back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// The phases in execution order.
    pub phases: Vec<ProgramPhase>,
}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase.
    pub fn push(&mut self, phase: ProgramPhase) {
        self.phases.push(phase);
    }

    /// Append communication phases produced by a collective generator.
    pub fn push_collective(&mut self, label: &str, phases: Phases) {
        for (i, flows) in phases.into_iter().enumerate() {
            self.push(ProgramPhase::comm(format!("{label}[{i}]"), flows));
        }
    }
}

/// Timing breakdown of a simulated program run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramResult {
    /// Total wall-clock time (seconds).
    pub total_seconds: f64,
    /// Time attributable to communication that was not hidden by overlap.
    pub exposed_comm_seconds: f64,
    /// Total raw communication time (sum of phase communication times,
    /// ignoring overlap).
    pub raw_comm_seconds: f64,
    /// Total computation time.
    pub compute_seconds: f64,
    /// Per-phase `(label, comm_seconds, compute_seconds)` trace.
    pub trace: Vec<(String, f64, f64)>,
}

/// Communication time (seconds) of one phase: `flows` routed with the
/// hardware's dimension-ordered routing on a torus `fabric` and shared
/// max–min fairly until the last one completes; 0 for an empty phase.
///
/// # Panics
/// Panics if `fabric` is not a torus or a flow endpoint is out of range.
pub fn phase_seconds(fabric: &Fabric, flows: &[Flow]) -> f64 {
    if flows.is_empty() {
        return 0.0;
    }
    simulate_flows(fabric, &DimensionOrdered::default(), flows)
        .unwrap_or_else(|e| panic!("torus routing failed: {e}"))
        .makespan
}

/// Execute a program on a torus partition fabric (see [`phase_seconds`]).
///
/// # Panics
/// Panics if `fabric` is not a torus or a flow endpoint is out of range.
pub fn run_program(fabric: &Fabric, program: &Program) -> ProgramResult {
    let mut total = 0.0;
    let mut exposed = 0.0;
    let mut raw_comm = 0.0;
    let mut compute = 0.0;
    let mut trace = Vec::with_capacity(program.phases.len());
    for phase in &program.phases {
        let comm_time = phase_seconds(fabric, &phase.flows);
        raw_comm += comm_time;
        compute += phase.compute_seconds;
        let phase_time = if phase.overlap {
            comm_time.max(phase.compute_seconds)
        } else {
            comm_time + phase.compute_seconds
        };
        exposed += phase_time - phase.compute_seconds.min(phase_time);
        total += phase_time;
        trace.push((phase.label.clone(), comm_time, phase.compute_seconds));
    }
    ProgramResult {
        total_seconds: total,
        exposed_comm_seconds: exposed,
        raw_comm_seconds: raw_comm,
        compute_seconds: compute,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives;
    use crate::mapping::RankMapping;
    use netpart_topology::Torus;

    #[test]
    fn compute_only_program_has_no_comm() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4, 2]), 2.0);
        let mut program = Program::new();
        program.push(ProgramPhase::compute("local", 1.5));
        program.push(ProgramPhase::compute("local2", 0.5));
        let result = run_program(&fabric, &program);
        assert!((result.total_seconds - 2.0).abs() < 1e-12);
        assert_eq!(result.exposed_comm_seconds, 0.0);
        assert_eq!(result.raw_comm_seconds, 0.0);
    }

    #[test]
    fn overlap_hides_the_shorter_component() {
        let fabric = Fabric::from_torus(Torus::new(vec![8]), 2.0);
        let flows = vec![Flow {
            src: 0,
            dst: 1,
            gigabytes: 2.0,
        }]; // 1 second
        let mut program = Program::new();
        program.push(ProgramPhase {
            label: "overlapped".into(),
            flows: flows.clone(),
            compute_seconds: 3.0,
            overlap: true,
        });
        let overlapped = run_program(&fabric, &program);
        assert!((overlapped.total_seconds - 3.0).abs() < 1e-9);
        assert!((overlapped.raw_comm_seconds - 1.0).abs() < 1e-9);

        let mut serial = Program::new();
        serial.push(ProgramPhase {
            label: "serial".into(),
            flows,
            compute_seconds: 3.0,
            overlap: false,
        });
        let serial = run_program(&fabric, &serial);
        assert!((serial.total_seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn collective_phases_accumulate_comm_time() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4, 4, 2]), 2.0);
        let mapping = RankMapping::one_rank_per_node(fabric.num_nodes());
        let mut program = Program::new();
        program.push_collective("allgather", collectives::ring_allgather(&mapping, 0.01));
        let result = run_program(&fabric, &program);
        assert_eq!(result.trace.len(), fabric.num_nodes() - 1);
        assert!(result.raw_comm_seconds > 0.0);
        assert!((result.total_seconds - result.raw_comm_seconds).abs() < 1e-9);
    }

    #[test]
    fn geometry_affects_program_communication_time() {
        // The same group-counterpart exchange (the CAPS BFS pattern) is
        // faster on the better-shaped partition of equal size. Use a rank
        // count divisible by 7, leaving some nodes without ranks (exactly
        // what the paper does when 7^k does not divide the node count).
        let current = Fabric::from_torus(Torus::new(vec![16, 4, 4, 4, 2]), 2.0);
        let proposed = Fabric::from_torus(Torus::new(vec![8, 8, 4, 4, 2]), 2.0);
        let run = |fabric: &Fabric| {
            let ranks = 7 * 256; // 1792 ranks on 2048 nodes
            let mapping = RankMapping::new(
                ranks,
                fabric.num_nodes(),
                1,
                crate::mapping::MappingStrategy::Linear,
            );
            let mut program = Program::new();
            program.push_collective(
                "bfs-exchange",
                collectives::group_counterpart_exchange(&mapping, 7, 0.01),
            );
            run_program(fabric, &program).raw_comm_seconds
        };
        let t_current = run(&current);
        let t_proposed = run(&proposed);
        assert!(
            t_current > 1.2 * t_proposed,
            "current {t_current} should be noticeably slower than proposed {t_proposed}"
        );
    }
}
