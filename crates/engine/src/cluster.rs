//! Topology-generic cluster scheduling scenario.
//!
//! The paper's scheduler experiments replay a Blue Gene/Q midplane trace; the
//! machinery here asks the same avoidable-contention question on *any*
//! fabric with a *dynamic* job stream. A stream of [`ClusterJob`]s arrives
//! over time; an [`Allocator`] hands each job a set of nodes; the job's
//! communication phase (an all-to-all exchange within its allocation) is
//! flow-simulated on the fabric *together with the exchanges of every job
//! currently running*, and the ratio of the job's own completion time to its
//! contention-free serial time is the job's *contention penalty* (≥ 1, and 1
//! exactly when none of its flows ever shares a channel — with its own or
//! with a neighbour's traffic). The penalty is evaluated once, at start
//! time, against the then-running mix: a deliberate one-shot approximation
//! that keeps runtimes fixed while still charging fragmented allocations for
//! the links they share. Comparing the penalty across allocators on the same
//! stream quantifies how much of the contention a better allocation avoids.
//!
//! The job's own flows come first in the evaluated set and the fluid run
//! stops once they are done ([`FluidSim::run_until_first_done`]): later
//! rounds only drain the neighbours' traffic, which the penalty never reads.
//!
//! Arrivals, allocation decisions and completions all flow through the
//! discrete-event [`Simulation`], so the scenario composes with any other
//! engine component.

use crate::error::EngineError;
use crate::exec::Exec;
use crate::fabric::Fabric;
use crate::flowsim::{route_flows_csr, Flow};
use crate::fluid::FluidSim;
use crate::maxmin::ChannelId;
use crate::router::Router;
use crate::sim::{Component, Context, Simulation};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// One job of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterJob {
    /// Dense job identifier.
    pub id: usize,
    /// Arrival (submission) time in seconds.
    pub arrival: f64,
    /// Number of nodes requested.
    pub nodes: usize,
    /// Run time in seconds on a contention-free allocation (penalty 1).
    pub runtime_uncontended: f64,
    /// Volume (GB) each ordered node pair exchanges in the job's all-to-all
    /// communication phase.
    pub gigabytes: f64,
}

/// Chooses which free nodes a job receives.
pub trait Allocator {
    /// Pick `count` currently-free nodes (`free[v]` true), or `None` to keep
    /// the job queued. Implementations must be deterministic.
    fn allocate(&self, fabric: &Fabric, free: &[bool], count: usize) -> Option<Vec<usize>>;

    /// Short label for reports.
    fn label(&self) -> String;
}

/// Breadth-first-compact allocation: grow a cluster from the lowest-numbered
/// free node, spilling to the next free component if one runs out. The
/// locality-preserving baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactAllocator;

impl Allocator for CompactAllocator {
    fn allocate(&self, fabric: &Fabric, free: &[bool], count: usize) -> Option<Vec<usize>> {
        if count == 0 || free.iter().filter(|&&f| f).count() < count {
            return None;
        }
        let mut picked = Vec::with_capacity(count);
        let mut taken = vec![false; fabric.num_nodes()];
        while picked.len() < count {
            // Seed a BFS at the lowest free node not yet taken.
            let seed = (0..fabric.num_nodes()).find(|&v| free[v] && !taken[v])?;
            let mut queue = VecDeque::from([seed]);
            taken[seed] = true;
            while let Some(v) = queue.pop_front() {
                picked.push(v);
                if picked.len() == count {
                    break;
                }
                for &c in fabric.out_channels(v) {
                    let n = fabric.channel_dst(c);
                    if free[n] && !taken[n] {
                        taken[n] = true;
                        queue.push_back(n);
                    }
                }
            }
        }
        picked.sort_unstable();
        Some(picked)
    }

    fn label(&self) -> String {
        "compact".to_string()
    }
}

/// Lowest-index block allocation: take the `count` lowest-numbered free
/// nodes. On fabrics whose node numbering is locality-major — row-major
/// tori, dragonfly groups, fat-tree hosts (numbered before the switches) —
/// this is the "contiguous block" baseline a slot-based scheduler produces.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockedAllocator;

impl Allocator for BlockedAllocator {
    fn allocate(&self, fabric: &Fabric, free: &[bool], count: usize) -> Option<Vec<usize>> {
        let _ = fabric;
        if count == 0 {
            return None;
        }
        let picked: Vec<usize> = (0..free.len()).filter(|&v| free[v]).take(count).collect();
        if picked.len() < count {
            return None;
        }
        Some(picked)
    }

    fn label(&self) -> String {
        "blocked".to_string()
    }
}

/// Seeded pseudo-random allocation: a deterministic partial Fisher–Yates
/// sample of the free nodes. The locality-oblivious baseline a hash-placing
/// scheduler produces; different seeds give different (still deterministic)
/// samples.
#[derive(Debug, Clone, Copy)]
pub struct RandomAllocator {
    /// Sample seed.
    pub seed: u64,
}

impl Allocator for RandomAllocator {
    fn allocate(&self, fabric: &Fabric, free: &[bool], count: usize) -> Option<Vec<usize>> {
        let _ = fabric;
        let mut free_nodes: Vec<usize> = (0..free.len()).filter(|&v| free[v]).collect();
        if count == 0 || free_nodes.len() < count {
            return None;
        }
        for i in 0..count {
            let remaining = (free_nodes.len() - i) as u64;
            let j = i
                + (crate::router::splitmix64(self.seed.wrapping_add(i as u64)) % remaining)
                    as usize;
            free_nodes.swap(i, j);
        }
        let mut picked = free_nodes;
        picked.truncate(count);
        picked.sort_unstable();
        Some(picked)
    }

    fn label(&self) -> String {
        format!("random(seed={})", self.seed)
    }
}

/// Strided scatter allocation: take every `stride`-th free node. The
/// adversarial end of what a locality-blind scheduler can produce.
#[derive(Debug, Clone, Copy)]
pub struct ScatterAllocator {
    /// Stride through the free list (≥ 1; 1 degenerates to first-fit).
    pub stride: usize,
}

impl Allocator for ScatterAllocator {
    fn allocate(&self, fabric: &Fabric, free: &[bool], count: usize) -> Option<Vec<usize>> {
        let _ = fabric;
        let free_nodes: Vec<usize> = (0..free.len()).filter(|&v| free[v]).collect();
        if count == 0 || free_nodes.len() < count {
            return None;
        }
        let stride = self.stride.max(1);
        let mut picked = Vec::with_capacity(count);
        let mut used = vec![false; free_nodes.len()];
        let mut cursor = 0usize;
        while picked.len() < count {
            while used[cursor % free_nodes.len()] {
                cursor += 1;
            }
            let idx = cursor % free_nodes.len();
            used[idx] = true;
            picked.push(free_nodes[idx]);
            cursor += stride;
        }
        picked.sort_unstable();
        Some(picked)
    }

    fn label(&self) -> String {
        format!("scatter(stride={})", self.stride)
    }
}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// The job id.
    pub job_id: usize,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Start time (seconds).
    pub start: f64,
    /// Completion time (seconds).
    pub completion: f64,
    /// Run time actually experienced (seconds).
    pub runtime: f64,
    /// Run time on a contention-free allocation (seconds).
    pub runtime_uncontended: f64,
    /// `runtime / runtime_uncontended` (1 exactly when no two of the job's
    /// flows shared a channel).
    pub penalty: f64,
    /// The nodes the job received (sorted).
    pub nodes: Vec<usize>,
}

impl ClusterOutcome {
    /// Waiting time in the queue (seconds).
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }
}

/// Aggregate metrics of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Fabric name.
    pub fabric: String,
    /// Router label.
    pub router: String,
    /// Allocator label.
    pub allocator: String,
    /// Per-job outcomes in completion order.
    pub outcomes: Vec<ClusterOutcome>,
    /// Time the last job completed (seconds).
    pub makespan: f64,
}

impl ClusterMetrics {
    /// Mean contention penalty over all jobs (1.0 = nothing avoidable).
    pub fn mean_penalty(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes.iter().map(|o| o.penalty).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Fraction of jobs whose penalty exceeds `threshold` — jobs that paid
    /// contention a better allocation would have avoided.
    pub fn avoidable_fraction(&self, threshold: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.penalty > threshold)
            .count() as f64
            / self.outcomes.len() as f64
    }

    /// Mean queue wait (seconds).
    pub fn mean_wait(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(ClusterOutcome::wait).sum::<f64>() / self.outcomes.len() as f64
    }
}

/// Events of the cluster scenario.
#[derive(Debug, Clone)]
enum ClusterEvent {
    Arrival(ClusterJob),
    Completion { job_id: usize },
}

struct RunningJob {
    outcome: ClusterOutcome,
    /// The job's exchange, kept as background traffic for later starters.
    flows: Vec<Flow>,
}

/// The scheduler component: owns the free map, the FCFS queue and the
/// running set.
struct ClusterScheduler {
    fabric: Fabric,
    router: Box<dyn Router>,
    allocator: Box<dyn Allocator>,
    free: Vec<bool>,
    queue: VecDeque<ClusterJob>,
    running: BTreeMap<usize, RunningJob>,
    outcomes: Rc<RefCell<Vec<ClusterOutcome>>>,
    error: Rc<RefCell<Option<EngineError>>>,
    /// Fluid simulation reused across every job-start penalty evaluation
    /// (buffers — and in incremental mode the solver state — persist).
    fluid: FluidSim,
    /// Route/size buffers reused across penalty evaluations.
    flows_buf: Vec<Flow>,
    route_offsets: Vec<usize>,
    route_data: Vec<ChannelId>,
    sizes_buf: Vec<f64>,
}

impl ClusterScheduler {
    /// The all-to-all exchange inside a node set: every ordered pair of
    /// distinct nodes exchanges `gigabytes`.
    fn all_to_all_flows(nodes: &[usize], gigabytes: f64) -> Vec<Flow> {
        let mut flows = Vec::with_capacity(nodes.len() * nodes.len().saturating_sub(1));
        for &a in nodes {
            for &b in nodes {
                if a != b {
                    flows.push(Flow {
                        src: a,
                        dst: b,
                        gigabytes,
                    });
                }
            }
        }
        flows
    }

    /// Contention penalty of `own` flows run alongside the currently-running
    /// jobs' exchanges: the slowest own-flow completion over the
    /// contention-free serial time (the slowest own flow's volume over its
    /// path's narrowest channel). ≥ 1 by construction; 1 exactly when none
    /// of the job's flows shares a channel with anything.
    fn exchange_penalty(&mut self, own: &[Flow]) -> Result<f64, EngineError> {
        if own.is_empty() {
            return Ok(1.0);
        }
        self.flows_buf.clear();
        self.flows_buf.extend_from_slice(own);
        for running in self.running.values() {
            self.flows_buf.extend_from_slice(&running.flows);
        }
        route_flows_csr(
            &self.fabric,
            self.router.as_ref(),
            &self.flows_buf,
            &mut self.route_offsets,
            &mut self.route_data,
        )?;
        self.sizes_buf.clear();
        self.sizes_buf
            .extend(self.flows_buf.iter().map(|f| f.gigabytes));
        self.fluid.reset_csr(
            &self.route_offsets,
            &self.route_data,
            self.fabric.capacities(),
            &self.sizes_buf,
        );
        self.fluid.makespan_bound()?;
        self.fluid.run_until_first_done(own.len());
        let own_done = self.fluid.completion_times()[..own.len()]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        let serial = own
            .iter()
            .enumerate()
            .map(|(i, flow)| {
                let path = &self.route_data[self.route_offsets[i]..self.route_offsets[i + 1]];
                (flow, path)
            })
            .filter(|(_, path)| !path.is_empty())
            .map(|(flow, path)| {
                let narrowest = path
                    .iter()
                    .map(|&c| self.fabric.channel_bandwidth(c))
                    .fold(f64::INFINITY, f64::min);
                flow.gigabytes / narrowest
            })
            .fold(0.0, f64::max);
        if serial > 0.0 {
            Ok(own_done / serial)
        } else {
            Ok(1.0)
        }
    }

    /// Start queued jobs FCFS while the allocator will place them.
    fn try_start(&mut self, ctx: &mut Context<'_, ClusterEvent>) {
        while let Some(job) = self.queue.front() {
            let Some(nodes) = self.allocator.allocate(&self.fabric, &self.free, job.nodes) else {
                break;
            };
            let job = self.queue.pop_front().expect("front checked");
            let flows = Self::all_to_all_flows(&nodes, job.gigabytes);
            let penalty = match self.exchange_penalty(&flows) {
                Ok(p) => p,
                Err(e) => {
                    *self.error.borrow_mut() = Some(e);
                    return;
                }
            };
            let runtime = job.runtime_uncontended * penalty;
            let now = ctx.time();
            if !(now + runtime).is_finite() {
                *self.error.borrow_mut() = Some(EngineError::NonFiniteTime {
                    what: "job completion times",
                });
                return;
            }
            for &v in &nodes {
                debug_assert!(self.free[v], "allocator returned a busy node");
                self.free[v] = false;
            }
            self.running.insert(
                job.id,
                RunningJob {
                    outcome: ClusterOutcome {
                        job_id: job.id,
                        arrival: job.arrival,
                        start: now,
                        completion: now + runtime,
                        runtime,
                        runtime_uncontended: job.runtime_uncontended,
                        penalty,
                        nodes,
                    },
                    flows,
                },
            );
            ctx.emit_self(ClusterEvent::Completion { job_id: job.id }, runtime);
        }
    }
}

impl Component<ClusterEvent> for ClusterScheduler {
    fn on_event(&mut self, event: crate::Event<ClusterEvent>, ctx: &mut Context<'_, ClusterEvent>) {
        if self.error.borrow().is_some() {
            return; // poisoned: drain remaining events without acting
        }
        match event.payload {
            ClusterEvent::Arrival(job) => {
                self.queue.push_back(job);
            }
            ClusterEvent::Completion { job_id } => {
                let done = self.running.remove(&job_id).expect("job was running");
                for &v in &done.outcome.nodes {
                    self.free[v] = true;
                }
                self.outcomes.borrow_mut().push(done.outcome);
            }
        }
        self.try_start(ctx);
    }
}

/// Simulate a job stream on a fabric. Infeasible jobs — empty requests and
/// jobs larger than the machine, which no allocator could ever place — are
/// skipped upfront (they would otherwise block the FCFS queue forever);
/// everything else runs to completion.
pub fn simulate_cluster(
    fabric: &Fabric,
    router: Box<dyn Router>,
    allocator: Box<dyn Allocator>,
    jobs: &[ClusterJob],
) -> Result<ClusterMetrics, EngineError> {
    simulate_cluster_with(fabric, router, allocator, jobs, Exec::default())
}

/// [`simulate_cluster`] under explicit execution choices: the event loop
/// runs on `exec.queue` and emits progress heartbeats through
/// `exec.telemetry`; the per-event penalty evaluations run `exec.solver`
/// and emit per-round (and per-repair) events through it too. Every choice
/// gives bit-identical metrics (pinned by `tests/incremental_parity.rs`
/// and `tests/queue_parity.rs`).
pub fn simulate_cluster_with(
    fabric: &Fabric,
    router: Box<dyn Router>,
    allocator: Box<dyn Allocator>,
    jobs: &[ClusterJob],
    exec: impl Into<Exec>,
) -> Result<ClusterMetrics, EngineError> {
    let exec = exec.into();
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let error = Rc::new(RefCell::new(None));
    let labels = (fabric.name().to_string(), router.label(), allocator.label());
    let mut fluid = FluidSim::empty_with_mode(exec.solver);
    fluid.set_telemetry(exec.telemetry.clone());
    let scheduler = ClusterScheduler {
        free: vec![true; fabric.num_nodes()],
        fabric: fabric.clone(),
        router,
        allocator,
        queue: VecDeque::new(),
        running: BTreeMap::new(),
        outcomes: Rc::clone(&outcomes),
        error: Rc::clone(&error),
        fluid,
        flows_buf: Vec::new(),
        route_offsets: Vec::new(),
        route_data: Vec::new(),
        sizes_buf: Vec::new(),
    };
    let mut sim = Simulation::with_queue_kind(exec.queue);
    sim.set_telemetry(exec.telemetry);
    let sched_id = sim.add_component("cluster-scheduler", Box::new(scheduler));
    for job in jobs {
        if job.nodes == 0 || job.nodes > fabric.num_nodes() {
            continue;
        }
        if !job.arrival.is_finite() {
            return Err(EngineError::NonFiniteTime {
                what: "job arrival times",
            });
        }
        sim.schedule(job.arrival, sched_id, ClusterEvent::Arrival(job.clone()));
    }
    sim.run();
    drop(sim); // release the scheduler component's handles
    if let Some(e) = error.borrow_mut().take() {
        return Err(e);
    }
    let mut outcomes = Rc::try_unwrap(outcomes)
        .expect("scheduler dropped with the simulation")
        .into_inner();
    outcomes.sort_by(|a, b| a.completion.total_cmp(&b.completion));
    let makespan = outcomes.last().map(|o| o.completion).unwrap_or(0.0);
    Ok(ClusterMetrics {
        fabric: labels.0,
        router: labels.1,
        allocator: labels.2,
        outcomes,
        makespan,
    })
}

/// A deterministic synthetic job stream (no RNG dependency: a Weyl sequence
/// drives sizes and gaps), convenient for examples and benches.
pub fn synthetic_job_stream(
    num_jobs: usize,
    max_nodes: usize,
    mean_gap: f64,
    gigabytes: f64,
) -> Vec<ClusterJob> {
    assert!(max_nodes >= 2, "jobs need at least 2 nodes to communicate");
    let mut jobs = Vec::with_capacity(num_jobs);
    let mut arrival = 0.0f64;
    for id in 0..num_jobs {
        // Low-discrepancy pseudo-random phases in (0, 1).
        let u =
            (((id as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) >> 11) as f64) / (1u64 << 53) as f64;
        let v =
            (((id as u64 + 1).wrapping_mul(0xd1b54a32d192ed03) >> 11) as f64) / (1u64 << 53) as f64;
        arrival += -mean_gap * (1.0 - u).max(1e-12).ln();
        // Sizes 2..=max_nodes, biased towards small jobs.
        let nodes = 2 + ((v * v) * (max_nodes - 1) as f64) as usize;
        jobs.push(ClusterJob {
            id,
            arrival,
            nodes: nodes.min(max_nodes),
            runtime_uncontended: 60.0 + 540.0 * v,
            gigabytes,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShortestPath;
    use netpart_topology::{Hypercube, Torus};

    fn stream() -> Vec<ClusterJob> {
        synthetic_job_stream(12, 8, 100.0, 1.0)
    }

    #[test]
    fn all_feasible_jobs_complete_exactly_once() {
        let fabric = Fabric::from_topology(&Hypercube::new(4), 2.0);
        let metrics = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(CompactAllocator),
            &stream(),
        )
        .unwrap();
        assert_eq!(metrics.outcomes.len(), 12);
        let mut ids: Vec<usize> = metrics.outcomes.iter().map(|o| o.job_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
        for o in &metrics.outcomes {
            assert!(o.start >= o.arrival - 1e-9);
            assert!(o.completion > o.start);
            assert!(o.penalty > 0.0);
        }
    }

    #[test]
    fn allocations_never_overlap_in_time() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let metrics = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(ScatterAllocator { stride: 3 }),
            &stream(),
        )
        .unwrap();
        // Any two jobs overlapping in time must use disjoint node sets.
        for (i, a) in metrics.outcomes.iter().enumerate() {
            for b in metrics.outcomes.iter().skip(i + 1) {
                let overlap = a.start < b.completion - 1e-9 && b.start < a.completion - 1e-9;
                if overlap {
                    assert!(
                        a.nodes.iter().all(|v| !b.nodes.contains(v)),
                        "jobs {} and {} share nodes while overlapping",
                        a.job_id,
                        b.job_id
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_allocation_pays_a_higher_penalty_than_compact() {
        // On a Dragonfly, a compact job lives inside one densely-connected
        // group while a scattered job's all-to-all funnels through the
        // scarce global links.
        let dragonfly = netpart_topology::Dragonfly::new(
            4,
            4,
            4,
            1.0,
            1.0,
            1.0,
            1,
            netpart_topology::GlobalArrangement::Relative,
        );
        let fabric = Fabric::from_topology(&dragonfly, 2.0);
        let jobs = synthetic_job_stream(8, 8, 1e4, 1.0); // serial: no queueing
        let compact = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(CompactAllocator),
            &jobs,
        )
        .unwrap();
        let scatter = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(ScatterAllocator { stride: 17 }),
            &jobs,
        )
        .unwrap();
        assert!(
            scatter.mean_penalty() >= compact.mean_penalty(),
            "scatter {} vs compact {}",
            scatter.mean_penalty(),
            compact.mean_penalty()
        );
        // Penalties are ratios against the contention-free serial time, so
        // they can never dip below 1.
        for m in [&compact, &scatter] {
            for o in &m.outcomes {
                assert!(o.penalty >= 1.0 - 1e-9, "penalty {}", o.penalty);
            }
        }
    }

    #[test]
    fn blocked_allocator_takes_the_lowest_free_indices() {
        let fabric = Fabric::from_topology(&Hypercube::new(4), 1.0);
        let mut free = vec![true; 16];
        free[0] = false;
        free[3] = false;
        let picked = BlockedAllocator.allocate(&fabric, &free, 4).unwrap();
        assert_eq!(picked, vec![1, 2, 4, 5]);
        assert!(BlockedAllocator.allocate(&fabric, &free, 15).is_none());
        assert!(BlockedAllocator.allocate(&fabric, &free, 0).is_none());
    }

    #[test]
    fn random_allocator_is_seed_deterministic_and_valid() {
        let fabric = Fabric::from_topology(&Hypercube::new(5), 1.0);
        let free = vec![true; 32];
        let a = RandomAllocator { seed: 7 }
            .allocate(&fabric, &free, 12)
            .unwrap();
        let b = RandomAllocator { seed: 7 }
            .allocate(&fabric, &free, 12)
            .unwrap();
        let c = RandomAllocator { seed: 8 }
            .allocate(&fabric, &free, 12)
            .unwrap();
        assert_eq!(a, b, "same seed, same sample");
        assert_ne!(a, c, "different seeds should differ");
        for picked in [&a, &c] {
            assert_eq!(picked.len(), 12);
            let mut dedup = (*picked).clone();
            dedup.dedup();
            assert_eq!(dedup.len(), 12, "no duplicates");
            assert!(picked.windows(2).all(|w| w[0] < w[1]), "sorted");
            assert!(picked.iter().all(|&v| v < 32));
        }
        assert!(RandomAllocator { seed: 1 }
            .allocate(&fabric, &free, 33)
            .is_none());
    }

    #[test]
    fn oversized_jobs_are_skipped() {
        let fabric = Fabric::from_topology(&Hypercube::new(3), 1.0);
        let mut jobs = stream();
        jobs.push(ClusterJob {
            id: 99,
            arrival: 0.0,
            nodes: 1000,
            runtime_uncontended: 10.0,
            gigabytes: 1.0,
        });
        // An empty request can never be allocated either; it must not block
        // the FCFS queue behind it.
        jobs.push(ClusterJob {
            id: 100,
            arrival: 0.0,
            nodes: 0,
            runtime_uncontended: 10.0,
            gigabytes: 1.0,
        });
        let feasible = jobs.iter().filter(|j| (1..=8).contains(&j.nodes)).count();
        let metrics = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(CompactAllocator),
            &jobs,
        )
        .unwrap();
        assert!(metrics.outcomes.iter().all(|o| o.job_id < 99));
        assert_eq!(metrics.outcomes.len(), feasible);
    }

    #[test]
    fn solver_modes_give_identical_cluster_metrics() {
        let fabric = Fabric::from_torus(Torus::new(vec![4, 4]), 2.0);
        let jobs = stream();
        let batch = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(CompactAllocator),
            &jobs,
        )
        .unwrap();
        // The other face of every execution choice: incremental repairs on
        // the heap queue.
        let incremental = simulate_cluster_with(
            &fabric,
            Box::new(ShortestPath),
            Box::new(CompactAllocator),
            &jobs,
            Exec {
                solver: crate::SolverMode::Incremental,
                queue: crate::QueueKind::Heap,
                ..Exec::default()
            },
        )
        .unwrap();
        assert_eq!(batch.makespan.to_bits(), incremental.makespan.to_bits());
        assert_eq!(batch.outcomes.len(), incremental.outcomes.len());
        for (a, b) in batch.outcomes.iter().zip(&incremental.outcomes) {
            assert_eq!(a.job_id, b.job_id);
            assert_eq!(a.penalty.to_bits(), b.penalty.to_bits());
            assert_eq!(a.completion.to_bits(), b.completion.to_bits());
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn empty_stream_gives_empty_metrics() {
        let fabric = Fabric::from_topology(&Hypercube::new(3), 1.0);
        let metrics = simulate_cluster(
            &fabric,
            Box::new(ShortestPath),
            Box::new(CompactAllocator),
            &[],
        )
        .unwrap();
        assert!(metrics.outcomes.is_empty());
        assert_eq!(metrics.makespan, 0.0);
        assert_eq!(metrics.mean_penalty(), 1.0);
    }
}
