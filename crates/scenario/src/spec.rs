//! The declarative scenario vocabulary.
//!
//! A [`ScenarioSpec`] names one simulation completely: a topology family and
//! shape, a routing algorithm, a traffic pattern (with its allocator or
//! scheduler policy where the pattern needs one) and a seed. Every
//! combination the workspace can simulate is a value of this type — running
//! a new workload is a data change, not a new binary.
//!
//! Specs are plain data: `Clone + PartialEq` and cheap to build in
//! bulk. [`build_fabric`] is the single place a spec becomes an engine
//! [`Fabric`], including the service's resource budgets (moved here from
//! `netpart-service` so every front end enforces the same limits), and
//! [`RoutingSpec::build`], [`AllocatorSpec::build`], [`PolicySpec::build`]
//! and [`machine_by_name`] are the single places the other spec parts
//! become engine and scheduler objects.

use netpart_engine::{
    Allocator, CompactAllocator, DimensionOrdered, Ecmp, Fabric, Router, ScatterAllocator,
    ShortestPath, Valiant,
};
use netpart_machines::{known, BlueGeneQ};
use netpart_sched::SchedPolicy;
use netpart_topology::{
    Circulant, Dragonfly, FatTree, GlobalArrangement, HyperX, Hypercube, SlimFly, Torus,
};

/// Upper bound on the nodes of a fabric built from a spec, so a single
/// request cannot ask a service to materialize a million-node graph.
pub const MAX_FABRIC_NODES: usize = 1 << 14;

/// Upper bound on the directed channels of a fabric built from a spec
/// (dense families like HyperX hit this well before the node budget).
pub const MAX_FABRIC_CHANNELS: usize = 1 << 20;

/// Upper bound on flows per scenario.
pub const MAX_FLOWS: usize = 1 << 16;

/// Upper bound on jobs per scenario.
pub const MAX_JOBS: usize = 4096;

/// Check a job stream's largest job on a fabric of `nodes` nodes before any
/// flow is allocated: `max_nodes` must be in `2..=nodes`, and the cluster
/// penalties must fit [`MAX_FLOWS`]. Jobs running at the same time hold
/// disjoint nodes, so every penalty's flow set (the all-to-all exchanges of
/// the starting job and the running ones) has at most
/// `nodes · (max_nodes − 1)` flows. The error is the rejection message.
pub fn check_max_nodes(nodes: usize, max_nodes: usize) -> Result<(), String> {
    if max_nodes < 2 || max_nodes > nodes {
        return Err(format!("max_nodes must be in 2..={nodes} for this fabric"));
    }
    let bound = nodes.saturating_mul(max_nodes.saturating_sub(1));
    if bound > MAX_FLOWS {
        return Err(format!(
            "jobs of up to {max_nodes} nodes on {nodes} nodes can put {bound} flows into one \
             penalty evaluation, exceeding the per-scenario budget of {MAX_FLOWS}"
        ));
    }
    Ok(())
}

/// A network fabric, by family and shape. The `dims` interpretation is
/// family-specific: torus/HyperX extents, `[dimension]` for hypercubes,
/// `[k]` for fat-trees, `[groups, routers_per_group, nodes_per_router]` for
/// dragonflies, `[q]` for Slim Flies, `[nodes, skip...]` for circulant
/// expanders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// A torus with the given extents.
    Torus(Vec<usize>),
    /// A `d`-dimensional hypercube.
    Hypercube(u32),
    /// A dragonfly: groups × routers-per-group × nodes-per-router.
    Dragonfly(usize, usize, usize),
    /// A `k`-ary fat-tree.
    FatTree(usize),
    /// A regular HyperX with the given per-dimension clique sizes.
    HyperX(Vec<usize>),
    /// An MMS Slim Fly over the prime power `q` (`2q²` routers).
    SlimFly(usize),
    /// A circulant expander: `nodes` vertices, one ring plus the given
    /// chord skips.
    Expander(usize, Vec<usize>),
}

impl TopologySpec {
    /// Wire name of the family.
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::Torus(_) => "torus",
            TopologySpec::Hypercube(_) => "hypercube",
            TopologySpec::Dragonfly(..) => "dragonfly",
            TopologySpec::FatTree(_) => "fattree",
            TopologySpec::HyperX(_) => "hyperx",
            TopologySpec::SlimFly(_) => "slimfly",
            TopologySpec::Expander(..) => "expander",
        }
    }

    /// Family-specific `dims` encoding (see the type docs).
    pub fn dims(&self) -> Vec<usize> {
        match self {
            TopologySpec::Torus(d) | TopologySpec::HyperX(d) => d.clone(),
            TopologySpec::Hypercube(d) => vec![*d as usize],
            TopologySpec::Dragonfly(g, a, p) => vec![*g, *a, *p],
            TopologySpec::FatTree(k) => vec![*k],
            TopologySpec::SlimFly(q) => vec![*q],
            TopologySpec::Expander(n, skips) => {
                let mut dims = vec![*n];
                dims.extend_from_slice(skips);
                dims
            }
        }
    }

    /// Compact human-readable label, e.g. `torus[8,4,4]`.
    pub fn label(&self) -> String {
        let dims: Vec<String> = self.dims().iter().map(usize::to_string).collect();
        format!("{}[{}]", self.family(), dims.join(","))
    }
}

/// Overflow-safe product; `None` means "absurdly large", which every caller
/// maps to a budget rejection.
fn checked_product(factors: impl IntoIterator<Item = usize>) -> Option<usize> {
    factors
        .into_iter()
        .try_fold(1usize, |acc, f| acc.checked_mul(f))
}

/// Estimated `(nodes, directed channels)` of a fabric spec, computed with
/// checked arithmetic *before* anything is materialized, so a crafted
/// request can neither overflow the budget check nor ask a server to build
/// a dense multi-gigabyte graph (a 1-D HyperX is a complete graph: few
/// nodes, quadratically many channels).
pub fn estimated_size(spec: &TopologySpec) -> Option<(usize, usize)> {
    match spec {
        TopologySpec::Torus(dims) => {
            let nodes = checked_product(dims.iter().copied())?;
            // At most two directed channels per dimension per node.
            Some((nodes, nodes.checked_mul(dims.len().checked_mul(2)?)?))
        }
        TopologySpec::Hypercube(d) => {
            if *d > 14 {
                return None;
            }
            let nodes = 1usize << d;
            Some((nodes, nodes.checked_mul(*d as usize)?))
        }
        TopologySpec::Dragonfly(g, a, p) => {
            let nodes = checked_product([*g, *a, *p])?;
            // Per node: intra-group clique (a-1) + local endpoints (p) plus
            // one global port — a generous upper estimate.
            let degree = a.checked_add(*p)?.checked_add(1)?;
            Some((nodes, nodes.checked_mul(degree)?))
        }
        TopologySpec::FatTree(k) => {
            if *k == 0 || !k.is_multiple_of(2) {
                return None;
            }
            // k^3/4 hosts plus k^2/4 core and k^2 agg/edge switches — the
            // fabric graph contains the switches as nodes.
            let k2 = checked_product([*k, *k])?;
            let hosts = k2.checked_mul(*k)? / 4;
            let switches = k2.checked_mul(5)? / 4;
            let nodes = hosts.checked_add(switches)?;
            // k^2/4 cores + k^2 aggs/edges, k ports each, both directions.
            let switch_ports = checked_product([*k, *k, *k])?.checked_mul(3)?;
            Some((nodes, switch_ports))
        }
        TopologySpec::HyperX(dims) => {
            let nodes = checked_product(dims.iter().copied())?;
            // Clique per dimension: degree = sum(d_i - 1).
            let degree = dims
                .iter()
                .map(|d| d.saturating_sub(1))
                .try_fold(0usize, |acc, d| acc.checked_add(d))?;
            Some((nodes, nodes.checked_mul(degree)?))
        }
        TopologySpec::SlimFly(q) => {
            // 2q² routers of degree ~3q/2; bound generously by 2q per node.
            let nodes = checked_product([2, *q, *q])?;
            Some((nodes, nodes.checked_mul(q.checked_mul(2)?)?))
        }
        TopologySpec::Expander(n, skips) => {
            // Ring plus one chord per skip, both directions.
            let degree = skips.len().checked_add(1)?.checked_mul(2)?;
            Some((*n, n.checked_mul(degree)?))
        }
    }
}

/// Why a spec could not be turned into a fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The estimated size exceeds [`MAX_FABRIC_NODES`] /
    /// [`MAX_FABRIC_CHANNELS`] (or overflows entirely).
    Budget {
        /// Human-readable reason.
        message: String,
    },
    /// The shape parameters are invalid for the family.
    InvalidShape {
        /// Human-readable reason.
        message: String,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Budget { message } | FabricError::InvalidShape { message } => {
                f.write_str(message)
            }
        }
    }
}

impl std::error::Error for FabricError {}

fn invalid(message: impl Into<String>) -> FabricError {
    FabricError::InvalidShape {
        message: message.into(),
    }
}

/// Build the fabric described by a spec at 2 GB/s per channel direction
/// (the Blue Gene/Q figure used throughout the workspace), enforcing the
/// node and channel budgets.
pub fn build_fabric(spec: &TopologySpec) -> Result<Fabric, FabricError> {
    let budget_err = || FabricError::Budget {
        message: format!(
            "fabric outside the scenario budget (<= {MAX_FABRIC_NODES} nodes, \
             <= {MAX_FABRIC_CHANNELS} channels)"
        ),
    };
    let (nodes, channels) = estimated_size(spec).ok_or_else(budget_err)?;
    if nodes == 0 || nodes > MAX_FABRIC_NODES || channels > MAX_FABRIC_CHANNELS {
        return Err(budget_err());
    }
    Ok(match spec {
        TopologySpec::Torus(dims) => {
            if dims.is_empty() || dims.contains(&0) {
                return Err(invalid("torus dims must be non-empty and positive"));
            }
            Fabric::from_torus(Torus::new(dims.clone()), 2.0)
        }
        TopologySpec::Hypercube(d) => Fabric::from_topology(&Hypercube::new(*d), 2.0),
        TopologySpec::Dragonfly(g, a, p) => {
            if *g < 2 || *a == 0 || *p == 0 {
                return Err(invalid(
                    "dragonfly needs >= 2 groups and positive router/node counts",
                ));
            }
            Fabric::from_topology(
                &Dragonfly::new(*g, *a, *p, 1.0, 1.0, 1.0, 1, GlobalArrangement::Relative),
                2.0,
            )
        }
        TopologySpec::FatTree(k) => Fabric::from_topology(&FatTree::new(*k), 2.0),
        TopologySpec::HyperX(dims) => {
            if dims.is_empty() || dims.contains(&0) {
                return Err(invalid("hyperx dims must be non-empty and positive"));
            }
            Fabric::from_topology(&HyperX::regular(dims.clone()), 2.0)
        }
        TopologySpec::SlimFly(q) => {
            if ![5usize, 7, 11, 13, 17, 19, 23, 25].contains(q) {
                return Err(invalid(
                    "slimfly q must be a small prime power congruent to 1 mod 4 or 3 mod 4 \
                     (5, 7, 11, 13, 17, 19, 23, 25)",
                ));
            }
            Fabric::from_topology(&SlimFly::new(*q), 2.0)
        }
        TopologySpec::Expander(n, skips) => {
            if *n < 3 || skips.is_empty() || skips.iter().any(|&s| s == 0 || s >= *n) {
                return Err(invalid(
                    "expander needs >= 3 nodes and non-zero skips below the node count",
                ));
            }
            Fabric::from_topology(&Circulant::new(*n, skips.clone()), 2.0)
        }
    })
}

/// Routing algorithm of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingSpec {
    /// Dimension-ordered routing (torus fabrics only).
    DimensionOrdered,
    /// Deterministic lowest-channel minimal routing.
    ShortestPath,
    /// Equal-cost multi-path minimal routing with the given hash salt.
    Ecmp {
        /// Hash salt.
        salt: u64,
    },
    /// Two-phase Valiant routing with the given intermediate-node seed.
    Valiant {
        /// Intermediate-node seed.
        seed: u64,
    },
}

impl RoutingSpec {
    /// Instantiate the engine router.
    pub fn build(&self) -> Box<dyn Router + Send + Sync> {
        match self {
            RoutingSpec::DimensionOrdered => Box::new(DimensionOrdered::default()),
            RoutingSpec::ShortestPath => Box::new(ShortestPath),
            RoutingSpec::Ecmp { salt } => Box::new(Ecmp { salt: *salt }),
            RoutingSpec::Valiant { seed } => Box::new(Valiant { seed: *seed }),
        }
    }

    /// Wire/label name.
    pub fn label(&self) -> String {
        match self {
            RoutingSpec::DimensionOrdered => "dor".to_string(),
            RoutingSpec::ShortestPath => "shortest".to_string(),
            RoutingSpec::Ecmp { salt } => format!("ecmp({salt})"),
            RoutingSpec::Valiant { seed } => format!("valiant({seed})"),
        }
    }
}

/// The Blue Gene/Q machine a scheduler trace or policy request names
/// (`mira`, `juqueen`, `juqueen_48`, `juqueen_54` or `sequoia`); `None` for
/// any other name.
pub fn machine_by_name(name: &str) -> Option<BlueGeneQ> {
    match name {
        "mira" => Some(known::mira()),
        "juqueen" => Some(known::juqueen()),
        "juqueen_48" => Some(known::juqueen_48()),
        "juqueen_54" => Some(known::juqueen_54()),
        "sequoia" => Some(known::sequoia()),
        _ => None,
    }
}

/// Allocator choice for job-trace traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorSpec {
    /// Breadth-first compact allocation (the locality-preserving baseline).
    Compact,
    /// Strided scatter with the given stride (the adversarial baseline).
    Scatter(usize),
}

impl AllocatorSpec {
    /// Instantiate the engine allocator (a scatter stride of 0 acts as 1).
    pub fn build(&self) -> Box<dyn Allocator> {
        match *self {
            AllocatorSpec::Compact => Box::new(CompactAllocator),
            AllocatorSpec::Scatter(stride) => Box::new(ScatterAllocator {
                stride: stride.max(1),
            }),
        }
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            AllocatorSpec::Compact => "compact".to_string(),
            AllocatorSpec::Scatter(stride) => format!("scatter({stride})"),
        }
    }
}

/// Scheduling policy for scheduler-trace traffic, mirroring
/// `netpart_sched::SchedPolicy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Worst available bisection (adversarial size-only allocation).
    Worst,
    /// Best available bisection.
    Best,
    /// Hint-aware with a minimum acceptable fraction of the optimal
    /// bisection for contention-bound jobs.
    HintAware(f64),
}

impl PolicySpec {
    /// Instantiate the scheduler policy.
    ///
    /// # Errors
    /// A hint-aware tolerance outside `[0, 1]`, as a message.
    pub fn build(&self) -> Result<SchedPolicy, String> {
        match *self {
            PolicySpec::Worst => Ok(SchedPolicy::WorstAvailableBisection),
            PolicySpec::Best => Ok(SchedPolicy::BestAvailableBisection),
            PolicySpec::HintAware(tolerance) if (0.0..=1.0).contains(&tolerance) => {
                Ok(SchedPolicy::HintAware { tolerance })
            }
            PolicySpec::HintAware(_) => Err("hint_aware tolerance must be in [0, 1]".to_string()),
        }
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Worst => "worst".to_string(),
            PolicySpec::Best => "best".to_string(),
            PolicySpec::HintAware(t) => format!("hint_aware({t})"),
        }
    }
}

/// Traffic pattern of a scenario. Patterns that need an allocation or
/// scheduling decision carry it inline, so a spec is always complete.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// The paper's bisection-pairing (ping-pong) benchmark: every node
    /// exchanges with its antipode (tori) or mirror node (other families)
    /// for `rounds - warmup_rounds` measured rounds (traffic from
    /// [`netpart_engine::pairing_flows`]). Rounds are unsynchronised in the
    /// real benchmark but identical in the fluid model, so one round is
    /// simulated and scaled.
    BisectionPairing {
        /// Total rounds, including warm-up.
        rounds: usize,
        /// Warm-up rounds excluded from the reported time.
        warmup_rounds: usize,
        /// Per-pair, per-direction volume in one round (GB).
        round_gigabytes: f64,
    },
    /// Every ordered pair of distinct nodes exchanges `gigabytes`.
    AllToAll {
        /// Per-pair volume (GB).
        gigabytes: f64,
    },
    /// Every node sends along a pseudo-random permutation of the node set
    /// (seeded by the spec seed). A node may map to itself; such
    /// self-flows complete instantly and carry no traffic.
    RandomPermutation {
        /// Per-flow volume (GB).
        gigabytes: f64,
    },
    /// A dynamic job stream allocated by `allocator`; each job's all-to-all
    /// exchange is flow-simulated against the running mix.
    JobTrace {
        /// Number of jobs in the synthetic stream.
        jobs: usize,
        /// Largest job size in nodes.
        max_nodes: usize,
        /// Mean inter-arrival gap in seconds.
        mean_gap: f64,
        /// Per-pair exchange volume in gigabytes.
        gigabytes: f64,
        /// Allocation strategy.
        allocator: AllocatorSpec,
    },
    /// The Blue Gene/Q scheduler-policy replay on a named machine (`mira`,
    /// `juqueen`, ...). The machine defines its own torus; the spec's
    /// topology and routing fields are documentation here.
    SchedulerTrace {
        /// Machine name.
        machine: String,
        /// Number of jobs in the synthetic trace (seeded by the spec seed).
        jobs: usize,
        /// Scheduling policy to evaluate.
        policy: PolicySpec,
    },
}

impl TrafficSpec {
    /// Wire/label name of the pattern.
    pub fn label(&self) -> String {
        match self {
            TrafficSpec::BisectionPairing {
                rounds,
                warmup_rounds,
                round_gigabytes,
            } => format!(
                // Saturating: labels are also rendered for *invalid* specs
                // (e.g. in a sweep's per-scenario error line), which may
                // have warmup >= rounds.
                "pairing({}x{round_gigabytes}GB)",
                rounds.saturating_sub(*warmup_rounds)
            ),
            TrafficSpec::AllToAll { gigabytes } => format!("all-to-all({gigabytes}GB)"),
            TrafficSpec::RandomPermutation { gigabytes } => {
                format!("permutation({gigabytes}GB)")
            }
            TrafficSpec::JobTrace {
                jobs, allocator, ..
            } => format!("jobs({jobs},{})", allocator.label()),
            TrafficSpec::SchedulerTrace {
                machine,
                jobs,
                policy,
            } => format!("sched({machine},{jobs},{})", policy.label()),
        }
    }

    /// The paper's exact plan: 30 rounds of which 4 are warm-up, 2 GB per
    /// pair per round.
    pub fn paper_pairing() -> Self {
        TrafficSpec::BisectionPairing {
            rounds: 30,
            warmup_rounds: 4,
            round_gigabytes: 2.0,
        }
    }
}

/// One complete, runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The fabric.
    pub topology: TopologySpec,
    /// The routing algorithm.
    pub routing: RoutingSpec,
    /// The traffic pattern (with its allocator / policy where needed).
    pub traffic: TrafficSpec,
    /// Seed for the pattern's pseudo-random choices.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Canonical label, e.g. `torus[8,4,4]/dor/pairing(26x2GB)/s7`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.topology.label(),
            self.routing.label(),
            self.traffic.label(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_compact_and_complete() {
        let spec = ScenarioSpec {
            topology: TopologySpec::Torus(vec![8, 4, 4]),
            routing: RoutingSpec::DimensionOrdered,
            traffic: TrafficSpec::paper_pairing(),
            seed: 7,
        };
        assert_eq!(spec.label(), "torus[8,4,4]/dor/pairing(26x2GB)/s7");
    }

    #[test]
    fn every_family_builds_within_budget() {
        let specs = [
            TopologySpec::Torus(vec![4, 4, 2]),
            TopologySpec::Hypercube(5),
            TopologySpec::Dragonfly(4, 4, 4),
            TopologySpec::FatTree(4),
            TopologySpec::HyperX(vec![4, 4]),
            TopologySpec::SlimFly(5),
            TopologySpec::Expander(40, vec![1, 7, 16]),
        ];
        for spec in &specs {
            let fabric = build_fabric(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            let (node_bound, channel_bound) = estimated_size(spec).unwrap();
            assert!(fabric.num_nodes() <= node_bound, "{spec:?}");
            assert!(fabric.num_channels() <= channel_bound, "{spec:?}");
        }
    }

    #[test]
    fn oversized_and_overflowing_shapes_are_refused() {
        assert!(matches!(
            build_fabric(&TopologySpec::Torus(vec![1024, 1024])),
            Err(FabricError::Budget { .. })
        ));
        // 274177 * 67280421310721 * 1 == 2^64 + 1, which wraps to 1 node
        // under unchecked multiplication.
        assert!(matches!(
            build_fabric(&TopologySpec::Dragonfly(274_177, 67_280_421_310_721, 1)),
            Err(FabricError::Budget { .. })
        ));
        // Within the node budget but quadratically many channels.
        assert!(matches!(
            build_fabric(&TopologySpec::HyperX(vec![16_000])),
            Err(FabricError::Budget { .. })
        ));
        assert!(build_fabric(&TopologySpec::HyperX(vec![8, 8])).is_ok());
    }

    #[test]
    fn invalid_shapes_are_typed_errors() {
        assert!(matches!(
            build_fabric(&TopologySpec::SlimFly(6)),
            Err(FabricError::InvalidShape { .. })
        ));
        assert!(matches!(
            build_fabric(&TopologySpec::Expander(40, vec![0])),
            Err(FabricError::InvalidShape { .. })
        ));
        assert!(matches!(
            build_fabric(&TopologySpec::Dragonfly(1, 4, 4)),
            Err(FabricError::InvalidShape { .. })
        ));
    }
}
