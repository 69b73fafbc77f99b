//! The JSON-lines wire protocol: typed requests and responses.
//!
//! One request per line, one response line per request. Documents are
//! parsed with [`serde::json`] and rendered canonically (sorted object
//! keys, compact), so the rendered form of a [`Request`] doubles as its
//! cache key. Every decode error is total — malformed input becomes a
//! typed [`Response::Error`], never a panic.

use serde::json::Value;
use std::fmt;

// The scenario vocabulary is the protocol's type layer: the wire codec below
// renders / parses these shared spec types, so the service, the sweep runner
// and the experiment drivers all speak about the same scenarios.
pub use netpart_scenario::{
    AdviceResult, AdviceSpec, AllocationSpec, AllocatorSpec, CandidateResult, FabricPatch,
    LinkPatch, NodePatch, PolicySpec, RoutingSpec, ScenarioSpec, TrafficSpec,
};

/// A network fabric, by family and shape (re-exported from
/// `netpart-scenario`, which owns the canonical spec vocabulary).
pub use netpart_scenario::TopologySpec;

/// A decode failure, reported back to the client as a `bad_request` error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn missing(field: &str) -> ProtocolError {
    ProtocolError(format!("missing or invalid field '{field}'"))
}

fn get_str(v: &Value, field: &str) -> Result<String, ProtocolError> {
    v.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(field))
}

fn get_usize(v: &Value, field: &str) -> Result<usize, ProtocolError> {
    v.get(field)
        .and_then(Value::as_usize)
        .ok_or_else(|| missing(field))
}

fn get_f64(v: &Value, field: &str) -> Result<f64, ProtocolError> {
    v.get(field)
        .and_then(Value::as_f64)
        .filter(|n| n.is_finite())
        .ok_or_else(|| missing(field))
}

fn get_dims(v: &Value, field: &str) -> Result<Vec<usize>, ProtocolError> {
    let arr = v
        .get(field)
        .and_then(Value::as_arr)
        .ok_or_else(|| missing(field))?;
    arr.iter()
        .map(|d| d.as_usize().ok_or_else(|| missing(field)))
        .collect()
}

/// Exact-integer field decode: canonically a decimal string (exact for all
/// `u64`); a plain JSON number is accepted from hand-written clients as long
/// as it is integer-exact.
fn get_u64(v: &Value, field: &str) -> Result<u64, ProtocolError> {
    match v.get(field) {
        Some(Value::Str(s)) => s.parse::<u64>().map_err(|_| missing(field)),
        Some(n) => n.as_usize().map(|n| n as u64).ok_or_else(|| missing(field)),
        None => Err(missing(field)),
    }
}

fn topology_to_value(spec: &TopologySpec) -> Value {
    Value::obj([
        ("family", Value::from(spec.family())),
        ("dims", Value::from(spec.dims())),
    ])
}

fn topology_from_value(v: &Value) -> Result<TopologySpec, ProtocolError> {
    let family = get_str(v, "family")?;
    let dims = get_dims(v, "dims")?;
    let arity = |n: usize| {
        if dims.len() == n {
            Ok(())
        } else {
            Err(ProtocolError(format!(
                "family '{family}' expects {n} dims, got {}",
                dims.len()
            )))
        }
    };
    match family.as_str() {
        "torus" => {
            if dims.is_empty() || dims.contains(&0) {
                return Err(ProtocolError(
                    "torus dims must be non-empty and positive".into(),
                ));
            }
            Ok(TopologySpec::Torus(dims))
        }
        "hypercube" => {
            arity(1)?;
            let d = u32::try_from(dims[0])
                .map_err(|_| ProtocolError("hypercube dimension out of range".into()))?;
            Ok(TopologySpec::Hypercube(d))
        }
        "dragonfly" => {
            arity(3)?;
            Ok(TopologySpec::Dragonfly(dims[0], dims[1], dims[2]))
        }
        "fattree" => {
            arity(1)?;
            Ok(TopologySpec::FatTree(dims[0]))
        }
        "hyperx" => {
            if dims.is_empty() || dims.contains(&0) {
                return Err(ProtocolError(
                    "hyperx dims must be non-empty and positive".into(),
                ));
            }
            Ok(TopologySpec::HyperX(dims))
        }
        "slimfly" => {
            arity(1)?;
            Ok(TopologySpec::SlimFly(dims[0]))
        }
        "expander" => {
            if dims.len() < 2 {
                return Err(ProtocolError(
                    "expander expects dims = [nodes, skip...]".into(),
                ));
            }
            Ok(TopologySpec::Expander(dims[0], dims[1..].to_vec()))
        }
        other => Err(ProtocolError(format!("unknown topology family '{other}'"))),
    }
}

fn routing_to_value(spec: &RoutingSpec) -> Value {
    match spec {
        RoutingSpec::DimensionOrdered => Value::obj([("kind", Value::from("dor"))]),
        RoutingSpec::ShortestPath => Value::obj([("kind", Value::from("shortest"))]),
        RoutingSpec::Ecmp { salt } => Value::obj([
            ("kind", Value::from("ecmp")),
            ("salt", Value::from(salt.to_string())),
        ]),
        RoutingSpec::Valiant { seed } => Value::obj([
            ("kind", Value::from("valiant")),
            ("seed", Value::from(seed.to_string())),
        ]),
    }
}

fn routing_from_value(v: &Value) -> Result<RoutingSpec, ProtocolError> {
    match get_str(v, "kind")?.as_str() {
        "dor" => Ok(RoutingSpec::DimensionOrdered),
        "shortest" => Ok(RoutingSpec::ShortestPath),
        "ecmp" => Ok(RoutingSpec::Ecmp {
            salt: get_u64(v, "salt")?,
        }),
        "valiant" => Ok(RoutingSpec::Valiant {
            seed: get_u64(v, "seed")?,
        }),
        other => Err(ProtocolError(format!("unknown routing kind '{other}'"))),
    }
}

fn allocator_pairs(allocator: &AllocatorSpec, pairs: &mut Vec<(&'static str, Value)>) {
    match allocator {
        AllocatorSpec::Compact => pairs.push(("allocator", Value::from("compact"))),
        AllocatorSpec::Scatter(stride) => {
            pairs.push(("allocator", Value::from("scatter")));
            pairs.push(("stride", Value::from(*stride)));
        }
    }
}

fn allocator_from_value(v: &Value) -> Result<AllocatorSpec, ProtocolError> {
    match get_str(v, "allocator")?.as_str() {
        "compact" => Ok(AllocatorSpec::Compact),
        "scatter" => Ok(AllocatorSpec::Scatter(match v.get("stride") {
            None => 7,
            Some(s) => s.as_usize().ok_or_else(|| missing("stride"))?,
        })),
        other => Err(ProtocolError(format!("unknown allocator '{other}'"))),
    }
}

fn policy_pairs(policy: &PolicySpec, pairs: &mut Vec<(&'static str, Value)>) {
    match policy {
        PolicySpec::Worst => pairs.push(("policy", Value::from("worst"))),
        PolicySpec::Best => pairs.push(("policy", Value::from("best"))),
        PolicySpec::HintAware(tol) => {
            pairs.push(("policy", Value::from("hint_aware")));
            pairs.push(("tolerance", Value::from(*tol)));
        }
    }
}

fn policy_from_value(v: &Value) -> Result<PolicySpec, ProtocolError> {
    match get_str(v, "policy")?.as_str() {
        "worst" => Ok(PolicySpec::Worst),
        "best" => Ok(PolicySpec::Best),
        "hint_aware" => Ok(PolicySpec::HintAware(get_f64(v, "tolerance")?)),
        other => Err(ProtocolError(format!("unknown policy '{other}'"))),
    }
}

fn traffic_to_value(spec: &TrafficSpec) -> Value {
    match spec {
        TrafficSpec::BisectionPairing {
            rounds,
            warmup_rounds,
            round_gigabytes,
        } => Value::obj([
            ("kind", Value::from("pairing")),
            ("rounds", Value::from(*rounds)),
            ("warmup_rounds", Value::from(*warmup_rounds)),
            ("round_gigabytes", Value::from(*round_gigabytes)),
        ]),
        TrafficSpec::AllToAll { gigabytes } => Value::obj([
            ("kind", Value::from("all_to_all")),
            ("gigabytes", Value::from(*gigabytes)),
        ]),
        TrafficSpec::RandomPermutation { gigabytes } => Value::obj([
            ("kind", Value::from("permutation")),
            ("gigabytes", Value::from(*gigabytes)),
        ]),
        TrafficSpec::JobTrace {
            jobs,
            max_nodes,
            mean_gap,
            gigabytes,
            allocator,
        } => {
            let mut pairs = vec![
                ("kind", Value::from("job_trace")),
                ("jobs", Value::from(*jobs)),
                ("max_nodes", Value::from(*max_nodes)),
                ("mean_gap", Value::from(*mean_gap)),
                ("gigabytes", Value::from(*gigabytes)),
            ];
            allocator_pairs(allocator, &mut pairs);
            Value::obj(pairs)
        }
        TrafficSpec::SchedulerTrace {
            machine,
            jobs,
            policy,
        } => {
            let mut pairs = vec![
                ("kind", Value::from("sched_trace")),
                ("machine", Value::from(machine.as_str())),
                ("jobs", Value::from(*jobs)),
            ];
            policy_pairs(policy, &mut pairs);
            Value::obj(pairs)
        }
    }
}

fn traffic_from_value(v: &Value) -> Result<TrafficSpec, ProtocolError> {
    match get_str(v, "kind")?.as_str() {
        "pairing" => Ok(TrafficSpec::BisectionPairing {
            rounds: get_usize(v, "rounds")?,
            warmup_rounds: get_usize(v, "warmup_rounds")?,
            round_gigabytes: get_f64(v, "round_gigabytes")?,
        }),
        "all_to_all" => Ok(TrafficSpec::AllToAll {
            gigabytes: get_f64(v, "gigabytes")?,
        }),
        "permutation" => Ok(TrafficSpec::RandomPermutation {
            gigabytes: get_f64(v, "gigabytes")?,
        }),
        "job_trace" => Ok(TrafficSpec::JobTrace {
            jobs: get_usize(v, "jobs")?,
            max_nodes: get_usize(v, "max_nodes")?,
            mean_gap: get_f64(v, "mean_gap")?,
            gigabytes: get_f64(v, "gigabytes")?,
            allocator: allocator_from_value(v)?,
        }),
        "sched_trace" => Ok(TrafficSpec::SchedulerTrace {
            machine: get_str(v, "machine")?,
            jobs: get_usize(v, "jobs")?,
            policy: policy_from_value(v)?,
        }),
        other => Err(ProtocolError(format!("unknown traffic kind '{other}'"))),
    }
}

fn scenario_to_value(spec: &ScenarioSpec) -> Value {
    Value::obj([
        ("topology", topology_to_value(&spec.topology)),
        ("routing", routing_to_value(&spec.routing)),
        ("traffic", traffic_to_value(&spec.traffic)),
        ("seed", Value::from(spec.seed.to_string())),
    ])
}

fn scenario_from_value(v: &Value) -> Result<ScenarioSpec, ProtocolError> {
    Ok(ScenarioSpec {
        topology: topology_from_value(v.get("topology").ok_or_else(|| missing("topology"))?)?,
        routing: routing_from_value(v.get("routing").ok_or_else(|| missing("routing"))?)?,
        traffic: traffic_from_value(v.get("traffic").ok_or_else(|| missing("traffic"))?)?,
        seed: get_u64(v, "seed")?,
    })
}

fn candidate_to_value(spec: &AllocationSpec) -> Value {
    match spec {
        AllocationSpec::TorusBlocks => Value::obj([("kind", Value::from("torus_blocks"))]),
        AllocationSpec::Blocked => Value::obj([("kind", Value::from("blocked"))]),
        AllocationSpec::Greedy => Value::obj([("kind", Value::from("greedy"))]),
        AllocationSpec::Scatter { stride } => Value::obj([
            ("kind", Value::from("scatter")),
            ("stride", Value::from(*stride)),
        ]),
        AllocationSpec::Random { samples } => Value::obj([
            ("kind", Value::from("random")),
            ("samples", Value::from(*samples)),
        ]),
    }
}

fn candidate_from_value(v: &Value) -> Result<AllocationSpec, ProtocolError> {
    match get_str(v, "kind")?.as_str() {
        "torus_blocks" => Ok(AllocationSpec::TorusBlocks),
        "blocked" => Ok(AllocationSpec::Blocked),
        "greedy" => Ok(AllocationSpec::Greedy),
        "scatter" => Ok(AllocationSpec::Scatter {
            stride: get_usize(v, "stride")?,
        }),
        "random" => Ok(AllocationSpec::Random {
            samples: get_usize(v, "samples")?,
        }),
        other => Err(ProtocolError(format!(
            "unknown candidate generator '{other}'"
        ))),
    }
}

fn advice_spec_to_value(spec: &AdviceSpec) -> Value {
    Value::obj([
        ("topology", topology_to_value(&spec.topology)),
        ("routing", routing_to_value(&spec.routing)),
        ("nodes", Value::from(spec.nodes)),
        ("gigabytes", Value::from(spec.gigabytes)),
        (
            "candidates",
            Value::Arr(spec.candidates.iter().map(candidate_to_value).collect()),
        ),
        ("seed", Value::from(spec.seed.to_string())),
    ])
}

fn advice_spec_from_value(v: &Value) -> Result<AdviceSpec, ProtocolError> {
    let candidates = v
        .get("candidates")
        .and_then(Value::as_arr)
        .ok_or_else(|| missing("candidates"))?
        .iter()
        .map(candidate_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AdviceSpec {
        topology: topology_from_value(v.get("topology").ok_or_else(|| missing("topology"))?)?,
        routing: routing_from_value(v.get("routing").ok_or_else(|| missing("routing"))?)?,
        nodes: get_usize(v, "nodes")?,
        gigabytes: get_f64(v, "gigabytes")?,
        candidates,
        seed: get_u64(v, "seed")?,
    })
}

fn candidate_result_to_value(c: &CandidateResult) -> Value {
    Value::obj([
        ("label", Value::from(c.label.as_str())),
        ("nodes", Value::from(c.nodes.clone())),
        ("bound_seconds", Value::from(c.bound_seconds)),
        ("simulated_seconds", Value::from(c.simulated_seconds)),
        ("gap", Value::from(c.gap)),
        ("cut_gbs", Value::from(c.cut_gbs)),
        (
            "internal_bisection_gbs",
            Value::from(c.internal_bisection_gbs),
        ),
        ("closed_form", Value::from(c.closed_form)),
        ("solves", Value::from(c.solves)),
    ])
}

fn candidate_result_from_value(v: &Value) -> Result<CandidateResult, ProtocolError> {
    Ok(CandidateResult {
        label: get_str(v, "label")?,
        nodes: get_dims(v, "nodes")?,
        bound_seconds: get_f64(v, "bound_seconds")?,
        simulated_seconds: get_f64(v, "simulated_seconds")?,
        gap: get_f64(v, "gap")?,
        cut_gbs: get_f64(v, "cut_gbs")?,
        internal_bisection_gbs: get_f64(v, "internal_bisection_gbs")?,
        closed_form: v
            .get("closed_form")
            .and_then(Value::as_bool)
            .ok_or_else(|| missing("closed_form"))?,
        solves: get_usize(v, "solves")?,
    })
}

fn advice_result_to_value(r: &AdviceResult) -> Value {
    Value::obj([
        ("label", Value::from(r.label.as_str())),
        ("fabric", Value::from(r.fabric.as_str())),
        ("nodes", Value::from(r.nodes)),
        (
            "candidates",
            Value::Arr(r.candidates.iter().map(candidate_result_to_value).collect()),
        ),
        ("ordering_agreement", Value::from(r.ordering_agreement)),
        ("truncated", Value::from(r.truncated)),
    ])
}

fn advice_result_from_value(v: &Value) -> Result<AdviceResult, ProtocolError> {
    let candidates = v
        .get("candidates")
        .and_then(Value::as_arr)
        .ok_or_else(|| missing("candidates"))?
        .iter()
        .map(candidate_result_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AdviceResult {
        label: get_str(v, "label")?,
        fabric: get_str(v, "fabric")?,
        nodes: get_usize(v, "nodes")?,
        candidates,
        ordering_agreement: get_f64(v, "ordering_agreement")?,
        truncated: v
            .get("truncated")
            .and_then(Value::as_bool)
            .ok_or_else(|| missing("truncated"))?,
    })
}

fn patch_to_value(patch: &FabricPatch) -> Value {
    Value::obj([
        (
            "links",
            Value::Arr(
                patch
                    .links
                    .iter()
                    .map(|l| {
                        Value::obj([
                            ("a", Value::from(l.a)),
                            ("b", Value::from(l.b)),
                            ("scale", Value::from(l.scale)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "nodes",
            Value::Arr(
                patch
                    .nodes
                    .iter()
                    .map(|n| {
                        Value::obj([
                            ("node", Value::from(n.node)),
                            ("scale", Value::from(n.scale)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn patch_from_value(v: &Value) -> Result<FabricPatch, ProtocolError> {
    // Either entry list may be omitted on the wire; an empty patch is legal
    // (it re-answers the spec unchanged).
    let links = match v.get("links") {
        None => Vec::new(),
        Some(arr) => arr
            .as_arr()
            .ok_or_else(|| missing("links"))?
            .iter()
            .map(|l| {
                Ok(LinkPatch {
                    a: get_usize(l, "a")?,
                    b: get_usize(l, "b")?,
                    scale: get_f64(l, "scale")?,
                })
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?,
    };
    let nodes = match v.get("nodes") {
        None => Vec::new(),
        Some(arr) => arr
            .as_arr()
            .ok_or_else(|| missing("nodes"))?
            .iter()
            .map(|n| {
                Ok(NodePatch {
                    node: get_usize(n, "node")?,
                    scale: get_f64(n, "scale")?,
                })
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?,
    };
    Ok(FabricPatch { links, nodes })
}

/// A kernel for [`Request::Advise`], mirroring `netpart_contention::Kernel`.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelSpec {
    /// Classical dense matmul of `n × n` matrices.
    ClassicalMatmul(u64),
    /// Strassen-Winograd matmul of `n × n` matrices.
    StrassenMatmul(u64),
    /// All-pairs N-body with `bodies` particles.
    DirectNBody(u64),
    /// Radix-2 FFT of `n` points.
    Fft(u64),
    /// Custom per-processor costs (words exchanged, flops).
    Custom(f64, f64),
}

impl KernelSpec {
    fn to_value(&self) -> Value {
        match self {
            KernelSpec::ClassicalMatmul(n) => Value::obj([
                ("name", Value::from("classical_matmul")),
                ("n", Value::from(*n)),
            ]),
            KernelSpec::StrassenMatmul(n) => Value::obj([
                ("name", Value::from("strassen_matmul")),
                ("n", Value::from(*n)),
            ]),
            KernelSpec::DirectNBody(b) => Value::obj([
                ("name", Value::from("direct_nbody")),
                ("n", Value::from(*b)),
            ]),
            KernelSpec::Fft(n) => {
                Value::obj([("name", Value::from("fft")), ("n", Value::from(*n))])
            }
            KernelSpec::Custom(words, flops) => Value::obj([
                ("name", Value::from("custom")),
                ("words_per_proc", Value::from(*words)),
                ("flops_per_proc", Value::from(*flops)),
            ]),
        }
    }

    fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        let name = get_str(v, "name")?;
        let n = || get_usize(v, "n").map(|n| n as u64);
        match name.as_str() {
            "classical_matmul" => Ok(KernelSpec::ClassicalMatmul(n()?)),
            "strassen_matmul" => Ok(KernelSpec::StrassenMatmul(n()?)),
            "direct_nbody" => Ok(KernelSpec::DirectNBody(n()?)),
            "fft" => Ok(KernelSpec::Fft(n()?)),
            "custom" => Ok(KernelSpec::Custom(
                get_f64(v, "words_per_proc")?,
                get_f64(v, "flops_per_proc")?,
            )),
            other => Err(ProtocolError(format!("unknown kernel '{other}'"))),
        }
    }
}

/// One point-to-point flow of [`Request::SimulateFlows`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Volume in gigabytes.
    pub gigabytes: f64,
}

impl FlowSpec {
    fn to_value(self) -> Value {
        Value::obj([
            ("src", Value::from(self.src)),
            ("dst", Value::from(self.dst)),
            ("gigabytes", Value::from(self.gigabytes)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        Ok(FlowSpec {
            src: get_usize(v, "src")?,
            dst: get_usize(v, "dst")?,
            gigabytes: get_f64(v, "gigabytes")?,
        })
    }
}

/// A request line. Advice and analysis queries are deterministic and cached
/// by the service; `Health`/`Stats`/`Shutdown` are control-plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Partition-geometry advice for a kernel of `size` midplanes on a named
    /// Blue Gene/Q machine (`mira`, `juqueen`, `sequoia`, …). Without an
    /// explicit kernel, a pure-communication pairing kernel (2 GB per rank)
    /// is assumed.
    Advise {
        /// Machine name.
        machine: String,
        /// Partition size in midplanes.
        size: usize,
        /// Kernel whose contention bound drives the advice.
        kernel: Option<KernelSpec>,
    },
    /// Partition bisection capacity of an allocation on a topology family.
    /// `dims` is family-specific: torus extents, `[subcube_dim]` for
    /// hypercubes, `[groups, global_ports_per_router]` for dragonfly group
    /// allocations, HyperX clique sizes, BG/Q node dims for `bgq`.
    Bisection {
        /// Family: `torus`, `hypercube`, `dragonfly`, `hyperx` or `bgq`.
        topology: String,
        /// Family-specific shape of the allocation.
        dims: Vec<usize>,
    },
    /// Max–min fair flow simulation of an explicit flow set on a fabric.
    SimulateFlows {
        /// The fabric to simulate on.
        topology: TopologySpec,
        /// The flows to run to completion.
        flows: Vec<FlowSpec>,
    },
    /// Dynamic cluster scheduling on a fabric: a synthetic job stream is
    /// allocated by the chosen allocator and each job's all-to-all exchange
    /// is flow-simulated against the running mix.
    ClusterSim {
        /// The fabric to schedule on.
        topology: TopologySpec,
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
    /// Event-driven Blue Gene/Q scheduler-policy simulation on a synthetic
    /// trace (dispatches into `netpart-sched`).
    PolicySim {
        /// Machine name.
        machine: String,
        /// Number of jobs in the synthetic trace.
        jobs: usize,
        /// Trace seed.
        seed: u64,
        /// Scheduling policy to evaluate.
        policy: PolicySpec,
    },
    /// A batch of declarative scenarios, fanned out in parallel through
    /// `netpart-scenario`'s sweep runner. Each scenario succeeds or fails
    /// independently; the summary reports one line per spec, in order.
    Sweep {
        /// The scenarios to run.
        scenarios: Vec<ScenarioSpec>,
    },
    /// Fabric-generic allocation advice: candidate allocations generated,
    /// bounded and flow-simulated on any topology family (dispatches into
    /// `netpart_scenario::run_advice`).
    AdviseFabric {
        /// The advice question.
        spec: AdviceSpec,
    },
    /// A batch of advice specs, fanned out in parallel. Each spec succeeds
    /// or fails independently; the summary reports one line per spec, in
    /// order.
    AllocationSweep {
        /// The advice specs to run.
        specs: Vec<AdviceSpec>,
    },
    /// Re-answer an advice question after a fabric delta (failed links,
    /// drained nodes): the patch scales channel capacities, and the service
    /// reuses its cached [`Request::AdviseFabric`] answer for the unpatched
    /// spec — re-scoring only the candidates the patch touches — when one is
    /// present. The response is the same `fabric_advice` document either
    /// way, bit-identical to advising on the patched fabric from scratch.
    Readvise {
        /// The advice question, on the unpatched fabric.
        spec: AdviceSpec,
        /// Capacity deltas to apply before re-advising.
        patch: FabricPatch,
    },
    /// Liveness probe.
    Health,
    /// Metrics snapshot (request counts, latency percentiles, cache stats).
    Stats,
    /// Ask the server to shut down gracefully after in-flight work drains.
    Shutdown,
}

impl Request {
    /// Wire name of the request kind (also the metrics label).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Advise { .. } => "advise",
            Request::Bisection { .. } => "bisection",
            Request::SimulateFlows { .. } => "simulate_flows",
            Request::ClusterSim { .. } => "cluster_sim",
            Request::PolicySim { .. } => "policy_sim",
            Request::Sweep { .. } => "sweep",
            Request::AdviseFabric { .. } => "advise_fabric",
            Request::AllocationSweep { .. } => "allocation_sweep",
            Request::Readvise { .. } => "readvise",
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Whether the response is a pure function of the request (and may
    /// therefore be cached and coalesced).
    pub fn cacheable(&self) -> bool {
        !matches!(self, Request::Health | Request::Stats | Request::Shutdown)
    }

    /// Canonical cache key: the canonical rendering of the request document.
    pub fn cache_key(&self) -> String {
        self.to_value().to_string()
    }

    /// Encode to a JSON document.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Advise {
                machine,
                size,
                kernel,
            } => {
                let mut pairs = vec![
                    ("type", Value::from("advise")),
                    ("machine", Value::from(machine.as_str())),
                    ("size", Value::from(*size)),
                ];
                if let Some(k) = kernel {
                    pairs.push(("kernel", k.to_value()));
                }
                Value::obj(pairs)
            }
            Request::Bisection { topology, dims } => Value::obj([
                ("type", Value::from("bisection")),
                ("topology", Value::from(topology.as_str())),
                ("dims", Value::from(dims.clone())),
            ]),
            Request::SimulateFlows { topology, flows } => Value::obj([
                ("type", Value::from("simulate_flows")),
                ("topology", topology_to_value(topology)),
                (
                    "flows",
                    Value::Arr(flows.iter().copied().map(FlowSpec::to_value).collect()),
                ),
            ]),
            Request::Sweep { scenarios } => Value::obj([
                ("type", Value::from("sweep")),
                (
                    "scenarios",
                    Value::Arr(scenarios.iter().map(scenario_to_value).collect()),
                ),
            ]),
            Request::AdviseFabric { spec } => {
                // The spec's fields live at the top level, like cluster_sim.
                let Value::Obj(mut fields) = advice_spec_to_value(spec) else {
                    unreachable!("advice specs encode as objects");
                };
                fields.insert("type".to_string(), Value::from("advise_fabric"));
                Value::Obj(fields)
            }
            Request::AllocationSweep { specs } => Value::obj([
                ("type", Value::from("allocation_sweep")),
                (
                    "specs",
                    Value::Arr(specs.iter().map(advice_spec_to_value).collect()),
                ),
            ]),
            Request::Readvise { spec, patch } => {
                // Spec fields at the top level like advise_fabric, so a
                // readvise line is an advise_fabric line plus a patch.
                let Value::Obj(mut fields) = advice_spec_to_value(spec) else {
                    unreachable!("advice specs encode as objects");
                };
                fields.insert("type".to_string(), Value::from("readvise"));
                fields.insert("patch".to_string(), patch_to_value(patch));
                Value::Obj(fields)
            }
            Request::ClusterSim {
                topology,
                jobs,
                max_nodes,
                mean_gap,
                gigabytes,
                allocator,
            } => {
                let mut pairs = vec![
                    ("type", Value::from("cluster_sim")),
                    ("topology", topology_to_value(topology)),
                    ("jobs", Value::from(*jobs)),
                    ("max_nodes", Value::from(*max_nodes)),
                    ("mean_gap", Value::from(*mean_gap)),
                    ("gigabytes", Value::from(*gigabytes)),
                ];
                allocator_pairs(allocator, &mut pairs);
                Value::obj(pairs)
            }
            Request::PolicySim {
                machine,
                jobs,
                seed,
                policy,
            } => {
                let mut pairs = vec![
                    ("type", Value::from("policy_sim")),
                    ("machine", Value::from(machine.as_str())),
                    ("jobs", Value::from(*jobs)),
                    // As a string: JSON numbers are f64, which would silently
                    // round seeds above 2^53.
                    ("seed", Value::from(seed.to_string())),
                ];
                policy_pairs(policy, &mut pairs);
                Value::obj(pairs)
            }
            Request::Health => Value::obj([("type", Value::from("health"))]),
            Request::Stats => Value::obj([("type", Value::from("stats"))]),
            Request::Shutdown => Value::obj([("type", Value::from("shutdown"))]),
        }
    }

    /// Decode from a JSON document.
    pub fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        if v.as_obj().is_none() {
            return Err(ProtocolError("request must be a JSON object".into()));
        }
        let kind = get_str(v, "type")?;
        match kind.as_str() {
            "advise" => Ok(Request::Advise {
                machine: get_str(v, "machine")?,
                size: get_usize(v, "size")?,
                kernel: match v.get("kernel") {
                    None | Some(Value::Null) => None,
                    Some(k) => Some(KernelSpec::from_value(k)?),
                },
            }),
            "bisection" => Ok(Request::Bisection {
                topology: get_str(v, "topology")?,
                dims: get_dims(v, "dims")?,
            }),
            "simulate_flows" => {
                let flows = v
                    .get("flows")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("flows"))?
                    .iter()
                    .map(FlowSpec::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::SimulateFlows {
                    topology: topology_from_value(
                        v.get("topology").ok_or_else(|| missing("topology"))?,
                    )?,
                    flows,
                })
            }
            "cluster_sim" => Ok(Request::ClusterSim {
                topology: topology_from_value(
                    v.get("topology").ok_or_else(|| missing("topology"))?,
                )?,
                jobs: get_usize(v, "jobs")?,
                max_nodes: get_usize(v, "max_nodes")?,
                mean_gap: get_f64(v, "mean_gap")?,
                gigabytes: get_f64(v, "gigabytes")?,
                allocator: allocator_from_value(v)?,
            }),
            "policy_sim" => Ok(Request::PolicySim {
                machine: get_str(v, "machine")?,
                jobs: get_usize(v, "jobs")?,
                seed: get_u64(v, "seed")?,
                policy: policy_from_value(v)?,
            }),
            "sweep" => {
                let scenarios = v
                    .get("scenarios")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("scenarios"))?
                    .iter()
                    .map(scenario_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Sweep { scenarios })
            }
            "advise_fabric" => Ok(Request::AdviseFabric {
                spec: advice_spec_from_value(v)?,
            }),
            "allocation_sweep" => {
                let specs = v
                    .get("specs")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("specs"))?
                    .iter()
                    .map(advice_spec_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::AllocationSweep { specs })
            }
            "readvise" => Ok(Request::Readvise {
                spec: advice_spec_from_value(v)?,
                patch: patch_from_value(v.get("patch").ok_or_else(|| missing("patch"))?)?,
            }),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError(format!("unknown request type '{other}'"))),
        }
    }

    /// Decode a request line. Parse failures and shape failures both come
    /// back as `Err` with a human-readable reason.
    pub fn decode(line: &str) -> Result<Self, ProtocolError> {
        let value = Value::parse(line).map_err(|e| ProtocolError(format!("invalid JSON: {e}")))?;
        Request::from_value(&value)
    }

    /// Encode as one canonical wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().to_string()
    }
}

/// Error categories of [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON or not a known request shape.
    BadRequest,
    /// The request was well-formed but names something the service does not
    /// model (unknown machine, odd-dimension torus bisection, …).
    Unsupported,
    /// The computation itself failed.
    Internal,
}

impl ErrorCode {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "bad_request" => Ok(ErrorCode::BadRequest),
            "unsupported" => Ok(ErrorCode::Unsupported),
            "internal" => Ok(ErrorCode::Internal),
            other => Err(ProtocolError(format!("unknown error code '{other}'"))),
        }
    }
}

/// Cache / latency / throughput counters of [`Response::Stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Total requests handled (including control-plane).
    pub requests_total: u64,
    /// Requests per kind, as `(kind, count)` sorted by kind.
    pub requests_by_kind: Vec<(String, u64)>,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Live entries across all cache shards.
    pub cache_entries: usize,
    /// Cache hits per request kind, as `(kind, count)` sorted by kind with
    /// zero-count kinds omitted. Empty on snapshots from older servers.
    pub cache_hits_by_kind: Vec<(String, u64)>,
    /// Cache misses per request kind, same shape as
    /// [`cache_hits_by_kind`](Self::cache_hits_by_kind).
    pub cache_misses_by_kind: Vec<(String, u64)>,
    /// Requests that were coalesced onto an identical in-flight computation.
    pub coalesced: u64,
    /// Median request latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub latency_p99_us: f64,
    /// Incremental max–min repairs that stayed incremental (telemetry
    /// aggregate; 0 on snapshots from older servers).
    pub solver_repairs: u64,
    /// Solver repairs that fell back to a full recompute.
    pub solver_full_solves: u64,
    /// Fluid-simulation rounds completed across all handled requests.
    pub solver_rounds: u64,
    /// Advice flows carried over between delta-scored candidates (telemetry
    /// aggregate; 0 on snapshots from older servers).
    pub advice_reused_flows: u64,
    /// Advice flows scored in total, reused plus freshly inserted.
    pub advice_total_flows: u64,
}

impl StatsSnapshot {
    /// Cache hit rate in `[0, 1]` (0 when nothing was cacheable yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of advice flows scored without re-arming the solver, in
    /// `[0, 1]` (0 before any advice ran).
    pub fn advice_reuse_rate(&self) -> f64 {
        if self.advice_total_flows == 0 {
            0.0
        } else {
            self.advice_reused_flows as f64 / self.advice_total_flows as f64
        }
    }
}

/// Encode a sorted `(kind, count)` list as a JSON object.
fn kind_counts_to_value(counts: &[(String, u64)]) -> Value {
    Value::Obj(
        counts
            .iter()
            .map(|(k, n)| (k.clone(), Value::from(*n)))
            .collect(),
    )
}

/// Decode an optional `(kind, count)` object under `key`; absent keys (old
/// servers) decode as empty so stats snapshots stay wire-compatible.
fn kind_counts_from_value(parent: &Value, key: &str) -> Result<Vec<(String, u64)>, ProtocolError> {
    let Some(obj) = parent.get(key) else {
        return Ok(Vec::new());
    };
    obj.as_obj()
        .ok_or_else(|| missing(key))?
        .iter()
        .map(|(k, n)| {
            n.as_usize()
                .map(|n| (k.clone(), n as u64))
                .ok_or_else(|| missing(key))
        })
        .collect()
}

/// One advice spec's line in a [`Response::AllocationSweepSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceSweepLine {
    /// The spec's canonical label.
    pub label: String,
    /// Label of the recommended (best-simulated) candidate (empty on
    /// failure).
    pub best_candidate: String,
    /// Candidates scored (0 on failure).
    pub candidates: usize,
    /// Bound-vs-simulated ordering agreement in `[0, 1]` (0 on failure).
    pub ordering_agreement: f64,
    /// `None` when the spec ran; `Some(reason)` when it failed.
    pub error: Option<String>,
}

impl AdviceSweepLine {
    /// Whether the spec ran to completion.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    fn to_value(&self) -> Value {
        match &self.error {
            None => Value::obj([
                ("label", Value::from(self.label.as_str())),
                ("status", Value::from("ok")),
                ("best_candidate", Value::from(self.best_candidate.as_str())),
                ("candidates", Value::from(self.candidates)),
                ("ordering_agreement", Value::from(self.ordering_agreement)),
            ]),
            Some(message) => Value::obj([
                ("label", Value::from(self.label.as_str())),
                ("status", Value::from("error")),
                ("message", Value::from(message.as_str())),
            ]),
        }
    }

    fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        let label = get_str(v, "label")?;
        match get_str(v, "status")?.as_str() {
            "ok" => Ok(AdviceSweepLine {
                label,
                best_candidate: get_str(v, "best_candidate")?,
                candidates: get_usize(v, "candidates")?,
                ordering_agreement: get_f64(v, "ordering_agreement")?,
                error: None,
            }),
            "error" => Ok(AdviceSweepLine {
                label,
                best_candidate: String::new(),
                candidates: 0,
                ordering_agreement: 0.0,
                error: Some(get_str(v, "message")?),
            }),
            other => Err(ProtocolError(format!(
                "unknown allocation-sweep status '{other}'"
            ))),
        }
    }
}

/// One scenario's line in a [`Response::SweepSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepLine {
    /// The spec's canonical label.
    pub label: String,
    /// Completion time of the last flow/job (seconds; 0 on failure).
    pub makespan: f64,
    /// Flows or jobs simulated (0 on failure).
    pub units: usize,
    /// Max–min rate solves the scenario needed (0 on failure).
    pub solves: usize,
    /// `None` when the scenario ran; `Some(reason)` when it failed.
    pub error: Option<String>,
}

impl SweepLine {
    /// Whether the scenario ran to completion.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    fn to_value(&self) -> Value {
        match &self.error {
            None => Value::obj([
                ("label", Value::from(self.label.as_str())),
                ("status", Value::from("ok")),
                ("makespan", Value::from(self.makespan)),
                ("units", Value::from(self.units)),
                ("solves", Value::from(self.solves)),
            ]),
            Some(message) => Value::obj([
                ("label", Value::from(self.label.as_str())),
                ("status", Value::from("error")),
                ("message", Value::from(message.as_str())),
            ]),
        }
    }

    fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        let label = get_str(v, "label")?;
        match get_str(v, "status")?.as_str() {
            "ok" => Ok(SweepLine {
                label,
                makespan: get_f64(v, "makespan")?,
                units: get_usize(v, "units")?,
                solves: get_usize(v, "solves")?,
                error: None,
            }),
            "error" => Ok(SweepLine {
                label,
                makespan: 0.0,
                units: 0,
                solves: 0,
                error: Some(get_str(v, "message")?),
            }),
            other => Err(ProtocolError(format!("unknown sweep status '{other}'"))),
        }
    }
}

/// A response line, mirroring the request kinds plus `ok` / `error`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Advise`].
    Advice {
        /// Machine name.
        machine: String,
        /// Partition size in midplanes.
        size: usize,
        /// Node dims of the worst admissible geometry.
        worst_dims: Vec<usize>,
        /// Node dims of the best admissible geometry.
        best_dims: Vec<usize>,
        /// Internal bisection links of the worst geometry.
        worst_links: u64,
        /// Internal bisection links of the best geometry.
        best_links: u64,
        /// Predicted wall-clock speedup of best over worst geometry.
        predicted_speedup: f64,
        /// Runtime regime on the worst geometry
        /// (`contention_bound` / `bandwidth_bound` / `compute_bound`).
        regime: String,
        /// Whether the scheduler should hold out for the better geometry.
        geometry_matters: bool,
    },
    /// Answer to [`Request::Bisection`].
    Bisection {
        /// Bisection capacity in unit links.
        links: f64,
    },
    /// Answer to [`Request::SimulateFlows`].
    FlowSummary {
        /// Number of flows simulated.
        flows: usize,
        /// Completion time of the last flow (seconds).
        makespan: f64,
        /// Mean flow completion time (seconds).
        mean_completion: f64,
    },
    /// Answer to [`Request::ClusterSim`].
    ClusterSummary {
        /// Fabric name.
        fabric: String,
        /// Allocator label.
        allocator: String,
        /// Jobs that ran.
        jobs: usize,
        /// Completion time of the last job (seconds).
        makespan: f64,
        /// Mean contention penalty (1.0 = nothing avoidable).
        mean_penalty: f64,
        /// Fraction of jobs with penalty above 1.05.
        avoidable_fraction: f64,
        /// Mean queue wait (seconds).
        mean_wait: f64,
    },
    /// Answer to [`Request::PolicySim`].
    PolicySummary {
        /// Policy label.
        policy: String,
        /// Jobs simulated.
        jobs: usize,
        /// Mean queue wait (seconds).
        mean_wait: f64,
        /// Mean bounded slowdown.
        mean_slowdown: f64,
        /// Mean contention penalty.
        mean_contention_penalty: f64,
        /// Fraction of jobs that received an optimal geometry.
        optimal_geometry_fraction: f64,
    },
    /// Answer to [`Request::Sweep`]: one line per scenario, in spec order.
    SweepSummary {
        /// Per-scenario outcomes.
        results: Vec<SweepLine>,
    },
    /// Answer to [`Request::AdviseFabric`]: the full ranked advice.
    FabricAdvice(AdviceResult),
    /// Answer to [`Request::AllocationSweep`]: one line per spec, in order.
    AllocationSweepSummary {
        /// Per-spec outcomes.
        results: Vec<AdviceSweepLine>,
    },
    /// Answer to [`Request::Health`].
    Health {
        /// Seconds since the server started.
        uptime_seconds: f64,
        /// Worker threads serving connections.
        workers: usize,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Acknowledgement (shutdown accepted).
    Ok,
    /// Typed failure.
    Error {
        /// Category.
        code: ErrorCode,
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    /// Encode to a JSON document.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Advice {
                machine,
                size,
                worst_dims,
                best_dims,
                worst_links,
                best_links,
                predicted_speedup,
                regime,
                geometry_matters,
            } => Value::obj([
                ("type", Value::from("advice")),
                ("machine", Value::from(machine.as_str())),
                ("size", Value::from(*size)),
                ("worst_dims", Value::from(worst_dims.clone())),
                ("best_dims", Value::from(best_dims.clone())),
                ("worst_links", Value::from(*worst_links)),
                ("best_links", Value::from(*best_links)),
                ("predicted_speedup", Value::from(*predicted_speedup)),
                ("regime", Value::from(regime.as_str())),
                ("geometry_matters", Value::from(*geometry_matters)),
            ]),
            Response::Bisection { links } => Value::obj([
                ("type", Value::from("bisection")),
                ("links", Value::from(*links)),
            ]),
            Response::FlowSummary {
                flows,
                makespan,
                mean_completion,
            } => Value::obj([
                ("type", Value::from("flow_summary")),
                ("flows", Value::from(*flows)),
                ("makespan", Value::from(*makespan)),
                ("mean_completion", Value::from(*mean_completion)),
            ]),
            Response::ClusterSummary {
                fabric,
                allocator,
                jobs,
                makespan,
                mean_penalty,
                avoidable_fraction,
                mean_wait,
            } => Value::obj([
                ("type", Value::from("cluster_summary")),
                ("fabric", Value::from(fabric.as_str())),
                ("allocator", Value::from(allocator.as_str())),
                ("jobs", Value::from(*jobs)),
                ("makespan", Value::from(*makespan)),
                ("mean_penalty", Value::from(*mean_penalty)),
                ("avoidable_fraction", Value::from(*avoidable_fraction)),
                ("mean_wait", Value::from(*mean_wait)),
            ]),
            Response::PolicySummary {
                policy,
                jobs,
                mean_wait,
                mean_slowdown,
                mean_contention_penalty,
                optimal_geometry_fraction,
            } => Value::obj([
                ("type", Value::from("policy_summary")),
                ("policy", Value::from(policy.as_str())),
                ("jobs", Value::from(*jobs)),
                ("mean_wait", Value::from(*mean_wait)),
                ("mean_slowdown", Value::from(*mean_slowdown)),
                (
                    "mean_contention_penalty",
                    Value::from(*mean_contention_penalty),
                ),
                (
                    "optimal_geometry_fraction",
                    Value::from(*optimal_geometry_fraction),
                ),
            ]),
            Response::SweepSummary { results } => Value::obj([
                ("type", Value::from("sweep_summary")),
                ("total", Value::from(results.len())),
                (
                    "ok",
                    Value::from(results.iter().filter(|r| r.is_ok()).count()),
                ),
                (
                    "results",
                    Value::Arr(results.iter().map(SweepLine::to_value).collect()),
                ),
            ]),
            Response::FabricAdvice(result) => {
                let Value::Obj(mut fields) = advice_result_to_value(result) else {
                    unreachable!("advice results encode as objects");
                };
                fields.insert("type".to_string(), Value::from("fabric_advice"));
                Value::Obj(fields)
            }
            Response::AllocationSweepSummary { results } => Value::obj([
                ("type", Value::from("allocation_sweep_summary")),
                ("total", Value::from(results.len())),
                (
                    "ok",
                    Value::from(results.iter().filter(|r| r.is_ok()).count()),
                ),
                (
                    "results",
                    Value::Arr(results.iter().map(AdviceSweepLine::to_value).collect()),
                ),
            ]),
            Response::Health {
                uptime_seconds,
                workers,
            } => Value::obj([
                ("type", Value::from("health")),
                ("status", Value::from("ok")),
                ("uptime_seconds", Value::from(*uptime_seconds)),
                ("workers", Value::from(*workers)),
            ]),
            Response::Stats(s) => Value::obj([
                ("type", Value::from("stats")),
                ("uptime_seconds", Value::from(s.uptime_seconds)),
                ("requests_total", Value::from(s.requests_total)),
                (
                    "requests_by_kind",
                    Value::Obj(
                        s.requests_by_kind
                            .iter()
                            .map(|(k, n)| (k.clone(), Value::from(*n)))
                            .collect(),
                    ),
                ),
                (
                    "cache",
                    Value::obj([
                        ("hits", Value::from(s.cache_hits)),
                        ("misses", Value::from(s.cache_misses)),
                        ("entries", Value::from(s.cache_entries)),
                        ("hit_rate", Value::from(s.hit_rate())),
                        ("hits_by_kind", kind_counts_to_value(&s.cache_hits_by_kind)),
                        (
                            "misses_by_kind",
                            kind_counts_to_value(&s.cache_misses_by_kind),
                        ),
                    ]),
                ),
                ("coalesced", Value::from(s.coalesced)),
                (
                    "latency_us",
                    Value::obj([
                        ("p50", Value::from(s.latency_p50_us)),
                        ("p99", Value::from(s.latency_p99_us)),
                    ]),
                ),
                (
                    "solver",
                    Value::obj([
                        ("repairs", Value::from(s.solver_repairs)),
                        ("full_solves", Value::from(s.solver_full_solves)),
                        ("rounds", Value::from(s.solver_rounds)),
                    ]),
                ),
                (
                    "advice",
                    Value::obj([
                        ("reused_flows", Value::from(s.advice_reused_flows)),
                        ("total_flows", Value::from(s.advice_total_flows)),
                        ("reuse_rate", Value::from(s.advice_reuse_rate())),
                    ]),
                ),
            ]),
            Response::Ok => Value::obj([("type", Value::from("ok"))]),
            Response::Error { code, message } => Value::obj([
                ("type", Value::from("error")),
                ("code", Value::from(code.as_str())),
                ("message", Value::from(message.as_str())),
            ]),
        }
    }

    /// Decode from a JSON document.
    pub fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        let kind = get_str(v, "type")?;
        match kind.as_str() {
            "advice" => Ok(Response::Advice {
                machine: get_str(v, "machine")?,
                size: get_usize(v, "size")?,
                worst_dims: get_dims(v, "worst_dims")?,
                best_dims: get_dims(v, "best_dims")?,
                worst_links: get_usize(v, "worst_links")? as u64,
                best_links: get_usize(v, "best_links")? as u64,
                predicted_speedup: get_f64(v, "predicted_speedup")?,
                regime: get_str(v, "regime")?,
                geometry_matters: v
                    .get("geometry_matters")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| missing("geometry_matters"))?,
            }),
            "bisection" => Ok(Response::Bisection {
                links: get_f64(v, "links")?,
            }),
            "flow_summary" => Ok(Response::FlowSummary {
                flows: get_usize(v, "flows")?,
                makespan: get_f64(v, "makespan")?,
                mean_completion: get_f64(v, "mean_completion")?,
            }),
            "cluster_summary" => Ok(Response::ClusterSummary {
                fabric: get_str(v, "fabric")?,
                allocator: get_str(v, "allocator")?,
                jobs: get_usize(v, "jobs")?,
                makespan: get_f64(v, "makespan")?,
                mean_penalty: get_f64(v, "mean_penalty")?,
                avoidable_fraction: get_f64(v, "avoidable_fraction")?,
                mean_wait: get_f64(v, "mean_wait")?,
            }),
            "policy_summary" => Ok(Response::PolicySummary {
                policy: get_str(v, "policy")?,
                jobs: get_usize(v, "jobs")?,
                mean_wait: get_f64(v, "mean_wait")?,
                mean_slowdown: get_f64(v, "mean_slowdown")?,
                mean_contention_penalty: get_f64(v, "mean_contention_penalty")?,
                optimal_geometry_fraction: get_f64(v, "optimal_geometry_fraction")?,
            }),
            "sweep_summary" => {
                let results = v
                    .get("results")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("results"))?
                    .iter()
                    .map(SweepLine::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::SweepSummary { results })
            }
            "fabric_advice" => Ok(Response::FabricAdvice(advice_result_from_value(v)?)),
            "allocation_sweep_summary" => {
                let results = v
                    .get("results")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("results"))?
                    .iter()
                    .map(AdviceSweepLine::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::AllocationSweepSummary { results })
            }
            "health" => Ok(Response::Health {
                uptime_seconds: get_f64(v, "uptime_seconds")?,
                workers: get_usize(v, "workers")?,
            }),
            "stats" => {
                let cache = v.get("cache").ok_or_else(|| missing("cache"))?;
                let latency = v.get("latency_us").ok_or_else(|| missing("latency_us"))?;
                let by_kind = v
                    .get("requests_by_kind")
                    .and_then(Value::as_obj)
                    .ok_or_else(|| missing("requests_by_kind"))?
                    .iter()
                    .map(|(k, n)| {
                        n.as_usize()
                            .map(|n| (k.clone(), n as u64))
                            .ok_or_else(|| missing("requests_by_kind"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                // Telemetry-era fields: absent on snapshots from older
                // servers, decoded as empty/zero.
                let solver = v.get("solver");
                let solver_count = |key: &str| -> Result<u64, ProtocolError> {
                    match solver {
                        None => Ok(0),
                        Some(s) => Ok(get_usize(s, key)? as u64),
                    }
                };
                let advice = v.get("advice");
                let advice_count = |key: &str| -> Result<u64, ProtocolError> {
                    match advice {
                        None => Ok(0),
                        Some(a) => Ok(get_usize(a, key)? as u64),
                    }
                };
                Ok(Response::Stats(StatsSnapshot {
                    uptime_seconds: get_f64(v, "uptime_seconds")?,
                    requests_total: get_usize(v, "requests_total")? as u64,
                    requests_by_kind: by_kind,
                    cache_hits: get_usize(cache, "hits")? as u64,
                    cache_misses: get_usize(cache, "misses")? as u64,
                    cache_entries: get_usize(cache, "entries")?,
                    cache_hits_by_kind: kind_counts_from_value(cache, "hits_by_kind")?,
                    cache_misses_by_kind: kind_counts_from_value(cache, "misses_by_kind")?,
                    coalesced: get_usize(v, "coalesced")? as u64,
                    latency_p50_us: get_f64(latency, "p50")?,
                    latency_p99_us: get_f64(latency, "p99")?,
                    solver_repairs: solver_count("repairs")?,
                    solver_full_solves: solver_count("full_solves")?,
                    solver_rounds: solver_count("rounds")?,
                    advice_reused_flows: advice_count("reused_flows")?,
                    advice_total_flows: advice_count("total_flows")?,
                }))
            }
            "ok" => Ok(Response::Ok),
            "error" => Ok(Response::Error {
                code: ErrorCode::from_str(&get_str(v, "code")?)?,
                message: get_str(v, "message")?,
            }),
            other => Err(ProtocolError(format!("unknown response type '{other}'"))),
        }
    }

    /// Decode a response line.
    pub fn decode(line: &str) -> Result<Self, ProtocolError> {
        let value = Value::parse(line).map_err(|e| ProtocolError(format!("invalid JSON: {e}")))?;
        Response::from_value(&value)
    }

    /// Encode as one canonical wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let requests = vec![
            Request::Advise {
                machine: "mira".into(),
                size: 16,
                kernel: Some(KernelSpec::Fft(1 << 20)),
            },
            Request::Bisection {
                topology: "torus".into(),
                dims: vec![8, 4, 4],
            },
            Request::SimulateFlows {
                topology: TopologySpec::Hypercube(5),
                flows: vec![FlowSpec {
                    src: 0,
                    dst: 17,
                    gigabytes: 0.5,
                }],
            },
            Request::ClusterSim {
                topology: TopologySpec::Torus(vec![4, 4, 4]),
                jobs: 20,
                max_nodes: 16,
                mean_gap: 30.0,
                gigabytes: 0.25,
                allocator: AllocatorSpec::Scatter(5),
            },
            Request::PolicySim {
                machine: "juqueen".into(),
                jobs: 50,
                seed: 42,
                policy: PolicySpec::HintAware(0.99),
            },
            Request::Sweep {
                scenarios: vec![
                    ScenarioSpec {
                        topology: TopologySpec::Torus(vec![4, 4, 2]),
                        routing: RoutingSpec::DimensionOrdered,
                        traffic: TrafficSpec::BisectionPairing {
                            rounds: 8,
                            warmup_rounds: 2,
                            round_gigabytes: 0.5,
                        },
                        seed: u64::MAX,
                    },
                    ScenarioSpec {
                        topology: TopologySpec::SlimFly(5),
                        routing: RoutingSpec::Ecmp { salt: u64::MAX - 1 },
                        traffic: TrafficSpec::JobTrace {
                            jobs: 8,
                            max_nodes: 8,
                            mean_gap: 30.0,
                            gigabytes: 0.25,
                            allocator: AllocatorSpec::Scatter(3),
                        },
                        seed: 9,
                    },
                    ScenarioSpec {
                        topology: TopologySpec::Expander(40, vec![1, 7, 16]),
                        routing: RoutingSpec::Valiant { seed: 4 },
                        traffic: TrafficSpec::SchedulerTrace {
                            machine: "mira".into(),
                            jobs: 10,
                            policy: PolicySpec::HintAware(0.75),
                        },
                        seed: 0,
                    },
                ],
            },
            Request::Health,
            Request::Stats,
            Request::Shutdown,
        ];
        for r in requests {
            let line = r.encode();
            assert_eq!(Request::decode(&line).unwrap(), r, "line {line}");
        }
    }

    #[test]
    fn sweep_summary_round_trips() {
        let response = Response::SweepSummary {
            results: vec![
                SweepLine {
                    label: "torus[4,4]/dor/pairing(6x0.5GB)/s42".into(),
                    makespan: 12.5,
                    units: 16,
                    solves: 3,
                    error: None,
                },
                SweepLine {
                    label: "hypercube[4]/dor/all-to-all(1GB)/s0".into(),
                    makespan: 0.0,
                    units: 0,
                    solves: 0,
                    error: Some("invalid spec: dimension-ordered routing needs a torus".into()),
                },
            ],
        };
        let line = response.encode();
        assert!(
            line.contains(r#""total":2"#) && line.contains(r#""ok":1"#),
            "{line}"
        );
        assert_eq!(Response::decode(&line).unwrap(), response);
    }

    #[test]
    fn cache_key_is_canonical_across_key_order() {
        let a = Request::decode(r#"{"type":"advise","machine":"mira","size":8}"#).unwrap();
        let b = Request::decode(r#"{"size":8,"machine":"mira","type":"advise"}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{}").is_err());
        assert!(Request::decode(r#"{"type":"frobnicate"}"#).is_err());
        assert!(Request::decode(r#"{"type":"advise","machine":"mira"}"#).is_err());
        assert!(Request::decode(r#"{"type":"advise","machine":"mira","size":-3}"#).is_err());
        assert!(Request::decode("[1,2,3]").is_err());
    }

    fn sample_advice_spec() -> AdviceSpec {
        AdviceSpec {
            topology: TopologySpec::Torus(vec![4, 4, 2]),
            routing: RoutingSpec::DimensionOrdered,
            nodes: 8,
            gigabytes: 0.25,
            candidates: vec![
                AllocationSpec::TorusBlocks,
                AllocationSpec::Scatter { stride: 3 },
                AllocationSpec::Random { samples: 2 },
            ],
            seed: u64::MAX,
        }
    }

    #[test]
    fn readvise_round_trips() {
        let requests = vec![
            Request::AdviseFabric {
                spec: sample_advice_spec(),
            },
            Request::Readvise {
                spec: sample_advice_spec(),
                patch: FabricPatch {
                    links: vec![LinkPatch {
                        a: 0,
                        b: 1,
                        scale: 1e-3,
                    }],
                    nodes: vec![NodePatch {
                        node: 3,
                        scale: 0.5,
                    }],
                },
            },
            Request::Readvise {
                spec: sample_advice_spec(),
                patch: FabricPatch {
                    links: vec![],
                    nodes: vec![],
                },
            },
        ];
        for r in requests {
            let line = r.encode();
            assert_eq!(Request::decode(&line).unwrap(), r, "line {line}");
        }
    }

    #[test]
    fn readvise_tolerates_omitted_patch_lists() {
        let full = Request::Readvise {
            spec: sample_advice_spec(),
            patch: FabricPatch {
                links: vec![],
                nodes: vec![],
            },
        }
        .encode();
        // A client may send `"patch":{}` — both lists default to empty.
        let line = full.replace(r#""patch":{"links":[],"nodes":[]}"#, r#""patch":{}"#);
        assert_ne!(line, full, "substitution must have applied");
        let decoded = Request::decode(&line).unwrap();
        let Request::Readvise { patch, .. } = decoded else {
            panic!("expected readvise, got {decoded:?}");
        };
        assert!(patch.links.is_empty() && patch.nodes.is_empty());
        // But the patch object itself is mandatory.
        let without = line.replace(r#","patch":{}"#, "");
        assert!(Request::decode(&without).is_err());
    }

    #[test]
    fn stats_advice_counters_round_trip_and_default_to_zero() {
        let stats = StatsSnapshot {
            uptime_seconds: 1.5,
            requests_total: 7,
            requests_by_kind: vec![("advise_fabric".into(), 4), ("readvise".into(), 3)],
            cache_hits: 2,
            cache_misses: 5,
            cache_entries: 5,
            cache_hits_by_kind: vec![("readvise".into(), 2)],
            cache_misses_by_kind: vec![("advise_fabric".into(), 4), ("readvise".into(), 1)],
            coalesced: 0,
            latency_p50_us: 110.0,
            latency_p99_us: 900.0,
            solver_repairs: 12,
            solver_full_solves: 1,
            solver_rounds: 88,
            advice_reused_flows: 1800,
            advice_total_flows: 2048,
        };
        let line = Response::Stats(stats.clone()).encode();
        assert!(
            line.contains(r#""reused_flows":1800,"total_flows":2048"#),
            "{line}"
        );
        assert_eq!(Response::decode(&line).unwrap(), Response::Stats(stats));

        // Snapshots from servers predating the advice counters decode as 0.
        // Canonical encoding sorts keys, so "advice" leads the object.
        let legacy = line.replace(
            r#""advice":{"reuse_rate":0.87890625,"reused_flows":1800,"total_flows":2048},"#,
            "",
        );
        assert_ne!(legacy, line, "substitution must have applied");
        let Response::Stats(decoded) = Response::decode(&legacy).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(decoded.advice_reused_flows, 0);
        assert_eq!(decoded.advice_total_flows, 0);
        assert_eq!(decoded.advice_reuse_rate(), 0.0);
    }

    #[test]
    fn control_plane_requests_are_not_cacheable() {
        assert!(!Request::Health.cacheable());
        assert!(!Request::Stats.cacheable());
        assert!(!Request::Shutdown.cacheable());
        assert!(Request::Bisection {
            topology: "torus".into(),
            dims: vec![4, 4],
        }
        .cacheable());
    }
}
