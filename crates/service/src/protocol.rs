//! The JSON-lines wire protocol: typed requests and responses.
//!
//! One request per line, one response line per request. Documents are
//! parsed with [`serde::json`] and rendered canonically (sorted object
//! keys, compact), so the rendered form of a [`Request`] doubles as its
//! cache key. Every decode error is total — malformed input becomes a
//! typed [`Response::Error`], never a panic.
//!
//! Each wire type is declared once, as a table from which both directions
//! are generated, so encoder and decoder cannot drift apart. `object!`
//! lists a struct's members; `tagged!` lists an enum's variants under the
//! member that names them (`type`, `kind`, `name` or `policy`). Each member
//! names its codec: how its value is written under its key and read back.
//! The key is the member's name. Decode order is table order, so a line
//! with several faults reports the first member listed that is at fault.
//!
//! Five types carry a rule the tables do not express and are written by
//! hand: [`TopologySpec`] (per-family dims), [`AllocatorSpec`] (a scatter
//! without a stride takes 7), [`StatsSnapshot`] (grouped counters, derived
//! rates, groups that older servers omit) and the two sweep-line types (an
//! ok and an error shape).

use serde::json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

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

/// One point-to-point flow of [`Request::SimulateFlows`]: the engine's own
/// flow type, which the handler simulates as sent.
pub use netpart_engine::Flow as FlowSpec;

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

/// The members of one JSON object.
type Map = BTreeMap<String, Value>;

/// How one wire form is written under its key and read back.
///
/// `to_value`/`from_value` convert a lone value (a member's, or a list
/// element's); `write`/`read` place it under its key in a holder object,
/// and are overridden by the forms that are not simply "one value under the
/// key". A leaf that does not fit is refused as
/// `missing or invalid field '<key>'`.
trait Codec {
    /// The Rust value this form carries.
    type Item;

    fn to_value(item: &Self::Item) -> Value;

    fn from_value(v: &Value, key: &str) -> Result<Self::Item, ProtocolError>;

    fn write(item: &Self::Item, key: &str, obj: &mut Map) {
        obj.insert(key.to_string(), Self::to_value(item));
    }

    fn read(holder: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        Self::from_value(holder.get(key).ok_or_else(|| missing(key))?, key)
    }
}

/// A wire type whose members fill one JSON object: its own when it is
/// nested under a key (the blanket [`Codec`] below), the holder's when it
/// is [`Flat`].
trait Object: Sized {
    fn put(&self, obj: &mut Map);

    fn get(v: &Value) -> Result<Self, ProtocolError>;
}

fn object_value<T: Object>(item: &T) -> Value {
    let mut obj = Map::new();
    item.put(&mut obj);
    Value::Obj(obj)
}

/// The string under the member that names a variant.
fn tag<'a>(v: &'a Value, key: &str) -> Result<&'a str, ProtocolError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| missing(key))
}

/// Leaf codecs, one line each: `Codec => carried type: encode, decode`.
/// A value the decoder does not take is `missing or invalid field '<key>'`.
macro_rules! leaf {
    ($($codec:ty => $item:ty: $encode:expr, $decode:expr;)*) => {$(
        impl Codec for $codec {
            type Item = $item;

            fn to_value(item: &$item) -> Value {
                $encode(item)
            }

            fn from_value(v: &Value, key: &str) -> Result<$item, ProtocolError> {
                $decode(v).ok_or_else(|| missing(key))
            }
        }
    )*};
}

/// Seeds and salts: a decimal string, exact for every `u64` (a JSON number
/// is an `f64` and would round them above 2^53). An integer-exact number
/// is also accepted from hand-written clients.
struct Exact;

leaf! {
    String => String: |s: &String| Value::from(s.as_str()),
        |v: &Value| v.as_str().map(str::to_string);
    bool => bool: |b: &bool| Value::Bool(*b), Value::as_bool;
    usize => usize: |n: &usize| Value::from(*n), Value::as_usize;
    // Finite only: JSON has no infinity or NaN.
    f64 => f64: |x: &f64| Value::from(*x), |v: &Value| v.as_f64().filter(|x| x.is_finite());
    // A JSON number: counters, link counts and kernel sizes.
    u64 => u64: |n: &u64| Value::from(*n), |v: &Value| v.as_usize().map(|n| n as u64);
    Exact => u64: |n: &u64| Value::from(n.to_string()), |v: &Value| match v {
        Value::Str(s) => s.parse::<u64>().ok(),
        n => n.as_usize().map(|n| n as u64),
    };
}

impl Codec for ErrorCode {
    type Item = ErrorCode;

    fn to_value(code: &ErrorCode) -> Value {
        Value::from(code.as_str())
    }

    fn from_value(v: &Value, key: &str) -> Result<ErrorCode, ProtocolError> {
        ErrorCode::from_str(v.as_str().ok_or_else(|| missing(key))?)
    }
}

/// `(kind, count)` pairs as an object from kind to count.
struct Counts;

impl Codec for Counts {
    type Item = Vec<(String, u64)>;

    fn to_value(counts: &Self::Item) -> Value {
        Value::Obj(
            counts
                .iter()
                .map(|(k, n)| (k.clone(), Value::from(*n)))
                .collect(),
        )
    }

    fn from_value(v: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        let obj = v.as_obj().ok_or_else(|| missing(key))?;
        obj.iter()
            .map(|(k, n)| Ok((k.clone(), u64::from_value(n, key)?)))
            .collect()
    }
}

/// A list: dims and node sets (a bad element is the list's fault), or
/// objects (a bad element reports its own member).
impl<C: Codec> Codec for Vec<C> {
    type Item = Vec<C::Item>;

    fn to_value(items: &Self::Item) -> Value {
        Value::Arr(items.iter().map(C::to_value).collect())
    }

    fn from_value(v: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        let items = v.as_arr().ok_or_else(|| missing(key))?;
        items.iter().map(|item| C::from_value(item, key)).collect()
    }
}

/// A nested object.
impl<T: Object> Codec for T {
    type Item = T;

    fn to_value(item: &T) -> Value {
        object_value(item)
    }

    fn from_value(v: &Value, _key: &str) -> Result<T, ProtocolError> {
        T::get(v)
    }
}

/// A nested object that must be one: `null`, a number, a string or a list
/// under its key is refused, where the blanket form would read each member
/// as absent.
struct Strict<T>(PhantomData<T>);

impl<T: Object> Codec for Strict<T> {
    type Item = T;

    fn to_value(item: &T) -> Value {
        object_value(item)
    }

    fn from_value(v: &Value, key: &str) -> Result<T, ProtocolError> {
        v.as_obj().ok_or_else(|| missing(key))?;
        T::get(v)
    }
}

/// Omitted when `None`; absent or `null` reads as `None`.
impl<C: Codec> Codec for Option<C> {
    type Item = Option<C::Item>;

    fn to_value(item: &Self::Item) -> Value {
        item.as_ref().map_or(Value::Null, C::to_value)
    }

    fn from_value(v: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        match v {
            Value::Null => Ok(None),
            v => C::from_value(v, key).map(Some),
        }
    }

    fn write(item: &Self::Item, key: &str, obj: &mut Map) {
        if let Some(item) = item {
            C::write(item, key, obj);
        }
    }

    fn read(holder: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        holder
            .get(key)
            .map_or(Ok(None), |v| Self::from_value(v, key))
    }
}

/// A member that may be omitted: absent reads as empty.
struct OrEmpty<C>(PhantomData<C>);

impl<C: Codec<Item: Default>> Codec for OrEmpty<C> {
    type Item = C::Item;

    fn to_value(item: &Self::Item) -> Value {
        C::to_value(item)
    }

    fn from_value(v: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        C::from_value(v, key)
    }

    fn read(holder: &Value, key: &str) -> Result<Self::Item, ProtocolError> {
        holder
            .get(key)
            .map_or(Ok(C::Item::default()), |v| C::from_value(v, key))
    }
}

/// An object whose members sit in the holder itself rather than under the
/// key (the key is unused).
struct Flat<T>(PhantomData<T>);

impl<T: Object> Codec for Flat<T> {
    type Item = T;

    fn to_value(item: &T) -> Value {
        object_value(item)
    }

    fn from_value(v: &Value, _key: &str) -> Result<T, ProtocolError> {
        T::get(v)
    }

    fn write(item: &T, _key: &str, obj: &mut Map) {
        item.put(obj);
    }

    fn read(holder: &Value, _key: &str) -> Result<T, ProtocolError> {
        T::get(holder)
    }
}

/// A sweep summary's lines, with the derived counts beside them: `total`
/// lines, of which `ok` have status `ok` (written, never read back).
struct Summary<L>(PhantomData<L>);

impl<L: Object> Codec for Summary<L> {
    type Item = Vec<L>;

    fn to_value(lines: &Vec<L>) -> Value {
        <Vec<L>>::to_value(lines)
    }

    fn from_value(v: &Value, key: &str) -> Result<Vec<L>, ProtocolError> {
        <Vec<L>>::from_value(v, key)
    }

    fn write(lines: &Vec<L>, key: &str, obj: &mut Map) {
        let lines: Vec<Value> = lines.iter().map(object_value).collect();
        let ok = lines
            .iter()
            .filter(|line| line.get("status").and_then(Value::as_str) == Some("ok"));
        obj.insert("ok".to_string(), Value::from(ok.count()));
        obj.insert("total".to_string(), Value::from(lines.len()));
        obj.insert(key.to_string(), Value::Arr(lines));
    }
}

/// A struct's table: `Type { member: Codec, ... }`, members in decode order.
macro_rules! object {
    ($($ty:ty { $($field:ident: $codec:ty),* $(,)? })*) => {$(
        impl Object for $ty {
            fn put(&self, obj: &mut Map) {
                $(<$codec as Codec>::write(&self.$field, stringify!($field), obj);)*
            }

            fn get(v: &Value) -> Result<Self, ProtocolError> {
                Ok(Self {
                    $($field: <$codec as Codec>::read(v, stringify!($field))?,)*
                })
            }
        }
    )*};
}

/// An enum's table: `Type by "tag", "unknown-tag message" { ... }`, one
/// line per variant: `"name" => Variant`, then its members in decode order
/// as `{ member: Codec, ... }` or `(member: Codec, ...)`, then any constant
/// members it writes as `["key": "value"]`.
macro_rules! tagged {
    ($($ty:ident by $tag:literal, $unknown:literal {
        $($name:literal => $variant:ident
            $({ $($field:ident: $codec:ty),* })?
            $(( $($pfield:ident: $pcodec:ty),* ))?
            $([ $($ckey:literal: $cvalue:literal),* ])?
        ),* $(,)?
    })*) => {$(
        impl Object for $ty {
            fn put(&self, obj: &mut Map) {
                let name = match self {
                    $(Self::$variant $({ $($field),* })? $(( $($pfield),* ))? => {
                        $($(<$codec as Codec>::write($field, stringify!($field), obj);)*)?
                        $($(<$pcodec as Codec>::write($pfield, stringify!($pfield), obj);)*)?
                        $($(obj.insert($ckey.to_string(), Value::from($cvalue));)*)?
                        $name
                    })*
                };
                obj.insert($tag.to_string(), Value::from(name));
            }

            fn get(v: &Value) -> Result<Self, ProtocolError> {
                Ok(match tag(v, $tag)? {
                    $($name => Self::$variant
                        $({ $($field: <$codec as Codec>::read(v, stringify!($field))?),* })?
                        $(( $(<$pcodec as Codec>::read(v, stringify!($pfield))?),* ))?,
                    )*
                    other => {
                        return Err(ProtocolError(format!(concat!($unknown, " '{}'"), other)))
                    }
                })
            }
        }
    )*};
}

impl Object for TopologySpec {
    fn put(&self, obj: &mut Map) {
        obj.insert("family".to_string(), Value::from(self.family()));
        obj.insert("dims".to_string(), Value::from(self.dims()));
    }

    fn get(v: &Value) -> Result<Self, ProtocolError> {
        let family = tag(v, "family")?;
        let dims = <Vec<usize>>::read(v, "dims")?;
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
        let positive = |dims: Vec<usize>| {
            if dims.is_empty() || dims.contains(&0) {
                Err(ProtocolError(format!(
                    "{family} dims must be non-empty and positive"
                )))
            } else {
                Ok(dims)
            }
        };
        match family {
            "torus" => Ok(TopologySpec::Torus(positive(dims)?)),
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
            "hyperx" => Ok(TopologySpec::HyperX(positive(dims)?)),
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
}

impl Object for AllocatorSpec {
    fn put(&self, obj: &mut Map) {
        let name = match self {
            AllocatorSpec::Compact => "compact",
            AllocatorSpec::Scatter(stride) => {
                usize::write(stride, "stride", obj);
                "scatter"
            }
        };
        obj.insert("allocator".to_string(), Value::from(name));
    }

    fn get(v: &Value) -> Result<Self, ProtocolError> {
        match tag(v, "allocator")? {
            "compact" => Ok(AllocatorSpec::Compact),
            // A scatter without a stride takes 7 (an explicit null is
            // refused, not defaulted).
            "scatter" => Ok(AllocatorSpec::Scatter(match v.get("stride") {
                None => 7,
                Some(stride) => usize::from_value(stride, "stride")?,
            })),
            other => Err(ProtocolError(format!("unknown allocator '{other}'"))),
        }
    }
}

object! {
    ScenarioSpec { topology: TopologySpec, routing: RoutingSpec, traffic: TrafficSpec, seed: Exact }
    AdviceSpec {
        candidates: Vec<AllocationSpec>,
        topology: TopologySpec,
        routing: RoutingSpec,
        nodes: usize,
        gigabytes: f64,
        seed: Exact,
    }
    CandidateResult {
        label: String,
        nodes: Vec<usize>,
        bound_seconds: f64,
        simulated_seconds: f64,
        gap: f64,
        cut_gbs: f64,
        internal_bisection_gbs: f64,
        closed_form: bool,
        solves: usize,
    }
    AdviceResult {
        candidates: Vec<CandidateResult>,
        label: String,
        fabric: String,
        nodes: usize,
        ordering_agreement: f64,
        truncated: bool,
    }
    FabricPatch { links: OrEmpty<Vec<LinkPatch>>, nodes: OrEmpty<Vec<NodePatch>> }
    LinkPatch { a: usize, b: usize, scale: f64 }
    NodePatch { node: usize, scale: f64 }
    FlowSpec { src: usize, dst: usize, gigabytes: f64 }
}

tagged! {
    RoutingSpec by "kind", "unknown routing kind" {
        "dor" => DimensionOrdered,
        "shortest" => ShortestPath,
        "ecmp" => Ecmp { salt: Exact },
        "valiant" => Valiant { seed: Exact },
    }
    TrafficSpec by "kind", "unknown traffic kind" {
        "pairing" => BisectionPairing { rounds: usize, warmup_rounds: usize, round_gigabytes: f64 },
        "all_to_all" => AllToAll { gigabytes: f64 },
        "permutation" => RandomPermutation { gigabytes: f64 },
        "job_trace" => JobTrace {
            jobs: usize,
            max_nodes: usize,
            mean_gap: f64,
            gigabytes: f64,
            allocator: Flat<AllocatorSpec>
        },
        "sched_trace" => SchedulerTrace { machine: String, jobs: usize, policy: Flat<PolicySpec> },
    }
    AllocationSpec by "kind", "unknown candidate generator" {
        "torus_blocks" => TorusBlocks,
        "blocked" => Blocked,
        "greedy" => Greedy,
        "scatter" => Scatter { stride: usize },
        "random" => Random { samples: usize },
    }
    PolicySpec by "policy", "unknown policy" {
        "worst" => Worst,
        "best" => Best,
        "hint_aware" => HintAware(tolerance: f64),
    }
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

tagged! {
    KernelSpec by "name", "unknown kernel" {
        "classical_matmul" => ClassicalMatmul(n: u64),
        "strassen_matmul" => StrassenMatmul(n: u64),
        "direct_nbody" => DirectNBody(n: u64),
        "fft" => Fft(n: u64),
        "custom" => Custom(words_per_proc: f64, flops_per_proc: f64),
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
        /// Capacity deltas to apply before re-advising: a JSON object, in
        /// which either list may be omitted.
        patch: FabricPatch,
    },
    /// Liveness probe.
    Health,
    /// Metrics snapshot (request counts, latency percentiles, cache stats).
    Stats,
    /// Ask the server to shut down gracefully after in-flight work drains.
    Shutdown,
}

tagged! {
    Request by "type", "unknown request type" {
        "advise" => Advise { machine: String, size: usize, kernel: Option<KernelSpec> },
        "bisection" => Bisection { topology: String, dims: Vec<usize> },
        "simulate_flows" => SimulateFlows { flows: Vec<FlowSpec>, topology: TopologySpec },
        "cluster_sim" => ClusterSim {
            topology: TopologySpec,
            jobs: usize,
            max_nodes: usize,
            mean_gap: f64,
            gigabytes: f64,
            allocator: Flat<AllocatorSpec>
        },
        "policy_sim" => PolicySim {
            machine: String,
            jobs: usize,
            seed: Exact,
            policy: Flat<PolicySpec>
        },
        "sweep" => Sweep { scenarios: Vec<ScenarioSpec> },
        "advise_fabric" => AdviseFabric { spec: Flat<AdviceSpec> },
        "allocation_sweep" => AllocationSweep { specs: Vec<AdviceSpec> },
        "readvise" => Readvise { spec: Flat<AdviceSpec>, patch: Strict<FabricPatch> },
        "health" => Health,
        "stats" => Stats,
        "shutdown" => Shutdown,
    }
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
        object_value(self)
    }

    /// Decode from a JSON document.
    pub fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        if v.as_obj().is_none() {
            return Err(ProtocolError("request must be a JSON object".into()));
        }
        Request::get(v)
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
    /// Advice flows carried over from one scored candidate to the next
    /// (telemetry aggregate). Reads 0: candidates are scored independently,
    /// so nothing is carried over; kept on the wire for compatibility.
    pub advice_reused_flows: u64,
    /// Advice flows scored in total.
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

    /// Fraction of advice flows carried over between candidates, in
    /// `[0, 1]`; 0, like [`advice_reused_flows`](Self::advice_reused_flows).
    pub fn advice_reuse_rate(&self) -> f64 {
        if self.advice_total_flows == 0 {
            0.0
        } else {
            self.advice_reused_flows as f64 / self.advice_total_flows as f64
        }
    }
}

impl Object for StatsSnapshot {
    fn put(&self, obj: &mut Map) {
        let members = [
            ("uptime_seconds", Value::from(self.uptime_seconds)),
            ("requests_total", Value::from(self.requests_total)),
            ("requests_by_kind", Counts::to_value(&self.requests_by_kind)),
            ("coalesced", Value::from(self.coalesced)),
            (
                "cache",
                Value::obj([
                    ("hits", Value::from(self.cache_hits)),
                    ("misses", Value::from(self.cache_misses)),
                    ("entries", Value::from(self.cache_entries)),
                    ("hit_rate", Value::from(self.hit_rate())),
                    ("hits_by_kind", Counts::to_value(&self.cache_hits_by_kind)),
                    (
                        "misses_by_kind",
                        Counts::to_value(&self.cache_misses_by_kind),
                    ),
                ]),
            ),
            (
                "latency_us",
                Value::obj([
                    ("p50", Value::from(self.latency_p50_us)),
                    ("p99", Value::from(self.latency_p99_us)),
                ]),
            ),
            (
                "solver",
                Value::obj([
                    ("repairs", Value::from(self.solver_repairs)),
                    ("full_solves", Value::from(self.solver_full_solves)),
                    ("rounds", Value::from(self.solver_rounds)),
                ]),
            ),
            (
                "advice",
                Value::obj([
                    ("reused_flows", Value::from(self.advice_reused_flows)),
                    ("total_flows", Value::from(self.advice_total_flows)),
                    ("reuse_rate", Value::from(self.advice_reuse_rate())),
                ]),
            ),
        ];
        obj.extend(members.map(|(key, value)| (key.to_string(), value)));
    }

    fn get(v: &Value) -> Result<Self, ProtocolError> {
        let cache = v.get("cache").ok_or_else(|| missing("cache"))?;
        let latency = v.get("latency_us").ok_or_else(|| missing("latency_us"))?;
        let requests_by_kind = Counts::read(v, "requests_by_kind")?;
        // The solver and advice groups are absent on snapshots from older
        // servers and read as zero; the derived rates are never read.
        let count = |group: Option<&Value>, key| group.map_or(Ok(0), |g| u64::read(g, key));
        let (solver, advice) = (v.get("solver"), v.get("advice"));
        Ok(StatsSnapshot {
            uptime_seconds: f64::read(v, "uptime_seconds")?,
            requests_total: u64::read(v, "requests_total")?,
            requests_by_kind,
            cache_hits: u64::read(cache, "hits")?,
            cache_misses: u64::read(cache, "misses")?,
            cache_entries: usize::read(cache, "entries")?,
            cache_hits_by_kind: OrEmpty::<Counts>::read(cache, "hits_by_kind")?,
            cache_misses_by_kind: OrEmpty::<Counts>::read(cache, "misses_by_kind")?,
            coalesced: u64::read(v, "coalesced")?,
            latency_p50_us: f64::read(latency, "p50")?,
            latency_p99_us: f64::read(latency, "p99")?,
            solver_repairs: count(solver, "repairs")?,
            solver_full_solves: count(solver, "full_solves")?,
            solver_rounds: count(solver, "rounds")?,
            advice_reused_flows: count(advice, "reused_flows")?,
            advice_total_flows: count(advice, "total_flows")?,
        })
    }
}

/// Write a sweep line's label and status: `ok` plus its own members, or
/// `error` plus the message.
fn put_line(label: &str, error: &Option<String>, obj: &mut Map, ok: impl FnOnce(&mut Map)) {
    obj.insert("label".to_string(), Value::from(label));
    let status = match error {
        None => {
            ok(obj);
            "ok"
        }
        Some(message) => {
            obj.insert("message".to_string(), Value::from(message.as_str()));
            "error"
        }
    };
    obj.insert("status".to_string(), Value::from(status));
}

/// Read a sweep line's label and status: `None` for `ok` (its members are
/// read next), the message for `error`.
fn get_line(v: &Value, unknown: &str) -> Result<(String, Option<String>), ProtocolError> {
    let label = String::read(v, "label")?;
    match tag(v, "status")? {
        "ok" => Ok((label, None)),
        "error" => Ok((label, Some(String::read(v, "message")?))),
        other => Err(ProtocolError(format!("{unknown} '{other}'"))),
    }
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
}

impl Object for AdviceSweepLine {
    fn put(&self, obj: &mut Map) {
        put_line(&self.label, &self.error, obj, |obj| {
            String::write(&self.best_candidate, "best_candidate", obj);
            usize::write(&self.candidates, "candidates", obj);
            f64::write(&self.ordering_agreement, "ordering_agreement", obj);
        });
    }

    fn get(v: &Value) -> Result<Self, ProtocolError> {
        let line = match get_line(v, "unknown allocation-sweep status")? {
            (label, None) => AdviceSweepLine {
                label,
                best_candidate: String::read(v, "best_candidate")?,
                candidates: usize::read(v, "candidates")?,
                ordering_agreement: f64::read(v, "ordering_agreement")?,
                error: None,
            },
            (label, error) => AdviceSweepLine {
                label,
                best_candidate: String::new(),
                candidates: 0,
                ordering_agreement: 0.0,
                error,
            },
        };
        Ok(line)
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
}

impl Object for SweepLine {
    fn put(&self, obj: &mut Map) {
        put_line(&self.label, &self.error, obj, |obj| {
            f64::write(&self.makespan, "makespan", obj);
            usize::write(&self.units, "units", obj);
            usize::write(&self.solves, "solves", obj);
        });
    }

    fn get(v: &Value) -> Result<Self, ProtocolError> {
        let line = match get_line(v, "unknown sweep status")? {
            (label, None) => SweepLine {
                label,
                makespan: f64::read(v, "makespan")?,
                units: usize::read(v, "units")?,
                solves: usize::read(v, "solves")?,
                error: None,
            },
            (label, error) => SweepLine {
                label,
                makespan: 0.0,
                units: 0,
                solves: 0,
                error,
            },
        };
        Ok(line)
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

tagged! {
    Response by "type", "unknown response type" {
        "advice" => Advice {
            machine: String,
            size: usize,
            worst_dims: Vec<usize>,
            best_dims: Vec<usize>,
            worst_links: u64,
            best_links: u64,
            predicted_speedup: f64,
            regime: String,
            geometry_matters: bool
        },
        "bisection" => Bisection { links: f64 },
        "flow_summary" => FlowSummary { flows: usize, makespan: f64, mean_completion: f64 },
        "cluster_summary" => ClusterSummary {
            fabric: String,
            allocator: String,
            jobs: usize,
            makespan: f64,
            mean_penalty: f64,
            avoidable_fraction: f64,
            mean_wait: f64
        },
        "policy_summary" => PolicySummary {
            policy: String,
            jobs: usize,
            mean_wait: f64,
            mean_slowdown: f64,
            mean_contention_penalty: f64,
            optimal_geometry_fraction: f64
        },
        "sweep_summary" => SweepSummary { results: Summary<SweepLine> },
        "fabric_advice" => FabricAdvice(result: Flat<AdviceResult>),
        "allocation_sweep_summary" => AllocationSweepSummary { results: Summary<AdviceSweepLine> },
        "health" => Health { uptime_seconds: f64, workers: usize } ["status": "ok"],
        "stats" => Stats(snapshot: Flat<StatsSnapshot>),
        "ok" => Ok,
        "error" => Error { code: ErrorCode, message: String },
    }
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
        object_value(self)
    }

    /// Decode from a JSON document.
    pub fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        Response::get(v)
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
        // But the patch object itself is mandatory, and must be an object.
        let without = line.replace(r#","patch":{}"#, "");
        assert!(Request::decode(&without).is_err());
        for not_an_object in ["null", "1", r#""x""#, "[]"] {
            let line = line.replace(r#""patch":{}"#, &format!(r#""patch":{not_an_object}"#));
            assert_eq!(
                Request::decode(&line).unwrap_err().to_string(),
                "missing or invalid field 'patch'",
                "{line}"
            );
        }
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
