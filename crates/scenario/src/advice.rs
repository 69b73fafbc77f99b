//! Allocation advice: candidate allocations scored by contention bounds and
//! by actual flow simulation.
//!
//! An [`AdviceSpec`] asks one complete question: *on this fabric, with this
//! routing, which allocation of `nodes` nodes should a scheduler hand out?*
//! Candidates come from [`AllocationSpec`] generators — torus cuboid blocks
//! via the isoperimetric enumerator, plus topology-generic blocked / greedy /
//! scatter / random allocators — and every candidate is scored twice:
//!
//! * **Predicted**: the fabric-generic contention lower bound
//!   (`netpart_contention::fabric`), the escape-cut generalization of the
//!   paper's closed-form torus analysis.
//! * **Simulated**: the candidate's all-to-all exchange routed by the spec's
//!   router and run to completion through the engine's max–min fluid core.
//!
//! The [`AdviceResult`] ranks candidates by simulated time and quantifies,
//! per candidate, the predicted-vs-simulated *gap* (`simulated / bound`,
//! ≥ 1 because the bound is a true lower bound) — the avoidable-contention
//! signal the paper's closing section asks schedulers to consume.
//!
//! Duplicate node sets — which real sweeps are full of — collapse onto a
//! single simulation. The distinct sets, in first-appearance order, are cut
//! into fixed shards of eight that fan out over rayon, and each shard scores
//! its candidates one after another through one reused [`FluidSim`]. Per-pair
//! routes are computed once per sweep in a spec-scoped route cache, not once
//! per candidate, as one flow list, so minimal routers search each
//! destination once. A candidate's score depends only on its own flows, so the
//! result is bit-identical to re-routing and re-arming a simulation per
//! candidate ([`score_candidates_reset`], kept as the debug-build shadow
//! reference and the parity suite's) at any rayon thread cap.
//!
//! A scored sweep can also be *patched*: [`run_readvise`] takes a
//! [`FabricPatch`] (failed links, drained nodes — capacity deltas) plus the
//! cached [`AdviceResult`] for the unpatched fabric, re-scores only the
//! candidates whose cached routes cross a changed channel, and carries the
//! untouched scores over — bit-identical to recomputing the sweep on the
//! patched fabric.

use crate::run::ScenarioError;
use crate::spec::{build_fabric, RoutingSpec, TopologySpec, MAX_FLOWS};
use netpart_contention::{internal_bisection_gbs_with, ContentionModel, Kernel, SweepOrders};
use netpart_engine::{
    route_flows_csr, Allocator, BlockedAllocator, ChannelId, CompactAllocator, EngineError, Exec,
    Fabric, FabricPatch, Flow, FluidSim, RandomAllocator, Router, ScatterAllocator, SolverMode,
    Telemetry, TelemetryEvent,
};
use netpart_topology::torus::Cuboid;
use rayon::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Upper bound on the candidate allocations one advice request may score
/// (each candidate costs one all-to-all flow simulation).
pub const MAX_ADVICE_CANDIDATES: usize = 64;

/// Upper bound on samples a single [`AllocationSpec::Random`] may request.
pub const MAX_RANDOM_SAMPLES: usize = 16;

/// A candidate-allocation generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationSpec {
    /// Every axis-aligned cuboid shape of the requested volume, anchored at
    /// the origin (torus fabrics only; via the isoperimetric cuboid
    /// enumerator).
    TorusBlocks,
    /// The lowest-numbered nodes (contiguous block in index order).
    Blocked,
    /// Breadth-first compact allocation (locality-greedy).
    Greedy,
    /// Every `stride`-th node (the adversarial locality-blind baseline).
    Scatter {
        /// Stride through the node list (≥ 1).
        stride: usize,
    },
    /// `samples` independent seeded pseudo-random node sets.
    Random {
        /// Number of samples (1 ..= [`MAX_RANDOM_SAMPLES`]).
        samples: usize,
    },
}

impl AllocationSpec {
    /// Wire/label name of the generator.
    pub fn label(&self) -> String {
        match self {
            AllocationSpec::TorusBlocks => "torus_blocks".to_string(),
            AllocationSpec::Blocked => "blocked".to_string(),
            AllocationSpec::Greedy => "greedy".to_string(),
            AllocationSpec::Scatter { stride } => format!("scatter({stride})"),
            AllocationSpec::Random { samples } => format!("random({samples})"),
        }
    }
}

/// One complete allocation-advice question.
///
/// Allocations are sets of *fabric node indices*. On indirect topologies
/// (fat-trees, where switches are fabric nodes alongside the hosts) the
/// generators other than [`AllocationSpec::Blocked`] may include switch
/// nodes in a candidate — `Fabric` carries no endpoint mask yet (ROADMAP
/// open item); interpret such candidates as traffic endpoints, not
/// schedulable compute sets.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceSpec {
    /// The fabric.
    pub topology: TopologySpec,
    /// The routing algorithm used for the simulated exchanges.
    pub routing: RoutingSpec,
    /// Allocation size in nodes.
    pub nodes: usize,
    /// Per-ordered-pair volume (GB) of each candidate's all-to-all exchange.
    pub gigabytes: f64,
    /// Candidate generators to score.
    pub candidates: Vec<AllocationSpec>,
    /// Seed for the random candidate generators.
    pub seed: u64,
}

impl AdviceSpec {
    /// Canonical label, e.g. `advise:dragonfly[4,4,4]/shortest/n16/s0`.
    pub fn label(&self) -> String {
        format!(
            "advise:{}/{}/n{}/s{}",
            self.topology.label(),
            self.routing.label(),
            self.nodes,
            self.seed
        )
    }
}

/// One scored candidate allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateResult {
    /// Candidate label, e.g. `block[4,2,2]` or `random(7)#1`.
    pub label: String,
    /// The allocated nodes (sorted).
    pub nodes: Vec<usize>,
    /// Fabric-generic contention lower bound (seconds).
    pub bound_seconds: f64,
    /// Simulated all-to-all completion time (seconds).
    pub simulated_seconds: f64,
    /// `simulated_seconds / bound_seconds` (0 when the bound is vacuous);
    /// ≥ 1 otherwise — how much of the simulated time the bound explains.
    pub gap: f64,
    /// Escape-cut capacity (GB/s) at the bound's critical scale.
    pub cut_gbs: f64,
    /// Internal (allocation-induced) bisection capacity (GB/s), the generic
    /// stand-in for the partition's `bisection_links`.
    pub internal_bisection_gbs: f64,
    /// Whether the torus closed form produced the bound.
    pub closed_form: bool,
    /// Max–min rate solves the candidate's simulation needed.
    pub solves: usize,
}

/// Ranked advice for one [`AdviceSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdviceResult {
    /// The spec's canonical label.
    pub label: String,
    /// Fabric name.
    pub fabric: String,
    /// Allocation size in nodes.
    pub nodes: usize,
    /// Scored candidates, best (smallest simulated time) first; ties break
    /// towards the smaller contention bound, then the label.
    pub candidates: Vec<CandidateResult>,
    /// Fraction of candidate pairs on which the bound ordering agrees with
    /// the simulated ordering (1.0 = the bound alone would have ranked
    /// identically).
    pub ordering_agreement: f64,
    /// True when the candidate list was cut off at
    /// [`MAX_ADVICE_CANDIDATES`].
    pub truncated: bool,
}

impl AdviceResult {
    /// The recommended (best-simulated) candidate.
    pub fn best(&self) -> Option<&CandidateResult> {
        self.candidates.first()
    }
}

fn invalid(message: impl Into<String>) -> ScenarioError {
    ScenarioError::InvalidSpec(message.into())
}

/// Mix a per-sample seed out of the spec seed (splitmix64 constant).
fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add((index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Labelled candidate node sets, in generation order.
type LabeledAllocations = Vec<(String, Vec<usize>)>;

/// Generate the labelled candidate node sets of a spec, capped at
/// [`MAX_ADVICE_CANDIDATES`]. Returns `(candidates, truncated)`.
fn generate_candidates(
    spec: &AdviceSpec,
    fabric: &Fabric,
) -> Result<(LabeledAllocations, bool), ScenarioError> {
    let all_free = vec![true; fabric.num_nodes()];
    let mut out: LabeledAllocations = Vec::new();
    let mut truncated = false;
    let push = |label: String, nodes: Vec<usize>, out: &mut LabeledAllocations| {
        if out.len() < MAX_ADVICE_CANDIDATES {
            // Identical node sets from different generators are kept: the
            // labels differ and the duplicate scoring cost is trivial.
            out.push((label, nodes));
            false
        } else {
            true
        }
    };
    for candidate in &spec.candidates {
        match candidate {
            AllocationSpec::TorusBlocks => {
                let Some(torus) = fabric.torus() else {
                    return Err(invalid(format!(
                        "torus_blocks candidates need a torus fabric, got {}",
                        fabric.name()
                    )));
                };
                for extent in netpart_iso::enumerate_cuboid_extents(torus.dims(), spec.nodes as u64)
                {
                    let nodes = torus.cuboid_nodes(&Cuboid::at_origin(extent.clone()));
                    let label = format!(
                        "block[{}]",
                        extent
                            .iter()
                            .map(usize::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    truncated |= push(label, nodes, &mut out);
                }
            }
            AllocationSpec::Blocked => {
                let nodes = BlockedAllocator
                    .allocate(fabric, &all_free, spec.nodes)
                    .expect("spec.nodes was validated against the fabric size");
                truncated |= push("blocked".to_string(), nodes, &mut out);
            }
            AllocationSpec::Greedy => {
                let nodes = CompactAllocator
                    .allocate(fabric, &all_free, spec.nodes)
                    .expect("spec.nodes was validated against the fabric size");
                truncated |= push("greedy".to_string(), nodes, &mut out);
            }
            AllocationSpec::Scatter { stride } => {
                // Reject rather than clamp: a silently-adjusted stride would
                // answer a different question than the spec (and label) asked.
                if *stride == 0 {
                    return Err(invalid("scatter candidate stride must be >= 1"));
                }
                let nodes = ScatterAllocator { stride: *stride }
                    .allocate(fabric, &all_free, spec.nodes)
                    .expect("spec.nodes was validated against the fabric size");
                truncated |= push(format!("scatter({stride})"), nodes, &mut out);
            }
            AllocationSpec::Random { samples } => {
                if *samples == 0 || *samples > MAX_RANDOM_SAMPLES {
                    return Err(invalid(format!(
                        "random candidate samples must be in 1..={MAX_RANDOM_SAMPLES}"
                    )));
                }
                for i in 0..*samples {
                    let nodes = RandomAllocator {
                        seed: derive_seed(spec.seed, i as u64),
                    }
                    .allocate(fabric, &all_free, spec.nodes)
                    .expect("spec.nodes was validated against the fabric size");
                    truncated |= push(format!("random(s{})#{i}", spec.seed), nodes, &mut out);
                }
            }
        }
    }
    Ok((out, truncated))
}

/// Reusable scoring buffers: CSR paths and the fluid simulation (whose
/// max–min scratch persists across `reset_csr` calls). One instance scores a
/// run of candidates without per-candidate allocation.
struct Scorer {
    sizes: Vec<f64>,
    path_offsets: Vec<usize>,
    path_data: Vec<ChannelId>,
    fluid: FluidSim,
}

impl Scorer {
    fn with_mode(mode: SolverMode) -> Self {
        Self {
            sizes: Vec::new(),
            path_offsets: Vec::new(),
            path_data: Vec::new(),
            fluid: FluidSim::empty_with_mode(mode),
        }
    }

    /// Simulate the all-to-all exchange inside `nodes`, each ordered pair
    /// `a -> b` taking the path `route(a, b, out)` appends.
    fn simulate(
        &mut self,
        fabric: &Fabric,
        nodes: &[usize],
        gigabytes: f64,
        mut route: impl FnMut(usize, usize, &mut Vec<ChannelId>) -> Result<(), EngineError>,
    ) -> Result<CandidateScore, ScenarioError> {
        self.path_offsets.clear();
        self.path_data.clear();
        self.path_offsets.push(0);
        for &a in nodes {
            for &b in nodes {
                if a != b {
                    route(a, b, &mut self.path_data)?;
                    self.path_offsets.push(self.path_data.len());
                }
            }
        }
        self.run(fabric, gigabytes)
    }

    /// Run the routed exchange (every flow `gigabytes`) to completion,
    /// refusing it first if its clock could overflow.
    fn run(&mut self, fabric: &Fabric, gigabytes: f64) -> Result<CandidateScore, ScenarioError> {
        self.sizes.clear();
        self.sizes.resize(self.path_offsets.len() - 1, gigabytes);
        self.fluid.reset_csr(
            &self.path_offsets,
            &self.path_data,
            fabric.capacities(),
            &self.sizes,
        );
        self.fluid.makespan_bound()?;
        self.fluid.run_to_completion();
        Ok(CandidateScore {
            simulated_seconds: self.fluid.time(),
            solves: self.fluid.rounds(),
        })
    }
}

/// Distinct candidates scored one after another on one rayon worker through
/// one reused [`FluidSim`]. Fixed (never derived from the thread count), so
/// shard membership, and with it each candidate's span label, is identical
/// at any rayon thread cap.
const SHARD_CANDIDATES: usize = 8;

/// One candidate's simulation outcome: the two fields of a
/// [`CandidateResult`] that the fluid core produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// Simulated all-to-all completion time (seconds).
    pub simulated_seconds: f64,
    /// Max–min rate solves the candidate's simulation needed.
    pub solves: usize,
}

/// Stable flow key of the ordered pair `a -> b` (node ids fit `u32` by the
/// engine's id-space guarantee).
fn pair_key(a: usize, b: usize) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Collapse duplicate candidate node sets. Returns the distinct sets as
/// sorted node lists in first-appearance order, plus each input candidate's
/// slot in that distinct list. Two candidates naming the same nodes — in any
/// order — exchange the same all-to-all flow multiset, so one simulation
/// serves every copy; real sweeps are full of such copies (deterministic
/// generators repeated across a ladder, scatter strides that coincide
/// modulo the fabric).
fn dedup_candidates(candidates: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut slots: HashMap<Vec<usize>, usize> = HashMap::new();
    let mut distinct: Vec<Vec<usize>> = Vec::new();
    let mut rep_of = Vec::with_capacity(candidates.len());
    for nodes in candidates {
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        let slot = match slots.entry(sorted) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(vacant) => {
                distinct.push(vacant.key().clone());
                *vacant.insert(distinct.len() - 1)
            }
        };
        rep_of.push(slot);
    }
    (distinct, rep_of)
}

/// Spec-scoped route cache: every distinct ordered node pair a sweep's
/// candidates exchange over is routed exactly once, however many candidates
/// share it.
struct RouteCache {
    /// Pair key -> route index.
    index: HashMap<u64, u32>,
    /// CSR offsets into `data`, one route per entry of `index`.
    offsets: Vec<usize>,
    data: Vec<ChannelId>,
}

impl RouteCache {
    /// Route the candidates' pairs, under a `route` span: list the distinct
    /// pairs in first-appearance order, then route them as one flow list,
    /// so a failure names the first failing pair in that order.
    fn build(
        fabric: &Fabric,
        router: &dyn Router,
        candidates: &[Vec<usize>],
        telemetry: &Telemetry,
    ) -> Result<Self, ScenarioError> {
        let _span = telemetry.span("route");
        // Size the map and the list for the distinct pairs up front: at most
        // every set's ordered pairs, and at most those among the nodes the
        // sets name. Growing the map as pairs arrive rehashes it several
        // times, about a fifth of the whole build on a 16-node torus
        // question.
        let mut named = candidates.concat();
        named.sort_unstable();
        named.dedup();
        let bound = candidates
            .iter()
            .map(|nodes| nodes.len() * nodes.len().saturating_sub(1))
            .sum::<usize>()
            .min(named.len() * named.len().saturating_sub(1));
        let mut index = HashMap::with_capacity(bound);
        let mut pairs = Vec::with_capacity(bound);
        for nodes in candidates {
            for &a in nodes {
                for &b in nodes {
                    if a != b {
                        if let Entry::Vacant(slot) = index.entry(pair_key(a, b)) {
                            slot.insert(pairs.len() as u32);
                            pairs.push(Flow {
                                src: a,
                                dst: b,
                                gigabytes: 0.0,
                            });
                        }
                    }
                }
            }
        }
        let mut cache = RouteCache {
            index,
            offsets: Vec::new(),
            data: Vec::new(),
        };
        route_flows_csr(fabric, router, &pairs, &mut cache.offsets, &mut cache.data)?;
        Ok(cache)
    }

    fn path(&self, a: usize, b: usize) -> &[ChannelId] {
        let route = self.index[&pair_key(a, b)] as usize;
        &self.data[self.offsets[route]..self.offsets[route + 1]]
    }

    /// Whether any ordered pair of `nodes` is routed over a channel of
    /// `changed` (sorted).
    fn crosses(&self, nodes: &[usize], changed: &[ChannelId]) -> bool {
        nodes.iter().any(|&a| {
            nodes.iter().any(|&b| {
                a != b
                    && self
                        .path(a, b)
                        .iter()
                        .any(|c| changed.binary_search(c).is_ok())
            })
        })
    }
}

/// What a re-advice carries over from the answer for the unpatched fabric.
struct Carry<'a> {
    /// Each candidate's simulated score in that answer, where it has one.
    scores: Vec<Option<CandidateScore>>,
    /// The channels whose capacity the patch changed, sorted.
    changed: &'a [ChannelId],
}

impl<'a> Carry<'a> {
    /// Look each candidate up in `base` by label and node set (a generator
    /// listed twice matches its first copy; both scored the same).
    fn new(base: &AdviceResult, changed: &'a [ChannelId], candidates: &LabeledAllocations) -> Self {
        let scores = candidates
            .iter()
            .map(|(label, nodes)| {
                base.candidates
                    .iter()
                    .find(|c| c.label == *label && c.nodes == *nodes)
                    .map(|c| CandidateScore {
                        simulated_seconds: c.simulated_seconds,
                        solves: c.solves,
                    })
            })
            .collect();
        Carry { scores, changed }
    }
}

/// The scoring core. Duplicate node sets collapse ([`dedup_candidates`]),
/// their pairs are routed once ([`RouteCache`]), a distinct set keeps the
/// score `carry` holds for any candidate naming it unless one of its routes
/// crosses a changed channel, and the remaining sets are simulated in fixed
/// shards, one reused [`FluidSim`] per shard. Returns one score per
/// candidate, in input order.
///
/// Scores depend only on a candidate's own flow multiset, never on what
/// the shard's simulation scored before it (the parity suite and the debug
/// shadow pin this), so collapsing duplicates and sharding are pure
/// execution choices: the returned scores are bit-identical to scoring
/// every candidate separately, at any worker thread cap. A carried score
/// is too: routing is capacity-blind, so a set whose routes avoid every
/// changed channel keeps its paths, and with them its rates.
///
/// # Errors
/// A routing failure, or the first simulated set, in first-appearance
/// order, whose clock could overflow ([`FluidSim::makespan_bound`]).
fn score_sets(
    fabric: &Fabric,
    router: &dyn Router,
    candidates: &[Vec<usize>],
    carry: Option<Carry<'_>>,
    gigabytes: f64,
    telemetry: &Telemetry,
) -> Result<Vec<CandidateScore>, ScenarioError> {
    let (distinct, rep_of) = dedup_candidates(candidates);
    let routes = RouteCache::build(fabric, router, &distinct, telemetry)?;
    let mut scores: Vec<Option<CandidateScore>> = vec![None; distinct.len()];
    if let Some(carry) = carry {
        for (&slot, &score) in rep_of.iter().zip(&carry.scores) {
            scores[slot] = scores[slot].or(score);
        }
        for (score, nodes) in scores.iter_mut().zip(&distinct) {
            if score.is_some() && routes.crosses(nodes, carry.changed) {
                *score = None;
            }
        }
    }
    let pending: Vec<usize> = (0..distinct.len())
        .filter(|&slot| scores[slot].is_none())
        .collect();
    let shards: Vec<Result<Vec<CandidateScore>, ScenarioError>> = pending
        .chunks(SHARD_CANDIDATES)
        .into_par_iter()
        .map(|shard| {
            let mut scorer = Scorer::with_mode(SolverMode::Batch);
            let mut scores = Vec::with_capacity(shard.len());
            for (pos, &slot) in shard.iter().enumerate() {
                // `cand_full` (the shard's first candidate) and `cand_delta`
                // (the rest) are the labels the per-layer benchmark metrics
                // read; the simulation's own spans nest under them.
                let span = telemetry.span(if pos == 0 { "cand_full" } else { "cand_delta" });
                scorer.fluid.set_telemetry(span.telemetry().clone());
                scores.push(
                    scorer.simulate(fabric, &distinct[slot], gigabytes, |a, b, out| {
                        out.extend_from_slice(routes.path(a, b));
                        Ok(())
                    })?,
                );
                // Nothing is carried between candidates: every flow is
                // scored afresh.
                span.telemetry().emit(TelemetryEvent::AdviceCandidate {
                    reused_flows: 0,
                    total_flows: scorer.sizes.len() as u64,
                });
            }
            Ok(scores)
        })
        .collect();
    let mut fresh = Vec::with_capacity(pending.len());
    for shard in shards {
        fresh.extend(shard?);
    }
    for (slot, score) in pending.into_iter().zip(fresh) {
        scores[slot] = Some(score);
    }
    Ok(rep_of
        .iter()
        .map(|&slot| scores[slot].expect("every distinct set is carried or simulated"))
        .collect())
}

/// Score each candidate node set's all-to-all exchange as the advice
/// pipeline does, with nothing carried over. Returns one score per
/// candidate, in input order; bit-identical to [`score_candidates_reset`]
/// at any thread cap.
///
/// # Errors
/// A routing failure, or [`EngineError::NonFiniteTime`] when a candidate's
/// simulated clock could overflow.
///
/// [`EngineError::NonFiniteTime`]: netpart_engine::EngineError::NonFiniteTime
pub fn score_candidates(
    fabric: &Fabric,
    router: &dyn Router,
    candidates: &[Vec<usize>],
    gigabytes: f64,
    telemetry: &Telemetry,
) -> Result<Vec<CandidateScore>, ScenarioError> {
    score_sets(fabric, router, candidates, None, gigabytes, telemetry)
}

/// The reset-per-candidate scoring path: re-route and re-arm a [`FluidSim`]
/// for every candidate, running `exec.solver` and reporting through
/// `exec.telemetry`. Kept as the reference the production path is asserted
/// against, by the debug-build shadow and by `tests/advice_delta_parity.rs`.
/// It routes pair by pair with [`Router::route_into`], not through
/// the flow-list routing the route cache uses, so the shadow also checks
/// that routing.
pub fn score_candidates_reset(
    fabric: &Fabric,
    router: &dyn Router,
    candidates: &[Vec<usize>],
    gigabytes: f64,
    exec: Exec,
) -> Result<Vec<CandidateScore>, ScenarioError> {
    let mut scorer = Scorer::with_mode(exec.solver);
    scorer.fluid.set_telemetry(exec.telemetry);
    candidates
        .iter()
        .map(|nodes| {
            scorer.simulate(fabric, nodes, gigabytes, |a, b, out| {
                router.route_into(fabric, a, b, out)
            })
        })
        .collect()
}

/// Fraction of candidate pairs whose bound ordering matches their simulated
/// ordering (ties on both sides count as agreement; 1.0 for fewer than two
/// candidates).
fn ordering_agreement(candidates: &[CandidateResult]) -> f64 {
    let n = candidates.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let db = candidates[i].bound_seconds - candidates[j].bound_seconds;
            let ds = candidates[i].simulated_seconds - candidates[j].simulated_seconds;
            total += 1;
            if (db == 0.0 && ds == 0.0) || db * ds > 0.0 {
                concordant += 1;
            }
        }
    }
    concordant as f64 / total as f64
}

/// Answer one advice spec: generate the candidates, score each by bound and
/// by simulation, and return them ranked.
pub fn run_advice(spec: &AdviceSpec) -> Result<AdviceResult, ScenarioError> {
    run_advice_with(spec, Exec::default())
}

/// [`run_advice`] under explicit execution choices. The spans and events of
/// candidate generation and scoring (per candidate, per fluid round) go
/// through `exec.telemetry`. Release builds score every candidate on the
/// batch solver; `exec.solver` reaches only the debug-build shadow
/// re-score, which checks the production path against
/// [`score_candidates_reset`] under that mode. No choice changes the
/// advice, pinned by `tests/advice_parity.rs` and
/// `tests/incremental_parity.rs`.
pub fn run_advice_with(
    spec: &AdviceSpec,
    exec: impl Into<Exec>,
) -> Result<AdviceResult, ScenarioError> {
    let fabric = validate_spec(spec)?;
    advise_on_fabric(spec, &fabric, &exec.into(), None)
}

/// The spec-level validation shared by [`run_advice_with`] and
/// [`run_readvise_with`]: checks everything that does not depend on the
/// candidate list and returns the built fabric.
fn validate_spec(spec: &AdviceSpec) -> Result<Fabric, ScenarioError> {
    if spec.candidates.is_empty() {
        return Err(invalid("advice needs at least one candidate generator"));
    }
    if !spec.gigabytes.is_finite() || spec.gigabytes <= 0.0 {
        return Err(invalid("gigabytes must be positive"));
    }
    let fabric = build_fabric(&spec.topology)?;
    if matches!(spec.routing, RoutingSpec::DimensionOrdered) && fabric.torus().is_none() {
        return Err(invalid(format!(
            "dimension-ordered routing needs a torus fabric, got {}",
            fabric.name()
        )));
    }
    if spec.nodes < 2 || spec.nodes > fabric.num_nodes() {
        return Err(invalid(format!(
            "allocation size must be in 2..={} for this fabric",
            fabric.num_nodes()
        )));
    }
    let flows_per_candidate = spec.nodes * (spec.nodes - 1);
    if flows_per_candidate > MAX_FLOWS {
        return Err(invalid(format!(
            "an all-to-all over {} nodes is {flows_per_candidate} flows, exceeding the \
             per-scenario budget of {MAX_FLOWS}",
            spec.nodes
        )));
    }
    Ok(fabric)
}

/// The uniform-spread contention model of a spec's all-to-all exchange: it
/// moves (p - 1) · gigabytes GB out of each node, and the bound sees the
/// same volume.
fn exchange_model(spec: &AdviceSpec) -> ContentionModel {
    ContentionModel::bgq(Kernel::Custom {
        words_per_proc: (spec.nodes - 1) as f64 * spec.gigabytes * 1e9 / 8.0,
        flops_per_proc: 1.0,
    })
}

/// Rank candidates from their labels, node sets and simulation scores:
/// bounds, gaps, sort and ordering agreement. Shared by the advice and
/// re-advice paths so both rank identically. A volume so large that a
/// bound or a completion time overflows is refused: JSON cannot carry a
/// non-finite number, so no client could read that answer.
fn assemble_result(
    spec: &AdviceSpec,
    fabric: &Fabric,
    candidates: LabeledAllocations,
    scores: Vec<CandidateScore>,
    truncated: bool,
) -> Result<AdviceResult, ScenarioError> {
    let model = exchange_model(spec);
    let mut scored = Vec::with_capacity(candidates.len());
    for ((label, nodes), score) in candidates.into_iter().zip(scores) {
        // One BFS + sort per candidate, shared by the bound and the
        // internal-bisection score.
        let orders = SweepOrders::new(fabric, &nodes);
        let bound = model.fabric_bound_with(fabric, &nodes, &orders);
        let gap = if bound.seconds > 0.0 {
            score.simulated_seconds / bound.seconds
        } else {
            0.0
        };
        scored.push(CandidateResult {
            internal_bisection_gbs: internal_bisection_gbs_with(fabric, &nodes, &orders),
            label,
            nodes,
            bound_seconds: bound.seconds,
            simulated_seconds: score.simulated_seconds,
            gap,
            cut_gbs: bound.cut_gbs,
            closed_form: bound.closed_form,
            solves: score.solves,
        });
    }
    let finite = |c: &CandidateResult| {
        [
            c.bound_seconds,
            c.simulated_seconds,
            c.gap,
            c.cut_gbs,
            c.internal_bisection_gbs,
        ]
        .iter()
        .all(|x| x.is_finite())
    };
    if !scored.iter().all(finite) {
        return Err(invalid(
            "candidate scores are not finite; gigabytes is too large for this fabric",
        ));
    }
    scored.sort_by(|a, b| {
        a.simulated_seconds
            .total_cmp(&b.simulated_seconds)
            .then_with(|| a.bound_seconds.total_cmp(&b.bound_seconds))
            .then_with(|| a.label.cmp(&b.label))
    });
    let agreement = ordering_agreement(&scored);
    Ok(AdviceResult {
        label: spec.label(),
        fabric: fabric.name().to_string(),
        nodes: spec.nodes,
        candidates: scored,
        ordering_agreement: agreement,
        truncated,
    })
}

/// The advice pipeline: answer an already-validated spec on an explicit
/// fabric (the spec's own, or a patched clone of it). `carry`, when given,
/// is the answer for the unpatched fabric and the channels the patch
/// changed; candidates whose routes avoid those channels keep their scores
/// from it (see [`score_sets`]).
fn advise_on_fabric(
    spec: &AdviceSpec,
    fabric: &Fabric,
    exec: &Exec,
    carry: Option<(&AdviceResult, &[ChannelId])>,
) -> Result<AdviceResult, ScenarioError> {
    let telemetry = &exec.telemetry;
    let generate_span = telemetry.span("generate_cands");
    let (candidates, truncated) = generate_candidates(spec, fabric)?;
    drop(generate_span);
    if candidates.is_empty() {
        // E.g. torus_blocks with a volume no cuboid realizes (a large prime):
        // a question that produced no candidates is an error, not an empty
        // "ok" a sweep consumer would mistake for success.
        return Err(invalid(format!(
            "no candidate allocation of {} nodes exists for the requested generators",
            spec.nodes
        )));
    }
    let router = spec.routing.build();
    let score_span = telemetry.span("score_cands");
    let node_sets: Vec<Vec<usize>> = candidates.iter().map(|(_, nodes)| nodes.clone()).collect();
    let scores = score_sets(
        fabric,
        router.as_ref(),
        &node_sets,
        carry.map(|(base, changed)| Carry::new(base, changed, &candidates)),
        spec.gigabytes,
        score_span.telemetry(),
    )?;
    // Shadow-solver discipline: debug builds re-score every candidate
    // through the reset-per-candidate path (under the requested solver
    // mode, the only use of `exec.solver` here: the production path always
    // runs batch) and insist on bitwise agreement, so any divergence in the
    // route cache, the dedup, the shards or a carried score fails loudly in
    // CI rather than skewing advice.
    #[cfg(debug_assertions)]
    {
        let reference = score_candidates_reset(
            fabric,
            router.as_ref(),
            &node_sets,
            spec.gigabytes,
            exec.with_telemetry(&Telemetry::disabled()),
        )?;
        for (candidate, (shard, reset)) in scores.iter().zip(&reference).enumerate() {
            assert_eq!(
                shard.simulated_seconds.to_bits(),
                reset.simulated_seconds.to_bits(),
                "candidate {candidate} diverged from the reset path"
            );
            assert_eq!(shard.solves, reset.solves, "candidate {candidate}");
        }
    }
    drop(score_span);
    assemble_result(spec, fabric, candidates, scores, truncated)
}

/// Patch a fabric and re-answer an advice spec, reusing a previously
/// computed [`AdviceResult`] for the unpatched fabric where it is still
/// valid: candidates whose cached routes avoid every changed channel keep
/// their simulated scores (routing is capacity-blind, so paths — and
/// therefore rates over untouched channels — cannot move), while affected
/// candidates are re-scored as [`run_advice`] scores them. Bounds are
/// recomputed for every candidate (escape cuts can cross channels a
/// candidate's own flows never touch). With `base` absent — or computed for
/// a different question: another label, size, fabric or volume — the sweep
/// is simply recomputed on the patched fabric. Either way the result is
/// bit-identical to [`run_advice`] against the patched fabric, pinned by
/// `tests/advice_delta_parity.rs`.
pub fn run_readvise(
    spec: &AdviceSpec,
    patch: &FabricPatch,
    base: Option<&AdviceResult>,
) -> Result<AdviceResult, ScenarioError> {
    run_readvise_with(spec, patch, base, Exec::default())
}

/// [`run_readvise`] under explicit execution choices (see
/// [`run_advice_with`]).
pub fn run_readvise_with(
    spec: &AdviceSpec,
    patch: &FabricPatch,
    base: Option<&AdviceResult>,
    exec: impl Into<Exec>,
) -> Result<AdviceResult, ScenarioError> {
    let fabric = validate_spec(spec)?;
    let (patched, changed) = fabric.patched(patch)?;
    // A base computed for a different question (or none at all) has nothing
    // to carry over.
    let base = base.filter(|b| {
        b.label == spec.label()
            && b.nodes == spec.nodes
            && b.fabric == patched.name()
            && has_spec_volume(spec, &fabric, b)
    });
    let carry = base.map(|base| (base, changed.as_slice()));
    advise_on_fabric(spec, &patched, &exec.into(), carry)
}

/// Whether `base` answers `spec`'s exchange volume. The label omits
/// `gigabytes`, but every bound is proportional to it, so the first base
/// candidate with a non-zero bound must get the same bound, bit for bit,
/// under `spec`'s exchange model on the unpatched `fabric`. A base with no
/// non-zero bound (or a candidate this fabric cannot hold) shows no volume
/// and carries nothing.
fn has_spec_volume(spec: &AdviceSpec, fabric: &Fabric, base: &AdviceResult) -> bool {
    let Some(probe) = base.candidates.iter().find(|c| c.bound_seconds > 0.0) else {
        return false;
    };
    let nodes = &probe.nodes;
    let mut seen = vec![false; fabric.num_nodes()];
    let distinct = nodes
        .iter()
        .all(|&v| v < seen.len() && !std::mem::replace(&mut seen[v], true));
    if nodes.len() < 2 || !distinct {
        return false;
    }
    let orders = SweepOrders::new(fabric, nodes);
    let bound = exchange_model(spec).fabric_bound_with(fabric, nodes, &orders);
    bound.seconds.to_bits() == probe.bound_seconds.to_bits()
}

/// Run a batch of advice specs in parallel (rayon), preserving input order.
/// Each spec succeeds or fails independently.
pub fn run_allocation_sweep(specs: &[AdviceSpec]) -> Vec<Result<AdviceResult, ScenarioError>> {
    run_allocation_sweep_with(specs, Exec::default())
}

/// [`run_allocation_sweep`] under explicit execution choices: every spec
/// runs as [`run_advice_with`] runs it, and `exec.telemetry` receives one
/// [`TelemetryEvent::SweepSpecDone`] per spec.
pub fn run_allocation_sweep_with(
    specs: &[AdviceSpec],
    exec: impl Into<Exec>,
) -> Vec<Result<AdviceResult, ScenarioError>> {
    let exec = exec.into();
    let telemetry = &exec.telemetry;
    (0..specs.len())
        .into_par_iter()
        .map(|idx| {
            let started = std::time::Instant::now();
            let span = telemetry.span("spec");
            let result = run_advice_with(&specs[idx], exec.with_telemetry(span.telemetry()));
            drop(span);
            telemetry.emit(TelemetryEvent::SweepSpecDone {
                spec_idx: idx as u64,
                ok: result.is_ok(),
                micros: started.elapsed().as_micros() as u64,
            });
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dragonfly_spec() -> AdviceSpec {
        AdviceSpec {
            topology: TopologySpec::Dragonfly(4, 4, 2),
            routing: RoutingSpec::ShortestPath,
            nodes: 8,
            gigabytes: 0.25,
            candidates: vec![
                AllocationSpec::Blocked,
                AllocationSpec::Greedy,
                AllocationSpec::Scatter { stride: 5 },
                AllocationSpec::Random { samples: 2 },
            ],
            seed: 7,
        }
    }

    #[test]
    fn advice_runs_on_every_non_torus_family() {
        let specs = [
            dragonfly_spec(),
            AdviceSpec {
                topology: TopologySpec::FatTree(4),
                routing: RoutingSpec::Ecmp { salt: 3 },
                ..dragonfly_spec()
            },
            AdviceSpec {
                topology: TopologySpec::Expander(40, vec![1, 7, 16]),
                routing: RoutingSpec::ShortestPath,
                ..dragonfly_spec()
            },
            AdviceSpec {
                topology: TopologySpec::SlimFly(5),
                routing: RoutingSpec::Ecmp { salt: 1 },
                ..dragonfly_spec()
            },
        ];
        for spec in &specs {
            let result = run_advice(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            assert_eq!(result.candidates.len(), 5, "{}", result.label);
            for c in &result.candidates {
                assert_eq!(c.nodes.len(), 8);
                assert!(c.simulated_seconds > 0.0, "{}/{}", result.label, c.label);
                assert!(
                    c.bound_seconds <= c.simulated_seconds * (1.0 + 1e-9),
                    "{}/{}: bound {} above simulation {}",
                    result.label,
                    c.label,
                    c.bound_seconds,
                    c.simulated_seconds
                );
                if c.bound_seconds > 0.0 {
                    assert!(c.gap >= 1.0 - 1e-9, "{}: gap {}", c.label, c.gap);
                }
            }
            // Ranked by simulated time.
            for pair in result.candidates.windows(2) {
                assert!(pair[0].simulated_seconds <= pair[1].simulated_seconds);
            }
            assert!((0.0..=1.0).contains(&result.ordering_agreement));
        }
    }

    #[test]
    fn torus_blocks_enumerate_cuboids_and_rank_deterministically() {
        let spec = AdviceSpec {
            topology: TopologySpec::Torus(vec![8, 4, 4]),
            routing: RoutingSpec::DimensionOrdered,
            nodes: 16,
            gigabytes: 0.25,
            candidates: vec![AllocationSpec::TorusBlocks],
            seed: 0,
        };
        let a = run_advice(&spec).unwrap();
        let b = run_advice(&spec).unwrap();
        assert_eq!(a, b, "advice must be deterministic");
        assert!(a.candidates.len() >= 4, "got {}", a.candidates.len());
        assert!(a.candidates.iter().all(|c| c.label.starts_with("block[")));
        // Every block is a real 16-node set.
        for c in &a.candidates {
            assert_eq!(c.nodes.len(), 16);
        }
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let base = dragonfly_spec();
        let cases = [
            AdviceSpec {
                candidates: vec![],
                ..base.clone()
            },
            AdviceSpec {
                nodes: 1,
                ..base.clone()
            },
            AdviceSpec {
                nodes: 100_000,
                ..base.clone()
            },
            AdviceSpec {
                gigabytes: -1.0,
                ..base.clone()
            },
            AdviceSpec {
                candidates: vec![AllocationSpec::TorusBlocks],
                ..base.clone()
            },
            AdviceSpec {
                routing: RoutingSpec::DimensionOrdered,
                ..base.clone()
            },
            AdviceSpec {
                candidates: vec![AllocationSpec::Random { samples: 0 }],
                ..base.clone()
            },
            AdviceSpec {
                candidates: vec![AllocationSpec::Scatter { stride: 0 }],
                ..base.clone()
            },
            // 31 is prime and exceeds every dimension of the torus: no
            // cuboid realizes it, so torus_blocks generates nothing and the
            // empty candidate list must surface as an error, not an empty
            // "ok".
            AdviceSpec {
                topology: TopologySpec::Torus(vec![8, 4, 4]),
                routing: RoutingSpec::DimensionOrdered,
                nodes: 31,
                candidates: vec![AllocationSpec::TorusBlocks],
                ..base.clone()
            },
        ];
        for spec in &cases {
            assert!(
                matches!(run_advice(spec), Err(ScenarioError::InvalidSpec(_))),
                "{spec:?} should be invalid"
            );
        }
    }

    #[test]
    fn solver_modes_give_identical_advice() {
        let specs = [
            dragonfly_spec(),
            AdviceSpec {
                topology: TopologySpec::Torus(vec![8, 4, 4]),
                routing: RoutingSpec::DimensionOrdered,
                nodes: 16,
                candidates: vec![AllocationSpec::TorusBlocks],
                ..dragonfly_spec()
            },
        ];
        for spec in &specs {
            let batch = run_advice(spec).unwrap();
            let incremental = run_advice_with(
                spec,
                Exec {
                    solver: SolverMode::Incremental,
                    ..Exec::default()
                },
            )
            .unwrap();
            assert_eq!(batch, incremental, "{}", spec.label());
            for (a, b) in batch.candidates.iter().zip(&incremental.candidates) {
                assert_eq!(
                    a.simulated_seconds.to_bits(),
                    b.simulated_seconds.to_bits(),
                    "{}/{}",
                    batch.label,
                    a.label
                );
                assert_eq!(a.solves, b.solves);
            }
        }
    }

    #[test]
    fn delta_and_reset_scoring_agree_bitwise() {
        // The debug shadow assert inside advise_on_fabric enforces this on
        // every advice run; this pins it through the public entry points so
        // release builds cover it too.
        let spec = dragonfly_spec();
        let fabric = build_fabric(&spec.topology).unwrap();
        let router = spec.routing.build();
        let (candidates, _) = generate_candidates(&spec, &fabric).unwrap();
        let sets: Vec<Vec<usize>> = candidates.into_iter().map(|(_, nodes)| nodes).collect();
        let scores = score_candidates(
            &fabric,
            router.as_ref(),
            &sets,
            spec.gigabytes,
            &Telemetry::disabled(),
        )
        .unwrap();
        for solver in [SolverMode::Batch, SolverMode::Incremental] {
            let reset = score_candidates_reset(
                &fabric,
                router.as_ref(),
                &sets,
                spec.gigabytes,
                Exec {
                    solver,
                    ..Exec::default()
                },
            )
            .unwrap();
            assert_eq!(scores.len(), reset.len());
            for (d, r) in scores.iter().zip(&reset) {
                assert_eq!(d.simulated_seconds.to_bits(), r.simulated_seconds.to_bits());
                assert_eq!(d.solves, r.solves);
            }
        }
    }

    fn torus_spec() -> AdviceSpec {
        AdviceSpec {
            topology: TopologySpec::Torus(vec![4, 4, 2]),
            routing: RoutingSpec::DimensionOrdered,
            nodes: 8,
            gigabytes: 0.25,
            candidates: vec![
                AllocationSpec::TorusBlocks,
                AllocationSpec::Blocked,
                AllocationSpec::Scatter { stride: 3 },
                AllocationSpec::Random { samples: 2 },
            ],
            seed: 11,
        }
    }

    #[test]
    fn readvise_with_base_matches_full_recompute_on_the_patched_fabric() {
        use netpart_engine::{LinkPatch, NodePatch};
        let spec = torus_spec();
        let base = run_advice(&spec).unwrap();
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 1,
                scale: 1e-3,
            }],
            nodes: vec![NodePatch {
                node: 17,
                scale: 0.5,
            }],
        };
        let full = run_readvise(&spec, &patch, None).unwrap();
        let patched = run_readvise(&spec, &patch, Some(&base)).unwrap();
        assert_eq!(full, patched, "carried-over scores must not drift");
        // A degraded escape link must actually change the answer somewhere.
        assert_ne!(base, full, "the patch should perturb at least one score");
    }

    #[test]
    fn readvise_ignores_a_base_from_a_different_question() {
        use netpart_engine::LinkPatch;
        let spec = torus_spec();
        let other = run_advice(&AdviceSpec {
            nodes: 4,
            ..torus_spec()
        })
        .unwrap();
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 1,
                scale: 0.5,
            }],
            nodes: vec![],
        };
        let fresh = run_readvise(&spec, &patch, None).unwrap();
        let with_foreign_base = run_readvise(&spec, &patch, Some(&other)).unwrap();
        assert_eq!(fresh, with_foreign_base);
    }

    #[test]
    fn readvise_ignores_a_base_at_a_different_volume() {
        use netpart_engine::LinkPatch;
        // The label omits the volume, so only the bound check tells a
        // 0.25 GB base from the 1 GB question.
        let spec = AdviceSpec {
            topology: TopologySpec::Torus(vec![4, 4]),
            routing: RoutingSpec::DimensionOrdered,
            nodes: 4,
            gigabytes: 1.0,
            candidates: vec![AllocationSpec::TorusBlocks, AllocationSpec::Blocked],
            seed: 0,
        };
        let quarter = run_advice(&AdviceSpec {
            gigabytes: 0.25,
            ..spec.clone()
        })
        .unwrap();
        assert_eq!(quarter.label, spec.label());
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 1,
                scale: 0.5,
            }],
            nodes: vec![],
        };
        let fresh = run_readvise(&spec, &patch, None).unwrap();
        assert_eq!(run_readvise(&spec, &patch, Some(&quarter)).unwrap(), fresh);
        // A base at the asked volume still carries.
        let base = run_advice(&spec).unwrap();
        assert!(has_spec_volume(
            &spec,
            &build_fabric(&spec.topology).unwrap(),
            &base
        ));
        assert_eq!(run_readvise(&spec, &patch, Some(&base)).unwrap(), fresh);
    }

    #[test]
    fn readvise_with_an_empty_patch_reproduces_the_base() {
        let spec = torus_spec();
        let base = run_advice(&spec).unwrap();
        let unchanged = run_readvise(&spec, &FabricPatch::default(), Some(&base)).unwrap();
        assert_eq!(base, unchanged);
    }

    #[test]
    fn readvise_surfaces_invalid_patches_as_typed_errors() {
        use netpart_engine::LinkPatch;
        let spec = torus_spec();
        let patch = FabricPatch {
            links: vec![LinkPatch {
                a: 0,
                b: 0,
                scale: 0.5,
            }],
            nodes: vec![],
        };
        assert!(matches!(
            run_readvise(&spec, &patch, None),
            Err(ScenarioError::Engine(_))
        ));
    }

    #[test]
    fn sweep_preserves_order_and_isolates_failures() {
        let good = dragonfly_spec();
        let bad = AdviceSpec {
            nodes: 0,
            ..dragonfly_spec()
        };
        let results = run_allocation_sweep(&[bad, good]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }

    #[test]
    fn bound_and_simulation_agree_on_torus_reference_geometry_pairs() {
        // The paper's reference question, node-granularity scaled: an
        // elongated full-machine geometry vs the balanced one of the same
        // size. Both scores must rank the balanced geometry better, and the
        // full-machine candidates must go through the closed-form fast path.
        let advise = |dims: Vec<usize>| {
            let nodes = dims.iter().product();
            let result = run_advice(&AdviceSpec {
                topology: TopologySpec::Torus(dims),
                routing: RoutingSpec::DimensionOrdered,
                nodes,
                gigabytes: 0.25,
                candidates: vec![AllocationSpec::TorusBlocks],
                seed: 0,
            })
            .unwrap();
            let full = result
                .candidates
                .iter()
                .find(|c| c.nodes.len() == nodes)
                .expect("the full machine is one of its own cuboids")
                .clone();
            assert!(full.closed_form, "{}", full.label);
            full
        };
        for (worse_dims, better_dims) in [
            (vec![8, 2, 2], vec![4, 4, 2]),
            (vec![16, 2, 2], vec![4, 4, 4]),
        ] {
            let worse = advise(worse_dims.clone());
            let better = advise(better_dims.clone());
            assert!(
                worse.bound_seconds > better.bound_seconds,
                "{worse_dims:?} bound {} !> {better_dims:?} bound {}",
                worse.bound_seconds,
                better.bound_seconds
            );
            assert!(
                worse.simulated_seconds > better.simulated_seconds,
                "{worse_dims:?} sim {} !> {better_dims:?} sim {}",
                worse.simulated_seconds,
                better.simulated_seconds
            );
            assert!(worse.gap >= 1.0 - 1e-9 && better.gap >= 1.0 - 1e-9);
        }
    }
}
