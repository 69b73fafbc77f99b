//! Shared plumbing for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! recomputes it and prints it in a layout close to the original. The
//! helpers here handle the output conventions: echo to stdout and also write
//! a copy under `results/` so EXPERIMENTS.md can reference stable artefacts.

#![warn(missing_docs)]

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory where experiment outputs are stored: `NETPART_RESULTS_DIR` if
/// set, else `results/` at the workspace root, so every experiment bin and
/// the service write to the same place regardless of the current directory.
///
/// The workspace root is found from this crate's compile-time manifest dir
/// (`crates/bench` → two levels up). When that path does not exist at run
/// time (the binary moved to another machine), fall back to `results/`
/// under the current directory.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NETPART_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let manifest: &str = env!("CARGO_MANIFEST_DIR");
    if let Some(workspace_root) = Path::new(manifest).ancestors().nth(2) {
        if workspace_root.is_dir() {
            return workspace_root.join("results");
        }
    }
    PathBuf::from("results")
}

/// Echo `body` to stdout and persist it under `results/<name>.<ext>`.
/// Failures to write the file are reported but not fatal (the console output
/// is the primary artefact).
fn emit_with_ext(name: &str, ext: &str, body: &str) {
    println!("{body}");
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("note: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.{ext}"));
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
    }
}

/// Print a report to stdout and persist it under `results/<name>.txt`.
pub fn emit(name: &str, body: &str) {
    emit_with_ext(name, "txt", body);
}

/// Persist a JSON document under `results/<name>.json` (and echo it), for
/// machine-readable baselines such as `bench_engine.json`.
pub fn emit_json(name: &str, body: &str) {
    emit_with_ext(name, "json", body);
}

/// Persist a JSON *baseline* under `results/<name>.json` — like
/// [`emit_json`], except an existing file is left untouched unless `force`
/// is set, so a stray local run cannot silently clobber the committed
/// trajectory. Bench bins map their `--force` flag straight onto `force`.
pub fn emit_json_baseline(name: &str, body: &str, force: bool) {
    let path = results_dir().join(format!("{name}.json"));
    if path.exists() && !force {
        println!("{body}");
        eprintln!(
            "note: kept existing baseline {} (pass --force to overwrite)",
            path.display()
        );
        return;
    }
    emit_with_ext(name, "json", body);
}

/// Render a header line for an experiment report.
pub fn header(title: &str, source: &str) -> String {
    format!("{title}\n(reproduces {source} of 'Network Partitioning and Avoidable Contention', SPAA 2020)\n")
}

/// Shared workload definitions for the engine benchmarks.
///
/// `benches/engine_events.rs` (criterion timings) and the
/// `bench_engine_baseline` bin (the committed `results/bench_engine.json`)
/// both measure exactly these workloads; keeping one definition here
/// guarantees the baseline and `cargo bench` never drift apart.
pub mod engine_workloads {
    use netpart_engine::{
        Component, Context, DimensionOrdered, Event, EventQueue, Fabric, Flow, Router,
        ShortestPath, Simulation,
    };
    use netpart_topology::{Dragonfly, FatTree, GlobalArrangement, Hypercube, Torus};

    /// Push `n` events with deterministically scattered timestamps, then
    /// drain the queue; returns the number drained.
    pub fn queue_push_drain(n: usize) -> usize {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.push(((i * 2_654_435_761) % n) as f64, 0, 0, i);
        }
        let mut drained = 0usize;
        while queue.pop().is_some() {
            drained += 1;
        }
        drained
    }

    /// One component re-emitting to itself `n` times: measures per-event
    /// dispatch overhead (queue + clock + handler swap). Returns the events
    /// processed.
    pub fn dispatch_chain(n: u64) -> u64 {
        struct Chain {
            remaining: u64,
        }
        impl Component<u64> for Chain {
            fn on_event(&mut self, _event: Event<u64>, ctx: &mut Context<'_, u64>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.emit_self(self.remaining, 1.0);
                }
            }
        }
        let mut sim = Simulation::new();
        let id = sim.add_component("chain", Box::new(Chain { remaining: n }));
        sim.schedule(0.0, id, 0);
        sim.run();
        sim.events_processed()
    }

    /// The four-fabric case table the flow-simulation benchmarks sweep: one
    /// torus (dimension-ordered) and three non-torus families.
    pub fn fabric_cases() -> Vec<(&'static str, Fabric, Box<dyn Router>)> {
        vec![
            (
                "torus_8x4x4_dor",
                Fabric::from_torus(Torus::new(vec![8, 4, 4]), 2.0),
                Box::new(DimensionOrdered::default()),
            ),
            (
                "hypercube_7",
                Fabric::from_topology(&Hypercube::new(7), 2.0),
                Box::new(ShortestPath),
            ),
            (
                "dragonfly_8x4x4",
                Fabric::from_topology(
                    &Dragonfly::new(8, 4, 4, 1.0, 1.0, 1.0, 1, GlobalArrangement::Relative),
                    2.0,
                ),
                Box::new(ShortestPath),
            ),
            (
                "fattree_8",
                Fabric::from_topology(&FatTree::new(8), 2.0),
                Box::new(ShortestPath),
            ),
        ]
    }

    /// The shuffle pattern the flow benchmarks simulate on each fabric.
    pub fn shuffle_flows(fabric: &Fabric) -> Vec<Flow> {
        let n = fabric.num_nodes();
        (0..n)
            .map(|src| Flow {
                src,
                dst: (src + n / 2 + 1) % n,
                gigabytes: 0.5,
            })
            .collect()
    }
}

/// Shared workload definitions for the allocation-advice benchmarks.
///
/// `benches/advise.rs` (criterion timings) and the `bench_advise` bin (the
/// committed `results/bench_advise.json`) both measure exactly these
/// workloads: scoring a fixed list of candidate allocations by all-to-all
/// flow simulation, once with per-candidate construction (`score_naive`)
/// and once with the reused CSR/fluid/scratch buffers (`score_reused`).
/// The two must produce bit-identical scores — only the allocation
/// behaviour differs.
pub mod advise_workloads {
    use netpart_engine::{
        route_flows, route_flows_csr, Allocator, BlockedAllocator, ChannelId, CompactAllocator,
        Exec, Fabric, Flow, FluidSim, RandomAllocator, Router, ScatterAllocator, Telemetry,
    };
    use netpart_scenario::CandidateScore;
    use netpart_topology::Torus;

    /// The fabric the advise benchmarks score on.
    pub fn advise_fabric() -> Fabric {
        Fabric::from_torus(Torus::new(vec![8, 8, 4]), 2.0)
    }

    /// A deterministic list of `count` candidate allocations of `nodes`
    /// nodes, mixing the blocked / greedy / scatter / random generators.
    pub fn candidate_sets(fabric: &Fabric, nodes: usize, count: usize) -> Vec<Vec<usize>> {
        let free = vec![true; fabric.num_nodes()];
        (0..count)
            .map(|i| {
                let set = match i % 4 {
                    0 => BlockedAllocator.allocate(fabric, &free, nodes),
                    1 => CompactAllocator.allocate(fabric, &free, nodes),
                    2 => ScatterAllocator { stride: 3 + i }.allocate(fabric, &free, nodes),
                    _ => RandomAllocator { seed: i as u64 }.allocate(fabric, &free, nodes),
                };
                set.expect("candidate fits the fabric")
            })
            .collect()
    }

    fn all_to_all(nodes: &[usize], gigabytes: f64) -> Vec<Flow> {
        let mut flows = Vec::with_capacity(nodes.len() * (nodes.len() - 1));
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

    /// Score every candidate with fresh per-candidate allocations (the
    /// pre-refactor shape: per-flow route vectors + a new `FluidSim` each
    /// round). Returns the sum of makespans.
    pub fn score_naive(
        fabric: &Fabric,
        router: &dyn Router,
        candidates: &[Vec<usize>],
        gigabytes: f64,
    ) -> f64 {
        let mut total = 0.0;
        for nodes in candidates {
            let flows = all_to_all(nodes, gigabytes);
            let paths = route_flows(fabric, router, &flows).expect("routable");
            let sizes: Vec<f64> = flows.iter().map(|f| f.gigabytes).collect();
            let mut fluid = FluidSim::new(&paths, fabric.capacities(), &sizes);
            fluid.run_to_completion();
            total += fluid.time();
        }
        total
    }

    /// Score every candidate through the reused buffers (CSR paths, flow
    /// list, fluid state and max–min scratch all persist across candidates).
    /// Bit-identical scores to [`score_naive`].
    pub fn score_reused(
        fabric: &Fabric,
        router: &dyn Router,
        candidates: &[Vec<usize>],
        gigabytes: f64,
    ) -> f64 {
        let mut flows: Vec<Flow> = Vec::new();
        let mut sizes: Vec<f64> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut data: Vec<ChannelId> = Vec::new();
        let mut fluid = FluidSim::empty();
        let mut total = 0.0;
        for nodes in candidates {
            flows.clear();
            sizes.clear();
            for &a in nodes {
                for &b in nodes {
                    if a != b {
                        flows.push(Flow {
                            src: a,
                            dst: b,
                            gigabytes,
                        });
                        sizes.push(gigabytes);
                    }
                }
            }
            route_flows_csr(fabric, router, &flows, &mut offsets, &mut data).expect("routable");
            fluid.reset_csr(&offsets, &data, fabric.capacities(), &sizes);
            fluid.run_to_completion();
            total += fluid.time();
        }
        total
    }

    /// Score the candidates through the advice sweep's reset shape: a
    /// serial loop that re-arms one fluid solver per candidate (the
    /// `score_candidates_reset` reference path). Returns per-candidate
    /// scores in input order.
    pub fn score_reset(
        fabric: &Fabric,
        router: &dyn Router,
        candidates: &[Vec<usize>],
        gigabytes: f64,
    ) -> Vec<CandidateScore> {
        netpart_scenario::score_candidates_reset(
            fabric,
            router,
            candidates,
            gigabytes,
            Exec::default(),
        )
        .expect("candidates route")
    }

    /// Score the candidates as `run_advice` does: duplicates collapsed,
    /// distinct sets in fixed shards through one reused fluid solver each,
    /// spec-scoped route cache. Bit-identical scores to [`score_reset`].
    pub fn score_delta(
        fabric: &Fabric,
        router: &dyn Router,
        candidates: &[Vec<usize>],
        gigabytes: f64,
    ) -> Vec<CandidateScore> {
        netpart_scenario::score_candidates(
            fabric,
            router,
            candidates,
            gigabytes,
            &Telemetry::disabled(),
        )
        .expect("candidates route")
    }

    /// Order-dependent checksum over a scored sweep: every simulated time's
    /// bit pattern and solve count folded in. Two sweeps agree on the
    /// checksum iff they agree bit-for-bit in order.
    pub fn scores_checksum(scores: &[CandidateScore]) -> u64 {
        let mut checksum = 0u64;
        for score in scores {
            let bits = score.simulated_seconds.to_bits()
                ^ (score.solves as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            checksum ^= bits.rotate_left(checksum as u32 & 63);
        }
        checksum
    }
}

/// Proptest strategies for the incremental-solver differential tests.
///
/// The central artefact is [`delta_case`](strategies::delta_case): a
/// strategy producing valid *(fabric, initial flow set, delta sequence)*
/// triples over random torus / dragonfly / fat-tree / expander fabrics. The
/// parity suite (`tests/incremental_parity.rs`) replays each triple against
/// both solvers and demands bit-identical rates; future fuzz targets can
/// consume the same generator unchanged.
///
/// ```
/// use netpart_bench::strategies::{delta_case, DeltaOp};
/// use proptest::strategy::Strategy;
/// use proptest::test_runner::TestRng;
///
/// let mut rng = TestRng::deterministic("doc");
/// let case = delta_case().sample(&mut rng);
/// assert!(case.initial.iter().all(|f| f.src < case.fabric.num_nodes()));
/// for op in &case.deltas {
///     if let DeltaOp::Insert(flow) = op {
///         assert!(flow.dst < case.fabric.num_nodes());
///     }
/// }
/// ```
pub mod strategies {
    use netpart_engine::{DimensionOrdered, Fabric, Flow, Router, ShortestPath};
    use netpart_scenario::{build_fabric, TopologySpec};
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    /// One operation of a delta sequence.
    #[derive(Debug, Clone)]
    pub enum DeltaOp {
        /// Insert this flow (endpoints already reduced into the fabric's
        /// node range; `src == dst` is deliberately possible — it routes to
        /// an empty path, the unbounded-rate edge case).
        Insert(Flow),
        /// Remove one live flow, chosen as `index` modulo the live count at
        /// apply time (so the op is valid whatever the set looks like).
        Remove {
            /// Raw index; reduce modulo the live flow count when applying.
            index: usize,
        },
        /// Solve now and check the rates against the reference solver.
        Solve,
    }

    /// A generated differential-test case: a fabric, the flows present
    /// before the first delta, and the delta script to replay.
    #[derive(Debug, Clone)]
    pub struct DeltaCase {
        /// The fabric the flows are routed on.
        pub fabric: Fabric,
        /// Flows inserted (in order) before the script runs.
        pub initial: Vec<Flow>,
        /// The insert/remove/solve script.
        pub deltas: Vec<DeltaOp>,
    }

    impl DeltaCase {
        /// The fabric's natural router: dimension-ordered on tori,
        /// shortest-path elsewhere (the same choice the service makes).
        pub fn router(&self) -> Box<dyn Router> {
            if self.fabric.torus().is_some() {
                Box::new(DimensionOrdered::default())
            } else {
                Box::new(ShortestPath)
            }
        }
    }

    /// Random small fabric from the four families the parity suite covers.
    /// Every emitted spec passes `netpart_scenario::build_fabric`
    /// validation, so the strategy can never produce an unbuildable case.
    pub fn small_fabric() -> BoxedStrategy<Fabric> {
        prop_oneof![
            proptest::collection::vec(2usize..=5, 2..=3).prop_map(TopologySpec::Torus),
            (3usize..=5, 2usize..=4, 1usize..=2)
                .prop_map(|(g, a, p)| TopologySpec::Dragonfly(g, a, p)),
            Just(TopologySpec::FatTree(4)),
            (8usize..=40, proptest::collection::vec(2usize..=7, 1..=3)).prop_map(|(n, skips)| {
                // Circulant generators must be distinct and in 1..=n/2;
                // generator 1 keeps the graph connected regardless of the
                // other skips (e.g. C20(2) alone splits into two cycles).
                let mut skips: Vec<usize> = skips.into_iter().map(|s| 1 + s % (n / 2)).collect();
                skips.push(1);
                skips.sort_unstable();
                skips.dedup();
                TopologySpec::Expander(n, skips)
            }),
        ]
        .prop_map(|spec| build_fabric(&spec).expect("strategy emits only valid specs"))
        .boxed()
    }

    /// Raw flow material: endpoints as unreduced indices plus a volume.
    fn raw_flow() -> BoxedStrategy<(usize, usize, f64)> {
        (0usize..1 << 16, 0usize..1 << 16, 0.05f64..4.0).boxed()
    }

    /// Raw op material; reduced against the fabric in [`delta_case`].
    fn raw_op() -> BoxedStrategy<RawOp> {
        prop_oneof![
            raw_flow().prop_map(RawOp::Insert),
            (0usize..1 << 16).prop_map(|index| RawOp::Remove { index }),
            Just(RawOp::Solve),
        ]
        .boxed()
    }

    #[derive(Debug, Clone)]
    enum RawOp {
        Insert((usize, usize, f64)),
        Remove { index: usize },
        Solve,
    }

    fn reduce_flow(raw: &(usize, usize, f64), nodes: usize) -> Flow {
        Flow {
            src: raw.0 % nodes,
            dst: raw.1 % nodes,
            gigabytes: raw.2,
        }
    }

    /// A valid (fabric, flow set, delta sequence) triple. Endpoints are
    /// reduced into the fabric's node range at generation time; `Remove`
    /// indices stay raw (reduce them modulo the live count when applying).
    pub fn delta_case() -> BoxedStrategy<DeltaCase> {
        (
            small_fabric(),
            proptest::collection::vec(raw_flow(), 0..24),
            proptest::collection::vec(raw_op(), 1..48),
        )
            .prop_map(|(fabric, raw_flows, raw_ops)| {
                let nodes = fabric.num_nodes();
                let initial = raw_flows.iter().map(|f| reduce_flow(f, nodes)).collect();
                let deltas = raw_ops
                    .iter()
                    .map(|op| match op {
                        RawOp::Insert(raw) => DeltaOp::Insert(reduce_flow(raw, nodes)),
                        RawOp::Remove { index } => DeltaOp::Remove { index: *index },
                        RawOp::Solve => DeltaOp::Solve,
                    })
                    .collect();
                DeltaCase {
                    fabric,
                    initial,
                    deltas,
                }
            })
            .boxed()
    }
}

/// Shared workloads for the batch-vs-incremental solver benchmarks.
///
/// `src/bin/bench_incremental.rs` (the committed
/// `results/bench_incremental.json`) measures exactly these workloads: a
/// 10k-event allocation-churn trace replayed through [`IncrementalMaxMin`]
/// in both modes, and the advice candidate sweep scored through
/// [`FluidSim`] in both modes. Each workload returns a checksum over every
/// solved rate's bits, so the benchmark asserts bit-identity between the
/// modes before it times anything.
///
/// [`IncrementalMaxMin`]: netpart_engine::IncrementalMaxMin
/// [`FluidSim`]: netpart_engine::FluidSim
pub mod incremental_workloads {
    use netpart_engine::{
        route_flows_csr, ChannelId, DimensionOrdered, Fabric, Flow, FluidSim, IncrementalMaxMin,
        Router, SolverMode,
    };
    use netpart_topology::Torus;

    /// The churn fabric: the advise benchmarks' 8×8×4 torus.
    pub fn churn_fabric() -> Fabric {
        Fabric::from_torus(Torus::new(vec![8, 8, 4]), 2.0)
    }

    /// One churn job: a routed all-to-all exchange over one compact node
    /// block, stored as per-flow channel paths.
    pub struct ChurnJob {
        /// CSR offsets into [`paths`](ChurnJob::paths).
        pub offsets: Vec<usize>,
        /// Concatenated channel paths of the job's flows.
        pub paths: Vec<ChannelId>,
    }

    impl ChurnJob {
        /// Number of flows in the job.
        pub fn flows(&self) -> usize {
            self.offsets.len() - 1
        }
    }

    /// Build the churn jobs: disjoint compact blocks of `block` consecutive
    /// nodes, each running an all-to-all exchange. Disjoint blocks keep the
    /// flow–channel interaction graph partitioned per job — the regime the
    /// incremental solver exists for (a job arriving or leaving only
    /// disturbs its own component).
    pub fn churn_jobs(fabric: &Fabric, block: usize) -> Vec<ChurnJob> {
        let router = DimensionOrdered::default();
        let mut jobs = Vec::new();
        let mut flows = Vec::new();
        for start in (0..fabric.num_nodes()).step_by(block) {
            let nodes: Vec<usize> = (start..start + block).collect();
            if *nodes.last().unwrap() >= fabric.num_nodes() {
                break;
            }
            flows.clear();
            for &a in &nodes {
                for &b in &nodes {
                    if a != b {
                        flows.push(Flow {
                            src: a,
                            dst: b,
                            gigabytes: 1.0,
                        });
                    }
                }
            }
            let mut offsets = Vec::new();
            let mut paths = Vec::new();
            route_flows_csr(fabric, &router, &flows, &mut offsets, &mut paths)
                .expect("blocks route on their own fabric");
            jobs.push(ChurnJob { offsets, paths });
        }
        jobs
    }

    /// Replay an `events`-step churn trace: keep a window of `window` jobs
    /// live; each step retires the oldest job, admits the next (cycling
    /// through `jobs`), and re-solves. Returns an XOR checksum over every
    /// post-solve rate's bits — identical across modes exactly when every
    /// intermediate rate assignment is bit-identical.
    ///
    /// `mode` selects the solver: `Batch` forces the full batch solve on
    /// every event (the pre-incremental cost model), `Incremental` repairs
    /// only the admitted/retired job's component.
    pub fn run_churn(
        fabric: &Fabric,
        jobs: &[ChurnJob],
        window: usize,
        events: usize,
        mode: SolverMode,
    ) -> u64 {
        assert!(window < jobs.len(), "window must leave jobs to cycle in");
        let mut solver = IncrementalMaxMin::new(fabric.capacities());
        if mode == SolverMode::Batch {
            // Threshold 0 sends every repair down the full-batch path: the
            // same arithmetic every event, none of the delta bookkeeping
            // pay-off.
            solver.set_full_solve_fraction(0.0);
        }
        // Flow ids partition into fixed per-slot ranges so ids never clash
        // between coexisting jobs.
        let slot_width = jobs.iter().map(ChurnJob::flows).max().unwrap_or(0);
        let insert = |solver: &mut IncrementalMaxMin, slot: usize, job: &ChurnJob| {
            for f in 0..job.flows() {
                solver.insert_flow(
                    slot * slot_width + f,
                    &job.paths[job.offsets[f]..job.offsets[f + 1]],
                );
            }
        };
        let remove = |solver: &mut IncrementalMaxMin, slot: usize, job: &ChurnJob| {
            for f in 0..job.flows() {
                solver.remove_flow(slot * slot_width + f);
            }
        };
        let mut checksum = 0u64;
        let mut digest = |solver: &mut IncrementalMaxMin| {
            for &r in solver.solve() {
                checksum ^= r.to_bits().rotate_left(checksum as u32 & 63);
            }
        };
        // Fill the window, solving per admission (these count as events).
        let mut next = 0usize;
        let mut live: Vec<usize> = Vec::new(); // slot i holds jobs[live[i]]
        let mut remaining = events;
        while live.len() < window && remaining > 0 {
            insert(&mut solver, live.len(), &jobs[next]);
            live.push(next);
            next = (next + 1) % jobs.len();
            digest(&mut solver);
            remaining -= 1;
        }
        // Steady-state churn: retire the oldest slot, admit the next job.
        let mut oldest = 0usize;
        while remaining > 0 {
            remove(&mut solver, oldest, &jobs[live[oldest]]);
            digest(&mut solver);
            remaining -= 1;
            if remaining == 0 {
                break;
            }
            // Skip the job currently in every other live slot: with
            // disjoint blocks any job not live is admissible.
            while live.contains(&next) {
                next = (next + 1) % jobs.len();
            }
            insert(&mut solver, oldest, &jobs[next]);
            live[oldest] = next;
            digest(&mut solver);
            remaining -= 1;
            oldest = (oldest + 1) % window;
        }
        checksum
    }

    /// Score the advise candidate sweep through a [`FluidSim`] in the given
    /// mode (the advice hot path). Returns the checksum over all candidate
    /// makespans' bits.
    pub fn score_candidates(
        fabric: &Fabric,
        router: &dyn Router,
        candidates: &[Vec<usize>],
        gigabytes: f64,
        mode: SolverMode,
    ) -> u64 {
        let mut flows: Vec<Flow> = Vec::new();
        let mut sizes: Vec<f64> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut data: Vec<ChannelId> = Vec::new();
        let mut fluid = FluidSim::empty_with_mode(mode);
        let mut checksum = 0u64;
        for nodes in candidates {
            flows.clear();
            sizes.clear();
            for &a in nodes {
                for &b in nodes {
                    if a != b {
                        flows.push(Flow {
                            src: a,
                            dst: b,
                            gigabytes,
                        });
                        sizes.push(gigabytes);
                    }
                }
            }
            route_flows_csr(fabric, router, &flows, &mut offsets, &mut data).expect("routable");
            fluid.reset_csr(&offsets, &data, fabric.capacities(), &sizes);
            fluid.run_to_completion();
            checksum ^= fluid.time().to_bits().rotate_left(checksum as u32 & 63);
        }
        checksum
    }
}

/// Format seconds with three significant decimals.
pub fn secs(t: f64) -> String {
    format!("{t:.3}")
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. Std-only on
/// purpose: the scale benchmark records it next to each timing so memory
/// regressions surface in the same baseline file as throughput ones.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_mentions_the_source() {
        let h = header("Table 1", "Table 1");
        assert!(h.contains("SPAA 2020"));
        assert!(h.starts_with("Table 1"));
    }

    #[test]
    fn secs_formats_three_decimals() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(secs(0.1), "0.100");
    }

    #[test]
    fn results_dir_resolution() {
        // One test (not two) so the env mutation cannot race a parallel
        // assertion on the un-overridden path.
        let dir = results_dir();
        // On the build machine the workspace root exists, so the path must
        // be absolute (…/results), not the cwd-relative "results".
        assert!(dir.is_absolute(), "expected absolute path, got {dir:?}");
        assert!(dir.ends_with("results"));
        assert!(
            dir.parent()
                .unwrap()
                .join("crates/bench/Cargo.toml")
                .exists(),
            "results/ must sit next to crates/ at the workspace root"
        );

        std::env::set_var("NETPART_RESULTS_DIR", "/tmp/netpart-test-results");
        assert_eq!(results_dir(), PathBuf::from("/tmp/netpart-test-results"));
        std::env::remove_var("NETPART_RESULTS_DIR");
    }
}
