//! Shared plumbing for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! recomputes it and prints it in a layout close to the original. The
//! helpers here handle the output conventions: echo to stdout and also write
//! a copy under `results/` so EXPERIMENTS.md can reference stable artefacts.

#![warn(missing_docs)]

use netpart_engine::{Fabric, Flow};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory where experiment outputs are stored: `NETPART_RESULTS_DIR` if
/// set, else `results/` at the workspace root, so every experiment and
/// bench bin writes to the same place regardless of the current directory.
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

/// Echo a JSON *baseline* and persist it under `results/<name>.json`,
/// unless that file exists and `force` is unset, so a stray local run
/// cannot silently clobber the committed baseline. `bench_scale` maps its
/// `--force` flag straight onto `force`.
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

/// A shuffle on `fabric`: every node sends 0.5 GB to the node `n/2 + 1`
/// places ahead. `tests/maxmin_reference.rs` pins the max–min kernel on it.
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
