//! Tabular reports reproducing the paper's partition tables.
//!
//! Three table shapes appear in the paper:
//!
//! * **Current vs proposed** (Mira, Tables 1 and 6): the production
//!   scheduler geometry against the best same-size geometry.
//! * **Worst vs best** (JUQUEEN, Tables 2 and 7): the extremes a size-only
//!   request can receive from a flexible scheduler.
//! * **Per-machine best** (Table 5): the optimal geometry of every feasible
//!   size for several machines side by side.
//!
//! Rows carry the raw values; [`render_table`] produces the aligned text the
//! benchmark binaries print.

use crate::optimize::{best_geometry, extremes};
use netpart_machines::{AllocationSystem, BlueGeneQ, PartitionGeometry};

/// One row of a current/worst vs proposed/best comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonRow {
    /// Partition size in compute nodes (512 per midplane).
    pub nodes: usize,
    /// Partition size in midplanes.
    pub midplanes: usize,
    /// The baseline geometry (current scheduler geometry, or worst case).
    pub baseline: PartitionGeometry,
    /// Baseline normalized bisection bandwidth in links.
    pub baseline_bw: u64,
    /// The improved geometry (proposed / best case), if it differs.
    pub improved: Option<PartitionGeometry>,
    /// Improved normalized bisection bandwidth in links, if it differs.
    pub improved_bw: Option<u64>,
}

impl ComparisonRow {
    /// Predicted contention-bound speedup of the improved geometry
    /// (1.0 when no improvement exists).
    pub fn speedup(&self) -> f64 {
        match self.improved_bw {
            Some(bw) => bw as f64 / self.baseline_bw as f64,
            None => 1.0,
        }
    }
}

/// Mira-style report: the production scheduler geometries against the best
/// same-size geometries (Table 6; filtering to improved rows gives Table 1).
pub fn current_vs_proposed(system: &AllocationSystem) -> Vec<ComparisonRow> {
    let machine = system.machine();
    system
        .supported_sizes()
        .into_iter()
        .filter_map(|size| {
            let current = system.worst_case(size)?;
            let best = best_geometry(machine, size)?;
            let improved = best.bisection_links() > current.bisection_links();
            Some(ComparisonRow {
                nodes: current.num_nodes(),
                midplanes: size,
                baseline: current,
                baseline_bw: current.bisection_links(),
                improved: improved.then_some(best),
                improved_bw: improved.then(|| best.bisection_links()),
            })
        })
        .collect()
}

/// JUQUEEN-style report: worst against best geometry for every feasible size
/// (Table 7; filtering to rows with spread gives Table 2).
pub fn worst_vs_best(machine: &BlueGeneQ) -> Vec<ComparisonRow> {
    machine
        .feasible_sizes()
        .into_iter()
        .filter_map(|size| {
            let e = extremes(machine, size)?;
            let spread = e.has_spread();
            Some(ComparisonRow {
                nodes: e.worst.num_nodes(),
                midplanes: size,
                baseline: e.worst,
                baseline_bw: e.worst.bisection_links(),
                improved: spread.then_some(e.best),
                improved_bw: spread.then(|| e.best.bisection_links()),
            })
        })
        .collect()
}

/// One row of the multi-machine best-partition table (Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDesignRow {
    /// Partition size in midplanes.
    pub midplanes: usize,
    /// Partition size in compute nodes.
    pub nodes: usize,
    /// Best geometry and its bisection bandwidth on each machine (in the
    /// order the machines were passed); `None` when the size is infeasible.
    pub per_machine: Vec<Option<(PartitionGeometry, u64)>>,
}

/// The Table 5 comparison: for every midplane count feasible on at least one
/// of the given machines, the best geometry and bandwidth on each machine.
pub fn machine_design_table(machines: &[BlueGeneQ]) -> Vec<MachineDesignRow> {
    let mut sizes: Vec<usize> = machines.iter().flat_map(|m| m.feasible_sizes()).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
        .into_iter()
        .map(|size| MachineDesignRow {
            midplanes: size,
            nodes: size * netpart_machines::NODES_PER_MIDPLANE,
            per_machine: machines
                .iter()
                .map(|m| best_geometry(m, size).map(|g| (g, g.bisection_links())))
                .collect(),
        })
        .collect()
}

/// Render rows as an aligned plain-text table with the given headers.
///
/// # Panics
/// Panics if any row has a different number of cells than the header.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push_str(&fmt_row(
        widths.iter().map(|w| "-".repeat(*w)).collect(),
        &widths,
    ));
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Format a comparison report in the layout of Tables 1/2/6/7.
pub fn render_comparison(
    rows: &[ComparisonRow],
    baseline_label: &str,
    improved_label: &str,
) -> String {
    let headers = [
        "P (nodes)",
        "Midplanes",
        baseline_label,
        "BW",
        improved_label,
        "Proposed BW",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.midplanes.to_string(),
                r.baseline.to_string(),
                r.baseline_bw.to_string(),
                r.improved.map(|g| g.to_string()).unwrap_or_default(),
                r.improved_bw.map(|b| b.to_string()).unwrap_or_default(),
            ]
        })
        .collect();
    render_table(&headers, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    #[test]
    fn table6_mira_full_report() {
        let rows = current_vs_proposed(&AllocationSystem::mira_production());
        assert_eq!(rows.len(), 10);
        // Improved rows are exactly the Table 1 sizes.
        let improved: Vec<usize> = rows
            .iter()
            .filter(|r| r.improved.is_some())
            .map(|r| r.midplanes)
            .collect();
        assert_eq!(improved, vec![4, 8, 16, 24]);
        // Spot-check the 24-midplane row.
        let row24 = rows.iter().find(|r| r.midplanes == 24).unwrap();
        assert_eq!(row24.nodes, 12288);
        assert_eq!(row24.baseline_bw, 1536);
        assert_eq!(row24.improved_bw, Some(2048));
        assert!((row24.speedup() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table7_juqueen_full_report() {
        let rows = worst_vs_best(&known::juqueen());
        assert_eq!(rows.len(), 19);
        let improved: Vec<usize> = rows
            .iter()
            .filter(|r| r.improved.is_some())
            .map(|r| r.midplanes)
            .collect();
        // Table 2: sizes where best and worst differ.
        assert_eq!(improved, vec![4, 6, 8, 12, 16, 24]);
        for r in &rows {
            if let Some(bw) = r.improved_bw {
                assert_eq!(bw, 2 * r.baseline_bw, "size {}", r.midplanes);
            }
        }
    }

    #[test]
    fn table5_machine_design_report() {
        let machines = [known::juqueen(), known::juqueen_54(), known::juqueen_48()];
        let rows = machine_design_table(&machines);
        // JUQUEEN-54 supports 27 midplanes (3x3x3x1) while JUQUEEN does not.
        let row27 = rows.iter().find(|r| r.midplanes == 27).unwrap();
        assert!(row27.per_machine[0].is_none());
        assert_eq!(
            row27.per_machine[1],
            Some((PartitionGeometry::new([3, 3, 3, 1]), 2304))
        );
        // At 48 midplanes JUQUEEN-48 beats JUQUEEN: 3072 vs 2048 links.
        let row48 = rows.iter().find(|r| r.midplanes == 48).unwrap();
        assert_eq!(row48.per_machine[0].unwrap().1, 2048);
        assert_eq!(row48.per_machine[2].unwrap().1, 3072);
        // The largest JUQUEEN-54 partition reaches 4608 links.
        let row54 = rows.iter().find(|r| r.midplanes == 54).unwrap();
        assert_eq!(row54.per_machine[1].unwrap().1, 4608);
    }

    #[test]
    fn rendering_produces_aligned_rows() {
        let rows = current_vs_proposed(&AllocationSystem::mira_production());
        let text = render_comparison(&rows, "Current Geometry", "Proposed Geometry");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), rows.len() + 2);
        let width = lines[0].len();
        assert!(
            lines.iter().all(|l| l.len() == width),
            "all lines same width"
        );
        assert!(text.contains("2 x 2 x 2 x 2"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn render_table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
