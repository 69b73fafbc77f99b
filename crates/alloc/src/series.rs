//! Bisection-bandwidth series for the paper's figures.
//!
//! Figures 1, 2 and 7 plot normalized bisection bandwidth against partition
//! size (in midplanes) for different geometry choices or machines. A
//! [`Series`] is the underlying `(midplanes, links)` data; the figure
//! binaries print them side by side so the plotted curves can be rebuilt.

use crate::optimize::{best_geometry, worst_geometry};
use netpart_machines::{AllocationSystem, BlueGeneQ};

/// A named series of `(midplanes, bisection links)` points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Label used in figure legends.
    pub label: String,
    /// `(midplane count, normalized bisection bandwidth in links)` points in
    /// increasing size order.
    pub points: Vec<(usize, u64)>,
}

impl Series {
    /// The bandwidth at a given size, if present.
    pub fn at(&self, midplanes: usize) -> Option<u64> {
        self.points
            .iter()
            .find(|&&(m, _)| m == midplanes)
            .map(|&(_, bw)| bw)
    }
}

/// Figure 1 ("Current partitions"): the bandwidth of the geometries a
/// production predefined scheduler hands out, per supported size.
pub fn scheduler_series(system: &AllocationSystem, label: &str) -> Series {
    Series {
        label: label.to_string(),
        points: system
            .supported_sizes()
            .into_iter()
            .filter_map(|m| system.worst_case(m).map(|g| (m, g.bisection_links())))
            .collect(),
    }
}

/// The best-case geometry bandwidth for every feasible size of a machine
/// (Figure 1 "Proposed partitions", Figure 2 "Best-case", Figure 7 curves).
pub fn best_case_series(machine: &BlueGeneQ, label: &str) -> Series {
    Series {
        label: label.to_string(),
        points: machine
            .feasible_sizes()
            .into_iter()
            .filter_map(|m| best_geometry(machine, m).map(|g| (m, g.bisection_links())))
            .collect(),
    }
}

/// The best-case bandwidth restricted to a given list of sizes (used when
/// comparing against a predefined scheduler that only supports those sizes).
pub fn best_case_series_at(machine: &BlueGeneQ, sizes: &[usize], label: &str) -> Series {
    Series {
        label: label.to_string(),
        points: sizes
            .iter()
            .filter_map(|&m| best_geometry(machine, m).map(|g| (m, g.bisection_links())))
            .collect(),
    }
}

/// The worst-case geometry bandwidth for every feasible size (Figure 2
/// "Worst-case partitions").
pub fn worst_case_series(machine: &BlueGeneQ, label: &str) -> Series {
    Series {
        label: label.to_string(),
        points: machine
            .feasible_sizes()
            .into_iter()
            .filter_map(|m| worst_geometry(machine, m).map(|g| (m, g.bisection_links())))
            .collect(),
    }
}

/// Render one or more series as an aligned text table (one row per size that
/// appears in any series; missing entries are blank).
pub fn render_series(series: &[Series]) -> String {
    let mut sizes: Vec<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(m, _)| m))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut headers = vec!["Midplanes".to_string()];
    headers.extend(series.iter().map(|s| s.label.clone()));
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&m| {
            let mut row = vec![m.to_string()];
            row.extend(
                series
                    .iter()
                    .map(|s| s.at(m).map(|bw| bw.to_string()).unwrap_or_default()),
            );
            row
        })
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    crate::report::render_table(&header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_machines::known;

    #[test]
    fn figure1_series_values() {
        let production =
            scheduler_series(&AllocationSystem::mira_production(), "Current partitions");
        let proposed = best_case_series_at(
            &known::mira(),
            &AllocationSystem::mira_production().supported_sizes(),
            "Proposed partitions",
        );
        // Figure 1 y-values at selected sizes.
        assert_eq!(production.at(4), Some(256));
        assert_eq!(proposed.at(4), Some(512));
        assert_eq!(production.at(16), Some(1024));
        assert_eq!(proposed.at(16), Some(2048));
        assert_eq!(production.at(96), Some(6144));
        assert_eq!(proposed.at(96), Some(6144));
        assert_eq!(production.points.len(), proposed.points.len());
    }

    #[test]
    fn figure2_series_values() {
        let juqueen = known::juqueen();
        let worst = worst_case_series(&juqueen, "Worst-case partitions");
        let best = best_case_series(&juqueen, "Best-case partitions");
        assert_eq!(worst.at(8), Some(512));
        assert_eq!(best.at(8), Some(1024));
        // The 'spiking drops': ring-only sizes collapse to 256 links even in
        // the best case.
        assert_eq!(best.at(5), Some(256));
        assert_eq!(best.at(7), Some(256));
        assert_eq!(best.at(4), Some(512));
        // Largest partition: the whole machine.
        assert_eq!(best.at(56), Some(2048));
    }

    #[test]
    fn figure7_series_values() {
        let juqueen = best_case_series(&known::juqueen(), "JUQUEEN");
        let j48 = best_case_series(&known::juqueen_48(), "JUQUEEN-48");
        let j54 = best_case_series(&known::juqueen_54(), "JUQUEEN-54");
        // Small partitions coincide across machines.
        for m in [1usize, 2, 4, 8, 16] {
            assert_eq!(juqueen.at(m), j48.at(m), "{m} midplanes");
            assert_eq!(juqueen.at(m), j54.at(m), "{m} midplanes");
        }
        // The largest sizes are strictly better on the hypothetical machines.
        assert_eq!(juqueen.at(48), Some(2048));
        assert_eq!(j48.at(48), Some(3072));
        assert_eq!(j54.at(54), Some(4608));
    }

    #[test]
    fn rendering_includes_all_sizes() {
        let juqueen = known::juqueen();
        let text = render_series(&[
            worst_case_series(&juqueen, "Worst"),
            best_case_series(&juqueen, "Best"),
        ]);
        assert!(text.contains("Midplanes"));
        // 19 sizes + header + separator.
        assert_eq!(text.lines().count(), 21);
    }
}
