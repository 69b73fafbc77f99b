//! Dragonfly networks (Cray XC / Aries style).
//!
//! A Dragonfly is a two-level topology: routers are organised into *groups*,
//! each group being a small all-to-all-ish network, and groups are connected
//! by *global* links. In the Cray XC instantiation used by the paper each
//! group is `K_16 x K_6` (16 routers per chassis column, 6 chassis rows),
//! intra-group `K_6` links have normalized capacity 3 relative to the `K_16`
//! links, and global links have normalized capacity 4.
//!
//! The arrangement of global links is not published; following Hastings et
//! al. (CLUSTER 2015) we implement the three standard candidate schemes
//! ([`GlobalArrangement`]). The weighted edge-isoperimetric analysis in
//! `netpart-iso` consumes this model through the generic [`crate::Topology`]
//! interface.

use crate::coord::{coord_of, index_of};
use crate::Topology;

/// Global (inter-group) link arrangement schemes from Hastings et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalArrangement {
    /// Router `r` of group `g` connects to groups in a fixed absolute order:
    /// consecutive global ports of a group connect to groups `0, 1, 2, ...`
    /// (skipping the group itself).
    Absolute,
    /// Consecutive global ports of group `g` connect to groups
    /// `g+1, g+2, ...` (mod number of groups).
    Relative,
    /// Circulant-style arrangement: port `p` of group `g` connects to group
    /// `g + (p/2 + 1)` for even `p` and `g - (p/2 + 1)` for odd `p`.
    Circulant,
}

/// A Dragonfly network with `K_rows x K_cols` groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Dragonfly {
    groups: usize,
    rows: usize,
    cols: usize,
    row_capacity: f64,
    col_capacity: f64,
    global_capacity: f64,
    global_ports_per_router: usize,
    arrangement: GlobalArrangement,
}

impl Dragonfly {
    /// Cray XC-style parameters: groups of `K_16 x K_6`, row links capacity 1,
    /// column links capacity 3, global links capacity 4, and a given number
    /// of global ports per router.
    pub fn cray_xc(
        groups: usize,
        global_ports_per_router: usize,
        arrangement: GlobalArrangement,
    ) -> Self {
        Self::new(
            groups,
            16,
            6,
            1.0,
            3.0,
            4.0,
            global_ports_per_router,
            arrangement,
        )
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    /// Panics on degenerate parameters (zero groups/rows/cols, non-positive
    /// capacities) or if the requested global ports cannot reach every other
    /// group at least zero times (i.e. the parameters are merely validated
    /// for positivity; uneven arrangements are allowed, as in real systems).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        groups: usize,
        rows: usize,
        cols: usize,
        row_capacity: f64,
        col_capacity: f64,
        global_capacity: f64,
        global_ports_per_router: usize,
        arrangement: GlobalArrangement,
    ) -> Self {
        assert!(
            groups >= 1 && rows >= 1 && cols >= 1,
            "degenerate dragonfly"
        );
        assert!(
            row_capacity > 0.0 && col_capacity > 0.0 && global_capacity > 0.0,
            "capacities must be positive"
        );
        Self {
            groups,
            rows,
            cols,
            row_capacity,
            col_capacity,
            global_capacity,
            global_ports_per_router,
            arrangement,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Routers per group.
    pub fn routers_per_group(&self) -> usize {
        self.rows * self.cols
    }

    /// Decompose a router index into `(group, row, col)`.
    pub fn locate(&self, v: usize) -> (usize, usize, usize) {
        let c = coord_of(&[self.groups, self.rows, self.cols], v);
        (c[0], c[1], c[2])
    }

    /// Router index of `(group, row, col)`.
    pub fn router(&self, group: usize, row: usize, col: usize) -> usize {
        index_of(&[self.groups, self.rows, self.cols], &[group, row, col])
    }

    /// Target group of global port `p` of router `(group, local)` under the
    /// configured arrangement, or `None` if the port is unused (e.g. it would
    /// point back at the source group).
    fn global_target(&self, group: usize, local: usize, port: usize) -> Option<usize> {
        if self.groups <= 1 {
            return None;
        }
        let port_index = local * self.global_ports_per_router + port;
        let target = match self.arrangement {
            GlobalArrangement::Absolute => {
                // Ports enumerate groups 0,1,2,... skipping the source group.
                let t = port_index % (self.groups - 1);
                if t >= group {
                    t + 1
                } else {
                    t
                }
            }
            GlobalArrangement::Relative => {
                (group + 1 + port_index % (self.groups - 1)) % self.groups
            }
            GlobalArrangement::Circulant => {
                let step = port_index / 2 % (self.groups - 1) + 1;
                if port_index.is_multiple_of(2) {
                    (group + step) % self.groups
                } else {
                    (group + self.groups - step % self.groups) % self.groups
                }
            }
        };
        if target == group {
            None
        } else {
            Some(target)
        }
    }

    /// Number of global ports of router `(group, local)` that point at
    /// `target_group` under the configured arrangement.
    fn ports_towards(&self, group: usize, local: usize, target_group: usize) -> usize {
        (0..self.global_ports_per_router)
            .filter(|&p| self.global_target(group, local, p) == Some(target_group))
            .count()
    }
}

impl Topology for Dragonfly {
    fn num_nodes(&self) -> usize {
        self.groups * self.rows * self.cols
    }

    fn neighbor_links(&self, v: usize) -> Vec<(usize, f64)> {
        let (group, row, col) = self.locate(v);
        let mut out = Vec::new();
        // Intra-group row links (K_rows within the same column).
        for other in 0..self.rows {
            if other != row {
                out.push((self.router(group, other, col), self.row_capacity));
            }
        }
        // Intra-group column links (K_cols within the same row).
        for other in 0..self.cols {
            if other != col {
                out.push((self.router(group, row, other), self.col_capacity));
            }
        }
        // Global links: connect to the "mirror" router (same local position)
        // of the target group. The capacity of the undirected link {u, v} is
        // the sum of the ports u devotes to v's group and the ports v devotes
        // to u's group, so the adjacency is symmetric by construction.
        let local = row * self.cols + col;
        for target_group in 0..self.groups {
            if target_group == group {
                continue;
            }
            let ports = self.ports_towards(group, local, target_group)
                + self.ports_towards(target_group, local, group);
            if ports > 0 {
                out.push((
                    self.router(target_group, row, col),
                    self.global_capacity * ports as f64,
                ));
            }
        }
        out
    }

    fn name(&self) -> String {
        format!(
            "dragonfly({} groups of K{}xK{}, {:?})",
            self.groups, self.rows, self.cols, self.arrangement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_structure_counts() {
        let df = Dragonfly::cray_xc(4, 1, GlobalArrangement::Relative);
        assert_eq!(df.routers_per_group(), 96);
        assert_eq!(df.num_nodes(), 384);
    }

    #[test]
    fn intra_group_degrees_match_clique_product() {
        let df = Dragonfly::new(2, 4, 3, 1.0, 3.0, 4.0, 0, GlobalArrangement::Absolute);
        // No global ports: degree = (rows-1) + (cols-1).
        assert_eq!(df.degree(0), 3 + 2);
        assert!(df.is_regular());
    }

    #[test]
    fn global_links_are_symmetric() {
        for arrangement in [
            GlobalArrangement::Absolute,
            GlobalArrangement::Relative,
            GlobalArrangement::Circulant,
        ] {
            let df = Dragonfly::new(4, 2, 2, 1.0, 3.0, 4.0, 2, arrangement);
            // Symmetry check of the full adjacency: u in N(v) iff v in N(u)
            // with identical capacity.
            for u in 0..df.num_nodes() {
                for (v, cap) in df.neighbor_links(u) {
                    let back = df.neighbor_links(v);
                    let found = back.iter().find(|&&(n, _)| n == u);
                    assert!(
                        found.is_some_and(|&(_, c)| (c - cap).abs() < 1e-9),
                        "{arrangement:?}: asymmetric link {u}-{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn capacities_are_heterogeneous() {
        let df = Dragonfly::cray_xc(3, 1, GlobalArrangement::Relative);
        let caps: Vec<f64> = df.neighbor_links(0).into_iter().map(|(_, c)| c).collect();
        assert!(caps.iter().any(|&c| (c - 1.0).abs() < 1e-12));
        assert!(caps.iter().any(|&c| (c - 3.0).abs() < 1e-12));
        assert!(caps.iter().any(|&c| (c - 4.0).abs() < 1e-12));
    }

    #[test]
    fn single_group_has_no_global_links() {
        let df = Dragonfly::new(1, 4, 3, 1.0, 3.0, 4.0, 4, GlobalArrangement::Absolute);
        assert_eq!(df.degree(0), 3 + 2);
    }
}
