//! Processor allocation policies.
//!
//! The paper contrasts two styles of policy:
//!
//! * **Predefined** (Mira): the scheduler only offers a fixed list of
//!   partition geometries, one per supported size.
//! * **Flexible** (JUQUEEN, Sequoia): any cuboid of midplanes that fits in
//!   the machine may be requested, either by exact geometry or by size; when
//!   only a size is given the scheduler may hand back a geometry with
//!   sub-optimal internal bisection bandwidth.
//!
//! Changing a machine's policy is a software-only operation (Section 4), so
//! a policy here is just a value describing what the scheduler will grant.

use crate::bgq::BlueGeneQ;
use crate::partition::PartitionGeometry;
use std::collections::BTreeMap;

/// How a machine's scheduler maps partition requests to geometries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Only a predefined list of geometries is available (Mira).
    Predefined {
        /// Supported geometries keyed by midplane count.
        partitions: BTreeMap<usize, PartitionGeometry>,
    },
    /// Any cuboid of midplanes that fits may be allocated (JUQUEEN, Sequoia).
    Flexible,
}

/// A machine together with its allocation policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationSystem {
    machine: BlueGeneQ,
    policy: AllocationPolicy,
}

impl AllocationSystem {
    /// Create a system from a machine and a policy.
    ///
    /// # Panics
    /// Panics if a predefined geometry does not fit in the machine or its
    /// size key disagrees with its midplane count.
    pub fn new(machine: BlueGeneQ, policy: AllocationPolicy) -> Self {
        if let AllocationPolicy::Predefined { partitions } = &policy {
            for (&size, geometry) in partitions {
                assert_eq!(
                    geometry.num_midplanes(),
                    size,
                    "predefined geometry {geometry} registered under wrong size {size}"
                );
                assert!(
                    machine.admits(geometry),
                    "predefined geometry {geometry} does not fit in {machine}"
                );
            }
        }
        Self { machine, policy }
    }

    /// Mira with its production predefined partition list.
    pub fn mira_production() -> Self {
        Self::new(
            crate::known::mira(),
            AllocationPolicy::Predefined {
                partitions: crate::known::mira_scheduler_partitions()
                    .into_iter()
                    .collect(),
            },
        )
    }

    /// Mira with the paper's proposed partition list (proposed geometries
    /// where they exist, production geometries elsewhere).
    pub fn mira_proposed() -> Self {
        let mut partitions: BTreeMap<usize, PartitionGeometry> =
            crate::known::mira_scheduler_partitions()
                .into_iter()
                .collect();
        for (size, geometry) in crate::known::mira_proposed_partitions() {
            partitions.insert(size, geometry);
        }
        Self::new(
            crate::known::mira(),
            AllocationPolicy::Predefined { partitions },
        )
    }

    /// JUQUEEN with its flexible policy.
    pub fn juqueen_production() -> Self {
        Self::new(crate::known::juqueen(), AllocationPolicy::Flexible)
    }

    /// The machine this system allocates.
    pub fn machine(&self) -> &BlueGeneQ {
        &self.machine
    }

    /// The policy in force.
    pub fn policy(&self) -> &AllocationPolicy {
        &self.policy
    }

    /// Midplane counts a user can request.
    pub fn supported_sizes(&self) -> Vec<usize> {
        match &self.policy {
            AllocationPolicy::Predefined { partitions } => partitions.keys().copied().collect(),
            AllocationPolicy::Flexible => self.machine.feasible_sizes(),
        }
    }

    /// Geometries the scheduler may hand back for a request of the given
    /// midplane count (empty if the size is unsupported).
    pub fn allowed_geometries(&self, midplanes: usize) -> Vec<PartitionGeometry> {
        match &self.policy {
            AllocationPolicy::Predefined { partitions } => {
                partitions.get(&midplanes).copied().into_iter().collect()
            }
            AllocationPolicy::Flexible => self.machine.geometries(midplanes),
        }
    }

    /// The geometry a size-only request receives in the best case.
    pub fn best_case(&self, midplanes: usize) -> Option<PartitionGeometry> {
        self.allowed_geometries(midplanes)
            .into_iter()
            .max_by_key(|g| g.bisection_links())
    }

    /// The geometry a size-only request receives in the worst case.
    pub fn worst_case(&self, midplanes: usize) -> Option<PartitionGeometry> {
        self.allowed_geometries(midplanes)
            .into_iter()
            .min_by_key(|g| g.bisection_links())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionGeometry;

    #[test]
    fn mira_production_only_offers_listed_sizes() {
        let mira = AllocationSystem::mira_production();
        assert_eq!(
            mira.supported_sizes(),
            vec![1, 2, 4, 8, 16, 24, 32, 48, 64, 96]
        );
        assert!(mira.allowed_geometries(12).is_empty());
        assert_eq!(
            mira.allowed_geometries(4),
            vec![PartitionGeometry::new([4, 1, 1, 1])]
        );
    }

    #[test]
    fn mira_proposed_upgrades_only_the_improvable_sizes() {
        let production = AllocationSystem::mira_production();
        let proposed = AllocationSystem::mira_proposed();
        assert_eq!(production.supported_sizes(), proposed.supported_sizes());
        for &size in &production.supported_sizes() {
            let p = production.best_case(size).unwrap();
            let q = proposed.best_case(size).unwrap();
            assert!(q.bisection_links() >= p.bisection_links(), "size {size}");
        }
        assert_eq!(
            proposed.allowed_geometries(16),
            vec![PartitionGeometry::new([2, 2, 2, 2])]
        );
    }

    #[test]
    fn juqueen_flexible_policy_has_best_and_worst_cases() {
        let juqueen = AllocationSystem::juqueen_production();
        // Table 2: 8 midplanes -> worst 4x2x1x1 (512), best 2x2x2x1 (1024).
        let best = juqueen.best_case(8).unwrap();
        let worst = juqueen.worst_case(8).unwrap();
        assert_eq!(best, PartitionGeometry::new([2, 2, 2, 1]));
        assert_eq!(worst, PartitionGeometry::new([4, 2, 1, 1]));
        assert_eq!(best.bisection_links(), 1024);
        assert_eq!(worst.bisection_links(), 512);
        // Ring-only sizes have identical best and worst cases.
        assert_eq!(juqueen.best_case(5), juqueen.worst_case(5));
    }

    #[test]
    fn unsupported_sizes_return_nothing() {
        let juqueen = AllocationSystem::juqueen_production();
        assert!(juqueen.best_case(9).is_none());
        assert!(juqueen.allowed_geometries(9).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn predefined_geometries_must_fit_the_machine() {
        let _ = AllocationSystem::new(
            crate::known::juqueen(),
            AllocationPolicy::Predefined {
                partitions: [(9, PartitionGeometry::new([3, 3, 1, 1]))]
                    .into_iter()
                    .collect(),
            },
        );
    }
}
