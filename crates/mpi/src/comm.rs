//! Communicators: groups of ranks executing a collective together.
//!
//! CAPS repeatedly splits its rank set into 7 equal groups (one per Strassen
//! subproblem); a [`Communicator`] represents such a group and produces
//! node-level flows for collectives restricted to its members.

use crate::mapping::RankMapping;
use netpart_engine::Flow;

/// A subset of ranks participating in a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communicator {
    /// Global ranks belonging to this communicator, in local-rank order.
    pub ranks: Vec<usize>,
}

impl Communicator {
    /// The world communicator of a mapping.
    pub fn world(mapping: &RankMapping) -> Self {
        Self {
            ranks: (0..mapping.num_ranks()).collect(),
        }
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Split into `groups` equal contiguous sub-communicators.
    ///
    /// # Panics
    /// Panics if the size is not divisible by `groups`.
    pub fn split_contiguous(&self, groups: usize) -> Vec<Communicator> {
        assert!(
            groups >= 1 && self.size().is_multiple_of(groups),
            "communicator of size {} cannot be split into {groups} equal groups",
            self.size()
        );
        let group_size = self.size() / groups;
        (0..groups)
            .map(|g| Communicator {
                ranks: self.ranks[g * group_size..(g + 1) * group_size].to_vec(),
            })
            .collect()
    }

    /// Flows of a ring shift within this communicator: local rank `i` sends
    /// `gigabytes` to local rank `i + 1` (mod size).
    pub fn ring_shift(&self, mapping: &RankMapping, gigabytes: f64) -> Vec<Flow> {
        let p = self.size();
        (0..p)
            .map(|i| Flow {
                src: mapping.node_of(self.ranks[i]),
                dst: mapping.node_of(self.ranks[(i + 1) % p]),
                gigabytes,
            })
            .collect()
    }

    /// Flows of a pairwise exchange between corresponding local ranks of this
    /// communicator and another of equal size.
    ///
    /// # Panics
    /// Panics if the two communicators have different sizes.
    pub fn exchange_with(
        &self,
        other: &Communicator,
        mapping: &RankMapping,
        gigabytes: f64,
    ) -> Vec<Flow> {
        assert_eq!(
            self.size(),
            other.size(),
            "exchange requires equal-size communicators"
        );
        self.ranks
            .iter()
            .zip(&other.ranks)
            .flat_map(|(&a, &b)| {
                [
                    Flow {
                        src: mapping.node_of(a),
                        dst: mapping.node_of(b),
                        gigabytes,
                    },
                    Flow {
                        src: mapping.node_of(b),
                        dst: mapping.node_of(a),
                        gigabytes,
                    },
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingStrategy;

    #[test]
    fn world_and_split_sizes() {
        let mapping = RankMapping::new(28, 28, 1, MappingStrategy::Linear);
        let world = Communicator::world(&mapping);
        assert_eq!(world.size(), 28);
        let groups = world.split_contiguous(7);
        assert_eq!(groups.len(), 7);
        assert!(groups.iter().all(|g| g.size() == 4));
        // Groups partition the rank set.
        let mut all: Vec<usize> = groups.iter().flat_map(|g| g.ranks.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..28).collect::<Vec<_>>());
    }

    #[test]
    fn ring_shift_stays_within_the_group() {
        let mapping = RankMapping::new(12, 12, 1, MappingStrategy::Linear);
        let world = Communicator::world(&mapping);
        let groups = world.split_contiguous(3);
        let flows = groups[1].ring_shift(&mapping, 1.0);
        assert_eq!(flows.len(), 4);
        for f in &flows {
            assert!((4..8).contains(&f.src));
            assert!((4..8).contains(&f.dst));
        }
    }

    #[test]
    fn exchange_pairs_corresponding_ranks() {
        let mapping = RankMapping::new(8, 8, 1, MappingStrategy::Linear);
        let world = Communicator::world(&mapping);
        let groups = world.split_contiguous(2);
        let flows = groups[0].exchange_with(&groups[1], &mapping, 0.5);
        assert_eq!(flows.len(), 8);
        assert!(flows.iter().any(|f| f.src == 0 && f.dst == 4));
        assert!(flows.iter().any(|f| f.src == 4 && f.dst == 0));
    }

    #[test]
    #[should_panic(expected = "equal groups")]
    fn uneven_split_panics() {
        let mapping = RankMapping::new(10, 10, 1, MappingStrategy::Linear);
        let _ = Communicator::world(&mapping).split_contiguous(3);
    }
}
