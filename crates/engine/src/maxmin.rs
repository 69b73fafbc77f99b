//! Max–min fair rate allocation over arbitrary channel sets.
//!
//! This is the progressive-filling (water-filling) core behind every flow
//! simulation in the workspace: callers hand it channel paths and
//! capacities, whatever the topology.
//!
//! The solver is allocation-free on the hot path: callers that solve
//! repeatedly (every [`FluidSim`](crate::FluidSim) completion round) keep a
//! [`MaxMinScratch`] alive and hand paths over in CSR form, so each solve
//! reuses the channel-membership arrays and the heap buffer instead of
//! rebuilding a `Vec<Vec<u32>>` per round.
//!
//! # Finding the bottleneck: a lazy-deletion min-heap
//!
//! Each filling round must locate the channel with the smallest fair share
//! `remaining_capacity / unfixed_traversals`. The bottleneck is defined as
//! the argmin of `(share, channel)` — `share` ordered by `total_cmp`, ties
//! broken by the smaller channel id. That key is a total order with no
//! duplicates, so the minimum is unique.
//!
//! One min-heap computes it. Each solve seeds it once, with an `O(n)`
//! heapify, holding every channel that carries an unfixed flow under its
//! fresh share; from then on keys may go stale. Shares are monotone
//! non-decreasing as flows fix (fixing at the round minimum `m` turns a
//! share `(cap, n)` into `((cap - k·m) / (n - k)) ≥ cap / n` because
//! `cap / n ≥ m`), so every heap key is a lower bound on its channel's
//! fresh share: a popped entry whose key still *equals* the fresh share is
//! the exact global argmin, a stale one is re-pushed under the fresh key,
//! and one whose flows all fixed en passant is dropped. A round costs
//! `O(log)` heap work instead of a scan over the live channels, so wide
//! solves pay for the bottlenecks they fix rather than for the fabric, and
//! narrow many-round solves (each round fixing a handful of flows) do not go
//! quadratic.
//!
//! Every channel has at most one entry and the keys are unique, so the pop
//! order does not depend on the heap's internal layout: rates are
//! bit-identical to a serial full scan for the argmin, the reference model
//! in `tests/maxmin_reference.rs`.
//!
//! # Warm re-solves
//!
//! A *bottleneck step* is one heap pop that fixes the unfixed flows of the
//! argmin channel at its share, the step's *level*. Every solve leaves in
//! its scratch a record of its steps: the flows it fixed in fixing order,
//! cut into steps, with each step's level. A fluid simulation's next
//! completion round solves the same paths and capacities for a subset of
//! the flows: the ones that finished (the *retired* flows) are gone.
//! [`max_min_rates_warm`] takes the retired flows' traversals out of the
//! per-channel live counts and replays the recorded steps up to the first
//! one that fixed a retired flow, the *divergence point*: each replayed
//! step fixes its flows at its recorded level with the kernel's own
//! `(rem - level).max(0.0)` update, and no heap work. It then seeds the
//! heap with the fresh shares of the channels that still carry unfixed
//! flows and fills the rest as a cold solve does. It keeps the
//! channel→flow membership of the last cold solve and skips retired members
//! instead of rebuilding it. The result is bit-identical to a cold solve of
//! the smaller set:
//!
//! - A step before the divergence point has a bottleneck channel that no
//!   retired flow crosses, or that step would have fixed the retired flow.
//!   Its remaining capacity and unfixed count are therefore the same in both
//!   solves, and so is its share.
//! - Before the divergence point no retired flow has fixed, so every other
//!   channel has the same remaining capacity in both solves and a smaller
//!   or equal unfixed count. Correctly rounded division is monotone, so its
//!   share can only grow, and the step's `(share, channel)` argmin stays the
//!   argmin. Each step keeps its bottleneck, its level, its flow set and its
//!   exact subtractions.
//! - At the divergence point both solves hold the same remaining capacities,
//!   unfixed counts and fixed flows. From there a heap seeded with fresh
//!   shares pops the same unique `(share, channel)` argmin sequence as a
//!   cold solve.
//!
//! The record belongs to one flow set: a warm re-solve needs the same paths
//! and capacities as the recorded solve and an active set that is the
//! recorded one minus `retired`. [`FluidSim`](crate::FluidSim) alone decides
//! warm versus cold, in one crate-private place, and starts cold whenever
//! the record may describe another set: a new flow set, or a solver-mode
//! switch (rounds the incremental solver served leave no record).
//! With `debug_assertions` on, every warm re-solve is re-run cold and the
//! two must agree bit for bit, naming the first diverging flow.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a directed channel (an index into a capacity slice).
///
/// Compact on purpose: a million-node torus carries several million directed
/// channels, and the solver's membership arrays, the routers' path buffers
/// and the fabric adjacency all store these ids densely — `u32` halves their
/// footprint against `usize` and keeps the solver's per-channel passes inside
/// the cache. Fabric constructors reject channel counts beyond `u32::MAX`
/// with a typed error ([`EngineError::IdSpaceExceeded`]), so the narrowing
/// is checked once at construction, never on the hot path.
///
/// [`EngineError::IdSpaceExceeded`]: crate::EngineError::IdSpaceExceeded
pub type ChannelId = u32;

/// `f64` ordered by `total_cmp` so it can live in an ordered key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Share(f64);
impl Eq for Share {}
impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Share {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Reusable buffers for [`max_min_rates_csr`]. One instance amortizes every
/// per-solve allocation (membership CSR, remaining capacities, the heap
/// arena) across an entire simulation, and holds the record of its last
/// solve that [`max_min_rates_warm`] starts from.
#[derive(Debug, Clone, Default)]
pub struct MaxMinScratch {
    remaining_cap: Vec<f64>,
    unfixed_count: Vec<u32>,
    member_offsets: Vec<usize>,
    /// Flow ids, channel-major (flow counts are checked against u32 once per
    /// solve, so members pack twice as densely as a usize arena would).
    /// Built by cold solves only: warm re-solves skip retired members.
    members: Vec<u32>,
    cursor: Vec<usize>,
    /// Lazy-deletion heap: entries key channels by a (possibly stale) lower
    /// bound of their fair share.
    heap: BinaryHeap<Reverse<(Share, ChannelId)>>,
    fixed: Vec<bool>,
    record: FillRecord,
}

impl MaxMinScratch {
    /// Fresh, empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the record of the last solve, so the next
    /// [`max_min_rates_round`] starts cold.
    pub(crate) fn forget(&mut self) {
        self.record.flows = None;
    }
}

/// Marks a flow that no bottleneck step of the recorded solve fixed.
const NO_STEP: u32 = u32::MAX;

/// The bottleneck steps of the last solve through a scratch (see "Warm
/// re-solves" in the module docs): O(flows + channels) `u32`s plus O(steps).
#[derive(Debug, Clone, Default)]
struct FillRecord {
    /// Active flows of the recorded solve; `None` when there is no record.
    flows: Option<usize>,
    /// Flows in fixing order, one run per step.
    order: Vec<u32>,
    /// Where each step's run ends in `order`.
    ends: Vec<usize>,
    /// Each step's level: the share its flows were fixed at.
    levels: Vec<f64>,
    /// The step that fixed each flow (`NO_STEP` if none did).
    step_of: Vec<u32>,
    /// Traversals of each channel by the recorded solve's active flows.
    live: Vec<u32>,
}

/// Max–min fair rates (GB/s) for the active flows, indexed by flow id
/// (entries of other flows are left as they are). Progressive filling:
/// repeatedly find the channel with the smallest fair share, fix its
/// unfixed flows at that share, and subtract their demand everywhere else.
///
/// Paths are given in CSR form: flow `i` traverses
/// `path_data[path_offsets[i]..path_offsets[i + 1]]`.
///
/// Each round's bottleneck is the unique `(share, channel)` minimum, popped
/// from a lazy-deletion heap seeded once per solve. Heap keys are lower
/// bounds on the fresh shares, so the popped argmin is exact and rates are
/// bit-identical to a serial full scan (see the module docs). The solve
/// always starts cold, whatever `scratch` last solved, and leaves its record
/// there for [`max_min_rates_warm`].
///
/// # Panics
/// Panics if the flow count exceeds `u32::MAX` (the membership arena stores
/// flow ids compactly; fabrics already cap channels the same way).
pub fn max_min_rates_csr(
    active: &[usize],
    path_offsets: &[usize],
    path_data: &[ChannelId],
    capacities: &[f64],
    scratch: &mut MaxMinScratch,
    rate: &mut [f64],
) {
    let n_channels = capacities.len();
    let n_flows = path_offsets.len().saturating_sub(1);
    assert!(n_flows <= u32::MAX as usize, "flow ids must fit u32");
    let path = |i: usize| &path_data[path_offsets[i]..path_offsets[i + 1]];
    let MaxMinScratch {
        remaining_cap,
        unfixed_count,
        member_offsets,
        members,
        cursor,
        fixed,
        record,
        ..
    } = scratch;

    remaining_cap.clear();
    remaining_cap.extend_from_slice(capacities);
    unfixed_count.clear();
    unfixed_count.resize(n_channels, 0);
    fixed.clear();
    fixed.resize(n_flows, false);

    for &i in active {
        rate[i] = 0.0;
        for &c in path(i) {
            unfixed_count[c as usize] += 1;
        }
    }

    // Channel -> member flows, CSR-packed in one pass (members appear in
    // active order per channel, matching the historical push order).
    member_offsets.clear();
    member_offsets.reserve(n_channels + 1);
    let mut total = 0usize;
    member_offsets.push(0);
    for &count in unfixed_count.iter() {
        total += count as usize;
        member_offsets.push(total);
    }
    cursor.clear();
    cursor.extend_from_slice(&member_offsets[..n_channels]);
    members.clear();
    members.resize(total, 0);
    for &i in active {
        for &c in path(i) {
            members[cursor[c as usize]] = i as u32;
            cursor[c as usize] += 1;
        }
    }

    record.flows = Some(active.len());
    record.order.clear();
    record.ends.clear();
    record.levels.clear();
    record.step_of.clear();
    record.step_of.resize(n_flows, NO_STEP);
    record.live.clear();
    record.live.extend_from_slice(unfixed_count);
    fill(active, 0, path_offsets, path_data, scratch, rate);
}

/// [`max_min_rates_csr`] for `active` after the flows in `retired` left the
/// set that `scratch` last solved: replays the recorded bottleneck steps up
/// to the first one that fixed a retired flow and fills only from there
/// (see "Warm re-solves" in the module docs). Rates are bit-identical to a
/// cold solve of `active`, and the record is updated for the next call.
///
/// The fluid core reaches this through its round loop, which starts cold
/// whenever the record may belong to another flow set; it is public so the
/// reference suite can drive arbitrary retirement scripts.
///
/// # Contract
/// `path_offsets`, `path_data` and `capacities` are those of the last solve
/// through `scratch`, that solve's active flows are exactly `active` plus
/// `retired`, and no flow is in both.
///
/// # Panics
/// Panics if `scratch` holds no record, or if the flow or channel counts
/// differ from the recorded solve's. With `debug_assertions` on, also if
/// the rates differ from a cold solve's.
pub fn max_min_rates_warm(
    active: &[usize],
    retired: &[usize],
    path_offsets: &[usize],
    path_data: &[ChannelId],
    capacities: &[f64],
    scratch: &mut MaxMinScratch,
    rate: &mut [f64],
) {
    let path = |i: usize| &path_data[path_offsets[i]..path_offsets[i + 1]];
    let MaxMinScratch {
        remaining_cap,
        unfixed_count,
        fixed,
        record,
        ..
    } = scratch;
    let recorded = record
        .flows
        .expect("a warm re-solve starts from the record of a solve");
    assert_eq!(
        active.len() + retired.len(),
        recorded,
        "a warm re-solve's active and retired flows are the recorded solve's"
    );
    assert_eq!(
        capacities.len(),
        record.live.len(),
        "a warm re-solve runs on the recorded solve's channels"
    );

    for &r in retired {
        for &c in path(r) {
            record.live[c as usize] -= 1;
        }
    }
    // Replay every step before the first one that fixed a retired flow.
    let cut = retired
        .iter()
        .map(|&r| record.step_of[r] as usize)
        .fold(record.levels.len(), usize::min);
    let replayed = cut.checked_sub(1).map_or(0, |s| record.ends[s]);
    for &i in &record.order[replayed..] {
        fixed[i as usize] = false;
    }
    for &r in retired {
        fixed[r] = true;
    }
    remaining_cap.clear();
    remaining_cap.extend_from_slice(capacities);
    unfixed_count.clear();
    unfixed_count.extend_from_slice(&record.live);
    let mut start = 0;
    for (&end, &level) in record.ends[..cut].iter().zip(&record.levels) {
        for &i in &record.order[start..end] {
            rate[i as usize] = level;
            for &d in path(i as usize) {
                remaining_cap[d as usize] = (remaining_cap[d as usize] - level).max(0.0);
                unfixed_count[d as usize] -= 1;
            }
        }
        start = end;
    }
    record.flows = Some(active.len());
    record.order.truncate(replayed);
    record.ends.truncate(cut);
    record.levels.truncate(cut);
    fill(active, replayed, path_offsets, path_data, scratch, rate);

    #[cfg(debug_assertions)]
    {
        let mut cold = rate.to_vec();
        let mut cold_scratch = MaxMinScratch::new();
        max_min_rates_csr(
            active,
            path_offsets,
            path_data,
            capacities,
            &mut cold_scratch,
            &mut cold,
        );
        if let Some(&i) = active
            .iter()
            .find(|&&i| rate[i].to_bits() != cold[i].to_bits())
        {
            panic!(
                "warm re-solve diverged from a cold solve at flow {i}: warm {} vs cold {}",
                rate[i], cold[i]
            );
        }
    }
}

/// One completion round's rates for `active`: warm from the record of the
/// previous round when `scratch` holds one (`retired` are the flows that
/// round finished), cold otherwise. The one place the fluid core decides;
/// `FluidSim` [`forget`](MaxMinScratch::forget)s the record whenever it may
/// not describe its current flow set's last round.
pub(crate) fn max_min_rates_round(
    active: &[usize],
    retired: &[usize],
    path_offsets: &[usize],
    path_data: &[ChannelId],
    capacities: &[f64],
    scratch: &mut MaxMinScratch,
    rate: &mut [f64],
) {
    if scratch.record.flows.is_some() {
        max_min_rates_warm(
            active,
            retired,
            path_offsets,
            path_data,
            capacities,
            scratch,
            rate,
        );
    } else {
        max_min_rates_csr(active, path_offsets, path_data, capacities, scratch, rate);
    }
}

/// Progressive filling from the scratch's current state, in which
/// `fixed_count` of the `active` flows are already fixed: seed the heap
/// with the fresh share of every channel carrying an unfixed flow, pop
/// bottlenecks until every flow is fixed, and append each step to the
/// record.
fn fill(
    active: &[usize],
    mut fixed_count: usize,
    path_offsets: &[usize],
    path_data: &[ChannelId],
    scratch: &mut MaxMinScratch,
    rate: &mut [f64],
) {
    let path = |i: usize| &path_data[path_offsets[i]..path_offsets[i + 1]];
    let MaxMinScratch {
        remaining_cap,
        unfixed_count,
        member_offsets,
        members,
        heap,
        fixed,
        record,
        ..
    } = scratch;

    // Seed the heap with the fresh share of every channel carrying an
    // unfixed flow: one O(n) heapify over the reused buffer.
    let mut seed = std::mem::take(heap).into_vec();
    seed.clear();
    seed.extend(
        unfixed_count
            .iter()
            .zip(remaining_cap.iter())
            .enumerate()
            .filter(|(_, (&n, _))| n > 0)
            .map(|(c, (&n, &cap))| Reverse((Share(cap / n as f64), c as ChannelId))),
    );
    *heap = BinaryHeap::from(seed);

    // Keys are lower bounds (shares only grow as flows fix; see the module
    // docs), so a popped entry whose key equals the fresh share is the
    // exact global argmin; otherwise it re-enters under its fresh key.
    while fixed_count < active.len() {
        let Some(Reverse((stale, c))) = heap.pop() else {
            // No constrained channel left; remaining flows are unbounded in
            // this model (cannot happen for non-empty paths).
            for &i in active {
                if !fixed[i] {
                    rate[i] = f64::MAX;
                }
            }
            break;
        };
        if unfixed_count[c as usize] == 0 {
            // Lazily deleted: every flow on `c` fixed en passant.
            continue;
        }
        let current = remaining_cap[c as usize] / unfixed_count[c as usize] as f64;
        if Share(current) != stale {
            heap.push(Reverse((Share(current), c)));
            continue;
        }
        // `c` is the bottleneck: fix its still-unfixed flows at `current`
        // and retire their demand from every channel they traverse.
        let step = record.levels.len() as u32;
        for &i in &members[member_offsets[c as usize]..member_offsets[c as usize + 1]] {
            let i = i as usize;
            if fixed[i] {
                continue;
            }
            fixed[i] = true;
            fixed_count += 1;
            rate[i] = current;
            record.order.push(i as u32);
            record.step_of[i] = step;
            for &d in path(i) {
                remaining_cap[d as usize] = (remaining_cap[d as usize] - current).max(0.0);
                unfixed_count[d as usize] -= 1;
            }
        }
        record.ends.push(record.order.len());
        record.levels.push(current);
    }
}

/// Marks a fabric channel outside a [`LocalChannels`] view.
const UNTOUCHED: ChannelId = ChannelId::MAX;

/// The set-local view of a flow set: the channels its paths touch,
/// renumbered densely in ascending fabric-id order, with their capacities.
/// The ascending order keeps the kernel's `(share, channel)` tie-break and
/// untouched channels never enter a solve, so [`max_min_rates_csr`] over the
/// view is bit-identical to a solve over the fabric while its per-channel
/// passes cost only the set's channels. `FluidSim` and the incremental
/// repair both build their subproblems with it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalChannels {
    /// Fabric channel -> local id; `UNTOUCHED` outside the view.
    local: Vec<ChannelId>,
    /// Local id -> fabric channel (in touch order until numbered).
    global: Vec<ChannelId>,
    /// Local id -> capacity (GB/s).
    pub(crate) capacities: Vec<f64>,
}

impl LocalChannels {
    /// Start an empty view over `n_channels` fabric channels; costs the
    /// previous view's size, not the fabric's.
    pub(crate) fn clear(&mut self, n_channels: usize) {
        for &c in &self.global {
            self.local[c as usize] = UNTOUCHED;
        }
        self.local.resize(n_channels, UNTOUCHED);
        self.global.clear();
        self.capacities.clear();
    }

    /// Add fabric channel `c` to the view and list it for [`number`];
    /// `true` if it was not in the view yet.
    ///
    /// [`number`]: LocalChannels::number
    pub(crate) fn touch(&mut self, c: ChannelId) -> bool {
        let fresh = self.local[c as usize] == UNTOUCHED;
        if fresh {
            self.local[c as usize] = 0;
            self.global.push(c);
        }
        fresh
    }

    /// Number the touched channels `0..` in ascending fabric order, sorting
    /// their list, and gather their `capacities` (indexed by fabric channel).
    pub(crate) fn number(&mut self, capacities: &[f64]) {
        self.global.sort_unstable();
        self.gather(capacities);
    }

    /// [`number`](LocalChannels::number) by one scan of the fabric instead
    /// of a sort, for callers that make a fabric-wide pass anyway: the view
    /// becomes the touched channels plus those `keep` selects (`keep` sees
    /// every channel, in ascending order).
    pub(crate) fn number_by_scan(
        &mut self,
        capacities: &[f64],
        mut keep: impl FnMut(usize) -> bool,
    ) {
        let local = &self.local;
        self.global.clear();
        self.global.extend(
            (0..local.len())
                .filter(|&c| keep(c) || local[c] != UNTOUCHED)
                .map(|c| c as ChannelId),
        );
        self.gather(capacities);
    }

    /// Give the listed channels their local ids and capacities.
    fn gather(&mut self, capacities: &[f64]) {
        self.capacities.clear();
        for (id, &c) in self.global.iter().enumerate() {
            self.local[c as usize] = id as ChannelId;
            self.capacities.push(capacities[c as usize]);
        }
    }

    /// Append `path` (channels in the view) to `data` in local ids.
    pub(crate) fn push_path(&self, path: &[ChannelId], data: &mut Vec<ChannelId>) {
        data.extend(path.iter().map(|&c| self.local[c as usize]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot solve over per-flow path vectors.
    fn max_min_rates(
        active: &[usize],
        paths: &[Vec<ChannelId>],
        capacities: &[f64],
        n_channels: usize,
        rate: &mut [f64],
    ) {
        assert_eq!(n_channels, capacities.len(), "capacity per channel");
        let mut offsets = vec![0usize];
        let mut data = Vec::new();
        for p in paths {
            data.extend_from_slice(p);
            offsets.push(data.len());
        }
        let mut scratch = MaxMinScratch::new();
        max_min_rates_csr(active, &offsets, &data, capacities, &mut scratch, rate);
    }

    #[test]
    fn single_flow_gets_the_full_bottleneck_capacity() {
        let paths = vec![vec![0, 1]];
        let caps = vec![2.0, 4.0];
        let mut rates = vec![0.0];
        max_min_rates(&[0], &paths, &caps, 2, &mut rates);
        assert!((rates[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_channel_splits_evenly_and_leftovers_go_to_the_unconstrained() {
        // Flows 0 and 1 share channel 0 (cap 2); flow 2 rides channel 1
        // (cap 4) alone alongside flow 1.
        let paths = vec![vec![0], vec![0, 1], vec![1]];
        let caps = vec![2.0, 4.0];
        let mut rates = vec![0.0; 3];
        max_min_rates(&[0, 1, 2], &paths, &caps, 2, &mut rates);
        assert!((rates[0] - 1.0).abs() < 1e-12);
        assert!((rates[1] - 1.0).abs() < 1e-12);
        assert!((rates[2] - 3.0).abs() < 1e-12, "rate {}", rates[2]);
    }

    #[test]
    fn no_channel_is_oversubscribed() {
        let paths = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![1]];
        let caps = vec![1.0, 2.0, 1.5];
        let active = [0, 1, 2, 3];
        let mut rates = vec![0.0; 4];
        max_min_rates(&active, &paths, &caps, 3, &mut rates);
        let mut usage = [0.0; 3];
        for &i in &active {
            assert!(rates[i] > 0.0);
            for &c in &paths[i] {
                usage[c as usize] += rates[i];
            }
        }
        for (u, cap) in usage.iter().zip(&caps) {
            assert!(u <= &(cap + 1e-9), "usage {u} exceeds capacity {cap}");
        }
    }

    #[test]
    fn empty_flow_set_is_a_no_op() {
        // No active flows: the solver must terminate immediately and leave
        // the (inactive) rate slots untouched.
        let paths: Vec<Vec<ChannelId>> = vec![vec![0], vec![1]];
        let caps = vec![2.0, 4.0];
        let mut rates = vec![-1.0; 2];
        max_min_rates(&[], &paths, &caps, 2, &mut rates);
        assert_eq!(rates, vec![-1.0, -1.0], "inactive slots stay untouched");
    }

    #[test]
    fn zero_capacity_channel_pins_its_flows_to_zero() {
        // Flow 0 crosses the dead channel and gets rate 0; flow 1 avoids it
        // and still receives its full bottleneck share.
        let paths = vec![vec![0, 1], vec![1]];
        let caps = vec![0.0, 4.0];
        let mut rates = vec![0.0; 2];
        max_min_rates(&[0, 1], &paths, &caps, 2, &mut rates);
        assert_eq!(rates[0], 0.0, "dead channel forces rate 0");
        assert!((rates[1] - 4.0).abs() < 1e-12, "rate {}", rates[1]);
    }

    #[test]
    fn duplicate_flows_on_one_path_split_the_bottleneck_evenly() {
        // Three flows with byte-identical paths: each must get exactly a
        // third of the narrower channel, and the split must be exact for a
        // capacity that divides cleanly.
        let paths = vec![vec![0, 1], vec![0, 1], vec![0, 1]];
        let caps = vec![3.0, 9.0];
        let mut rates = vec![0.0; 3];
        max_min_rates(&[0, 1, 2], &paths, &caps, 2, &mut rates);
        assert_eq!(rates, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn a_path_revisiting_a_channel_counts_once_per_traversal() {
        // Flow 0 crosses channel 0 twice (a routing loop), so its demand on
        // that channel is doubled: capacity 2 sustains only rate 1. Flow 1
        // crosses once and picks up the remaining capacity.
        let paths = vec![vec![0, 1, 0], vec![0]];
        let caps = vec![3.0, 10.0];
        let mut rates = vec![0.0; 2];
        max_min_rates(&[0, 1], &paths, &caps, 2, &mut rates);
        // Channel 0 has 3 traversals (2 from flow 0, 1 from flow 1): fair
        // share 1.0 per traversal fixes both flows at 1.0, and usage is
        // 2·1 + 1 = 3 = capacity.
        assert!((rates[0] - 1.0).abs() < 1e-12, "rate {}", rates[0]);
        assert!((rates[1] - 1.0).abs() < 1e-12, "rate {}", rates[1]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_solves() {
        // Drive the same solver twice through one scratch and compare with
        // fresh-scratch runs: buffer reuse must not leak state.
        let paths = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![1], vec![]];
        let caps = vec![1.0, 2.0, 1.5];
        let mut offsets = vec![0usize];
        let mut data = Vec::new();
        for p in &paths {
            data.extend_from_slice(p);
            offsets.push(data.len());
        }
        let mut shared = MaxMinScratch::new();
        for active in [vec![0usize, 1, 2, 3], vec![1, 3], vec![0, 2]] {
            let mut reused = vec![0.0; paths.len()];
            max_min_rates_csr(&active, &offsets, &data, &caps, &mut shared, &mut reused);
            let mut fresh = vec![0.0; paths.len()];
            max_min_rates(&active, &paths, &caps, caps.len(), &mut fresh);
            assert_eq!(reused, fresh, "active set {active:?}");
        }
    }

    #[test]
    fn wide_disjoint_solves_stay_exact() {
        // 8,192 channels, all live when the solve starts. Disjoint flow
        // pairs over exact-dividing capacities make the expected rates
        // exact, so this doubles as an order-preservation check: any wrong
        // argmin would mis-order the subtraction chain.
        let n = 8192;
        let mut offsets = vec![0usize];
        let mut data: Vec<ChannelId> = Vec::new();
        let mut caps = vec![0.0f64; n];
        let mut active = Vec::new();
        // Flow i crosses channels (2i, 2i + 1); the even channel is the
        // bottleneck with capacity 1 + (i mod 7).
        for i in 0..n / 2 {
            data.push(2 * i as ChannelId);
            data.push(2 * i as ChannelId + 1);
            offsets.push(data.len());
            caps[2 * i] = 1.0 + (i % 7) as f64;
            caps[2 * i + 1] = 64.0;
            active.push(i);
        }
        let mut scratch = MaxMinScratch::new();
        let mut rates = vec![0.0; n / 2];
        max_min_rates_csr(&active, &offsets, &data, &caps, &mut scratch, &mut rates);
        for (i, r) in rates.iter().enumerate() {
            assert_eq!(*r, 1.0 + (i % 7) as f64, "flow {i}");
        }
    }

    #[test]
    fn many_round_solves_take_the_heap_engine_and_stay_exact() {
        // A strict capacity ladder over chained pairs: flow i crosses
        // channels i and i + 1, with caps[i] = 2^min(i, 50). Channel i + 1
        // becomes the bottleneck only after flow i fixes, so every round
        // retires exactly one flow — the narrow many-round shape that the
        // heap engine exists for, hitting its stale-entry re-push path on
        // every round. The expected rates are exact (integer-valued).
        let n = 512;
        let mut paths = Vec::with_capacity(n);
        let mut caps = vec![0.0f64; n + 1];
        for i in 0..n {
            paths.push(vec![i as ChannelId, (i + 1) as ChannelId]);
        }
        for (i, cap) in caps.iter_mut().enumerate() {
            *cap = (1u64 << i.min(50)) as f64;
        }
        let active: Vec<usize> = (0..n).collect();
        let mut rates = vec![0.0; n];
        max_min_rates(&active, &paths, &caps, n + 1, &mut rates);
        // Flow 0 is capped by channel 0 (cap 1, sole traversal): rate 1.
        // Once flow i fixes, channel i + 1 (cap 2^(i+1)) carries only flow
        // i + 1 with 2^(i+1) - rate_i left — strictly below every wider
        // channel's share — so rate_{i+1} = 2^(i+1) - rate_i along the
        // pre-plateau prefix.
        assert_eq!(rates[0], 1.0);
        for i in 1..50 {
            assert_eq!(
                rates[i],
                (1u64 << i) as f64 - rates[i - 1],
                "flow {i} off the ladder"
            );
        }
    }
}
