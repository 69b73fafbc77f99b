//! Incremental max–min fair rates: re-solve proportional to the change.
//!
//! [`max_min_rates_csr`] solves a flow set from scratch, even when
//! consecutive solves differ by a handful of flows, as when a completion
//! round retires a few. [`IncrementalMaxMin`] keeps the current flow set,
//! the per-channel membership index and the converged rate assignment alive
//! between solves, and repairs only the part of the solution a delta can
//! actually change. Its production caller is
//! [`FluidSim`](crate::FluidSim) under [`SolverMode::Incremental`], where
//! each completion round is a pure remove-delta; the parity suites also
//! drive it with arbitrary insert/remove scripts.
//!
//! # Why the repair is bit-identical to a batch solve
//!
//! Progressive filling factors over the connected components of the
//! flow–channel interaction graph (two flows interact when they share a
//! channel, directly or transitively): fixing a bottleneck channel only
//! reads and writes state of its own component, and the bottleneck order
//! between channels of different components never influences either
//! component's arithmetic. So after a delta, the rates of every component
//! that is not
//! reachable from a touched channel are *exactly* the rates a fresh batch
//! solve would produce — not approximately, bit for bit.
//!
//! The repair therefore (a) seeds a worklist with the channels touched by
//! the inserted/removed flows, (b) walks the interaction graph to collect
//! the affected components, and (c) re-runs **the batch kernel itself**
//! ([`max_min_rates_csr`]) on the affected subproblem, with channels
//! remapped to a dense range in ascending id order (which preserves the
//! kernel's share-then-channel tie-break) and flows presented in ascending id
//! order (which preserves the per-channel member order). Because the same
//! code runs on an equivalent subproblem, there is no second floating-point
//! path to diverge — the incremental result is the batch result by
//! construction, and the property suite in `tests/incremental_parity.rs`
//! plus the [shadow solve](#the-shadow-solver) pin it.
//!
//! When a delta touches most of the graph the walk is pure overhead, so a
//! repair whose affected flow count exceeds
//! [`full_solve_fraction`](IncrementalMaxMin::set_full_solve_fraction) of
//! the present flows abandons the walk and batch-solves everything — same
//! answer, no bookkeeping.
//!
//! # The shadow solver
//!
//! With `debug_assertions` enabled, every repair is immediately replayed
//! against a fresh batch solve of the full flow set and the two rate vectors
//! are compared bit for bit — a divergence aborts at the *first* bad delta
//! with the offending flow id, instead of surfacing as a mysteriously wrong
//! makespan thousands of events later. Release builds compile the check
//! out, so the hot path stays proportional to the change.

use crate::maxmin::{max_min_rates_csr, ChannelId, LocalChannels, MaxMinScratch};
use netpart_telemetry::{Telemetry, TelemetryEvent};

/// Which solver a rate-recomputing simulation should run.
///
/// Every call site that adopts the incremental solver keeps a way to request
/// the batch solver (the reference implementation): benchmarks time one mode
/// against the other, and the parity suites assert the two agree bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Re-solve the full flow set from scratch on every recomputation (the
    /// reference behaviour).
    #[default]
    Batch,
    /// Keep an [`IncrementalMaxMin`] alive and repair only the components
    /// affected by each delta.
    Incremental,
}

impl SolverMode {
    /// Stable label (`batch` / `incremental`), also accepted by
    /// [`from_label`](SolverMode::from_label).
    pub fn label(&self) -> &'static str {
        match self {
            SolverMode::Batch => "batch",
            SolverMode::Incremental => "incremental",
        }
    }

    /// Parse a [`label`](SolverMode::label); `None` for anything else.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "batch" => Some(SolverMode::Batch),
            "incremental" => Some(SolverMode::Incremental),
            _ => None,
        }
    }
}

/// One flow's slot in the path arena.
#[derive(Debug, Clone, Copy, Default)]
struct FlowSlot {
    start: usize,
    len: usize,
    present: bool,
}

/// Incremental max–min solver state: the current flow set, the per-channel
/// membership index, and the converged rates (see the [module
/// docs](self) for the repair algorithm and the bit-identity argument).
///
/// Flow ids are caller-chosen dense indices (a simulation's flow numbers);
/// internal buffers grow to the largest id seen. Paths may revisit channels
/// (counted with multiplicity, exactly as the batch solver counts them) and
/// may be empty (the flow is unconstrained: its rate is `f64::MAX`, matching
/// the batch solver's convention for active flows no channel limits).
#[derive(Debug, Clone)]
pub struct IncrementalMaxMin {
    capacities: Vec<f64>,
    /// Append-only path storage; compacted when garbage outgrows live data.
    arena: Vec<ChannelId>,
    live_len: usize,
    flows: Vec<FlowSlot>,
    present_count: usize,
    /// Converged rates by flow id; only entries of present flows are
    /// meaningful.
    rates: Vec<f64>,
    /// Channel -> present flows crossing it (with multiplicity for path
    /// revisits; unordered — ordering is re-derived at solve time).
    members: Vec<Vec<usize>>,
    /// Channels touched since the last solve, deduplicated via `chan_dirty`.
    dirty: Vec<ChannelId>,
    chan_dirty: Vec<bool>,
    /// Abandon the component walk and batch-solve everything once the
    /// affected flows exceed this fraction of the present flows.
    full_solve_fraction: f64,
    // Reusable repair buffers.
    flow_seen: Vec<bool>,
    chan_stack: Vec<ChannelId>,
    affected_flows: Vec<usize>,
    /// The walk's visited channels, then the repair's set-local view.
    affected_channels: LocalChannels,
    csr_offsets: Vec<usize>,
    csr_data: Vec<ChannelId>,
    active_buf: Vec<usize>,
    rate_buf: Vec<f64>,
    scratch: MaxMinScratch,
    // Counters for benchmarks and tests.
    repairs: usize,
    full_solves: usize,
    last_affected: usize,
    /// Observability sink; the default disabled handle costs one branch per
    /// repair.
    telemetry: Telemetry,
}

/// Default [`full_solve_fraction`](IncrementalMaxMin::set_full_solve_fraction):
/// walk components only while they cover at most this fraction of the
/// present flows.
pub const DEFAULT_FULL_SOLVE_FRACTION: f64 = 0.75;

impl IncrementalMaxMin {
    /// Empty solver state over the given channel capacities (GB/s).
    pub fn new(capacities: &[f64]) -> Self {
        let mut state = Self {
            capacities: Vec::new(),
            arena: Vec::new(),
            live_len: 0,
            flows: Vec::new(),
            present_count: 0,
            rates: Vec::new(),
            members: Vec::new(),
            dirty: Vec::new(),
            chan_dirty: Vec::new(),
            full_solve_fraction: DEFAULT_FULL_SOLVE_FRACTION,
            flow_seen: Vec::new(),
            chan_stack: Vec::new(),
            affected_flows: Vec::new(),
            affected_channels: LocalChannels::default(),
            csr_offsets: Vec::new(),
            csr_data: Vec::new(),
            active_buf: Vec::new(),
            rate_buf: Vec::new(),
            scratch: MaxMinScratch::new(),
            repairs: 0,
            full_solves: 0,
            last_affected: 0,
            telemetry: Telemetry::disabled(),
        };
        state.reset(capacities);
        state
    }

    /// Drop every flow and re-arm over new capacities, keeping the allocated
    /// buffers (the incremental counterpart of
    /// [`FluidSim::reset_csr`](crate::FluidSim::reset_csr)).
    pub fn reset(&mut self, capacities: &[f64]) {
        self.capacities.clear();
        self.capacities.extend_from_slice(capacities);
        self.arena.clear();
        self.live_len = 0;
        self.flows.clear();
        self.present_count = 0;
        self.rates.clear();
        for m in &mut self.members {
            m.clear();
        }
        self.members.resize(capacities.len(), Vec::new());
        self.members.truncate(capacities.len());
        self.dirty.clear();
        self.chan_dirty.clear();
        self.chan_dirty.resize(capacities.len(), false);
        self.flow_seen.clear();
        self.affected_channels.clear(capacities.len());
    }

    /// Tune the full-solve fallback: a repair whose affected flows exceed
    /// `fraction` of the present flows batch-solves everything instead of
    /// finishing the component walk. `0.0` forces every solve down the batch
    /// path; `1.0` never falls back. The fallback changes *when* the batch
    /// path runs, never the rates.
    pub fn set_full_solve_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1], got {fraction}"
        );
        self.full_solve_fraction = fraction;
    }

    /// Route [`TelemetryEvent::SolverRepair`] events (one per dirty solve,
    /// stating whether the repair stayed incremental and what fraction of
    /// the present flows it re-solved) through `telemetry`. Survives
    /// [`reset`](Self::reset); cloning the solver shares the sink.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of flows currently present.
    pub fn present_flows(&self) -> usize {
        self.present_count
    }

    /// The channel capacities (GB/s) the solver was armed with.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Component repairs performed (dirty solves that stayed incremental).
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Full batch solves performed (initial solves and threshold fallbacks).
    pub fn full_solves(&self) -> usize {
        self.full_solves
    }

    /// Flows re-solved by the most recent repair.
    pub fn last_affected(&self) -> usize {
        self.last_affected
    }

    /// Insert a flow with the given channel path.
    ///
    /// # Panics
    /// Panics if `id` is already present or a channel is out of range.
    pub fn insert_flow(&mut self, id: usize, path: &[ChannelId]) {
        if id >= self.flows.len() {
            self.flows.resize(id + 1, FlowSlot::default());
            self.rates.resize(id + 1, 0.0);
            self.flow_seen.resize(id + 1, false);
        }
        assert!(!self.flows[id].present, "flow {id} inserted twice");
        let start = self.arena.len();
        for &c in path {
            assert!(
                (c as usize) < self.capacities.len(),
                "channel {c} out of range 0..{}",
                self.capacities.len()
            );
            self.arena.push(c);
            self.members[c as usize].push(id);
            self.mark_dirty(c);
        }
        self.flows[id] = FlowSlot {
            start,
            len: path.len(),
            present: true,
        };
        self.live_len += path.len();
        self.present_count += 1;
        if path.is_empty() {
            // No channel constrains the flow: the batch solver's unbounded
            // convention, applied eagerly (no channel will ever repair it).
            self.rates[id] = f64::MAX;
        }
    }

    /// Remove a present flow.
    ///
    /// # Panics
    /// Panics if `id` is not present.
    pub fn remove_flow(&mut self, id: usize) {
        assert!(
            self.flows.get(id).is_some_and(|f| f.present),
            "flow {id} is not present"
        );
        let slot = self.flows[id];
        self.flows[id].present = false;
        self.present_count -= 1;
        self.live_len -= slot.len;
        for idx in slot.start..slot.start + slot.len {
            let c = self.arena[idx];
            // One membership entry per path occurrence: remove exactly one.
            let pos = self.members[c as usize]
                .iter()
                .position(|&f| f == id)
                .expect("membership mirrors the arena");
            self.members[c as usize].swap_remove(pos);
            self.mark_dirty(c);
        }
        if self.live_len * 2 < self.arena.len() && self.arena.len() > 1024 {
            self.compact_arena();
        }
    }

    /// Remove a batch of present flows (one repair covers the whole delta).
    pub fn remove_flows(&mut self, ids: &[usize]) {
        for &id in ids {
            self.remove_flow(id);
        }
    }

    /// Repair the rate assignment if any delta is pending and return the
    /// rates, indexed by flow id (entries of absent flows are stale and
    /// meaningless). The returned rates are bit-identical to a fresh batch
    /// solve over the present flows in ascending id order.
    pub fn solve(&mut self) -> &[f64] {
        if !self.dirty.is_empty() {
            self.repair();
            #[cfg(debug_assertions)]
            self.shadow_check();
        }
        &self.rates
    }

    /// Converged rate of one present flow (call [`solve`](Self::solve)
    /// first; a dirty read is a logic error).
    ///
    /// # Panics
    /// Panics if a delta is pending or the flow is absent.
    pub fn rate(&self, id: usize) -> f64 {
        assert!(self.dirty.is_empty(), "rate read with a pending delta");
        assert!(
            self.flows.get(id).is_some_and(|f| f.present),
            "flow {id} is not present"
        );
        self.rates[id]
    }

    /// A fresh batch solve over the present flows (ascending id order),
    /// independent of the incremental state: the reference the shadow check
    /// and the parity tests compare against.
    pub fn batch_rates(&self) -> Vec<f64> {
        let mut offsets = Vec::with_capacity(self.present_count + 1);
        let mut data = Vec::with_capacity(self.live_len);
        let mut active = Vec::with_capacity(self.present_count);
        offsets.push(0);
        for (id, slot) in self.flows.iter().enumerate() {
            if !slot.present {
                continue;
            }
            data.extend_from_slice(&self.arena[slot.start..slot.start + slot.len]);
            offsets.push(data.len());
            active.push(id);
        }
        // Rows are compacted, so re-point the active list at row indices and
        // scatter the row rates back to flow ids afterwards.
        let rows: Vec<usize> = (0..active.len()).collect();
        let mut row_rates = vec![0.0; active.len()];
        let mut scratch = MaxMinScratch::new();
        max_min_rates_csr(
            &rows,
            &offsets,
            &data,
            &self.capacities,
            &mut scratch,
            &mut row_rates,
        );
        let mut rates = vec![0.0; self.flows.len()];
        for (&id, &r) in active.iter().zip(&row_rates) {
            rates[id] = r;
        }
        rates
    }

    fn mark_dirty(&mut self, c: ChannelId) {
        if !self.chan_dirty[c as usize] {
            self.chan_dirty[c as usize] = true;
            self.dirty.push(c);
        }
    }

    /// Rewrite the arena with only the present flows' paths.
    fn compact_arena(&mut self) {
        let mut fresh = Vec::with_capacity(self.live_len);
        for slot in self.flows.iter_mut().filter(|s| s.present) {
            let start = fresh.len();
            fresh.extend_from_slice(&self.arena[slot.start..slot.start + slot.len]);
            slot.start = start;
        }
        self.arena = fresh;
    }

    /// Walk the flow–channel interaction graph from the dirty channels,
    /// collecting affected flows and channels into the reusable buffers.
    /// Returns `false` (with the buffers in a cleanable state) when the
    /// affected flow count crosses the full-solve threshold.
    fn collect_affected(&mut self) -> bool {
        let budget = (self.full_solve_fraction * self.present_count as f64).floor() as usize;
        self.affected_flows.clear();
        self.affected_channels.clear(self.capacities.len());
        self.chan_stack.clear();
        for i in 0..self.dirty.len() {
            let c = self.dirty[i];
            if self.affected_channels.touch(c) {
                self.chan_stack.push(c);
            }
        }
        while let Some(c) = self.chan_stack.pop() {
            for i in 0..self.members[c as usize].len() {
                let id = self.members[c as usize][i];
                if self.flow_seen[id] {
                    continue;
                }
                self.flow_seen[id] = true;
                self.affected_flows.push(id);
                if self.affected_flows.len() > budget {
                    return false;
                }
                let slot = self.flows[id];
                for idx in slot.start..slot.start + slot.len {
                    let d = self.arena[idx];
                    if self.affected_channels.touch(d) {
                        self.chan_stack.push(d);
                    }
                }
            }
        }
        true
    }

    /// Reset the flow markers touched by [`collect_affected`].
    fn clear_walk_markers(&mut self) {
        for &id in &self.affected_flows {
            self.flow_seen[id] = false;
        }
    }

    fn clear_dirty(&mut self) {
        for i in 0..self.dirty.len() {
            let c = self.dirty[i];
            self.chan_dirty[c as usize] = false;
        }
        self.dirty.clear();
    }

    fn repair(&mut self) {
        let dirty_channels = self.dirty.len() as u64;
        let fell_back;
        // The guards own handle clones, so spanning does not hold a borrow
        // across the `&mut self` solve calls.
        let walk_span = self.telemetry.span("dirty_walk");
        let walk_contained = self.collect_affected();
        drop(walk_span);
        if walk_contained {
            let _span = self.telemetry.span("component_solve");
            self.affected_channels.number(&self.capacities);
            self.repair_affected();
            self.repairs += 1;
            self.last_affected = self.affected_flows.len();
            fell_back = false;
        } else {
            let _span = self.telemetry.span("fallback_solve");
            self.clear_walk_markers();
            self.solve_everything();
            self.full_solves += 1;
            self.last_affected = self.present_count;
            fell_back = true;
        }
        if self.telemetry.is_enabled() {
            let flows = self.present_count as u64;
            self.telemetry.emit(TelemetryEvent::SolverRepair {
                flows,
                dirty_channels,
                affected_fraction: if flows == 0 {
                    0.0
                } else {
                    self.last_affected as f64 / flows as f64
                },
                fell_back,
            });
        }
        self.clear_dirty();
    }

    /// Batch-solve the affected subproblem through the batch kernel, over
    /// the affected channels' (numbered) set-local view and with flows in
    /// ascending id order (both order-preserving, so the kernel's
    /// bottleneck tie-breaks and member iteration run exactly as they would
    /// inside a full batch solve — see the module docs).
    fn repair_affected(&mut self) {
        self.affected_flows.sort_unstable();
        self.csr_offsets.clear();
        self.csr_data.clear();
        self.csr_offsets.push(0);
        for &id in &self.affected_flows {
            let slot = self.flows[id];
            self.affected_channels.push_path(
                &self.arena[slot.start..slot.start + slot.len],
                &mut self.csr_data,
            );
            self.csr_offsets.push(self.csr_data.len());
        }
        let k = self.affected_flows.len();
        self.active_buf.clear();
        self.active_buf.extend(0..k);
        self.rate_buf.clear();
        self.rate_buf.resize(k, 0.0);
        max_min_rates_csr(
            &self.active_buf,
            &self.csr_offsets,
            &self.csr_data,
            &self.affected_channels.capacities,
            &mut self.scratch,
            &mut self.rate_buf,
        );
        for row in 0..k {
            self.rates[self.affected_flows[row]] = self.rate_buf[row];
        }
        self.clear_walk_markers();
    }

    /// The fallback path: batch-solve every present flow, numbering their
    /// channels by one scan instead of a sort.
    fn solve_everything(&mut self) {
        self.affected_flows.clear();
        self.affected_channels.clear(self.capacities.len());
        for (id, slot) in self.flows.iter().enumerate().filter(|(_, s)| s.present) {
            self.affected_flows.push(id);
            for &c in &self.arena[slot.start..slot.start + slot.len] {
                self.affected_channels.touch(c);
            }
        }
        self.affected_channels
            .number_by_scan(&self.capacities, |_| false);
        self.repair_affected();
    }

    /// Debug-only shadow solve: replay the full flow set through the batch
    /// solver and demand bit-identical rates, so a bad delta aborts at the
    /// delta that introduced it.
    #[cfg(debug_assertions)]
    fn shadow_check(&self) {
        let shadow = self.batch_rates();
        for (id, slot) in self.flows.iter().enumerate() {
            if !slot.present {
                continue;
            }
            assert!(
                self.rates[id].to_bits() == shadow[id].to_bits(),
                "incremental solver diverged from the batch solver at flow {id}: \
                 incremental {} vs batch {}",
                self.rates[id],
                shadow[id],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one delta script and assert batch parity after every solve.
    fn check_script(capacities: &[f64], script: &[(&str, usize, Vec<ChannelId>)]) {
        let mut inc = IncrementalMaxMin::new(capacities);
        for (op, id, path) in script {
            match *op {
                "insert" => inc.insert_flow(*id, path),
                "remove" => inc.remove_flow(*id),
                _ => unreachable!(),
            }
            let got = inc.solve().to_vec();
            let want = inc.batch_rates();
            for (id, slot) in inc.flows.iter().enumerate() {
                if slot.present {
                    assert_eq!(got[id].to_bits(), want[id].to_bits(), "flow {id}");
                }
            }
        }
    }

    #[test]
    fn inserts_and_removes_track_the_batch_solver() {
        check_script(
            &[2.0, 3.0, 1.0, 4.0],
            &[
                ("insert", 0, vec![0, 1]),
                ("insert", 1, vec![1, 2]),
                ("insert", 2, vec![3]),
                ("insert", 3, vec![0, 2]),
                ("remove", 1, vec![]),
                ("insert", 4, vec![2, 3]),
                ("remove", 0, vec![]),
                ("remove", 2, vec![]),
                ("insert", 1, vec![1]),
            ],
        );
    }

    #[test]
    fn disjoint_components_are_not_re_solved() {
        // Two independent components; a delta in one must not touch the
        // other's flows.
        let mut inc = IncrementalMaxMin::new(&[1.0, 1.0, 1.0, 1.0]);
        inc.insert_flow(0, &[0, 1]);
        inc.insert_flow(1, &[1]);
        inc.insert_flow(2, &[2, 3]);
        inc.insert_flow(3, &[3]);
        inc.solve();
        let solves_before = inc.repairs() + inc.full_solves();
        inc.remove_flow(1);
        inc.solve();
        assert_eq!(inc.repairs() + inc.full_solves(), solves_before + 1);
        assert!(
            inc.last_affected() <= 1,
            "only flow 0 shares channels with the removed flow, got {}",
            inc.last_affected()
        );
        assert_eq!(inc.rate(0).to_bits(), inc.batch_rates()[0].to_bits());
    }

    #[test]
    fn empty_paths_are_unbounded_like_the_batch_solver() {
        let mut inc = IncrementalMaxMin::new(&[2.0]);
        inc.insert_flow(0, &[]);
        inc.insert_flow(1, &[0]);
        let rates = inc.solve();
        assert_eq!(rates[0], f64::MAX);
        assert_eq!(rates[1], 2.0);
    }

    #[test]
    fn zero_threshold_forces_the_full_solve_path() {
        let mut inc = IncrementalMaxMin::new(&[2.0, 3.0]);
        inc.set_full_solve_fraction(0.0);
        inc.insert_flow(0, &[0, 1]);
        inc.insert_flow(1, &[1]);
        inc.solve();
        inc.remove_flow(1);
        let rates = inc.solve().to_vec();
        assert_eq!(inc.repairs(), 0, "threshold 0 must always fall back");
        assert!(inc.full_solves() >= 2);
        assert_eq!(rates[0].to_bits(), inc.batch_rates()[0].to_bits());
    }

    #[test]
    fn revisiting_paths_keep_multiplicity_through_deltas() {
        // Flow 0 crosses channel 0 twice; parity must hold through its
        // removal as well (both membership entries must go).
        check_script(
            &[2.0, 2.0],
            &[
                ("insert", 0, vec![0, 1, 0]),
                ("insert", 1, vec![0]),
                ("remove", 0, vec![]),
                ("insert", 0, vec![0, 0]),
            ],
        );
    }

    #[test]
    fn reset_reuses_buffers_cleanly() {
        let mut inc = IncrementalMaxMin::new(&[1.0, 1.0]);
        inc.insert_flow(0, &[0]);
        inc.insert_flow(1, &[0, 1]);
        inc.solve();
        inc.reset(&[4.0]);
        assert_eq!(inc.present_flows(), 0);
        inc.insert_flow(0, &[0]);
        assert_eq!(inc.solve()[0], 4.0);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut inc = IncrementalMaxMin::new(&[1.0]);
        inc.insert_flow(0, &[0]);
        inc.insert_flow(0, &[0]);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_an_absent_flow_panics() {
        let mut inc = IncrementalMaxMin::new(&[1.0]);
        inc.remove_flow(3);
    }

    #[test]
    fn solver_mode_labels_round_trip() {
        for mode in [SolverMode::Batch, SolverMode::Incremental] {
            assert_eq!(SolverMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(SolverMode::from_label("turbo"), None);
        assert_eq!(SolverMode::default(), SolverMode::Batch);
    }
}
