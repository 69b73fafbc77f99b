//! The fluid (flow-level) simulation core.
//!
//! [`FluidSim`] advances a set of fluid flows over capacitated channels from
//! one completion round to the next, recomputing max–min fair rates in
//! between. It is deliberately driver agnostic: [`FluidSim::run_to_completion`]
//! runs it in a plain loop, and this crate's [`flowsim`](crate::flowsim)
//! scenario drives the *same* state machine through the event queue — so
//! the two produce bit-identical results on identical inputs.

use crate::incremental::{IncrementalMaxMin, SolverMode};
use crate::maxmin::{max_min_rates_csr, ChannelId, MaxMinScratch};
use netpart_telemetry::{Telemetry, TelemetryEvent};

/// Result of running a [`FluidSim`] to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidOutcome {
    /// Time at which the last flow finished (seconds).
    pub makespan: f64,
    /// Per-flow completion times (seconds), in input order.
    pub completion: Vec<f64>,
    /// Total bytes (GB) carried by each channel.
    pub channel_load_gb: Vec<f64>,
    /// The lower bound `max_channel load / bandwidth` (seconds): the best any
    /// schedule could do given the routes.
    pub bottleneck_lower_bound: f64,
    /// Number of rate recomputation rounds the simulation needed.
    pub rounds: usize,
}

impl FluidOutcome {
    /// Mean flow completion time (seconds); 0 for an empty flow set.
    pub fn mean_completion(&self) -> f64 {
        if self.completion.is_empty() {
            0.0
        } else {
            self.completion.iter().sum::<f64>() / self.completion.len() as f64
        }
    }

    /// The most heavily loaded channel's utilization over the makespan
    /// (1.0 = busy the whole time), given per-channel capacities (GB/s).
    pub fn peak_utilization(&self, capacities: &[f64]) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.channel_load_gb
            .iter()
            .zip(capacities)
            .map(|(gb, cap)| gb / cap / self.makespan)
            .fold(0.0, f64::max)
    }
}

/// A resumable fluid simulation over routed flows.
///
/// Construct it with per-flow channel paths, per-channel capacities (GB/s)
/// and per-flow volumes (GB); then either run it with
/// [`run_to_completion`](FluidSim::run_to_completion) or step one completion
/// round at a time with [`advance_round`](FluidSim::advance_round).
#[derive(Debug, Clone)]
pub struct FluidSim {
    /// Per-flow channel paths, CSR-packed: flow `i` traverses
    /// `path_data[path_offsets[i]..path_offsets[i + 1]]`.
    path_offsets: Vec<usize>,
    path_data: Vec<ChannelId>,
    capacities: Vec<f64>,
    sizes: Vec<f64>,
    remaining: Vec<f64>,
    completion: Vec<f64>,
    active: Vec<usize>,
    rates: Vec<f64>,
    time: f64,
    rounds: usize,
    channel_load_gb: Vec<f64>,
    bottleneck_lower_bound: f64,
    /// Solver buffers, reused across completion rounds.
    scratch: MaxMinScratch,
    solver_mode: SolverMode,
    /// Live only in [`SolverMode::Incremental`]: each completion round is a
    /// pure remove-delta, so rates repair in time proportional to the
    /// affected component instead of the whole flow set.
    incremental: Option<IncrementalMaxMin>,
    /// Flow ids retired in the current round (reused per round).
    retired_buf: Vec<usize>,
    /// Observability sink; disabled by default (one branch per round).
    telemetry: Telemetry,
}

impl FluidSim {
    /// Set up a simulation. Flows with a zero-length path (source ==
    /// destination) complete at time 0.
    ///
    /// # Panics
    /// Panics on negative flow volumes, on a path referencing a channel
    /// `>= capacities.len()`, or on a length mismatch between `paths` and
    /// `gigabytes`.
    pub fn new(paths: &[Vec<ChannelId>], capacities: &[f64], gigabytes: &[f64]) -> Self {
        assert_eq!(paths.len(), gigabytes.len(), "one path per flow");
        let mut sim = Self::empty();
        sim.path_offsets.reserve(paths.len() + 1);
        sim.path_offsets.push(0);
        sim.path_data.reserve(paths.iter().map(Vec::len).sum());
        for path in paths {
            sim.path_data.extend_from_slice(path);
            sim.path_offsets.push(sim.path_data.len());
        }
        sim.capacities.extend_from_slice(capacities);
        sim.sizes.extend_from_slice(gigabytes);
        sim.rebuild();
        sim
    }

    /// An empty simulation holding only reusable buffers. Pair with
    /// [`reset_csr`](FluidSim::reset_csr) to score many flow sets without
    /// re-allocating per set.
    pub fn empty() -> Self {
        Self {
            path_offsets: Vec::new(),
            path_data: Vec::new(),
            capacities: Vec::new(),
            sizes: Vec::new(),
            remaining: Vec::new(),
            completion: Vec::new(),
            active: Vec::new(),
            rates: Vec::new(),
            time: 0.0,
            rounds: 0,
            channel_load_gb: Vec::new(),
            bottleneck_lower_bound: 0.0,
            scratch: MaxMinScratch::new(),
            solver_mode: SolverMode::Batch,
            incremental: None,
            retired_buf: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Like [`empty`](FluidSim::empty), but with the given solver mode. Both
    /// modes produce bit-identical results on identical inputs (pinned by
    /// `tests/incremental_parity.rs`); they differ only in how much work a
    /// rate recomputation costs.
    pub fn empty_with_mode(mode: SolverMode) -> Self {
        let mut sim = Self::empty();
        sim.solver_mode = mode;
        sim
    }

    /// The solver mode rate recomputations run under.
    pub fn solver_mode(&self) -> SolverMode {
        self.solver_mode
    }

    /// Route [`TelemetryEvent::SolverRound`] events (one per completion
    /// round) through `telemetry`, and forward the handle to the incremental
    /// solver so its repairs are observable too. Survives
    /// [`reset_csr`](FluidSim::reset_csr).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        if let Some(inc) = self.incremental.as_mut() {
            inc.set_telemetry(self.telemetry.clone());
        }
    }

    /// Switch solver mode; safe at any point (mid-run included) — the
    /// incremental state, when entering [`SolverMode::Incremental`], is
    /// reseeded from the currently active flows.
    pub fn set_solver_mode(&mut self, mode: SolverMode) {
        self.solver_mode = mode;
        self.reseed_incremental();
    }

    /// (Re)build the incremental solver state from the active flow set, or
    /// drop it when running batch.
    fn reseed_incremental(&mut self) {
        if self.solver_mode != SolverMode::Incremental {
            self.incremental = None;
            return;
        }
        let inc = self
            .incremental
            .get_or_insert_with(|| IncrementalMaxMin::new(&[]));
        inc.set_telemetry(self.telemetry.clone());
        inc.reset(&self.capacities);
        for &i in &self.active {
            inc.insert_flow(
                i,
                &self.path_data[self.path_offsets[i]..self.path_offsets[i + 1]],
            );
        }
    }

    /// Re-arm the simulation with a new flow set given in CSR form (flow `i`
    /// traverses `path_data[path_offsets[i]..path_offsets[i + 1]]`), reusing
    /// every internal buffer — including the max–min solver scratch — from
    /// the previous run. Behaviour is identical to building a fresh
    /// simulation with [`FluidSim::new`] on the same inputs.
    ///
    /// # Panics
    /// Panics on negative flow volumes, on a path referencing a channel
    /// `>= capacities.len()`, on malformed offsets, or on a length mismatch
    /// between flows and `gigabytes`.
    pub fn reset_csr(
        &mut self,
        path_offsets: &[usize],
        path_data: &[ChannelId],
        capacities: &[f64],
        gigabytes: &[f64],
    ) {
        self.path_offsets.clear();
        self.path_offsets.extend_from_slice(path_offsets);
        self.path_data.clear();
        self.path_data.extend_from_slice(path_data);
        self.capacities.clear();
        self.capacities.extend_from_slice(capacities);
        self.sizes.clear();
        self.sizes.extend_from_slice(gigabytes);
        self.rebuild();
    }

    /// Validate the CSR invariants and recompute every piece of derived
    /// state (channel loads, bottleneck bound, remaining volumes, active
    /// set, clock) from `path_offsets` / `path_data` / `capacities` /
    /// `sizes` — the single initialization shared by [`FluidSim::new`] and
    /// [`FluidSim::reset_csr`].
    fn rebuild(&mut self) {
        let _span = self.telemetry.span("csr_build");
        let n_channels = self.capacities.len();
        let n_flows = self.sizes.len();
        assert_eq!(self.path_offsets.len(), n_flows + 1, "one path per flow");
        assert_eq!(
            self.path_offsets.first().copied(),
            Some(0),
            "offsets must start at 0"
        );
        assert_eq!(
            self.path_offsets.last().copied(),
            Some(self.path_data.len()),
            "offsets must span the path data"
        );
        self.channel_load_gb.clear();
        self.channel_load_gb.resize(n_channels, 0.0);
        for (i, gb) in self.sizes.iter().enumerate() {
            assert!(*gb >= 0.0, "negative message size");
            for &c in &self.path_data[self.path_offsets[i]..self.path_offsets[i + 1]] {
                assert!(
                    (c as usize) < n_channels,
                    "channel {c} out of range 0..{n_channels}"
                );
                self.channel_load_gb[c as usize] += gb;
            }
        }
        self.bottleneck_lower_bound = self
            .channel_load_gb
            .iter()
            .zip(&self.capacities)
            .map(|(gb, cap)| gb / cap)
            .fold(0.0, f64::max);
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.sizes);
        self.completion.clear();
        self.completion.resize(n_flows, 0.0);
        self.rates.clear();
        self.rates.resize(n_flows, 0.0);
        self.active.clear();
        for i in 0..n_flows {
            if self.sizes[i] > 0.0 && self.path_offsets[i + 1] > self.path_offsets[i] {
                self.active.push(i);
            }
        }
        self.time = 0.0;
        self.rounds = 0;
        self.reseed_incremental();
    }

    /// Whether every flow has completed.
    pub fn is_done(&self) -> bool {
        self.active.is_empty()
    }

    /// Current simulation time (the last completion processed).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of rate recomputation rounds performed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of flows still in flight.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Per-flow completion times so far (0 for flows still in flight), in
    /// input order. Lets a reused simulation report results without being
    /// consumed by [`into_outcome`](FluidSim::into_outcome).
    pub fn completion_times(&self) -> &[f64] {
        &self.completion
    }

    /// Mean flow completion time (seconds); 0 for an empty flow set.
    pub fn mean_completion_time(&self) -> f64 {
        if self.completion.is_empty() {
            0.0
        } else {
            self.completion.iter().sum::<f64>() / self.completion.len() as f64
        }
    }

    /// The lower bound `max_channel load / bandwidth` (seconds) of the
    /// current flow set.
    pub fn bottleneck_lower_bound(&self) -> f64 {
        self.bottleneck_lower_bound
    }

    /// Advance to the next completion round: recompute max–min rates, jump to
    /// the earliest completion among active flows, and retire every flow that
    /// finishes by then. Returns the new simulation time, or `None` if the
    /// simulation had already finished.
    ///
    /// # Panics
    /// Panics if floating-point degeneracy prevents progress (all rates zero).
    pub fn advance_round(&mut self) -> Option<f64> {
        if self.active.is_empty() {
            return None;
        }
        self.rounds += 1;
        match self.solver_mode {
            SolverMode::Batch => max_min_rates_csr(
                &self.active,
                &self.path_offsets,
                &self.path_data,
                &self.capacities,
                &mut self.scratch,
                &mut self.rates,
            ),
            SolverMode::Incremental => {
                // Completion rounds only ever *remove* flows, so each round
                // is a pure delta repair; `active` stays in ascending order
                // under compaction, matching the incremental solver's
                // batch-equivalent flow ordering.
                let rates = self
                    .incremental
                    .as_mut()
                    .expect("incremental mode keeps solver state")
                    .solve();
                for &i in &self.active {
                    self.rates[i] = rates[i];
                }
            }
        }
        // Advance to the earliest completion among active flows.
        let dt = self
            .active
            .iter()
            .map(|&i| self.remaining[i] / self.rates[i])
            .fold(f64::INFINITY, f64::min);
        assert!(
            dt.is_finite() && dt > 0.0,
            "simulation failed to make progress"
        );
        // For very large flow sets, heterogeneous volumes would otherwise
        // force one rate recomputation per distinct completion time. A 5%
        // lookahead batches near-simultaneous completions; the makespan
        // error is bounded by that lookahead and only applies to runs far
        // beyond the exactness-sensitive unit-test scale.
        let dt = if self.active.len() > 2000 {
            dt * 1.05
        } else {
            dt
        };
        self.time += dt;
        // Retire completed flows by compacting `active` in place (order
        // preserved, no per-round allocation).
        let mut kept = 0usize;
        self.retired_buf.clear();
        for idx in 0..self.active.len() {
            let i = self.active[idx];
            self.remaining[i] -= self.rates[i] * dt;
            // Tolerate floating-point residue when deciding completion;
            // this also batches completions that tie up to rounding, so
            // they do not each force a rate recomputation.
            if self.remaining[i] <= 1e-9 * self.sizes[i].max(1e-9) {
                self.remaining[i] = 0.0;
                self.completion[i] = self.time;
                self.retired_buf.push(i);
            } else {
                self.active[kept] = i;
                kept += 1;
            }
        }
        if let Some(inc) = self.incremental.as_mut() {
            inc.remove_flows(&self.retired_buf);
        }
        assert!(
            kept < self.active.len(),
            "simulation failed to make progress"
        );
        self.active.truncate(kept);
        self.telemetry.emit(TelemetryEvent::SolverRound {
            round: self.rounds as u64,
            active_flows: kept as u64,
            retired: self.retired_buf.len() as u64,
        });
        Some(self.time)
    }

    /// Run every remaining round.
    ///
    /// When the telemetry handle records to a ring, the whole loop is
    /// wrapped in a `fluid_solve` span and the handle is swapped for the
    /// span's for the duration, so the incremental solver's repair spans
    /// nest under it.
    pub fn run_to_completion(&mut self) {
        if !self.telemetry.has_ring() {
            while self.advance_round().is_some() {}
            return;
        }
        let span = self.telemetry.span("fluid_solve");
        let outer = std::mem::replace(&mut self.telemetry, span.telemetry().clone());
        if let Some(inc) = self.incremental.as_mut() {
            inc.set_telemetry(self.telemetry.clone());
        }
        while self.advance_round().is_some() {}
        self.telemetry = outer;
        if let Some(inc) = self.incremental.as_mut() {
            inc.set_telemetry(self.telemetry.clone());
        }
        drop(span);
    }

    /// Consume the simulation and return its outcome.
    ///
    /// # Panics
    /// Panics if flows are still active (run it to completion first).
    pub fn into_outcome(self) -> FluidOutcome {
        assert!(self.active.is_empty(), "simulation has active flows");
        FluidOutcome {
            makespan: self.time,
            completion: self.completion,
            channel_load_gb: self.channel_load_gb,
            bottleneck_lower_bound: self.bottleneck_lower_bound,
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_flow_takes_serial_time() {
        let mut sim = FluidSim::new(&[vec![0, 1]], &[2.0, 2.0], &[4.0]);
        sim.run_to_completion();
        let out = sim.into_outcome();
        assert!((out.makespan - 2.0).abs() < 1e-12);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.channel_load_gb, vec![4.0, 4.0]);
    }

    #[test]
    fn contended_channel_serialises_volume() {
        // Two 2 GB flows over one 2 GB/s channel: 1 GB/s each, both done at 2 s.
        let mut sim = FluidSim::new(&[vec![0], vec![0]], &[2.0], &[2.0, 2.0]);
        sim.run_to_completion();
        let out = sim.into_outcome();
        assert!((out.makespan - 2.0).abs() < 1e-12);
        assert!((out.bottleneck_lower_bound - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stepwise_and_batch_driving_agree() {
        let paths = vec![vec![0], vec![0, 1], vec![1]];
        let caps = vec![2.0, 3.0];
        let sizes = vec![1.0, 2.0, 3.0];
        let mut a = FluidSim::new(&paths, &caps, &sizes);
        let mut b = a.clone();
        a.run_to_completion();
        while let Some(t) = b.advance_round() {
            assert!(t <= a.time() + 1e-15);
        }
        assert_eq!(a.into_outcome(), b.into_outcome());
    }

    #[test]
    fn empty_path_flows_complete_at_time_zero() {
        let mut sim = FluidSim::new(&[vec![], vec![0]], &[1.0], &[5.0, 1.0]);
        assert_eq!(sim.active_flows(), 1);
        sim.run_to_completion();
        let out = sim.into_outcome();
        assert_eq!(out.completion[0], 0.0);
        assert!((out.completion[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solver_modes_agree_bit_for_bit() {
        let paths: Vec<Vec<ChannelId>> = vec![
            vec![0],
            vec![0, 1],
            vec![1],
            vec![2],
            vec![0, 2],
            vec![],
            vec![1, 2, 1],
        ];
        let caps = vec![2.0, 3.0, 1.5];
        let sizes = vec![1.0, 2.0, 3.0, 0.5, 1.25, 4.0, 0.75];
        let mut batch = FluidSim::new(&paths, &caps, &sizes);
        batch.run_to_completion();

        let mut offsets = vec![0usize];
        let mut data = Vec::new();
        for p in &paths {
            data.extend_from_slice(p);
            offsets.push(data.len());
        }
        let mut inc = FluidSim::empty_with_mode(SolverMode::Incremental);
        assert_eq!(inc.solver_mode(), SolverMode::Incremental);
        inc.reset_csr(&offsets, &data, &caps, &sizes);
        inc.run_to_completion();

        assert_eq!(batch.time().to_bits(), inc.time().to_bits());
        assert_eq!(batch.rounds(), inc.rounds());
        for (a, b) in batch.completion_times().iter().zip(inc.completion_times()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn switching_modes_mid_run_keeps_the_trajectory() {
        let paths = vec![vec![0], vec![0, 1], vec![1], vec![0]];
        let caps = vec![2.0, 3.0];
        let sizes = vec![1.0, 2.0, 3.0, 0.25];
        let mut reference = FluidSim::new(&paths, &caps, &sizes);
        reference.run_to_completion();
        let mut switched = FluidSim::new(&paths, &caps, &sizes);
        switched.advance_round();
        switched.set_solver_mode(SolverMode::Incremental);
        switched.run_to_completion();
        for (a, b) in reference
            .completion_times()
            .iter()
            .zip(switched.completion_times())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn telemetry_observes_rounds_and_repairs() {
        let telemetry = Telemetry::counters_only();
        let mut sim = FluidSim::empty_with_mode(SolverMode::Incremental);
        sim.set_telemetry(telemetry.clone());
        let paths = [vec![0], vec![0, 1], vec![1]];
        let mut offsets = vec![0usize];
        let mut data = Vec::new();
        for p in &paths {
            data.extend_from_slice(p);
            offsets.push(data.len());
        }
        sim.reset_csr(&offsets, &data, &[2.0, 3.0], &[1.0, 2.0, 3.0]);
        sim.run_to_completion();
        let counters = telemetry.counters().unwrap();
        assert_eq!(counters.solver_rounds as usize, sim.rounds());
        assert!(
            counters.solver_repairs + counters.solver_full_solves >= 1,
            "every dirty solve must be observed: {counters:?}"
        );
    }

    #[test]
    fn reused_simulation_matches_fresh_construction_bit_for_bit() {
        type Case = (Vec<Vec<ChannelId>>, Vec<f64>, Vec<f64>);
        let cases: Vec<Case> = vec![
            (
                vec![vec![0], vec![0, 1], vec![1]],
                vec![2.0, 3.0],
                vec![1.0, 2.0, 3.0],
            ),
            (vec![vec![1], vec![]], vec![1.0, 4.0], vec![7.0, 2.0]),
            (vec![vec![0, 1, 2]], vec![2.0, 1.0, 3.0], vec![6.0]),
        ];
        let mut reused = FluidSim::empty();
        for (paths, caps, sizes) in &cases {
            let mut offsets = vec![0usize];
            let mut data = Vec::new();
            for p in paths {
                data.extend_from_slice(p);
                offsets.push(data.len());
            }
            reused.reset_csr(&offsets, &data, caps, sizes);
            reused.run_to_completion();
            let mut fresh = FluidSim::new(paths, caps, sizes);
            fresh.run_to_completion();
            assert_eq!(reused.time(), fresh.time());
            assert_eq!(reused.completion_times(), fresh.completion_times());
            assert_eq!(reused.rounds(), fresh.rounds());
            assert_eq!(
                reused.bottleneck_lower_bound(),
                fresh.bottleneck_lower_bound()
            );
        }
    }
}
