//! The fluid (flow-level) simulation core.
//!
//! [`FluidSim`] advances a set of fluid flows over capacitated channels from
//! one completion round to the next, recomputing max–min fair rates in
//! between. It holds only the set-local view of its flow set: the channels
//! its paths touch, renumbered densely in ascending fabric order, so every
//! round costs the flows' own channels rather than the fabric's, with
//! results bit-identical to a solve over every channel. A batch round
//! re-solves warm: the previous round's solve left its bottleneck steps in
//! the solver scratch, and the new round replays them up to the first step
//! that fixed a flow the previous round finished, then fills on from there
//! (see "Warm re-solves" in [`maxmin`](crate::maxmin)). Round 1 of a flow
//! set and the first batch round after a solver-mode switch start cold.
//!
//! It is deliberately driver agnostic: [`FluidSim::run_to_completion`]
//! runs it in a plain loop (what [`simulate_flows_with`](crate::simulate_flows_with)
//! calls for a routed flow set), and [`FluidSim::run_until_first_done`]
//! stops once a prefix of the flows has finished (the cluster scheduler's
//! penalty runs) — with bit-identical completion times for the flows both
//! finish. Callers that score many flow sets (the advice candidates) re-arm
//! one instance for each set with [`FluidSim::reset_csr`]: this is the
//! workspace's only completion-round loop.

use crate::error::EngineError;
use crate::incremental::{IncrementalMaxMin, SolverMode};
use crate::maxmin::{max_min_rates_round, ChannelId, LocalChannels, MaxMinScratch};
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
}

/// A resumable fluid simulation over routed flows.
///
/// Construct it with per-flow channel paths, per-channel capacities (GB/s)
/// and per-flow volumes (GB); then either run it with
/// [`run_to_completion`](FluidSim::run_to_completion) or step one completion
/// round at a time with [`advance_round`](FluidSim::advance_round).
#[derive(Debug, Clone, Default)]
pub struct FluidSim {
    /// Per-flow channel paths in local channel ids, CSR-packed: flow `i`
    /// traverses `path_data[path_offsets[i]..path_offsets[i + 1]]`.
    path_offsets: Vec<usize>,
    path_data: Vec<ChannelId>,
    /// The touched channels and their capacities (the set-local view).
    channels: LocalChannels,
    sizes: Vec<f64>,
    remaining: Vec<f64>,
    completion: Vec<f64>,
    active: Vec<usize>,
    rates: Vec<f64>,
    time: f64,
    rounds: usize,
    channel_load_gb: Vec<f64>,
    bottleneck_lower_bound: f64,
    /// Solver buffers, reused across completion rounds; between batch
    /// rounds they hold the record the next round re-solves warm from.
    scratch: MaxMinScratch,
    solver_mode: SolverMode,
    /// Live only in [`SolverMode::Incremental`]: each completion round is a
    /// pure remove-delta, so rates repair in time proportional to the
    /// affected component instead of the whole flow set.
    incremental: Option<IncrementalMaxMin>,
    /// Flow ids the last round retired (reused per round); the next batch
    /// round's warm re-solve takes them out of the record.
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
        let mut path_data = Vec::with_capacity(paths.iter().map(Vec::len).sum());
        for path in paths {
            path_data.extend_from_slice(path);
            sim.path_offsets.push(path_data.len());
        }
        sim.sizes.extend_from_slice(gigabytes);
        sim.rebuild(&path_data, capacities);
        sim
    }

    /// An empty simulation holding only reusable buffers. Pair with
    /// [`reset_csr`](FluidSim::reset_csr) to score many flow sets without
    /// re-allocating per set.
    pub fn empty() -> Self {
        Self::default()
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
        self.forward_telemetry();
    }

    /// Switch solver mode; safe at any point (mid-run included) — the
    /// incremental state, when entering [`SolverMode::Incremental`], is
    /// reseeded from the currently active flows.
    pub fn set_solver_mode(&mut self, mode: SolverMode) {
        self.solver_mode = mode;
        // Rounds the incremental solver serves leave no record: the next
        // batch round starts cold.
        self.scratch.forget();
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
        inc.reset(&self.channels.capacities);
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
        self.sizes.clear();
        self.sizes.extend_from_slice(gigabytes);
        self.rebuild(path_data, capacities);
    }

    /// Validate the CSR invariants, store `path_data` renumbered into the
    /// set-local view over `capacities`, and recompute every piece of
    /// derived state (channel loads, bottleneck bound, remaining volumes,
    /// active set, clock) — the single initialization shared by
    /// [`FluidSim::new`] and [`FluidSim::reset_csr`].
    fn rebuild(&mut self, path_data: &[ChannelId], capacities: &[f64]) {
        let _span = self.telemetry.span("csr_build");
        let n_channels = capacities.len();
        let n_flows = self.sizes.len();
        assert_eq!(self.path_offsets.len(), n_flows + 1, "one path per flow");
        assert_eq!(
            self.path_offsets.first().copied(),
            Some(0),
            "offsets must start at 0"
        );
        assert_eq!(
            self.path_offsets.last().copied(),
            Some(path_data.len()),
            "offsets must span the path data"
        );
        // Path-entry pass: validate and sum the channel loads. Loaded
        // channels are the touched ones, except those only zero-volume
        // flows cross: touch those explicitly.
        self.channel_load_gb.clear();
        self.channel_load_gb.resize(n_channels, 0.0);
        self.channels.clear(n_channels);
        for (i, gb) in self.sizes.iter().enumerate() {
            assert!(*gb >= 0.0, "negative message size");
            let path = &path_data[self.path_offsets[i]..self.path_offsets[i + 1]];
            for &c in path {
                assert!(
                    (c as usize) < n_channels,
                    "channel {c} out of range 0..{n_channels}"
                );
                self.channel_load_gb[c as usize] += gb;
            }
            if *gb == 0.0 {
                for &c in path {
                    self.channels.touch(c);
                }
            }
        }
        // Channel pass: number the touched channels and take the bound over
        // the loaded ones (any other `0 / cap` is 0 or NaN: `max` drops it).
        let (loads, mut bound) = (&self.channel_load_gb, 0.0f64);
        self.channels.number_by_scan(capacities, |c| {
            let loaded = loads[c] > 0.0;
            if loaded {
                bound = bound.max(loads[c] / capacities[c]);
            }
            loaded
        });
        self.bottleneck_lower_bound = bound;
        self.path_data.clear();
        self.channels.push_path(path_data, &mut self.path_data);
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
        self.scratch.forget();
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

    /// The lower bound `max_channel load / bandwidth` (seconds) of the
    /// current flow set.
    pub fn bottleneck_lower_bound(&self) -> f64 {
        self.bottleneck_lower_bound
    }

    /// An upper bound (seconds) on the completion times of the flows in
    /// flight, from time 0. A flow's max–min rate is never below its path's
    /// smallest `capacity / traversals`, so it finishes by `size ·
    /// max(traversals / capacity)` over its path; the factor 1.05 covers
    /// the lookahead of large flow sets.
    ///
    /// # Errors
    /// [`EngineError::NonFiniteTime`] when the bound is not finite: the run
    /// could overflow the clock, and callers refuse it before simulating.
    pub fn makespan_bound(&self) -> Result<f64, EngineError> {
        let (lo, hi) = self
            .active
            .iter()
            .map(|&i| self.sizes[i])
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), s| {
                (lo.min(s), hi.max(s))
            });
        // A channel with load `l` carries at most `l / lo` traversals of
        // these flows, so `hi / lo` times the bottleneck bound covers every
        // flow without a pass over the paths. Only when that overflows is
        // each path's own bound worth computing.
        let coarse = 1.05 * self.bottleneck_lower_bound * (hi / lo);
        if coarse.is_finite() {
            return Ok(coarse);
        }
        let caps = &self.channels.capacities;
        let mut traversals = vec![0u32; caps.len()];
        for &c in &self.path_data {
            traversals[c as usize] += 1;
        }
        let slowest = self
            .active
            .iter()
            .map(|&i| {
                self.path_data[self.path_offsets[i]..self.path_offsets[i + 1]]
                    .iter()
                    .map(|&c| f64::from(traversals[c as usize]) / caps[c as usize])
                    .fold(0.0, f64::max)
                    * self.sizes[i]
            })
            .fold(0.0, f64::max);
        let bound = 1.05 * slowest;
        if bound.is_finite() {
            Ok(bound)
        } else {
            Err(EngineError::NonFiniteTime {
                what: "flow completion times",
            })
        }
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
            SolverMode::Batch => max_min_rates_round(
                &self.active,
                &self.retired_buf,
                &self.path_offsets,
                &self.path_data,
                &self.channels.capacities,
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
        let retired = &mut self.retired_buf;
        retired.clear();
        let dt = complete_round(
            &mut self.active,
            &mut self.remaining,
            &self.rates,
            &self.sizes,
            |i| retired.push(i),
        );
        self.time += dt;
        for &i in &self.retired_buf {
            self.completion[i] = self.time;
        }
        if let Some(inc) = self.incremental.as_mut() {
            inc.remove_flows(&self.retired_buf);
        }
        self.telemetry.emit(TelemetryEvent::SolverRound {
            round: self.rounds as u64,
            active_flows: self.active.len() as u64,
            retired: self.retired_buf.len() as u64,
        });
        Some(self.time)
    }

    /// Run every remaining round ([`FluidSim::run_until_first_done`], all flows).
    pub fn run_to_completion(&mut self) {
        self.run_until_first_done(self.sizes.len());
    }

    /// Run rounds until flows `0..k` have completed (`active` stays
    /// ascending, so until its first entry is `>= k`); later flows may still
    /// be in flight. Their completion times equal a full run's, bit for bit.
    ///
    /// With a ring attached, the loop runs inside a `fluid_solve` span whose
    /// handle the incremental solver also gets, so its repair spans nest
    /// under it.
    pub fn run_until_first_done(&mut self, k: usize) {
        let mut traced = None;
        if self.telemetry.has_ring() {
            let span = self.telemetry.span("fluid_solve");
            let outer = std::mem::replace(&mut self.telemetry, span.telemetry().clone());
            self.forward_telemetry();
            traced = Some((span, outer));
        }
        while self.active.first().is_some_and(|&i| i < k) {
            self.advance_round();
        }
        if let Some((span, outer)) = traced {
            self.telemetry = outer;
            self.forward_telemetry();
            drop(span);
        }
    }

    /// Hand the current telemetry handle to the incremental solver.
    fn forward_telemetry(&mut self) {
        if let Some(inc) = self.incremental.as_mut() {
            inc.set_telemetry(self.telemetry.clone());
        }
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

/// One completion round's arithmetic for [`FluidSim::advance_round`]: step
/// to the earliest completion among `active`, drain every active flow at
/// its rate, compact `active` in place (order kept) and hand each finished
/// flow to `retire`. Returns the step.
///
/// # Panics
/// Panics if floating-point degeneracy prevents progress.
fn complete_round(
    active: &mut Vec<usize>,
    remaining: &mut [f64],
    rates: &[f64],
    sizes: &[f64],
    mut retire: impl FnMut(usize),
) -> f64 {
    let dt = active
        .iter()
        .map(|&i| remaining[i] / rates[i])
        .fold(f64::INFINITY, f64::min);
    assert!(
        dt.is_finite() && dt > 0.0,
        "simulation failed to make progress"
    );
    // For very large flow sets, heterogeneous volumes would otherwise force
    // one rate recomputation per distinct completion time. A 5% lookahead
    // batches near-simultaneous completions; the makespan error is bounded
    // by that lookahead and only applies to runs far beyond the
    // exactness-sensitive unit-test scale.
    let dt = if active.len() > 2000 { dt * 1.05 } else { dt };
    let mut kept = 0usize;
    for idx in 0..active.len() {
        let i = active[idx];
        remaining[i] -= rates[i] * dt;
        // Tolerate floating-point residue when deciding completion; this
        // also batches completions that tie up to rounding, so they do not
        // each force a rate recomputation.
        if remaining[i] <= 1e-9 * sizes[i].max(1e-9) {
            remaining[i] = 0.0;
            retire(i);
        } else {
            active[kept] = i;
            kept += 1;
        }
    }
    assert!(kept < active.len(), "simulation failed to make progress");
    active.truncate(kept);
    dt
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
        // Six rounds, so every script below runs warm batch rounds both
        // before and after its switches.
        let paths = vec![vec![0], vec![0, 1], vec![1], vec![0], vec![1, 2], vec![2]];
        let caps = vec![2.0, 3.0, 1.5];
        let sizes = vec![1.0, 2.0, 3.0, 0.25, 1.5, 4.0];
        let mut reference = FluidSim::new(&paths, &caps, &sizes);
        reference.run_to_completion();
        assert_eq!(reference.rounds(), 6);
        let (batch, incremental) = (SolverMode::Batch, SolverMode::Incremental);
        // The mode each round runs under, from the first round on; the last
        // mode runs the remaining rounds. Incremental rounds leave the
        // kernel no record, so the batch rounds after them must start cold.
        let scripts: [&[SolverMode]; 4] = [
            &[batch, incremental],
            &[incremental, incremental, batch],
            &[batch, batch, incremental, incremental, batch],
            &[batch, incremental, batch, incremental, batch],
        ];
        for script in scripts {
            let mut switched = FluidSim::new(&paths, &caps, &sizes);
            for &mode in &script[..script.len() - 1] {
                switched.set_solver_mode(mode);
                switched.advance_round();
            }
            switched.set_solver_mode(script[script.len() - 1]);
            switched.run_to_completion();
            assert_eq!(switched.rounds(), reference.rounds(), "{script:?}");
            for (a, b) in reference
                .completion_times()
                .iter()
                .zip(switched.completion_times())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{script:?}");
            }
        }
    }

    #[test]
    fn makespan_bound_covers_the_run_and_is_finite_when_the_run_is() {
        // Uneven volumes and a shared channel: the coarse bound holds.
        let mut sim = FluidSim::new(
            &[vec![0], vec![0, 1], vec![1]],
            &[2.0, 3.0],
            &[1.0, 2.0, 3.0],
        );
        let bound = sim.makespan_bound().unwrap();
        sim.run_to_completion();
        assert!(sim.time() <= bound, "{} > {bound}", sim.time());
        // Two 1e308 GB flows share a 2 GB/s channel: its load overflows,
        // but each flow gets 1 GB/s and finishes at 1e308 s, which the
        // per-path bound sees.
        let huge =
            |copies: usize| FluidSim::new(&vec![vec![0]; copies], &[2.0], &vec![1e308; copies]);
        let mut pair = huge(2);
        assert!(pair.makespan_bound().is_ok());
        pair.run_to_completion();
        assert_eq!(pair.time(), 1e308);
        // With four, each gets 0.5 GB/s and the run would overflow.
        assert!(huge(4).makespan_bound().is_err());
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
    fn early_stop_records_the_same_span_tree_as_a_full_run() {
        use netpart_telemetry::trace::snapshot;
        use netpart_telemetry::{RingReader, TraceForest};

        // Flows 0 and 1 finish well before the two long flows behind them.
        let offsets = [0usize, 1, 2, 5, 6];
        let data: [ChannelId; 6] = [0, 1, 0, 1, 2, 2];
        let (caps, sizes) = ([1.0, 1.0, 1.0], [1.0, 1.0, 5.0, 5.0]);
        for (name, early) in [("early", true), ("full", false)] {
            let ring = std::env::temp_dir().join(format!(
                "netpart-fluid-spans-{name}-{}.ring",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&ring);
            let mut sim = FluidSim::empty_with_mode(SolverMode::Incremental);
            sim.set_telemetry(Telemetry::to_ring(&ring, 4096).unwrap());
            sim.reset_csr(&offsets, &data, &caps, &sizes);
            if early {
                sim.run_until_first_done(2);
                assert!(!sim.is_done(), "the long flows are still in flight");
            } else {
                sim.run_to_completion();
            }

            let forest = TraceForest::from_records(&snapshot(&RingReader::open(&ring).unwrap()));
            let mut stack = forest.roots().to_vec();
            let (mut solves, mut repairs) = (Vec::new(), Vec::new());
            while let Some(id) = stack.pop() {
                let span = forest.span(id).unwrap();
                stack.extend(&span.children);
                match span.label.as_str() {
                    "fluid_solve" => solves.push(id),
                    "dirty_walk" | "component_solve" | "fallback_solve" => {
                        repairs.push(span.parent_span_id)
                    }
                    _ => {}
                }
            }
            assert_eq!(solves.len(), 1, "{name}: one fluid_solve span");
            assert!(
                !repairs.is_empty(),
                "{name}: the solver's spans are recorded"
            );
            assert!(
                repairs.iter().all(|&parent| parent == solves[0]),
                "{name}: every solver span nests under fluid_solve"
            );
            std::fs::remove_file(&ring).unwrap();
        }
    }

    #[test]
    fn reused_simulation_matches_fresh_construction_bit_for_bit() {
        type Case = (Vec<Vec<ChannelId>>, Vec<f64>, Vec<f64>);
        // The first two sets take several rounds each, so the second one
        // runs right after warm rounds of another set.
        let cases: Vec<Case> = vec![
            (
                vec![vec![0], vec![0, 1], vec![1]],
                vec![2.0, 3.0],
                vec![1.0, 2.0, 3.0],
            ),
            (
                vec![vec![1], vec![0, 1], vec![0]],
                vec![2.0, 3.0],
                vec![2.0, 1.0, 3.0],
            ),
            (vec![vec![1], vec![]], vec![1.0, 4.0], vec![7.0, 2.0]),
            (vec![vec![0, 1, 2]], vec![2.0, 1.0, 3.0], vec![6.0]),
        ];
        let mut reused = FluidSim::empty();
        for (case, (paths, caps, sizes)) in cases.iter().enumerate() {
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
            assert!(
                case >= 2 || fresh.rounds() > 1,
                "case {case} is multi-round"
            );
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
