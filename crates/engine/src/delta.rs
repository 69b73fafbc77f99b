//! Delta scoring of successive flow sets: one persistent scoring session
//! shared across many closely related simulations.
//!
//! The advice sweep scores dozens to hundreds of candidate allocations whose
//! all-to-all exchanges share most of their flows. Re-arming a
//! [`FluidSim`](crate::FluidSim) per candidate rebuilds and re-solves the
//! whole set every time (set-local view, channel loads, solver re-seed),
//! even when two consecutive candidates differ in a handful of node pairs.
//! [`DeltaFluidScorer`] keeps one session alive across flow sets: each set
//! is presented as keyed flows and only the symmetric difference against
//! the previous set is inspected. The session then picks the cheapest
//! round-1 strategy that is still exact:
//!
//! * **zero diff** — the set *is* the previous set (same keys, same
//!   volumes), so the previous makespan and round count are returned
//!   without solving anything;
//! * **small diff** — the set is served by the session's lazily armed
//!   [`IncrementalMaxMin`], which receives only the symmetric difference
//!   (`remove_flows` / `insert_flow`) and repairs the dirty component;
//! * **large diff** — sharing a solver cannot beat one batch solve of the
//!   set's own dense subproblem (an all-to-all set is one connected
//!   component: any repair re-solves all of it), so round 1 is computed
//!   directly on the set-local CSR that the completion rounds need anyway.
//!
//! Every strategy's cost is proportional to the *delta* or to the set's own
//! channels, never to the fabric; and every strategy yields the batch
//! kernel's exact bits, so the choice is invisible in the results.
//!
//! # Why the result is bit-identical to a fresh [`FluidSim`](crate::FluidSim)
//!
//! Max–min rate *values* depend only on the flow multiset's paths, never on
//! flow ids or presentation order: every flow fixed in one filling round
//! receives the same rate, and the per-channel arithmetic subtracts equal
//! values whatever the order. The only order-sensitive piece of the kernel
//! is the bottleneck tie-break on *channel* ids — preserved here exactly as
//! in [`IncrementalMaxMin`]'s repair: local channels are densely remapped in
//! ascending id order, by the same helper `FluidSim` builds its view with.
//! The first round's rates come from the armed session (bit-identical to
//! batch by construction, shadow-checked in debug builds) or from the batch
//! kernel itself on the local subproblem; every round then advances the
//! clock and retires flows through the fluid core's own round step, the one
//! [`FluidSim::advance_round`](crate::FluidSim::advance_round) runs. Later
//! rounds re-solve through the fluid core's round solve too: warm from the
//! previous round's bottleneck steps after a batch round 1, cold once after
//! a round 1 the session served, which leaves the kernel no record (see
//! "Warm re-solves" in [`maxmin`](crate::maxmin)).
//! `tests/advice_delta_parity.rs` pins the equivalence across random
//! fabrics, candidate lists and thread caps.

use crate::fluid::complete_round;
use crate::incremental::IncrementalMaxMin;
use crate::maxmin::{
    max_min_rates_csr, max_min_rates_round, ChannelId, LocalChannels, MaxMinScratch,
};
use netpart_telemetry::{Telemetry, TelemetryEvent};
use std::collections::HashMap;

/// One keyed flow of a set handed to [`DeltaFluidScorer::score_set`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaFlow<'a> {
    /// Stable identity of the flow across sets (e.g. a packed node pair).
    /// Two sets containing the same key must give it the same path.
    pub key: u64,
    /// The flow's channel path (borrowed, typically from a route cache).
    pub path: &'a [ChannelId],
    /// Flow volume in GB; must be strictly positive.
    pub gigabytes: f64,
}

/// How much of a scored set was shared with the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Flows in the set.
    pub total_flows: usize,
    /// Flows carried over from the previous set (no solver delta needed).
    pub reused_flows: usize,
}

/// The makespan and round count of one scored set (the exact values a fresh
/// [`FluidSim`](crate::FluidSim) run over the same flows would report).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaScore {
    /// Completion time of the last flow (seconds).
    pub makespan: f64,
    /// Rate recomputation rounds the set needed.
    pub rounds: usize,
    /// Overlap accounting for this set.
    pub stats: DeltaStats,
}

/// Scores a sequence of keyed flow sets through one persistent session
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct DeltaFluidScorer {
    /// Channel capacities (GB/s), fixed at construction.
    capacities: Vec<f64>,
    /// The shared incremental solver, armed lazily by the first small-diff
    /// set (sweeps of mostly distinct sets never pay for it).
    inc: Option<IncrementalMaxMin>,
    /// Key -> flow id, assigned once per distinct key when a flow first
    /// enters the armed session and reused across re-insertions (ids stay
    /// dense in the session).
    ids: HashMap<u64, usize>,
    next_id: usize,
    /// Keys of the last scored set (sorted): the diff/reuse reference.
    current: Vec<u64>,
    /// `(key, id)` the armed session holds, sorted by key; lags `current`
    /// while large-diff sets bypass the session, and catches up through one
    /// symmetric difference when a small-diff set re-arms it.
    session: Vec<(u64, usize)>,
    session_next: Vec<(u64, usize)>,
    /// Makespan and rounds of the last solved set — the zero-diff answer.
    last_score: Option<(f64, usize)>,
    // Per-set local subproblem buffers, reused across sets.
    channels: LocalChannels,
    offsets: Vec<usize>,
    data: Vec<ChannelId>,
    sizes: Vec<f64>,
    remaining: Vec<f64>,
    rates: Vec<f64>,
    active: Vec<usize>,
    retired: Vec<usize>,
    removed_ids: Vec<usize>,
    scratch: MaxMinScratch,
    telemetry: Telemetry,
}

impl DeltaFluidScorer {
    /// Empty scorer over the given channel capacities (GB/s).
    pub fn new(capacities: &[f64]) -> Self {
        Self {
            capacities: capacities.to_vec(),
            inc: None,
            ids: HashMap::new(),
            next_id: 0,
            current: Vec::new(),
            session: Vec::new(),
            session_next: Vec::new(),
            last_score: None,
            channels: LocalChannels::default(),
            offsets: Vec::new(),
            data: Vec::new(),
            sizes: Vec::new(),
            remaining: Vec::new(),
            rates: Vec::new(),
            active: Vec::new(),
            retired: Vec::new(),
            removed_ids: Vec::new(),
            scratch: MaxMinScratch::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Route the armed session's [`TelemetryEvent::SolverRepair`] events and
    /// this scorer's per-round [`TelemetryEvent::SolverRound`] events
    /// through `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(inc) = &mut self.inc {
            inc.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// Flows of the last scored set.
    pub fn live_flows(&self) -> usize {
        self.current.len()
    }

    /// Flows the armed incremental session holds (0 until a small-diff set
    /// arms it; lags [`live_flows`](Self::live_flows) while large-diff sets
    /// bypass the session).
    pub fn session_flows(&self) -> usize {
        self.session.len()
    }

    /// Score one flow set and remember it, so the next call pays only for
    /// the symmetric difference (nothing at all when the set repeats).
    ///
    /// `flows` must be sorted by strictly increasing key, every key must map
    /// to the same path it had in earlier sets, and volumes must be strictly
    /// positive. Returns the makespan, round count and overlap stats; the
    /// values are bit-identical to a fresh [`FluidSim`](crate::FluidSim)
    /// over the same flows.
    ///
    /// # Panics
    /// Panics on unsorted or duplicate keys, non-positive volumes, or
    /// floating-point degeneracy (all rates zero), like the fluid core.
    pub fn score_set(&mut self, flows: &[DeltaFlow<'_>]) -> DeltaScore {
        // --- Diff against the last scored set (validating en route). ---
        let mut reused = 0usize;
        {
            let (mut cur, mut new) = (0usize, 0usize);
            let mut last_key: Option<u64> = None;
            let validate = |flows: &[DeltaFlow<'_>], new: usize, last: &mut Option<u64>| {
                let key = flows[new].key;
                assert!(
                    last.is_none_or(|l| l < key),
                    "flow keys must be sorted and unique, got {key} after {last:?}"
                );
                assert!(
                    flows[new].gigabytes > 0.0,
                    "flow volumes must be positive, got {}",
                    flows[new].gigabytes
                );
                *last = Some(key);
            };
            while cur < self.current.len() || new < flows.len() {
                if new == flows.len()
                    || (cur < self.current.len() && self.current[cur] < flows[new].key)
                {
                    cur += 1;
                } else if cur == self.current.len() || self.current[cur] > flows[new].key {
                    validate(flows, new, &mut last_key);
                    new += 1;
                } else {
                    validate(flows, new, &mut last_key);
                    reused += 1;
                    cur += 1;
                    new += 1;
                }
            }
        }
        let removed = self.current.len() - reused;
        let inserted = flows.len() - reused;
        let stats = DeltaStats {
            total_flows: flows.len(),
            reused_flows: reused,
        };

        // --- Zero diff: same keys (hence, by the key–path contract, same
        // paths) and same volumes as the last solved set reproduce its
        // answer exactly; nothing needs solving. ---
        if removed == 0 && inserted == 0 {
            if let Some((makespan, rounds)) = self.last_score {
                if flows
                    .iter()
                    .zip(&self.sizes)
                    .all(|(f, &s)| f.gigabytes == s)
                {
                    return DeltaScore {
                        makespan,
                        rounds,
                        stats,
                    };
                }
            }
        }
        self.current.clear();
        self.current.extend(flows.iter().map(|f| f.key));

        // --- Build the set-local dense subproblem. ---
        self.channels.clear(self.capacities.len());
        for f in flows {
            for &c in f.path {
                self.channels.touch(c);
            }
        }
        self.channels.number(&self.capacities);
        self.offsets.clear();
        self.data.clear();
        self.sizes.clear();
        self.active.clear();
        self.offsets.push(0);
        for (i, f) in flows.iter().enumerate() {
            self.channels.push_path(f.path, &mut self.data);
            self.offsets.push(self.data.len());
            self.sizes.push(f.gigabytes);
            if !f.path.is_empty() {
                self.active.push(i);
            }
        }
        if self.active.is_empty() {
            // Every flow completes at time zero; the fluid core would never
            // solve, so neither do we.
            self.last_score = Some((0.0, 0));
            return DeltaScore {
                makespan: 0.0,
                rounds: 0,
                stats,
            };
        }

        // --- Round 1: small diffs go through the shared incremental
        // session (repair cost scales with the dirty component); anything
        // larger is served by one batch solve of the local subproblem,
        // which a shared solver cannot beat. Both produce the batch
        // kernel's exact bits, so the policy is invisible in the results —
        // and since it depends only on the sets this scorer has seen, never
        // on the worker count, it is thread-cap-stable too. ---
        self.rates.clear();
        self.rates.resize(flows.len(), 0.0);
        if 2 * (removed + inserted) <= flows.len() {
            self.arm_session(flows);
            let inc = self.inc.as_mut().expect("session armed");
            let session_rates = inc.solve();
            for (i, f) in flows.iter().enumerate() {
                self.rates[i] = session_rates[self.ids[&f.key]];
            }
            self.scratch.forget();
        } else {
            max_min_rates_csr(
                &self.active,
                &self.offsets,
                &self.data,
                &self.channels.capacities,
                &mut self.scratch,
                &mut self.rates,
            );
        }

        // --- Completion rounds on the local subproblem. ---
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.sizes);
        let mut time = 0.0f64;
        let mut rounds = 1usize;
        loop {
            let retired = &mut self.retired;
            retired.clear();
            time += complete_round(
                &mut self.active,
                &mut self.remaining,
                &self.rates,
                &self.sizes,
                |i| retired.push(i),
            );
            self.telemetry.emit(TelemetryEvent::SolverRound {
                round: rounds as u64,
                active_flows: self.active.len() as u64,
                retired: self.retired.len() as u64,
            });
            if self.active.is_empty() {
                break;
            }
            rounds += 1;
            max_min_rates_round(
                &self.active,
                &self.retired,
                &self.offsets,
                &self.data,
                &self.channels.capacities,
                &mut self.scratch,
                &mut self.rates,
            );
        }
        self.last_score = Some((time, rounds));
        DeltaScore {
            makespan: time,
            rounds,
            stats,
        }
    }

    /// Bring the lazily armed session in sync with `flows`: construct the
    /// incremental solver on first use, then apply only the symmetric
    /// difference between what the session holds and the new set (which may
    /// lag several large-diff sets behind).
    fn arm_session(&mut self, flows: &[DeltaFlow<'_>]) {
        if self.inc.is_none() {
            let mut inc = IncrementalMaxMin::new(&self.capacities);
            // Never fall back to a whole-set batch solve: the session's
            // point is that repairs stay proportional to the delta's
            // component, and the fallback re-solves every present flow
            // against the full fabric.
            inc.set_full_solve_fraction(1.0);
            inc.set_telemetry(self.telemetry.clone());
            self.inc = Some(inc);
        }
        self.removed_ids.clear();
        self.session_next.clear();
        let (mut ses, mut new) = (0usize, 0usize);
        while ses < self.session.len() || new < flows.len() {
            if new == flows.len()
                || (ses < self.session.len() && self.session[ses].0 < flows[new].key)
            {
                self.removed_ids.push(self.session[ses].1);
                ses += 1;
            } else if ses == self.session.len() || self.session[ses].0 > flows[new].key {
                let id = *self.ids.entry(flows[new].key).or_insert_with(|| {
                    let id = self.next_id;
                    self.next_id += 1;
                    id
                });
                self.inc
                    .as_mut()
                    .expect("constructed above")
                    .insert_flow(id, flows[new].path);
                self.session_next.push((flows[new].key, id));
                new += 1;
            } else {
                self.session_next.push(self.session[ses]);
                ses += 1;
                new += 1;
            }
        }
        let inc = self.inc.as_mut().expect("constructed above");
        inc.remove_flows(&self.removed_ids);
        std::mem::swap(&mut self.session, &mut self.session_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidSim;

    /// Reference: a fresh FluidSim over the same flows.
    fn reference(paths: &[Vec<ChannelId>], capacities: &[f64], gigabytes: f64) -> (f64, usize) {
        let sizes = vec![gigabytes; paths.len()];
        let mut sim = FluidSim::new(paths, capacities, &sizes);
        sim.run_to_completion();
        (sim.time(), sim.rounds())
    }

    fn score<'a>(
        scorer: &mut DeltaFluidScorer,
        keyed: &[(u64, &'a [ChannelId])],
        gigabytes: f64,
    ) -> DeltaScore {
        let flows: Vec<DeltaFlow<'a>> = keyed
            .iter()
            .map(|&(key, path)| DeltaFlow {
                key,
                path,
                gigabytes,
            })
            .collect();
        scorer.score_set(&flows)
    }

    #[test]
    fn successive_overlapping_sets_match_fresh_simulations_bit_for_bit() {
        let caps = vec![2.0, 3.0, 1.5, 4.0];
        let p0: Vec<ChannelId> = vec![0];
        let p1: Vec<ChannelId> = vec![0, 1];
        let p2: Vec<ChannelId> = vec![1, 2];
        let p3: Vec<ChannelId> = vec![3];
        let p4: Vec<ChannelId> = vec![2, 3];
        let sets: Vec<Vec<(u64, &[ChannelId])>> = vec![
            vec![(0, &p0), (1, &p1), (2, &p2)],
            vec![(0, &p0), (2, &p2), (3, &p3)],
            vec![(1, &p1), (2, &p2), (3, &p3), (4, &p4)],
            // Back to a previously seen set: pure reuse.
            vec![(0, &p0), (2, &p2), (3, &p3)],
        ];
        let mut scorer = DeltaFluidScorer::new(&caps);
        for set in &sets {
            let got = score(&mut scorer, set, 1.5);
            let paths: Vec<Vec<ChannelId>> = set.iter().map(|&(_, p)| p.to_vec()).collect();
            let (want_time, want_rounds) = reference(&paths, &caps, 1.5);
            assert_eq!(got.makespan.to_bits(), want_time.to_bits());
            assert_eq!(got.rounds, want_rounds);
            assert_eq!(got.stats.total_flows, set.len());
        }
    }

    #[test]
    fn identical_consecutive_sets_are_pure_reuse() {
        let caps = vec![1.0, 1.0];
        let p: Vec<ChannelId> = vec![0, 1];
        let q: Vec<ChannelId> = vec![1];
        let set: Vec<(u64, &[ChannelId])> = vec![(7, &p), (9, &q)];
        let mut scorer = DeltaFluidScorer::new(&caps);
        let first = score(&mut scorer, &set, 2.0);
        assert_eq!(first.stats.reused_flows, 0);
        let second = score(&mut scorer, &set, 2.0);
        assert_eq!(second.stats.reused_flows, 2);
        assert_eq!(first.makespan.to_bits(), second.makespan.to_bits());
        assert_eq!(first.rounds, second.rounds);
    }

    #[test]
    fn empty_paths_complete_at_time_zero() {
        let caps = vec![2.0];
        let empty: Vec<ChannelId> = vec![];
        let full: Vec<ChannelId> = vec![0];
        let mut scorer = DeltaFluidScorer::new(&caps);
        let only_empty: Vec<(u64, &[ChannelId])> = vec![(0, &empty)];
        let got = score(&mut scorer, &only_empty, 1.0);
        assert_eq!(got.makespan, 0.0);
        assert_eq!(got.rounds, 0);
        let mixed: Vec<(u64, &[ChannelId])> = vec![(0, &empty), (1, &full)];
        let got = score(&mut scorer, &mixed, 1.0);
        let paths = vec![vec![], vec![0]];
        let (want_time, want_rounds) = reference(&paths, &caps, 1.0);
        assert_eq!(got.makespan.to_bits(), want_time.to_bits());
        assert_eq!(got.rounds, want_rounds);
    }

    #[test]
    fn small_diffs_arm_the_shared_session_and_stay_bit_identical() {
        // Four channels, flow sets of four differing by one flow: small
        // enough diffs that round 1 runs through the incremental session,
        // with one large-diff set in the middle that bypasses (and
        // therefore lags) it.
        let caps = vec![2.0, 3.0, 1.5, 4.0];
        let p0: Vec<ChannelId> = vec![0];
        let p1: Vec<ChannelId> = vec![0, 1];
        let p2: Vec<ChannelId> = vec![1, 2];
        let p3: Vec<ChannelId> = vec![3];
        let p4: Vec<ChannelId> = vec![2, 3];
        let p5: Vec<ChannelId> = vec![1, 3];
        let sets: Vec<Vec<(u64, &[ChannelId])>> = vec![
            // Leader: everything is new, large diff, session stays unarmed.
            vec![(0, &p0), (1, &p1), (2, &p2), (3, &p3)],
            // One flow swapped: small diff, arms the session.
            vec![(0, &p0), (1, &p1), (2, &p2), (4, &p4)],
            // Another single swap: stays on the session.
            vec![(1, &p1), (2, &p2), (4, &p4), (5, &p5)],
            // Mostly new: large diff, bypasses the session (which lags).
            vec![(0, &p0), (3, &p3), (5, &p5)],
            // Small diff vs the previous set: re-arms from the lagged
            // session through one symmetric difference.
            vec![(0, &p0), (3, &p3), (4, &p4), (5, &p5)],
        ];
        let mut scorer = DeltaFluidScorer::new(&caps);
        let mut armed_at = None;
        for (step, set) in sets.iter().enumerate() {
            let got = score(&mut scorer, set, 1.5);
            let paths: Vec<Vec<ChannelId>> = set.iter().map(|&(_, p)| p.to_vec()).collect();
            let (want_time, want_rounds) = reference(&paths, &caps, 1.5);
            assert_eq!(got.makespan.to_bits(), want_time.to_bits(), "step {step}");
            assert_eq!(got.rounds, want_rounds, "step {step}");
            if scorer.session_flows() > 0 && armed_at.is_none() {
                armed_at = Some(step);
            }
        }
        assert_eq!(armed_at, Some(1), "the first single-flow swap arms");
        // The final small-diff set re-armed the session to its own flows.
        assert_eq!(scorer.session_flows(), 4);
        assert_eq!(scorer.live_flows(), 4);
    }

    #[test]
    fn warm_rounds_after_a_session_round_match_a_fresh_simulation() {
        // Distinct volumes give every set several rounds. The leader's
        // round 1 is a batch solve and its later rounds re-solve warm; the
        // second set differs by one flow, so the session serves its round
        // 1 and the kernel must not warm-start round 2 from the leader's
        // record.
        let caps = vec![2.0, 3.0, 1.5, 4.0, 2.5];
        let paths: Vec<Vec<ChannelId>> = vec![
            vec![0],
            vec![0, 1],
            vec![1, 2],
            vec![3],
            vec![2, 3, 4],
            vec![4],
            vec![1, 4],
        ];
        let sizes = [1.0, 2.5, 0.75, 3.0, 1.25, 2.0, 0.5];
        let sets: [&[usize]; 2] = [&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 4, 6]];
        let mut scorer = DeltaFluidScorer::new(&caps);
        for (step, keys) in sets.iter().enumerate() {
            let flows: Vec<DeltaFlow<'_>> = keys
                .iter()
                .map(|&k| DeltaFlow {
                    key: k as u64,
                    path: &paths[k],
                    gigabytes: sizes[k],
                })
                .collect();
            let got = scorer.score_set(&flows);
            let set_paths: Vec<Vec<ChannelId>> = keys.iter().map(|&k| paths[k].clone()).collect();
            let set_sizes: Vec<f64> = keys.iter().map(|&k| sizes[k]).collect();
            let mut fresh = FluidSim::new(&set_paths, &caps, &set_sizes);
            fresh.run_to_completion();
            assert!(
                fresh.rounds() >= 4,
                "step {step}: {} rounds",
                fresh.rounds()
            );
            assert_eq!(
                got.makespan.to_bits(),
                fresh.time().to_bits(),
                "step {step}"
            );
            assert_eq!(got.rounds, fresh.rounds(), "step {step}");
        }
        assert_eq!(
            scorer.session_flows(),
            6,
            "the second set ran on the session"
        );
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_keys_panic() {
        let caps = vec![1.0];
        let p: Vec<ChannelId> = vec![0];
        let mut scorer = DeltaFluidScorer::new(&caps);
        let bad: Vec<(u64, &[ChannelId])> = vec![(3, &p), (1, &p)];
        score(&mut scorer, &bad, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_volume_panics() {
        let caps = vec![1.0];
        let p: Vec<ChannelId> = vec![0];
        let mut scorer = DeltaFluidScorer::new(&caps);
        scorer.score_set(&[DeltaFlow {
            key: 0,
            path: &p,
            gigabytes: 0.0,
        }]);
    }
}
