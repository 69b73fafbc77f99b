//! Event-driven scheduler simulation on the `netpart-engine` core.
//!
//! Job arrivals and completions are engine events instead of iterations of
//! a bespoke replay loop. The handler body performs, at every event time,
//! exactly the steps the legacy loop (kept as the reference model in
//! `tests/stack_parity.rs`) performs at every distinct event time —
//! complete everything due, admit everything due, then start queued jobs
//! FCFS — so the two produce identical [`JobOutcome`]s and [`RunMetrics`]
//! on identical inputs. Events at times the legacy loop never visits (e.g.
//! a second event in an already-processed batch) find nothing due and leave
//! the state untouched.
//!
//! The point of the port is composability: a scheduler expressed as an
//! engine [`Component`] can share a simulation with fabric traffic, failure
//! injectors or any other component, which the bespoke loop could not.

use crate::placement::OccupancyGrid;
use crate::placement::Placement;
use crate::policy::SchedPolicy;
use crate::simulator::{JobOutcome, RunMetrics};
use crate::trace::Job;
use netpart_engine::{Component, Context, Event, Exec, Simulation};
use netpart_machines::{BlueGeneQ, PartitionGeometry};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Events of the scheduler scenario. Both variants are pure wake-ups: the
/// handler re-derives what is due from its own state, which is what makes
/// duplicate events at one instant harmless.
#[derive(Debug, Clone)]
enum SchedEvent {
    /// A job reached its submission time.
    Arrival,
    /// Some running job reached its completion time.
    Completion,
}

#[derive(Debug, Clone)]
struct Running {
    completion: f64,
    placement: Placement,
    outcome: JobOutcome,
}

struct EngineScheduler {
    machine: BlueGeneQ,
    policy: SchedPolicy,
    grid: OccupancyGrid,
    /// Feasible jobs not yet submitted, in arrival order.
    arrivals: VecDeque<Job>,
    /// Submitted jobs waiting for a placement, FCFS.
    queue: VecDeque<Job>,
    running: Vec<Running>,
    outcomes: Rc<RefCell<Vec<JobOutcome>>>,
    busy_midplane_seconds: Rc<RefCell<f64>>,
    last_event: f64,
}

impl EngineScheduler {
    /// The legacy loop body at one event time: account utilization, retire
    /// due completions, admit due arrivals, start queued jobs FCFS.
    fn process(&mut self, now: f64, ctx: &mut Context<'_, SchedEvent>) {
        // Account utilization since the previous event.
        *self.busy_midplane_seconds.borrow_mut() +=
            self.grid.busy_midplanes() as f64 * (now - self.last_event);
        self.last_event = now;

        // Complete every job finishing at the current time.
        let mut finished: Vec<usize> = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.completion <= now + 1e-9)
            .map(|(i, _)| i)
            .collect();
        finished.sort_unstable_by(|a, b| b.cmp(a));
        for idx in finished {
            let done = self.running.swap_remove(idx);
            self.grid.release(&done.placement);
            self.outcomes.borrow_mut().push(done.outcome);
        }

        // Admit arrivals that have happened by now.
        while self
            .arrivals
            .front()
            .map(|j| j.arrival <= now + 1e-9)
            .unwrap_or(false)
        {
            self.queue
                .push_back(self.arrivals.pop_front().expect("front checked"));
        }

        // Try to start queued jobs in FCFS order; stop at the first job the
        // policy does not want to (or cannot) start to preserve ordering.
        while let Some(job) = self.queue.front() {
            match self.policy.choose_placement(&self.machine, &self.grid, job) {
                Some(placement) => {
                    let job = self.queue.pop_front().expect("front checked");
                    let geometry = placement.geometry();
                    let best_links = self
                        .machine
                        .geometries(job.midplanes)
                        .iter()
                        .map(PartitionGeometry::bisection_links)
                        .max()
                        .expect("size was checked feasible");
                    let runtime = job.runtime_on(geometry.bisection_links(), best_links);
                    self.grid.allocate(&placement);
                    self.running.push(Running {
                        completion: now + runtime,
                        outcome: JobOutcome {
                            job_id: job.id,
                            arrival: job.arrival,
                            start: now,
                            completion: now + runtime,
                            runtime,
                            runtime_on_optimal: job.runtime_on_optimal,
                            geometry,
                            bisection_links: placement.geometry().bisection_links(),
                            optimal_bisection_links: best_links,
                        },
                        placement,
                    });
                    ctx.emit_self(SchedEvent::Completion, runtime);
                }
                None => break,
            }
        }
    }
}

impl Component<SchedEvent> for EngineScheduler {
    fn on_event(&mut self, event: Event<SchedEvent>, ctx: &mut Context<'_, SchedEvent>) {
        let (SchedEvent::Arrival | SchedEvent::Completion) = event.payload;
        self.process(ctx.time(), ctx);
    }
}

/// Simulate a trace on a machine under a policy, event-driven.
///
/// Jobs whose size is infeasible on the machine are skipped (they do not
/// appear in the outcomes); everything else runs to completion.
pub fn simulate_events(machine: &BlueGeneQ, policy: SchedPolicy, trace: &[Job]) -> RunMetrics {
    simulate_events_with(machine, policy, trace, Exec::default())
}

/// [`simulate_events`] with the event loop on `exec.queue` (every kind
/// gives identical metrics), emitting progress heartbeats through
/// `exec.telemetry`; the replay runs no fluid simulation to use `exec.solver`.
pub fn simulate_events_with(
    machine: &BlueGeneQ,
    policy: SchedPolicy,
    trace: &[Job],
    exec: impl Into<Exec>,
) -> RunMetrics {
    let exec = exec.into();
    let arrivals: VecDeque<Job> = trace
        .iter()
        .filter(|j| !machine.geometries(j.midplanes).is_empty())
        .cloned()
        .collect();
    let outcomes = Rc::new(RefCell::new(Vec::new()));
    let busy = Rc::new(RefCell::new(0.0f64));
    let mut sim = Simulation::with_queue_kind(exec.queue);
    sim.set_telemetry(exec.telemetry);
    let scheduler = EngineScheduler {
        grid: OccupancyGrid::new(machine),
        machine: machine.clone(),
        policy,
        queue: VecDeque::new(),
        running: Vec::new(),
        outcomes: Rc::clone(&outcomes),
        busy_midplane_seconds: Rc::clone(&busy),
        last_event: 0.0,
        arrivals: arrivals.clone(),
    };
    let sched_id = sim.add_component("scheduler", Box::new(scheduler));
    for job in &arrivals {
        sim.schedule(job.arrival, sched_id, SchedEvent::Arrival);
    }
    sim.run();
    drop(sim);

    let mut outcomes = Rc::try_unwrap(outcomes)
        .expect("scheduler dropped with the simulation")
        .into_inner();
    outcomes.sort_by(|a, b| a.completion.total_cmp(&b.completion));
    let makespan = outcomes.last().map(|o| o.completion).unwrap_or(0.0);
    let capacity = machine.num_midplanes() as f64 * makespan;
    let busy_midplane_seconds = *busy.borrow();
    RunMetrics {
        policy: policy.label(),
        outcomes,
        makespan,
        utilization: if capacity > 0.0 {
            busy_midplane_seconds / capacity
        } else {
            0.0
        },
    }
}

// Parity with the deleted bespoke replay loop is guarded by
// `tests/stack_parity.rs`, which keeps that loop as an executable reference
// model and replays random traces against `simulate_events`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_trace, TraceConfig};
    use netpart_machines::known;

    #[test]
    fn saturated_machine_runs_every_feasible_job_once() {
        // Heavy load exercises queueing, batched completions and the FCFS
        // head-of-line blocking path.
        let juqueen = known::juqueen();
        let mut config = TraceConfig::default_for(&juqueen, 200, 31);
        config.mean_interarrival = 30.0;
        config.contention_bound_fraction = 1.0;
        let trace = generate_trace(&config);
        let policy = SchedPolicy::HintAware { tolerance: 0.99 };
        let metrics = simulate_events(&juqueen, policy, &trace);
        assert_eq!(metrics.outcomes.len(), trace.len());
        let mut ids: Vec<usize> = metrics.outcomes.iter().map(|o| o.job_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
        assert!(metrics.utilization > 0.0 && metrics.utilization <= 1.0);
        for o in &metrics.outcomes {
            assert!(o.start >= o.arrival - 1e-9);
            assert!(o.completion > o.start);
        }
    }

    #[test]
    fn empty_trace_gives_empty_metrics() {
        let metrics = simulate_events(&known::mira(), SchedPolicy::BestAvailableBisection, &[]);
        assert!(metrics.outcomes.is_empty());
        assert_eq!(metrics.makespan, 0.0);
        assert_eq!(metrics.utilization, 0.0);
    }
}
