//! The simulation driver: clock, component registry and dispatch loop.
//!
//! Components implement [`Component`] for the simulation's payload type and
//! are registered by name with [`Simulation::add_component`]. Delivering an
//! event hands the component a [`Context`] through which it can read the
//! clock and schedule (or cancel) further events; the driver advances the
//! clock monotonically to each event's timestamp.

use crate::event::{ComponentId, Event, EventId, EventQueue, QueueKind};
use netpart_telemetry::{Telemetry, TelemetryEvent, DEFAULT_PROGRESS_EVERY};

/// An event handler registered with a [`Simulation`].
///
/// The payload type `P` is shared by every component of one simulation;
/// scenario crates typically define one event enum per scenario.
pub trait Component<P> {
    /// Handle a delivered event. `ctx` exposes the clock and scheduling.
    fn on_event(&mut self, event: Event<P>, ctx: &mut Context<'_, P>);
}

/// Scheduling interface handed to a component while it handles an event.
pub struct Context<'a, P> {
    queue: &'a mut EventQueue<P>,
    now: f64,
    self_id: ComponentId,
}

impl<P> Context<'_, P> {
    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.now
    }

    /// The id of the component handling the current event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedule `payload` for `dest` after `delay` seconds.
    pub fn emit(&mut self, payload: P, dest: ComponentId, delay: f64) -> EventId {
        assert!(
            delay >= 0.0,
            "cannot schedule into the past (delay {delay})"
        );
        self.queue
            .push(self.now + delay, self.self_id, dest, payload)
    }

    /// Schedule `payload` for the handling component itself after `delay`.
    pub fn emit_self(&mut self, payload: P, delay: f64) -> EventId {
        self.emit(payload, self.self_id, delay)
    }

    /// Schedule `payload` for `dest` at absolute time `time` (≥ now).
    pub fn emit_at(&mut self, payload: P, dest: ComponentId, time: f64) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.queue.push(time, self.self_id, dest, payload)
    }

    /// Cancel a pending event by id (no-op if already delivered).
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }
}

/// A discrete-event simulation: a clock, an event queue and components.
pub struct Simulation<P> {
    queue: EventQueue<P>,
    components: Vec<Option<Box<dyn Component<P>>>>,
    names: Vec<String>,
    clock: f64,
    processed: u64,
    telemetry: Telemetry,
}

impl<P> Default for Simulation<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Simulation<P> {
    /// A fresh simulation with the clock at 0, using the default
    /// [`QueueKind`].
    pub fn new() -> Self {
        Self::with_queue_kind(QueueKind::default())
    }

    /// A fresh simulation with an explicit event-queue kind. Purely an
    /// execution choice — the delivered event sequence is identical for
    /// every kind (see [`QueueKind`]).
    pub fn with_queue_kind(kind: QueueKind) -> Self {
        Self {
            queue: EventQueue::with_kind(kind),
            components: Vec::new(),
            names: Vec::new(),
            clock: 0.0,
            processed: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Which event-queue kind this simulation runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Route a [`TelemetryEvent::EngineProgress`] heartbeat, one per
    /// [`DEFAULT_PROGRESS_EVERY`] delivered events, through `telemetry`, so
    /// a tail can watch a long event loop make progress without perturbing
    /// it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Register a component under `name`, returning its id (dense, in
    /// registration order).
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        component: Box<dyn Component<P>>,
    ) -> ComponentId {
        let id = self.components.len();
        self.components.push(Some(component));
        self.names.push(name.into());
        id
    }

    /// The name a component was registered under.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.names[id]
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an initial event from "outside" (source id = destination id)
    /// at absolute `time`.
    pub fn schedule(&mut self, time: f64, dest: ComponentId, payload: P) -> EventId {
        assert!(
            time >= self.clock,
            "cannot schedule into the past ({time} < {})",
            self.clock
        );
        self.queue.push(time, dest, dest, payload)
    }

    /// Deliver the earliest pending event. Returns `false` when the queue is
    /// empty.
    ///
    /// # Panics
    /// Panics if the event's destination id was never registered.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.clock = self.clock.max(event.time);
        self.processed += 1;
        if self.processed.is_multiple_of(DEFAULT_PROGRESS_EVERY) {
            self.telemetry.emit(TelemetryEvent::EngineProgress {
                events_processed: self.processed,
                sim_time: self.clock,
            });
        }
        let dest = event.dest;
        let mut component = self.components[dest]
            .take()
            .unwrap_or_else(|| panic!("component {dest} is not registered or re-entered"));
        let mut ctx = Context {
            queue: &mut self.queue,
            now: self.clock,
            self_id: dest,
        };
        component.on_event(event, &mut ctx);
        self.components[dest] = Some(component);
        true
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run while events remain at times `<= until`; the clock does not
    /// advance past the last delivered event.
    pub fn run_until(&mut self, until: f64) {
        while let Some(t) = self.queue.next_time() {
            if t > until {
                break;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, PartialEq)]
    enum Ping {
        Ping(u32),
        Stop,
    }

    /// Bounces a counter back to the sender until it reaches a limit,
    /// recording deliveries in a shared log (the idiom scenario components
    /// use to expose results after the run).
    struct Bouncer {
        limit: u32,
        log: SharedLog,
    }

    impl Component<Ping> for Bouncer {
        fn on_event(&mut self, event: Event<Ping>, ctx: &mut Context<'_, Ping>) {
            match event.payload {
                Ping::Ping(n) => {
                    self.log.borrow_mut().push((ctx.time(), n));
                    if n < self.limit {
                        ctx.emit(Ping::Ping(n + 1), event.src, 1.0);
                    } else {
                        ctx.emit(Ping::Stop, event.src, 0.0);
                    }
                }
                Ping::Stop => {}
            }
        }
    }

    type SharedLog = Rc<RefCell<Vec<(f64, u32)>>>;

    fn bouncer_pair(limit: u32) -> (Simulation<Ping>, ComponentId, SharedLog) {
        let mut sim = Simulation::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.add_component(
            "a",
            Box::new(Bouncer {
                limit,
                log: Rc::clone(&log),
            }),
        );
        let b = sim.add_component(
            "b",
            Box::new(Bouncer {
                limit,
                log: Rc::clone(&log),
            }),
        );
        assert_eq!(sim.component_name(a), "a");
        (sim, b, log)
    }

    #[test]
    fn ping_pong_advances_clock_deterministically() {
        let (mut sim, b, log) = bouncer_pair(3);
        sim.schedule(0.0, b, Ping::Ping(0));
        sim.run();
        // Pings at t = 0, 1, 2, 3 alternate components, then one Stop.
        assert_eq!(sim.time(), 3.0);
        assert_eq!(sim.events_processed(), 5);
        assert_eq!(*log.borrow(), vec![(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]);
    }

    #[test]
    fn run_until_stops_at_the_horizon() {
        let (mut sim, b, _log) = bouncer_pair(100);
        sim.schedule(0.0, b, Ping::Ping(0));
        sim.run_until(5.5);
        assert!(sim.time() <= 5.5);
        assert_eq!(sim.events_processed(), 6); // t = 0, 1, 2, 3, 4, 5
    }
}
