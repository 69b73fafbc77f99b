//! The workspace's observability spine: a lock-free mmap event ring and the
//! cheap [`Telemetry`] handle every layer writes through.
//!
//! Following the OLAP tradeoff the roadmap cites (store raw, aggregate at
//! read time), the hot path appends raw fixed-width binary records to a
//! file-backed ring ([`ring`]) and all shaping — human text, JSON lines,
//! aggregates — happens in readers like `telemetry_tail`. Emitting an event
//! costs a handful of relaxed atomic stores; emitting with telemetry
//! disabled costs one branch on an `Option`.
//!
//! # Quick start
//!
//! ```
//! use netpart_telemetry::{ReadOutcome, RingReader, Telemetry, TelemetryEvent};
//!
//! let path = std::env::temp_dir().join(format!("np-doc-{}.ring", std::process::id()));
//! # let _ = std::fs::remove_file(&path);
//! let telemetry = Telemetry::to_ring(&path, 1024).unwrap();
//! telemetry.emit(TelemetryEvent::SweepSpecDone { spec_idx: 0, ok: true, micros: 42 });
//!
//! let reader = RingReader::open(&path).unwrap();
//! let ReadOutcome::Record(words) = reader.read(0) else { panic!("published") };
//! let (_t, event) = TelemetryEvent::decode(&words).unwrap();
//! assert!(matches!(event, TelemetryEvent::SweepSpecDone { spec_idx: 0, ok: true, .. }));
//! # std::fs::remove_file(&path).unwrap();
//! ```
//!
//! The handle clones like an `Arc` and a disabled handle
//! ([`Telemetry::disabled`], also `Default`) is a single `None` — structs
//! can hold one unconditionally. [`Telemetry::counters_only`] keeps the
//! solver aggregate counters (surfaced by the service's `stats` endpoint)
//! without any ring file.

#![warn(missing_docs)]

pub mod event;
pub mod ring;
pub mod trace;

pub use event::{
    KindLabel, TelemetryEvent, KIND_ADVICE_CANDIDATE, KIND_ENGINE_PROGRESS, KIND_REQUEST_DONE,
    KIND_SOLVER_REPAIR, KIND_SOLVER_ROUND, KIND_SPAN_BEGIN, KIND_SPAN_END, KIND_SWEEP_SPEC_DONE,
};
pub use ring::{ReadOutcome, RingReader, RingWriter};
pub use trace::{SpanNode, TraceForest, TraceRecord};

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default ring capacity (slots) when the caller does not pick one:
/// 64 Ki slots × 64 B = a 4 MiB file holding the last 65 536 events.
pub const DEFAULT_RING_CAPACITY: u64 = 64 * 1024;

/// `EngineProgress` cadence: one heartbeat per this many simulation events.
/// Power of two so the engine's cadence check stays a mask.
pub const DEFAULT_PROGRESS_EVERY: u64 = 4096;

/// Span ids, unique within (and with high probability across) writer
/// processes: a monotone counter seeded from the wall clock and pid, so a
/// server restarting into an adopted ring does not reuse ids still present
/// in old records. Id 0 is reserved for "none" (no parent / no trace).
fn next_span_id() -> u64 {
    static COUNTER: OnceLock<AtomicU64> = OnceLock::new();
    let counter = COUNTER.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0x9e37_79b9_7f4a_7c15, |d| d.as_nanos() as u64);
        AtomicU64::new(nanos.rotate_left(20) ^ u64::from(std::process::id()))
    });
    loop {
        let id = counter.fetch_add(1, Ordering::Relaxed);
        if id != 0 {
            return id;
        }
    }
}

#[derive(Debug, Default)]
struct SolverCounters {
    repairs: AtomicU64,
    full_solves: AtomicU64,
    rounds: AtomicU64,
    advice_reused_flows: AtomicU64,
    advice_total_flows: AtomicU64,
}

/// Point-in-time copy of the solver aggregates a handle has accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Incremental repairs that stayed incremental.
    pub solver_repairs: u64,
    /// Repairs that fell back to a full solve.
    pub solver_full_solves: u64,
    /// Fluid-simulation rounds completed.
    pub solver_rounds: u64,
    /// Advice flows carried over between scored candidates. Reads 0: the
    /// advice path scores every candidate afresh.
    pub advice_reused_flows: u64,
    /// Advice flows scored in total.
    pub advice_total_flows: u64,
}

#[derive(Debug)]
struct Inner {
    ring: Option<RingWriter>,
    epoch: Instant,
    counters: SolverCounters,
}

impl Inner {
    fn new(ring: Option<RingWriter>) -> Self {
        Inner {
            ring,
            epoch: Instant::now(),
            counters: SolverCounters::default(),
        }
    }
}

impl Inner {
    fn record(&self, event: TelemetryEvent) {
        match event {
            TelemetryEvent::SolverRepair { fell_back, .. } => {
                let counter = if fell_back {
                    &self.counters.full_solves
                } else {
                    &self.counters.repairs
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            TelemetryEvent::SolverRound { .. } => {
                self.counters.rounds.fetch_add(1, Ordering::Relaxed);
            }
            TelemetryEvent::AdviceCandidate {
                reused_flows,
                total_flows,
            } => {
                self.counters
                    .advice_reused_flows
                    .fetch_add(reused_flows, Ordering::Relaxed);
                self.counters
                    .advice_total_flows
                    .fetch_add(total_flows, Ordering::Relaxed);
            }
            _ => {}
        }
        if let Some(ring) = &self.ring {
            let t_micros = self.epoch.elapsed().as_micros() as u64;
            ring.publish(&event.encode(t_micros));
        }
    }
}

/// Cheap, cloneable handle the whole stack emits events through.
///
/// Internally an `Option<Arc<_>>`: the disabled handle is `None`, so the
/// cost of instrumenting a hot loop that nobody is watching is one branch —
/// no allocation, no atomics, no syscalls.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    // Span context rides OUTSIDE the Arc, so cloning a handle into a child
    // phase carries the trace lineage without touching the shared state:
    // a clone is still just one refcount increment, never an allocation.
    ctx: SpanCtx,
}

/// The trace lineage a handle carries: which trace it is inside and which
/// span is the current parent. All-zero outside any span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanCtx {
    trace_id: u64,
    parent: u64,
}

impl Telemetry {
    /// A handle that drops every event (the `Default`).
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            ctx: SpanCtx::default(),
        }
    }

    /// A handle that maintains the [`CounterSnapshot`] aggregates but writes
    /// no ring file. The service uses this when `--telemetry-ring` is not
    /// given, so `stats` can still report solver behavior.
    pub fn counters_only() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::new(None))),
            ctx: SpanCtx::default(),
        }
    }

    /// A handle backed by a ring file at `path` (created, or adopted if a
    /// valid ring already exists there; see [`RingWriter::create`]).
    pub fn to_ring(path: impl AsRef<Path>, capacity: u64) -> io::Result<Self> {
        let ring = RingWriter::create(path, capacity)?;
        Ok(Telemetry {
            inner: Some(Arc::new(Inner::new(Some(ring)))),
            ctx: SpanCtx::default(),
        })
    }

    /// Whether events go anywhere at all (counters or ring).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events are written to a ring file.
    pub fn has_ring(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.ring.is_some())
    }

    /// Emit one event. Wait-free; a no-op (single branch) when disabled.
    #[inline]
    pub fn emit(&self, event: TelemetryEvent) {
        let Some(inner) = &self.inner else { return };
        inner.record(event);
    }

    /// Snapshot the solver aggregates; `None` for a disabled handle.
    pub fn counters(&self) -> Option<CounterSnapshot> {
        let inner = self.inner.as_ref()?;
        Some(CounterSnapshot {
            solver_repairs: inner.counters.repairs.load(Ordering::Relaxed),
            solver_full_solves: inner.counters.full_solves.load(Ordering::Relaxed),
            solver_rounds: inner.counters.rounds.load(Ordering::Relaxed),
            advice_reused_flows: inner.counters.advice_reused_flows.load(Ordering::Relaxed),
            advice_total_flows: inner.counters.advice_total_flows.load(Ordering::Relaxed),
        })
    }

    /// Sequence number the next ring record will get; `None` without a ring.
    pub fn ring_cursor(&self) -> Option<u64> {
        Some(self.inner.as_ref()?.ring.as_ref()?.cursor())
    }

    /// Microseconds elapsed since this handle's epoch (the timebase of every
    /// record it emits). 0 for a disabled handle.
    pub fn now_micros(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// The trace id this handle is inside, or 0 outside any span.
    pub fn trace_id(&self) -> u64 {
        self.ctx.trace_id
    }

    /// Open a causal span. The returned guard emits `SpanBegin` now and
    /// `SpanEnd` when dropped; [`Span::telemetry`] is a handle whose events
    /// (and child spans) are attributed to this span.
    ///
    /// Spans exist to be reconstructed from a ring, so a handle without one
    /// (disabled or counters-only) skips the records entirely — the guard
    /// still hands back a working handle, the hot path still pays only the
    /// usual single branch per child event.
    #[must_use = "a span ends when dropped; binding it to `_` ends it immediately"]
    pub fn span(&self, label: &str) -> Span {
        let recording = self.has_ring();
        if !recording {
            return Span {
                telemetry: self.clone(),
                span_id: 0,
                parent_span_id: 0,
                begin_micros: 0,
                label: KindLabel::new(label),
            };
        }
        let inner = self.inner.as_ref().expect("has_ring implies inner");
        let span_id = next_span_id();
        let trace_id = if self.ctx.trace_id == 0 {
            span_id // root span: its id doubles as the trace id
        } else {
            self.ctx.trace_id
        };
        let parent_span_id = self.ctx.parent;
        let label = KindLabel::new(label);
        let begin_micros = inner.epoch.elapsed().as_micros() as u64;
        if let Some(ring) = &inner.ring {
            let event = TelemetryEvent::SpanBegin {
                trace_id,
                span_id,
                parent_span_id,
                label,
            };
            ring.publish(&event.encode(begin_micros));
        }
        Span {
            telemetry: Telemetry {
                inner: self.inner.clone(),
                ctx: SpanCtx {
                    trace_id,
                    parent: span_id,
                },
            },
            span_id,
            parent_span_id,
            begin_micros,
            label,
        }
    }

    /// Emit a span retroactively: begin at `begin_micros` (a timestamp from
    /// [`Telemetry::now_micros`], captured earlier), end now. For phases
    /// whose existence is only known after the fact — e.g. a request that
    /// turns out to have waited on another in-flight computation.
    pub fn span_retro(&self, label: &str, begin_micros: u64) {
        let Some(inner) = &self.inner else { return };
        let Some(ring) = &inner.ring else { return };
        let end = inner.epoch.elapsed().as_micros() as u64;
        let begin = begin_micros.min(end);
        let span_id = next_span_id();
        let trace_id = if self.ctx.trace_id == 0 {
            span_id
        } else {
            self.ctx.trace_id
        };
        let label = KindLabel::new(label);
        ring.publish(
            &TelemetryEvent::SpanBegin {
                trace_id,
                span_id,
                parent_span_id: self.ctx.parent,
                label,
            }
            .encode(begin),
        );
        ring.publish(
            &TelemetryEvent::SpanEnd {
                trace_id,
                span_id,
                parent_span_id: self.ctx.parent,
                label,
                dur_micros: (end - begin).min(u64::from(u32::MAX)) as u32,
            }
            .encode(end),
        );
    }
}

/// RAII guard for one causal span: created by [`Telemetry::span`], emits the
/// matching `SpanEnd` on drop. Child work observes through
/// [`Span::telemetry`], which carries this span as its parent context.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    span_id: u64,
    parent_span_id: u64,
    begin_micros: u64,
    label: KindLabel,
}

impl Span {
    /// Handle whose events and child spans are attributed to this span.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Whether this span writes records (the parent handle had a ring).
    pub fn is_recording(&self) -> bool {
        self.span_id != 0
    }

    /// Trace id this span belongs to; 0 when not recording.
    pub fn trace_id(&self) -> u64 {
        if self.span_id == 0 {
            0
        } else {
            self.telemetry.ctx.trace_id
        }
    }

    /// This span's id; 0 when not recording.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.span_id == 0 {
            return;
        }
        let Some(inner) = &self.telemetry.inner else {
            return;
        };
        let Some(ring) = &inner.ring else { return };
        let end = inner.epoch.elapsed().as_micros() as u64;
        let event = TelemetryEvent::SpanEnd {
            trace_id: self.telemetry.ctx.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            label: self.label,
            dur_micros: end
                .saturating_sub(self.begin_micros)
                .min(u64::from(u32::MAX)) as u32,
        };
        ring.publish(&event.encode(end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.has_ring());
        t.emit(TelemetryEvent::SolverRound {
            round: 0,
            active_flows: 0,
            retired: 0,
        });
        assert_eq!(t.counters(), None);
        assert_eq!(t.ring_cursor(), None);
        assert!(!Telemetry::default().is_enabled());
    }

    #[test]
    fn counters_only_aggregates_without_ring() {
        let t = Telemetry::counters_only();
        assert!(t.is_enabled());
        assert!(!t.has_ring());
        t.emit(TelemetryEvent::SolverRepair {
            flows: 10,
            dirty_channels: 1,
            affected_fraction: 0.1,
            fell_back: false,
        });
        t.emit(TelemetryEvent::SolverRepair {
            flows: 10,
            dirty_channels: 9,
            affected_fraction: 1.0,
            fell_back: true,
        });
        t.emit(TelemetryEvent::SolverRound {
            round: 1,
            active_flows: 8,
            retired: 2,
        });
        t.emit(TelemetryEvent::AdviceCandidate {
            reused_flows: 40,
            total_flows: 56,
        });
        let clone = t.clone(); // clones share the same counters
        assert_eq!(
            clone.counters(),
            Some(CounterSnapshot {
                solver_repairs: 1,
                solver_full_solves: 1,
                solver_rounds: 1,
                advice_reused_flows: 40,
                advice_total_flows: 56,
            })
        );
        assert_eq!(t.ring_cursor(), None);
    }

    #[test]
    fn ring_handle_publishes_decodable_events() {
        let path = std::env::temp_dir().join(format!(
            "netpart-telemetry-handle-{}.ring",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::to_ring(&path, 256).unwrap();
        assert!(t.has_ring());
        t.emit(TelemetryEvent::request_done("sweep", 1234, false, true));
        assert_eq!(t.ring_cursor(), Some(1));

        let reader = RingReader::open(&path).unwrap();
        let ReadOutcome::Record(words) = reader.read(0) else {
            panic!("record 0 should be published");
        };
        let (_, event) = TelemetryEvent::decode(&words).unwrap();
        match event {
            TelemetryEvent::RequestDone {
                kind,
                micros,
                cache_hit,
                coalesced,
                trace_id,
            } => {
                assert_eq!(kind.as_str(), "sweep");
                assert_eq!(micros, 1234);
                assert!(!cache_hit);
                assert!(coalesced);
                assert_eq!(trace_id, 0);
            }
            other => panic!("unexpected event {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn drain(path: &std::path::Path) -> Vec<(u64, TelemetryEvent)> {
        let reader = RingReader::open(path).unwrap();
        let mut events = Vec::new();
        let mut seq = reader.oldest();
        loop {
            match reader.read(seq) {
                ReadOutcome::Record(words) => {
                    if let Some(decoded) = TelemetryEvent::decode(&words) {
                        events.push(decoded);
                    }
                    seq += 1;
                }
                ReadOutcome::Lapped { oldest } => seq = oldest.max(seq + 1),
                ReadOutcome::NotYetWritten => break,
            }
        }
        events
    }

    #[test]
    fn spans_nest_through_cloned_handles() {
        let path = std::env::temp_dir().join(format!(
            "netpart-telemetry-span-{}.ring",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::to_ring(&path, 256).unwrap();
        assert_eq!(t.trace_id(), 0);

        let root = t.span("request");
        assert!(root.is_recording());
        assert_eq!(root.trace_id(), root.span_id(), "root id doubles as trace");
        let child_handle = root.telemetry().clone(); // lineage rides the clone
        assert_eq!(child_handle.trace_id(), root.trace_id());
        let child = child_handle.span("compute");
        assert_eq!(child.trace_id(), root.trace_id());
        assert_ne!(child.span_id(), root.span_id());
        drop(child);
        drop(root);

        let events: Vec<_> = drain(&path).into_iter().map(|(_, e)| e).collect();
        assert_eq!(events.len(), 4, "two begins, two ends");
        let TelemetryEvent::SpanBegin {
            trace_id,
            span_id: root_id,
            parent_span_id,
            label,
        } = events[0]
        else {
            panic!("expected root SpanBegin, got {:?}", events[0]);
        };
        assert_eq!(trace_id, root_id);
        assert_eq!(parent_span_id, 0);
        assert_eq!(label.as_str(), "request");
        let TelemetryEvent::SpanBegin {
            span_id: child_id,
            parent_span_id: child_parent,
            ..
        } = events[1]
        else {
            panic!("expected child SpanBegin, got {:?}", events[1]);
        };
        assert_eq!(child_parent, root_id);
        // LIFO drop order: the child's end lands before the root's.
        assert!(
            matches!(events[2], TelemetryEvent::SpanEnd { span_id, .. } if span_id == child_id)
        );
        assert!(matches!(events[3], TelemetryEvent::SpanEnd { span_id, .. } if span_id == root_id));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spans_without_ring_emit_nothing_but_hand_back_working_handles() {
        let t = Telemetry::counters_only();
        let span = t.span("request");
        assert!(!span.is_recording());
        assert_eq!(span.trace_id(), 0);
        assert_eq!(span.span_id(), 0);
        // The guard's handle still aggregates counters.
        span.telemetry().emit(TelemetryEvent::SolverRound {
            round: 0,
            active_flows: 1,
            retired: 0,
        });
        drop(span);
        assert_eq!(t.counters().unwrap().solver_rounds, 1);

        let disabled = Telemetry::disabled();
        let span = disabled.span("request");
        assert!(!span.is_recording());
        assert!(!span.telemetry().is_enabled());
    }

    #[test]
    fn retro_span_brackets_the_captured_begin() {
        let path = std::env::temp_dir().join(format!(
            "netpart-telemetry-retro-{}.ring",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::to_ring(&path, 256).unwrap();
        let root = t.span("request");
        let begin = root.telemetry().now_micros();
        root.telemetry().span_retro("singleflight", begin);
        drop(root);

        let events = drain(&path);
        assert_eq!(events.len(), 4); // root begin, retro begin+end, root end
        let (t_begin, TelemetryEvent::SpanBegin { span_id, label, .. }) = events[1] else {
            panic!("expected retro SpanBegin, got {:?}", events[1]);
        };
        assert_eq!(label.as_str(), "singleflight");
        assert_eq!(t_begin, begin);
        let (
            t_end,
            TelemetryEvent::SpanEnd {
                span_id: end_id,
                dur_micros,
                ..
            },
        ) = events[2]
        else {
            panic!("expected retro SpanEnd, got {:?}", events[2]);
        };
        assert_eq!(end_id, span_id);
        assert_eq!(u64::from(dur_micros), t_end - t_begin);
        std::fs::remove_file(&path).unwrap();
    }
}
