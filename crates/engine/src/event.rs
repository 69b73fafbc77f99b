//! Events and the deterministic event queue.
//!
//! An [`Event`] carries a typed payload — each simulation defines one payload
//! type (usually an enum) covering everything its components exchange, so
//! dispatch is a `match`, not a downcast. The [`EventQueue`] pops events in
//! `(time, id)` order: two events at the same instant pop in the order they
//! were scheduled, which makes every run bit-reproducible.
//!
//! # Queue kinds
//!
//! Two interchangeable cores implement that contract, selected by
//! [`QueueKind`] — an *execution* choice like the solver's
//! [`SolverMode`](crate::SolverMode), carried with it in an
//! [`Exec`](crate::Exec): it never appears in scenario specs or cache keys,
//! because the popped sequence is identical either way.
//!
//! * [`QueueKind::Heap`] — the classic binary min-heap. `O(log n)`
//!   push/pop; at millions of pending events every operation walks ~20
//!   cache-missing tree levels.
//! * [`QueueKind::Calendar`] — a bucketed calendar queue (Brown 1988, as in
//!   the dslab-family simulators). Time is cut into fixed-width windows;
//!   window `⌊time/width⌋` hashes into a power-of-two bucket array, and the
//!   queue walks windows in order, so push and pop are `O(1)` on the
//!   near-future band that discrete-event workloads live in. The bucket
//!   array resizes (and the width re-calibrates to `span/len`) as the
//!   pending population grows or shrinks.
//!
//! The calendar pops the same `(time, id)` sequence as the heap: an integer
//! *virtual index* is stored per entry (never re-derived from drifting float
//! state), window order follows time order because `⌊·/width⌋` is monotone,
//! and equal times land in the same window where the id breaks the tie.
//! `tests/queue_parity.rs` drives both cores through random schedules —
//! same-time bursts, re-entrant pushes, cancellations — and demands
//! identical pop order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a registered component (dense, assigned at registration).
pub type ComponentId = usize;

/// Unique event identifier (sequential from 0, also the tie-breaker).
pub type EventId = u64;

/// A scheduled occurrence with a typed payload.
#[derive(Debug, Clone)]
pub struct Event<P> {
    /// Unique identifier; earlier-scheduled events have smaller ids.
    pub id: EventId,
    /// Simulation time at which the event fires.
    pub time: f64,
    /// Component that scheduled the event.
    pub src: ComponentId,
    /// Component the event is delivered to.
    pub dest: ComponentId,
    /// The payload.
    pub payload: P,
}

/// Which pending-event structure an [`EventQueue`] uses.
///
/// Purely an execution choice: both kinds pop the identical `(time, id)`
/// sequence, so the choice never enters scenario specs or cache keys.
/// The default is [`QueueKind::Calendar`]; a computation picks another per
/// queue ([`EventQueue::with_kind`]), usually through
/// [`Exec::queue`](crate::Exec::queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary min-heap: `O(log n)` operations, the reference core.
    Heap,
    /// Bucketed calendar queue: `O(1)` operations on the near-future band.
    #[default]
    Calendar,
}

impl QueueKind {
    /// Stable label, e.g. for CLI flags and telemetry (`"heap"` /
    /// `"calendar"`).
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Heap => "heap",
            QueueKind::Calendar => "calendar",
        }
    }

    /// Inverse of [`QueueKind::label`]; `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "heap" => Some(QueueKind::Heap),
            "calendar" => Some(QueueKind::Calendar),
            _ => None,
        }
    }
}

/// Wrapper giving [`Event`] the min-heap ordering `(time, id)`.
struct Queued<P>(Event<P>);

impl<P> PartialEq for Queued<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl<P> Eq for Queued<P> {}

impl<P> Ord for Queued<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .0
            .time
            .total_cmp(&self.0.time)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

impl<P> PartialOrd for Queued<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Minimum (and initial) bucket count of the calendar; always a power of
/// two so the window-to-bucket map is a mask.
const MIN_BUCKETS: usize = 16;

/// A calendar entry: the event plus its *virtual index* (time window),
/// computed once at insert so later queries never re-derive it from float
/// state.
struct CalEntry<P> {
    vidx: i64,
    ev: Event<P>,
}

/// Bucketed calendar queue (see the module docs for the invariants).
struct Calendar<P> {
    /// Power-of-two array of unordered buckets; window `v` lives in bucket
    /// `v & (nbuckets - 1)` (two's-complement masking handles negative
    /// windows).
    buckets: Vec<Vec<CalEntry<P>>>,
    len: usize,
    /// Window width in simulation-time units; re-calibrated to `span/len`
    /// at every resize.
    width: f64,
    /// The earliest window that may still hold entries. Advanced past empty
    /// windows by the min-scan, pulled back by pushes into the past.
    cur_vidx: i64,
}

impl<P> Calendar<P> {
    fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            len: 0,
            width: 1.0,
            cur_vidx: 0,
        }
    }

    /// Time window of `time`. The `as i64` cast saturates on overflow,
    /// which keeps the map monotone even for extreme `time/width` ratios —
    /// saturated entries simply share one window and fall back to the
    /// in-window `(time, id)` scan.
    fn vidx_of(&self, time: f64) -> i64 {
        (time / self.width).floor() as i64
    }

    fn bucket_of(&self, vidx: i64) -> usize {
        (vidx as u64 & (self.buckets.len() as u64 - 1)) as usize
    }

    fn push(&mut self, ev: Event<P>) {
        let vidx = self.vidx_of(ev.time);
        // A push into the past (or the first push) re-anchors the scan
        // start; pushes into the future never move it.
        if self.len == 0 || vidx < self.cur_vidx {
            self.cur_vidx = vidx;
        }
        let b = self.bucket_of(vidx);
        self.buckets[b].push(CalEntry { vidx, ev });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Locate the minimum `(time, id)` entry, advancing `cur_vidx` past
    /// empty windows. Windows before `cur_vidx` are empty by invariant, and
    /// `⌊·/width⌋` is monotone, so the first non-empty window contains the
    /// global minimum (equal times share a window; the id breaks ties).
    fn min_pos(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        // One lap over the bucket array; each bucket hosts every nbuckets-th
        // window, so a full fruitless lap means the next occupied window is
        // far ahead — jump straight to the global minimum instead.
        for _ in 0..self.buckets.len() {
            let b = self.bucket_of(self.cur_vidx);
            let mut best: Option<(f64, EventId, usize)> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if e.vidx != self.cur_vidx {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((t, id, _)) => match e.ev.time.total_cmp(&t) {
                        Ordering::Less => true,
                        Ordering::Equal => e.ev.id < id,
                        Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((e.ev.time, e.ev.id, i));
                }
            }
            if let Some((_, _, i)) = best {
                return Some((b, i));
            }
            self.cur_vidx = self.cur_vidx.saturating_add(1);
        }
        let mut best: Option<(f64, EventId, usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((t, id, _, _)) => match e.ev.time.total_cmp(&t) {
                        Ordering::Less => true,
                        Ordering::Equal => e.ev.id < id,
                        Ordering::Greater => false,
                    },
                };
                if better {
                    best = Some((e.ev.time, e.ev.id, b, i));
                }
            }
        }
        let (_, _, b, i) = best.expect("len > 0 implies an entry exists");
        self.cur_vidx = self.buckets[b][i].vidx;
        Some((b, i))
    }

    fn peek_min(&mut self) -> Option<(f64, EventId)> {
        let (b, i) = self.min_pos()?;
        let e = &self.buckets[b][i];
        Some((e.ev.time, e.ev.id))
    }

    fn pop_min(&mut self) -> Option<Event<P>> {
        let (b, i) = self.min_pos()?;
        let entry = self.buckets[b].swap_remove(i);
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 8 {
            self.resize((self.buckets.len() / 2).max(MIN_BUCKETS));
        }
        Some(entry.ev)
    }

    /// Rebuild with `nbuckets` buckets, re-calibrating the window width to
    /// the current population (`span / len`, so an average window holds one
    /// entry) and recomputing every entry's window under the new width.
    fn resize(&mut self, nbuckets: usize) {
        let entries: Vec<CalEntry<P>> = self.buckets.iter_mut().flat_map(|b| b.drain(..)).collect();
        let mut min_t = f64::INFINITY;
        let mut max_t = f64::NEG_INFINITY;
        for e in &entries {
            min_t = min_t.min(e.ev.time);
            max_t = max_t.max(e.ev.time);
        }
        let width = if entries.is_empty() {
            1.0
        } else {
            (max_t - min_t) / entries.len() as f64
        };
        self.width = if width.is_finite() && width > 0.0 {
            width
        } else {
            1.0
        };
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        self.cur_vidx = 0;
        let mut min_vidx = i64::MAX;
        for e in entries {
            let vidx = self.vidx_of(e.ev.time);
            min_vidx = min_vidx.min(vidx);
            let b = self.bucket_of(vidx);
            self.buckets[b].push(CalEntry { vidx, ev: e.ev });
        }
        if self.len > 0 {
            self.cur_vidx = min_vidx;
        }
    }
}

/// The pending-event structure behind an [`EventQueue`].
enum QueueCore<P> {
    Heap(BinaryHeap<Queued<P>>),
    Calendar(Calendar<P>),
}

impl<P> QueueCore<P> {
    fn peek_key(&mut self) -> Option<(f64, EventId)> {
        match self {
            QueueCore::Heap(h) => h.peek().map(|Queued(e)| (e.time, e.id)),
            QueueCore::Calendar(c) => c.peek_min(),
        }
    }

    fn pop_min(&mut self) -> Option<Event<P>> {
        match self {
            QueueCore::Heap(h) => h.pop().map(|Queued(e)| e),
            QueueCore::Calendar(c) => c.pop_min(),
        }
    }

    fn push(&mut self, ev: Event<P>) {
        match self {
            QueueCore::Heap(h) => h.push(Queued(ev)),
            QueueCore::Calendar(c) => c.push(ev),
        }
    }
}

/// Deterministic pending-event queue.
///
/// Events pop in `(time, id)` order regardless of the underlying
/// [`QueueKind`]; cancellation is lazy (cancelled ids are skipped at pop
/// time), so `cancel` is O(1) and never touches the core structure.
pub struct EventQueue<P> {
    core: QueueCore<P>,
    /// Ids currently queued and not cancelled — the source of truth for
    /// `len` / `is_empty`, and the guard that keeps `cancel` of a delivered
    /// or unknown id a true no-op.
    pending: std::collections::HashSet<EventId>,
    cancelled: std::collections::HashSet<EventId>,
    next_id: EventId,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// An empty queue using the default [`QueueKind`].
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default())
    }

    /// An empty queue with an explicit core.
    pub fn with_kind(kind: QueueKind) -> Self {
        let core = match kind {
            QueueKind::Heap => QueueCore::Heap(BinaryHeap::new()),
            QueueKind::Calendar => QueueCore::Calendar(Calendar::new()),
        };
        Self {
            core,
            pending: std::collections::HashSet::new(),
            cancelled: std::collections::HashSet::new(),
            next_id: 0,
        }
    }

    /// Which core this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.core {
            QueueCore::Heap(_) => QueueKind::Heap,
            QueueCore::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Schedule an event at absolute `time`, returning its id.
    pub fn push(&mut self, time: f64, src: ComponentId, dest: ComponentId, payload: P) -> EventId {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id);
        self.core.push(Event {
            id,
            time,
            src,
            dest,
            payload,
        });
        id
    }

    /// Cancel a pending event. Cancelling an unknown or already-delivered id
    /// is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        if self.pending.remove(&id) {
            self.cancelled.insert(id);
        }
    }

    /// Remove and return the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<Event<P>> {
        while let Some(ev) = self.core.pop_min() {
            if self.cancelled.remove(&ev.id) {
                continue;
            }
            self.pending.remove(&ev.id);
            return Some(ev);
        }
        None
    }

    /// The time of the earliest non-cancelled pending event.
    pub fn next_time(&mut self) -> Option<f64> {
        while let Some((time, id)) = self.core.peek_key() {
            if self.cancelled.contains(&id) {
                self.core.pop_min();
                self.cancelled.remove(&id);
                continue;
            }
            return Some(time);
        }
        None
    }

    /// Number of pending (non-cancelled, undelivered) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH_KINDS: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

    #[test]
    fn queue_kind_labels_round_trip() {
        for kind in BOTH_KINDS {
            assert_eq!(QueueKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(QueueKind::from_label("splay"), None);
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
    }

    #[test]
    fn events_pop_in_time_order() {
        for kind in BOTH_KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.push(3.0, 0, 0, "c");
            q.push(1.0, 0, 0, "a");
            q.push(2.0, 0, 0, "b");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        for kind in BOTH_KINDS {
            let mut q = EventQueue::with_kind(kind);
            let first = q.push(1.0, 0, 0, "first");
            let second = q.push(1.0, 0, 0, "second");
            assert!(first < second);
            assert_eq!(q.pop().unwrap().payload, "first", "{kind:?}");
            assert_eq!(q.pop().unwrap().payload, "second", "{kind:?}");
        }
    }

    #[test]
    fn cancelled_events_are_skipped() {
        for kind in BOTH_KINDS {
            let mut q = EventQueue::with_kind(kind);
            let id = q.push(1.0, 0, 0, "gone");
            q.push(2.0, 0, 0, "kept");
            q.cancel(id);
            assert_eq!(q.len(), 1);
            assert_eq!(q.next_time(), Some(2.0), "{kind:?}");
            assert_eq!(q.pop().unwrap().payload, "kept");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn cancelling_a_delivered_id_does_not_hide_later_events() {
        for kind in BOTH_KINDS {
            let mut q = EventQueue::with_kind(kind);
            let id = q.push(1.0, 0, 0, "first");
            assert_eq!(q.pop().unwrap().payload, "first");
            q.cancel(id); // documented no-op: the event was already delivered
            q.push(2.0, 0, 0, "second");
            assert!(!q.is_empty());
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().payload, "second", "{kind:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, 0, 0, ());
    }

    #[test]
    fn calendar_survives_growth_shrink_and_past_pushes() {
        // Enough churn to force bucket growth, width re-calibration and a
        // shrink back down, with pushes landing before the current window.
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        let mut h = EventQueue::with_kind(QueueKind::Heap);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut times = Vec::new();
        for round in 0..4 {
            for _ in 0..200 {
                // Mix far-future, near-future and negative times, plus
                // repeats of an exact timestamp for tie-break coverage.
                let r = next();
                let t = match (times.len() + round) % 5 {
                    0 => 1e6 + r,
                    1 => -50.0 + r,
                    2 => 42.0, // exact collision burst
                    _ => r * 100.0,
                };
                times.push(t);
                q.push(t, 0, 0, times.len());
                h.push(t, 0, 0, times.len());
            }
            for _ in 0..150 {
                let a = q.pop().map(|e| (e.time, e.id));
                let b = h.pop().map(|e| (e.time, e.id));
                assert_eq!(a, b);
            }
        }
        // Drain fully: shrink path plus final ordering check.
        loop {
            let a = q.pop().map(|e| (e.time, e.id));
            let b = h.pop().map(|e| (e.time, e.id));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
