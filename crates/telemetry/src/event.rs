//! The typed event schema and its fixed-width binary encoding.
//!
//! Every event encodes into the seven payload words of a ring slot:
//!
//! ```text
//! word 0   kind (low u32) | flags (high u32)
//! word 1   t_micros — microseconds since the emitting handle was created
//! words 2–6  five event-specific u64s (f64 fields via to_bits)
//! ```
//!
//! Unknown kinds decode to `None`, so an old `telemetry_tail` pointed at a
//! newer ring skips records it does not understand instead of crashing.

use crate::ring::PAYLOAD_WORDS;
use std::fmt;

/// Kind code for [`TelemetryEvent::SolverRepair`].
pub const KIND_SOLVER_REPAIR: u32 = 1;
/// Kind code for [`TelemetryEvent::SolverRound`].
pub const KIND_SOLVER_ROUND: u32 = 2;
/// Kind code for [`TelemetryEvent::EngineProgress`].
pub const KIND_ENGINE_PROGRESS: u32 = 3;
/// Kind code for [`TelemetryEvent::SweepSpecDone`].
pub const KIND_SWEEP_SPEC_DONE: u32 = 4;
/// Kind code for [`TelemetryEvent::RequestDone`].
pub const KIND_REQUEST_DONE: u32 = 5;
/// Kind code for [`TelemetryEvent::SpanBegin`].
pub const KIND_SPAN_BEGIN: u32 = 6;
/// Kind code for [`TelemetryEvent::SpanEnd`].
pub const KIND_SPAN_END: u32 = 7;
/// Kind code for [`TelemetryEvent::AdviceCandidate`].
pub const KIND_ADVICE_CANDIDATE: u32 = 8;

/// A request-kind label stored inline as 16 NUL-padded bytes, so
/// `RequestDone` needs no allocation and no string table.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct KindLabel([u8; 16]);

impl KindLabel {
    /// Build a label from a wire kind string, truncating to 16 bytes.
    /// Every kind the service protocol defines fits untruncated.
    pub fn new(kind: &str) -> Self {
        let mut bytes = [0u8; 16];
        let n = kind.len().min(16);
        bytes[..n].copy_from_slice(&kind.as_bytes()[..n]);
        KindLabel(bytes)
    }

    /// The label as a string (up to the first NUL). A ring written by a
    /// foreign process could hold arbitrary bytes; those render as
    /// `"<non-utf8>"` rather than failing.
    pub fn as_str(&self) -> &str {
        let end = self.0.iter().position(|&b| b == 0).unwrap_or(16);
        std::str::from_utf8(&self.0[..end]).unwrap_or("<non-utf8>")
    }

    fn to_words(self) -> [u64; 2] {
        [
            u64::from_le_bytes(self.0[..8].try_into().unwrap()),
            u64::from_le_bytes(self.0[8..].try_into().unwrap()),
        ]
    }

    fn from_words(words: [u64; 2]) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&words[0].to_le_bytes());
        bytes[8..].copy_from_slice(&words[1].to_le_bytes());
        KindLabel(bytes)
    }
}

impl From<&str> for KindLabel {
    fn from(kind: &str) -> Self {
        KindLabel::new(kind)
    }
}

impl fmt::Debug for KindLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for KindLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One record decoded from (or headed for) a telemetry ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// `IncrementalMaxMin::solve` finished a repair (or fell back to a full
    /// solve when the dirty region grew past the repair threshold).
    SolverRepair {
        /// Flows present in the solver when the repair ran.
        flows: u64,
        /// Channels marked dirty since the previous solve.
        dirty_channels: u64,
        /// Fraction of present flows whose rate the repair recomputed
        /// (1.0 when the solver fell back to a full solve).
        affected_fraction: f64,
        /// Whether the repair gave up and re-solved everything.
        fell_back: bool,
    },
    /// A `FluidSim` progress round completed.
    SolverRound {
        /// Round index within the current simulation.
        round: u64,
        /// Flows still active after the round.
        active_flows: u64,
        /// Flows retired by the round.
        retired: u64,
    },
    /// Periodic event-loop heartbeat from `Simulation::run`.
    EngineProgress {
        /// Events dispatched so far.
        events_processed: u64,
        /// Simulation clock, in simulated seconds.
        sim_time: f64,
    },
    /// One spec of a `run_sweep` / `run_allocation_sweep` finished.
    SweepSpecDone {
        /// Index of the spec within the sweep request.
        spec_idx: u64,
        /// Whether the spec produced a result (vs. an error).
        ok: bool,
        /// Wall-clock cost of the spec, microseconds.
        micros: u64,
    },
    /// The service finished answering one request.
    RequestDone {
        /// Wire kind of the request (`sweep`, `cluster_sim`, …).
        kind: KindLabel,
        /// Wall-clock cost of the request, microseconds.
        micros: u64,
        /// Whether the response came from the cache.
        cache_hit: bool,
        /// Whether the request was coalesced onto another in-flight
        /// computation of the same key (single-flight).
        coalesced: bool,
        /// Trace id of the request's span tree (0 when no ring was
        /// attached, or for records written by a pre-tracing build).
        trace_id: u64,
    },
    /// A causal span opened (the write side of `Telemetry::span`). Its
    /// `t_micros` is the span's begin time.
    SpanBegin {
        /// Trace the span belongs to; the root span's id doubles as the
        /// trace id.
        trace_id: u64,
        /// This span's id, unique within the writer process.
        span_id: u64,
        /// Enclosing span's id; 0 for a trace root.
        parent_span_id: u64,
        /// Phase label (`request`, `compute`, `fluid_solve`, …).
        label: KindLabel,
    },
    /// A causal span closed. Its `t_micros` is the span's end time; the
    /// record repeats the identity fields of its `SpanBegin` so a tree can
    /// still be reconstructed when the begin record was lapped.
    SpanEnd {
        /// Trace the span belongs to.
        trace_id: u64,
        /// This span's id.
        span_id: u64,
        /// Enclosing span's id; 0 for a trace root.
        parent_span_id: u64,
        /// Phase label, repeated from the begin record.
        label: KindLabel,
        /// Span duration in microseconds, saturated to 32 bits (~71
        /// minutes) — the fallback when the matching begin was lapped.
        dur_micros: u32,
    },
    /// The advice sweep scored one distinct candidate allocation.
    AdviceCandidate {
        /// Flows carried over from the previously scored candidate: 0, since
        /// every candidate is scored afresh (kept for the event layout).
        reused_flows: u64,
        /// Flows in the candidate's all-to-all exchange.
        total_flows: u64,
    },
}

impl TelemetryEvent {
    /// Convenience constructor for [`TelemetryEvent::RequestDone`] with no
    /// associated trace (trace id 0).
    pub fn request_done(kind: &str, micros: u64, cache_hit: bool, coalesced: bool) -> Self {
        TelemetryEvent::RequestDone {
            kind: KindLabel::new(kind),
            micros,
            cache_hit,
            coalesced,
            trace_id: 0,
        }
    }

    /// The event's kind code (`KIND_*`).
    pub fn kind(&self) -> u32 {
        match self {
            TelemetryEvent::SolverRepair { .. } => KIND_SOLVER_REPAIR,
            TelemetryEvent::SolverRound { .. } => KIND_SOLVER_ROUND,
            TelemetryEvent::EngineProgress { .. } => KIND_ENGINE_PROGRESS,
            TelemetryEvent::SweepSpecDone { .. } => KIND_SWEEP_SPEC_DONE,
            TelemetryEvent::RequestDone { .. } => KIND_REQUEST_DONE,
            TelemetryEvent::SpanBegin { .. } => KIND_SPAN_BEGIN,
            TelemetryEvent::SpanEnd { .. } => KIND_SPAN_END,
            TelemetryEvent::AdviceCandidate { .. } => KIND_ADVICE_CANDIDATE,
        }
    }

    /// The event's name as it appears in `telemetry_tail` output.
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::SolverRepair { .. } => "SolverRepair",
            TelemetryEvent::SolverRound { .. } => "SolverRound",
            TelemetryEvent::EngineProgress { .. } => "EngineProgress",
            TelemetryEvent::SweepSpecDone { .. } => "SweepSpecDone",
            TelemetryEvent::RequestDone { .. } => "RequestDone",
            TelemetryEvent::SpanBegin { .. } => "SpanBegin",
            TelemetryEvent::SpanEnd { .. } => "SpanEnd",
            TelemetryEvent::AdviceCandidate { .. } => "AdviceCandidate",
        }
    }

    /// Pack the event into a slot's payload words.
    pub fn encode(&self, t_micros: u64) -> [u64; PAYLOAD_WORDS] {
        let mut flags = 0u32;
        let mut body = [0u64; 5];
        match *self {
            TelemetryEvent::SolverRepair {
                flows,
                dirty_channels,
                affected_fraction,
                fell_back,
            } => {
                flags |= fell_back as u32;
                body[0] = flows;
                body[1] = dirty_channels;
                body[2] = affected_fraction.to_bits();
            }
            TelemetryEvent::SolverRound {
                round,
                active_flows,
                retired,
            } => {
                body[0] = round;
                body[1] = active_flows;
                body[2] = retired;
            }
            TelemetryEvent::EngineProgress {
                events_processed,
                sim_time,
            } => {
                body[0] = events_processed;
                body[1] = sim_time.to_bits();
            }
            TelemetryEvent::SweepSpecDone {
                spec_idx,
                ok,
                micros,
            } => {
                flags |= ok as u32;
                body[0] = spec_idx;
                body[1] = micros;
            }
            TelemetryEvent::RequestDone {
                kind,
                micros,
                cache_hit,
                coalesced,
                trace_id,
            } => {
                flags |= cache_hit as u32;
                flags |= (coalesced as u32) << 1;
                let label = kind.to_words();
                body[0] = label[0];
                body[1] = label[1];
                body[2] = micros;
                body[3] = trace_id;
            }
            TelemetryEvent::SpanBegin {
                trace_id,
                span_id,
                parent_span_id,
                label,
            } => {
                body[0] = trace_id;
                body[1] = span_id;
                body[2] = parent_span_id;
                let words = label.to_words();
                body[3] = words[0];
                body[4] = words[1];
            }
            TelemetryEvent::SpanEnd {
                trace_id,
                span_id,
                parent_span_id,
                label,
                dur_micros,
            } => {
                flags = dur_micros;
                body[0] = trace_id;
                body[1] = span_id;
                body[2] = parent_span_id;
                let words = label.to_words();
                body[3] = words[0];
                body[4] = words[1];
            }
            TelemetryEvent::AdviceCandidate {
                reused_flows,
                total_flows,
            } => {
                body[0] = reused_flows;
                body[1] = total_flows;
            }
        }
        let mut words = [0u64; PAYLOAD_WORDS];
        words[0] = self.kind() as u64 | ((flags as u64) << 32);
        words[1] = t_micros;
        words[2..].copy_from_slice(&body);
        words
    }

    /// Decode a slot's payload words back into `(t_micros, event)`.
    /// Returns `None` for unknown kind codes.
    pub fn decode(words: &[u64; PAYLOAD_WORDS]) -> Option<(u64, TelemetryEvent)> {
        let kind = words[0] as u32;
        let flags = (words[0] >> 32) as u32;
        let t_micros = words[1];
        let body = &words[2..];
        let event = match kind {
            KIND_SOLVER_REPAIR => TelemetryEvent::SolverRepair {
                flows: body[0],
                dirty_channels: body[1],
                affected_fraction: f64::from_bits(body[2]),
                fell_back: flags & 1 != 0,
            },
            KIND_SOLVER_ROUND => TelemetryEvent::SolverRound {
                round: body[0],
                active_flows: body[1],
                retired: body[2],
            },
            KIND_ENGINE_PROGRESS => TelemetryEvent::EngineProgress {
                events_processed: body[0],
                sim_time: f64::from_bits(body[1]),
            },
            KIND_SWEEP_SPEC_DONE => TelemetryEvent::SweepSpecDone {
                spec_idx: body[0],
                ok: flags & 1 != 0,
                micros: body[1],
            },
            KIND_REQUEST_DONE => TelemetryEvent::RequestDone {
                kind: KindLabel::from_words([body[0], body[1]]),
                micros: body[2],
                cache_hit: flags & 1 != 0,
                coalesced: flags & 2 != 0,
                trace_id: body[3],
            },
            KIND_SPAN_BEGIN => TelemetryEvent::SpanBegin {
                trace_id: body[0],
                span_id: body[1],
                parent_span_id: body[2],
                label: KindLabel::from_words([body[3], body[4]]),
            },
            KIND_SPAN_END => TelemetryEvent::SpanEnd {
                trace_id: body[0],
                span_id: body[1],
                parent_span_id: body[2],
                label: KindLabel::from_words([body[3], body[4]]),
                dur_micros: flags,
            },
            KIND_ADVICE_CANDIDATE => TelemetryEvent::AdviceCandidate {
                reused_flows: body[0],
                total_flows: body[1],
            },
            _ => return None,
        };
        Some((t_micros, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: TelemetryEvent) {
        let words = event.encode(123_456);
        let (t, back) = TelemetryEvent::decode(&words).expect("known kind");
        assert_eq!(t, 123_456);
        assert_eq!(back, event);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(TelemetryEvent::SolverRepair {
            flows: 4096,
            dirty_channels: 17,
            affected_fraction: 0.03125,
            fell_back: false,
        });
        roundtrip(TelemetryEvent::SolverRepair {
            flows: 1,
            dirty_channels: u64::MAX,
            affected_fraction: 1.0,
            fell_back: true,
        });
        roundtrip(TelemetryEvent::SolverRound {
            round: 9,
            active_flows: 100,
            retired: 3,
        });
        roundtrip(TelemetryEvent::EngineProgress {
            events_processed: 1 << 40,
            sim_time: 17.25,
        });
        roundtrip(TelemetryEvent::SweepSpecDone {
            spec_idx: 23,
            ok: true,
            micros: 55_000,
        });
        roundtrip(TelemetryEvent::request_done(
            "allocation_sweep",
            987,
            true,
            true,
        ));
        roundtrip(TelemetryEvent::request_done("sweep", 1, false, false));
        roundtrip(TelemetryEvent::RequestDone {
            kind: KindLabel::new("advise_fabric"),
            micros: 400_000,
            cache_hit: false,
            coalesced: false,
            trace_id: 0x1234_5678_9abc_def0,
        });
        roundtrip(TelemetryEvent::SpanBegin {
            trace_id: 42,
            span_id: 42,
            parent_span_id: 0,
            label: KindLabel::new("request"),
        });
        roundtrip(TelemetryEvent::SpanEnd {
            trace_id: 42,
            span_id: 43,
            parent_span_id: 42,
            label: KindLabel::new("compute"),
            dur_micros: u32::MAX,
        });
        roundtrip(TelemetryEvent::AdviceCandidate {
            reused_flows: 110,
            total_flows: 112,
        });
    }

    #[test]
    fn pre_tracing_request_done_decodes_with_zero_trace_id() {
        // A ring written by a build that predates span tracing leaves
        // body[3] zeroed; the decode must surface trace_id 0, not garbage.
        let mut words = TelemetryEvent::request_done("sweep", 9, true, false).encode(7);
        words[5] = 0;
        let (_, event) = TelemetryEvent::decode(&words).expect("known kind");
        match event {
            TelemetryEvent::RequestDone { trace_id, .. } => assert_eq!(trace_id, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_decodes_to_none() {
        let mut words = TelemetryEvent::request_done("sweep", 1, false, false).encode(0);
        words[0] = 0xdead | (7u64 << 32); // kind 0xdead does not exist
        assert!(TelemetryEvent::decode(&words).is_none());
    }

    #[test]
    fn label_truncates_and_displays() {
        let label = KindLabel::new("a-very-long-kind-name-indeed");
        assert_eq!(label.as_str(), "a-very-long-kind");
        assert_eq!(KindLabel::new("sweep").to_string(), "sweep");
        assert_eq!(format!("{:?}", KindLabel::new("x")), "\"x\"");
    }
}
