//! **DHF serving runtime** — multiplexing many concurrent streaming
//! separation sessions over a fixed pool of worker threads.
//!
//! [`dhf_stream::StreamingSeparator`] gives one bounded-latency session;
//! a wearable fleet needs thousands of them, and naively spawning one
//! thread per stream wastes cores on idle sessions and cold caches. This
//! crate adds the missing layer:
//!
//! ```text
//! clients ──► SessionManager ──hash(id)──► shard 0 [worker thread]
//!   open        │ bounded per-session     ├─ session a: StreamingSeparator
//!   push        │ ingestion queues        └─ session b: StreamingSeparator
//!   poll        ├──────────────────────► shard 1 [worker thread]
//!   close       │  Busy when full         └─ session c: ...
//!   shutdown    ▼  (backpressure)
//!            Telemetry: per-shard samples/sec, queue depths, latency p50/p95/p99
//! ```
//!
//! * **Sharding** — each session is hash-assigned to one worker at open
//!   and pinned for life. A worker is the only thread that ever runs its
//!   sessions' separators, so cached FFT plans, window tables, and
//!   spectrogram buffers (plus the worker thread's thread-local planner
//!   behind `dhf_dsp`'s free-function API) stay hot across all of the
//!   shard's sessions with zero synchronization on the separation path.
//! * **Batched scheduling** — a worker drains every ready queue in one
//!   lock acquisition and then separates packet after packet, session by
//!   session, while clients keep enqueuing concurrently.
//! * **Backpressure** — per-session bounded ingestion queues reject an
//!   overflowing push with [`ServeError::Busy`]; the client retries, and
//!   nothing already queued is touched. A packet longer than the whole
//!   queue is refused with [`ServeError::PacketTooLarge`] instead, since
//!   no retry could take it.
//! * **Telemetry** — [`Telemetry`] snapshots per-shard throughput, queue
//!   depth, and per-packet enqueue→processed latency percentiles backed by
//!   [`dhf_metrics::LatencyHistogram`].
//! * **Session kinds** — a session either serves raw separation
//!   ([`SessionManager::open`]: one channel in, source blocks out) or the
//!   paper's end task, transabdominal fetal oximetry
//!   ([`SessionManager::open_oximetry`]: two sample-aligned wavelength
//!   channels in via [`SessionManager::push_oximetry`], windowed SpO2
//!   estimates out in [`SessionOutput::spo2`], fleet-wide trend
//!   statistics in [`Spo2Stats`]).
//!
//! The runtime is std-only (`std::thread` + mutex/condvar) and
//! deterministic per session: a session's output depends only on the
//! samples it accepted, never on scheduling — the serve-vs-serial
//! property test asserts bit-identical equality against a plain
//! [`dhf_stream::StreamingSeparator`] run.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod manager;
mod session;
mod shard;
mod telemetry;

pub use config::ServeConfig;
pub use manager::{SessionManager, ShutdownReport};
pub use session::{CloseOutcome, PushReceipt, SessionId, SessionKind, SessionOutput};
pub use telemetry::{ShardSnapshot, Spo2Stats, Telemetry};

use dhf_oximetry::OximetryError;
use dhf_stream::StreamError;

/// Errors from the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A [`ServeConfig`] parameter was outside its valid domain.
    Config {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// The session id was never opened or has been closed.
    UnknownSession(SessionId),
    /// The request used the wrong API for the session's kind (e.g.
    /// [`SessionManager::push`](crate::SessionManager::push) on an
    /// oximetry session). Nothing was buffered.
    KindMismatch {
        /// The addressed session.
        session: SessionId,
        /// The session's actual kind.
        kind: SessionKind,
    },
    /// Synchronous open/push validation failed; nothing was buffered.
    Session(StreamError),
    /// Oximetry-specific open/push validation failed (bad
    /// [`dhf_oximetry::OximetryConfig`], or misaligned wavelength
    /// channels); nothing was buffered.
    Oximetry(OximetryError),
    /// The push would overflow the session's bounded ingestion queue,
    /// which still holds earlier packets. Retry after draining via
    /// [`SessionManager::poll`](crate::SessionManager::poll) or a pause.
    Busy {
        /// The backpressured session.
        session: SessionId,
        /// Samples already queued.
        queued_samples: usize,
        /// Samples the rejected push carried.
        incoming: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The packet alone is longer than the session's queue capacity, so
    /// no retry can succeed; split it into smaller packets. Nothing was
    /// buffered.
    PacketTooLarge {
        /// The addressed session.
        session: SessionId,
        /// Samples the rejected push carried.
        incoming: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// A chunk separation failed earlier on the worker; the sticky error
    /// is attached. The session still answers `poll`/`close`.
    SessionFailed {
        /// The failed session.
        session: SessionId,
        /// The failure recorded by the worker.
        error: StreamError,
    },
    /// A shard's worker thread terminated unexpectedly (a panic in the
    /// separation engine). Sessions on other shards are unaffected.
    WorkerLost {
        /// Index of the dead shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { name, message } => {
                write!(f, "invalid serving parameter `{name}`: {message}")
            }
            ServeError::UnknownSession(id) => write!(f, "{id} is not open"),
            ServeError::KindMismatch { session, kind } => {
                write!(f, "{session} is a {kind} session; use the matching push API")
            }
            ServeError::Session(e) => write!(f, "session rejected the request: {e}"),
            ServeError::Oximetry(e) => write!(f, "oximetry session rejected the request: {e}"),
            ServeError::Busy { session, queued_samples, incoming, capacity } => write!(
                f,
                "{session} is busy: {queued_samples} samples queued, push of {incoming} \
                 exceeds capacity {capacity}"
            ),
            ServeError::PacketTooLarge { session, incoming, capacity } => write!(
                f,
                "{session} cannot take a packet of {incoming} samples: the queue holds \
                 {capacity}"
            ),
            ServeError::SessionFailed { session, error } => {
                write!(f, "{session} failed: {error}")
            }
            ServeError::WorkerLost { shard } => write!(f, "worker for shard {shard} is gone"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session(e) | ServeError::SessionFailed { error: e, .. } => Some(e),
            ServeError::Oximetry(e) => Some(e),
            _ => None,
        }
    }
}
