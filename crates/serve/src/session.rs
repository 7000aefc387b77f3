//! Session identity, results, and the manager↔worker output mailbox.

use dhf_oximetry::Spo2Sample;
use dhf_stream::{StreamBlock, StreamError};
use std::sync::Mutex;

/// What a session computes: raw source separation, or the full oximetry
/// pipeline on top of it.
///
/// The kind is fixed at open time
/// ([`SessionManager::open`](crate::SessionManager::open) vs
/// [`open_oximetry`](crate::SessionManager::open_oximetry)) and selects
/// the matching push API; using the wrong one fails with
/// [`ServeError::KindMismatch`](crate::ServeError::KindMismatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// One mixed channel in, per-source separated blocks out.
    Separation,
    /// Two sample-aligned wavelength channels in, windowed SpO2 samples
    /// out (paper §4.3 — the fetal-oximetry end task).
    Oximetry,
}

impl std::fmt::Display for SessionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionKind::Separation => write!(f, "separation"),
            SessionKind::Oximetry => write!(f, "oximetry"),
        }
    }
}

/// Opaque handle of one open streaming session.
///
/// Ids are unique over a [`SessionManager`](crate::SessionManager)'s
/// lifetime and never reused, so a stale handle fails with
/// [`ServeError::UnknownSession`](crate::ServeError::UnknownSession)
/// instead of addressing somebody else's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Accepted-push acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushReceipt {
    /// Samples waiting in the session's ingestion queue after this push
    /// (including the pushed packet) — a live backpressure signal.
    pub queued_samples: usize,
}

/// Output collected by [`SessionManager::poll`](crate::SessionManager::poll).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionOutput {
    /// Separated blocks emitted since the previous poll, contiguous and in
    /// stream order (always empty for oximetry sessions).
    pub blocks: Vec<StreamBlock>,
    /// Windowed SpO2 estimates emitted since the previous poll, in stream
    /// order (always empty for separation sessions).
    pub spo2: Vec<Spo2Sample>,
    /// Sticky failure: a chunk separation failed on the worker. The
    /// session stays addressable (so this can be observed and the session
    /// closed), but further pushes are rejected.
    pub error: Option<StreamError>,
}

/// Result of closing a session: everything the stream still owed.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseOutcome {
    /// Blocks not yet polled, including the final flushed remainder
    /// (separation sessions only).
    pub blocks: Vec<StreamBlock>,
    /// SpO2 windows not yet polled, including those the final flush
    /// completed (oximetry sessions only).
    pub spo2: Vec<Spo2Sample>,
    /// Trailing samples the final flush could not cover (too short for one
    /// analysis window), plus any queued samples skipped because the
    /// session had already failed.
    pub dropped_samples: usize,
    /// The session's sticky failure, if it had one.
    pub error: Option<StreamError>,
}

impl CloseOutcome {
    /// Concatenates the outcome's blocks into one vector per source.
    pub fn into_sources(self) -> Vec<Vec<f64>> {
        let n_sources = self.blocks.first().map_or(0, |b| b.sources.len());
        let mut out = vec![Vec::new(); n_sources];
        for b in self.blocks {
            for (src, est) in b.sources.iter().enumerate() {
                out[src].extend_from_slice(est);
            }
        }
        out
    }
}

/// Worker→client mailbox, shared by `Arc`: the worker appends blocks as
/// chunks complete; `poll` drains them without touching the shard lock.
#[derive(Debug, Default)]
pub(crate) struct SessionShared {
    pub(crate) mailbox: Mutex<Mailbox>,
}

#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    pub(crate) blocks: Vec<StreamBlock>,
    pub(crate) spo2: Vec<Spo2Sample>,
    pub(crate) error: Option<StreamError>,
}
