//! Zero-dependency stage tracing and profiling for the DHF pipeline.
//!
//! Answers "where does a separation round spend its time" at every layer
//! of the stack — from [`Stage::StftAnalysis`] inside `dhf_dsp` up to
//! [`Stage::BatchRun`] in `dhf_serve` — without dragging a tracing
//! framework into the dependency graph. The design budget is strict:
//!
//! - **std-only**: the one dependency is `dhf_metrics`, for the
//!   geometric-bucket [`LatencyHistogram`](dhf_metrics::LatencyHistogram)
//!   that backs per-stage aggregation.
//! - **Allocation-light**: a [`span`] records one `(stage, nanos)` event
//!   into a bounded thread-local ring; nothing is formatted, boxed, or
//!   sent anywhere on the hot path. Aggregation happens when an owner
//!   (a serve worker, a bench harness) drains its thread's ring into a
//!   [`StageBreakdown`].
//! - **Runtime-gated by one relaxed atomic**: with tracing disabled
//!   (the default) a span is a single relaxed load and a branch —
//!   measured well under 1% of pipeline throughput.
//!
//! ```
//! use dhf_obs::{self as obs, Stage, StageBreakdown};
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span(Stage::MaskBuild); // records on drop
//! }
//! obs::record(Stage::QueueWait, 1.5e-3); // pre-measured duration
//!
//! let mut breakdown = StageBreakdown::new();
//! obs::drain_thread_into(&mut breakdown);
//! obs::set_enabled(false);
//! assert_eq!(breakdown.stage(Stage::QueueWait).count(), 1);
//! ```

mod breakdown;
mod prom;
mod span;
mod stage;

pub use breakdown::StageBreakdown;
pub use prom::PromText;
pub use span::{drain_thread_into, pending_events, record, span, SpanGuard};
pub use stage::Stage;

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide tracing gate. Off by default: separation runs pay one
/// relaxed load + branch per span site until someone opts in.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently enabled: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide.
///
/// Takes effect on the next span site each thread passes (relaxed
/// ordering — a span already in flight on another thread may still
/// record).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
