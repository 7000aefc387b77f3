//! The hot-path span API and its thread-local event ring.

use crate::breakdown::StageBreakdown;
use crate::stage::Stage;
use std::cell::RefCell;
use std::time::Instant;

/// Ring capacity per thread. A steady-state packet generates roughly two
/// dozen events (two rounds × six pipeline stages, plus stream/serve
/// wrappers), so this holds a few hundred packets between drains; a
/// serve worker drains once per wakeup. On overflow the newest events
/// are counted as dropped rather than overwriting history — a profiling
/// gap is better surfaced than silently rotated away.
const RING_CAPACITY: usize = 8192;

#[derive(Clone, Copy)]
struct StageEvent {
    stage: Stage,
    nanos: u64,
}

struct Ring {
    events: Vec<StageEvent>,
    dropped: u64,
}

thread_local! {
    static RING: RefCell<Ring> = const {
        RefCell::new(Ring { events: Vec::new(), dropped: 0 })
    };
}

fn push(stage: Stage, nanos: u64) {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        if ring.events.len() < RING_CAPACITY {
            ring.events.push(StageEvent { stage, nanos });
        } else {
            ring.dropped += 1;
        }
    });
}

/// An RAII stage timer: started by [`span`], records its inclusive
/// elapsed wall time into the calling thread's event ring when dropped.
///
/// When tracing is disabled at construction the guard holds no clock
/// reading and its drop is a no-op — the whole span is one branch.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    stage: Stage,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            push(self.stage, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a timing span for `stage`, measured on the monotonic clock.
///
/// Bind the guard to a scoped name (`let _span = ...`) so it drops — and
/// records — at the end of the region being measured:
///
/// ```
/// use dhf_obs::{self as obs, Stage};
/// let _span = obs::span(Stage::MaskBuild);
/// // ... stage work ...
/// ```
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    SpanGuard { stage, started: if crate::enabled() { Some(Instant::now()) } else { None } }
}

/// Records an externally measured duration (in seconds) for `stage`.
///
/// For durations that don't bracket a scope — e.g. queue wait computed
/// from an enqueue timestamp. No-op when tracing is disabled; negative
/// and non-finite values are ignored.
#[inline]
pub fn record(stage: Stage, secs: f64) {
    if crate::enabled() && secs.is_finite() && secs >= 0.0 {
        push(stage, (secs * 1e9) as u64);
    }
}

/// Number of events waiting in the calling thread's ring.
///
/// Cheap (one thread-local borrow); lets owners skip taking their
/// aggregation lock when there is nothing to drain.
pub fn pending_events() -> usize {
    RING.with(|ring| ring.borrow().events.len())
}

/// Moves every event recorded on the calling thread into `breakdown`,
/// returning how many were drained. Overflow-dropped events are added to
/// the breakdown's [`dropped_events`](StageBreakdown::dropped_events)
/// tally and the ring is reset.
pub fn drain_thread_into(breakdown: &mut StageBreakdown) -> usize {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let n = ring.events.len();
        for ev in ring.events.drain(..) {
            breakdown.record(ev.stage, ev.nanos as f64 * 1e-9);
        }
        breakdown.add_dropped(ring.dropped);
        ring.dropped = 0;
        n
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate is process-wide, so tests that toggle it serialize on
    // this mutex; rings are per-thread, so each test drains only its own
    // events.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn span_records_when_enabled_and_not_when_disabled() {
        let _serial = GATE.lock().unwrap();
        let mut b = StageBreakdown::new();
        crate::set_enabled(false);
        {
            let _span = span(Stage::MaskBuild);
        }
        drain_thread_into(&mut b);
        let disabled_count = b.stage(Stage::MaskBuild).count();

        crate::set_enabled(true);
        {
            let _span = span(Stage::MaskBuild);
        }
        crate::set_enabled(false);
        let drained = drain_thread_into(&mut b);
        assert!(drained >= 1);
        assert!(b.stage(Stage::MaskBuild).count() > disabled_count);
    }

    #[test]
    fn record_filters_junk_durations() {
        let _serial = GATE.lock().unwrap();
        crate::set_enabled(true);
        record(Stage::QueueWait, -1.0);
        record(Stage::QueueWait, f64::NAN);
        record(Stage::QueueWait, f64::INFINITY);
        record(Stage::QueueWait, 2.5e-3);
        crate::set_enabled(false);
        let mut b = StageBreakdown::new();
        drain_thread_into(&mut b);
        assert_eq!(b.stage(Stage::QueueWait).count(), 1);
        let p50 = b.stage(Stage::QueueWait).percentile(50.0).unwrap();
        assert!((p50 - 2.5e-3).abs() < 1e-9, "p50 {p50}");
    }

    #[test]
    fn ring_overflow_is_counted_not_silently_rotated() {
        let _serial = GATE.lock().unwrap();
        crate::set_enabled(true);
        for _ in 0..(RING_CAPACITY + 10) {
            record(Stage::NnFit, 1e-6);
        }
        crate::set_enabled(false);
        let mut b = StageBreakdown::new();
        let drained = drain_thread_into(&mut b);
        // Other enabled-gate tests on this thread may have left a few
        // events behind; the ring still caps at RING_CAPACITY total.
        assert!(drained <= RING_CAPACITY);
        assert!(b.dropped_events() >= 10);
        assert_eq!(pending_events(), 0);
    }
}
