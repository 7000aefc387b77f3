//! One worker shard: its manager↔worker shared state and run loop.
//!
//! A shard owns the [`StreamingSeparator`]s of every session hashed onto
//! it and is the only thread that ever runs them, so each separator's
//! cached FFT plans and spectrogram buffers — and the worker thread's
//! thread-local planner behind `dhf_dsp`'s free functions — are reused
//! across all of the shard's sessions without any synchronization on the
//! separation hot path.
//!
//! Scheduling is batched: the worker takes the shard lock once, drains
//! *every* ready ingestion queue into a local work list, releases the
//! lock, and then processes each session's packets back to back. Clients
//! enqueue concurrently while the worker separates; consecutive packets
//! of one session run against hot per-session buffers.

use crate::session::{SessionKind, SessionShared};
use crate::telemetry::ShardCounters;
use crate::CloseOutcome;
use dhf_oximetry::{OximetryError, Spo2Sample, StreamingOximeter};
use dhf_stream::{StreamError, StreamingSeparator};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One queued ingest packet. For oximetry sessions `samples` carries λ1
/// and `samples2` the sample-aligned λ2 channel; separation packets leave
/// `samples2` empty.
#[derive(Debug)]
pub(crate) struct IngestItem {
    pub(crate) samples: Vec<f64>,
    pub(crate) samples2: Option<Vec<f64>>,
    pub(crate) tracks: Vec<Vec<f64>>,
    pub(crate) enqueued_at: Instant,
}

impl IngestItem {
    /// Logical stream samples in the packet (per channel — an oximetry
    /// packet's two channels advance the stream position together).
    fn len(&self) -> usize {
        self.samples.len()
    }
}

/// The per-session engine a worker drives: a bare streaming separator, or
/// the dual-wavelength oximeter built from two of them.
#[derive(Debug)]
pub(crate) enum Engine {
    /// Raw separation: one channel in, source blocks out.
    Separation(Box<StreamingSeparator>),
    /// Fetal oximetry: two channels in, SpO2 windows out.
    Oximetry(Box<StreamingOximeter>),
}

impl Engine {
    pub(crate) fn kind(&self) -> SessionKind {
        match self {
            Engine::Separation(_) => SessionKind::Separation,
            Engine::Oximetry(_) => SessionKind::Oximetry,
        }
    }

    /// FFT plans built by the engine's separation context(s) over the
    /// session's lifetime — constant after the first chunk of a steady
    /// stream, since every later chunk reuses the cached plans and the
    /// session's SoA spectrogram workspace.
    fn fft_plans_built(&self) -> usize {
        match self {
            Engine::Separation(sep) => sep.fft_plans_built(),
            Engine::Oximetry(ox) => ox.fft_plans_built(),
        }
    }

    /// Deep-prior fits the engine resumed warm (monotone over the
    /// session's lifetime; zero unless its config enables warm starting).
    fn warm_hits(&self) -> u64 {
        match self {
            Engine::Separation(sep) => sep.warm_hits(),
            Engine::Oximetry(ox) => ox.warm_hits(),
        }
    }

    /// Deep-prior fits the engine trained from scratch (monotone).
    fn cold_fits(&self) -> u64 {
        match self {
            Engine::Separation(sep) => sep.cold_fits(),
            Engine::Oximetry(ox) => ox.cold_fits(),
        }
    }
}

/// Lowers a worker-side oximetry failure to the mailbox's sticky
/// [`StreamError`]. Runtime failures are always separator errors
/// (`OximetryError::Stream`); the catch-all covers validation variants
/// that cannot occur past the manager's synchronous checks.
fn oximetry_stream_error(e: OximetryError) -> StreamError {
    match e {
        OximetryError::Stream(se) => se,
        other => StreamError::InvalidConfig { name: "oximetry", message: other.to_string() },
    }
}

/// A session's bounded ingestion queue (bounds enforced by the manager on
/// the push path; the worker only drains).
#[derive(Debug, Default)]
pub(crate) struct SessionQueue {
    pub(crate) items: VecDeque<IngestItem>,
    /// Samples currently queued (cached sum of item lengths).
    pub(crate) queued_samples: usize,
    /// Samples ever accepted into this queue — the session's absolute
    /// stream position for push-time validation messages.
    pub(crate) enqueued_total: usize,
}

/// Manager→worker commands. Session *data* does not travel as commands —
/// it flows through [`SessionQueue`]s — so the command queue stays short
/// and a slow separation never delays another session's enqueue.
pub(crate) enum Command {
    /// Register a freshly opened session. The engine was built (and
    /// validated) on the caller's thread and migrates here — the reason
    /// `StreamingSeparator` (and the oximeter wrapping two of them)
    /// carries a compile-time `Send` assertion. The engine's separators
    /// are boxed so the command enum stays small.
    Open { id: u64, engine: Engine, shared: Arc<SessionShared> },
    /// Close a session: run `leftovers` (the queue's remaining packets,
    /// removed by the manager in the same critical section that removed
    /// the queue), flush, and hand everything still unpolled back through
    /// `ack`.
    Close { id: u64, leftovers: Vec<IngestItem>, ack: Sender<CloseOutcome> },
}

/// State shared between the manager and one worker thread.
#[derive(Default)]
pub(crate) struct ShardShared {
    pub(crate) state: Mutex<ShardState>,
    pub(crate) cv: Condvar,
}

#[derive(Default)]
pub(crate) struct ShardState {
    pub(crate) commands: VecDeque<Command>,
    /// Ingestion queues keyed by session id. Created/removed by the
    /// manager (open/close), drained by the worker.
    pub(crate) queues: HashMap<u64, SessionQueue>,
    pub(crate) stop: bool,
}

/// A session as the worker sees it.
struct WorkerSession {
    engine: Engine,
    shared: Arc<SessionShared>,
    /// Set once a chunk separation fails; later packets are skipped (and
    /// counted as dropped) instead of grinding a broken stream.
    failed: bool,
    /// Samples the engine accepted (buffered), including the packet whose
    /// chunk failed. With `emitted`, closes the telemetry books: whatever
    /// was accepted but never emitted is reported as dropped at close.
    accepted: usize,
    /// Samples delivered to the mailbox (or handed back at close).
    emitted: usize,
    /// Samples skipped because the session had already failed — they
    /// never reached the engine, and are reported as dropped at close.
    skipped: usize,
    /// FFT plans already booked into the shard's `plans_built` gauge.
    /// Deltas are booked after every scheduling batch that ran this
    /// session (and once more at close, for anything the flush builds),
    /// so the fleet gauge tracks live sessions instead of staying flat
    /// at zero until the first close.
    plans_booked: usize,
    /// Warm fits already booked into the shard's `warm_hits` counter
    /// (delta booking, same scheme as `plans_booked`).
    warm_booked: u64,
    /// Cold fits already booked into the shard's `cold_fits` counter.
    cold_booked: u64,
}

/// Books any FFT plans the engine built since the last booking into the
/// shard's `plans_built` gauge. The engine's count is monotone, so the
/// delta is what this batch (or the close-time flush) actually added.
fn book_plan_delta(ws: &mut WorkerSession, counters: &ShardCounters) {
    let built = ws.engine.fft_plans_built();
    let delta = built.saturating_sub(ws.plans_booked);
    if delta > 0 {
        counters.plans_built.fetch_add(delta as u64, Ordering::Relaxed);
        ws.plans_booked = built;
    }
    let warm = ws.engine.warm_hits();
    let delta = warm.saturating_sub(ws.warm_booked);
    if delta > 0 {
        counters.warm_hits.fetch_add(delta, Ordering::Relaxed);
        ws.warm_booked = warm;
    }
    let cold = ws.engine.cold_fits();
    let delta = cold.saturating_sub(ws.cold_booked);
    if delta > 0 {
        counters.cold_fits.fetch_add(delta, Ordering::Relaxed);
        ws.cold_booked = cold;
    }
}

/// The worker run loop. Exits when `stop` is set and no commands remain.
pub(crate) fn run_worker(shared: Arc<ShardShared>, counters: Arc<ShardCounters>) {
    let mut sessions: HashMap<u64, WorkerSession> = HashMap::new();
    loop {
        let (commands, mut batches, stop) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                let ready = st.stop
                    || !st.commands.is_empty()
                    || st.queues.values().any(|q| !q.items.is_empty());
                if ready {
                    break;
                }
                st = shared.cv.wait(st).unwrap();
            }
            let commands: Vec<Command> = st.commands.drain(..).collect();
            let mut batches: Vec<(u64, Vec<IngestItem>)> = Vec::new();
            for (&id, q) in st.queues.iter_mut() {
                if !q.items.is_empty() {
                    q.queued_samples = 0;
                    batches.push((id, q.items.drain(..).collect()));
                }
            }
            (commands, batches, st.stop)
        };

        if stop && commands.is_empty() && batches.is_empty() {
            return;
        }

        // Commands in arrival order. An `Open` always precedes anything
        // else for its id; a `Close` carries its queue's leftovers
        // in-band, and a batch drained in the same critical section as a
        // `Close` is impossible (the close removed the queue first) — so
        // per-session ordering is preserved without cross-checks.
        for cmd in commands {
            match cmd {
                Command::Open { id, engine, shared } => {
                    let ws = WorkerSession {
                        engine,
                        shared,
                        failed: false,
                        accepted: 0,
                        emitted: 0,
                        skipped: 0,
                        plans_booked: 0,
                        warm_booked: 0,
                        cold_booked: 0,
                    };
                    sessions.insert(id, ws);
                }
                Command::Close { id, leftovers, ack } => {
                    let outcome = match sessions.remove(&id) {
                        Some(mut ws) => {
                            let out = close_session(&mut ws, leftovers, &counters);
                            // Drain before acking: a telemetry snapshot
                            // taken right after close() returns must see
                            // the spans the close just produced.
                            drain_spans(&counters);
                            out
                        }
                        // Unreachable through the manager API (the entry
                        // existed until this command), but don't wedge the
                        // caller if it ever happens.
                        None => CloseOutcome {
                            blocks: Vec::new(),
                            spo2: Vec::new(),
                            dropped_samples: 0,
                            error: None,
                        },
                    };
                    // A vanished caller is not the worker's problem.
                    let _ = ack.send(outcome);
                }
            }
        }

        // The batch: every ready session's packets, back to back per
        // session. Id order keeps scheduling reproducible run to run.
        batches.sort_unstable_by_key(|(id, _)| *id);
        if !batches.is_empty() {
            counters.batches_run.fetch_add(1, Ordering::Relaxed);
            counters.batch_sessions_hwm.observe(batches.len() as u64);
            counters
                .batch_packets_hwm
                .observe(batches.iter().map(|(_, items)| items.len() as u64).sum());
            let batch_span = dhf_obs::span(dhf_obs::Stage::BatchRun);
            for (id, items) in batches {
                // A batch can outlive its session only by racing a close,
                // and close drains the queue first — but stay defensive.
                if let Some(ws) = sessions.get_mut(&id) {
                    for item in items {
                        process_item(ws, item, &counters);
                    }
                    book_plan_delta(ws, &counters);
                }
            }
            drop(batch_span);
        }
        drain_spans(&counters);
    }
}

/// Moves the worker thread's accumulated span events into the shard's
/// stage breakdown. Called once per wakeup, after commands and batches —
/// the pending check keeps the no-tracing path lock-free.
fn drain_spans(counters: &ShardCounters) {
    if dhf_obs::pending_events() > 0 {
        dhf_obs::drain_thread_into(&mut counters.stages.lock().unwrap());
    }
}

/// Runs one ingest packet through its session's engine, delivers any
/// completed blocks (or SpO2 windows) to the mailbox, and records
/// telemetry. A packet arriving after the session failed is skipped
/// (tallied in `WorkerSession::skipped` for the close-time books and in
/// the shard's dropped counter immediately).
fn process_item(ws: &mut WorkerSession, item: IngestItem, counters: &ShardCounters) {
    // Queue wait is scheduling cost, real whether or not the engine runs.
    dhf_obs::record(dhf_obs::Stage::QueueWait, item.enqueued_at.elapsed().as_secs_f64());
    if ws.failed {
        ws.skipped += item.len();
        counters.dropped_samples.fetch_add(item.len() as u64, Ordering::Relaxed);
        return;
    }
    let track_refs: Vec<&[f64]> = item.tracks.iter().map(Vec::as_slice).collect();
    // The manager validated the packet, so an error here is a chunk
    // separation failure — which happens *after* the engine buffered the
    // samples. Either way the engine accepted them.
    ws.accepted += item.len();
    let run_span = dhf_obs::span(dhf_obs::Stage::EngineRun);
    match &mut ws.engine {
        Engine::Separation(sep) => match sep.push(&item.samples, &track_refs) {
            Ok(blocks) => {
                if !blocks.is_empty() {
                    let emitted: usize = blocks.iter().map(|b| b.len()).sum();
                    ws.emitted += emitted;
                    counters.samples_out.fetch_add(emitted as u64, Ordering::Relaxed);
                    counters.blocks_emitted.fetch_add(blocks.len() as u64, Ordering::Relaxed);
                    ws.shared.mailbox.lock().unwrap().blocks.extend(blocks);
                }
            }
            Err(e) => {
                ws.failed = true;
                ws.shared.mailbox.lock().unwrap().error = Some(e);
            }
        },
        Engine::Oximetry(ox) => {
            let lambda2 = item.samples2.as_deref().expect("oximetry packet carries two channels");
            match ox.push([&item.samples, lambda2], &track_refs) {
                Ok(updates) => {
                    // "Emitted" for an oximetry session is the separated
                    // front both wavelengths have reached — SpO2 windows
                    // can only close behind it, and the close-time books
                    // (accepted − emitted = dropped) stay meaningful.
                    let separated = ox.samples_separated();
                    let delta = separated.saturating_sub(ws.emitted);
                    if delta > 0 {
                        ws.emitted = separated;
                        counters.samples_out.fetch_add(delta as u64, Ordering::Relaxed);
                    }
                    deliver_spo2(ws, updates, counters);
                }
                Err(e) => {
                    ws.failed = true;
                    ws.shared.mailbox.lock().unwrap().error = Some(oximetry_stream_error(e));
                }
            }
        }
    }
    drop(run_span);
    counters.packets_processed.fetch_add(1, Ordering::Relaxed);
    counters.latency.lock().unwrap().record(item.enqueued_at.elapsed().as_secs_f64());
    counters.touch();
}

/// Hands completed SpO2 windows to the mailbox and books their trend
/// statistics.
fn deliver_spo2(ws: &mut WorkerSession, updates: Vec<Spo2Sample>, counters: &ShardCounters) {
    if updates.is_empty() {
        return;
    }
    counters.spo2_updates.fetch_add(updates.len() as u64, Ordering::Relaxed);
    {
        let mut stats = counters.spo2.lock().unwrap();
        for s in &updates {
            stats.record(s.spo2);
        }
    }
    ws.shared.mailbox.lock().unwrap().spo2.extend(updates);
}

/// Drains a closing session: leftovers, flush, mailbox.
fn close_session(
    ws: &mut WorkerSession,
    leftovers: Vec<IngestItem>,
    counters: &ShardCounters,
) -> CloseOutcome {
    for item in leftovers {
        process_item(ws, item, counters);
    }
    let mut flush_block = None;
    let mut flush_spo2 = Vec::new();
    // For a healthy oximetry flush the engine reports its uncoverable
    // tail directly (its post-flush progress marker is not usable for the
    // books — see `StreamingOximeter::flush` on gap handling).
    let mut oximetry_flush_dropped = None;
    if !ws.failed {
        match &mut ws.engine {
            Engine::Separation(sep) => match sep.flush() {
                Ok(fin) => flush_block = fin.block,
                Err(e) => {
                    ws.failed = true;
                    ws.shared.mailbox.lock().unwrap().error = Some(e);
                }
            },
            Engine::Oximetry(ox) => match ox.flush() {
                Ok(fin) => {
                    flush_spo2 = fin.samples;
                    oximetry_flush_dropped = Some(fin.dropped_samples);
                }
                Err(e) => {
                    ws.failed = true;
                    ws.shared.mailbox.lock().unwrap().error = Some(oximetry_stream_error(e));
                }
            },
        }
    }
    if let Some(b) = &flush_block {
        ws.emitted += b.len();
        counters.samples_out.fetch_add(b.len() as u64, Ordering::Relaxed);
        counters.blocks_emitted.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(dropped) = oximetry_flush_dropped {
        // The flush separated everything the engines accepted except the
        // too-short tail; account the remainder as emitted.
        let final_emitted = ws.accepted.saturating_sub(dropped);
        let delta = final_emitted.saturating_sub(ws.emitted);
        ws.emitted = final_emitted;
        counters.samples_out.fetch_add(delta as u64, Ordering::Relaxed);
    }
    deliver_spo2(ws, flush_spo2, counters);
    let mut mailbox = ws.shared.mailbox.lock().unwrap();
    let mut blocks = std::mem::take(&mut mailbox.blocks);
    let spo2 = std::mem::take(&mut mailbox.spo2);
    let error = mailbox.error.take();
    drop(mailbox);
    if let Some(b) = flush_block {
        blocks.push(b);
    }
    // Close the books: whatever the engine accepted but never emitted is
    // gone now. For a healthy session this is exactly the flush's
    // too-short-to-cover tail; for a failed one it also covers everything
    // stranded in the engine's buffers. `skipped` adds the packets that
    // never reached the engine after the failure (mid-stream and
    // close-time alike).
    let unflushed = ws.accepted.saturating_sub(ws.emitted);
    counters.dropped_samples.fetch_add(unflushed as u64, Ordering::Relaxed);
    // Book the residual plan-cache footprint (leftover packets or the
    // flush may have built plans since the last batch booking).
    book_plan_delta(ws, counters);
    CloseOutcome { blocks, spo2, dropped_samples: ws.skipped + unflushed, error }
}
