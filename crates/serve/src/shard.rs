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
//!
//! Each shard has one lock, [`ShardShared::state`]: it guards the command
//! queue, the ingestion queues and the shard's telemetry, and no engine
//! code runs under it. The worker takes it once per wakeup to drain the
//! queues (counting the batch as it does), once per processed packet to
//! publish what the packet changed, and once more per wakeup only when
//! tracing left span events to merge. Clients take it to open, push,
//! close and snapshot telemetry. `poll` does not: finished output goes to
//! the session's own mailbox, so a client spinning on `poll` between
//! pushes never holds up the worker's drain and publishes or other
//! clients' pushes.

use crate::session::{SessionKind, SessionShared};
use crate::telemetry::ShardSnapshot;
use crate::CloseOutcome;
use dhf_obs::StageBreakdown;
use dhf_oximetry::{OximetryError, Spo2Sample, StreamingOximeter};
use dhf_stream::{StreamError, StreamingSeparator};
use std::collections::{HashMap, VecDeque};
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
pub(crate) struct ShardShared {
    /// The shard's one lock: its commands, ingestion queues and
    /// telemetry.
    pub(crate) state: Mutex<ShardState>,
    pub(crate) cv: Condvar,
    /// The manager's start instant. The worker stamps each finished
    /// packet against it, so last-activity times share the snapshot's
    /// clock.
    started: Instant,
}

impl ShardShared {
    pub(crate) fn new(started: Instant) -> Self {
        let state = ShardState {
            commands: VecDeque::new(),
            queues: HashMap::new(),
            stop: false,
            telemetry: ShardSnapshot::new(),
        };
        ShardShared { state: Mutex::new(state), cv: Condvar::new(), started }
    }
}

pub(crate) struct ShardState {
    pub(crate) commands: VecDeque<Command>,
    /// Ingestion queues keyed by session id. Created/removed by the
    /// manager (open/close), drained by the worker.
    pub(crate) queues: HashMap<u64, SessionQueue>,
    pub(crate) stop: bool,
    /// The shard's counters, each updated inside a critical section its
    /// writer already holds. The snapshot fills in `shard`,
    /// `open_sessions`, `queue_depth_samples` and `samples_per_sec`;
    /// `active_secs` holds the time since the manager started at which
    /// the worker last finished a packet.
    pub(crate) telemetry: ShardSnapshot,
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
    /// Deltas are booked after every packet this session ran (and once
    /// more at close, for anything the flush builds), so the fleet gauge
    /// tracks live sessions instead of staying flat at zero until the
    /// first close.
    plans_booked: usize,
    /// Warm fits already booked into the shard's `warm_hits` counter
    /// (delta booking, same scheme as `plans_booked`).
    warm_booked: u64,
    /// Cold fits already booked into the shard's `cold_fits` counter.
    cold_booked: u64,
}

/// Adds what one packet (or a close) changed to the shard's telemetry in
/// one shard-lock acquisition: the FFT plans and warm/cold fits the
/// engine added since the last booking, then whatever `update` records.
/// The engine's counts are read before the lock is taken; they are
/// monotone, so each delta is what this packet or the close-time flush
/// added.
fn publish(shard: &ShardShared, ws: &mut WorkerSession, update: impl FnOnce(&mut ShardSnapshot)) {
    let plans = ws.engine.fft_plans_built();
    let warm = ws.engine.warm_hits();
    let cold = ws.engine.cold_fits();
    {
        let mut st = shard.state.lock().unwrap();
        let t = &mut st.telemetry;
        t.plans_built += plans.saturating_sub(ws.plans_booked) as u64;
        t.warm_hits += warm.saturating_sub(ws.warm_booked);
        t.cold_fits += cold.saturating_sub(ws.cold_booked);
        update(t);
    }
    (ws.plans_booked, ws.warm_booked, ws.cold_booked) = (plans, warm, cold);
}

/// Books delivered SpO2 windows into the shard's trend statistics.
fn book_spo2(t: &mut ShardSnapshot, windows: &[Spo2Sample]) {
    t.spo2_updates += windows.len() as u64;
    for w in windows {
        t.spo2.record(w.spo2);
    }
}

/// The worker run loop. Exits when `stop` is set and no commands remain.
pub(crate) fn run_worker(shared: Arc<ShardShared>) {
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
            if !batches.is_empty() {
                let packets = batches.iter().map(|(_, items)| items.len() as u64).sum();
                let t = &mut st.telemetry;
                t.batches_run += 1;
                t.batch_sessions_hwm = t.batch_sessions_hwm.max(batches.len() as u64);
                t.batch_packets_hwm = t.batch_packets_hwm.max(packets);
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
                            let out = close_session(&mut ws, leftovers, &shared);
                            // Drain before acking: a telemetry snapshot
                            // taken right after close() returns must see
                            // the spans the close just produced.
                            drain_spans(&shared);
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
            let batch_span = dhf_obs::span(dhf_obs::Stage::BatchRun);
            for (id, items) in batches {
                // A batch can outlive its session only by racing a close,
                // and close drains the queue first — but stay defensive.
                if let Some(ws) = sessions.get_mut(&id) {
                    for item in items {
                        process_item(ws, item, &shared);
                    }
                }
            }
            drop(batch_span);
        }
        drain_spans(&shared);
    }
}

/// Moves the worker thread's accumulated span events into the shard's
/// stage breakdown: drained into a local breakdown off the lock, then
/// merged under it. Called once per wakeup, after commands and batches —
/// the pending check keeps the no-tracing path off the lock.
fn drain_spans(shard: &ShardShared) {
    if dhf_obs::pending_events() > 0 {
        let mut drained = StageBreakdown::new();
        dhf_obs::drain_thread_into(&mut drained);
        shard.state.lock().unwrap().telemetry.stages.merge(&drained);
    }
}

/// Runs one ingest packet through its session's engine, delivers any
/// completed blocks (or SpO2 windows) to the mailbox, and then publishes
/// the packet's telemetry. A packet arriving after the session failed is
/// skipped (tallied in `WorkerSession::skipped` for the close-time books
/// and in the shard's dropped counter immediately).
fn process_item(ws: &mut WorkerSession, item: IngestItem, shard: &ShardShared) {
    // Queue wait is scheduling cost, real whether or not the engine runs.
    dhf_obs::record(dhf_obs::Stage::QueueWait, item.enqueued_at.elapsed().as_secs_f64());
    if ws.failed {
        ws.skipped += item.len();
        publish(shard, ws, |t| t.dropped_samples += item.len() as u64);
        return;
    }
    let track_refs: Vec<&[f64]> = item.tracks.iter().map(Vec::as_slice).collect();
    // The manager validated the packet, so an error here is a chunk
    // separation failure — which happens *after* the engine buffered the
    // samples. Either way the engine accepted them.
    ws.accepted += item.len();
    let emitted_before = ws.emitted;
    let mut blocks_emitted = 0;
    let mut spo2 = Vec::new();
    let run_span = dhf_obs::span(dhf_obs::Stage::EngineRun);
    match &mut ws.engine {
        Engine::Separation(sep) => match sep.push(&item.samples, &track_refs) {
            Ok(blocks) => {
                if !blocks.is_empty() {
                    ws.emitted += blocks.iter().map(|b| b.len()).sum::<usize>();
                    blocks_emitted = blocks.len();
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
                    ws.emitted = ws.emitted.max(ox.samples_separated());
                    if !updates.is_empty() {
                        ws.shared.mailbox.lock().unwrap().spo2.extend_from_slice(&updates);
                    }
                    spo2 = updates;
                }
                Err(e) => {
                    ws.failed = true;
                    ws.shared.mailbox.lock().unwrap().error = Some(oximetry_stream_error(e));
                }
            }
        }
    }
    drop(run_span);
    let samples_out = ws.emitted - emitted_before;
    let latency = item.enqueued_at.elapsed().as_secs_f64();
    let finished = shard.started.elapsed().as_secs_f64();
    publish(shard, ws, |t| {
        t.samples_out += samples_out as u64;
        t.blocks_emitted += blocks_emitted as u64;
        book_spo2(t, &spo2);
        t.packets_processed += 1;
        t.latency.record(latency);
        t.active_secs = finished;
    });
}

/// Drains a closing session: leftovers, flush, mailbox.
fn close_session(
    ws: &mut WorkerSession,
    leftovers: Vec<IngestItem>,
    shard: &ShardShared,
) -> CloseOutcome {
    for item in leftovers {
        process_item(ws, item, shard);
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
    let emitted_before = ws.emitted;
    if let Some(b) = &flush_block {
        ws.emitted += b.len();
    }
    if let Some(dropped) = oximetry_flush_dropped {
        // The flush separated everything the engines accepted except the
        // too-short tail; account the remainder as emitted.
        ws.emitted = ws.accepted.saturating_sub(dropped);
    }
    let samples_out = ws.emitted.saturating_sub(emitted_before);
    let mut mailbox = ws.shared.mailbox.lock().unwrap();
    let mut blocks = std::mem::take(&mut mailbox.blocks);
    let mut spo2 = std::mem::take(&mut mailbox.spo2);
    let error = mailbox.error.take();
    drop(mailbox);
    // Close the books: whatever the engine accepted but never emitted is
    // gone now. For a healthy session this is exactly the flush's
    // too-short-to-cover tail; for a failed one it also covers everything
    // stranded in the engine's buffers. `skipped` adds the packets that
    // never reached the engine after the failure (mid-stream and
    // close-time alike).
    let unflushed = ws.accepted.saturating_sub(ws.emitted);
    // The residual plan-cache footprint (leftover packets or the flush
    // may have built plans since the last booking) is booked here too.
    publish(shard, ws, |t| {
        t.samples_out += samples_out as u64;
        t.blocks_emitted += u64::from(flush_block.is_some());
        book_spo2(t, &flush_spo2);
        t.dropped_samples += unflushed as u64;
    });
    blocks.extend(flush_block);
    spo2.extend(flush_spo2);
    CloseOutcome { blocks, spo2, dropped_samples: ws.skipped + unflushed, error }
}
