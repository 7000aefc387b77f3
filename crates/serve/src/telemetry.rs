//! Serving telemetry: per-shard counters and point-in-time snapshots.
//!
//! Each shard keeps its telemetry as one plain [`ShardSnapshot`] under
//! the shard's one lock, the mutex that already guards its queues (the
//! `shard` module says who takes it when). Writers update it inside
//! critical sections they hold anyway, and
//! [`SessionManager::telemetry`](crate::SessionManager::telemetry) copies
//! it together with the queue depth, so a shard's snapshot is never
//! torn. `poll` stays off that lock: it reads only the session's mailbox,
//! so clients spinning on it between pushes never hold up the worker's
//! drain and publishes.

use dhf_metrics::LatencyHistogram;
use dhf_obs::{PromText, StageBreakdown};
use std::time::Duration;

/// Aggregate statistics over every SpO2 window a shard's oximetry
/// sessions emitted — the fleet-level trend view (count, range, mean)
/// without shipping every sample through telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct Spo2Stats {
    count: u64,
    sum: f64,
    /// Exact observed extremes (NaN until the first record).
    min_seen: f64,
    max_seen: f64,
}

impl Default for Spo2Stats {
    fn default() -> Self {
        Spo2Stats { count: 0, sum: 0.0, min_seen: f64::NAN, max_seen: f64::NAN }
    }
}

impl Spo2Stats {
    /// Adds one SpO2 window value. Non-finite values are ignored.
    pub(crate) fn record(&mut self, spo2: f64) {
        if !spo2.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += spo2;
        if self.min_seen.is_nan() || spo2 < self.min_seen {
            self.min_seen = spo2;
        }
        if self.max_seen.is_nan() || spo2 > self.max_seen {
            self.max_seen = spo2;
        }
    }

    /// Folds another shard's statistics into this one.
    pub(crate) fn merge(&mut self, other: &Spo2Stats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        if self.min_seen.is_nan() || other.min_seen < self.min_seen {
            self.min_seen = other.min_seen;
        }
        if self.max_seen.is_nan() || other.max_seen > self.max_seen {
            self.max_seen = other.max_seen;
        }
    }

    /// SpO2 windows recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded SpO2 (the fleet's deepest observed
    /// desaturation), or `None` before the first window.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min_seen)
        }
    }

    /// Largest recorded SpO2, or `None` before the first window.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max_seen)
        }
    }

    /// Mean recorded SpO2, or `None` before the first window.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Point-in-time view of one worker shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index in `[0, workers)`.
    pub shard: usize,
    /// Sessions currently owned by this shard.
    pub open_sessions: usize,
    /// Samples waiting in this shard's ingestion queues right now.
    pub queue_depth_samples: usize,
    /// Samples accepted into this shard's queues since start.
    pub samples_in: u64,
    /// Separated samples emitted by this shard since start.
    pub samples_out: u64,
    /// Output blocks delivered to mailboxes.
    pub blocks_emitted: u64,
    /// Ingest packets run through session engines.
    pub packets_processed: u64,
    /// Scheduling batches executed (one batch = one lock acquisition
    /// draining every ready queue; packets-per-batch is the measure of how
    /// well the scheduler amortizes wakeups).
    pub batches_run: u64,
    /// Pushes refused with [`ServeError::Busy`](crate::ServeError::Busy)
    /// because the session's queue was full.
    pub busy_rejections: u64,
    /// Samples accepted but never emitted: packets skipped after a session
    /// failed, plus what each close left unflushed (the final flush's
    /// too-short tail, or a failed engine's stranded buffers).
    pub dropped_samples: u64,
    /// SpO2 windows emitted by this shard's oximetry sessions.
    pub spo2_updates: u64,
    /// FFT plans built by this shard's session engines, booked
    /// incrementally: the delta after every packet a session ran, plus
    /// a residual at close for anything the flush builds.
    /// A healthy fleet of same-shape sessions keeps this near a small
    /// constant per session: every steady-state chunk reuses the plans
    /// (and the SoA spectrogram workspace) built by its session's first
    /// chunk, so the gauge plateaus once sessions are warm.
    pub plans_built: u64,
    /// Deep-prior fits this shard's engines resumed warm from the same
    /// session's previous chunk. Zero unless sessions enable warm starting
    /// ([`dhf_stream::StreamingConfig::with_warm_start`]).
    pub warm_hits: u64,
    /// Deep-prior fits this shard's engines trained from scratch (every
    /// fit when warm starting is off; first chunks and discontinuity
    /// fallbacks when it is on).
    pub cold_fits: u64,
    /// Length of the shard's *active* window in seconds: manager start
    /// until the worker last finished a packet (0 while nothing has been
    /// processed), clamped to the snapshot's wall clock.
    pub active_secs: f64,
    /// `samples_out` over the shard's active window (see
    /// [`active_secs`](ShardSnapshot::active_secs)) — the shard's
    /// sustained separation throughput, unaffected by how long after
    /// quiescing the snapshot is taken.
    pub samples_per_sec: f64,
    /// Worst per-session ingestion backlog (samples) any push left
    /// behind on this shard.
    pub queue_depth_hwm: u64,
    /// Largest packet count one worker wakeup drained in a single batch.
    pub batch_packets_hwm: u64,
    /// Largest session count one worker wakeup drained in a single
    /// batch.
    pub batch_sessions_hwm: u64,
    /// Ingestion latency distribution in seconds, one record per packet:
    /// enqueue (push accepted) until the worker finished processing the
    /// packet — at which point any output the packet completed is in the
    /// mailbox. Packets that only buffer (no chunk boundary crossed)
    /// record their queue+ingest time; the per-*sample* output latency is
    /// additionally bounded by the streaming config's one-chunk latency.
    pub latency: LatencyHistogram,
    /// Aggregate SpO2 trend statistics over this shard's oximetry
    /// sessions (empty if the shard serves none).
    pub spo2: Spo2Stats,
    /// Per-stage latency breakdown from `dhf_obs` spans drained by this
    /// shard's worker (empty unless tracing was enabled — see
    /// [`dhf_obs::set_enabled`]).
    pub stages: StageBreakdown,
}

impl ShardSnapshot {
    /// A shard that has seen nothing yet: the value each shard's state
    /// starts from.
    pub(crate) fn new() -> Self {
        ShardSnapshot {
            shard: 0,
            open_sessions: 0,
            queue_depth_samples: 0,
            samples_in: 0,
            samples_out: 0,
            blocks_emitted: 0,
            packets_processed: 0,
            batches_run: 0,
            busy_rejections: 0,
            dropped_samples: 0,
            spo2_updates: 0,
            plans_built: 0,
            warm_hits: 0,
            cold_fits: 0,
            active_secs: 0.0,
            samples_per_sec: 0.0,
            queue_depth_hwm: 0,
            batch_packets_hwm: 0,
            batch_sessions_hwm: 0,
            latency: LatencyHistogram::for_serving(),
            spo2: Spo2Stats::default(),
            stages: StageBreakdown::new(),
        }
    }
}

/// Snapshot of the whole runtime, taken by
/// [`SessionManager::telemetry`](crate::SessionManager::telemetry).
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// Time since the manager started.
    pub elapsed: Duration,
    /// One snapshot per worker shard, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

impl Telemetry {
    /// Total samples accepted across shards.
    pub fn samples_in(&self) -> u64 {
        self.shards.iter().map(|s| s.samples_in).sum()
    }

    /// Total separated samples emitted across shards.
    pub fn samples_out(&self) -> u64 {
        self.shards.iter().map(|s| s.samples_out).sum()
    }

    /// Total samples accepted but never emitted across shards.
    pub fn dropped_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_samples).sum()
    }

    /// Total pushes rejected with `Busy` across shards.
    pub fn busy_rejections(&self) -> u64 {
        self.shards.iter().map(|s| s.busy_rejections).sum()
    }

    /// Total SpO2 windows emitted across shards.
    pub fn spo2_updates(&self) -> u64 {
        self.shards.iter().map(|s| s.spo2_updates).sum()
    }

    /// Total FFT plans built by session engines across shards — the
    /// fleet-wide plan-cache pressure gauge, live for open sessions
    /// (booked per processed packet, not deferred to session close).
    pub fn plans_built(&self) -> u64 {
        self.shards.iter().map(|s| s.plans_built).sum()
    }

    /// Total deep-prior fits resumed warm across shards.
    pub fn warm_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.warm_hits).sum()
    }

    /// Total deep-prior fits trained from scratch across shards.
    pub fn cold_fits(&self) -> u64 {
        self.shards.iter().map(|s| s.cold_fits).sum()
    }

    /// All shards' SpO2 trend statistics merged into one fleet-wide view.
    pub fn spo2_stats(&self) -> Spo2Stats {
        let mut merged = Spo2Stats::default();
        for s in &self.shards {
            merged.merge(&s.spo2);
        }
        merged
    }

    /// Length of the fleet's active window in seconds: manager start
    /// until *any* worker last finished a packet. 0 while nothing has
    /// been processed.
    pub fn active_secs(&self) -> f64 {
        self.shards.iter().map(|s| s.active_secs).fold(0.0, f64::max)
    }

    /// Aggregate separation throughput in samples per second, measured
    /// over the **active window** ([`active_secs`](Telemetry::active_secs)):
    /// manager start until the last packet any worker finished. A
    /// snapshot taken after [`shutdown`](crate::SessionManager::shutdown)
    /// — or after any idle tail — therefore reports the rate the fleet
    /// actually sustained while working, not that rate diluted by wall
    /// time spent quiesced. 0.0 before the first processed packet.
    pub fn samples_per_sec(&self) -> f64 {
        let secs = self.active_secs();
        if secs > 0.0 {
            self.samples_out() as f64 / secs
        } else {
            0.0
        }
    }

    /// All shards' stage breakdowns merged into one fleet-wide view
    /// (empty unless `dhf_obs` tracing was enabled during the run).
    pub fn stage_breakdown(&self) -> StageBreakdown {
        let mut merged = StageBreakdown::new();
        for s in &self.shards {
            merged.merge(&s.stages);
        }
        merged
    }

    /// Worst per-session ingestion backlog (samples) across the fleet.
    pub fn queue_depth_hwm(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth_hwm).max().unwrap_or(0)
    }

    /// Largest packet batch any worker drained in one wakeup.
    pub fn batch_packets_hwm(&self) -> u64 {
        self.shards.iter().map(|s| s.batch_packets_hwm).max().unwrap_or(0)
    }

    /// Largest session batch any worker drained in one wakeup.
    pub fn batch_sessions_hwm(&self) -> u64 {
        self.shards.iter().map(|s| s.batch_sessions_hwm).max().unwrap_or(0)
    }

    /// All shards' latency histograms merged into one fleet-wide view.
    pub fn latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::for_serving();
        for s in &self.shards {
            merged.merge(&s.latency);
        }
        merged
    }

    /// Fleet-wide enqueue→processed latency percentile in seconds
    /// (`None` before any packet completed).
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        self.latency().percentile(p)
    }

    /// Renders the snapshot as a Prometheus text exposition (format
    /// 0.0.4): per-shard counters and gauges, the fleet ingestion-latency
    /// summary, and — when tracing was enabled — one `dhf_stage_seconds`
    /// summary per pipeline stage.
    pub fn prometheus(&self) -> String {
        let mut prom = PromText::new();
        struct Counter(&'static str, &'static str, fn(&ShardSnapshot) -> f64);
        let counters = [
            Counter("dhf_samples_in_total", "Samples accepted into ingestion queues", |s| {
                s.samples_in as f64
            }),
            Counter("dhf_samples_out_total", "Separated samples emitted", |s| s.samples_out as f64),
            Counter("dhf_packets_total", "Ingest packets run through session engines", |s| {
                s.packets_processed as f64
            }),
            Counter("dhf_batches_total", "Scheduling batches executed", |s| s.batches_run as f64),
            Counter("dhf_busy_rejections_total", "Pushes rejected by backpressure", |s| {
                s.busy_rejections as f64
            }),
            Counter("dhf_dropped_samples_total", "Samples accepted but never emitted", |s| {
                s.dropped_samples as f64
            }),
            Counter("dhf_spo2_updates_total", "SpO2 windows emitted", |s| s.spo2_updates as f64),
            Counter("dhf_plans_built_total", "FFT plans built by session engines", |s| {
                s.plans_built as f64
            }),
            Counter("dhf_warm_fits_total", "Deep-prior fits resumed from warm weights", |s| {
                s.warm_hits as f64
            }),
            Counter("dhf_cold_fits_total", "Deep-prior fits trained from scratch", |s| {
                s.cold_fits as f64
            }),
        ];
        for Counter(name, help, get) in counters {
            prom.help(name, help, "counter");
            for s in &self.shards {
                let shard = s.shard.to_string();
                prom.sample(name, &[("shard", &shard)], get(s));
            }
        }
        struct Gauge(&'static str, &'static str, fn(&ShardSnapshot) -> f64);
        let gauges = [
            Gauge("dhf_open_sessions", "Sessions currently owned by the shard", |s| {
                s.open_sessions as f64
            }),
            Gauge("dhf_queue_depth_samples", "Samples waiting in ingestion queues", |s| {
                s.queue_depth_samples as f64
            }),
            Gauge(
                "dhf_queue_depth_hwm_samples",
                "Worst per-session ingestion backlog observed",
                |s| s.queue_depth_hwm as f64,
            ),
            Gauge("dhf_batch_packets_hwm", "Largest packet batch one wakeup drained", |s| {
                s.batch_packets_hwm as f64
            }),
            Gauge("dhf_batch_sessions_hwm", "Largest session batch one wakeup drained", |s| {
                s.batch_sessions_hwm as f64
            }),
        ];
        for Gauge(name, help, get) in gauges {
            prom.help(name, help, "gauge");
            for s in &self.shards {
                let shard = s.shard.to_string();
                prom.sample(name, &[("shard", &shard)], get(s));
            }
        }
        prom.help(
            "dhf_samples_per_sec",
            "Fleet separation throughput over the active window",
            "gauge",
        );
        prom.sample("dhf_samples_per_sec", &[], self.samples_per_sec());
        prom.help(
            "dhf_ingest_latency_seconds",
            "Enqueue-to-processed packet latency (fleet)",
            "summary",
        );
        prom.summary("dhf_ingest_latency_seconds", &[], &self.latency());
        let stages = self.stage_breakdown();
        if !stages.is_empty() {
            prom.help(
                "dhf_stage_seconds",
                "Per-stage pipeline latency from dhf_obs spans (fleet)",
                "summary",
            );
            prom.stage_summaries("dhf_stage_seconds", &[], &stages);
        }
        prom.render()
    }
}

impl std::fmt::Display for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>5} {:>8} {:>10} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7} {:>6} {:>6} {:>7}",
            "shard",
            "sessions",
            "queue",
            "samples/s",
            "samples out",
            "packets",
            "busy",
            "dropped",
            "plans",
            "warm",
            "cold",
            "spo2",
        )?;
        for s in &self.shards {
            writeln!(
                f,
                "{:>5} {:>8} {:>10} {:>12.0} {:>12} {:>9} {:>8} {:>8} {:>7} {:>6} {:>6} {:>7}",
                s.shard,
                s.open_sessions,
                s.queue_depth_samples,
                s.samples_per_sec,
                s.samples_out,
                s.packets_processed,
                s.busy_rejections,
                s.dropped_samples,
                s.plans_built,
                s.warm_hits,
                s.cold_fits,
                s.spo2_updates,
            )?;
        }
        let fmt_ms = |p: Option<f64>| match p {
            Some(v) => format!("{:.3} ms", v * 1e3),
            None => "-".to_string(),
        };
        writeln!(
            f,
            "total: {:.0} samples/s over {:.2} s active ({:.2} s wall); {} plans; \
             {} warm / {} cold fits; latency p50 {} / p95 {} / p99 {}",
            self.samples_per_sec(),
            self.active_secs(),
            self.elapsed.as_secs_f64(),
            self.plans_built(),
            self.warm_hits(),
            self.cold_fits(),
            fmt_ms(self.latency_percentile(50.0)),
            fmt_ms(self.latency_percentile(95.0)),
            fmt_ms(self.latency_percentile(99.0)),
        )?;
        let spo2 = self.spo2_stats();
        if let (Some(min), Some(mean), Some(max)) = (spo2.min(), spo2.mean(), spo2.max()) {
            writeln!(
                f,
                "spo2:  {} windows; min {:.3} / mean {:.3} / max {:.3}",
                spo2.count(),
                min,
                mean,
                max,
            )?;
        }
        // Stage-level breakdown, right-aligned under the shard table
        // (only rendered when tracing captured something).
        let stages = self.stage_breakdown();
        if !stages.is_empty() {
            writeln!(f, "stages (fleet, dhf_obs tracing):")?;
            for line in stages.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}
