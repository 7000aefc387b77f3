//! Serving-runtime load generator: drives many concurrent synthetic
//! sessions through a [`dhf_serve::SessionManager`] and reports aggregate
//! throughput plus end-to-end latency percentiles.
//!
//! Knobs (environment variables, all optional):
//!
//! * `DHF_SCENARIO` — `separation` (default: raw two-source separation
//!   sessions), `oximetry` (dual-wavelength fetal-SpO2 sessions over
//!   synthetic desaturation recordings), or `artifact` (the oximetry
//!   fleet under gait-artifact contamination with the HPSS
//!   transient-rejection front filter enabled — its cost shows up as
//!   the `hpss_filter` stage in the fleet stage table).
//! * `DHF_SESSIONS` — concurrent sessions (default 64).
//! * `DHF_WORKERS` — worker shards (default: available parallelism).
//! * `DHF_CLIENTS` — client threads generating load (default 4).
//! * `DHF_STREAM_SECONDS` — per-session stream length (default 60 s at
//!   100 Hz).
//! * `DHF_PACKET` — samples per push (default 250, i.e. 2.5 s packets).
//! * `DHF_FAST=1` — smoke settings (16 sessions, 20 s streams).
//! * `DHF_PROFILE=0` — disable `dhf_obs` stage tracing (default on:
//!   the run records per-stage latency, scrapes the fleet telemetry
//!   once a second into `stage_profile.jsonl`, and writes the final
//!   Prometheus exposition next to `BENCH_serve.json`).
//!
//! ```sh
//! cargo run --release -p dhf_bench --bin loadgen
//! DHF_SESSIONS=256 DHF_WORKERS=8 cargo run --release -p dhf_bench --bin loadgen
//! DHF_SCENARIO=oximetry cargo run --release -p dhf_bench --bin loadgen
//! ```

use dhf_bench::{
    append_jsonl, bench_json_dir, env_usize, fast_mode, stage_breakdown_json, write_bench_json,
    JsonObject,
};
use dhf_core::DhfConfig;
use dhf_oximetry::{Calibration, OximetryConfig};
use dhf_serve::{ServeConfig, SessionManager};
use dhf_stream::{HpssFrontConfig, StreamingConfig};
use dhf_synth::artifact::{self, ArtifactConfig};
use dhf_synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
use dhf_synth::invivo::{CALIBRATION_K, CALIBRATION_W0, CALIBRATION_W1};
use std::sync::Arc;
use std::time::Instant;

const FS: f64 = 100.0;

/// One synthetic device: its session id, the channel(s) it streams, and
/// the shared f0 tracks. Separation devices leave `lambda2` empty.
struct DeviceStream {
    id: dhf_serve::SessionId,
    lambda1: Vec<f64>,
    lambda2: Option<Vec<f64>>,
    tracks: Vec<Vec<f64>>,
}

/// Two drifting quasi-periodic sources (the shared `dhf_synth` fixture),
/// parameterized per session.
fn make_mix(n: usize, variant: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let duet = dhf_synth::duet::drifting_duet(FS, n, variant as u64);
    (duet.mixed, duet.f0_tracks)
}

/// Per-session dual-wavelength desaturation recording (distinct seed per
/// session) for the oximetry scenario; the artifact scenario additionally
/// contaminates both channels with a seeded gait-artifact impact train.
fn make_oximetry_stream(
    seconds: f64,
    variant: usize,
    artifact: bool,
) -> (Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
    let cfg = DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), seconds)
        .with_seed(0xF_0E7A + variant as u64);
    let mut rec = generate(&cfg);
    if artifact {
        artifact::apply(&mut rec, &ArtifactConfig::gait(seconds, 0xA57 + variant as u64));
    }
    let [l1, l2] = rec.mixed;
    (l1, l2, vec![rec.f0.maternal, rec.f0.fetal])
}

/// One client thread: streams its slice of the session fleet round-robin,
/// packet by packet, polling as it goes. Returns separated samples and
/// SpO2 windows collected via poll (close-time remainders are counted by
/// the main thread).
fn run_client(manager: &SessionManager, sessions: &[DeviceStream], packet: usize) -> (u64, u64) {
    let n = sessions.first().map_or(0, |d| d.lambda1.len());
    let mut polled_samples = 0u64;
    let mut polled_windows = 0u64;
    let mut drain = |out: dhf_serve::SessionOutput| {
        polled_samples += out.blocks.iter().map(|b| b.len() as u64).sum::<u64>();
        polled_windows += out.spo2.len() as u64;
    };
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + packet).min(n);
        for dev in sessions {
            let t: Vec<&[f64]> = dev.tracks.iter().map(|t| &t[lo..hi]).collect();
            loop {
                let pushed = match &dev.lambda2 {
                    None => manager.push(dev.id, &dev.lambda1[lo..hi], &t),
                    Some(l2) => {
                        manager.push_oximetry(dev.id, &dev.lambda1[lo..hi], &l2[lo..hi], &t)
                    }
                };
                match pushed {
                    Ok(_) => break,
                    Err(dhf_serve::ServeError::Busy { .. }) => {
                        // Drain our own output and yield to the workers.
                        if let Ok(out) = manager.poll(dev.id) {
                            drain(out);
                        }
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("push failed: {e}"),
                }
            }
            if let Ok(out) = manager.poll(dev.id) {
                drain(out);
            }
        }
        lo = hi;
    }
    (polled_samples, polled_windows)
}

fn main() {
    let scenario = std::env::var("DHF_SCENARIO").unwrap_or_else(|_| "separation".into());
    let (oximetry, artifact) = match scenario.as_str() {
        "separation" => (false, false),
        "oximetry" => (true, false),
        "artifact" => (true, true),
        other => {
            panic!("unknown DHF_SCENARIO `{other}` (use `separation`, `oximetry`, or `artifact`)")
        }
    };
    let sessions = env_usize("DHF_SESSIONS", if fast_mode() { 16 } else { 64 });
    let default_workers = std::thread::available_parallelism().map_or(2, |p| p.get());
    let workers = env_usize("DHF_WORKERS", default_workers);
    let clients = env_usize("DHF_CLIENTS", 4).clamp(1, sessions.max(1));
    let stream_seconds = env_usize("DHF_STREAM_SECONDS", if fast_mode() { 20 } else { 60 });
    let packet = env_usize("DHF_PACKET", 250);
    let n = (stream_seconds as f64 * FS) as usize;

    // The deterministic in-painter isolates runtime overhead (scheduling,
    // queueing, stitching, FFT) from deep-prior training time, mirroring
    // the `throughput` bench.
    let dhf = DhfConfig::fast().with_harmonic_interp();
    let mut scfg = StreamingConfig::new(3000, 600, dhf).expect("valid streaming config");
    if artifact {
        scfg = scfg.with_hpss_front(HpssFrontConfig::default());
    }
    let serve_cfg = ServeConfig::new(workers).expect("valid serve config");
    // Oximetry sessions: 20 s SpO2 windows every 10 s under the
    // simulator's forward calibration.
    let ocfg = OximetryConfig::new(
        1,
        (20.0 * FS) as usize,
        (10.0 * FS) as usize,
        Calibration { w0: CALIBRATION_W0, w1: CALIBRATION_W1, k: CALIBRATION_K },
    )
    .expect("valid oximetry config");

    println!(
        "loadgen[{scenario}]: {sessions} sessions x {stream_seconds} s @ {FS} Hz, \
         {workers} workers, {clients} client threads, {packet}-sample packets"
    );

    println!("synthesizing {} samples...", sessions * n * if oximetry { 2 } else { 1 });
    let manager = Arc::new(SessionManager::new(serve_cfg));
    let mut fleet: Vec<Vec<DeviceStream>> = (0..clients).map(|_| Vec::new()).collect();
    for s in 0..sessions {
        let dev = if oximetry {
            let (lambda1, lambda2, tracks) =
                make_oximetry_stream(stream_seconds as f64, s, artifact);
            let id = manager
                .open_oximetry(FS, 2, scfg.clone(), ocfg.clone())
                .expect("open oximetry session");
            DeviceStream { id, lambda1, lambda2: Some(lambda2), tracks }
        } else {
            let (lambda1, tracks) = make_mix(n, s);
            let id = manager.open(FS, 2, scfg.clone()).expect("open session");
            DeviceStream { id, lambda1, lambda2: None, tracks }
        };
        fleet[s % clients].push(dev);
    }
    assert!(manager.open_sessions() >= 64 || sessions < 64, "loadgen drives >= 64 sessions");

    // Stage tracing (default on): workers record per-stage spans, and a
    // scraper thread snapshots the fleet telemetry once a second into a
    // JSON-lines profile so the load window's time course (queue depth,
    // throughput, per-stage counts) survives the run.
    let profile = std::env::var("DHF_PROFILE").map(|v| v != "0").unwrap_or(true);
    dhf_obs::set_enabled(profile);
    let profile_path = bench_json_dir().join("stage_profile.jsonl");
    if profile {
        let _ = std::fs::remove_file(&profile_path);
    }
    let stop_scraper = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let t0 = Instant::now();
    let (polled, polled_windows) = std::thread::scope(|scope| {
        if profile {
            let manager = Arc::clone(&manager);
            let stop = Arc::clone(&stop_scraper);
            scope.spawn(move || {
                // Millisecond ticks so the stop flag is seen promptly
                // (the scraper join sits inside the measured wall);
                // one scrape per second of load, plus a final scrape on
                // the way out so even sub-second runs leave a profile.
                let mut last_scrape = Instant::now();
                loop {
                    let stopping = stop.load(std::sync::atomic::Ordering::Relaxed);
                    if !stopping && last_scrape.elapsed().as_secs_f64() < 1.0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        continue;
                    }
                    last_scrape = Instant::now();
                    let t = manager.telemetry();
                    let line = JsonObject::new()
                        .num("t_secs", t0.elapsed().as_secs_f64())
                        .int("samples_out", t.samples_out())
                        .int("packets", t.latency().count())
                        .int(
                            "queue_depth_samples",
                            t.shards.iter().map(|s| s.queue_depth_samples as u64).sum(),
                        )
                        .int("queue_depth_hwm_samples", t.queue_depth_hwm())
                        .int("batch_packets_hwm", t.batch_packets_hwm())
                        .int("batch_sessions_hwm", t.batch_sessions_hwm())
                        .obj("stages", stage_breakdown_json(&t.stage_breakdown()));
                    append_jsonl("stage_profile.jsonl", &line);
                    if stopping {
                        break;
                    }
                }
            });
        }
        let handles: Vec<_> = fleet
            .iter()
            .map(|slice| {
                let manager = Arc::clone(&manager);
                scope.spawn(move || run_client(&manager, slice, packet))
            })
            .collect();
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
        stop_scraper.store(true, std::sync::atomic::Ordering::Relaxed);
        out
    });
    let manager = Arc::into_inner(manager).expect("all clients joined");
    let report = manager.shutdown().expect("graceful shutdown");
    let wall = t0.elapsed();
    // Disable only after shutdown: the graceful close processes each
    // session's queued leftovers and flushes it, and those packets
    // belong in the stage profile too.
    dhf_obs::set_enabled(false);

    let closed: u64 = report
        .sessions
        .iter()
        .map(|(_, o)| o.blocks.iter().map(|b| b.len() as u64).sum::<u64>())
        .sum();
    let closed_windows: u64 = report.sessions.iter().map(|(_, o)| o.spo2.len() as u64).sum();
    let telemetry = &report.telemetry;
    println!("\nper-shard telemetry:");
    print!("{telemetry}");

    let total_out = telemetry.samples_out();
    if oximetry {
        assert_eq!(
            polled_windows + closed_windows,
            telemetry.spo2_updates(),
            "every SpO2 window is accounted for"
        );
    } else {
        assert_eq!(polled + closed, total_out, "every emitted sample is accounted for");
    }
    let fmt_ms = |p: Option<f64>| p.map_or("-".into(), |v| format!("{:.3} ms", v * 1e3));
    println!("\naggregate over the load window ({:.2} s wall):", wall.as_secs_f64());
    println!(
        "  {} sessions, {} workers: {:.0} separated samples/sec ({:.1}x realtime)",
        sessions,
        workers,
        total_out as f64 / wall.as_secs_f64(),
        total_out as f64 / wall.as_secs_f64() / FS,
    );
    if oximetry {
        let stats = telemetry.spo2_stats();
        println!(
            "  spo2 trend: {} windows ({:.1}/sec); min {:.3} / mean {:.3} / max {:.3}",
            stats.count(),
            stats.count() as f64 / wall.as_secs_f64(),
            stats.min().unwrap_or(f64::NAN),
            stats.mean().unwrap_or(f64::NAN),
            stats.max().unwrap_or(f64::NAN),
        );
    }
    println!(
        "  ingest latency (enqueue -> processed): p50 {} / p95 {} / p99 {}  ({} packets)",
        fmt_ms(telemetry.latency_percentile(50.0)),
        fmt_ms(telemetry.latency_percentile(95.0)),
        fmt_ms(telemetry.latency_percentile(99.0)),
        telemetry.latency().count(),
    );

    // Machine-readable record of the run, so the serving perf trajectory
    // is tracked across PRs (CI uploads it as an artifact).
    let p_ms = |p: f64| telemetry.latency_percentile(p).map_or(f64::NAN, |v| v * 1e3);
    let mut json = JsonObject::new()
        .str("bench", "loadgen")
        .str("scenario", &scenario)
        .int("sessions", sessions as u64)
        .int("workers", workers as u64)
        .int("clients", clients as u64)
        .int("stream_seconds", stream_seconds as u64)
        .int("packet_samples", packet as u64)
        .num("wall_seconds", wall.as_secs_f64())
        .int("samples_out", total_out)
        .num("samples_per_sec", total_out as f64 / wall.as_secs_f64())
        .num("realtime_x", total_out as f64 / wall.as_secs_f64() / FS)
        .num("latency_p50_ms", p_ms(50.0))
        .num("latency_p95_ms", p_ms(95.0))
        .num("latency_p99_ms", p_ms(99.0))
        .int("packets_processed", telemetry.latency().count())
        .int("plans_built", telemetry.plans_built())
        .int("warm_fits", telemetry.warm_hits())
        .int("cold_fits", telemetry.cold_fits())
        .int("dropped_samples", telemetry.dropped_samples())
        .int("queue_depth_hwm_samples", telemetry.queue_depth_hwm())
        .int("batch_packets_hwm", telemetry.batch_packets_hwm())
        .int("batch_sessions_hwm", telemetry.batch_sessions_hwm());
    if profile {
        json = json.obj("stage_breakdown", stage_breakdown_json(&telemetry.stage_breakdown()));
        // Final Prometheus exposition of the same fleet telemetry — what
        // a `/metrics` endpoint would have served at shutdown.
        let prom_path = bench_json_dir().join("loadgen.prom");
        std::fs::write(&prom_path, telemetry.prometheus()).expect("write prometheus scrape");
        println!("  wrote {} and {}", prom_path.display(), profile_path.display());
    }
    if oximetry {
        let stats = telemetry.spo2_stats();
        json = json.obj(
            "spo2",
            JsonObject::new()
                .int("windows", stats.count())
                .num("min", stats.min().unwrap_or(f64::NAN))
                .num("mean", stats.mean().unwrap_or(f64::NAN))
                .num("max", stats.max().unwrap_or(f64::NAN)),
        );
    }
    let path = write_bench_json("BENCH_serve.json", &json);
    println!("  wrote {}", path.display());
}
