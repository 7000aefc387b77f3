//! Miniature versions of the `examples/*.rs` main paths, so the examples'
//! underlying flows cannot silently rot. Sizes are cut far below the
//! examples' defaults (`cargo test` additionally compiles the examples
//! themselves).

use dhf::baselines::{masking::SpectralMasking, SeparationContext, Separator};
use dhf::core::f0::F0Estimator;
use dhf::core::{separate, DhfConfig};
use dhf::dsp::filter::band_limit;
use dhf::metrics::sdr_db;
use dhf::oximetry::{dc_level, Calibration};
use dhf::serve::{ServeConfig, SessionManager};
use dhf::stream::{StreamingConfig, StreamingSeparator};
use dhf::synth::invivo::{simulate, InvivoConfig};
use dhf::synth::table1;

/// A tiny config completing in a couple of seconds.
fn smoke_cfg() -> DhfConfig {
    let mut cfg = DhfConfig::fast();
    cfg.inpaint.iterations = 25;
    cfg
}

/// `examples/quickstart.rs`: drifting two-source mix, separate, score.
#[test]
fn quickstart_path() {
    let fs = 100.0;
    let n = 3000;
    let track1: Vec<f64> = (0..n)
        .map(|i| 1.35 + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 2.0).sin())
        .collect();
    let track2: Vec<f64> = (0..n)
        .map(|i| 2.50 + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 3.0).cos())
        .collect();
    let render = |track: &[f64], amp: f64| -> Vec<f64> {
        let mut phase = 0.0;
        track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                amp * (phase.sin() + 0.4 * (2.0 * phase).sin())
            })
            .collect()
    };
    let s1 = render(&track1, 1.0);
    let s2 = render(&track2, 0.3);
    let mixed: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();

    let result = separate(&mixed, fs, &[track1, track2], &smoke_cfg()).unwrap();
    assert_eq!(result.sources.len(), 2);
    assert!(result.sources.iter().all(|s| s.len() == n));
    // The quickstart prints SDRs; here they only need to be computable.
    let _ = sdr_db(&s1[300..n - 300], &result.sources[0][300..n - 300]);
}

/// `examples/synthetic_separation.rs`: Table-1 mix, band-limit, DHF vs
/// spectral masking.
#[test]
fn synthetic_separation_path() {
    let mix = table1::mixed_signal_with_duration(1, 42, 25.0);
    let observed = band_limit(&mix.samples, mix.fs, 12.0).unwrap();
    let tracks = mix.f0_tracks();

    let dhf = separate(&observed, mix.fs, &tracks, &smoke_cfg()).unwrap();
    assert_eq!(dhf.sources.len(), mix.num_sources());

    let ctx = SeparationContext { fs: mix.fs, f0_tracks: &tracks };
    let masked = SpectralMasking::default().separate(&observed, &ctx).unwrap();
    assert_eq!(masked.len(), mix.num_sources());
}

/// `examples/live_stream.rs`: packet-wise streaming separation with
/// bounded latency, flushed at end of stream.
#[test]
fn live_stream_path() {
    let fs = 100.0;
    let n = 4000;
    let track1: Vec<f64> = (0..n)
        .map(|i| 1.35 + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 3.0).sin())
        .collect();
    let track2: Vec<f64> = (0..n)
        .map(|i| 2.50 + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 4.0).cos())
        .collect();
    let render = |track: &[f64], amp: f64| -> Vec<f64> {
        let mut phase = 0.0;
        track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                amp * (phase.sin() + 0.4 * (2.0 * phase).sin())
            })
            .collect()
    };
    let mixed: Vec<f64> =
        render(&track1, 1.0).iter().zip(&render(&track2, 0.3)).map(|(a, b)| a + b).collect();

    let cfg = StreamingConfig::new(3000, 600, smoke_cfg()).unwrap();
    let mut sep = StreamingSeparator::new(fs, 2, cfg).unwrap();
    let mut emitted = 0usize;
    for lo in (0..n).step_by(100) {
        let hi = (lo + 100).min(n);
        let tracks: [&[f64]; 2] = [&track1[lo..hi], &track2[lo..hi]];
        for block in sep.push(&mixed[lo..hi], &tracks).unwrap() {
            assert_eq!(block.start, emitted);
            emitted += block.len();
        }
    }
    let fin = sep.flush().unwrap();
    emitted += fin.block.map_or(0, |b| b.len());
    assert_eq!(fin.dropped_samples, 0);
    assert_eq!(emitted, n, "flush must account for every ingested sample");
}

/// `examples/serve_sessions.rs`: a miniature device fleet through the
/// sharded serving runtime — open, interleaved pushes, poll, graceful
/// shutdown, telemetry accounting.
#[test]
fn serve_sessions_path() {
    let fs = 100.0;
    let n = 3600;
    let devices = 3;
    let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast().with_harmonic_interp()).unwrap();
    let manager = SessionManager::new(ServeConfig::new(2).unwrap());
    let streams: Vec<_> = (0..devices)
        .map(|d| {
            let duet = dhf::synth::duet::drifting_duet(fs, n, d as u64);
            (duet.mixed, duet.f0_tracks)
        })
        .collect();
    let ids: Vec<_> = (0..devices).map(|_| manager.open(fs, 2, scfg.clone()).unwrap()).collect();

    let mut emitted = vec![0usize; devices];
    for lo in (0..n).step_by(300) {
        let hi = (lo + 300).min(n);
        for (d, (mixed, tracks)) in streams.iter().enumerate() {
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            manager.push(ids[d], &mixed[lo..hi], &t).unwrap();
            let out = manager.poll(ids[d]).unwrap();
            assert!(out.error.is_none());
            emitted[d] += out.blocks.iter().map(|b| b.len()).sum::<usize>();
        }
    }
    let report = manager.shutdown().unwrap();
    assert_eq!(report.sessions.len(), devices);
    for (id, outcome) in &report.sessions {
        let d = ids.iter().position(|i| i == id).expect("known session");
        assert_eq!(outcome.dropped_samples, 0);
        emitted[d] += outcome.blocks.iter().map(|b| b.len()).sum::<usize>();
    }
    assert!(emitted.iter().all(|&e| e == n), "every device's stream must come back in full");
    assert_eq!(report.telemetry.samples_out(), (devices * n) as u64);
    assert!(report.telemetry.latency_percentile(99.0).is_some());
}

/// `examples/f0_tracking.rs`: estimate the maternal track from the mixed
/// channel; it must stay inside the configured band.
#[test]
fn f0_tracking_path() {
    let recording = simulate(&InvivoConfig::sheep1().scaled(0.02));
    let fs = recording.config.fs;
    let window = &recording.mixed[0];
    let dc = dc_level(window);
    let pulsatile: Vec<f64> = window.iter().map(|&v| v - dc).collect();

    let band = recording.config.maternal_band;
    let estimator = F0Estimator::new(band.0 - 0.1, band.1 + 0.1).unwrap();
    let estimated = estimator.estimate_track(&pulsatile, fs).unwrap();
    assert_eq!(estimated.len(), pulsatile.len());
    assert!(estimated.iter().all(|&f| f >= band.0 - 0.1 - 1e-9 && f <= band.1 + 0.1 + 1e-9));
}

/// `examples/fetal_spo2.rs`: the end-to-end oximetry walkthrough at
/// miniature scale — offline trend, blood-draw calibration fit, and the
/// streaming oximeter over the same recording. (The full-scale accuracy
/// bounds live in `tests/oximetry_e2e.rs`.)
#[test]
fn fetal_spo2_path() {
    use dhf::oximetry::{estimate_spo2_trend, OximetryConfig, StreamingOximeter};
    use dhf::stream::StreamingConfig;
    use dhf::synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};

    let rec = generate(&DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), 80.0));
    let fs = rec.config.fs;
    assert!(rec.draws.len() >= 2, "protocol must retain blood draws");
    let dhf = DhfConfig::fast().with_harmonic_interp();
    let ocfg =
        OximetryConfig::new(1, (20.0 * fs) as usize, (10.0 * fs) as usize, Calibration::default())
            .unwrap();
    let tracks = vec![rec.f0.maternal.clone(), rec.f0.fetal.clone()];

    // Offline trend + draw-fitted calibration, as the example does.
    let trend =
        estimate_spo2_trend([&rec.mixed[0], &rec.mixed[1]], fs, &tracks, &dhf, &ocfg).unwrap();
    assert!(!trend.samples.is_empty());
    let (mut draw_ratios, mut draw_sao2) = (Vec::new(), Vec::new());
    for d in &rec.draws {
        let nearest = trend
            .samples
            .iter()
            .min_by(|a, b| {
                let (da, db) =
                    ((a.mid_time_s(fs) - d.time_s).abs(), (b.mid_time_s(fs) - d.time_s).abs());
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        draw_ratios.push(nearest.ratio);
        draw_sao2.push(d.sao2);
    }
    let cal = Calibration::fit(&draw_ratios, &draw_sao2);
    assert!(trend.ratios().iter().all(|&r| cal.predict(r).is_finite()));

    // Streaming path over the same recording.
    let scfg = StreamingConfig::new(3000, 600, dhf).unwrap();
    let ocfg = OximetryConfig::new(1, (20.0 * fs) as usize, (10.0 * fs) as usize, cal).unwrap();
    let mut oximeter = StreamingOximeter::new(fs, 2, scfg, ocfg).unwrap();
    let n = rec.len();
    let mut live = Vec::new();
    for lo in (0..n).step_by(500) {
        let hi = (lo + 500).min(n);
        let t: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
        live.extend(oximeter.push([&rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi]], &t).unwrap());
    }
    let fin = oximeter.flush().unwrap();
    assert_eq!(fin.dropped_samples, 0);
    live.extend(fin.samples);
    assert_eq!(live.len(), trend.samples.len(), "streaming must emit every completable window");
    assert!(live.iter().all(|s| s.spo2.is_finite()));
}

/// `examples/observe.rs`: a miniature traced fleet — enable `dhf_obs`,
/// stream a couple of sessions, and check the stage breakdown and the
/// Prometheus exposition both carry the recorded spans.
#[test]
fn observe_path() {
    let fs = 100.0;
    let n = 3600;
    let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast().with_harmonic_interp()).unwrap();
    let manager = SessionManager::new(ServeConfig::new(1).unwrap());

    dhf::obs::set_enabled(true);
    let ids: Vec<_> = (0..2)
        .map(|d| {
            let duet = dhf::synth::duet::drifting_duet(fs, n, d as u64);
            let id = manager.open(fs, 2, scfg.clone()).unwrap();
            (id, duet.mixed, duet.f0_tracks)
        })
        .collect();
    for lo in (0..n).step_by(300) {
        let hi = (lo + 300).min(n);
        for (id, mixed, tracks) in &ids {
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            manager.push(*id, &mixed[lo..hi], &t).unwrap();
        }
    }
    for (id, _, _) in &ids {
        manager.close(*id).unwrap();
    }
    dhf::obs::set_enabled(false);

    let telemetry = manager.telemetry();
    let stages = telemetry.stage_breakdown();
    assert!(!stages.is_empty(), "traced run must fill the stage breakdown");
    assert!(stages.stage(dhf::obs::Stage::EngineRun).count() > 0);
    let prom = telemetry.prometheus();
    assert!(prom.contains("dhf_samples_out_total"), "exposition:\n{prom}");
    assert!(prom.contains("dhf_stage_seconds"), "exposition:\n{prom}");
}
