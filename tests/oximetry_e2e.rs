//! End-to-end oximetry regression: a synthesized desaturation-event
//! recording runs through the full workload — dual-wavelength mixture →
//! per-wavelength DHF separation → paired fetal estimates → windowed
//! modulation ratios → calibrated SpO2 trend — and the recovered trend is
//! bounded against the simulator's ground-truth SaO2 schedule, offline
//! and streamed.
//!
//! Calibration follows the paper's Figure-6 evaluation: the Eq. 10
//! inverse-linear model is fitted against ground truth *per pipeline
//! configuration* (offline and chunked separation compress the ratio
//! swing by different linear factors — in vivo, the per-deployment
//! calibration absorbs exactly this), then scored on its own
//! predictions. All tolerances are calibrated against the seeded
//! recording below; everything downstream of the seed is deterministic.

use dhf::core::DhfConfig;
use dhf::metrics::pearson;
use dhf::oximetry::{
    estimate_spo2_trend, Calibration, OximetryConfig, Spo2Sample, StreamingOximeter,
};
use dhf::stream::StreamingConfig;
use dhf::synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};

const BASELINE: f64 = 0.55;
const NADIR: f64 = 0.35;
const DURATION_S: f64 = 240.0;

fn recording() -> dhf::synth::invivo::TfoRecording {
    generate(&DualWaveConfig::new(Spo2Scenario::desaturation(BASELINE, NADIR), DURATION_S))
}

/// The deterministic in-painter: at these budgets it recovers the
/// modulation ratio more stably than the fast deep prior, and it keeps
/// the regression seconds-fast (see `paper_shapes.rs` for where the deep
/// prior is required instead).
fn pipeline_cfg() -> DhfConfig {
    DhfConfig::fast().with_harmonic_interp()
}

fn trend_cfg(fs: f64) -> OximetryConfig {
    OximetryConfig::new(1, (30.0 * fs) as usize, (10.0 * fs) as usize, Calibration::default())
        .unwrap()
}

/// Ground-truth SaO2 averaged over each trend window.
fn windowed_truth(samples: &[Spo2Sample], sao2: &[f64]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| sao2[s.start..s.start + s.len].iter().sum::<f64>() / s.len as f64)
        .collect()
}

/// Fits the Eq. 10 calibration on the trend's own ratios against ground
/// truth and returns the calibrated predictions (the Figure-6 protocol).
fn calibrated(samples: &[Spo2Sample], sao2: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let ratios: Vec<f64> = samples.iter().map(|s| s.ratio).collect();
    let truth = windowed_truth(samples, sao2);
    let cal = Calibration::fit(&ratios, &truth);
    (cal.predict_many(&ratios), truth)
}

fn mean_abs_err(pred: &[f64], truth: &[f64]) -> f64 {
    pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum::<f64>() / pred.len() as f64
}

/// The recording's nadir plateau in samples: `[0.45·T, 0.55·T]`.
fn nadir_interval(fs: f64) -> (usize, usize) {
    ((0.45 * DURATION_S * fs) as usize, (0.55 * DURATION_S * fs) as usize)
}

fn streamed_trend(rec: &dhf::synth::invivo::TfoRecording) -> Vec<Spo2Sample> {
    let fs = rec.config.fs;
    let n = rec.len();
    let scfg = StreamingConfig::new(3000, 600, pipeline_cfg()).unwrap();
    let mut ox = StreamingOximeter::new(fs, 2, scfg, trend_cfg(fs)).unwrap();
    let mut live = Vec::new();
    for lo in (0..n).step_by(250) {
        let hi = (lo + 250).min(n);
        let t: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
        live.extend(ox.push([&rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi]], &t).unwrap());
    }
    let fin = ox.flush().unwrap();
    assert_eq!(fin.dropped_samples, 0, "the flush must cover the whole recording");
    live.extend(fin.samples);
    live
}

#[test]
fn offline_trend_tracks_the_desaturation_event() {
    let rec = recording();
    let fs = rec.config.fs;
    let trend = estimate_spo2_trend(
        [&rec.mixed[0], &rec.mixed[1]],
        fs,
        &[rec.f0.maternal.clone(), rec.f0.fetal.clone()],
        &pipeline_cfg(),
        &trend_cfg(fs),
    )
    .unwrap();
    let expected = (rec.len() - trend_cfg(fs).trend_window) / trend_cfg(fs).trend_hop + 1;
    assert_eq!(trend.samples.len(), expected, "the trend must cover the recording");

    let (pred, truth) = calibrated(&trend.samples, &rec.sao2);
    let mae = mean_abs_err(&pred, &truth);
    let corr = pearson(&pred, &truth);
    // Calibrated against measurements of 0.031 / 0.885 on this seed.
    assert!(mae < 0.05, "offline mean |SpO2 err| {mae:.4} out of tolerance");
    assert!(corr > 0.80, "offline SpO2 correlation {corr:.3} out of tolerance");

    // The event itself is recovered: the trend minimum is deep and its
    // window overlaps the programmed nadir plateau.
    let (i_min, &min) =
        pred.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
    assert!(min < BASELINE - 0.1, "trend minimum {min:.3} misses the desaturation");
    let w = &trend.samples[i_min];
    let (lo, hi) = nadir_interval(fs);
    assert!(
        w.start < hi && w.start + w.len > lo,
        "minimum window [{}, {}) misses the nadir interval [{lo}, {hi})",
        w.start,
        w.start + w.len,
    );
}

#[test]
fn streamed_trend_tracks_ground_truth_and_agrees_with_offline() {
    let rec = recording();
    let fs = rec.config.fs;
    let live = streamed_trend(&rec);

    let (pred, truth) = calibrated(&live, &rec.sao2);
    let mae = mean_abs_err(&pred, &truth);
    let corr = pearson(&pred, &truth);
    // Calibrated against measurements of 0.034 / 0.838 on this seed.
    assert!(mae < 0.055, "streamed mean |SpO2 err| {mae:.4} out of tolerance");
    assert!(corr > 0.75, "streamed SpO2 correlation {corr:.3} out of tolerance");
    let (i_min, &min) =
        pred.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
    assert!(min < BASELINE - 0.1, "streamed minimum {min:.3} misses the desaturation");
    let w = &live[i_min];
    let (lo, hi) = nadir_interval(fs);
    assert!(
        w.start < hi && w.start + w.len > lo,
        "streamed minimum window [{}, {}) misses the nadir interval [{lo}, {hi})",
        w.start,
        w.start + w.len,
    );

    // Streaming-vs-offline agreement: identical window grid, and the two
    // calibrated trends stay close window by window (measured mean
    // 0.044, max 0.111 on this seed).
    let offline = estimate_spo2_trend(
        [&rec.mixed[0], &rec.mixed[1]],
        fs,
        &[rec.f0.maternal.clone(), rec.f0.fetal.clone()],
        &pipeline_cfg(),
        &trend_cfg(fs),
    )
    .unwrap();
    assert_eq!(live.len(), offline.samples.len());
    for (l, o) in live.iter().zip(&offline.samples) {
        assert_eq!((l.start, l.len), (o.start, o.len), "window grids must match");
    }
    let (pred_off, _) = calibrated(&offline.samples, &rec.sao2);
    let gaps: Vec<f64> = pred.iter().zip(&pred_off).map(|(a, b)| (a - b).abs()).collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let max_gap = gaps.iter().cloned().fold(0.0, f64::max);
    assert!(mean_gap < 0.07, "streaming-offline mean gap {mean_gap:.4} out of tolerance");
    assert!(max_gap < 0.17, "streaming-offline max gap {max_gap:.4} out of tolerance");
}

/// Warm-started deep-prior streaming must hold the Figure-6 SpO2 error
/// within a bounded gap of the cold deep-prior path: carrying weights
/// across chunks buys latency, not trend accuracy.
#[test]
fn warm_started_deep_prior_trend_matches_cold_within_gap() {
    // A shorter event keeps the (two-run, deep-prior) regression cheap
    // while still spanning baseline → nadir → recovery.
    let rec = generate(&DualWaveConfig::new(Spo2Scenario::desaturation(BASELINE, NADIR), 120.0));
    let fs = rec.config.fs;
    let n = rec.len();

    let run = |warm: bool| -> (Vec<Spo2Sample>, u64, u64) {
        let dhf = DhfConfig::fast();
        let mut scfg = StreamingConfig::new(3000, 600, dhf).unwrap();
        if warm {
            scfg = scfg.with_warm_start();
        }
        let mut ox = StreamingOximeter::new(fs, 2, scfg, trend_cfg(fs)).unwrap();
        let mut live = Vec::new();
        for lo in (0..n).step_by(250) {
            let hi = (lo + 250).min(n);
            let t: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
            live.extend(ox.push([&rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi]], &t).unwrap());
        }
        let (hits, colds) = (ox.warm_hits(), ox.cold_fits());
        let fin = ox.flush().unwrap();
        assert_eq!(fin.dropped_samples, 0);
        live.extend(fin.samples);
        (live, hits, colds)
    };

    let (cold_trend, cold_hits, _) = run(false);
    let (warm_trend, warm_hits, warm_colds) = run(true);
    assert_eq!(cold_hits, 0, "the cold run must never resume weights");
    assert!(warm_hits > 0, "the warm run must actually resume weights");
    assert!(warm_colds >= 2, "each wavelength channel cold-starts its first chunk");

    let (cold_pred, cold_truth) = calibrated(&cold_trend, &rec.sao2);
    let (warm_pred, warm_truth) = calibrated(&warm_trend, &rec.sao2);
    let cold_mae = mean_abs_err(&cold_pred, &cold_truth);
    let warm_mae = mean_abs_err(&warm_pred, &warm_truth);
    // Measured on this seed: cold 0.0415, warm 0.0583 — the bounded
    // fine-tune gives up ~0.017 MAE against scratch fits here, inside
    // the allowed 0.02 gap.
    assert!(warm_mae < 0.08, "warm deep-prior SpO2 MAE {warm_mae:.4} out of tolerance");
    assert!(
        warm_mae < cold_mae + 0.02,
        "warm MAE {warm_mae:.4} regressed more than 0.02 past cold MAE {cold_mae:.4}"
    );
}

#[test]
fn constant_scenario_trend_is_bounded() {
    // The null case: no event is programmed. Two claims, separated by
    // where the error can come from.
    let rec = generate(&DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.5 }, 120.0));
    let fs = rec.config.fs;
    let max_rel = |ratios: &[f64]| {
        let mean_r = ratios.iter().sum::<f64>() / ratios.len() as f64;
        ratios.iter().map(|r| (r / mean_r - 1.0).abs()).fold(0.0, f64::max)
    };

    // (1) The trend machinery itself is flat on ground-truth fetal
    // components: windowing, AC/DC extraction, and the ratio add no
    // wander of their own.
    let oracle = dhf::oximetry::spo2_trend_from_components(
        [&rec.fetal_truth[0], &rec.fetal_truth[1]],
        [&rec.mixed[0], &rec.mixed[1]],
        &trend_cfg(fs),
    )
    .unwrap();
    let oracle_rel = max_rel(&oracle.iter().map(|s| s.ratio).collect::<Vec<_>>());
    assert!(oracle_rel < 0.02, "oracle ratio wander {oracle_rel:.4} — trend math is not flat");

    // (2) The separated trend wanders with residual interference leakage
    // (the separator's nonlinear response to the drifting harmonic
    // geometry differs between the two channels' fetal-to-maternal
    // weights — inherent to imperfect separation, and exactly why the
    // paper scores SpO2 through separation quality). Regression-bound it
    // on this seed: measured max 0.135.
    let trend = estimate_spo2_trend(
        [&rec.mixed[0], &rec.mixed[1]],
        fs,
        &[rec.f0.maternal.clone(), rec.f0.fetal.clone()],
        &pipeline_cfg(),
        &trend_cfg(fs),
    )
    .unwrap();
    let sep_rel = max_rel(&trend.ratios());
    assert!(sep_rel < 0.20, "separated ratio wander {sep_rel:.4} regressed");
}
