//! End-to-end motion-artifact robustness: the seeded desaturation
//! recording of `oximetry_e2e.rs` is contaminated with each artifact
//! family from `dhf_synth::artifact` and streamed through the full
//! oximetry workload, with and without the HPSS transient-rejection
//! front filter.
//!
//! Two properties are locked down per family:
//!
//! 1. **Graceful degradation** — without the filter, the calibrated SpO2
//!    trend MAE stays within a checked-in ceiling (the artifact hurts but
//!    does not destroy the trend).
//! 2. **Filter recovery** — with the front filter enabled, the
//!    gait-artifact MAE improves by a measured margin and lands within a
//!    bounded gap of the clean-signal MAE.
//!
//! All floors are calibrated against the seeds below on the fast
//! pipeline; the full-config variants (`--ignored`) re-run the gait
//! experiment at `DhfConfig::default()` budgets. Calibration follows the
//! Figure-6 protocol of `oximetry_e2e.rs`: Eq. 10 fitted per
//! configuration on the trend's own ratios, then scored on its own
//! predictions.

use dhf::core::DhfConfig;
use dhf::oximetry::{Calibration, OximetryConfig, Spo2Sample, StreamingOximeter};
use dhf::stream::{HpssFrontConfig, StreamingConfig};
use dhf::synth::artifact::{self, ArtifactConfig};
use dhf::synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
use dhf::synth::invivo::TfoRecording;

const BASELINE: f64 = 0.55;
const NADIR: f64 = 0.35;
const DURATION_S: f64 = 240.0;
const ARTIFACT_SEED: u64 = 23;

fn recording() -> TfoRecording {
    generate(&DualWaveConfig::new(Spo2Scenario::desaturation(BASELINE, NADIR), DURATION_S))
}

fn contaminated(cfg: &ArtifactConfig) -> TfoRecording {
    let mut rec = recording();
    artifact::apply(&mut rec, cfg);
    rec
}

fn pipeline_cfg() -> DhfConfig {
    DhfConfig::fast().with_harmonic_interp()
}

fn trend_cfg(fs: f64) -> OximetryConfig {
    OximetryConfig::new(1, (30.0 * fs) as usize, (10.0 * fs) as usize, Calibration::default())
        .unwrap()
}

/// Streams the recording through the oximeter, optionally with the HPSS
/// front filter, and returns the trend samples.
fn streamed_trend(
    rec: &TfoRecording,
    dhf: DhfConfig,
    front: Option<HpssFrontConfig>,
) -> Vec<Spo2Sample> {
    let fs = rec.config.fs;
    let n = rec.len();
    let mut scfg = StreamingConfig::new(3000, 600, dhf).unwrap();
    if let Some(f) = front {
        scfg = scfg.with_hpss_front(f);
    }
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

/// Calibrated SpO2 trend MAE against the windowed ground-truth schedule
/// (the Figure-6 protocol).
fn trend_mae(samples: &[Spo2Sample], sao2: &[f64]) -> f64 {
    let ratios: Vec<f64> = samples.iter().map(|s| s.ratio).collect();
    let truth: Vec<f64> = samples
        .iter()
        .map(|s| sao2[s.start..s.start + s.len].iter().sum::<f64>() / s.len as f64)
        .collect();
    let cal = Calibration::fit(&ratios, &truth);
    let pred = cal.predict_many(&ratios);
    pred.iter().zip(&truth).map(|(p, t)| (p - t).abs()).sum::<f64>() / pred.len() as f64
}

/// MAE of a recording streamed at the given configs.
fn mae_for(rec: &TfoRecording, dhf: DhfConfig, front: Option<HpssFrontConfig>) -> f64 {
    trend_mae(&streamed_trend(rec, dhf, front), &rec.sao2)
}

/// The gait demonstration scenario: sharp (20 ms ring-down), regular
/// (8 % timing jitter) foot strikes at 0.1 DC amplitude. Short decays
/// make each impact broadband — the shape HPSS separates best — where the
/// default softer strikes smear across enough frames to look harmonic.
fn gait_scenario() -> ArtifactConfig {
    let mut cfg = ArtifactConfig::gait(DURATION_S, ARTIFACT_SEED);
    let g = cfg.gait.as_mut().unwrap();
    g.amplitude = 0.1;
    g.decay_s = 0.02;
    g.jitter = 0.08;
    cfg
}

/// The front-filter configuration the gait scenario is demonstrated with:
/// default mask shaping over a shorter 0.64 s window, matching the impact
/// ring-down instead of the spike/wander-tuned 1.28 s default.
fn gait_front() -> HpssFrontConfig {
    HpssFrontConfig { window_len: 64, hop: 16, ..HpssFrontConfig::default() }
}

// Measured MAEs on the seeds above (fast pipeline, 2026-08): clean
// 0.0340; spikes off 0.0605 / on 0.0438 (default front); wander off
// 0.0341 / on 0.0286 (default front); gait off 0.0582 / on 0.0446
// (gait front). The margins are seed-dependent (the pipeline is
// deterministic, so these floors are exact regressions, not statistical
// claims — see `report_seed_sweep` for the spread).
const CLEAN_MAE_CEILING: f64 = 0.045;

#[test]
fn clean_trend_stays_accurate_with_filter_off() {
    let rec = recording();
    let mae = mae_for(&rec, pipeline_cfg(), None);
    assert!(mae < CLEAN_MAE_CEILING, "clean-signal trend MAE regressed: {mae:.4}");
}

#[test]
fn spikes_degrade_gracefully_and_recover_with_hpss() {
    let clean_mae = mae_for(&recording(), pipeline_cfg(), None);
    let rec = contaminated(&ArtifactConfig::spikes(ARTIFACT_SEED));
    let off = mae_for(&rec, pipeline_cfg(), None);
    assert!(off < 0.075, "spike degradation blew past its ceiling: {off:.4}");
    assert!(
        off < 2.5 * clean_mae,
        "spikes must degrade gracefully: {off:.4} vs clean {clean_mae:.4}"
    );
    let on = mae_for(&rec, pipeline_cfg(), Some(HpssFrontConfig::default()));
    assert!(on < 0.85 * off, "HPSS must recover spike MAE by a margin: {on:.4} vs {off:.4}");
    assert!(
        on < clean_mae + 0.015,
        "filtered spike MAE must land near clean: {on:.4} vs clean {clean_mae:.4}"
    );
}

#[test]
fn wander_degrades_gracefully_and_recovers_with_hpss() {
    let clean_mae = mae_for(&recording(), pipeline_cfg(), None);
    let rec = contaminated(&ArtifactConfig::wander(ARTIFACT_SEED));
    let off = mae_for(&rec, pipeline_cfg(), None);
    assert!(off < 0.045, "wander degradation blew past its ceiling: {off:.4}");
    assert!(
        off < 2.5 * clean_mae,
        "wander must degrade gracefully: {off:.4} vs clean {clean_mae:.4}"
    );
    let on = mae_for(&rec, pipeline_cfg(), Some(HpssFrontConfig::default()));
    assert!(on < off, "HPSS must not hurt the wander scenario: {on:.4} vs {off:.4}");
    assert!(
        on < clean_mae + 0.010,
        "filtered wander MAE must land near clean: {on:.4} vs clean {clean_mae:.4}"
    );
}

/// The headline acceptance criterion: under the gait-periodic artifact
/// the streamed SpO2 trend MAE improves by a measured, asserted margin
/// with the HPSS front filter on vs off, and lands within a bounded gap
/// of the clean-signal MAE.
#[test]
fn gait_mae_improves_by_margin_with_hpss_front() {
    let clean_mae = mae_for(&recording(), pipeline_cfg(), None);
    let rec = contaminated(&gait_scenario());
    let off = mae_for(&rec, pipeline_cfg(), None);
    assert!(off < 0.072, "gait degradation blew past its ceiling: {off:.4}");
    assert!(
        off < 2.5 * clean_mae,
        "gait must degrade gracefully: {off:.4} vs clean {clean_mae:.4}"
    );
    let on = mae_for(&rec, pipeline_cfg(), Some(gait_front()));
    assert!(
        on < 0.85 * off,
        "HPSS must recover gait MAE by a measured margin: {on:.4} vs {off:.4}"
    );
    assert!(
        on < clean_mae + 0.020,
        "filtered gait MAE must stay within a bounded gap of clean: {on:.4} vs {clean_mae:.4}"
    );
}

/// Scenario determinism: the same seed yields bit-identical artifact
/// waveforms across repeated renders, and distinct seeds actually vary
/// the draw.
#[test]
fn artifact_waveforms_are_seed_deterministic() {
    let (fs, n) = (100.0, 9000);
    for cfg in [
        ArtifactConfig::spikes(ARTIFACT_SEED),
        ArtifactConfig::wander(ARTIFACT_SEED),
        ArtifactConfig::gait(n as f64 / fs, ARTIFACT_SEED),
    ] {
        let a = artifact::waveform(&cfg, n, fs);
        let b = artifact::waveform(&cfg, n, fs);
        assert_eq!(a, b, "{}: repeated render must be bit-identical", cfg.family_name());

        let mut other = cfg.clone();
        other.seed ^= 0x5EED;
        assert_ne!(
            a,
            artifact::waveform(&other, n, fs),
            "{}: different seeds must draw different waveforms",
            cfg.family_name()
        );
    }
}

/// Full-budget variant of the gait demonstration
/// (`DhfConfig::default()`), kept behind `--ignored` so tier-1 stays
/// fast; the CI release job runs it explicitly. Measured at the full
/// config: clean 0.0224, gait off 0.0492, gait on 0.0445.
#[test]
#[ignore = "full-config budgets; run with --ignored in the release job"]
fn gait_mae_improves_with_hpss_front_at_full_config() {
    let clean_mae = mae_for(&recording(), DhfConfig::default().with_harmonic_interp(), None);
    let rec = contaminated(&gait_scenario());
    let off = mae_for(&rec, DhfConfig::default().with_harmonic_interp(), None);
    let on = mae_for(&rec, DhfConfig::default().with_harmonic_interp(), Some(gait_front()));
    println!("full config: clean={clean_mae:.4} off={off:.4} on={on:.4}");
    assert!(off < 2.5 * clean_mae, "gait must degrade gracefully: {off:.4} vs {clean_mae:.4}");
    assert!(on < 0.95 * off, "HPSS must recover gait MAE: {on:.4} vs {off:.4}");
    assert!(on < clean_mae + 0.025, "bounded gap to clean: {on:.4} vs {clean_mae:.4}");
}

/// Seed-robustness sweep for the chosen gait demonstration point — run
/// with `cargo test --release --test artifact_robustness report_seed --
/// --ignored --nocapture`. The checked-in floors above are exact
/// regressions at `ARTIFACT_SEED`; this report shows how the margins
/// spread across other draws when re-tuning.
#[test]
#[ignore = "tuning report, not a regression"]
fn report_seed_sweep() {
    let clean = recording();
    let clean_mae = mae_for(&clean, pipeline_cfg(), None);
    println!("clean mae={clean_mae:.4}");
    let front = gait_front();
    for seed in [23u64, 57, 91, 130] {
        let mut cfg = ArtifactConfig::gait(DURATION_S, seed);
        {
            let g = cfg.gait.as_mut().unwrap();
            let demo = gait_scenario().gait.unwrap();
            g.amplitude = demo.amplitude;
            g.decay_s = demo.decay_s;
            g.jitter = demo.jitter;
        }
        let rec = contaminated(&cfg);
        let off = mae_for(&rec, pipeline_cfg(), None);
        let on = mae_for(&rec, pipeline_cfg(), Some(front.clone()));
        println!("seed={seed:3} off={off:.4} on={on:.4} ratio={:.3}", on / off);
    }
    for seed in [23u64, 57] {
        let spikes = contaminated(&ArtifactConfig::spikes(seed));
        let s_off = mae_for(&spikes, pipeline_cfg(), None);
        let s_on = mae_for(&spikes, pipeline_cfg(), Some(HpssFrontConfig::default()));
        println!("spikes seed={seed:3} off={s_off:.4} on(default)={s_on:.4}");
        let wander = contaminated(&ArtifactConfig::wander(seed));
        let w_off = mae_for(&wander, pipeline_cfg(), None);
        let w_on = mae_for(&wander, pipeline_cfg(), Some(HpssFrontConfig::default()));
        println!("wander seed={seed:3} off={w_off:.4} on(default)={w_on:.4}");
    }
}
