//! Golden output digests: four small fixed-seed runs through the stack,
//! each reduced to an FNV-1a 64-bit hash over the `to_bits()` of every
//! output value and compared with a checked-in constant.
//!
//! The determinism suites compare one path of the stack with another
//! (served against serial, tracing on against off), so a change that
//! moves every path the same way passes all of them. These digests see
//! it. A change that alters outputs on purpose updates the constants and
//! says why in CHANGES.md.
//!
//! The digests are pinned to x86_64 Linux: `f64::exp`, `sin` and the
//! other transcendental functions come from the platform libm, whose
//! last-bit rounding can differ on other targets.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use dhf::core::{DhfConfig, RoundContext};
use dhf::oximetry::{Calibration, OximetryConfig};
use dhf::serve::{ServeConfig, SessionManager};
use dhf::stream::{separate_streamed, FrontFilter, HpssFrontConfig, StreamingConfig};
use dhf::synth::artifact::{self, ArtifactConfig};
use dhf::synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
use dhf::synth::duet::drifting_duet;
use dhf::synth::invivo::{CALIBRATION_K, CALIBRATION_W0, CALIBRATION_W1};

const FS: f64 = 100.0;

const OFFLINE_DEEP_PRIOR: u64 = 0x838d_a2f2_5882_adec;
const WARM_STREAMED: u64 = 0x8aac_8271_2d1b_d5a2;
const SERVED_OXIMETRY: u64 = 0x17b5_4a77_7998_f4f8;
const HPSS_FRONT_GAIT: u64 = 0x2ae1_8467_163c_eea3;

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of every sample of every source, in source order.
fn sources_digest(sources: &[Vec<f64>]) -> u64 {
    fnv1a(sources.iter().flatten().map(|v| v.to_bits()))
}

fn assert_digest(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: output digest {got:#018x}, expected {want:#018x}");
}

#[test]
fn offline_deep_prior_separation_matches_its_digest() {
    let duet = drifting_duet(FS, 3000, 1);
    let out = RoundContext::new(&DhfConfig::fast())
        .separate(&duet.mixed, FS, &duet.f0_tracks, 0)
        .unwrap();
    assert_digest("offline deep prior", sources_digest(&out.sources), OFFLINE_DEEP_PRIOR);
}

#[test]
fn warm_started_streaming_matches_its_digest() {
    let duet = drifting_duet(FS, 6500, 2);
    let cfg = StreamingConfig::new(3000, 400, DhfConfig::fast()).unwrap().with_warm_start();
    let (out, dropped) = separate_streamed(&duet.mixed, FS, &duet.f0_tracks, &cfg).unwrap();
    assert_eq!(dropped, 0);
    assert_digest("warm-started streaming", sources_digest(&out), WARM_STREAMED);
}

#[test]
fn served_oximetry_session_matches_its_digest() {
    let rec =
        generate(&DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.5 }, 60.0).with_seed(11));
    let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast().with_harmonic_interp()).unwrap();
    let cal = Calibration { w0: CALIBRATION_W0, w1: CALIBRATION_W1, k: CALIBRATION_K };
    let ocfg = OximetryConfig::new(1, 2000, 1000, cal).unwrap();

    let manager = SessionManager::new(ServeConfig::new(1).unwrap());
    let id = manager.open_oximetry(FS, 2, scfg, ocfg).unwrap();
    let n = rec.len();
    let mut windows = Vec::new();
    for lo in (0..n).step_by(500) {
        let hi = (lo + 500).min(n);
        let t: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
        manager.push_oximetry(id, &rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi], &t).unwrap();
        windows.extend(manager.poll(id).unwrap().spo2);
    }
    let fin = manager.close(id).unwrap();
    assert!(fin.error.is_none());
    windows.extend(fin.spo2);
    manager.shutdown().unwrap();

    assert!(!windows.is_empty(), "the session must emit SpO2 windows");
    let words = windows
        .iter()
        .flat_map(|s| [s.start as u64, s.len as u64, s.ratio.to_bits(), s.spo2.to_bits()]);
    assert_digest("served oximetry session", fnv1a(words), SERVED_OXIMETRY);
}

#[test]
fn hpss_front_filter_on_a_gait_mix_matches_its_digest() {
    let n = 6000;
    let mut mix = drifting_duet(FS, n, 3).mixed;
    let art = artifact::waveform(&ArtifactConfig::gait(n as f64 / FS, 9), n, FS);
    for (x, a) in mix.iter_mut().zip(art) {
        *x += 2.0 * a;
    }
    let mut filter = FrontFilter::new(HpssFrontConfig::default(), FS).unwrap();
    let out = filter.filter(&mix);
    assert_eq!(out.len(), n);
    assert_digest("HPSS front filter", fnv1a(out.iter().map(|v| v.to_bits())), HPSS_FRONT_GAIT);
}
