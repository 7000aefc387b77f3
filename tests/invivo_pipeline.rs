//! Cross-crate integration of the in-vivo chain: TFO simulation →
//! separation → AC/DC extraction → modulation ratio → calibration →
//! correlation, mirroring the Figure-6 bench at test-sized budgets.

use dhf::oximetry::{ac_amplitude, dc_level, modulation_ratio, spo2_correlation};
use dhf::synth::invivo::{simulate, InvivoConfig};

/// Oracle chain: use the ground-truth fetal AC. This validates the
/// simulator's forward model — if the oracle cannot recover SaO2, no
/// separator could.
#[test]
fn oracle_fetal_signal_recovers_sao2_almost_perfectly() {
    let recording = simulate(&InvivoConfig::sheep1().scaled(0.1));
    let fs = recording.config.fs;
    let half = (20.0 * fs) as usize;
    let mut ratios = Vec::new();
    let mut sao2 = Vec::new();
    for draw in &recording.draws {
        let centre = recording.sample_at(draw.time_s);
        let lo = centre.saturating_sub(half);
        let hi = (centre + half).min(recording.len());
        let mut ac = [0.0; 2];
        let mut dc = [0.0; 2];
        for lambda in 0..2 {
            ac[lambda] = ac_amplitude(&recording.fetal_truth[lambda][lo..hi]);
            dc[lambda] = dc_level(&recording.mixed[lambda][lo..hi]);
        }
        ratios.push(modulation_ratio(ac[0], dc[0], ac[1], dc[1]));
        sao2.push(draw.sao2);
    }
    let corr = spo2_correlation(&ratios, &sao2);
    assert!(corr > 0.9, "oracle correlation {corr:.3}");
}

/// Raw-mix chain: computing R from the *unseparated* pulsatile signal
/// must be clearly worse than the oracle — interference drift corrupts
/// the ratio, which is the entire reason separation quality matters.
#[test]
fn unseparated_signal_degrades_sao2_recovery() {
    let recording = simulate(&InvivoConfig::sheep2().scaled(0.1));
    let fs = recording.config.fs;
    let half = (20.0 * fs) as usize;
    let mut oracle = Vec::new();
    let mut raw = Vec::new();
    let mut sao2 = Vec::new();
    for draw in &recording.draws {
        let centre = recording.sample_at(draw.time_s);
        let lo = centre.saturating_sub(half);
        let hi = (centre + half).min(recording.len());
        let mut r = [[0.0f64; 2]; 2];
        for (lambda, mixed) in recording.mixed.iter().enumerate() {
            let window = &mixed[lo..hi];
            let dc = dc_level(window);
            let pulsatile: Vec<f64> = window.iter().map(|&v| v - dc).collect();
            r[0][lambda] = ac_amplitude(&recording.fetal_truth[lambda][lo..hi]) / dc;
            r[1][lambda] = ac_amplitude(&pulsatile) / dc;
        }
        oracle.push(r[0][0] / r[0][1]);
        raw.push(r[1][0] / r[1][1]);
        sao2.push(draw.sao2);
    }
    let corr_oracle = spo2_correlation(&oracle, &sao2);
    let corr_raw = spo2_correlation(&raw, &sao2);
    assert!(
        corr_oracle > corr_raw + 0.1,
        "oracle {corr_oracle:.3} must clearly beat raw {corr_raw:.3}"
    );
}

#[test]
fn simulator_exposes_consistent_ground_truth() {
    let recording = simulate(&InvivoConfig::sheep1().scaled(0.05));
    // The mixed signal equals DC + maternal + respiration + fetal + noise;
    // check the published truths are actually inside the mix by energy
    // accounting (noise and respiration account for the remainder).
    let n = recording.len();
    let mut explained = 0.0;
    let mut total = 0.0;
    for i in 0..n {
        let centred = recording.mixed[0][i] - dhf::synth::invivo::DC_LEVELS[0];
        let known = recording.maternal_truth[0][i] + recording.fetal_truth[0][i];
        explained += (centred - known) * (centred - known);
        total += centred * centred;
    }
    // Respiration + noise carry a substantial but not dominant share.
    let unexplained = explained / total;
    assert!(
        unexplained > 0.05 && unexplained < 0.95,
        "unexplained share {unexplained:.3} out of range"
    );
}

#[test]
fn fetal_estimation_with_dhf_tracks_oracle_on_one_window() {
    use dhf::core::{separate, DhfConfig};
    let recording = simulate(&InvivoConfig::sheep1().scaled(0.05));
    let fs = recording.config.fs;
    let lo = recording.len() / 4;
    let hi = lo + (40.0 * fs) as usize;
    let window = &recording.mixed[0][lo..hi];
    let dc = dc_level(window);
    let pulsatile: Vec<f64> = window.iter().map(|&v| v - dc).collect();
    let tracks = vec![recording.f0.maternal[lo..hi].to_vec(), recording.f0.fetal[lo..hi].to_vec()];
    let mut cfg = DhfConfig::fast();
    cfg.inpaint.iterations = 50;
    let result = separate(&pulsatile, fs, &tracks, &cfg).unwrap();
    let est_ac = ac_amplitude(&result.sources[1]);
    let true_ac = ac_amplitude(&recording.fetal_truth[0][lo..hi]);
    // The fetal AC estimate lands within a factor of three of the truth —
    // enough for the modulation ratio to carry SaO2 information.
    assert!(
        est_ac > true_ac / 3.0 && est_ac < true_ac * 3.0,
        "fetal AC {est_ac:.4} vs truth {true_ac:.4}"
    );
}
