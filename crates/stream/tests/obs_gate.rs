//! The tracing-gate invariant (property test): enabling `dhf_obs` span
//! collection must not change a single output bit of the streaming
//! separator. Tracing observes the pipeline; it must never perturb it.
//!
//! The property runs the same mix through [`separate_streamed`] once
//! with the gate shut and once with it open, requiring `f64`-exact
//! equality (not tolerance-based: the traced code path is the same code
//! path, so any divergence at all is a bug). While the gate is open the
//! streaming stages must actually land in the thread-local ring —
//! otherwise the "enabled" arm silently tested nothing.

use dhf_core::DhfConfig;
use dhf_obs::Stage;
use dhf_stream::{separate_streamed, StreamingConfig};
use proptest::prelude::*;

/// Two drifting quasi-periodic sources (same family as the stitching
/// test, shorter: the property is bit-equality, not separation quality).
fn make_mix(fs: f64, n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let track1: Vec<f64> = (0..n)
        .map(|i| 1.35 + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 4.0).sin())
        .collect();
    let track2: Vec<f64> = (0..n)
        .map(|i| 2.50 + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 7.0).cos())
        .collect();
    let render = |track: &[f64], amp: f64, h2: f64| -> Vec<f64> {
        let mut phase = 0.0;
        track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                amp * (phase.sin() + h2 * (2.0 * phase).sin())
            })
            .collect()
    };
    let s1 = render(&track1, 1.0, 0.5);
    let s2 = render(&track2, 0.35, 0.3);
    let mix: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
    (mix, vec![track1, track2])
}

/// Empty this thread's span ring so later event counts are attributable
/// to the run under test, not to earlier proptest cases.
fn clear_ring() {
    let mut discard = dhf_obs::StageBreakdown::new();
    dhf_obs::drain_thread_into(&mut discard);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn tracing_gate_never_changes_streaming_output(
        chunk_len in 2600usize..3400,
        overlap_frac in 0.10f64..0.40,
    ) {
        let fs = 100.0;
        let n = 6000;
        let overlap = ((chunk_len as f64 * overlap_frac) as usize).min(chunk_len / 2);
        let (mix, tracks) = make_mix(fs, n);
        let dhf = DhfConfig::fast().with_harmonic_interp();
        let scfg = StreamingConfig::new(chunk_len, overlap, dhf).unwrap();

        // Gate shut (the default): the reference run.
        dhf_obs::set_enabled(false);
        let (quiet, quiet_dropped) = separate_streamed(&mix, fs, &tracks, &scfg).unwrap();

        // Gate open: same inputs, spans recorded into this thread's ring.
        clear_ring();
        dhf_obs::set_enabled(true);
        let traced = separate_streamed(&mix, fs, &tracks, &scfg);
        dhf_obs::set_enabled(false);
        let (traced, traced_dropped) = traced.unwrap();
        let mut breakdown = dhf_obs::StageBreakdown::new();
        dhf_obs::drain_thread_into(&mut breakdown);

        prop_assert_eq!(quiet_dropped, traced_dropped);
        prop_assert_eq!(quiet.len(), traced.len());
        for (src, (q, t)) in quiet.iter().zip(&traced).enumerate() {
            prop_assert_eq!(q.len(), t.len());
            for (i, (a, b)) in q.iter().zip(t).enumerate() {
                // Bit-exact: tracing must be a pure observer.
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "source {} sample {}: {} (quiet) != {} (traced)",
                    src, i, a, b
                );
            }
        }

        for stage in [Stage::ChunkAdvance, Stage::ChunkFlush, Stage::NnFit] {
            prop_assert!(
                breakdown.stage(stage).count() > 0,
                "gate was open but no {} spans were recorded",
                stage
            );
        }
    }
}
