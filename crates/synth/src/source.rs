//! Rendering a template + schedule into a sampled quasi-periodic signal
//! with its ground-truth fundamental-frequency track.

use crate::schedule::PeriodSchedule;
use crate::templates::Template;
use rand::Rng;

/// A rendered source: samples plus the ground-truth per-sample fundamental
/// frequency (the auxiliary information DHF assumes available).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourceSignal {
    /// Time-domain samples at the rendering sample rate.
    pub samples: Vec<f64>,
    /// Instantaneous fundamental frequency (Hz) per sample.
    pub f0: Vec<f64>,
}

/// A quasi-periodic source: one waveform template driven by a
/// [`PeriodSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuasiPeriodicSource {
    template: Template,
    schedule: PeriodSchedule,
}

impl QuasiPeriodicSource {
    /// Combines a template with a schedule.
    pub fn new(template: Template, schedule: PeriodSchedule) -> Self {
        QuasiPeriodicSource { template, schedule }
    }

    /// The waveform template.
    pub fn template(&self) -> Template {
        self.template
    }

    /// The period schedule.
    pub fn schedule(&self) -> &PeriodSchedule {
        &self.schedule
    }

    /// Renders `n_samples` samples at rate `fs`; if the schedule runs out
    /// of periods the last period repeats.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or `fs <= 0`.
    pub fn render(&self, fs: f64, n_samples: usize) -> SourceSignal {
        assert!(!self.schedule.is_empty(), "schedule must have at least one period");
        assert!(fs > 0.0, "sample rate must be positive");
        let dt = 1.0 / fs;
        let mut samples = Vec::with_capacity(n_samples);
        let mut f0 = Vec::with_capacity(n_samples);
        let mut idx = 0usize;
        let mut into = 0.0f64; // time into the current period
        let last = self.schedule.len() - 1;
        for _ in 0..n_samples {
            let d = self.schedule.durations[idx];
            let a = self.schedule.amplitudes[idx];
            samples.push(a * self.template.eval(into / d));
            f0.push(1.0 / d);
            into += dt;
            while into >= self.schedule.durations[idx] {
                into -= self.schedule.durations[idx];
                if idx < last {
                    idx += 1;
                }
            }
        }
        SourceSignal { samples, f0 }
    }
}

/// Adds i.i.d. Gaussian noise of the given standard deviation.
pub fn add_noise<R: Rng>(samples: &mut [f64], std: f64, rng: &mut R) {
    if std <= 0.0 {
        return;
    }
    for s in samples {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        *s += std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn render_produces_requested_length() {
        let sched = PeriodSchedule::new(vec![0.5; 10], vec![1.0; 10]);
        let src = QuasiPeriodicSource::new(Template::Sine, sched);
        let sig = src.render(100.0, 300);
        assert_eq!(sig.samples.len(), 300);
        assert_eq!(sig.f0.len(), 300);
    }

    #[test]
    fn constant_schedule_gives_periodic_output() {
        // 2 Hz sine via 0.5-second periods: samples repeat every 50.
        let sched = PeriodSchedule::new(vec![0.5; 20], vec![1.0; 20]);
        let src = QuasiPeriodicSource::new(Template::Sine, sched);
        let sig = src.render(100.0, 500);
        for i in 0..400 {
            assert!((sig.samples[i] - sig.samples[i + 50]).abs() < 1e-9, "sample {i}");
        }
        assert!(sig.f0.iter().all(|&f| (f - 2.0).abs() < 1e-12));
    }

    #[test]
    fn f0_track_follows_schedule_changes() {
        let sched = PeriodSchedule::new(vec![1.0, 0.5, 0.25], vec![1.0, 1.0, 1.0]);
        let src = QuasiPeriodicSource::new(Template::Sine, sched);
        let sig = src.render(100.0, 176); // 1.0 + 0.5 + 0.25 s ≈ 175 samples
        assert!((sig.f0[0] - 1.0).abs() < 1e-12);
        assert!((sig.f0[110] - 2.0).abs() < 1e-12);
        assert!((sig.f0[160] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn amplitudes_scale_each_period() {
        let sched = PeriodSchedule::new(vec![0.5, 0.5], vec![1.0, 3.0]);
        let src = QuasiPeriodicSource::new(Template::Sine, sched);
        let sig = src.render(100.0, 100);
        let peak1 = sig.samples[..50].iter().cloned().fold(f64::MIN, f64::max);
        let peak2 = sig.samples[50..].iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak1 - 1.0).abs() < 0.01);
        assert!((peak2 - 3.0).abs() < 0.01);
    }

    #[test]
    fn schedule_exhaustion_repeats_last_period() {
        let sched = PeriodSchedule::new(vec![0.5], vec![1.0]);
        let src = QuasiPeriodicSource::new(Template::Sine, sched);
        let sig = src.render(100.0, 200);
        assert!((sig.samples[30] - sig.samples[130]).abs() < 1e-9);
    }

    #[test]
    fn noise_has_requested_std() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = vec![0.0; 50_000];
        add_noise(&mut x, 0.2, &mut rng);
        let var = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        assert!((var.sqrt() - 0.2).abs() < 0.01);
        let mut y = vec![1.0; 10];
        add_noise(&mut y, 0.0, &mut rng);
        assert_eq!(y, vec![1.0; 10]);
    }

    #[test]
    fn rendered_spectrum_sits_in_schedule_band() {
        use dhf_dsp::fft::power_spectrum;
        let mut rng = StdRng::seed_from_u64(9);
        let sched = PeriodSchedule::random(40.0, 1.2, 1.6, 1.0, 0.05, &mut rng);
        let src = QuasiPeriodicSource::new(Template::Ppg, sched);
        let sig = src.render(100.0, 4000);
        let mag: Vec<f64> = power_spectrum(&sig.samples).iter().map(|p| p.sqrt()).collect();
        // Fundamental band bins at 40 s window: f [1.2,1.6] → bins 48..64.
        let band: f64 = mag[44..70].iter().sum();
        let below: f64 = mag[4..40].iter().sum();
        assert!(band > below, "fundamental band not dominant");
    }
}
