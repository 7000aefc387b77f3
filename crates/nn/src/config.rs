//! Network hyper-parameters and shared optimizer budgets.

use crate::blocks::ConvKind;

/// Optimizer budget of a from-scratch deep-prior fit: how many Adam steps
/// at which learning rate.
///
/// The tuned budgets live here as named constants so every consumer — the
/// in-painter, the ablation harness, benchmarks — reads the same source of
/// truth instead of scattering magic `(iterations, lr)` pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitParams {
    /// Adam steps.
    pub iterations: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl FitParams {
    /// Paper-faithful full-quality budget (§4.1: 300 iterations).
    pub const FULL: FitParams = FitParams { iterations: 300, lr: 0.01 };
    /// Reduced budget used by the streaming `fast()` preset.
    pub const FAST: FitParams = FitParams { iterations: 120, lr: 0.01 };
    /// Smoke-test budget for the Figure-3 ablation variants: just enough
    /// steps to separate the architectures on a synthetic ridge.
    pub const ABLATION_SMOKE: FitParams = FitParams { iterations: 30, lr: 0.02 };
}

/// Budget and stopping rule of a *warm* fine-tune: a bounded number of
/// Adam steps resumed from an already-trained weight state, with
/// loss-plateau early stopping.
///
/// Warm fits exploit the temporal coherence of adjacent streaming chunks —
/// the previous chunk's converged prior is a few dozen steps away from the
/// next chunk's optimum, not a few hundred.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmFitParams {
    /// Hard cap on Adam steps for one warm fine-tune.
    pub max_iterations: usize,
    /// Adam learning rate (a fresh optimizer is used per fine-tune).
    pub lr: f32,
    /// Stop after this many consecutive steps without meaningful
    /// improvement over the best loss seen in this fine-tune.
    pub patience: usize,
    /// Relative improvement threshold: a step "improves" when the loss
    /// drops below `best * (1 - min_rel_improvement)`.
    pub min_rel_improvement: f32,
}

impl Default for WarmFitParams {
    fn default() -> Self {
        WarmFitParams { max_iterations: 40, lr: 0.01, patience: 6, min_rel_improvement: 1e-3 }
    }
}

/// Hyper-parameters of [`DeepPriorNet`].
///
/// The defaults reproduce the paper's SpAc LU-Net: harmonic convolutions
/// with anchor 1, no frequency pooling, and a large time dilation that
/// matches the constant-frequency patterns created by pattern alignment
/// (the paper uses 13 or 15 depending on the masking situation, §4.2).
/// The single output channel always goes through a logistic sigmoid: the
/// in-painter normalizes magnitudes into `[0, 1]`.
///
/// [`DeepPriorNet`]: crate::DeepPriorNet
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Channels of the noise input code `z`.
    pub in_channels: usize,
    /// Channel count of the first encoder level; each level doubles it.
    pub base_channels: usize,
    /// Number of time-pooling levels (the "Light" U-Net is shallow).
    pub depth: usize,
    /// Convolution flavour for all hidden layers.
    pub conv: ConvKind,
    /// Frequency max-pooling factor per level — **must stay `None` for the
    /// SpAc design**; `Some(2)` reproduces the Zhang-baseline ablation.
    pub freq_pool: Option<usize>,
    /// Negative slope of the hidden leaky ReLUs.
    pub relu_slope: f32,
    /// Standard deviation of the fixed noise input `z`.
    pub z_std: f32,
    /// Initial bias of the output projection. It sets the untrained image
    /// level: `σ(output_bias)` should sit near the *background* magnitude
    /// of the (normalized) target so hidden cells start dark instead of
    /// mid-gray. The DHF in-painter overrides it per round from the
    /// visible-cell statistics.
    pub output_bias: f32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            in_channels: 2,
            base_channels: 8,
            depth: 2,
            conv: ConvKind::Harmonic { harmonics: 4, kt: 3, anchor: 1, dil_t: 13 },
            freq_pool: None,
            relu_slope: 0.1,
            z_std: 0.1,
            output_bias: -3.0,
        }
    }
}

impl NetConfig {
    /// The paper's SpAc LU-Net with an explicit time dilation (13 or 15 in
    /// the paper, chosen per masking situation).
    pub fn spac(time_dilation: usize) -> Self {
        NetConfig {
            conv: ConvKind::Harmonic { harmonics: 4, kt: 3, anchor: 1, dil_t: time_dilation },
            ..NetConfig::default()
        }
    }

    /// Time extent divisor required by the pooling schedule.
    pub fn time_divisor(&self) -> usize {
        1 << self.depth
    }

    /// Frequency extent divisor required by the pooling schedule.
    pub fn freq_divisor(&self) -> usize {
        match self.freq_pool {
            Some(f) => f.pow(self.depth as u32),
            None => 1,
        }
    }

    /// FNV-1a fingerprint of the architecture this configuration builds
    /// for a `bins × frames` image — the key the in-painter compares with
    /// a resident net's
    /// [`weight_fingerprint`](crate::DeepPriorNet::weight_fingerprint)
    /// before resuming it warm.
    ///
    /// `z_std` and `output_bias` are deliberately excluded: the resident
    /// net keeps its own noise code, and the output bias is itself a
    /// trainable parameter — neither changes the *structure* a resident
    /// net must match. The in-painter re-derives `output_bias` per round,
    /// so including it would spuriously send every warm fit cold.
    pub fn architecture_fingerprint(&self, bins: usize, frames: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(bins as u64);
        eat(frames as u64);
        eat(self.in_channels as u64);
        eat(self.base_channels as u64);
        eat(self.depth as u64);
        match self.conv {
            ConvKind::Standard { kf, kt, dil_f, dil_t } => {
                eat(1);
                eat(kf as u64);
                eat(kt as u64);
                eat(dil_f as u64);
                eat(dil_t as u64);
            }
            ConvKind::Harmonic { harmonics, kt, anchor, dil_t } => {
                eat(2);
                eat(harmonics as u64);
                eat(kt as u64);
                eat(anchor as u64);
                eat(dil_t as u64);
            }
        }
        eat(self.freq_pool.map_or(0, |f| f as u64 + 1));
        eat(u64::from(self.relu_slope.to_bits()));
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_spectrally_accurate() {
        let cfg = NetConfig::default();
        assert!(cfg.freq_pool.is_none());
        match cfg.conv {
            ConvKind::Harmonic { anchor, .. } => assert_eq!(anchor, 1),
            _ => panic!("default must use harmonic convolutions"),
        }
    }

    #[test]
    fn divisors_follow_depth() {
        let cfg = NetConfig { depth: 3, freq_pool: Some(2), ..NetConfig::default() };
        assert_eq!(cfg.time_divisor(), 8);
        assert_eq!(cfg.freq_divisor(), 8);
        let spac = NetConfig::default();
        assert_eq!(spac.freq_divisor(), 1);
    }

    #[test]
    fn spac_constructor_sets_dilation() {
        let cfg = NetConfig::spac(15);
        match cfg.conv {
            ConvKind::Harmonic { dil_t, .. } => assert_eq!(dil_t, 15),
            _ => panic!(),
        }
    }
}
