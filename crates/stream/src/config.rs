//! Streaming engine configuration.

use crate::hpss::HpssFrontConfig;
use crate::StreamError;
use dhf_core::DhfConfig;
use dhf_nn::WarmFitParams;

/// Chunking parameters of a streaming session.
///
/// A session analyzes the stream in chunks of `chunk_len` samples spaced
/// `chunk_len - overlap` apart; consecutive chunks share `overlap` samples
/// that are cross-faded at emission. Larger chunks give each DHF round
/// more context (better separation, especially for low fundamentals that
/// need many cycles per analysis window) at the cost of latency; larger
/// overlaps smooth seams harder at the cost of redundant computation.
///
/// An optional HPSS transient-rejection front filter
/// ([`with_hpss_front`](Self::with_hpss_front)) scrubs motion artifacts
/// from each chunk before separation; it is off by default so
/// clean-signal sessions pay nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    chunk_len: usize,
    overlap: usize,
    dhf: DhfConfig,
    hpss_front: Option<HpssFrontConfig>,
}

impl StreamingConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] if `chunk_len` is zero or
    /// `overlap > chunk_len / 2` (each output sample must be covered by at
    /// most two chunks for the two-way cross-fade to reconstruct unit
    /// gain).
    pub fn new(chunk_len: usize, overlap: usize, dhf: DhfConfig) -> Result<Self, StreamError> {
        if chunk_len == 0 {
            return Err(StreamError::InvalidConfig {
                name: "chunk_len",
                message: "must be positive".into(),
            });
        }
        if overlap > chunk_len / 2 {
            return Err(StreamError::InvalidConfig {
                name: "overlap",
                message: format!("must be at most chunk_len/2 = {}", chunk_len / 2),
            });
        }
        Ok(StreamingConfig { chunk_len, overlap, dhf, hpss_front: None })
    }

    /// Enables the HPSS transient-rejection front filter: each analysis
    /// chunk is replaced by its harmonic-only HPSS resynthesis before
    /// separation (see [`FrontFilter`](crate::FrontFilter)). Parameters
    /// are validated against the sample rate when the session opens.
    pub fn with_hpss_front(mut self, front: HpssFrontConfig) -> Self {
        self.hpss_front = Some(front);
        self
    }

    /// The HPSS front-filter parameters, if the filter is enabled.
    pub fn hpss_front(&self) -> Option<&HpssFrontConfig> {
        self.hpss_front.as_ref()
    }

    /// Enables deep-prior warm starting with the default fine-tune budget:
    /// from the second chunk on, each source's in-painting resumes the
    /// previous chunk's trained weights with a bounded fine-tune instead of
    /// refitting from scratch (see `dhf_core::inpaint`). A caller that
    /// needs another budget sets `dhf.inpaint.warm` on the [`DhfConfig`]
    /// it passes to [`StreamingConfig::new`] instead.
    pub fn with_warm_start(mut self) -> Self {
        self.dhf.inpaint.warm = Some(WarmFitParams::default());
        self
    }

    /// The warm fine-tune budget, if warm starting is enabled.
    pub fn warm_start(&self) -> Option<&WarmFitParams> {
        self.dhf.inpaint.warm.as_ref()
    }

    /// Samples per analysis chunk.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Samples shared (and cross-faded) between consecutive chunks.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Stride between chunk starts: `chunk_len - overlap`.
    pub fn hop(&self) -> usize {
        self.chunk_len - self.overlap
    }

    /// The per-chunk DHF pipeline configuration.
    pub fn dhf(&self) -> &DhfConfig {
        &self.dhf
    }

    /// Worst-case samples between ingesting a sample and emitting its
    /// separated estimate (excluding [`flush`](crate::StreamingSeparator::flush)):
    /// a sample waits at most until the chunk whose emit region contains
    /// it is complete, i.e. one full chunk.
    pub fn max_latency_samples(&self) -> usize {
        self.chunk_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        let dhf = DhfConfig::fast();
        assert!(StreamingConfig::new(0, 0, dhf.clone()).is_err());
        assert!(StreamingConfig::new(100, 51, dhf.clone()).is_err());
        let ok = StreamingConfig::new(100, 50, dhf.clone()).unwrap();
        assert_eq!(ok.hop(), 50);
        assert_eq!(ok.max_latency_samples(), 100);
        assert!(StreamingConfig::new(100, 0, dhf).is_ok());
    }

    #[test]
    fn hpss_front_defaults_off_and_round_trips() {
        let cfg = StreamingConfig::new(100, 0, DhfConfig::fast()).unwrap();
        assert!(cfg.hpss_front().is_none());
        let front = HpssFrontConfig { kernel_time: 9, ..HpssFrontConfig::default() };
        let cfg = cfg.with_hpss_front(front.clone());
        assert_eq!(cfg.hpss_front(), Some(&front));
    }
}
