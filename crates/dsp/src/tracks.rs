//! The f0-track contract shared by every separator (paper §3.1).
//!
//! Each source is conditioned on one fundamental-frequency track: one
//! value per signal sample, strictly positive and finite, since pattern
//! alignment unwarps the mix by the track's cumulative phase (Eq. 4).
//! [`check_tracks`] is the one place that contract is checked: the
//! offline pipeline, the aligner, the streaming engine, the serving
//! runtime and the baselines all call it and report its [`TrackError`].

/// Why a set of f0 tracks breaks the contract, located where possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackError {
    /// No tracks were supplied.
    Missing,
    /// The number of tracks differs from the number of sources.
    Count {
        /// Sources expected.
        expected: usize,
        /// Tracks supplied.
        got: usize,
    },
    /// A track's length differs from the signal's.
    Length {
        /// Index of the offending track.
        track: usize,
        /// Samples in the signal.
        expected: usize,
        /// Samples in the track.
        got: usize,
    },
    /// A track value is non-positive or non-finite.
    Value {
        /// Index of the offending track.
        track: usize,
        /// Sample index of the first offending value.
        sample: usize,
    },
}

impl TrackError {
    /// Shifts a [`TrackError::Value`] location by `base` samples, turning
    /// a position within a packet into an absolute stream position. Other
    /// variants carry no sample position and are returned unchanged.
    pub fn offset(self, base: usize) -> Self {
        match self {
            TrackError::Value { track, sample } => {
                TrackError::Value { track, sample: base + sample }
            }
            other => other,
        }
    }
}

impl std::fmt::Display for TrackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackError::Missing => write!(f, "no fundamental-frequency tracks given"),
            TrackError::Count { expected, got } => {
                write!(f, "{got} f0 tracks given for {expected} sources")
            }
            TrackError::Length { track, expected, got } => {
                write!(f, "f0 track {track} has {got} samples, the signal has {expected}")
            }
            TrackError::Value { track, sample } => write!(
                f,
                "f0 track {track} has a non-positive or non-finite value at sample {sample}"
            ),
        }
    }
}

impl std::error::Error for TrackError {}

/// Checks `tracks` against `n_sources` sources and a signal of `len`
/// samples: exactly one track per source, at least one track, every track
/// `len` samples long, every value strictly positive and finite.
///
/// Reports the first violation, in the order count, missing, length,
/// value. Callers without a fixed source count pass `tracks.len()`.
/// Tracks may be owned (`&[Vec<f64>]`) or borrowed (`&[&[f64]]`).
///
/// # Errors
///
/// Returns the first [`TrackError`] found.
///
/// # Example
///
/// ```
/// use dhf_dsp::tracks::{check_tracks, TrackError};
///
/// let tracks = [vec![1.2; 4], vec![2.4, 2.4, f64::NAN, 2.4]];
/// assert_eq!(check_tracks(2, 4, &tracks), Err(TrackError::Value { track: 1, sample: 2 }));
/// assert_eq!(check_tracks(2, 4, &tracks[..1]), Err(TrackError::Count { expected: 2, got: 1 }));
/// assert!(check_tracks(1, 4, &tracks[..1]).is_ok());
/// ```
pub fn check_tracks<T: AsRef<[f64]>>(
    n_sources: usize,
    len: usize,
    tracks: &[T],
) -> Result<(), TrackError> {
    if tracks.len() != n_sources {
        return Err(TrackError::Count { expected: n_sources, got: tracks.len() });
    }
    if tracks.is_empty() {
        return Err(TrackError::Missing);
    }
    for (track, t) in tracks.iter().enumerate() {
        let got = t.as_ref().len();
        if got != len {
            return Err(TrackError::Length { track, expected: len, got });
        }
    }
    for (track, t) in tracks.iter().enumerate() {
        if let Some(sample) = t.as_ref().iter().position(|&f| !f.is_finite() || f <= 0.0) {
            return Err(TrackError::Value { track, sample });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_violation_is_reported_with_its_location() {
        let good = vec![1.3; 5];
        assert_eq!(check_tracks::<Vec<f64>>(0, 5, &[]), Err(TrackError::Missing));
        assert_eq!(
            check_tracks(2, 5, &[&good[..]]),
            Err(TrackError::Count { expected: 2, got: 1 })
        );
        assert_eq!(
            check_tracks(2, 5, &[&good[..], &good[..4]]),
            Err(TrackError::Length { track: 1, expected: 5, got: 4 })
        );
        // Count comes before length, length before value.
        let mut bad = good.clone();
        bad[3] = 0.0;
        assert_eq!(
            check_tracks(3, 4, &[&bad[..], &good[..]]),
            Err(TrackError::Count { expected: 3, got: 2 })
        );
        assert_eq!(
            check_tracks(2, 5, &[&bad[..], &good[..4]]),
            Err(TrackError::Length { track: 1, expected: 5, got: 4 })
        );
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut t = good.clone();
            t[3] = v;
            assert_eq!(
                check_tracks(2, 5, &[&good[..], &t[..]]),
                Err(TrackError::Value { track: 1, sample: 3 }),
                "value {v}"
            );
        }
        // An empty packet passes: every track is as long as the signal.
        assert!(check_tracks::<&[f64]>(2, 0, &[&[], &[]]).is_ok());
        assert!(check_tracks(2, 5, &[&good, &good]).is_ok());
    }

    #[test]
    fn offset_moves_only_value_locations() {
        assert_eq!(
            TrackError::Value { track: 1, sample: 40 }.offset(100),
            TrackError::Value { track: 1, sample: 140 }
        );
        for e in [
            TrackError::Missing,
            TrackError::Count { expected: 2, got: 1 },
            TrackError::Length { track: 0, expected: 5, got: 4 },
        ] {
            assert_eq!(e.offset(100), e);
        }
    }
}
