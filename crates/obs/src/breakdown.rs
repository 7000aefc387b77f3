//! Per-stage latency aggregation.

use crate::stage::Stage;
use dhf_metrics::LatencyHistogram;
use std::fmt;

/// Fixed layout for stage histograms: 10 ns to 10 s in 144 geometric
/// buckets (≈15% relative resolution). Wider at the bottom than the
/// serving layout because disabled-span and kernel-level stages sit in
/// the nanosecond range.
fn stage_layout() -> LatencyHistogram {
    LatencyHistogram::new(1e-8, 10.0, 144)
}

/// One [`LatencyHistogram`] per [`Stage`]: the aggregated view of drained
/// span events.
///
/// Owners are single-threaded aggregators (a serve worker drains its
/// ring into a local breakdown and merges that into its shard's under
/// the shard lock; a bench harness drains inline). Breakdowns merge per-stage — same fixed
/// layout everywhere — so shard breakdowns roll up into one fleet view
/// exactly like serving latency histograms do.
///
/// `Display` renders a right-aligned table of the non-empty stages
/// (count, mean, p50, p95, max), which is what `Telemetry` and
/// `examples/observe.rs` print.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    hists: Vec<LatencyHistogram>,
    dropped: u64,
}

impl StageBreakdown {
    /// An empty breakdown with one fixed-layout histogram per stage.
    pub fn new() -> Self {
        StageBreakdown { hists: (0..Stage::COUNT).map(|_| stage_layout()).collect(), dropped: 0 }
    }

    /// Records one duration (seconds) for `stage`.
    pub fn record(&mut self, stage: Stage, secs: f64) {
        self.hists[stage.index()].record(secs);
    }

    /// The aggregated histogram for one stage (possibly empty).
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.hists[stage.index()]
    }

    /// Adds every sample of `other` into `self`, stage by stage.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (dst, src) in self.hists.iter_mut().zip(&other.hists) {
            dst.merge(src);
        }
        self.dropped += other.dropped;
    }

    /// Iterates the stages that have at least one sample, in pipeline
    /// order.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (Stage, &LatencyHistogram)> {
        Stage::ALL.iter().map(|&s| (s, self.stage(s))).filter(|(_, h)| h.count() > 0)
    }

    /// Total samples across all stages.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(|h| h.count()).sum()
    }

    /// `true` when no stage has recorded a sample.
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0
    }

    /// Events lost to ring overflow between drains (a profiling gap, not
    /// a data error).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Adds to the overflow tally (called by the ring drain).
    pub(crate) fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }
}

impl Default for StageBreakdown {
    fn default() -> Self {
        StageBreakdown::new()
    }
}

/// Formats a duration in seconds with an adaptive unit, e.g. `840 ns`,
/// `1.35 ms`, `2.10 s`.
pub(crate) fn fmt_duration(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.0} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

impl fmt::Display for StageBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>14} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "mean", "p50", "p95", "max"
        )?;
        for (stage, h) in self.iter_nonempty() {
            writeln!(
                f,
                "{:>14} {:>10} {:>10} {:>10} {:>10} {:>10}",
                stage.name(),
                h.count(),
                fmt_duration(h.mean().unwrap_or(0.0)),
                fmt_duration(h.percentile(50.0).unwrap_or(0.0)),
                fmt_duration(h.percentile(95.0).unwrap_or(0.0)),
                fmt_duration(h.max().unwrap_or(0.0)),
            )?;
        }
        if self.dropped > 0 {
            writeln!(f, "{:>14} {:>10}", "(dropped)", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_breakdown_has_no_rows() {
        let b = StageBreakdown::new();
        assert!(b.is_empty());
        assert_eq!(b.total_count(), 0);
        assert_eq!(b.iter_nonempty().count(), 0);
        // Header only.
        assert_eq!(b.to_string().lines().count(), 1);
    }

    #[test]
    fn merge_rolls_up_stage_by_stage() {
        let mut shard0 = StageBreakdown::new();
        let mut shard1 = StageBreakdown::new();
        shard0.record(Stage::NnFit, 2e-3);
        shard0.record(Stage::StftAnalysis, 40e-6);
        shard1.record(Stage::NnFit, 4e-3);
        shard1.add_dropped(3);

        let mut fleet = StageBreakdown::new();
        fleet.merge(&shard0);
        fleet.merge(&shard1);
        assert_eq!(fleet.stage(Stage::NnFit).count(), 2);
        assert_eq!(fleet.stage(Stage::StftAnalysis).count(), 1);
        assert_eq!(fleet.total_count(), 3);
        assert_eq!(fleet.dropped_events(), 3);
        let mean = fleet.stage(Stage::NnFit).mean().unwrap();
        assert!((mean - 3e-3).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    fn display_lists_nonempty_stages_in_pipeline_order() {
        let mut b = StageBreakdown::new();
        b.record(Stage::Istft, 1e-4);
        b.record(Stage::StftAnalysis, 1e-4);
        let table = b.to_string();
        let stft = table.find("stft_analysis").unwrap();
        let istft = table.find(" istft").unwrap();
        assert!(stft < istft, "pipeline order:\n{table}");
        assert!(table.contains("count"), "header:\n{table}");
    }

    #[test]
    fn fmt_duration_picks_sane_units() {
        assert_eq!(fmt_duration(8.4e-7), "840 ns");
        assert_eq!(fmt_duration(1.35e-3), "1.35 ms");
        assert_eq!(fmt_duration(2.5e-5), "25.00 us");
        assert_eq!(fmt_duration(2.1), "2.10 s");
    }
}
