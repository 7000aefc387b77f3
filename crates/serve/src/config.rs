//! Serving-runtime configuration.

use crate::ServeError;

/// Configuration of a [`SessionManager`](crate::SessionManager).
///
/// `workers` fixes the shard count: sessions are hash-sharded onto workers
/// at open and never migrate afterwards, so each worker thread's FFT plan
/// and window caches (both the per-session [`dhf_core::RoundContext`] and
/// the thread-local planner behind `dhf_dsp`'s free functions) stay hot
/// across all of its sessions.
///
/// A push that would overflow a session's bounded ingestion queue is
/// rejected with [`ServeError::Busy`] and the caller retries later;
/// nothing already queued is touched, so a session's output depends only
/// on the samples it accepted. A packet longer than the capacity is
/// rejected with [`ServeError::PacketTooLarge`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
}

impl ServeConfig {
    /// Creates a configuration with `workers` shard threads, the default
    /// per-session queue capacity (30 000 samples — five minutes of a
    /// 100 Hz PPG stream).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `workers` is zero.
    pub fn new(workers: usize) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(ServeError::Config {
                name: "workers",
                message: "need at least one worker shard".into(),
            });
        }
        Ok(ServeConfig { workers, queue_capacity: 30_000 })
    }

    /// Sets the per-session ingestion-queue capacity in samples.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `samples` is zero.
    pub fn with_queue_capacity(mut self, samples: usize) -> Result<Self, ServeError> {
        if samples == 0 {
            return Err(ServeError::Config {
                name: "queue_capacity",
                message: "must be positive".into(),
            });
        }
        self.queue_capacity = samples;
        Ok(self)
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-session ingestion-queue capacity in samples.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        assert!(matches!(ServeConfig::new(0), Err(ServeError::Config { name: "workers", .. })));
        let cfg = ServeConfig::new(4).unwrap();
        assert_eq!(cfg.workers(), 4);
        assert!(cfg.clone().with_queue_capacity(0).is_err());
        let cfg = cfg.with_queue_capacity(1234).unwrap();
        assert_eq!(cfg.queue_capacity(), 1234);
    }
}
