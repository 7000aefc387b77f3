//! The serving determinism invariant (property test): a session's output
//! through the sharded [`SessionManager`] must be **bit-identical** to
//! running the same stream through a plain serial
//! [`dhf_stream::StreamingSeparator`] — for any number of concurrent
//! sessions, worker counts, chunkings, and push granularities.
//!
//! This is the contract that makes the serving layer safe to deploy over
//! the reproduction: scheduling, sharding, batching, and queueing may
//! reorder *work*, but never change *results*.
//!
//! The invariant deliberately spans the whole spectral data path — the
//! packed real FFT (`rfft`/`irfft`) and the SoA `Spectrogram` workspace
//! every session reuses — so a numeric change anywhere in that path that
//! made worker-side results diverge from serial ones fails here first.
//! A change that moves the served and the serial run alike passes here;
//! `tests/golden_outputs.rs` pins the outputs themselves.

use dhf_core::DhfConfig;
use dhf_serve::{ServeConfig, ServeError, SessionManager};
use dhf_stream::{separate_streamed, HpssFrontConfig, StreamingConfig};
use dhf_synth::artifact::{self, ArtifactConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Two drifting quasi-periodic sources (the shared `dhf_synth` fixture),
/// parameterized per session so every concurrent stream is distinct.
fn make_mix(fs: f64, n: usize, variant: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let duet = dhf_synth::duet::drifting_duet(fs, n, variant as u64);
    (duet.mixed, duet.f0_tracks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn served_sessions_are_bit_identical_to_serial_runs(
        n_sessions in 3usize..7,
        workers in 1usize..5,
        chunk_len in 2600usize..3400,
        overlap_frac in 0.05f64..0.40,
        packet in 180usize..900,
    ) {
        let fs = 100.0;
        let n = 6500;
        let overlap = ((chunk_len as f64 * overlap_frac) as usize).min(chunk_len / 2);
        let dhf = DhfConfig::fast().with_harmonic_interp();
        let scfg = StreamingConfig::new(chunk_len, overlap, dhf).unwrap();

        // Serial references, one independent separator per stream.
        let streams: Vec<(Vec<f64>, Vec<Vec<f64>>)> =
            (0..n_sessions).map(|s| make_mix(fs, n, s)).collect();
        let serial: Vec<(Vec<Vec<f64>>, usize)> = streams
            .iter()
            .map(|(mix, tracks)| separate_streamed(mix, fs, tracks, &scfg).unwrap())
            .collect();

        // Served: all sessions concurrently, packets interleaved
        // round-robin across sessions so every worker juggles its
        // sessions mid-stream, with interior polls racing the workers.
        let manager = SessionManager::new(ServeConfig::new(workers).unwrap());
        let ids: Vec<_> = (0..n_sessions)
            .map(|_| manager.open(fs, 2, scfg.clone()).unwrap())
            .collect();
        let mut got: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 2]; n_sessions];
        let deliver = |s: usize, blocks: Vec<dhf_stream::StreamBlock>,
                       got: &mut Vec<Vec<Vec<f64>>>| {
            for b in blocks {
                assert_eq!(got[s][0].len(), b.start, "session {s}: blocks out of order");
                for (src, est) in b.sources.iter().enumerate() {
                    got[s][src].extend_from_slice(est);
                }
            }
        };
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + packet).min(n);
            for (s, (mix, tracks)) in streams.iter().enumerate() {
                let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
                manager.push(ids[s], &mix[lo..hi], &t).unwrap();
                let out = manager.poll(ids[s]).unwrap();
                prop_assert!(out.error.is_none());
                deliver(s, out.blocks, &mut got);
            }
            lo = hi;
        }
        for (s, id) in ids.iter().enumerate() {
            let fin = manager.close(*id).unwrap();
            prop_assert!(fin.error.is_none());
            prop_assert_eq!(fin.dropped_samples, serial[s].1, "session {}", s);
            deliver(s, fin.blocks, &mut got);
        }
        let report = manager.shutdown().unwrap();
        prop_assert_eq!(report.telemetry.samples_in(), (n_sessions * n) as u64);

        for (s, (want, _)) in serial.iter().enumerate() {
            prop_assert_eq!(
                &got[s], want,
                "session {} served output differs from its serial run \
                 (workers {}, chunk {}, overlap {}, packet {})",
                s, workers, chunk_len, overlap, packet
            );
        }
    }

    /// The artifact-bearing corollary: a session contaminated by each
    /// `dhf_synth::artifact` family and opened with the HPSS front filter
    /// (the session shape of paperbench's `serve_overhead`) must still be
    /// bit-identical to its serial run — the front filter is part of the
    /// engine, so scheduling and batching must not perturb it either.
    #[test]
    fn artifact_sessions_with_hpss_front_match_serial_runs(
        workers in 1usize..4,
        chunk_len in 2600usize..3400,
        packet in 250usize..900,
        family in 0usize..3,
    ) {
        let fs = 100.0;
        let n = 6500;
        let scfg = StreamingConfig::new(
            chunk_len,
            chunk_len / 8,
            DhfConfig::fast().with_harmonic_interp(),
        )
        .unwrap()
        .with_hpss_front(HpssFrontConfig::default());
        let (mut mix, tracks) = make_mix(fs, n, 7);
        let art = match family {
            0 => ArtifactConfig::spikes(9),
            1 => ArtifactConfig::wander(9),
            _ => ArtifactConfig::gait(n as f64 / fs, 9),
        };
        // The duet fixture is zero-DC, so scale the unit-DC artifact
        // waveform to the mix's own amplitude instead of a DC level.
        for (x, a) in mix.iter_mut().zip(artifact::waveform(&art, n, fs)) {
            *x += 2.0 * a;
        }

        let (want, want_dropped) = separate_streamed(&mix, fs, &tracks, &scfg).unwrap();

        let manager = SessionManager::new(ServeConfig::new(workers).unwrap());
        let id = manager.open(fs, 2, scfg).unwrap();
        let mut got = vec![Vec::new(); 2];
        let deliver = |blocks: Vec<dhf_stream::StreamBlock>, got: &mut Vec<Vec<f64>>| {
            for b in blocks {
                assert_eq!(got[0].len(), b.start, "blocks out of order");
                for (src, est) in b.sources.iter().enumerate() {
                    got[src].extend_from_slice(est);
                }
            }
        };
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + packet).min(n);
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
            manager.push(id, &mix[lo..hi], &t).unwrap();
            let out = manager.poll(id).unwrap();
            prop_assert!(out.error.is_none());
            deliver(out.blocks, &mut got);
            lo = hi;
        }
        let fin = manager.close(id).unwrap();
        prop_assert!(fin.error.is_none());
        prop_assert_eq!(fin.dropped_samples, want_dropped);
        deliver(fin.blocks, &mut got);

        prop_assert_eq!(
            &got, &want,
            "artifact session with HPSS front differs from its serial run \
             (workers {}, chunk {}, packet {}, family {})",
            workers, chunk_len, packet, family
        );
    }
}

/// Many clients on one manager: four client threads each stream three
/// sessions through one [`SessionManager`] at once, against a queue that
/// holds a single packet, so pushes race the workers and many are
/// refused with `Busy` and retried. A reader thread snapshots and renders
/// the telemetry throughout and checks that no shard's snapshot is torn.
/// Every session must still match its serial run, and the fleet counters
/// must account for every sample and every refusal the clients saw.
#[test]
fn concurrent_clients_retrying_busy_pushes_match_serial_runs() {
    const CLIENTS: usize = 4;
    const SESSIONS_PER_CLIENT: usize = 3;
    const PACKET: usize = 250;
    let fs = 100.0;
    let n = 6500;
    let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast().with_harmonic_interp()).unwrap();
    let streams: Vec<(Vec<f64>, Vec<Vec<f64>>)> =
        (0..CLIENTS * SESSIONS_PER_CLIENT).map(|s| make_mix(fs, n, s)).collect();
    let serial: Vec<(Vec<Vec<f64>>, usize)> = streams
        .iter()
        .map(|(mix, tracks)| separate_streamed(mix, fs, tracks, &scfg).unwrap())
        .collect();

    let manager =
        SessionManager::new(ServeConfig::new(2).unwrap().with_queue_capacity(PACKET).unwrap());
    let ids: Vec<_> = streams.iter().map(|_| manager.open(fs, 2, scfg.clone()).unwrap()).collect();
    let clients_done = AtomicBool::new(false);

    // Per session: the delivered sources and the close's dropped count;
    // per client: the `Busy` refusals it retried.
    type ClientRun = (Vec<(Vec<Vec<f64>>, usize)>, u64);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let (mut last_in, mut last_out, mut last_busy) = (0, 0, 0);
            while !clients_done.load(Ordering::Acquire) {
                let t = manager.telemetry();
                // Each counter only grows, so successive snapshots never
                // see it fall.
                assert!(t.samples_in() >= last_in && t.samples_out() >= last_out);
                // A shard's counters and queue depth are read in one
                // critical section, so no sample is out, dropped or queued
                // before it is counted in. Packets drained but not yet
                // processed are in none of the three: `<=`, not `==`.
                for s in &t.shards {
                    assert!(
                        s.samples_out + s.dropped_samples + s.queue_depth_samples as u64
                            <= s.samples_in,
                        "torn snapshot of shard {}: {} out + {} dropped + {} queued > {} in",
                        s.shard,
                        s.samples_out,
                        s.dropped_samples,
                        s.queue_depth_samples,
                        s.samples_in
                    );
                }
                assert!(t.busy_rejections() >= last_busy);
                (last_in, last_out, last_busy) =
                    (t.samples_in(), t.samples_out(), t.busy_rejections());
                assert!(t.to_string().contains("samples out"));
                assert!(t.prometheus().contains("dhf_busy_rejections_total"));
                std::thread::yield_now();
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (manager, ids, streams) = (&manager, &ids, &streams);
                scope.spawn(move || {
                    let mine = c * SESSIONS_PER_CLIENT..(c + 1) * SESSIONS_PER_CLIENT;
                    let mut got = vec![vec![Vec::new(); 2]; SESSIONS_PER_CLIENT];
                    let mut deliver = |k: usize, blocks: Vec<dhf_stream::StreamBlock>| {
                        for b in blocks {
                            assert_eq!(got[k][0].len(), b.start, "blocks out of order");
                            for (src, est) in b.sources.iter().enumerate() {
                                got[k][src].extend_from_slice(est);
                            }
                        }
                    };
                    let mut busy = 0u64;
                    for lo in (0..n).step_by(PACKET) {
                        let hi = (lo + PACKET).min(n);
                        for (k, s) in mine.clone().enumerate() {
                            let (mix, tracks) = &streams[s];
                            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[lo..hi]).collect();
                            loop {
                                let pushed = manager.push(ids[s], &mix[lo..hi], &t);
                                let out = manager.poll(ids[s]).unwrap();
                                assert!(out.error.is_none(), "session {s}: {:?}", out.error);
                                deliver(k, out.blocks);
                                match pushed {
                                    Ok(_) => break,
                                    Err(ServeError::Busy { .. }) => {
                                        busy += 1;
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("session {s}: push failed: {e}"),
                                }
                            }
                        }
                    }
                    let mut dropped = Vec::with_capacity(SESSIONS_PER_CLIENT);
                    for (k, s) in mine.enumerate() {
                        let fin = manager.close(ids[s]).unwrap();
                        assert!(fin.error.is_none(), "session {s}: {:?}", fin.error);
                        deliver(k, fin.blocks);
                        dropped.push(fin.dropped_samples);
                    }
                    (got.into_iter().zip(dropped).collect(), busy)
                })
            })
            .collect();
        // Join every client before stopping the reader, so a failed
        // client cannot leave the reader spinning.
        let joined: Vec<_> = clients.into_iter().map(|h| h.join()).collect();
        clients_done.store(true, Ordering::Release);
        reader.join().expect("telemetry reader");
        joined.into_iter().map(|r| r.expect("client thread")).collect()
    });

    let mut busy_seen = 0u64;
    for (c, (sessions, busy)) in runs.into_iter().enumerate() {
        busy_seen += busy;
        for (k, (got, dropped)) in sessions.into_iter().enumerate() {
            let s = c * SESSIONS_PER_CLIENT + k;
            assert_eq!(dropped, serial[s].1, "session {s}: dropped samples");
            assert_eq!(got, serial[s].0, "session {s} served output differs from its serial run");
        }
    }
    let telemetry = manager.shutdown().unwrap().telemetry;
    let samples_in = (CLIENTS * SESSIONS_PER_CLIENT * n) as u64;
    assert_eq!(telemetry.samples_in(), samples_in);
    assert_eq!(telemetry.samples_out() + telemetry.dropped_samples(), samples_in);
    assert_eq!(telemetry.busy_rejections(), busy_seen);
}
