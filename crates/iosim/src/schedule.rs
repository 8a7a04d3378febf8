//! Burst scheduling policies: how a run's dump bursts map onto simulated
//! wall-clock time.
//!
//! Synchronous backends (file-per-process, aggregated) block the
//! application for the whole drain: the clock jumps to the burst's end.
//! Overlapped backends (deferred/burst-buffer) hand staged data to a
//! drain that proceeds concurrently with the next compute phase; the
//! application only stalls when it reaches the next dump before the
//! previous drain finished (double buffering with one drain in flight).
//! The stage itself is unbounded: a handoff never waits for buffer space,
//! on a private model or on the fabric.
//!
//! A scheduler drains into either a private [`StorageModel`] or one
//! tenant's [`FabricHandle`] on a shared [`crate::Fabric`]. Every burst is
//! priced once; on the fabric the same priced record is also served to a
//! *shadow* — the tenant's own policy state over a private copy of the
//! servers, on its own clock — so [`BurstScheduler::seal`] can report an
//! exact solo-equivalent wall (not an estimate) for the tenant's slowdown
//! factor.

use crate::fabric::{block_on, FabricHandle};
use crate::storage::{Class, Priced, ReadRequest, StorageModel, WriteRequest};
use crate::timeline::Burst;

/// Where bursts drain to.
enum Sink<'a> {
    Model(&'a StorageModel),
    Fabric(FabricHandle),
}

/// One policy's state: the drain in flight. The run has one; a fabric
/// tenant's solo shadow has another.
#[derive(Default)]
struct Lane {
    /// Completion time of the drain in flight (overlapped mode).
    drain_end: f64,
}

impl Lane {
    /// `clock` barriered against the drain in flight. A synchronous
    /// policy never has one, so there this is `clock`.
    fn barrier(&self, clock: f64) -> f64 {
        clock.max(self.drain_end)
    }

    /// Times one burst arriving at application time `clock`: returns its
    /// `(t_start, t_end)` and the clock after the call returns. `drain`
    /// serves a non-empty burst (`None` is an empty one) handed off at
    /// the time it is given and returns its `t_end`.
    async fn admit(
        &mut self,
        overlapped: bool,
        class: Class,
        clock: f64,
        drain: Option<impl AsyncFnOnce(f64) -> f64>,
    ) -> (f64, f64, f64) {
        // An empty write is free: nothing is handed off, nothing waits.
        if drain.is_none() && class == Class::Write {
            return (clock, clock, clock);
        }
        // Writes wait for the in-flight drain (double-buffer swap); reads
        // barrier it (read-after-write consistency), even with nothing
        // to fetch.
        let base = self.barrier(clock);
        // Only an overlapped write returns at its handoff: reads are
        // synchronous in both policies.
        let staged = overlapped && class == Class::Write;
        let t_end = match drain {
            Some(drain) => drain(base).await,
            None => base,
        };
        if staged {
            self.drain_end = t_end;
        }
        (base, t_end, if staged { base } else { t_end })
    }
}

/// Exact solo replay of a fabric tenant's burst sequence: the same
/// priced bursts served to a private copy of the servers on the
/// shadow's own clock, advanced by the same compute deltas (app time
/// between scheduler calls is pure compute, so the shared clock's
/// increments between calls transfer verbatim).
struct Shadow {
    lane: Lane,
    clock: f64,
    /// Shared-run clock when the scheduler last returned control.
    last_shared_clock: f64,
}

impl Shadow {
    /// Replays the inter-call compute delta onto the solo clock.
    fn advance(&mut self, shared_clock: f64) {
        self.clock += (shared_clock - self.last_shared_clock).max(0.0);
    }
}

/// Times a run's sequence of dump bursts under one policy.
pub struct BurstScheduler<'a> {
    sink: Sink<'a>,
    overlapped: bool,
    lane: Lane,
    shadow: Option<Shadow>,
    /// Fabric only: a memoized solo wall ([`crate::SoloPricing::Known`])
    /// reported at seal in place of a shadow replay.
    known_solo: Option<f64>,
}

impl<'a> BurstScheduler<'a> {
    /// A scheduler over a private `model`; `overlapped` selects the
    /// deferred (compute/flush overlap) policy.
    pub(crate) fn new(model: &'a StorageModel, overlapped: bool) -> Self {
        Self {
            sink: Sink::Model(model),
            overlapped,
            lane: Lane::default(),
            shadow: None,
            known_solo: None,
        }
    }

    /// A scheduler draining into one tenant's seat on a shared fabric.
    /// Bursts wait until the shared engine resolves them against every
    /// overlapping tenant; a shadow solo replay tracks what the identical
    /// run would have cost alone (reported at [`BurstScheduler::seal`]).
    ///
    /// When the handle carries [`crate::SoloPricing::Known`] — a solo
    /// wall memoized from an earlier replay of the same canonical config
    /// ([`crate::SoloMemo`]) — the shadow is skipped and that wall is
    /// reported verbatim at seal.
    pub fn on_fabric(handle: FabricHandle, overlapped: bool) -> Self {
        let (shadow, known_solo) = match handle.pricing {
            crate::SoloPricing::Replay => (
                Some(Shadow {
                    lane: Lane::default(),
                    clock: 0.0,
                    last_shared_clock: 0.0,
                }),
                None,
            ),
            crate::SoloPricing::Known(wall) => (None, Some(wall)),
        };
        Self {
            sink: Sink::Fabric(handle),
            overlapped,
            lane: Lane::default(),
            shadow,
            known_solo,
        }
    }

    /// The one body behind every submit door: price the burst once,
    /// serve it to the shadow, serve it to the sink, stamp the handoff.
    async fn burst(
        &mut self,
        class: Class,
        step: u32,
        clock: f64,
        requests: &mut [WriteRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        let priced: Option<Priced> = (!requests.is_empty()).then(|| match &self.sink {
            Sink::Model(m) => m.price(class, requests),
            Sink::Fabric(h) => h.model().price(class, requests),
        });
        // A private drain: done when served.
        let solo = |p: &Priced, base| p.serve(|_| base).t_end;
        if let Some(sh) = &mut self.shadow {
            sh.advance(clock);
            let drain = priced.as_ref().map(|p| async move |base| solo(p, base));
            sh.clock = sh
                .lane
                .admit(self.overlapped, class, sh.clock, drain)
                .await
                .2;
        }
        let sink = &self.sink;
        let drain = priced.as_ref().map(|p| {
            async move |base| match sink {
                Sink::Model(_) => solo(p, base),
                Sink::Fabric(h) => h.serve(p, |_| base).await.t_end,
            }
        });
        let (t_start, t_end, clock_after) =
            self.lane.admit(self.overlapped, class, clock, drain).await;
        for r in requests.iter_mut() {
            r.start = t_start;
        }
        if let Some(sh) = &mut self.shadow {
            sh.last_shared_clock = clock_after;
        }
        let burst = Burst {
            step,
            t_start,
            t_end,
            bytes,
        };
        (burst, clock_after)
    }

    /// Submits the burst of `step` at application time `clock`; request
    /// start times are overwritten by the policy. Returns the timed burst
    /// and the application clock after the submit returns. On a fabric of
    /// several tenants the burst waits for [`crate::Fabric::run`].
    pub async fn write_burst(
        &mut self,
        step: u32,
        clock: f64,
        requests: &mut [WriteRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        self.burst(Class::Write, step, clock, requests, bytes).await
    }

    /// Submits a read burst (restart / analysis phase) at application
    /// time `clock`. Reads are synchronous in *both* policies — the
    /// application waits until its restart bytes arrive — and
    /// read-after-write consistency barriers any drain still in flight
    /// before the read starts. Returns the timed burst and the clock
    /// after the data is in memory.
    pub async fn read_burst(
        &mut self,
        step: u32,
        clock: f64,
        requests: &mut [ReadRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        self.burst(Class::Read, step, clock, requests, bytes).await
    }

    /// [`BurstScheduler::write_burst`], driven in one poll.
    pub(crate) fn submit(
        &mut self,
        step: u32,
        clock: f64,
        requests: &mut [WriteRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        block_on(self.write_burst(step, clock, requests, bytes))
    }

    /// Like `BurstScheduler::submit`, charging `compute_seconds` of
    /// application CPU work (in-situ compression of the dump's payloads)
    /// before the burst is handed to storage. Compression happens on the
    /// compute nodes in both policies — synchronous backends compress
    /// then block for the drain; overlapped backends compress then stage
    /// — so the charge always lands on the application clock, while the
    /// drain itself times the (smaller) physical request bytes.
    pub fn submit_with_compute(
        &mut self,
        step: u32,
        clock: f64,
        compute_seconds: f64,
        requests: &mut [WriteRequest],
        bytes: u64,
    ) -> (Burst, f64) {
        self.submit(step, clock + compute_seconds, requests, bytes)
    }

    /// Final wall-clock time: the application clock barriered against any
    /// drain still in flight (the run's closing flush). Pure — safe to
    /// use as a mid-run barrier query.
    pub fn finish(&self, clock: f64) -> f64 {
        self.lane.barrier(clock)
    }

    /// Ends the run at application time `clock`: returns the final wall
    /// (as [`BurstScheduler::finish`]) and, on the fabric path, reports
    /// the shared wall plus the shadow's exact solo-equivalent wall to
    /// the tenant's [`crate::TenantStats`].
    pub fn seal(&mut self, clock: f64) -> f64 {
        let wall = self.finish(clock);
        let solo = match &mut self.shadow {
            Some(sh) => {
                sh.advance(clock);
                sh.last_shared_clock = clock;
                sh.lane.barrier(sh.clock)
            }
            // Memoized shadow if one was handed over; the private-model
            // path has neither and a solo run's wall *is* its solo wall.
            None => self.known_solo.unwrap_or(wall),
        };
        if let Sink::Fabric(h) = &self.sink {
            h.record_walls(wall, solo);
        }
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(n: usize, bytes: u64) -> Vec<WriteRequest> {
        (0..n)
            .map(|i| WriteRequest {
                rank: i,
                path: format!("/f{i}"),
                bytes,
                start: 0.0,
            })
            .collect()
    }

    #[test]
    fn sync_policy_blocks_for_the_drain() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, false);
        let mut r = reqs(1, 1000);
        let (burst, clock) = s.submit(1, 5.0, &mut r, 1000);
        assert_eq!(burst.t_start, 5.0);
        assert!((burst.t_end - 15.0).abs() < 1e-9);
        assert_eq!(clock, burst.t_end);
        assert_eq!(s.finish(clock), clock);
    }

    #[test]
    fn overlapped_policy_returns_immediately() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        let mut r = reqs(1, 1000);
        let (burst, clock) = s.submit(1, 5.0, &mut r, 1000);
        // Handoff is instant; the drain runs 5.0 -> 15.0 in background.
        assert_eq!(clock, 5.0);
        assert!((burst.t_end - 15.0).abs() < 1e-9);
        // Final barrier waits for the drain.
        assert!((s.finish(clock) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn overlapped_policy_stalls_only_when_compute_is_short() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        // Burst 1 at t=0 drains until t=10.
        let (_, clock) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        assert_eq!(clock, 0.0);
        // Next dump at t=4 (compute shorter than drain): stall until 10.
        let (burst2, clock2) = s.submit(2, 4.0, &mut reqs(1, 1000), 1000);
        assert!((clock2 - 10.0).abs() < 1e-9);
        assert!((burst2.t_start - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_beats_sync_wall_clock_for_same_volume() {
        let model = StorageModel::ideal(2, 1e6);
        let compute = 2.0;
        let volume = 1_000_000u64; // 1 s of drain per dump at 1 MB/s/server
        let run = |overlapped: bool| {
            let mut s = BurstScheduler::new(&model, overlapped);
            let mut clock = 0.0;
            for step in 1..=5u32 {
                clock += compute;
                let mut r = reqs(4, volume / 4);
                let (_, c) = s.submit(step, clock, &mut r, volume);
                clock = c;
            }
            s.finish(clock)
        };
        let sync_wall = run(false);
        let overlap_wall = run(true);
        assert!(
            overlap_wall < sync_wall - 1.0,
            "overlap {overlap_wall} vs sync {sync_wall}"
        );
    }

    #[test]
    fn codec_compute_charge_delays_the_burst() {
        let model = StorageModel::ideal(1, 100.0);
        // Synchronous: the charge shifts the whole burst.
        let mut s = BurstScheduler::new(&model, false);
        let (burst, clock) = s.submit_with_compute(1, 5.0, 2.0, &mut reqs(1, 100), 100);
        assert_eq!(burst.t_start, 7.0);
        assert!((clock - 8.0).abs() < 1e-9);
        // Overlapped: the app pays the charge, the drain still overlaps.
        let mut s = BurstScheduler::new(&model, true);
        let (burst, clock) = s.submit_with_compute(1, 5.0, 2.0, &mut reqs(1, 100), 100);
        assert_eq!(clock, 7.0, "charge lands on the application clock");
        assert!((burst.t_end - 8.0).abs() < 1e-9);
    }

    fn read_reqs(n: usize, bytes: u64) -> Vec<ReadRequest> {
        (0..n)
            .map(|i| ReadRequest {
                rank: i,
                path: format!("/f{i}"),
                bytes,
                start: 0.0,
            })
            .collect()
    }

    #[test]
    fn restart_reads_block_in_both_policies() {
        let model = StorageModel::ideal(1, 100.0);
        for overlapped in [false, true] {
            let mut s = BurstScheduler::new(&model, overlapped);
            let (burst, clock) = block_on(s.read_burst(1, 5.0, &mut read_reqs(1, 1000), 1000));
            assert_eq!(burst.t_start, 5.0);
            assert!((burst.t_end - 15.0).abs() < 1e-9);
            assert_eq!(clock, burst.t_end, "reads never overlap (ov={overlapped})");
        }
    }

    #[test]
    fn restart_read_barriers_inflight_drain() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        // A write drain runs 0 -> 10 in the background.
        let (_, clock) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        assert_eq!(clock, 0.0);
        // The restart read at t=2 must wait for the drain, then read.
        let (burst, clock2) = block_on(s.read_burst(1, 2.0, &mut read_reqs(1, 500), 500));
        assert!((burst.t_start - 10.0).abs() < 1e-9, "read-after-write");
        assert!((clock2 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn empty_burst_is_free() {
        let model = StorageModel::ideal(1, 1.0);
        let mut s = BurstScheduler::new(&model, true);
        let (burst, clock) = s.submit(1, 3.0, &mut [], 0);
        assert_eq!(clock, 3.0);
        assert_eq!(burst.duration(), 0.0);
    }

    // ---- stall accounting regressions (audit: stalls are max-based so
    // they can never go negative, and read barriers attribute their wait
    // to the read plane, not the write that caused it) ----

    #[test]
    fn stalls_never_negative_even_when_clock_outruns_drains() {
        let model = StorageModel::ideal(1, 1e6);
        let mut s = BurstScheduler::new(&model, true);
        // Long compute gaps: every handoff happens after the drain ended,
        // so each stall contribution is exactly 0, never negative.
        let mut clock = 0.0;
        for step in 1..=4u32 {
            clock += 50.0;
            let (_, c) = s.submit(step, clock, &mut reqs(2, 1000), 2000);
            clock = c;
        }
        let (_, c) = block_on(s.read_burst(5, clock + 50.0, &mut read_reqs(1, 1000), 1000));
        assert!(s.finish(c) >= c);
    }

    #[test]
    fn read_barrier_stall_lands_on_the_read_plane() {
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        // Drain 0 -> 10 in flight; a write at 4 stalls 6s (write plane),
        // then its drain runs 10 -> 20; a read at 12 stalls 8s (read
        // plane). The two planes must not bleed into each other.
        let (_, c1) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        assert_eq!(c1, 0.0);
        let (_, c2) = s.submit(2, 4.0, &mut reqs(1, 1000), 1000);
        assert!((c2 - 10.0).abs() < 1e-9);
        let (burst, _) = block_on(s.read_burst(3, 12.0, &mut read_reqs(1, 100), 100));
        assert!((burst.t_start - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_read_still_pays_the_barrier() {
        // An empty read burst (nothing to fetch) still represents a
        // consistency point: it barriers the in-flight drain and the
        // wait is recorded as read stall.
        let model = StorageModel::ideal(1, 100.0);
        let mut s = BurstScheduler::new(&model, true);
        let (_, _) = s.submit(1, 0.0, &mut reqs(1, 1000), 1000);
        let (burst, clock) = block_on(s.read_burst(2, 3.0, &mut [], 0));
        assert!((burst.t_start - 10.0).abs() < 1e-9);
        assert!((clock - 10.0).abs() < 1e-9);
    }

    // ---- fabric-backed scheduling ----

    #[test]
    fn fabric_scheduler_matches_model_scheduler_solo() {
        let model = StorageModel {
            variability_sigma: 0.15,
            ..StorageModel::ideal(3, 1e5)
        };
        for overlapped in [false, true] {
            let mut legacy = BurstScheduler::new(&model, overlapped);
            let fabric = crate::Fabric::new(model);
            let mut shared = BurstScheduler::on_fabric(fabric.tenant("solo"), overlapped);
            let mut lc = 0.0;
            let mut sc = 0.0;
            for step in 1..=3u32 {
                lc += 2.5;
                sc += 2.5;
                let (bl, cl) = legacy.submit(step, lc, &mut reqs(5, 30_000), 150_000);
                let (bs, cs) = shared.submit(step, sc, &mut reqs(5, 30_000), 150_000);
                assert_eq!(bl, bs, "step {step} (ov={overlapped})");
                assert_eq!(cl, cs);
                lc = cl;
                sc = cs;
            }
            let (bl, cl) =
                block_on(legacy.read_burst(4, lc + 1.0, &mut read_reqs(3, 30_000), 90_000));
            let (bs, cs) =
                block_on(shared.read_burst(4, sc + 1.0, &mut read_reqs(3, 30_000), 90_000));
            assert_eq!(bl, bs);
            assert_eq!(cl, cs);
            let wall = shared.seal(cs);
            assert_eq!(wall, legacy.finish(cl), "sealed wall == legacy wall");
            let stats = fabric.tenant_stats();
            assert_eq!(
                stats[0].shared_wall, stats[0].solo_wall,
                "solo slowdown is 1"
            );
            assert_eq!(stats[0].slowdown(), 1.0);
        }
    }

    #[test]
    fn fabric_shadow_reports_exact_solo_wall_under_contention() {
        // Two tenants on one server; each tenant's TenantStats.solo_wall
        // must equal a true legacy solo run of the same burst sequence.
        let model = StorageModel::ideal(1, 100.0);
        let solo_wall = {
            let mut s = BurstScheduler::new(&model, false);
            let (_, c) = s.submit(1, 1.0, &mut reqs(1, 900), 900);
            s.finish(c)
        };
        let fabric = crate::Fabric::new(model);
        let ha = fabric.tenant("a");
        let hb = fabric.tenant("b");
        fabric.run([ha, hb].map(|h| async move {
            let mut s = BurstScheduler::on_fabric(h, false);
            let (_, c) = s.write_burst(1, 1.0, &mut reqs(1, 900), 900).await;
            s.seal(c);
        }));
        for st in fabric.tenant_stats() {
            assert_eq!(st.solo_wall, solo_wall, "shadow replay is exact");
            // 900 B at a shared 100 B/s server: drain takes 18s not 9s.
            assert!((st.shared_wall - 19.0).abs() < 1e-9);
            assert!(
                st.slowdown() > 1.8 && st.slowdown() < 1.95,
                "{}",
                st.slowdown()
            );
        }
    }

    #[test]
    fn known_solo_pricing_matches_the_cold_shadow_bit_for_bit() {
        // Price a clone group cold (exact shadow replay), then re-price
        // the identical workload with the memoized wall handed over via
        // SoloPricing::Known: every reported stat must be bit-identical.
        let model = StorageModel {
            variability_sigma: 0.1,
            ..StorageModel::ideal(2, 1000.0)
        };
        let drive = |mut s: BurstScheduler| {
            let mut clock = 0.0;
            for step in 1..=3u32 {
                clock += 2.0;
                let (_, c) = s.submit(step, clock, &mut reqs(3, 700 + step as u64), 2100);
                clock = c;
            }
            s.seal(clock)
        };
        let cold = crate::Fabric::new(model);
        let group = cold.tenant_clones(&["m_t0", "m_t1", "m_t2"]);
        drive(BurstScheduler::on_fabric(group, false));
        let cold_stats = cold.tenant_stats();
        let memoized_wall = cold_stats[0].solo_wall;
        assert!(memoized_wall > 0.0);

        let warm = crate::Fabric::new(model);
        let mut group = warm.tenant_clones(&["m_t0", "m_t1", "m_t2"]);
        group.set_solo_pricing(crate::SoloPricing::Known(memoized_wall));
        drive(BurstScheduler::on_fabric(group, false));
        let warm_stats = warm.tenant_stats();
        assert_eq!(cold_stats, warm_stats, "memo hit must be bit-identical");
    }
}
