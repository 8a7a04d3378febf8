//! Parallel storage timing model.
//!
//! A deterministic, seeded stand-in for Summit's Alpine GPFS filesystem:
//! files are striped across `nservers` storage servers; each server
//! processes its active requests by fair processor sharing at a fixed
//! bandwidth; each file creation charges a metadata latency *as
//! serialized server work*, so a burst of many small files is slower than
//! the same bytes in few aggregated files — the effect the io-engine's
//! BP-style aggregation exists to exploit; service demand carries
//! lognormal variability. Reads (restart and post-hoc analysis bursts)
//! are the same requests priced in their own class: read bandwidth and a
//! per-file open charge. This module owns what a burst *costs*
//! (`StorageModel::price`) and what it *reports* (`Priced::result`);
//! how its servers share time lives in `server.rs`. Only the *dynamic*
//! aspect of the paper (burst durations, bandwidth) depends on this
//! model — byte counts never do.

use mpi_sim::rank_seed;
use serde::{Deserialize, Serialize};

use crate::server::{EqualSplit, Job, ServerState};

/// Storage system parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StorageModel {
    /// Number of storage (NSD) servers. Treated as at least 1 everywhere
    /// (the constructors clamp; a zero smuggled in through the public
    /// field falls back to one server instead of dividing by zero).
    pub nservers: usize,
    /// Sustained write bandwidth per server, bytes/second.
    pub server_bandwidth: f64,
    /// Sustained read bandwidth per server, bytes/second (restart and
    /// analysis reads; GPFS read and write peaks differ in general).
    pub server_read_bandwidth: f64,
    /// Server time charged per file creation (metadata round trip),
    /// seconds; serializes with the server's other work, so it prices
    /// file *count*, not just bytes.
    pub metadata_latency: f64,
    /// Server time charged per file open on the read side, seconds
    /// (opens are cheaper than creates: no allocation round trip).
    pub open_latency: f64,
    /// Lognormal sigma applied to each request's service demand
    /// (0 disables variability).
    pub variability_sigma: f64,
    /// Seed for the variability noise.
    pub seed: u64,
}

/// Which bandwidth/latency class a burst runs in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Class {
    Write,
    Read,
}

/// A burst priced once: where each request lands and what it demands.
/// Pricing never looks at start times, so one record serves the real
/// sink, the solo shadow and every slot of a clone group — each only
/// brings its own starts.
pub(crate) struct Priced {
    pub(crate) class: Class,
    /// `(request index, seconds of server demand)` by server, submission
    /// order within a server. Demand is the noisy transfer time plus the
    /// per-file charge (serialized on the server, which is what makes
    /// file count a first-order cost).
    pub(crate) per_server: Vec<Vec<(usize, f64)>>,
    pub(crate) total_bytes: u64,
    /// The class's per-file charge, seconds.
    per_file_latency: f64,
}

impl Priced {
    /// Requests in the burst.
    pub(crate) fn len(&self) -> usize {
        self.per_server.iter().map(Vec::len).sum()
    }

    /// Serves the burst on a private model: each server runs its share
    /// to exhaustion under an equal split. Request `i` starts at
    /// `start_of(i)`.
    pub(crate) fn serve(&self, start_of: impl Fn(usize) -> f64) -> BurstResult {
        let mut finish = vec![0.0f64; self.len()];
        let mut server = ServerState::default();
        for (s, jobs) in self.per_server.iter().enumerate() {
            server.load(jobs.iter().map(|&(req, work)| Job {
                tenant: 0,
                copies: 1,
                seq: 0,
                burst: 0,
                req,
                arrival: start_of(req),
                work,
            }));
            server.run(s, &mut EqualSplit, |j, t| finish[j.req] = t);
        }
        self.result(finish, start_of)
    }

    /// The one burst epilogue: statistics over per-request `finish`
    /// times, however they were produced.
    pub(crate) fn result(&self, finish: Vec<f64>, start_of: impl Fn(usize) -> f64) -> BurstResult {
        let total_bytes = self.total_bytes;
        let t_start = (0..finish.len())
            .map(start_of)
            .fold(f64::INFINITY, f64::min);
        let t_end = finish.iter().copied().fold(0.0, f64::max);
        let duration = (t_end - t_start).max(0.0);
        // A zero-duration burst that still moved payload (an idealized
        // infinitely fast model) must not report bandwidth 0 — downstream
        // bytes/s regressions would ingest fake zeros. Floor the duration
        // at the per-file charge; if that is zero too the model really is
        // infinitely fast and the sample is `INFINITY` (non-finite, so
        // consumers can skip it).
        let effective = if total_bytes > 0 {
            duration.max(self.per_file_latency)
        } else {
            duration
        };
        BurstResult {
            t_start: if finish.is_empty() { 0.0 } else { t_start },
            finish,
            t_end,
            total_bytes,
            aggregate_bandwidth: if total_bytes == 0 {
                0.0
            } else if effective > 0.0 {
                total_bytes as f64 / effective
            } else {
                f64::INFINITY
            },
        }
    }
}

impl StorageModel {
    /// A Summit/Alpine-like configuration scaled by `scale` in (0, 1]:
    /// Alpine's published peak is ~2.5 TB/s over 77 NSD servers; `scale`
    /// shrinks server count (at least 1) while keeping per-server
    /// bandwidth, so partial-machine experiments see proportional peaks.
    pub fn summit_alpine(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "summit_alpine: bad scale");
        let nservers = ((77.0 * scale).round() as usize).max(1);
        Self {
            nservers,
            server_bandwidth: 2.5e12 / 77.0,
            // GPFS streams reads at the same published peak; opens skip
            // the block-allocation round trip of a create.
            server_read_bandwidth: 2.5e12 / 77.0,
            metadata_latency: 1.0e-3,
            open_latency: 0.5e-3,
            variability_sigma: 0.15,
            seed: 0xA1_91_4E,
        }
    }

    /// An idealized noiseless model (useful in tests). A zero server
    /// count is clamped to one.
    pub fn ideal(nservers: usize, server_bandwidth: f64) -> Self {
        Self {
            nservers: nservers.max(1),
            server_bandwidth,
            server_read_bandwidth: server_bandwidth,
            metadata_latency: 0.0,
            open_latency: 0.0,
            variability_sigma: 0.0,
            seed: 0,
        }
    }

    /// The server count the simulation actually uses (never zero).
    pub(crate) fn effective_nservers(&self) -> usize {
        self.nservers.max(1)
    }

    /// Stable server assignment for a file path ([`Fnv1a`] hash mod
    /// servers).
    pub(crate) fn server_of(&self, path: &str) -> usize {
        (Fnv1a::default().then(path.as_bytes()).0 % self.effective_nservers() as u64) as usize
    }

    /// Simulates one write burst: all `reqs` proceed concurrently, each on
    /// its file's server, fair-sharing server write bandwidth with the
    /// per-file creation charge. Returns per-request finish times and
    /// aggregate statistics.
    ///
    /// # Panics
    /// Panics when a request can never complete (a zero or NaN
    /// bandwidth).
    pub fn simulate_burst(&self, reqs: &[WriteRequest]) -> BurstResult {
        self.price(Class::Write, reqs).serve(|i| reqs[i].start)
    }

    /// Read-side mirror of [`StorageModel::simulate_burst`]: the same
    /// event-driven fair sharing, at the read bandwidth with the per-file
    /// open charge.
    pub fn simulate_read_burst(&self, reqs: &[ReadRequest]) -> BurstResult {
        self.price(Class::Read, reqs).serve(|i| reqs[i].start)
    }

    /// Prices a burst of `class`: FNV placement, then each request's
    /// demand. The lognormal draws are seeded per burst by the request
    /// count and consumed server-ascending, submission order within a
    /// server — the sequence every golden digest was drawn with.
    pub(crate) fn price(&self, class: Class, reqs: &[WriteRequest]) -> Priced {
        let (bw, per_file_latency) = match class {
            Class::Write => (self.server_bandwidth, self.metadata_latency),
            Class::Read => (self.server_read_bandwidth, self.open_latency),
        };
        let mut per_server = vec![Vec::new(); self.effective_nservers()];
        for (i, r) in reqs.iter().enumerate() {
            per_server[self.server_of(&r.path)].push((i, 0.0));
        }
        let mut rng = Xoshiro256::new(rank_seed(self.seed, reqs.len()));
        for (i, work) in per_server.iter_mut().flatten() {
            let noise = if self.variability_sigma > 0.0 {
                // Lognormal via Box-Muller on two uniform draws.
                let u1 = f64::EPSILON + rng.unit() * (1.0 - f64::EPSILON);
                let u2 = rng.unit();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (self.variability_sigma * z).exp()
            } else {
                1.0
            };
            *work = reqs[*i].bytes as f64 / bw * noise + per_file_latency;
        }
        Priced {
            class,
            per_server,
            total_bytes: reqs.iter().map(|r| r.bytes).sum(),
            per_file_latency,
        }
    }
}

/// xoshiro256** (Blackman and Vigna), the generator of a burst's
/// lognormal noise. Its four state words are SplitMix64's first four
/// outputs from `key`, which are `rank_seed(key, 0..4)`; they are never
/// all zero, because the SplitMix64 finalizer is a bijection that maps
/// only 0 to 0, and the four inputs differ.
struct Xoshiro256([u64; 4]);

impl Xoshiro256 {
    fn new(key: u64) -> Self {
        Self([0, 1, 2, 3].map(|i| rank_seed(key, i)))
    }

    /// The next draw, uniform in `[0, 1)` with 53 bits of precision.
    fn unit(&mut self) -> f64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        (out >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One file request submitted to a burst: a write, or (as
/// [`ReadRequest`]) a read.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteRequest {
    /// Rank issuing the request (for reporting).
    pub rank: usize,
    /// The file's path (determines the server).
    pub path: String,
    /// Payload size in bytes (for a read: the whole file or a seeked
    /// range).
    pub bytes: u64,
    /// Simulated time at which the request is issued.
    pub start: f64,
}

/// One file read submitted to a read burst (restart / analysis phase):
/// the same record as a write — the burst's class decides the price.
pub type ReadRequest = WriteRequest;

/// Outcome of a simulated burst (write or read).
#[derive(Clone, Debug, PartialEq)]
pub struct BurstResult {
    /// Completion time of each request, in submission order.
    pub finish: Vec<f64>,
    /// Earliest request start.
    pub t_start: f64,
    /// Latest completion.
    pub t_end: f64,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// `total_bytes` over the burst duration floored at the per-file
    /// charge; `INFINITY` when payload moved in zero simulated time
    /// (consumers skip non-finite samples), `0.0` for empty bursts.
    pub aggregate_bandwidth: f64,
}

/// FNV-1a 64, the unkeyed hash the storage model places files by (and
/// that file-per-process placement and spec cell keys reuse). As an
/// [`std::io::Write`] sink its state (`.0`) is the hash of every byte
/// written so far, so a printer can stream text into it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// This hash continued over `bytes` (`Fnv1a::default().then(b).0` is
    /// the hash of `b`).
    #[inline]
    pub fn then(self, bytes: &[u8]) -> Self {
        Self(bytes.iter().fold(self.0, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        }))
    }
}

impl Default for Fnv1a {
    /// The offset basis: the hash of no bytes.
    #[inline]
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::io::Write for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        *self = self.then(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(rank: usize, path: &str, bytes: u64, start: f64) -> WriteRequest {
        WriteRequest {
            rank,
            path: path.to_string(),
            bytes,
            start,
        }
    }

    /// The event loop `StorageModel` ran before the shared server core
    /// replaced it, kept verbatim as the oracle the core is compared to.
    fn simulate_server(ids: &[usize], reqs: &[WriteRequest], works: &[f64], finish: &mut [f64]) {
        struct Job {
            id: usize,
            arrival: f64,
            work: f64, // remaining seconds of service demand
        }
        let mut jobs: Vec<Job> = ids
            .iter()
            .map(|&id| Job {
                id,
                arrival: reqs[id].start,
                work: works[id],
            })
            .collect();
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        let mut t = jobs.first().map(|j| j.arrival).unwrap_or(0.0);
        let mut active: Vec<Job> = Vec::new();
        let mut next = 0usize;
        loop {
            // Admit arrivals at or before t.
            while next < jobs.len() && jobs[next].arrival <= t {
                active.push(Job {
                    id: jobs[next].id,
                    arrival: jobs[next].arrival,
                    work: jobs[next].work,
                });
                next += 1;
            }
            if active.is_empty() {
                if next >= jobs.len() {
                    break;
                }
                t = jobs[next].arrival;
                continue;
            }
            // Fair sharing: each active job progresses at 1/n server
            // seconds per second.
            let rate = 1.0 / active.len() as f64;
            // Next event: earliest completion at shared rate vs next arrival.
            let min_work = active.iter().map(|j| j.work).fold(f64::INFINITY, f64::min);
            let t_complete = t + min_work / rate;
            let t_arrive = jobs.get(next).map(|j| j.arrival).unwrap_or(f64::INFINITY);
            let t_next = t_complete.min(t_arrive);
            let elapsed = t_next - t;
            for j in &mut active {
                j.work -= rate * elapsed;
            }
            t = t_next;
            // Retire finished jobs (floating-point tolerant; seconds).
            let eps = crate::server::RETIRE_EPS;
            active.retain(|j| {
                if j.work <= eps {
                    finish[j.id] = t;
                    false
                } else {
                    true
                }
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shared server core, run to exhaustion under an equal
        /// split, is bit-identical to the loop it replaced — including
        /// per-request staggered starts, which campaign bursts (and so
        /// the golden digests) never exercise.
        #[test]
        fn server_core_matches_the_replaced_loop_bit_for_bit(
            nservers in 1usize..=6,
            noisy in 0usize..2,
            read in 0usize..2,
            raw in proptest::collection::vec((0u64..40, 1u64..5_000_000, 0.0f64..3.0), 1..201),
        ) {
            let model = StorageModel {
                variability_sigma: [0.0, 0.3][noisy],
                metadata_latency: 2e-3,
                open_latency: 1e-3,
                server_read_bandwidth: 3e6,
                ..StorageModel::ideal(nservers, 2e6)
            };
            let reqs: Vec<WriteRequest> = raw
                .iter()
                .enumerate()
                .map(|(i, &(p, bytes, start))| {
                    // Starts on a coarse grid, so simultaneous arrivals occur.
                    let start = (start * 4.0).floor() / 4.0;
                    req(i, &format!("/d{}/f{p}", i % 3), bytes, start)
                })
                .collect();
            let (class, per_file) = [(Class::Write, 2e-3), (Class::Read, 1e-3)][read];
            let priced = model.price(class, &reqs);
            let got = priced.serve(|i| reqs[i].start);

            let mut works = vec![0.0; reqs.len()];
            let mut finish = vec![0.0; reqs.len()];
            for jobs in &priced.per_server {
                let ids: Vec<usize> = jobs.iter().map(|j| j.0).collect();
                for &(id, work) in jobs {
                    works[id] = work;
                }
                simulate_server(&ids, &reqs, &works, &mut finish);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.finish), bits(&finish));
            let t_start = reqs.iter().map(|r| r.start).fold(f64::INFINITY, f64::min);
            let t_end = finish.iter().copied().fold(0.0, f64::max);
            let bandwidth = priced.total_bytes as f64 / (t_end - t_start).max(per_file);
            prop_assert_eq!(
                bits(&[got.t_start, got.t_end, got.aggregate_bandwidth]),
                bits(&[t_start, t_end, bandwidth])
            );
        }
    }

    #[test]
    #[should_panic(expected = "starved request on server 0")]
    fn zero_bandwidth_panics_instead_of_hanging() {
        // Regression: demand was `inf`, the event step computed
        // `inf - inf = NaN`, and `NaN <= RETIRE_EPS` is false forever.
        StorageModel::ideal(1, 0.0).simulate_burst(&[req(0, "/f", 10, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "starved request on server 0")]
    fn nan_bandwidth_panics_instead_of_hanging() {
        StorageModel::ideal(1, f64::NAN).simulate_burst(&[req(0, "/f", 10, 0.0)]);
    }

    #[test]
    fn single_write_ideal_time() {
        let m = StorageModel::ideal(1, 100.0);
        let r = m.simulate_burst(&[req(0, "/f", 1000, 0.0)]);
        assert!((r.finish[0] - 10.0).abs() < 1e-9);
        assert!((r.aggregate_bandwidth - 100.0).abs() < 1e-6);
    }

    #[test]
    fn two_writes_share_one_server() {
        let m = StorageModel::ideal(1, 100.0);
        // Force both onto the same (only) server.
        let r = m.simulate_burst(&[req(0, "/a", 500, 0.0), req(1, "/b", 500, 0.0)]);
        // Fair sharing: both finish at 10s (1000 bytes total at 100 B/s).
        assert!((r.finish[0] - 10.0).abs() < 1e-9, "{:?}", r.finish);
        assert!((r.finish[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unequal_shares_complete_in_order() {
        let m = StorageModel::ideal(1, 100.0);
        let r = m.simulate_burst(&[req(0, "/a", 200, 0.0), req(1, "/b", 600, 0.0)]);
        // Shared until small job done at t: 2 jobs at 50 B/s -> small done
        // at 4s; then big has 400 left at 100 B/s -> 8s total.
        assert!((r.finish[0] - 4.0).abs() < 1e-9, "{:?}", r.finish);
        assert!((r.finish[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_arrivals() {
        let m = StorageModel::ideal(1, 100.0);
        let r = m.simulate_burst(&[req(0, "/a", 1000, 0.0), req(1, "/b", 100, 5.0)]);
        // Job A alone 0-5s (500 done), then shares: B needs 100 at 50 B/s
        // -> B done at 7s; A has 400 left alone at 100 B/s -> 11s.
        assert!((r.finish[1] - 7.0).abs() < 1e-9, "{:?}", r.finish);
        assert!((r.finish[0] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn more_servers_scale_bandwidth() {
        let reqs: Vec<WriteRequest> = (0..64)
            .map(|i| req(i, &format!("/file{i}"), 1_000_000, 0.0))
            .collect();
        let slow = StorageModel::ideal(1, 1e6).simulate_burst(&reqs);
        let fast = StorageModel::ideal(16, 1e6).simulate_burst(&reqs);
        assert!(
            fast.t_end < slow.t_end / 4.0,
            "{} vs {}",
            fast.t_end,
            slow.t_end
        );
    }

    #[test]
    fn metadata_latency_floors_small_writes() {
        let mut m = StorageModel::ideal(4, 1e9);
        m.metadata_latency = 0.01;
        let r = m.simulate_burst(&[req(0, "/tiny", 8, 0.0)]);
        assert!(r.finish[0] >= 0.01);
    }

    #[test]
    fn variability_is_deterministic() {
        let m = StorageModel {
            variability_sigma: 0.3,
            ..StorageModel::ideal(4, 1e6)
        };
        let reqs: Vec<WriteRequest> = (0..8)
            .map(|i| req(i, &format!("/f{i}"), 100_000, 0.0))
            .collect();
        let a = m.simulate_burst(&reqs);
        let b = m.simulate_burst(&reqs);
        assert_eq!(a.finish, b.finish);
        // Noise actually perturbs completion times.
        let ideal = StorageModel::ideal(4, 1e6).simulate_burst(&reqs);
        assert_ne!(a.finish, ideal.finish);
    }

    #[test]
    fn server_assignment_is_stable_and_in_range() {
        let m = StorageModel::ideal(7, 1.0);
        let s1 = m.server_of("/plt00000/Level_0/Cell_D_00001");
        let s2 = m.server_of("/plt00000/Level_0/Cell_D_00001");
        assert_eq!(s1, s2);
        assert!(s1 < 7);
        // Different files spread over servers.
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            seen.insert(m.server_of(&format!("/f{i}")));
        }
        assert!(seen.len() > 3);
    }

    #[test]
    fn summit_preset_sane() {
        let m = StorageModel::summit_alpine(1.0);
        assert_eq!(m.nservers, 77);
        assert!(m.server_bandwidth > 1e10);
        let m = StorageModel::summit_alpine(1.0 / 9.0); // paper's 512 nodes
        assert!(m.nservers >= 8);
    }

    #[test]
    fn empty_burst() {
        let m = StorageModel::ideal(2, 1.0);
        let r = m.simulate_burst(&[]);
        assert_eq!(r.total_bytes, 0);
        assert_eq!(r.t_end, 0.0);
        assert_eq!(r.aggregate_bandwidth, 0.0);
    }

    fn read(rank: usize, path: &str, bytes: u64, start: f64) -> ReadRequest {
        ReadRequest {
            rank,
            path: path.to_string(),
            bytes,
            start,
        }
    }

    #[test]
    fn zero_server_config_does_not_divide_by_zero() {
        // Regression: `server_of` computed `h % nservers` unguarded, so a
        // zero-server model panicked. Constructors clamp, and a zero
        // smuggled through the public field acts as one server.
        let m = StorageModel::ideal(0, 100.0);
        assert_eq!(m.nservers, 1);
        let mut raw = StorageModel::ideal(4, 100.0);
        raw.nservers = 0;
        assert_eq!(raw.server_of("/f"), 0);
        let r = raw.simulate_burst(&[req(0, "/f", 1000, 0.0)]);
        assert!((r.finish[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_burst_does_not_report_zero_bandwidth() {
        // Regression: an infinitely fast model produced duration 0 and
        // bandwidth 0.0 despite moving payload, poisoning downstream
        // bytes/s regressions with fake zeros.
        let mut m = StorageModel::ideal(1, f64::INFINITY);
        let r = m.simulate_burst(&[req(0, "/f", 1000, 0.0)]);
        assert_eq!(r.total_bytes, 1000);
        assert!(
            r.aggregate_bandwidth.is_infinite(),
            "skippable non-finite sample, not a fake zero: {}",
            r.aggregate_bandwidth
        );
        // With a per-file charge the duration is floored instead.
        m.metadata_latency = 0.01;
        let r = m.simulate_burst(&[req(0, "/f", 1000, 0.0)]);
        assert!(r.aggregate_bandwidth.is_finite());
        assert!((r.aggregate_bandwidth - 1000.0 / 0.01).abs() < 1e-6);
    }

    #[test]
    fn read_burst_uses_read_bandwidth_and_open_latency() {
        let mut m = StorageModel::ideal(1, 100.0);
        m.server_read_bandwidth = 200.0;
        let w = m.simulate_burst(&[req(0, "/f", 1000, 0.0)]);
        let r = m.simulate_read_burst(&[read(0, "/f", 1000, 0.0)]);
        assert!((w.finish[0] - 10.0).abs() < 1e-9);
        assert!((r.finish[0] - 5.0).abs() < 1e-9, "reads run at read bw");
        // The open charge serializes like the write-side metadata charge.
        m.open_latency = 0.5;
        let r = m.simulate_read_burst(&[read(0, "/tiny", 2, 0.0)]);
        assert!(r.finish[0] >= 0.5);
    }

    #[test]
    fn read_burst_fair_shares_servers() {
        let m = StorageModel::ideal(1, 100.0);
        let r = m.simulate_read_burst(&[read(0, "/a", 500, 0.0), read(1, "/b", 500, 0.0)]);
        assert!((r.finish[0] - 10.0).abs() < 1e-9, "{:?}", r.finish);
        assert!((r.finish[1] - 10.0).abs() < 1e-9);
        assert!((r.aggregate_bandwidth - 100.0).abs() < 1e-6);
    }

    #[test]
    fn summit_preset_has_a_read_side() {
        let m = StorageModel::summit_alpine(1.0);
        assert!(m.server_read_bandwidth > 1e10);
        assert!(m.open_latency > 0.0);
        assert!(m.open_latency < m.metadata_latency, "opens beat creates");
    }
}
