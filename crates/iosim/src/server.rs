//! The one processor-sharing server: every simulated second of burst
//! service, private or shared, is produced by [`ServerState`].
//!
//! A server holds the requests currently sharing it (`active`) and its
//! future arrivals (`queue`), one record per request — or per request
//! of a clone group, whose identical tenants share one record
//! ([`Job::copies`]) — and moves from event to event: the next
//! arrival or the earliest completion at the current rates. Work is in
//! *seconds of server demand*, not bytes, which keeps the loop
//! well-defined for idealized infinite-bandwidth models (`bytes / inf`
//! is 0, where a byte-domain `latency * bw` term would be NaN and jobs
//! could never retire). Every copy in the active set progresses at one
//! rate, one over the copies sharing the server: fair processor sharing.
//! What is done with the lost service is the only parameter
//! ([`RatePolicy`]): nothing for a private [`crate::StorageModel`],
//! contention attribution for the [`crate::Fabric`].
//!
//! Servers never interact (requests are pinned to servers by path hash),
//! so the same state machine is driven two ways: a private model loads
//! one server's jobs and runs it to exhaustion ([`ServerState::run`]);
//! the fabric keeps every server live and interleaves their events in
//! global time order.

use std::cmp::Ordering;

/// Remaining-work threshold below which a request retires (seconds of
/// service demand; floating-point tolerance).
pub(crate) const RETIRE_EPS: f64 = 1e-6;

/// One request in flight on a server. Ordering (and every deterministic
/// tie-break) uses `(arrival, tenant, seq, req)` — never insertion
/// order, which on the fabric depends on thread scheduling. A private
/// model's jobs all carry tenant, sequence and burst 0.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) tenant: usize,
    /// Identical tenants this record stands for, `tenant..tenant +
    /// copies` (a clone group's request; 1 otherwise). Every copy has the
    /// same arrival, work and rate, so the copies retire as one.
    pub(crate) copies: usize,
    /// Tenant-local burst sequence number.
    pub(crate) seq: u64,
    /// Global burst key (completion bookkeeping only).
    pub(crate) burst: u64,
    /// Index of this request within its burst's submission order.
    pub(crate) req: usize,
    pub(crate) arrival: f64,
    /// Remaining seconds of service demand.
    pub(crate) work: f64,
}

impl Job {
    fn order(&self, other: &Job) -> Ordering {
        self.arrival
            .total_cmp(&other.arrival)
            .then(self.tenant.cmp(&other.tenant))
            .then(self.seq.cmp(&other.seq))
            .then(self.req.cmp(&other.req))
    }
}

/// What a server does with the service its active set loses to sharing.
/// The default is the private model's policy: nothing to attribute.
pub(crate) trait RatePolicy {
    /// Books the service `active` lost over an interval of `elapsed > 0`
    /// seconds, every copy progressing at `rate`.
    fn attribute(&mut self, _active: &[Job], _rate: f64, _elapsed: f64) {}
}

/// The private model's policy: [`RatePolicy`]'s default.
pub(crate) struct EqualSplit;

impl RatePolicy for EqualSplit {}

/// One server's event state (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ServerState {
    /// Time of this server's last processed event.
    last_t: f64,
    /// Requests currently sharing the server (admission order, which is
    /// deterministic: arrivals are admitted in [`Job::order`]).
    active: Vec<Job>,
    /// The copies `active` stands for: the equal split's divisor.
    sharing: usize,
    /// Future arrivals, sorted *descending* by [`Job::order`] (pop from
    /// the end is the earliest).
    queue: Vec<Job>,
}

impl ServerState {
    /// Adds future arrivals with one sort (job keys are unique, so the
    /// queue's order never depends on who loaded first).
    pub(crate) fn load(&mut self, jobs: impl IntoIterator<Item = Job>) {
        self.queue.extend(jobs);
        self.queue.sort_by(|a, b| b.order(a));
    }

    /// The rate every active copy progresses at.
    fn rate(&self) -> f64 {
        1.0 / self.sharing as f64
    }

    /// This server's next event time: its earliest queued arrival or the
    /// earliest completion of its active set at the current rate; `None`
    /// when it has nothing left to do.
    ///
    /// # Panics
    /// Panics when a pending request can never complete (a zero or NaN
    /// bandwidth); `server` names the server in the message.
    pub(crate) fn next_event(&self, server: usize) -> Option<f64> {
        let arrive = self.queue.last().map(|j| j.arrival);
        let t = if self.active.is_empty() {
            arrive?
        } else {
            // Dividing by a positive rate and adding `last_t` are
            // monotone under IEEE rounding, so the least demand is the
            // earliest completion.
            let least = self
                .active
                .iter()
                .map(|j| j.work)
                .fold(f64::INFINITY, f64::min)
                / self.rate();
            arrive.map_or(self.last_t + least, |a| a.min(self.last_t + least))
        };
        assert!(
            t.is_finite(),
            "starved request on server {server} (zero or NaN bandwidth)"
        );
        Some(t)
    }

    /// Processes this server's event at time `t`: progress the active
    /// set over `[last_t, t]` (the policy books what it lost), hand
    /// every finished request to `retired`, admit arrivals due at or
    /// before `t`.
    pub(crate) fn process(
        &mut self,
        t: f64,
        policy: &mut (impl RatePolicy + ?Sized),
        mut retired: impl FnMut(&Job),
    ) {
        if !self.active.is_empty() {
            let elapsed = t - self.last_t;
            let rate = self.rate();
            for j in &mut self.active {
                j.work -= rate * elapsed;
            }
            if elapsed > 0.0 {
                policy.attribute(&self.active, rate, elapsed);
            }
        }
        self.last_t = t;
        self.active.retain(|j| {
            let done = j.work <= RETIRE_EPS;
            if done {
                self.sharing -= j.copies;
                retired(j);
            }
            !done
        });
        while let Some(j) = self.queue.pop_if(|j| j.arrival <= t) {
            self.sharing += j.copies;
            self.active.push(j);
        }
    }

    /// Runs the loaded jobs to exhaustion, reporting each retirement and
    /// its time.
    pub(crate) fn run(
        &mut self,
        server: usize,
        policy: &mut impl RatePolicy,
        mut retired: impl FnMut(&Job, f64),
    ) {
        while let Some(t) = self.next_event(server) {
            self.process(t, policy, |j| retired(j, t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs `jobs` on one server to exhaustion under an equal split:
    /// every copy's `(tenant, req, retirement time bits)`, sorted.
    fn retirements(jobs: Vec<Job>) -> Vec<(usize, usize, u64)> {
        let mut server = ServerState::default();
        server.load(jobs);
        let mut out = Vec::new();
        server.run(0, &mut EqualSplit, |j, t| {
            out.extend((j.tenant..j.tenant + j.copies).map(|tenant| (tenant, j.req, t.to_bits())));
        });
        out.sort_unstable();
        out
    }

    fn job(tenant: usize, copies: usize, req: usize, (arrival, work): (f64, f64)) -> Job {
        Job {
            tenant,
            copies,
            seq: 0,
            burst: 0,
            req,
            // A coarse grid, so simultaneous arrivals occur.
            arrival: (arrival * 4.0).floor() / 4.0,
            work,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One record standing for `k` tenants retires every copy at the
        /// same bits as `k` single-copy records, beside independent jobs.
        #[test]
        fn a_record_of_k_copies_retires_like_k_records(
            k in 1usize..=6,
            clone in proptest::collection::vec((0.0f64..2.0, 1e-3f64..1.0), 1..12),
            others in proptest::collection::vec((0.0f64..2.0, 1e-3f64..1.0), 0..12),
        ) {
            let others = || others.iter().enumerate().map(|(req, &aw)| job(k, 1, req, aw));
            let grouped = clone.iter().enumerate().map(|(req, &aw)| job(0, k, req, aw));
            let copies = (0..k).flat_map(|tenant| {
                clone.iter().enumerate().map(move |(req, &aw)| job(tenant, 1, req, aw))
            });
            prop_assert_eq!(
                retirements(grouped.chain(others()).collect()),
                retirements(copies.chain(others()).collect())
            );
        }
    }
}
