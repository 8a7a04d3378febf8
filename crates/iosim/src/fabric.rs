//! The machine room: one storage system shared by N concurrent runs.
//!
//! Everything below [`StorageModel`] in this crate simulates a *private*
//! filesystem — each run owns its model, so campaigns are loops over
//! isolated worlds. A [`Fabric`] instead wraps one model behind a unified
//! event-driven clock and accepts bursts from N concurrent tenants via
//! per-tenant [`FabricHandle`]s. Overlapping bursts time-share each
//! server's bandwidth exactly the way a single burst's requests always
//! have, because it is the same code: a burst is priced by the one
//! [`StorageModel`] pricing rule and served by the one processor-sharing
//! server (`server.rs`) a private model runs to exhaustion — the fabric
//! only keeps every server live, interleaves their events in global time
//! order, and books what each tenant lost. A solo tenant's results are
//! therefore **bit-identical** to [`StorageModel::simulate_burst`] /
//! [`StorageModel::simulate_read_burst`].
//!
//! Every request on a server gets an equal share of it (fair processor
//! sharing). On top of that the fabric layers:
//!
//! * **An interference plane** ([`TenantStats`]): shared vs
//!   solo-equivalent wall (the slowdown factor), plus the service
//!   seconds lost to other tenants' traffic (*contention*).
//! * **Clone groups** ([`Fabric::tenant_clones`]): N identical tenants
//!   driven by one handle. Each of their requests is one server record
//!   standing for all N (`copies = N`), so an N-tenant cell costs what a
//!   single tenant costs; a mirror slot reports its leader's stats under
//!   its own id and name, bit-identical to N separate tenants.
//!
//! # One event loop
//!
//! A tenant is a future: a run is an `async` body whose only await
//! points are its fabric bursts. [`Fabric::run`] drives every tenant on
//! the calling thread. It polls each live tenant, in tenant order, until
//! each one waits on the fabric or returns; then the engine advances the
//! event clock to the next burst resolution, and the loop polls again.
//! The engine advances only while every live tenant waits, so all
//! arrivals before the next completion are known: events are processed
//! in global time order and results are a pure function of the tenants'
//! programs. Register every tenant before the first burst.
//!
//! A fabric with one driving handle — a solo tenant, or a clone group —
//! needs no loop: its handle advances the engine itself whenever it
//! waits, so the blocking doors ([`FabricHandle::simulate_burst`] and
//! kin, [`block_on`]) return at once. Driving a fabric of several
//! tenants through a blocking door panics; hand them to [`Fabric::run`].
//!
//! ```
//! use iosim::{Fabric, StorageModel, WriteRequest};
//!
//! let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
//! let burst = |rank: usize| {
//!     vec![WriteRequest { rank, path: format!("/f{rank}"), bytes: 500, start: 0.0 }]
//! };
//! let tenants = [fabric.tenant("a"), fabric.tenant("b")];
//! let ends = fabric.run(tenants.iter().enumerate().map(|(rank, h)| async move {
//!     h.write_burst(&burst(rank)).await.t_end
//! }));
//! // Two 500-byte writes share the single 100 B/s server: both finish
//! // at t=10 — exactly as one run's two-request burst always has.
//! assert!(ends.iter().all(|t| (t - 10.0).abs() < 1e-9));
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

use crate::schedule::BurstScheduler;
use crate::server::{Job, RatePolicy, ServerState};
use crate::storage::{BurstResult, Class, Priced, ReadRequest, StorageModel, WriteRequest};

/// Interference metrics for one tenant of a [`Fabric`].
///
/// `contention_stall` is *lost service seconds*: over each event interval
/// the engine integrates the gap between the rate a request would have
/// had with the tenant alone on the machine and the rate it actually got.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant slot index (registration order).
    pub tenant: usize,
    /// Tenant name given at registration.
    pub name: String,
    /// Bursts the tenant submitted.
    pub bursts: u64,
    /// Payload bytes of write bursts.
    pub write_bytes: u64,
    /// Payload bytes of read bursts.
    pub read_bytes: u64,
    /// Wall-clock of the tenant's run on the shared fabric (reported by
    /// the scheduler at seal time; 0 until then).
    pub shared_wall: f64,
    /// Wall-clock the identical run would have taken with the storage to
    /// itself (exact solo replay, not an estimate; 0 until sealed).
    pub solo_wall: f64,
    /// Service seconds lost to other tenants' traffic.
    pub contention_stall: f64,
}

impl TenantStats {
    /// Shared wall over solo-equivalent wall (1.0 when either is
    /// unreported or the run was free).
    pub fn slowdown(&self) -> f64 {
        if self.solo_wall > 0.0 && self.shared_wall > 0.0 {
            self.shared_wall / self.solo_wall
        } else {
            1.0
        }
    }
}

/// What a run's burst scheduler is bound to: nothing (byte accounting
/// only), a private [`StorageModel`], or one tenant's seat on a shared
/// [`Fabric`].
pub enum StorageAttach<'a> {
    /// No storage timing: bursts are free, only codec CPU costs time.
    None,
    /// A private storage model: one run, one filesystem.
    Model(&'a StorageModel),
    /// One tenant of a shared machine room.
    Fabric(FabricHandle),
}

impl<'a> From<Option<&'a StorageModel>> for StorageAttach<'a> {
    fn from(storage: Option<&'a StorageModel>) -> Self {
        match storage {
            Some(m) => StorageAttach::Model(m),
            None => StorageAttach::None,
        }
    }
}

impl<'a> StorageAttach<'a> {
    /// Builds the run's burst scheduler for this attachment (`None` when
    /// unattached).
    pub fn scheduler(self, overlapped: bool) -> Option<BurstScheduler<'a>> {
        match self {
            StorageAttach::None => None,
            StorageAttach::Model(m) => Some(BurstScheduler::new(m, overlapped)),
            StorageAttach::Fabric(h) => Some(BurstScheduler::on_fabric(h, overlapped)),
        }
    }
}

/// How a fabric tenant's solo-equivalent wall is produced at seal time.
///
/// The default is an exact shadow replay (the scheduler re-runs the
/// tenant's burst sequence against a private model copy). When many
/// tenants share one solo profile — the throughput-scaling cells, which
/// are N clones of one configuration — the replay prices the identical
/// sequence N times; [`SoloMemo`] lets an executor pay it once and hand
/// the remaining tenants the answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SoloPricing {
    /// Exact solo shadow replay against a private model copy (the
    /// default, and the pinned bit-identical fallback on a memo miss).
    Replay,
    /// The solo wall is already known (a memoized shadow replay for the
    /// same canonical config): skip the replay, report this value.
    Known(f64),
}

/// A concurrency-safe memo of solo-equivalent walls, keyed by the
/// caller's canonical config key (the spec plane uses the tenancy- and
/// label-independent cell key). First pricing of a key runs the exact
/// shadow replay and [`SoloMemo::fill`]s the result; later tenants with
/// the same key [`SoloMemo::get`] it and skip their replays entirely.
/// Because clone tenants replay bit-identical burst sequences, a memo
/// hit reproduces the cold replay's wall exactly (pinned by tests).
#[derive(Debug, Default)]
pub struct SoloMemo {
    map: Mutex<HashMap<String, f64>>,
    hits: AtomicU64,
    fills: AtomicU64,
}

impl SoloMemo {
    /// An empty memo (one per spec execution; keys are only comparable
    /// under one canonical-key scheme).
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized solo wall for `key`, counting a hit when present.
    pub fn get(&self, key: &str) -> Option<f64> {
        let found = self.map.lock().expect("solo memo lock").get(key).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records the solo wall replayed for `key`. First writer wins:
    /// concurrent replays of the same key are bit-identical anyway, and
    /// keeping the first keeps the memo append-only.
    pub fn fill(&self, key: &str, solo_wall: f64) {
        let mut map = self.map.lock().expect("solo memo lock");
        if !map.contains_key(key) {
            map.insert(key.to_string(), solo_wall);
            self.fills.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Replays skipped thanks to the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Distinct keys priced (each one exact shadow replay).
    pub fn fills(&self) -> u64 {
        self.fills.load(Ordering::Relaxed)
    }
}

/// An unresolved burst: its owner waits until `remaining` hits zero.
#[derive(Debug)]
struct PendingBurst {
    key: u64,
    remaining: usize,
    finish: Vec<f64>,
}

/// One registered tenant.
#[derive(Debug)]
struct TenantSlot {
    /// Bursts submitted so far (tenant-local sequence for ordering).
    seq: u64,
    stats: TenantStats,
    /// A clone group's mirror slot: the leader slot whose records stand
    /// for it, and whose stats it reports.
    leader: Option<usize>,
}

/// The shared event engine: one per fabric, shared with its handles.
#[derive(Debug, Default)]
struct Engine {
    tenants: Vec<TenantSlot>,
    /// Handles that submit bursts (a clone group's mirrors do not). With
    /// one, a waiting handle advances the engine itself.
    drivers: usize,
    servers: Vec<ServerState>,
    /// Each server's cached [`ServerState::next_event`]; `None` once the
    /// server loads or processes (nothing else changes it) until the
    /// next scan recomputes it.
    next: Vec<Option<Option<f64>>>,
    pending: Vec<PendingBurst>,
    /// Resolved bursts' per-request finish times, until their owners
    /// collect them.
    results: HashMap<u64, Vec<f64>>,
    next_burst: u64,
}

/// One server's active jobs by tenant: `(tenant, job count)`, ascending
/// by tenant index. A record counts once for its own tenant — all an
/// equal split needs, as a clone group's mirrors count what its leader
/// does.
fn tenant_groups(active: &[Job]) -> Vec<(usize, usize)> {
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for j in active {
        match groups.binary_search_by_key(&j.tenant, |g| g.0) {
            Ok(i) => groups[i].1 += 1,
            Err(i) => groups.insert(i, (j.tenant, 1)),
        }
    }
    groups
}

/// The fabric's rate policy is its tenant table: [`TenantStats`] takes
/// the attribution.
impl RatePolicy for [TenantSlot] {
    /// Lost service is the gap to the rate a job would have had with its
    /// tenant alone on the server, all of it other tenants' traffic
    /// (contention). A clone group's loss is booked on its leader only
    /// (the mirrors report the leader's).
    fn attribute(&mut self, active: &[Job], rate: f64, elapsed: f64) {
        let groups = tenant_groups(active);
        for j in active {
            let g = groups
                .binary_search_by_key(&j.tenant, |g| g.0)
                .expect("every active job's tenant has a group");
            let lost = ((1.0 / groups[g].1 as f64 - rate) * elapsed).max(0.0);
            if lost > 0.0 {
                self[j.tenant].stats.contention_stall += lost;
            }
        }
    }
}

impl Engine {
    fn new_key(&mut self) -> u64 {
        self.next_burst += 1;
        self.next_burst - 1
    }

    /// Registers the next tenant slot and returns its index.
    fn push_slot(&mut self, name: &str, leader: Option<usize>) -> usize {
        let tenant = self.tenants.len();
        self.tenants.push(TenantSlot {
            seq: 0,
            stats: TenantStats {
                tenant,
                name: name.to_string(),
                ..TenantStats::default()
            },
            leader,
        });
        tenant
    }

    /// Advances the shared clock, processing per-server events in global
    /// time order, until at least one pending burst fully completes.
    fn advance_until_resolution(&mut self) {
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (s, srv) in self.servers.iter().enumerate() {
                let next = self.next[s].get_or_insert_with(|| srv.next_event(s));
                let Some(t) = *next else {
                    continue;
                };
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, s));
                }
            }
            let (t, s) = best.expect("a pending burst implies a future server event");
            if self.process_server_event(s, t) {
                return;
            }
        }
    }

    /// Processes server `s`'s event at time `t` and records the
    /// finishes. Returns true when a burst fully resolved (its result is
    /// posted for its owner to collect).
    fn process_server_event(&mut self, s: usize, t: f64) -> bool {
        let Engine {
            tenants,
            servers,
            next,
            pending,
            results,
            ..
        } = self;
        let mut resolved_any = false;
        servers[s].process(t, tenants.as_mut_slice(), |j| {
            let at = pending
                .iter()
                .position(|p| p.key == j.burst)
                .expect("retired request belongs to a pending burst");
            pending[at].finish[j.req] = t;
            pending[at].remaining -= 1;
            if pending[at].remaining > 0 {
                return;
            }
            // The burst's last request retired: resolve it.
            let done = pending.remove(at);
            results.insert(done.key, done.finish);
            resolved_any = true;
        });
        next[s] = None;
        resolved_any
    }
}

/// Drives `run` to completion in one poll: the body of every blocking
/// door. A run without a fabric never waits, and a fabric's only
/// driving handle resolves its own waits.
///
/// # Panics
/// Panics if `run` waits on a fabric of several tenants: they progress
/// only together, under [`Fabric::run`].
pub fn block_on<T>(run: impl Future<Output = T>) -> T {
    match std::pin::pin!(run).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "a fabric with several tenants cannot be driven through a blocking \
             call: hand every tenant's run to Fabric::run"
        ),
    }
}

/// A shared multi-tenant storage fabric (see the module docs).
pub struct Fabric {
    model: StorageModel,
    engine: Rc<RefCell<Engine>>,
}

impl Fabric {
    /// A fabric over one storage model.
    pub fn new(model: StorageModel) -> Self {
        Self {
            model,
            engine: Rc::default(),
        }
    }

    /// Registers a tenant.
    ///
    /// # Panics
    /// Panics if any burst has already been submitted: the engine must
    /// know every tenant before it may advance.
    pub fn tenant(&self, name: &str) -> FabricHandle {
        let mut g = self.engine.borrow_mut();
        assert!(
            g.next_burst == 0,
            "Fabric::tenant: register every tenant before the first burst"
        );
        if g.servers.is_empty() {
            let n = self.model.effective_nservers();
            g.servers.resize_with(n, ServerState::default);
            g.next = vec![None; n];
        }
        g.drivers += 1;
        let tenant = g.push_slot(name, None);
        FabricHandle {
            model: self.model,
            engine: Rc::clone(&self.engine),
            tenant,
            mirrors: 0,
            pricing: SoloPricing::Replay,
        }
    }

    /// Registers a *clone group*: one tenant slot per name, all driven by
    /// the **single** returned handle. The first slot is the real tenant
    /// (the leader); the rest are mirror slots. Every request the handle
    /// submits is loaded as **one** server record standing for all N
    /// slots (`copies = N` under the leader's tenant id), so contention
    /// pricing sees the full N-tenant load while one application run
    /// executes and each event costs what a single tenant's does. A
    /// mirror's [`TenantStats`] are its leader's under its own `tenant`
    /// and `name`.
    ///
    /// This is exact, not an approximation, for *identical clones*:
    /// request placement and service demands depend only on the request
    /// set, so N clones' copies of a request share arrival, work and
    /// rate, and retire at the same event; each clone's stall is summed
    /// over its own requests in the same order. Every per-tenant outcome
    /// (burst results, stall attribution, walls) is therefore
    /// bit-identical to N tenants submitting the same sequence (pinned
    /// by tests). Callers remain responsible for only grouping runs that
    /// are identical modulo their display name.
    ///
    /// Mirror slots submit nothing, so a group alone on its fabric is one
    /// driver and resolves its waits inline.
    ///
    /// # Panics
    /// Panics if `names` is empty or if any burst was already submitted.
    pub fn tenant_clones(&self, names: &[&str]) -> FabricHandle {
        assert!(!names.is_empty(), "Fabric::tenant_clones: empty group");
        let mut first = self.tenant(names[0]);
        let mut g = self.engine.borrow_mut();
        for name in &names[1..] {
            g.push_slot(name, Some(first.tenant));
        }
        first.mirrors = names.len() - 1;
        first
    }

    /// Drives every tenant's run to completion on the calling thread and
    /// returns their results in tenant order. Each round polls every
    /// live tenant in order, until it waits on this fabric or returns,
    /// then advances the clock to the next burst resolution.
    ///
    /// Pass one future per driving handle, all registered up front. A
    /// panicking tenant unwinds out of this call with its own payload.
    pub fn run<T, F: Future<Output = T>>(&self, tenants: impl IntoIterator<Item = F>) -> Vec<T> {
        let mut cx = Context::from_waker(Waker::noop());
        let mut live: Vec<_> = tenants.into_iter().map(|f| Some(Box::pin(f))).collect();
        let mut out: Vec<Option<T>> = live.iter().map(|_| None).collect();
        loop {
            let mut waiting = false;
            for (slot, result) in live.iter_mut().zip(&mut out) {
                let Some(run) = slot else { continue };
                match run.as_mut().poll(&mut cx) {
                    Poll::Ready(v) => {
                        *result = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => waiting = true,
                }
            }
            if !waiting {
                return out.into_iter().flatten().collect();
            }
            self.engine.borrow_mut().advance_until_resolution();
        }
    }

    /// Per-tenant interference stats, in registration order. Meaningful
    /// once the runs holding the handles are done (walls are reported at
    /// scheduler seal time).
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let g = self.engine.borrow();
        g.tenants
            .iter()
            .map(|t| match t.leader {
                Some(leader) => TenantStats {
                    tenant: t.stats.tenant,
                    name: t.stats.name.clone(),
                    ..g.tenants[leader].stats.clone()
                },
                None => t.stats.clone(),
            })
            .collect()
    }
}

/// One tenant's seat on a [`Fabric`]. Mirrors the [`StorageModel`] burst
/// API; its `async` calls return once the shared engine resolves them
/// against every overlapping tenant's traffic.
pub struct FabricHandle {
    model: StorageModel,
    engine: Rc<RefCell<Engine>>,
    tenant: usize,
    /// Mirror slots after `tenant` driven by this handle (clone groups;
    /// 0 for an ordinary tenant).
    mirrors: usize,
    /// How the scheduler prices this tenant's solo-equivalent wall.
    pub(crate) pricing: SoloPricing,
}

impl FabricHandle {
    /// The storage model behind the fabric (used by the scheduler's
    /// solo-replay shadow).
    pub(crate) fn model(&self) -> StorageModel {
        self.model
    }

    /// Sets how the scheduler prices this tenant's solo-equivalent wall
    /// (default [`SoloPricing::Replay`]). Set before attaching the
    /// handle to a run; a [`SoloPricing::Known`] wall skips the shadow
    /// replay entirely.
    pub fn set_solo_pricing(&mut self, pricing: SoloPricing) {
        self.pricing = pricing;
    }

    /// Fabric twin of [`StorageModel::simulate_burst`]: request `start`
    /// times must already be set. Returns once the burst completes on
    /// the shared clock. Solo-tenant results are bit-identical to the
    /// model's.
    pub async fn write_burst(&self, reqs: &[WriteRequest]) -> BurstResult {
        self.serve(&self.model.price(Class::Write, reqs), |i| reqs[i].start)
            .await
    }

    /// Fabric twin of [`StorageModel::simulate_read_burst`].
    pub async fn read_burst(&self, reqs: &[ReadRequest]) -> BurstResult {
        self.serve(&self.model.price(Class::Read, reqs), |i| reqs[i].start)
            .await
    }

    /// [`FabricHandle::write_burst`] for the fabric's only driver.
    pub fn simulate_burst(&self, reqs: &[WriteRequest]) -> BurstResult {
        block_on(self.write_burst(reqs))
    }

    /// Serves a priced burst, request `i` arriving at `start_of(i)`, on
    /// the shared servers. An empty burst never enters the engine.
    pub(crate) async fn serve(
        &self,
        priced: &Priced,
        start_of: impl Fn(usize) -> f64,
    ) -> BurstResult {
        if priced.len() == 0 {
            return priced.result(Vec::new(), start_of);
        }
        let key = self.engine.borrow_mut().new_key();
        self.submit(key, priced, &start_of);
        let finish = self.wait(key).await;
        priced.result(finish, start_of)
    }

    /// Reports the run's final shared wall and the scheduler shadow's
    /// exact solo-equivalent wall into the tenant's stats (a clone
    /// group's mirrors report their leader's).
    pub fn record_walls(&self, shared_wall: f64, solo_wall: f64) {
        let stats = &mut self.engine.borrow_mut().tenants[self.tenant].stats;
        stats.shared_wall = shared_wall;
        stats.solo_wall = solo_wall;
    }

    /// Loads a priced burst onto the shared servers under `key`.
    fn submit(&self, key: u64, priced: &Priced, start_of: impl Fn(usize) -> f64) {
        let g = &mut *self.engine.borrow_mut();
        let n = priced.len();
        let slot = &mut g.tenants[self.tenant];
        let seq = slot.seq;
        slot.seq += 1;
        slot.stats.bursts += 1;
        match priced.class {
            Class::Write => slot.stats.write_bytes += priced.total_bytes,
            Class::Read => slot.stats.read_bytes += priced.total_bytes,
        }
        g.pending.push(PendingBurst {
            key,
            remaining: n,
            finish: vec![0.0; n],
        });
        // One record per request, standing for every slot this handle
        // drives (a clone group's mirrors would submit exact copies).
        let (tenant, copies) = (self.tenant, self.mirrors + 1);
        for (s, jobs) in priced.per_server.iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            g.servers[s].load(jobs.iter().map(|&(req, work)| Job {
                tenant,
                copies,
                seq,
                burst: key,
                req,
                arrival: start_of(req),
                work,
            }));
            g.next[s] = None;
        }
    }

    /// Waits until burst `key` resolves and returns its finish times. A
    /// fabric's only driver advances the engine itself until it does;
    /// with several, the tenant yields to [`Fabric::run`], which advances
    /// once every live tenant waits.
    async fn wait(&self, key: u64) -> Vec<f64> {
        poll_fn(|_| {
            let mut g = self.engine.borrow_mut();
            loop {
                if let Some(finish) = g.results.remove(&key) {
                    return Poll::Ready(finish);
                }
                if g.drivers > 1 {
                    return Poll::Pending;
                }
                g.advance_until_resolution();
            }
        })
        .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::pin::Pin;

    fn req(rank: usize, path: &str, bytes: u64, start: f64) -> WriteRequest {
        WriteRequest {
            rank,
            path: path.to_string(),
            bytes,
            start,
        }
    }

    fn burst(prefix: &str, n: usize, bytes: u64, start: f64) -> Vec<WriteRequest> {
        (0..n)
            .map(|i| req(i, &format!("/{prefix}{i}"), bytes, start))
            .collect()
    }

    #[test]
    fn solo_tenant_is_bit_identical_to_the_model() {
        // Noise on, several servers, several bursts in sequence: the
        // fabric's answers must equal the solo model's bit for bit.
        let model = StorageModel {
            variability_sigma: 0.2,
            metadata_latency: 0.01,
            ..StorageModel::ideal(4, 1e6)
        };
        let fabric = Fabric::new(model);
        let h = fabric.tenant("solo");
        let mut clock = 0.0;
        for step in 0..4 {
            let reqs = burst(&format!("s{step}/f"), 7, 250_000 + step as u64, clock);
            let solo = model.simulate_burst(&reqs);
            let shared = h.simulate_burst(&reqs);
            assert_eq!(solo, shared, "step {step}");
            clock = shared.t_end + 1.5;
        }
        let rreqs: Vec<ReadRequest> = (0..5)
            .map(|i| ReadRequest {
                rank: i,
                path: format!("/s0/f{i}"),
                bytes: 250_000,
                start: clock,
            })
            .collect();
        assert_eq!(
            model.simulate_read_burst(&rreqs),
            block_on(h.read_burst(&rreqs))
        );
    }

    /// One write burst per tenant, driven together by [`Fabric::run`].
    fn run_bursts(
        fabric: &Fabric,
        tenants: &[(FabricHandle, Vec<WriteRequest>)],
    ) -> Vec<BurstResult> {
        fabric.run(tenants.iter().map(|(h, reqs)| h.write_burst(reqs)))
    }

    #[test]
    fn two_tenants_share_like_one_burst_would() {
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let tenants = [
            (fabric.tenant("a"), vec![req(0, "/a", 500, 0.0)]),
            (fabric.tenant("b"), vec![req(0, "/b", 500, 0.0)]),
        ];
        let results = run_bursts(&fabric, &tenants);
        let (ra, rb) = (&results[0], &results[1]);
        // Same as one run's two-request burst: both finish at 10.
        assert!((ra.t_end - 10.0).abs() < 1e-9, "{}", ra.t_end);
        assert!((rb.t_end - 10.0).abs() < 1e-9, "{}", rb.t_end);
        let stats = fabric.tenant_stats();
        // Each lost half the server for 10s: 5 lost service seconds.
        assert!((stats[0].contention_stall - 5.0).abs() < 1e-9);
        assert!((stats[1].contention_stall - 5.0).abs() < 1e-9);
    }

    #[test]
    fn n_identical_tenants_slow_down_by_n() {
        let model = StorageModel::ideal(1, 1000.0);
        let solo = model.simulate_burst(&[req(0, "/t0", 1000, 0.0)]);
        for n in [2usize, 4] {
            let fabric = Fabric::new(model);
            let tenants: Vec<_> = (0..n)
                .map(|i| {
                    let h = fabric.tenant(&format!("t{i}"));
                    (h, vec![req(0, &format!("/t{i}"), 1000, 0.0)])
                })
                .collect();
            let walls: Vec<f64> = run_bursts(&fabric, &tenants)
                .iter()
                .map(|r| r.t_end)
                .collect();
            for w in &walls {
                assert!(
                    (w - solo.t_end * n as f64).abs() < 1e-9,
                    "n={n}: {w} vs solo {}",
                    solo.t_end
                );
            }
        }
    }

    #[test]
    fn fabric_results_are_deterministic_across_runs() {
        let model = StorageModel {
            variability_sigma: 0.3,
            ..StorageModel::ideal(3, 1e5)
        };
        let run = || {
            let fabric = Fabric::new(model);
            let handles: Vec<FabricHandle> =
                (0..4).map(|i| fabric.tenant(&format!("t{i}"))).collect();
            let ends: Vec<Vec<f64>> =
                fabric.run(handles.iter().enumerate().map(|(i, h)| async move {
                    let mut ends = Vec::new();
                    let mut clock = 0.0;
                    for step in 0..3 {
                        let r = h
                            .write_burst(&burst(
                                &format!("t{i}/s{step}/f"),
                                5,
                                40_000 + i as u64,
                                clock,
                            ))
                            .await;
                        ends.push(r.t_end);
                        clock = r.t_end + 0.5 * (i + 1) as f64;
                    }
                    ends
                }));
            let stats = fabric.tenant_stats();
            (ends, stats)
        };
        let (e1, s1) = run();
        let (e2, s2) = run();
        assert_eq!(e1, e2, "burst end times must not depend on thread timing");
        assert_eq!(s1, s2, "stats must not depend on thread timing");
    }

    #[test]
    fn finished_tenant_leaves_the_quorum() {
        // a runs one short burst and returns; b runs two. b's second
        // burst can only resolve once a has left the loop (the engine
        // must otherwise hold time for a's potential future traffic).
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let (a, b) = (fabric.tenant("a"), fabric.tenant("b"));
        let runs: [Pin<Box<dyn Future<Output = Vec<BurstResult>>>>; 2] = [
            Box::pin(async { vec![a.write_burst(&[req(0, "/a", 100, 0.0)]).await] }),
            Box::pin(async {
                let r1 = b.write_burst(&[req(0, "/b", 100, 0.0)]).await;
                let r2 = b.write_burst(&[req(0, "/b2", 100, r1.t_end + 5.0)]).await;
                vec![r1, r2]
            }),
        ];
        let out = fabric.run(runs);
        let (ra, rb) = (&out[0][0], (&out[1][0], &out[1][1]));
        // First two bursts share the server (1s each solo -> both at 2).
        assert!((ra.t_end - 2.0).abs() < 1e-9, "{}", ra.t_end);
        assert!((rb.0.t_end - 2.0).abs() < 1e-9);
        // b's second burst runs alone after a retired: 7 -> 8.
        assert!((rb.1.t_end - 8.0).abs() < 1e-9, "{}", rb.1.t_end);
    }

    #[test]
    fn a_panicking_tenant_unwinds_out_of_the_loop_with_its_payload() {
        // Three tenants, two bursts each; `doomed` panics between its
        // first and second burst. The panic leaves `Fabric::run` the
        // moment the loop resumes `doomed`, carrying its own message:
        // `a` (polled before it) has submitted its second burst, `c`
        // (polled after it) has not.
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let handles: Vec<FabricHandle> = ["a", "doomed", "c"]
            .iter()
            .map(|name| fabric.tenant(name))
            .collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fabric.run(handles.iter().enumerate().map(|(i, h)| async move {
                let r = h
                    .write_burst(&[req(0, &format!("/t{i}/one"), 100, 0.0)])
                    .await;
                assert!(i != 1, "tenant {i} fails between its bursts");
                h.write_burst(&[req(0, &format!("/t{i}/two"), 100, r.t_end + 1.0)])
                    .await
                    .t_end
            }))
        }));
        let payload = caught.expect_err("the doomed tenant's panic reaches the caller");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("tenant 1 fails between its bursts"));
        let bursts: Vec<u64> = fabric.tenant_stats().iter().map(|s| s.bursts).collect();
        assert_eq!(bursts, [2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "hand every tenant's run to Fabric::run")]
    fn a_blocking_door_on_a_shared_fabric_names_the_loop() {
        let fabric = Fabric::new(StorageModel::ideal(1, 100.0));
        let (a, _b) = (fabric.tenant("a"), fabric.tenant("b"));
        a.simulate_burst(&[req(0, "/a", 100, 0.0)]);
    }

    /// One clone tenant's driver loop: identical bursts (writes and a
    /// read), clocks chained through the previous result — the shape a
    /// scheduler-driven run produces.
    async fn clone_driver(h: &FabricHandle) -> Vec<f64> {
        let mut ends = Vec::new();
        let mut clock = 0.0;
        for step in 0..3 {
            let r = h
                .write_burst(&burst(
                    &format!("s{step}/f"),
                    6,
                    120_000 + step as u64,
                    clock,
                ))
                .await;
            ends.push(r.t_end);
            clock = r.t_end + 0.75;
        }
        let reads: Vec<ReadRequest> = (0..4)
            .map(|i| ReadRequest {
                rank: i,
                path: format!("/s0/f{i}"),
                bytes: 120_000,
                start: clock,
            })
            .collect();
        let r = h.read_burst(&reads).await;
        ends.push(r.t_end);
        ends
    }

    #[test]
    fn clone_group_is_bit_identical_to_threaded_clones() {
        // The mirrored-clone engine mode (one real tenant + N-1 mirror
        // slots) must reproduce N clone tenants driven by the loop bit
        // for bit: burst end times, walls, and the full per-tenant stats
        // including contention attribution.
        let model = StorageModel {
            variability_sigma: 0.2,
            metadata_latency: 0.01,
            ..StorageModel::ideal(3, 1e6)
        };
        let n = 4;
        let names: Vec<String> = (0..n).map(|i| format!("c_t{i}")).collect();

        // Reference: every clone its own tenant.
        let fleet_fabric = Fabric::new(model);
        let handles: Vec<FabricHandle> =
            names.iter().map(|name| fleet_fabric.tenant(name)).collect();
        let fleet_ends: Vec<Vec<f64>> = fleet_fabric.run(handles.iter().map(|h| async move {
            let ends = clone_driver(h).await;
            let wall = *ends.last().unwrap();
            h.record_walls(wall, wall * 0.5);
            ends
        }));
        let fleet_stats = fleet_fabric.tenant_stats();

        // Mirrored mode: one real tenant drives the whole group inline.
        let mirrored_fabric = Fabric::new(model);
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let group = mirrored_fabric.tenant_clones(&name_refs);
        assert_eq!(group.mirrors, n - 1);
        let mirrored_ends = block_on(clone_driver(&group));
        let wall = *mirrored_ends.last().unwrap();
        group.record_walls(wall, wall * 0.5);
        let mirrored_stats = mirrored_fabric.tenant_stats();

        for ends in &fleet_ends {
            assert_eq!(ends, &mirrored_ends, "clone burst ends must match");
        }
        assert_eq!(fleet_stats, mirrored_stats);
        // The workload genuinely contends (stats are not trivial).
        assert!(mirrored_stats.iter().all(|s| s.contention_stall > 0.0));
        assert_eq!(mirrored_stats.len(), n);
    }

    #[test]
    fn clone_group_of_one_is_a_plain_tenant() {
        let model = StorageModel::ideal(2, 1e6);
        let fabric = Fabric::new(model);
        let solo = fabric.tenant_clones(&["only"]);
        assert_eq!(solo.mirrors, 0);
        let ends = block_on(clone_driver(&solo));
        let legacy: Vec<f64> = {
            let f2 = Fabric::new(model);
            block_on(clone_driver(&f2.tenant("only")))
        };
        assert_eq!(ends, legacy);
    }

    #[test]
    fn clone_group_coexists_with_other_tenants() {
        // A clone pair plus an independent tenant: the group must not
        // wedge the loop, and results must match the 3-tenant run.
        let model = StorageModel::ideal(1, 1000.0);
        let run_fleet = || {
            let fabric = Fabric::new(model);
            let tenants = [
                (fabric.tenant("a0"), burst("x/f", 2, 500, 0.0)),
                (fabric.tenant("a1"), burst("x/f", 2, 500, 0.0)),
                (fabric.tenant("b"), burst("y/f", 2, 500, 0.0)),
            ];
            let r = run_bursts(&fabric, &tenants);
            (r[0].t_end, r[1].t_end, r[2].t_end)
        };
        let run_mirrored = || {
            let fabric = Fabric::new(model);
            let tenants = [
                (
                    fabric.tenant_clones(&["a0", "a1"]),
                    burst("x/f", 2, 500, 0.0),
                ),
                (fabric.tenant("b"), burst("y/f", 2, 500, 0.0)),
            ];
            let r = run_bursts(&fabric, &tenants);
            (r[0].t_end, r[1].t_end)
        };
        let (a0, a1, b) = run_fleet();
        let (ga, gb) = run_mirrored();
        assert_eq!(a0, a1);
        assert_eq!(ga, a0, "clone group must price like threaded clones");
        assert_eq!(gb, b);
    }
}
