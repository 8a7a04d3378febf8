//! Differential fixture for the machine room: seeded fleets of tenants
//! on one [`Fabric`], every simulated float recorded as its bit pattern.
//!
//! Two kinds of fleet are pinned. Burst fleets drive 1-4 tenants of
//! random burst programs (writes, staged writes through a bounded pool
//! on half of them, trailing reads) under mixed QoS, sometimes beside a
//! clone group. Campaign fleets run small oracle configurations through
//! `run_campaign_fabric`: stored, deferred and streamed backends, a
//! shared link, a QoS pair and a staging pool. Any change to how the
//! fabric drives its tenants must reproduce `fixtures/fabric_fleets.txt`
//! byte for byte. After a change that is meant to move a simulated
//! number, regenerate it with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test fabric_fleets
//! ```

use amr_proxy_io::amrproxy::{
    run_campaign_fabric, CastroSedovConfig, Engine, FabricSettings, RunSummary,
};
use amr_proxy_io::io_engine::{BackendSpec, Scenario};
use amr_proxy_io::iosim::{
    BurstResult, Fabric, FabricHandle, QosPolicy, ReadRequest, StorageModel, WriteRequest,
};
use amr_proxy_io::mpi_sim::NetworkModel;
use common::{burst_bits, stats_bits};
use serde_json::{Number, Value};
use std::fmt::Write as _;
use std::path::PathBuf;

mod common;

/// Burst fleets in the fixture.
const BURST_FLEETS: u64 = 48;

/// A splitmix64 stream: the fleets are a pure function of their index.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One tenant's burst program: `steps` write bursts of `files` requests
/// with staggered starts, each `gap` after the previous return, then a
/// staggered read of the first step's files. With `staged`, writes are
/// handed to the fabric's staging pool and the tenant resumes at the
/// handoff.
#[derive(Clone, Copy, Debug)]
struct Program {
    prefix: usize,
    steps: usize,
    files: usize,
    kib: u64,
    stagger: f64,
    gap: f64,
    staged: bool,
}

/// A burst's handoff (its start for unstaged bursts) and its result.
type Timed = (f64, BurstResult);

impl Program {
    fn draw(rng: &mut SplitMix, prefix: usize, staged: bool) -> Self {
        Self {
            prefix,
            steps: rng.range(1, 3) as usize,
            files: rng.range(1, 5) as usize,
            kib: rng.range(1, 128),
            stagger: 0.02 * rng.unit(),
            gap: 0.02 * rng.unit(),
            staged,
        }
    }

    /// Bytes of the largest write burst.
    fn peak_bytes(&self) -> u64 {
        (0..self.steps)
            .map(|step| self.writes(step, 0.0).iter().map(|r| r.bytes).sum())
            .max()
            .unwrap_or(0)
    }

    fn writes(&self, step: usize, clock: f64) -> Vec<WriteRequest> {
        (0..self.files)
            .map(|f| WriteRequest {
                rank: f,
                path: format!("/p{}/s{step}/f{f}", self.prefix),
                bytes: self.kib * 1024 + (f * step) as u64,
                start: clock + self.stagger * (f % 3) as f64,
            })
            .collect()
    }

    /// Runs the program on `h` and reports its walls (the scheduler's
    /// seal-time call).
    async fn drive(self, h: FabricHandle) -> Vec<Timed> {
        let mut out = Vec::new();
        let mut clock = 0.0;
        for step in 0..self.steps {
            let mut reqs = self.writes(step, clock);
            let (handoff, r) = if self.staged {
                h.staged_burst(clock, &mut reqs).await
            } else {
                (clock, h.write_burst(&reqs).await)
            };
            clock = if self.staged { handoff } else { r.t_end } + self.gap;
            out.push((handoff, r));
        }
        let last_end = out.iter().map(|(_, r)| r.t_end).fold(clock, f64::max);
        let reads: Vec<ReadRequest> = (0..self.files)
            .map(|f| ReadRequest {
                rank: f,
                path: format!("/p{}/s0/f{f}", self.prefix),
                bytes: self.kib * 1024,
                start: last_end + self.stagger * (f % 2) as f64,
            })
            .collect();
        let r = h.read_burst(&reads).await;
        out.push((last_end, r));
        let wall = out.last().map_or(0.0, |(_, r)| r.t_end);
        h.record_walls(wall, 0.5 * wall);
        out
    }
}

fn hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Burst fleet `index`, drawn and run; its fixture lines.
fn burst_fleet(index: u64, out: &mut String) {
    let mut rng = SplitMix(index.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xF1EE7);
    let tenants = rng.range(1, 4) as usize;
    let staged = index % 2 == 1;
    let model = StorageModel {
        variability_sigma: 0.4 * rng.unit(),
        metadata_latency: 1e-4,
        seed: rng.range(0, 999),
        ..StorageModel::ideal(rng.range(1, 4) as usize, 1e7)
    };
    let programs: Vec<Program> = (0..tenants)
        .map(|t| Program::draw(&mut rng, t, staged))
        .collect();
    let qos: Vec<QosPolicy> = (0..tenants)
        .map(|_| {
            [
                QosPolicy::default(),
                QosPolicy::weighted(3.0),
                QosPolicy::capped(0.4),
            ][rng.range(0, 2) as usize]
        })
        .collect();
    // A clone group leads a third of the unstaged fleets.
    let clones = if !staged && rng.range(0, 2) == 0 {
        rng.range(2, 3) as usize
    } else {
        1
    };
    let mut fabric = Fabric::new(model);
    let mut pool = None;
    if staged {
        let peak = programs.iter().map(Program::peak_bytes).max().unwrap_or(0);
        let bytes = (peak as f64 * (0.6 + 1.6 * rng.unit())) as u64;
        fabric = fabric.with_staging(bytes);
        pool = Some(bytes);
    }
    let handles: Vec<(FabricHandle, Program)> = programs
        .iter()
        .zip(&qos)
        .enumerate()
        .map(|(t, (&p, &q))| {
            let h = if t == 0 && clones > 1 {
                let names: Vec<String> = (0..clones).map(|c| format!("g_t{c}")).collect();
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                fabric.tenant_clones(&names)
            } else {
                fabric.tenant_with(&format!("t{t}"), q)
            };
            (h, p)
        })
        .collect();
    let results = fabric.run(handles.into_iter().map(|(h, p)| p.drive(h)));
    writeln!(
        out,
        "burst_fleet {index:02} tenants={tenants} clones={clones} servers={} \
         sigma={} pool={pool:?} qos={:?}",
        model.nservers,
        hex(model.variability_sigma),
        qos.iter()
            .map(|q| (q.weight, q.bandwidth_cap))
            .collect::<Vec<_>>()
    )
    .unwrap();
    for (t, timed) in results.iter().enumerate() {
        let bursts: Vec<BurstResult> = timed.iter().map(|(_, r)| r.clone()).collect();
        for (b, ((finish, t_end), (handoff, _))) in
            burst_bits(&bursts).iter().zip(timed).enumerate()
        {
            let finish: Vec<String> = finish.iter().map(|f| format!("{f:016x}")).collect();
            writeln!(
                out,
                "  tenant {t} burst {b} handoff={} t_end={t_end:016x} finish={}",
                hex(*handoff),
                finish.join(",")
            )
            .unwrap();
        }
    }
    for s in fabric.tenant_stats() {
        writeln!(out, "  stats {:?}", stats_bits(&s)).unwrap();
    }
}

/// A 64^2 four-rank oracle run: small, but with compute gaps between
/// its bursts so tenants interleave.
fn oracle(name: &str, backend: BackendSpec) -> CastroSedovConfig {
    CastroSedovConfig {
        name: name.into(),
        engine: Engine::Oracle,
        n_cell: 64,
        max_level: 2,
        max_step: 8,
        plot_int: 2,
        nprocs: 4,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        backend,
        ..Default::default()
    }
}

/// Every leaf of a summary, floats as bits, in field order.
fn leaves(path: &str, v: &Value, out: &mut Vec<String>) {
    match v {
        Value::Number(Number::Float(x)) => out.push(format!("{path}={}", hex(*x))),
        Value::Number(n) => out.push(format!("{path}={n:?}")),
        Value::String(s) => out.push(format!("{path}={s}")),
        Value::Bool(b) => out.push(format!("{path}={b}")),
        Value::Null => out.push(format!("{path}=null")),
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                leaves(&format!("{path}.{i}"), item, out);
            }
        }
        Value::Object(fields) => {
            for (k, item) in fields {
                leaves(&format!("{path}.{k}"), item, out);
            }
        }
    }
}

fn summary_lines(label: &str, rows: &[RunSummary], out: &mut String) {
    writeln!(out, "campaign_fleet {label}").unwrap();
    for row in rows {
        let mut cols = Vec::new();
        leaves("", &serde_json::to_value(row), &mut cols);
        writeln!(out, "  {}", cols.join(" ")).unwrap();
    }
}

fn campaign_fleets(out: &mut String) {
    let storage = StorageModel {
        variability_sigma: 0.2,
        metadata_latency: 1e-4,
        ..StorageModel::ideal(3, 2e7)
    };
    let plain = FabricSettings::default();
    let fpp = |name: &str| oracle(name, BackendSpec::FilePerProcess);
    let deferred = |name: &str| oracle(name, BackendSpec::Deferred(1));
    let streamed = |name: &str| oracle(name, BackendSpec::parse("streaming:200").unwrap());

    let rows = run_campaign_fabric(&[fpp("a"), fpp("b"), fpp("c")], &storage, &plain);
    summary_lines("fpp", &rows, out);

    let rows = run_campaign_fabric(&[deferred("a"), fpp("b")], &storage, &plain);
    summary_lines("deferred", &rows, out);

    let link = FabricSettings {
        link: Some(NetworkModel::new(4e8, 1e-5)),
        ..plain
    };
    let rows = run_campaign_fabric(&[streamed("a"), streamed("b"), fpp("c")], &storage, &link);
    summary_lines("streaming_link", &rows, out);

    let qos = [QosPolicy::weighted(4.0), QosPolicy::capped(0.5)];
    let weighted = FabricSettings { qos: &qos, ..plain };
    let restart = |name: &str| CastroSedovConfig {
        scenario: Some(Scenario::write_restart()),
        ..fpp(name)
    };
    let rows = run_campaign_fabric(&[restart("hi"), restart("lo")], &storage, &weighted);
    summary_lines("qos_pair", &rows, out);

    let pool = FabricSettings {
        staging_bytes: Some(256 * 1024),
        ..plain
    };
    let rows = run_campaign_fabric(&[deferred("a"), deferred("b")], &storage, &pool);
    summary_lines("staging_pool", &rows, out);

    let mixed = [
        fpp("a"),
        oracle("b", BackendSpec::Aggregated(2)),
        deferred("c"),
    ];
    let rows = run_campaign_fabric(&mixed, &storage, &pool);
    summary_lines("mixed_pool", &rows, out);
}

#[test]
fn fabric_fleets_reproduce_the_pinned_bits() {
    let mut text = String::new();
    for index in 0..BURST_FLEETS {
        burst_fleet(index, &mut text);
    }
    campaign_fleets(&mut text);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fabric_fleets.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); regenerate with BLESS_GOLDEN=1")
    });
    if let Some((n, (got, want))) = text
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("fabric_fleets.txt line {}: got\n{got}\nwant\n{want}", n + 1);
    }
    assert_eq!(
        text.lines().count(),
        expected.lines().count(),
        "fabric_fleets.txt length"
    );
}
