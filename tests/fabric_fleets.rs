//! Differential fixture for the machine room: seeded fleets of tenants
//! on one [`Fabric`], every simulated float recorded as its bit pattern.
//!
//! Two kinds of fleet are pinned. Burst fleets drive 1-4 tenants of
//! random burst programs (writes, then trailing reads), sometimes with
//! a clone group in the lead. Campaign fleets run small oracle
//! configurations through `run_campaign_fabric`: stored, deferred and
//! streamed backends, and a restart pair. Any change to how the
//! fabric drives its tenants must reproduce `fixtures/fabric_fleets.txt`
//! byte for byte. After a change that is meant to move a simulated
//! number, regenerate it with
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test fabric_fleets
//! ```

use amr_proxy_io::amrproxy::{run_campaign_fabric, CastroSedovConfig, Engine, RunSummary};
use amr_proxy_io::io_engine::{BackendSpec, Scenario};
use amr_proxy_io::iosim::{
    BurstResult, Fabric, FabricHandle, ReadRequest, StorageModel, WriteRequest,
};
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
/// staggered read of the first step's files.
#[derive(Clone, Copy, Debug)]
struct Program {
    prefix: usize,
    steps: usize,
    files: usize,
    kib: u64,
    stagger: f64,
    gap: f64,
}

/// A burst's handoff (the application clock it was issued at) and its
/// result.
type Timed = (f64, BurstResult);

impl Program {
    fn draw(rng: &mut SplitMix, prefix: usize) -> Self {
        Self {
            prefix,
            steps: rng.range(1, 3) as usize,
            files: rng.range(1, 5) as usize,
            kib: rng.range(1, 128),
            stagger: 0.02 * rng.unit(),
            gap: 0.02 * rng.unit(),
        }
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
            let r = h.write_burst(&self.writes(step, clock)).await;
            let next = r.t_end + self.gap;
            out.push((clock, r));
            clock = next;
        }
        let reads: Vec<ReadRequest> = (0..self.files)
            .map(|f| ReadRequest {
                rank: f,
                path: format!("/p{}/s0/f{f}", self.prefix),
                bytes: self.kib * 1024,
                start: clock + self.stagger * (f % 2) as f64,
            })
            .collect();
        let r = h.read_burst(&reads).await;
        let wall = r.t_end;
        out.push((clock, r));
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
    let model = StorageModel {
        variability_sigma: 0.4 * rng.unit(),
        metadata_latency: 1e-4,
        seed: rng.range(0, 999),
        ..StorageModel::ideal(rng.range(1, 4) as usize, 1e7)
    };
    let programs: Vec<Program> = (0..tenants).map(|t| Program::draw(&mut rng, t)).collect();
    // One discarded draw per tenant, where each once drew a QoS policy:
    // it keeps the clone draw below, and so the pinned fleets, in place.
    for _ in 0..tenants {
        rng.next();
    }
    // A clone group leads a third of the fleets.
    let clones = if rng.range(0, 2) == 0 {
        rng.range(2, 3) as usize
    } else {
        1
    };
    let fabric = Fabric::new(model);
    let handles: Vec<(FabricHandle, Program)> = programs
        .iter()
        .enumerate()
        .map(|(t, &p)| {
            let h = if t == 0 && clones > 1 {
                let names: Vec<String> = (0..clones).map(|c| format!("g_t{c}")).collect();
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                fabric.tenant_clones(&names)
            } else {
                fabric.tenant(&format!("t{t}"))
            };
            (h, p)
        })
        .collect();
    let results = fabric.run(handles.into_iter().map(|(h, p)| p.drive(h)));
    writeln!(
        out,
        "burst_fleet {index:02} tenants={tenants} clones={clones} servers={} sigma={}",
        model.nservers,
        hex(model.variability_sigma),
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
    let fpp = |name: &str| oracle(name, BackendSpec::FilePerProcess);
    let deferred = |name: &str| oracle(name, BackendSpec::Deferred(1));
    let streamed = |name: &str| oracle(name, BackendSpec::parse("streaming:200").unwrap());

    let rows = run_campaign_fabric(&[fpp("a"), fpp("b"), fpp("c")], &storage, None);
    summary_lines("fpp", &rows, out);

    let rows = run_campaign_fabric(&[deferred("a"), fpp("b")], &storage, None);
    summary_lines("deferred", &rows, out);

    let rows = run_campaign_fabric(&[streamed("a"), streamed("b"), fpp("c")], &storage, None);
    summary_lines("streaming", &rows, out);

    let restart = |name: &str| CastroSedovConfig {
        scenario: Some(Scenario::write_restart()),
        ..fpp(name)
    };
    let rows = run_campaign_fabric(&[restart("hi"), restart("lo")], &storage, None);
    summary_lines("restart_pair", &rows, out);

    let rows = run_campaign_fabric(&[deferred("a"), deferred("b")], &storage, None);
    summary_lines("deferred_pair", &rows, out);

    let mixed = [
        fpp("a"),
        oracle("b", BackendSpec::Aggregated(2)),
        deferred("c"),
    ];
    let rows = run_campaign_fabric(&mixed, &storage, None);
    summary_lines("mixed", &rows, out);
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
