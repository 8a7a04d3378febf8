//! Backend selection: a small, serializable spec that CLIs and campaign
//! configs carry, turned into a live backend at run time.

use crate::aggregated::Aggregated;
use crate::backend::IoBackend;
use crate::codec::CodecSpec;
use crate::deferred::Deferred;
use crate::stage::CompressionStage;
use crate::streaming::Streaming;
use crate::FilePerProcess;
use iosim::{IoTracker, Vfs};
use mpi_sim::NetworkModel;
use serde::{Deserialize, Serialize};

/// Parameters of the in-transit [`Streaming`] backend, in integer units
/// so the spec stays `Copy + Eq` and spells the same on every CLI.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamSpec {
    /// Link bandwidth in MB/s (decimal, 1e6 bytes). Default is one
    /// Summit EDR InfiniBand port (12,500 MB/s).
    pub link_mbps: u32,
    /// Consumer window capacity in MiB; `0` = unbounded.
    pub window_mib: u32,
    /// Consumer drain rate in MB/s; `0` = the consumer always keeps up.
    pub consumer_mbps: u32,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            link_mbps: 12_500,
            window_mib: 0,
            consumer_mbps: 0,
        }
    }
}

impl StreamSpec {
    /// The per-transfer link latency every streamed spec models (one
    /// NIC setup, ~10 µs); not a spec axis — sweeps vary bandwidth.
    pub(crate) const LINK_LATENCY: f64 = 1e-5;

    /// The modeled link this spec names.
    pub fn network(&self) -> NetworkModel {
        NetworkModel::new(self.link_mbps as f64 * 1e6, Self::LINK_LATENCY)
    }

    /// Window capacity in bytes (`None` = unbounded).
    pub(crate) fn window_bytes(&self) -> Option<u64> {
        (self.window_mib > 0).then_some(self.window_mib as u64 * (1 << 20))
    }

    /// Consumer drain rate in bytes/s (`None` = keeps up).
    pub(crate) fn consumer_rate(&self) -> Option<f64> {
        (self.consumer_mbps > 0).then_some(self.consumer_mbps as f64 * 1e6)
    }
}

/// Which I/O backend a run writes through.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// N-to-N: one physical file per logical path.
    #[default]
    FilePerProcess,
    /// BP-style two-level aggregation with the given ratio (producer
    /// tasks per aggregator subfile).
    Aggregated(usize),
    /// Burst-buffer staging. The count is part of the cell's name
    /// (`deferred:<w>` in run labels and content keys) and changes no
    /// simulated number: the drain is priced by `iosim`, not run by
    /// host threads.
    Deferred(usize),
    /// In-transit streaming over a modeled interconnect link: steps
    /// ship to consumers instead of storage, analysis reads are served
    /// from the consumer window.
    Streaming(StreamSpec),
}

impl BackendSpec {
    /// Parses a CLI spelling:
    /// `fpp` | `agg:<ratio>` | `aggregated:<ratio>` |
    /// `deferred[:<workers>]` |
    /// `streaming[:<link_mbps>[:<window_mib>[:<consumer_mbps>]]]`
    /// (window `0` = unbounded, consumer `0` = keeps up).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match head {
            "fpp" | "file_per_process" | "n-to-n" => match arg {
                None => Ok(BackendSpec::FilePerProcess),
                Some(a) => Err(format!("backend 'fpp' takes no argument, got '{a}'")),
            },
            "agg" | "aggregated" => {
                let ratio = match arg {
                    None => 4,
                    Some(a) => a
                        .parse::<usize>()
                        .map_err(|_| format!("bad aggregation ratio '{a}'"))?,
                };
                if ratio == 0 {
                    return Err("aggregation ratio must be positive".to_string());
                }
                Ok(BackendSpec::Aggregated(ratio))
            }
            "deferred" | "bb" | "burst_buffer" => {
                let workers = match arg {
                    None => 1,
                    Some(a) => a
                        .parse::<usize>()
                        .map_err(|_| format!("bad worker count '{a}'"))?,
                };
                if workers == 0 {
                    return Err("deferred worker count must be positive".to_string());
                }
                Ok(BackendSpec::Deferred(workers))
            }
            "streaming" | "stream" | "sst" => {
                let mut spec = StreamSpec::default();
                if let Some(rest) = arg {
                    let mut parts = rest.split(':');
                    let fields: [(&str, &mut u32); 3] = [
                        ("link bandwidth", &mut spec.link_mbps),
                        ("window size", &mut spec.window_mib),
                        ("consumer rate", &mut spec.consumer_mbps),
                    ];
                    for (what, slot) in fields {
                        let Some(p) = parts.next() else { break };
                        *slot = p
                            .parse::<u32>()
                            .map_err(|_| format!("bad streaming {what} '{p}'"))?;
                    }
                    if let Some(extra) = parts.next() {
                        return Err(format!("extra streaming argument '{extra}'"));
                    }
                }
                if spec.link_mbps == 0 {
                    return Err("streaming link bandwidth must be positive".to_string());
                }
                Ok(BackendSpec::Streaming(spec))
            }
            other => Err(format!(
                "unknown io backend '{other}' (expected fpp, agg:<ratio>, \
                 deferred[:<workers>], or streaming[:<mbps>[:<window_mib>[:<consumer_mbps>]]])"
            )),
        }
    }

    /// The canonical CLI spelling.
    pub fn name(&self) -> String {
        match self {
            BackendSpec::FilePerProcess => "fpp".to_string(),
            BackendSpec::Aggregated(r) => format!("agg:{r}"),
            BackendSpec::Deferred(w) => format!("deferred:{w}"),
            BackendSpec::Streaming(s) => {
                if *s == StreamSpec::default() {
                    "streaming".to_string()
                } else if s.consumer_mbps != 0 {
                    format!(
                        "streaming:{}:{}:{}",
                        s.link_mbps, s.window_mib, s.consumer_mbps
                    )
                } else if s.window_mib != 0 {
                    format!("streaming:{}:{}", s.link_mbps, s.window_mib)
                } else {
                    format!("streaming:{}", s.link_mbps)
                }
            }
        }
    }

    /// True when this backend ships steps over the interconnect instead
    /// of through storage (see [`crate::IoBackend::in_transit`]).
    pub fn in_transit(&self) -> bool {
        matches!(self, BackendSpec::Streaming(_))
    }

    /// Builds the live backend over borrowed filesystem and tracker
    /// handles.
    pub fn build<'a>(&self, vfs: &'a dyn Vfs, tracker: &'a IoTracker) -> Box<dyn IoBackend + 'a> {
        match *self {
            BackendSpec::FilePerProcess => Box::new(FilePerProcess::new(vfs, tracker)),
            BackendSpec::Aggregated(ratio) => Box::new(Aggregated::new(vfs, tracker, ratio)),
            BackendSpec::Deferred(_) => Box::new(Deferred::new(vfs, tracker)),
            BackendSpec::Streaming(s) => Box::new(Streaming::new(
                tracker,
                s.network(),
                s.window_bytes(),
                s.consumer_rate(),
            )),
        }
    }

    /// Builds the live backend with a compression stage in front of it —
    /// the full backend × codec write stack of a campaign scenario. The
    /// identity codec adds no stage at all, so default-codec runs keep the
    /// exact pre-compression write path (no sidecar, no wrapper).
    pub fn build_with_codec<'a>(
        &self,
        codec: CodecSpec,
        vfs: &'a dyn Vfs,
        tracker: &'a IoTracker,
    ) -> Box<dyn IoBackend + 'a> {
        if codec.is_identity() {
            return self.build(vfs, tracker);
        }
        let inner = self.build(vfs, tracker);
        Box::new(CompressionStage::new(inner, codec.build(), vfs))
    }
}

// Hand-written serde: the spec round-trips as its CLI spelling, so
// configs stay readable and variant payloads never leak a format of
// their own (mirrors `ReadSelection` and `macsio::FileMode`).
impl Serialize for BackendSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name())
    }
}

impl Deserialize for BackendSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected an io-backend string"))?;
        BackendSpec::parse(s).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spellings() {
        assert_eq!(
            BackendSpec::parse("fpp").unwrap(),
            BackendSpec::FilePerProcess
        );
        assert_eq!(
            BackendSpec::parse("agg:16").unwrap(),
            BackendSpec::Aggregated(16)
        );
        assert_eq!(
            BackendSpec::parse("agg").unwrap(),
            BackendSpec::Aggregated(4)
        );
        assert_eq!(
            BackendSpec::parse("deferred").unwrap(),
            BackendSpec::Deferred(1)
        );
        assert_eq!(
            BackendSpec::parse("deferred:3").unwrap(),
            BackendSpec::Deferred(3)
        );
        assert_eq!(
            BackendSpec::parse("streaming").unwrap(),
            BackendSpec::Streaming(StreamSpec::default())
        );
        assert_eq!(
            BackendSpec::parse("stream").unwrap(),
            BackendSpec::Streaming(StreamSpec::default())
        );
        assert_eq!(
            BackendSpec::parse("streaming:800:64:100").unwrap(),
            BackendSpec::Streaming(StreamSpec {
                link_mbps: 800,
                window_mib: 64,
                consumer_mbps: 100,
            })
        );
        assert_eq!(
            BackendSpec::parse("streaming:800").unwrap(),
            BackendSpec::Streaming(StreamSpec {
                link_mbps: 800,
                ..StreamSpec::default()
            })
        );
        assert!(BackendSpec::parse("agg:0").is_err());
        assert!(BackendSpec::parse("silo").is_err());
        assert!(BackendSpec::parse("fpp:2").is_err());
        assert!(BackendSpec::parse("streaming:0").is_err(), "dead link");
        assert!(BackendSpec::parse("streaming:1:2:3:4").is_err(), "extra");
        assert!(BackendSpec::parse("streaming:fast").is_err());
    }

    #[test]
    fn name_round_trips() {
        for spec in [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(7),
            BackendSpec::Deferred(2),
            BackendSpec::Streaming(StreamSpec::default()),
            BackendSpec::Streaming(StreamSpec {
                link_mbps: 800,
                window_mib: 0,
                consumer_mbps: 0,
            }),
            BackendSpec::Streaming(StreamSpec {
                link_mbps: 800,
                window_mib: 64,
                consumer_mbps: 0,
            }),
            BackendSpec::Streaming(StreamSpec {
                link_mbps: 800,
                window_mib: 64,
                consumer_mbps: 100,
            }),
        ] {
            assert_eq!(BackendSpec::parse(&spec.name()).unwrap(), spec);
        }
    }

    #[test]
    fn only_streaming_is_in_transit() {
        assert!(!BackendSpec::FilePerProcess.in_transit());
        assert!(!BackendSpec::Aggregated(4).in_transit());
        assert!(!BackendSpec::Deferred(1).in_transit());
        assert!(BackendSpec::Streaming(StreamSpec::default()).in_transit());
    }

    #[test]
    fn serde_round_trip_is_portable() {
        use serde::{Deserialize as _, Serialize as _};
        for spec in [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(16),
            BackendSpec::Deferred(2),
            BackendSpec::Streaming(StreamSpec {
                link_mbps: 1200,
                window_mib: 256,
                consumer_mbps: 0,
            }),
        ] {
            let v = spec.to_value();
            assert_eq!(v.as_str(), Some(spec.name().as_str()));
            assert_eq!(BackendSpec::from_value(&v).unwrap(), spec);
        }
    }

    #[test]
    fn stream_spec_units_convert() {
        let s = StreamSpec {
            link_mbps: 100,
            window_mib: 8,
            consumer_mbps: 10,
        };
        assert_eq!(s.network().link_bandwidth, 1e8);
        assert_eq!(s.window_bytes(), Some(8 << 20));
        assert_eq!(s.consumer_rate(), Some(1e7));
        let d = StreamSpec::default();
        assert_eq!(d.window_bytes(), None, "unbounded by default");
        assert_eq!(d.consumer_rate(), None, "keeps up by default");
    }
}
