//! The traced run's spans and the per-layer table built from them.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the replay of a served request, see
//! `replay`), kept in memory and written out when the run ends. A layer
//! is the crate a span's name starts with (`csp.count` → `csp`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use htd_core::Json;

use crate::stats::quantile;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request the span belongs to.
    pub request: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, in microseconds since the run's epoch.
    pub start_us: f64,
    /// End, in microseconds since the run's epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder. Each client thread owns one.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// Everything recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose times count from `epoch`; ids start at `first_id`
    /// so that recorders of different threads never collide.
    pub fn new(epoch: Instant, first_id: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: us(start),
            end_us: us(end),
        });
        id
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(request, Some(parent), name, start, Instant::now());
        out
    }
}

/// Layers in table order; `service` and `unattributed` are derived.
pub const LAYERS: [&str; 9] = [
    "query",
    "hypergraph",
    "search",
    "setcover",
    "core",
    "csp",
    "service",
    "check",
    "unattributed",
];

/// Where one traced request's client latency went.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Client latency, send to full response.
    pub latency_ms: f64,
    /// Self time per layer, including `service` and `unattributed`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans per layer.
    pub calls: BTreeMap<&'static str, u64>,
}

impl Attribution {
    /// Splits a served request's latency. `server_ms` is the handling
    /// time the server reports (admission to response, queue wait
    /// included) and `queue_ms` the part spent queued. The replayed layer
    /// spans account for the server's handling time; the service layer
    /// takes the transport and protocol time (`latency − server_ms`) plus
    /// the queue wait; what the replay does not explain is unattributed.
    pub fn new(latency_ms: f64, server_ms: f64, queue_ms: f64, spans: &[Span]) -> Attribution {
        let mut a = Attribution {
            latency_ms,
            ..Attribution::default()
        };
        let mut replayed = 0.0;
        for s in spans {
            let layer = s.layer();
            // the request and replay spans frame the layer calls
            if layer == "replay" || layer == "request" {
                continue;
            }
            *a.layers.entry(layer).or_default() += s.ms();
            *a.calls.entry(layer).or_default() += 1;
            replayed += s.ms();
        }
        *a.layers.entry("service").or_default() += (latency_ms - server_ms).max(0.0) + queue_ms;
        *a.calls.entry("service").or_default() += 1;
        a.layers.insert(
            "unattributed",
            server_ms.min(latency_ms) - queue_ms - replayed,
        );
        a
    }
}

/// The per-layer table of a workload's traced requests: each layer's total self
/// time, span count, mean per request, and share of the median request
/// (the mean over requests whose latency lies between the 40th and 60th
/// percentiles, divided by their mean latency).
pub fn layer_table(workload: &str, rows: &[&Attribution], setup: &[(&'static str, f64)]) -> String {
    let mut out = String::new();
    let n = rows.len();
    let _ = writeln!(out, "# {workload} traced requests: {n}");
    if n == 0 {
        return out;
    }
    let lat: Vec<f64> = rows.iter().map(|r| r.latency_ms).collect();
    let (lo, hi) = (quantile(&lat, 0.4), quantile(&lat, 0.6));
    let band: Vec<&&Attribution> = rows
        .iter()
        .filter(|r| r.latency_ms >= lo && r.latency_ms <= hi)
        .collect();
    let band_lat = band.iter().map(|r| r.latency_ms).sum::<f64>() / band.len().max(1) as f64;
    let _ = writeln!(
        out,
        "{:<13} {:>12} {:>8} {:>12} {:>14}",
        "layer", "self_ms", "count", "mean_ms/req", "share_median"
    );
    for layer in LAYERS {
        let total: f64 = rows
            .iter()
            .map(|r| r.layers.get(layer).copied().unwrap_or(0.0))
            .sum();
        let calls: u64 = rows
            .iter()
            .map(|r| r.calls.get(layer).copied().unwrap_or(0))
            .sum();
        let band_mean = band
            .iter()
            .map(|r| r.layers.get(layer).copied().unwrap_or(0.0))
            .sum::<f64>()
            / band.len().max(1) as f64;
        let _ = writeln!(
            out,
            "{:<13} {:>12.3} {:>8} {:>12.4} {:>13.1}%",
            layer,
            total,
            calls,
            total / n as f64,
            100.0 * band_mean / band_lat
        );
    }
    for (name, ms) in setup {
        let _ = writeln!(out, "setup: {name} {ms:.3} ms");
    }
    out
}

/// The layer with the largest total self time among `rows`.
pub fn dominant_layer(rows: &[&Attribution]) -> &'static str {
    LAYERS
        .iter()
        .filter(|&&l| l != "unattributed")
        .map(|&l| {
            (
                l,
                rows.iter()
                    .map(|r| r.layers.get(l).copied().unwrap_or(0.0))
                    .sum::<f64>(),
            )
        })
        .fold(
            ("none", 0.0),
            |best, (l, t)| if t > best.1 { (l, t) } else { best },
        )
        .0
}

/// Spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let span = Json::Obj(vec![
            ("id".into(), Json::Num(s.id as f64)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("request".into(), Json::Num(s.request as f64)),
            ("name".into(), Json::Str(s.name.into())),
            ("start_us".into(), Json::Num(s.start_us)),
            ("end_us".into(), Json::Num(s.end_us)),
        ]);
        let _ = writeln!(out, "{span}");
    }
    out
}
