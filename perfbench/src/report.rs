//! Host facts, process memory, and the metric lines the benchmark prints.

use std::path::{Path, PathBuf};

use serde_json::{json, Map, Value};

use crate::stats::Tail;

/// The stage cache's entry capacity (`DEFAULT_CAPACITY` in the corpus
/// pipeline), restated for the report header.
pub const STAGE_CACHE_CAPACITY: usize = 32_768;

/// Where runs leave their report, span and WAL files, relative to the
/// directory the benchmark is started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest matching mount point wins).
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// Free-form qualifier, e.g. the tail percentile.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    /// A tail metric, noted with its percentile and the samples beyond it.
    pub fn tail(name: impl Into<String>, t: Tail, unit: &'static str) -> Metric {
        Metric::new(name, t.value, unit, t.n).note(format!("p{} ({} beyond)", t.pct, t.beyond))
    }

    pub fn line(&self) -> String {
        let mut s = format!(
            "metric {:<36} {:>14.4} {:<6} n={}",
            self.name, self.value, self.unit, self.samples
        );
        if !self.note.is_empty() {
            s.push_str("  ");
            s.push_str(&self.note);
        }
        s
    }

    fn detail(&self) -> Value {
        json!({
            "value": (self.value),
            "unit": (self.unit),
            "samples": (self.samples),
            "note": (self.note.as_str()),
        })
    }
}

/// The result line's `metrics` object: `{name: {value, unit}}`.
pub fn metrics_object(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        map.insert(
            m.name.clone(),
            json!({"value": (m.value), "unit": (m.unit)}),
        );
    }
    Value::Object(map)
}

/// The full report: the header facts plus every metric with its sample
/// count and qualifier.
pub fn report_json(header: &Value, reported: &[Metric], detail: &[Metric]) -> Value {
    let mut rep = Map::new();
    let mut det = Map::new();
    for m in reported {
        rep.insert(m.name.clone(), m.detail());
    }
    for m in detail {
        det.insert(m.name.clone(), m.detail());
    }
    json!({
        "header": (header.clone()),
        "metrics": (Value::Object(rep)),
        "detail": (Value::Object(det)),
    })
}
