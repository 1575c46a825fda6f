//! What a workload hands back, and the metric catalogue: every metric is
//! declared once here, with its unit.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("weight_vs_bk", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). A metric with no samples on a
/// workload (a layer it does not cross, or no decided race on `scale`)
/// reports 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("serve.http_ms", "ms"),
    ("serve.server_hit_ms", "ms"),
    ("serve.server_cold_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.coalesced", "count"),
    ("serve.journal_appends", "count"),
    ("fingerprint.us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("validate.us", "us"),
    ("instance.build_ms", "ms"),
    ("instance.vars", "count"),
    ("instance.clauses", "count"),
    ("sat.load_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("descent.sat_ms", "ms"),
    ("descent.unsat_ms", "ms"),
    ("descent.unsat_share", "ratio"),
    ("descent.steps", "count"),
    ("race.pre_ms", "ms"),
    ("race.post_ms", "ms"),
    ("race.wasted_frac", "ratio"),
    ("race.useful_import_frac", "ratio"),
    ("shard.first_lane_ms", "ms"),
    ("shard.coord_ms", "ms"),
    ("shard.bridge_clauses", "count"),
    ("shard.dead", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// One measured value with the number of samples behind it and a note
/// (e.g. which percentile a tail is).
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle failures: wrong weights or invalid encodings.
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, samples: usize, note: String) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(
            name,
            Measured {
                value,
                samples,
                note,
            },
        );
    }

    /// Median of `values` under `name`; nothing is set when empty.
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        if !values.is_empty() {
            self.set(name, crate::stats::median(values), values.len());
        }
    }

    /// Sets a latency pair: the median under `p50` and the tail under
    /// `tail`, noting the tail's percentile.
    pub fn set_latency(&mut self, p50: &'static str, tail: &'static str, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        self.set_median(p50, values);
        let t = crate::stats::tail(values);
        self.set_noted(
            tail,
            t.value,
            values.len(),
            format!("p{} ({} beyond)", t.percentile, t.beyond),
        );
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
