//! The metrics the benchmark prints: their names, units, and the sink
//! that checks every declared metric is reported exactly once.

use crate::json;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Cost centers reported per layer: every center with at least 1 % of
/// handler self time on some workload.
pub const CENTERS: [(&str, &str); 16] = [
    ("brokering", "submit"),
    ("brokering", "retry_place"),
    ("brokering", "campaign_outcome"),
    ("staging", "stage_out_done"),
    ("staging", "stage_in_done"),
    ("staging", "begin_stage_out"),
    ("staging", "entrada_round"),
    ("staging", "demo_transfer_done"),
    ("execution", "try_dispatch"),
    ("execution", "execution_ends"),
    ("reporting", "monitor_tick"),
    ("reporting", "job_finished"),
    ("reporting", "credit_transfer"),
    ("fault", "incident"),
    ("fault", "job_outcome"),
    ("fault", "disk_cleanup"),
];

/// Per-layer metrics other than the per-center ones, printed by traced
/// runs (`--trace 1`).
const LAYERS: [(&str, &str); 48] = [
    ("queue.events", "count"),
    ("queue.pending_max", "count"),
    ("queue.pending_mean", "count"),
    ("assembly.s", "s"),
    ("assembly.sites", "count"),
    ("loop.s", "s"),
    ("loop.ns_per_event", "ns"),
    ("loop.slice_ms.p50", "ms"),
    ("loop.slice_ms.p99", "ms"),
    ("loop.slice_ms.tail", "ms"),
    ("loop.slice_ms.tail_pct", "%"),
    ("loop.slices", "count"),
    ("loop.residual_s", "s"),
    ("subsys.self_s", "s"),
    ("subsys.events", "count"),
    ("subsys.fanout", "count"),
    ("subsys.other.share_pct", "%"),
    ("broker.select_ns", "ns"),
    ("broker.refresh_us", "us"),
    ("report.extract_ms", "ms"),
    ("report.to_json_ms", "ms"),
    ("report.json_bytes", "bytes"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.encode_mb_per_s", "MB/s"),
    ("snapshot.decode_mb_per_s", "MB/s"),
    ("campaign.runs", "count"),
    ("campaign.replayed", "count"),
    ("campaign.warm_started", "count"),
    ("campaign.failures", "count"),
    ("campaign.checkpoint_overhead", "ratio"),
    ("wal.append_ms", "ms"),
    ("wal.bytes", "bytes"),
    ("dsl.load_ms", "ms"),
    ("dsl.files", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.baseline_spread_pct", "%"),
    ("trace.baseline_repeats", "count"),
    ("balance.wall_gap_pct", "%"),
    ("balance.events_gap", "count"),
    ("bench.repeats", "count"),
    ("bench.setup_samples", "count"),
    ("failed_frac", "ratio"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (sub, ev) in CENTERS {
        out.push((format!("subsys.{sub}.{ev}.events"), "count"));
        out.push((format!("subsys.{sub}.{ev}.ns_per_event"), "ns"));
        out.push((format!("subsys.{sub}.{ev}.share_pct"), "%"));
    }
    out
}

/// Collected values, checked against the declared set when rendered.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "metric {name} reported twice"
        );
        self.values.push((name, value));
    }

    /// Report `value` unless the metric is already set (layers a
    /// workload never touches are reported as zero work this way).
    pub fn set_default(&mut self, name: &str, value: f64) {
        if self.values.iter().all(|(n, _)| n != name) {
            self.values.push((name.to_string(), value));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line, over exactly `declared`.
    pub fn render(&self, declared: &[(String, &'static str)]) -> String {
        for (name, _) in &self.values {
            assert!(
                declared.iter().any(|(d, _)| d == name),
                "metric {name} is not declared"
            );
        }
        json::object(declared.iter().map(|(name, unit)| {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("declared metric {name} was not measured"));
            (
                name.as_str(),
                json::object([("value", json::number(value)), ("unit", json::string(unit))]),
            )
        }))
    }
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        assert_eq!(
            declared_in_benchmark_json("end_to_end"),
            owned(end_to_end())
        );
        assert_eq!(declared_in_benchmark_json("per_layer"), owned(per_layer()));
    }

    #[test]
    fn rendering_requires_every_declared_metric_once() {
        let declared = vec![("a".to_string(), "s"), ("b".to_string(), "count")];
        let mut m = Metrics::default();
        m.set("a", 0.5);
        m.set_default("b", 0.0);
        m.set_default("a", 9.0);
        assert_eq!(
            m.render(&declared),
            "{\"a\":{\"value\":0.5,\"unit\":\"s\"},\"b\":{\"value\":0,\"unit\":\"count\"}}"
        );
        let missing = std::panic::catch_unwind(|| Metrics::default().render(&declared));
        assert!(missing.is_err());
    }
}
