//! Metric names and units, and the result line.
//!
//! The two lists below are the benchmark's schema: `BENCHMARK.json`
//! names the same metrics in the same order, and the smoke test checks
//! that every run emits exactly these names.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("train_s", "s"),
    m("read_qps", "1/s"),
    m("read_p50_us", "us"),
    m("read_p99_us", "us"),
    m("update_p50_ms", "ms"),
    m("update_p95_ms", "ms"),
    m("ok_frac", "fraction"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    m("synthetic-data.generate_s", "s"),
    m("motif-finder.grow_s", "s"),
    m("motif-finder.grow_classes", "count"),
    m("motif-finder.uniqueness_s", "s"),
    m("motif-finder.uniqueness_kept", "count"),
    m("core.label_mf_s", "s"),
    m("core.label_bp_s", "s"),
    m("core.label_cc_s", "s"),
    m("core.labeled_motifs", "count"),
    m("core.sv_plane_bytes", "bytes"),
    m("go-ontology.st_plane_bytes", "bytes"),
    m("lamo-serve.artifact_build_s", "s"),
    m("lamo-serve.artifact_bytes", "bytes"),
    m("function-prediction.postings", "count"),
    m("function-prediction.predict_p50_us", "us"),
    m("function-prediction.predict_p99_us", "us"),
    m("function-prediction.postings_per_query_p99", "count"),
    m("lamo-serve.served_p50_us.postings_lt16", "us"),
    m("lamo-serve.served_p50_us.postings_lt256", "us"),
    m("lamo-serve.served_p50_us.postings_lt4096", "us"),
    m("lamo-serve.served_p50_us.postings_ge4096", "us"),
    m("lamo-serve.queries.postings_lt16", "count"),
    m("lamo-serve.queries.postings_lt256", "count"),
    m("lamo-serve.queries.postings_lt4096", "count"),
    m("lamo-serve.queries.postings_ge4096", "count"),
    m("lamo-serve.hop_p50_us", "us"),
    m("lamo-serve.answered", "count"),
    m("lamo-serve.shed", "count"),
    m("lamo-serve.open_loop_p50_us", "us"),
    m("lamo-serve.open_loop_p99_us", "us"),
    m("bench.generator_late_p99_us", "us"),
    m("lamo-serve.live_read_p50_us", "us"),
    m("lamo-serve.live_read_p99_us", "us"),
    m("lamo-serve.store_publish_ms", "ms"),
    m("lamo-serve.store_publish_q1_ms", "ms"),
    m("lamo-serve.store_publish_q4_ms", "ms"),
    m("lamo-serve.write_artifact_ms", "ms"),
    m("lamo-serve.swap_ms", "ms"),
    m("lamo-serve.store_recover_ms", "ms"),
    m("lamo-serve.store_generations", "count"),
    m("lamo-serve.drifted_windows", "count"),
    m("lamo-serve.rebuild_identical", "bool"),
    m("lamo-serve.apply_delta_1e_ms", "ms"),
    m("lamo-serve.apply_delta_4e_ms", "ms"),
    m("lamo-serve.apply_delta_16e_ms", "ms"),
    m("lamo-serve.apply_delta_64e_ms", "ms"),
    m("ppi-graph.delta_edges", "count"),
    m("motif-finder.census_dirty_roots", "count"),
    m("motif-finder.census_inserted", "count"),
    m("motif-finder.census_retracted", "count"),
    m("core.labels_relabeled", "count"),
    m("function-prediction.segments_rebuilt", "count"),
    m("par-util.serve_ticks", "count"),
    m("par-util.train_ticks", "count"),
    m("synthetic-data.self_s", "s"),
    m("ppi-graph.self_s", "s"),
    m("go-ontology.self_s", "s"),
    m("motif-finder.self_s", "s"),
    m("core.self_s", "s"),
    m("function-prediction.self_s", "s"),
    m("lamo-serve.self_s", "s"),
    m("bench.self_s", "s"),
    m("trace.spans", "count"),
    m("trace.train_coverage", "fraction"),
    m("trace.overhead_pct.setup_s", "%"),
    m("trace.overhead_pct.train_s", "%"),
    m("trace.overhead_pct.read_qps", "%"),
    m("trace.overhead_pct.read_p50_us", "%"),
    m("trace.overhead_pct.read_p99_us", "%"),
    m("trace.overhead_pct.update_p50_ms", "%"),
    m("trace.overhead_pct.update_p95_ms", "%"),
];

/// Values keyed by metric name.
#[derive(Default, Debug, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in `specs` order, with
    /// every value printed at full precision.
    pub fn render(&self, specs: &[MetricSpec]) -> String {
        let body = specs
            .iter()
            .filter_map(|s| {
                let v = self.values.get(s.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name,
                    number(*v),
                    s.unit
                ))
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }
}

/// A JSON number; non-finite values (never expected) print as 0 so the
/// line stays valid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}
