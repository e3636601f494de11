//! The metric catalogue — every name, unit and direction the benchmark
//! reports — and the per-layer figures derived from a traced pass.

use crate::run::Quality;
use crate::trace::TracedPass;

/// Whether a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `BENCHMARK.json` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("throughput_eps", "1/s", Higher),
    def("recall", "ratio", Higher),
    def("setup_s", "s", Lower),
];

/// Per-layer metrics, reported by every traced run.  Each name is
/// `<module>.<metric>`; `*_ms` spans are totals over one pass.
pub const PER_LAYER: &[MetricDef] = &[
    def("statistics.observe_ms", "ms", Lower),
    def("kslack.push_ms", "ms", Lower),
    def("kslack.buffered_max", "count", Lower),
    def("kslack.k_changes", "count", Lower),
    def("kslack.avg_k_ms", "ms", Lower),
    def("synchronizer.push_ms", "ms", Lower),
    def("synchronizer.buffered_max", "count", Lower),
    def("profiler.record_ms", "ms", Lower),
    def("result_monitor.ms", "ms", Lower),
    def("adaptation.calls", "count", Lower),
    def("adaptation.ms", "ms", Lower),
    def("adaptation.call_p50_us", "us", Lower),
    def("adaptation.call_p90_us", "us", Lower),
    def("adaptation.steps", "count", Lower),
    def("adaptation.ns_per_step", "ns", Lower),
    def("adaptation.program_ms", "ms", Lower),
    def("adaptation.phi_gamma_pct", "%", Higher),
    def("engine.stage_ms", "ms", Lower),
    def("engine.flush_calls", "count", Lower),
    def("engine.flush_ms", "ms", Lower),
    def("engine.sync_calls", "count", Lower),
    def("engine.sync_ms", "ms", Lower),
    def("engine.epochs", "count", Lower),
    def("engine.max_queue_depth", "count", Lower),
    def("engine.routed", "count", Lower),
    def("engine.busy_ms", "ms", Lower),
    def("engine.busy_share", "ratio", Lower),
    def("join.in_order", "count", Higher),
    def("join.out_of_order", "count", Lower),
    def("join.dropped", "count", Lower),
    def("join.indexed_probes", "count", Higher),
    def("join.fallback_probes", "count", Lower),
    def("join.indexed_share", "ratio", Higher),
    def("join.results", "count", Higher),
    def("join.cross_results", "count", Lower),
    def("join.selectivity", "ratio", Higher),
    def("join.expired", "count", Lower),
    def("join.window_bytes_max", "bytes", Lower),
    def("join.window_segments_max", "count", Lower),
    def("transport.frames_sent", "count", Lower),
    def("transport.frames_received", "count", Lower),
    def("transport.bytes_sent", "bytes", Lower),
    def("transport.bytes_received", "bytes", Lower),
    def("transport.bytes_per_arrival", "bytes", Lower),
    def("transport.epoch_rtt_ms", "ms", Lower),
    def("transport.wire_ms", "ms", Lower),
    def("transport.reconnects", "count", Lower),
    def("sink.events", "count", Lower),
    def("sink.results", "count", Higher),
    def("sink.ms", "ms", Lower),
    def("loadgen.ingest_p50_ms", "ms", Lower),
    def("loadgen.ingest_p99_ms", "ms", Lower),
    def("loadgen.ingest_p999_ms", "ms", Lower),
    def("loadgen.lag_p99_ms", "ms", Lower),
    def("trace.wall_ms", "ms", Lower),
    def("trace.overhead_share", "ratio", Lower),
];

/// Whether `name` fits the output grammar: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    matches!(bytes.next(), Some(b) if b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Whether `name` is a per-layer name: `<module>.<metric>`, both parts
/// non-empty and free of further dots.
pub fn valid_layer_name(name: &str) -> bool {
    valid_name(name)
        && matches!(name.split_once('.'), Some((module, metric))
            if !module.is_empty() && !metric.is_empty() && !metric.contains('.'))
}

/// Whether `unit` fits the output grammar.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer figures of one traced pass, in [`PER_LAYER`] order
/// except `loadgen.lag_p99_ms` and `trace.overhead_share`, which come from
/// other passes and are added by the caller.
pub fn layer_values(
    traced: &TracedPass,
    quality: &Quality,
    arrivals: u64,
) -> Vec<(&'static str, f64)> {
    let l = &traced.layers;
    let op = &traced.fingerprint.operator;
    let rt = traced.shard_stats.iter().map(|s| s.runtime);
    let sum = |f: fn(&mswj_core::ShardRuntimeStats) -> u64| -> f64 {
        rt.clone().map(|r| f(&r)).sum::<u64>() as f64
    };
    let epochs = sum(|r| r.epochs_executed);
    let busy_ns = sum(|r| r.busy_nanos);
    let rtt_ns = sum(|r| r.epoch_rtt_nanos);
    let wall_ms = traced.wall.as_secs_f64() * 1e3;
    let remote_epochs = if rtt_ns > 0.0 { epochs } else { 0.0 };
    let mut calls = l.adapt_call_nanos.clone();
    calls.sort_unstable();
    let adapt_pct = |p: f64| {
        if calls.is_empty() {
            0.0
        } else {
            crate::stats::percentile_sorted(&calls, p) as f64 / 1e3
        }
    };
    let probes = (op.indexed_probes + op.fallback_probes) as f64;
    vec![
        ("statistics.observe_ms", l.observe.ms()),
        ("kslack.push_ms", l.kslack.ms()),
        ("kslack.buffered_max", l.kslack_buffered_max as f64),
        ("kslack.k_changes", l.k_changes as f64),
        ("kslack.avg_k_ms", quality.avg_k_ms),
        ("synchronizer.push_ms", l.synchronizer.ms()),
        (
            "synchronizer.buffered_max",
            l.synchronizer_buffered_max as f64,
        ),
        ("profiler.record_ms", l.profiler.ms()),
        ("result_monitor.ms", l.monitor.ms()),
        ("adaptation.calls", l.adaptation.calls as f64),
        ("adaptation.ms", l.adaptation.ms()),
        ("adaptation.call_p50_us", adapt_pct(0.5)),
        ("adaptation.call_p90_us", adapt_pct(0.9)),
        ("adaptation.steps", l.adapt_steps as f64),
        (
            "adaptation.ns_per_step",
            ratio(l.adaptation.nanos as f64, l.adapt_steps as f64),
        ),
        ("adaptation.program_ms", l.adapt_program_nanos as f64 / 1e6),
        ("adaptation.phi_gamma_pct", quality.phi_gamma_pct),
        ("engine.stage_ms", l.stage.ms()),
        ("engine.flush_calls", l.flush.calls as f64),
        ("engine.flush_ms", l.flush.ms()),
        ("engine.sync_calls", l.sync.calls as f64),
        ("engine.sync_ms", l.sync.ms()),
        ("engine.epochs", epochs),
        (
            "engine.max_queue_depth",
            rt.clone().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        ),
        ("engine.routed", sum(|r| r.routed)),
        ("engine.busy_ms", busy_ns / 1e6),
        ("engine.busy_share", ratio(busy_ns / 1e6, wall_ms)),
        ("join.in_order", op.in_order as f64),
        ("join.out_of_order", op.out_of_order as f64),
        ("join.dropped", op.dropped as f64),
        ("join.indexed_probes", op.indexed_probes as f64),
        ("join.fallback_probes", op.fallback_probes as f64),
        (
            "join.indexed_share",
            ratio(op.indexed_probes as f64, probes),
        ),
        ("join.results", op.results as f64),
        ("join.cross_results", op.cross_results as f64),
        (
            "join.selectivity",
            ratio(op.results as f64, op.cross_results as f64),
        ),
        ("join.expired", op.expired as f64),
        ("join.window_bytes_max", l.window_bytes_max as f64),
        ("join.window_segments_max", l.window_segments_max as f64),
        ("transport.frames_sent", sum(|r| r.frames_sent)),
        ("transport.frames_received", sum(|r| r.frames_received)),
        ("transport.bytes_sent", sum(|r| r.bytes_sent)),
        ("transport.bytes_received", sum(|r| r.bytes_received)),
        (
            "transport.bytes_per_arrival",
            ratio(
                sum(|r| r.bytes_sent) + sum(|r| r.bytes_received),
                arrivals as f64,
            ),
        ),
        ("transport.epoch_rtt_ms", ratio(rtt_ns / 1e6, remote_epochs)),
        (
            "transport.wire_ms",
            if rtt_ns > 0.0 {
                (rtt_ns - busy_ns).max(0.0) / 1e6
            } else {
                0.0
            },
        ),
        ("transport.reconnects", sum(|r| r.reconnects)),
        ("sink.events", traced.sink.events as f64),
        ("sink.results", traced.sink.results as f64),
        ("sink.ms", l.sink.ms()),
        ("trace.wall_ms", wall_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_unit_fits_the_grammar() {
        for d in END_TO_END {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(
                !d.name.contains('.'),
                "end-to-end names are flat: {}",
                d.name
            );
            assert!(valid_unit(d.unit), "{}", d.unit);
        }
        for d in PER_LAYER {
            assert!(valid_layer_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "names are unique");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn grammar_rejects_malformed_names() {
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_layer_name("flat"));
        assert!(!valid_layer_name("a..b"));
        assert!(!valid_layer_name("a.b.c"));
        assert!(!valid_layer_name(".b"));
        assert!(valid_layer_name("join.in_order"));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(""));
        assert!(valid_unit("1/s"));
    }
}
