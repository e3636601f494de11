//! Smoke-size runs of every workload through the untraced and the traced
//! path, and the agreement between `BENCHMARK.json` and the catalogue.

use mswj_perfbench::bench::{execute, Args, Outcome};
use mswj_perfbench::json::Json;
use mswj_perfbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use mswj_perfbench::workload::{self, Scale};

fn smoke(name: &str, trace: bool) -> Outcome {
    let args = Args {
        workload: name.to_owned(),
        seed: 3,
        seconds: 1,
        trace,
    };
    execute(&args, Scale::Smoke)
}

fn assert_reports(outcome: &Outcome, catalogue: &[MetricDef]) {
    let problems = Json::parse(&outcome.detail_line()).unwrap();
    assert!(
        outcome.correct,
        "{}",
        problems.get("problems").unwrap().render()
    );
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 2);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    let line = Json::parse(&outcome.result_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in workload::all() {
        let outcome = smoke(w.name, false);
        assert_reports(&outcome, END_TO_END);
        for name in ["throughput_eps", "recall", "setup_s"] {
            assert!(value(&outcome, name) > 0.0, "{}: {name}", w.name);
        }
    }
}

#[test]
fn every_workload_replays_exactly_when_traced() {
    for w in workload::all() {
        let outcome = smoke(w.name, true);
        assert_reports(&outcome, PER_LAYER);
        let arrivals = value(&outcome, "join.in_order") + value(&outcome, "join.out_of_order");
        assert!(arrivals > 0.0);
        assert!(value(&outcome, "adaptation.calls") > 0.0, "{}", w.name);
        assert!(value(&outcome, "trace.overhead_share") > 0.0, "{}", w.name);
        assert!(value(&outcome, "loadgen.ingest_p50_ms") > 0.0, "{}", w.name);
        let remote = value(&outcome, "transport.frames_sent") > 0.0;
        assert_eq!(remote, w.name == "dx2-remote-x5", "{}", w.name);
        let scans = value(&outcome, "join.fallback_probes") > 0.0;
        assert_eq!(scans, w.name == "dx2-remote-x5", "{}", w.name);
        let pooled = value(&outcome, "engine.busy_ms") > 0.0;
        assert_eq!(pooled, w.name != "dx3-paper", "{}", w.name);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let spec = Json::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let catalogued = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = match d.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalogued(END_TO_END));
    assert_eq!(listed("per_layer"), catalogued(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let defined: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
    assert_eq!(workloads, defined);
    for m in spec.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}
