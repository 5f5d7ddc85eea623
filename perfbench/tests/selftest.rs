//! Reduced-size runs of every workload: every metric `BENCHMARK.json`
//! names is reported with its unit, answers check out, and an answer
//! corrupted on purpose counts as a failed request.

use obs::json::{parse, Value};
use perfbench::{run, workload, Outcome, RunConfig};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in section `key` of `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    benchmark()
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reduced(name: &str, trace: bool) -> RunConfig {
    let w = workload::by_name(name).expect("workload");
    let mut cfg = RunConfig::new(w, 7, 0.2, trace);
    cfg.db_size = 60;
    cfg.setup_reps = 2;
    cfg.workload.open_min = 20;
    cfg.workload.pool = w.pool.min(30);
    cfg.workload.closed_requests = 40;
    cfg.workload.open_rate = 200.0;
    cfg.workload.idle_writes = w.idle_writes.min(4);
    cfg
}

/// Every listed metric is reported, with the listed unit, and the result
/// line is one JSON object with exactly the four keys.
fn assert_reports(out: &Outcome, key: &str) {
    for (name, unit) in listed(key) {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{key} metric {name} not reported"));
        assert_eq!(m.unit, unit, "unit of {name}");
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    assert_eq!(
        out.metrics.len(),
        listed(key).len(),
        "only the {key} metrics"
    );
    let line = parse(&out.json()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
}

#[test]
fn every_gated_workload_is_one_the_program_runs() {
    let names = benchmark()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect::<Vec<_>>();
    assert!(!names.is_empty());
    for name in names {
        assert!(workload::by_name(&name).is_some(), "{name}");
    }
}

#[test]
fn untraced_runs_report_end_to_end_metrics_and_check_answers() {
    for w in workload::WORKLOADS.iter() {
        let out = run(&reduced(w.name, false)).expect("run");
        assert_reports(&out, "end_to_end");
        assert!(out.correct, "{}: {:?}", w.name, out.notes);
        assert_eq!(out.failed, 0, "{}", w.name);
        assert!(out.attempted > 40, "{}", w.name);
    }
}

#[test]
fn traced_runs_report_per_layer_metrics_and_match_the_engine() {
    for w in workload::WORKLOADS.iter() {
        let out = run(&reduced(w.name, true)).expect("run");
        assert_reports(&out, "per_layer");
        assert!(out.correct, "{}: {:?}", w.name, out.notes);
        let applies = out.get("maint.applies").expect("maint.applies");
        assert_eq!(
            applies > 0.0,
            w.write_every > 0,
            "{}: writes only on churn",
            w.name
        );
    }
}

#[test]
fn a_corrupted_answer_counts_in_the_error_rate() {
    let mut cfg = reduced("small_q", false);
    cfg.corrupt_answer = true;
    let out = run(&cfg).expect("run");
    assert!(!out.correct);
    assert_eq!(out.failed, 1);
    assert!(out.error_rate() > 0.0);
    assert!(out.json().contains("\"correct\": false"));
}
