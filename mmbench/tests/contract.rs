//! The result line's contract: the declared metric sets match
//! `BENCHMARK.json`, names and units are well formed, exactly the declared
//! set is printed, and an absent metric is shown as absent, never as 0.

use mmbench::fleet::{pass_tail_us, pass_us};
use mmbench::report::{
    declared, metric_json, name_segment, percentile, result_line, tail_mean, valid_name,
    valid_unit, Report, Value, END_TO_END, PER_LAYER,
};
use mmwave_telemetry::{field_raw, validate_json_line, LatencyHist};

/// `(name, unit)` of every entry of the `section` array of
/// `BENCHMARK.json`.
fn benchmark_json(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let flat: String = text.lines().map(str::trim).collect();
    validate_json_line(&flat).expect("BENCHMARK.json is valid JSON");
    let array = field_raw(&flat, section).expect("section present");
    array
        .split('{')
        .skip(1)
        .map(|entry| {
            let obj = format!("{{{}", entry.trim_end_matches([',', ']', ' ']));
            let get = |k: &str| {
                mmwave_telemetry::field_str(&obj, k).unwrap_or_else(|| panic!("{k} in {obj}"))
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn owned(set: &[(&str, &str)]) -> Vec<(String, String)> {
    set.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_sets_match_benchmark_json() {
    assert_eq!(benchmark_json("end_to_end"), owned(END_TO_END));
    assert_eq!(benchmark_json("per_layer"), owned(PER_LAYER));
    assert_eq!(declared(false), END_TO_END);
    assert_eq!(declared(true), PER_LAYER);
}

#[test]
fn declared_names_and_units_are_well_formed() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );
}

#[test]
fn name_rules() {
    assert!(valid_name("core.tick_self.frac"));
    assert!(valid_name("sim.true_snr.ns"));
    assert!(!valid_name(""));
    assert!(!valid_name(".leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert_eq!(name_segment("single-beam reactive"), "single-beam-reactive");
    assert_eq!(name_segment("5G NR periodic"), "5g-nr-periodic");
    assert!(valid_name(&format!(
        "baselines.tick.s.{}",
        name_segment("mmReliable")
    )));
    assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
}

/// A report holding every declared metric of both modes plus extras, as a
/// run records them.
fn full_report() -> Report {
    let mut r = Report::default();
    for (i, (name, unit)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
        r.num(*name, unit, 1.5 + i as f64);
    }
    r.num("tick_us_p50", "us", 3.0);
    r.absent(
        "pass_us_p50",
        "us",
        "no fleet handler passes in this workload",
    );
    r
}

#[test]
fn printed_set_equals_declared_set() {
    let r = full_report();
    for trace in [false, true] {
        let want = declared(trace);
        let selected = r.select(want).expect("all declared metrics recorded");
        let line = result_line(true, 3, 0, &selected);
        validate_json_line(&line).expect("result line is valid JSON");
        let metrics = field_raw(&line, "metrics").expect("metrics object");
        let printed: Vec<&str> = want
            .iter()
            .filter(|(n, _)| metrics.contains(&format!("\"{n}\": {{")))
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(printed.len(), want.len());
        assert_eq!(
            metrics.matches("\"unit\"").count(),
            want.len(),
            "no extra metric printed"
        );
        for (name, unit) in want {
            assert!(metrics.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(metrics.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(!metrics.contains("tick_us_p50") && !metrics.contains("pass_us_p50"));
    }
    for key in ["correct", "attempted", "failed", "metrics"] {
        let line = result_line(true, 3, 0, &r.select(END_TO_END).unwrap());
        assert!(field_raw(&line, key).is_some(), "{key}");
    }
}

#[test]
fn missing_or_mistyped_declared_metric_is_an_error() {
    let mut r = Report::default();
    r.num("setup_s", "ms", 1.0);
    let err = r.select(END_TO_END).unwrap_err();
    assert!(err.contains("setup_s"), "{err}");
    let err = Report::default().select(PER_LAYER).unwrap_err();
    assert!(err.contains("not recorded"), "{err}");
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Ok(500.0));
    assert_eq!(percentile(&xs, 99.0), Ok(990.0));
    assert!(
        percentile(&xs[..999], 99.0).is_err(),
        "999 samples leave 9 beyond p99"
    );
    assert!(
        percentile(&xs[..19], 50.0).is_err(),
        "19 samples leave 9 beyond p50"
    );
    assert!(percentile(&[], 50.0).is_err());
}

#[test]
fn tail_mean_is_the_mean_beyond_the_percentile_under_the_tail_rule() {
    let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(tail_mean(&xs, 99.0), Ok(995.5), "mean of 991..=1000");
    assert_eq!(tail_mean(&xs, 98.0), Ok(990.5), "mean of 981..=1000");
    assert!(
        tail_mean(&xs[..999], 99.0).is_err(),
        "999 samples leave 9 beyond p99"
    );
    assert!(tail_mean(&[], 99.0).is_err());
}

#[test]
fn pass_tail_mean_stays_within_the_tail_buckets_and_follows_the_tail_rule() {
    let mut h = LatencyHist::new();
    let passes: Vec<u64> = (1000..3000u64).map(|v| v * 37).collect();
    for &v in &passes {
        h.record(v);
    }
    let exact = passes[passes.len() - 20..].iter().sum::<u64>() as f64 / 20.0 * 1e-3;
    let got = pass_tail_us(&h, 99.0).expect("2000 passes leave 20 beyond p99");
    // A bucket is at most 12.5 % wide, so its midpoint is within 6.25 %.
    assert!((got / exact - 1.0).abs() <= 0.0625, "{got} vs {exact}");
    assert!(got <= h.max_ns() as f64 * 1e-3);
    let mut small = LatencyHist::new();
    for &v in &passes[..200] {
        small.record(v);
    }
    let err = pass_tail_us(&small, 99.0).expect_err("200 passes leave 2 beyond p99");
    assert!(err.contains("beyond p99"), "{err}");
}

#[test]
fn absent_metric_is_shown_as_absent_never_zero() {
    let mut r = Report::default();
    r.put("step_us_tail_mean", "us", tail_mean(&[5.0; 50], 99.0));
    r.put("slots_per_s", "1/s", Ok(f64::NAN));
    r.absent(
        "pass_us_p50",
        "us",
        "no fleet handler passes in this workload",
    );
    for m in &r.metrics {
        let Value::Absent(reason) = &m.value else {
            panic!("{} should be absent", m.name);
        };
        assert!(!reason.is_empty());
        let json = metric_json(m);
        assert!(
            json.contains("\"value\": null") && json.contains("\"absent\": "),
            "{json}"
        );
        assert!(!json.contains("\"value\": 0"), "{json}");
    }
    let lines = r.lines();
    assert!(lines
        .iter()
        .all(|l| l.split_whitespace().nth(1) == Some("absent")));
    assert!(lines[0].contains("beyond p99"), "{}", lines[0]);
}

#[test]
fn pass_percentile_is_the_histograms_own_and_follows_the_tail_rule() {
    let mut h = LatencyHist::new();
    for v in 1000..1200u64 {
        h.record(v * 37);
    }
    for p in [50.0, 90.0] {
        assert_eq!(pass_us(&h, p), Ok(h.percentile_ns(p) as f64 * 1e-3), "p{p}");
    }
    let err = pass_us(&h, 99.0).expect_err("200 samples leave 2 beyond p99");
    assert!(err.contains("beyond p99"), "{err}");
}
