//! Results carry host metadata, and a comparison across differing
//! metadata is marked not comparable and prints no ratio.

use mmbench::host::{compare, parse_output, Meta};
use mmbench::report::Report;

/// A run's standard output as `mmbench` prints it: metadata, info and
/// metric lines, then the result line.
fn saved_output(meta: &Meta, slots_per_s: f64) -> String {
    let mut r = Report::default();
    r.num("slots_per_s", "1/s", slots_per_s);
    r.absent(
        "pass_us_p50",
        "us",
        "no fleet handler passes in this workload",
    );
    let mut lines = meta.lines();
    lines.push("info digest run: 0123456789abcdef".to_string());
    lines.extend(r.lines().iter().map(|l| format!("metric {l}")));
    lines.push("{\"correct\": true}".to_string());
    lines.join("\n")
}

fn meta_with(field: &str, value: &str) -> Meta {
    let mut m = Meta::collect("link-mmreliable", 7, 20, false);
    for (k, v) in &mut m.0 {
        if k == field {
            *v = value.to_string();
        }
    }
    m
}

#[test]
fn metadata_is_attached_to_every_result() {
    let m = Meta::collect("fleet-reactive", 3, 20, true);
    for field in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_rev",
        "profile",
        "features",
        "workload",
        "seed",
        "seconds",
        "trace",
    ] {
        assert!(m.get(field).is_some_and(|v| !v.is_empty()), "{field}");
    }
    assert_eq!(m.get("seed"), Some("3"));
    let (back, metrics) = parse_output(&saved_output(&m, 1.0));
    assert_eq!(back, m);
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["slots_per_s", "pass_us_p50"]);
    assert_eq!(metrics[0].1, "1 1/s");
}

#[test]
fn same_metadata_prints_a_ratio() {
    let m = meta_with("cpu_model", "test cpu");
    let text = compare(&saved_output(&m, 100.0), &saved_output(&m, 150.0)).expect("compare");
    assert!(!text.contains("not comparable"), "{text}");
    assert!(text.contains("b/a 1.5000"), "{text}");
    assert!(text.contains("absent (no fleet handler passes"), "{text}");
}

#[test]
fn differing_metadata_is_not_comparable_and_prints_no_ratio() {
    for (field, other) in [
        ("cpu_model", "other cpu"),
        ("nproc", "64"),
        ("seed", "8"),
        ("features", "telemetry"),
    ] {
        let a = meta_with("cpu_model", "test cpu");
        let mut b = a.clone();
        for (k, v) in &mut b.0 {
            if k == field {
                *v = other.to_string();
            }
        }
        let text = compare(&saved_output(&a, 100.0), &saved_output(&b, 150.0)).expect("compare");
        assert!(text.contains("not comparable"), "{field}: {text}");
        assert!(text.contains(field), "{field}: {text}");
        assert!(!text.contains("b/a"), "{field}: {text}");
    }
}

#[test]
fn a_different_revision_is_still_comparable() {
    let a = meta_with("cpu_model", "test cpu");
    let mut b = a.clone();
    for (k, v) in &mut b.0 {
        if k == "git_rev" {
            *v = "0123abcd".to_string();
        }
    }
    let text = compare(&saved_output(&a, 100.0), &saved_output(&b, 90.0)).expect("compare");
    assert!(text.contains("b/a 0.9000"), "{text}");
}
