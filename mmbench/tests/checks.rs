//! The benchmark's output checks: each holds on correct output, and a
//! broken output is counted as a failure (so it shows in `error_rate`).

use mmbench::campaign::{campaign, jobs, replay_journal, WorkDir};
use mmbench::fleet::fleet;
use mmbench::run::{single_run, Tally, Wrap};
use mmbench::wrap::{shared_log, take};
use mmwave_sim::campaign::STRATEGY_NAMES;

#[test]
fn wrapped_runs_are_bit_identical_for_every_strategy() {
    for (i, name) in STRATEGY_NAMES.iter().enumerate() {
        let sink = shared_log();
        let plain = single_run("static-walker", name, 11 + i as u64, &Wrap::Plain, None)
            .expect("plain run");
        let traced = single_run(
            "static-walker",
            name,
            11 + i as u64,
            &Wrap::Timed(true, sink.clone()),
            None,
        )
        .expect("traced run");
        assert_eq!(plain.digest(), traced.digest(), "{name}");
        let log = take(&sink);
        assert!(!log.tick_ns.is_empty(), "{name}: ticks were timed");
        assert_eq!(log.by_strategy.len(), 1, "{name}");
    }
}

#[test]
fn fleet_digest_does_not_depend_on_workers() {
    let mut t = Tally::default();
    let (one, _) = fleet(3, 4, 1, &mut t).expect("fleet on 1 worker");
    let (two, _) = fleet(3, 4, 2, &mut t).expect("fleet on 2 workers");
    assert_eq!(one.digest, two.digest);
    assert_eq!(
        (t.attempted, t.failed),
        (8, 0),
        "each member is one operation"
    );
}

#[test]
fn journal_lines_replay_and_a_tampered_line_counts_as_failed() {
    let dir = WorkDir::new().expect("work dir");
    let cheap: Vec<_> = jobs(4, &Wrap::Timed(false, shared_log()))
        .expect("valid cells")
        .into_iter()
        .filter(|j| j.key.strategy != "mmreliable")
        .step_by(4)
        .collect();
    let journal = dir.journal("cells");
    let mut t = Tally::default();
    let unit = campaign(&cheap, 2, journal.clone(), &mut t);
    assert_eq!(unit.digests.len(), cheap.len());
    assert_eq!((t.attempted, t.failed), (cheap.len() as u64, 0));

    let ok = replay_journal(&journal, &mut t);
    assert!(ok >= 1);
    assert_eq!(t.failed, 0, "{:?}", t.failures);

    // Corrupt the first line's digest: its replay must now fail.
    let text = std::fs::read_to_string(&journal).expect("journal");
    let first = text.lines().next().expect("one line");
    let digest = mmwave_telemetry::field_raw(first, "digest").expect("digest field");
    let tampered = text.replacen(digest, "\"0000000000000001\"", 1);
    assert_ne!(tampered, text);
    std::fs::write(&journal, tampered).expect("rewrite journal");
    let mut t = Tally::default();
    replay_journal(&journal, &mut t);
    assert_eq!(t.failed, 1, "{:?}", t.failures);
}

#[test]
fn a_failed_check_counts_as_a_failure() {
    let mut t = Tally::default();
    assert!(t.same_digest("same", 7, 7));
    assert!(!t.same_digest("different", 7, 8));
    assert!(!t.op("run", Err("panicked".to_string())));
    assert_eq!((t.attempted, t.failed), (3, 2));
    assert_eq!(t.failures.len(), 2);
}
