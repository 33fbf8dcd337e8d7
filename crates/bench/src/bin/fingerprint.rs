//! Prints a bitwise fingerprint of fixed-seed runs — a refactor guardrail.
//!
//! Hashes every sample's `(t_s, dur_s, snr_db)` bit pattern plus the probe
//! counters for one seeded run per strategy on `static_walker`, played
//! through the scenario's front-end stack (`Scenario::front_end`) as every
//! runner plays it. Two builds that print the same fingerprints produce
//! bit-identical `RunResult`s.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_sim::{run_front_end, scenario};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

fn main() {
    for name in ["single-beam reactive", "mmReliable"] {
        let mut s: Box<dyn BeamStrategy> = match name {
            "single-beam reactive" => Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
            _ => Box::new(MmReliableStrategy::new(MmReliableController::new(
                MmReliableConfig::paper_default(),
            ))),
        };
        let sc = scenario::static_walker();
        let mut fe = sc.front_end(42).expect("library scenario builds");
        let r = run_front_end(
            &mut fe,
            s.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        let mut h = 0xcbf29ce484222325u64;
        for smp in &r.samples {
            fnv1a(&mut h, &smp.t_s.to_bits().to_le_bytes());
            fnv1a(&mut h, &smp.dur_s.to_bits().to_le_bytes());
            fnv1a(&mut h, &smp.snr_db.to_bits().to_le_bytes());
            fnv1a(&mut h, &[smp.probing as u8]);
        }
        fnv1a(&mut h, &(r.probes as u64).to_le_bytes());
        fnv1a(&mut h, &r.probe_airtime_s.to_bits().to_le_bytes());
        println!("{name}: {} samples, fingerprint {h:016x}", r.samples.len());
    }
}
