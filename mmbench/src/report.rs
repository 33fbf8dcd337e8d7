//! Metric values, percentiles and the result line.
//!
//! A metric is either a measured number or absent with a reason; an
//! absent metric never turns into `0`. The last line the benchmark prints
//! carries exactly the metrics `BENCHMARK.json` declares for the mode.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL: usize = 10;

/// End-to-end metrics (timed run, `--trace 0`): name and unit. Must match
/// the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("slots_per_s", "1/s"),
    ("step_us_mean", "us"),
    ("step_us_tail_mean", "us"),
    ("peak_rss_mb", "MB"),
    ("reliability", "fraction"),
    ("throughput_mbps", "Mbps"),
    ("success_rate", "fraction"),
];

/// Per-layer metrics (traced run, `--trace 1`): name and unit. Must match
/// the `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("baselines.tick.count", "count"),
    ("baselines.tick.s", "s"),
    ("baselines.tick.frac", "fraction"),
    ("phy.probe.count", "count"),
    ("phy.probe.s", "s"),
    ("phy.probe.us_p50", "us"),
    ("core.tick_self.s", "s"),
    ("core.tick_self.frac", "fraction"),
    ("sim.wall.s", "s"),
    ("sim.outside_tick.s", "s"),
    ("sim.outside_tick.ns_per_slot", "ns"),
    ("sim.unattributed.s", "s"),
    ("core.superres.us_k2", "us"),
    ("core.superres.us_k3", "us"),
    ("dsp.ridge.us_264x3", "us"),
    ("dsp.fft.us_264", "us"),
    ("dsp.sinc_dict.us_264x3", "us"),
    ("channel.csi.us_264", "us"),
    ("sim.true_snr.ns", "ns"),
    ("array.multibeam.us_64el", "us"),
    ("array.quantize.us_64el", "us"),
    ("sim.link.slots_per_s", "1/s"),
    ("sim.workers.seq_slots_per_s", "1/s"),
    ("sim.workers.scaling", "ratio"),
    ("sim.workers.efficiency", "ratio"),
    ("bench.trace_overhead.frac", "fraction"),
];

/// The metrics the result line carries in the given mode.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A measured number, or the reason there is none.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Measured.
    Num(f64),
    /// Not measured, and why.
    Absent(String),
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `s`, `us`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value.
    pub value: Value,
}

/// Every metric one run produced, declared or not, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric from a measurement that may have failed. A
    /// non-finite number is recorded as absent.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, v: Result<f64, String>) {
        let value = match v {
            Ok(x) if x.is_finite() => Value::Num(x),
            Ok(x) => Value::Absent(format!("not a finite number ({x})")),
            Err(reason) => Value::Absent(reason),
        };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records a measured number.
    pub fn num(&mut self, name: impl Into<String>, unit: &'static str, v: f64) {
        self.put(name, unit, Ok(v));
    }

    /// Records an absent metric.
    pub fn absent(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        reason: impl Into<String>,
    ) {
        self.put(name, unit, Err(reason.into()));
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The declared metrics, in declaration order. Fails when one is not
    /// recorded or carries another unit.
    pub fn select(&self, declared: &[(&str, &str)]) -> Result<Vec<&Metric>, String> {
        declared
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(m) if m.unit == unit => Ok(m),
                Some(m) => Err(format!("metric {name} has unit {} not {unit}", m.unit)),
                None => Err(format!("metric {name} was not recorded")),
            })
            .collect()
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| match &m.value {
                Value::Num(v) => format!("{:<32} {v} {}", m.name, m.unit),
                Value::Absent(r) => format!("{:<32} absent ({r})", m.name),
            })
            .collect()
    }
}

/// True for a valid metric name: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `label` made into a metric-name segment: lower case, with every run
/// of other characters than `[a-z0-9]` turned into one `-`.
pub fn name_segment(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// True for a valid unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    ((1.0 - p / 100.0) * n as f64).floor() as usize
}

/// The tail rule: `Ok` when at least [`MIN_TAIL`] of `n` samples lie
/// beyond percentile `p`, otherwise why the percentile is absent.
pub fn tail_check(n: usize, p: f64) -> Result<(), String> {
    let beyond = beyond(n, p);
    if beyond < MIN_TAIL {
        return Err(format!(
            "{n} samples leave {beyond} beyond p{p}, fewer than {MIN_TAIL}"
        ));
    }
    Ok(())
}

/// Nearest-rank percentile `p` (0–100) of `samples`; absent when fewer
/// than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    tail_check(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Ok(sorted[rank - 1])
}

/// Mean of the samples beyond percentile `p` (the slowest `100 − p` %),
/// under the same tail rule as [`percentile`].
pub fn tail_mean(samples: &[f64], p: f64) -> Result<f64, String> {
    tail_check(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = beyond(sorted.len(), p);
    Ok(sorted[sorted.len() - k..].iter().sum::<f64>() / k as f64)
}

/// Median of `samples` (no tail rule: the median of a handful of repeated
/// measurements is the reported value).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".to_string());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Ok(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// Arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".to_string());
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", mmwave_telemetry::json_escape(s))
}

/// One metric as the result line spells it. An absent metric keeps a
/// `null` value and says why.
pub fn metric_json(m: &Metric) -> String {
    match &m.value {
        Value::Num(v) => format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_string(&m.name),
            json_string(m.unit)
        ),
        Value::Absent(r) => format!(
            "{}: {{\"value\": null, \"unit\": {}, \"absent\": {}}}",
            json_string(&m.name),
            json_string(m.unit),
            json_string(r)
        ),
    }
}

/// The result line: `correct`, `attempted`, `failed` and the given
/// metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics.iter().map(|m| metric_json(m)).collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
