//! Host and build metadata attached to every result, and the comparison
//! rule built on it: two results are compared only when the fields that
//! change what a number means agree. A comparison across differing
//! metadata is reported as not comparable and never prints a ratio.

/// Fields that must agree for two results to be comparable. The git
/// revision is recorded but left out: comparing two revisions of the
/// code on the same host and inputs is what a comparison is for.
pub const COMPARABLE: &[&str] = &[
    "nproc",
    "cpu_model",
    "rustc",
    "profile",
    "features",
    "workload",
    "seed",
    "seconds",
    "trace",
];

/// Marks a metadata value that could not be read.
const ABSENT: &str = "absent: ";

/// The metadata of one run, as ordered `(field, value)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Meta(pub Vec<(String, String)>);

impl Meta {
    /// Collects the host and build metadata for a run.
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let features = mmwave_sim::campaign::compiled_features();
        let fields = [
            ("nproc", nproc.to_string()),
            ("cpu_model", cpu_model()),
            ("rustc", env!("MMBENCH_RUSTC").to_string()),
            ("git_rev", git_rev()),
            (
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
            (
                "features",
                if features.is_empty() {
                    "none".to_string()
                } else {
                    features
                },
            ),
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("trace", u8::from(trace).to_string()),
        ];
        Self(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The lines a run prints for its metadata: `meta <field>: <value>`.
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(k, v)| format!("meta {k}: {v}"))
            .collect()
    }

    /// The value of `field`.
    pub fn get(&self, field: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v.as_str())
    }

    /// `Ok` when `self` and `other` may be compared; otherwise every
    /// differing [`COMPARABLE`] field with both values.
    pub fn comparable(&self, other: &Meta) -> Result<(), Vec<String>> {
        let diffs: Vec<String> = COMPARABLE
            .iter()
            .filter_map(|&f| {
                let (a, b) = (self.get(f), other.get(f));
                (a != b || a.is_none_or(|v| v.starts_with(ABSENT)))
                    .then(|| format!("{f}: {:?} vs {:?}", a, b))
            })
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs)
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| format!("{ABSENT}no model name in /proc/cpuinfo"))
}

/// The checked-out revision, read from `.git` in the working directory
/// (loose or packed ref); absent outside a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return format!("{ABSENT}not a git checkout");
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(rev, _)| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("{ABSENT}{reference} not found"))
}

/// A saved run's standard output read back: the metadata from its
/// `meta <field>: <value>` lines and, in order, each metric's name with
/// the rest of its `metric` line (`<value> <unit>` or `absent (<reason>)`).
pub fn parse_output(stdout: &str) -> (Meta, Vec<(String, String)>) {
    let mut meta = Vec::new();
    let mut metrics = Vec::new();
    for line in stdout.lines() {
        if let Some((k, v)) = line.strip_prefix("meta ").and_then(|l| l.split_once(": ")) {
            meta.push((k.to_string(), v.to_string()));
        } else if let Some((name, rest)) =
            line.strip_prefix("metric ").and_then(|l| l.split_once(' '))
        {
            metrics.push((name.to_string(), rest.trim_start().to_string()));
        }
    }
    (Meta(meta), metrics)
}

/// Compares two saved runs metric by metric. Prints `b / a` ratios only
/// when the metadata make the runs comparable.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let (ma, la) = parse_output(a);
    let (mb, lb) = parse_output(b);
    if la.is_empty() || lb.is_empty() {
        return Err("an input holds no metric lines".to_string());
    }
    let verdict = ma.comparable(&mb);
    let mut out = Vec::new();
    out.push(format!(
        "a: git_rev {}  b: git_rev {}",
        ma.get("git_rev").unwrap_or("?"),
        mb.get("git_rev").unwrap_or("?")
    ));
    if let Err(diffs) = &verdict {
        out.push("not comparable, no ratios printed:".to_string());
        out.extend(diffs.iter().map(|d| format!("  {d}")));
    }
    let number = |v: &str| v.split_once(' ').and_then(|(x, _)| x.parse::<f64>().ok());
    for (name, va) in &la {
        let vb = lb
            .iter()
            .find(|(n, _)| n == name)
            .map_or("missing", |(_, v)| v.as_str());
        let ratio = match (&verdict, number(va), number(vb)) {
            (Ok(()), Some(x), Some(y)) if x != 0.0 => format!("  b/a {:.4}", y / x),
            _ => String::new(),
        };
        out.push(format!("{name:<32} {va} -> {vb}{ratio}"));
    }
    Ok(out.join("\n"))
}
