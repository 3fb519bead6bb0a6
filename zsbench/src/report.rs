//! What a run reports: metrics with units, layer breakdowns of the
//! end-to-end rows, per-phase request counts, and the environment stanza;
//! plus the statistics helpers the workloads share.

use serde_json::Value;

/// The `p`-th percentile (0–100) of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    zsdb_nn::percentile(values, p)
}

/// Median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Return the set-up's freed memory to the OS and restart the peak-RSS
/// mark, so that `peak_rss_mb` measures the timed phases.  Set-up memory
/// depends on the seed (a ground-truth query can materialize millions of
/// join rows) and would otherwise decide the peak.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only hands free heap pages back to
        // the OS; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to clear_refs resets VmHWM to the current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    let entry = obj(vec![("value", num(m.value)), ("unit", s(m.unit))]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// An end-to-end row split into layer parts plus the unattributed rest,
/// so that `Σ parts + unattributed = total` by construction.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub row: &'static str,
    pub unit: &'static str,
    pub total: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Breakdown {
    pub fn unattributed(&self) -> f64 {
        self.total - self.parts.iter().map(|(_, v)| v).sum::<f64>()
    }

    fn to_value(&self) -> Value {
        let parts = self
            .parts
            .iter()
            .map(|(name, v)| (name.to_string(), num(*v)))
            .collect();
        obj(vec![
            ("row", s(self.row)),
            ("unit", s(self.unit)),
            ("total", num(self.total)),
            ("parts", Value::Object(parts)),
            ("unattributed", num(self.unattributed())),
        ])
    }
}

/// Requests of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Self {
        Phase {
            name,
            ..Phase::default()
        }
    }

    pub fn add(&mut self, other: &Phase) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// Everything one run of a workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness violations; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Untraced end-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics from the traced phase (trace runs only).
    pub per_layer: Metrics,
    pub breakdowns: Vec<Breakdown>,
    pub phases: Vec<Phase>,
    /// Extra figures for the detail line (sample counts, sizes).
    pub details: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a correctness violation (the run then exits non-zero).
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Check a condition, recording `message` when it fails.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    /// Requests that failed, were refused or were answered wrongly.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>()
    }
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The run's environment: what the numbers were measured on.
pub fn environment(workload: &str, seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("workload", s(workload)),
        ("seed", Value::UInt(seed)),
        ("nproc", Value::UInt(nproc as u64)),
        ("kernel", s(zsdb_nn::active_kernel().name())),
        ("git_rev", s(&git_rev())),
        ("rustc", s(env!("ZSBENCH_RUSTC_VERSION"))),
    ])
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The detail line: environment, every metric, breakdowns and phases.
pub fn detail(outcome: &Outcome, env: Value, error_rate: f64) -> Value {
    let phases = outcome
        .phases
        .iter()
        .map(|p| {
            obj(vec![
                ("phase", s(p.name)),
                ("sent", Value::UInt(p.sent)),
                ("succeeded", Value::UInt(p.succeeded)),
                ("failed", Value::UInt(p.failed)),
            ])
        })
        .collect();
    let details = outcome
        .details
        .iter()
        .map(|(k, v)| (k.to_string(), num(*v)))
        .collect();
    obj(vec![
        ("environment", env),
        ("error_rate", num(error_rate)),
        ("end_to_end", outcome.end_to_end.to_value()),
        ("per_layer", outcome.per_layer.to_value()),
        (
            "breakdowns",
            Value::Array(outcome.breakdowns.iter().map(Breakdown::to_value).collect()),
        ),
        ("phases", Value::Array(phases)),
        ("details", Value::Object(details)),
        (
            "problems",
            Value::Array(outcome.problems.iter().map(|p| s(p)).collect()),
        ),
    ])
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> Value {
    obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics.to_value()),
    ])
}
