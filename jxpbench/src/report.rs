//! What one run reports: metrics with units, correctness gates, the
//! operation tally, and the host and build it ran on.

use crate::trace::{Tracer, LAYERS, UNATTRIBUTED};
use std::fmt::Write as _;
use std::time::Instant;

/// One run's result, printed as the final line of standard output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A correctness gate: when `ok` is false the run is marked
    /// incorrect and `what` is printed to standard error.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Per-layer self time and share of the traced wall time, the
    /// unexplained remainder, and the tracing overhead.
    pub fn layer_breakdown(&mut self, tracer: &Tracer, wall_s: f64, untraced_s: f64) {
        let by_layer = tracer.self_time_by_layer();
        let mut attributed = 0.0;
        for layer in LAYERS {
            let s = by_layer.get(layer).copied().unwrap_or(0.0);
            attributed += s;
            self.metric(format!("self_s.{layer}"), s, "s");
            self.metric(format!("self_share.{layer}"), s / wall_s, "ratio");
        }
        let glue = by_layer.get(UNATTRIBUTED).copied().unwrap_or(0.0);
        self.metric("trace.unexplained_s", (wall_s - attributed).max(0.0), "s");
        self.metric(
            "trace.unexplained_share",
            (1.0 - attributed / wall_s).max(0.0),
            "ratio",
        );
        self.metric("trace.glue_s", glue, "s");
        self.metric("trace.wall_s", wall_s, "s");
        self.metric("trace.overhead", wall_s / untraced_s - 1.0, "ratio");
        self.metric("trace.spans", tracer.len() as f64, "count");
    }

    /// Add every name in `names` that the workload did not report, as
    /// zero: layers a workload never calls show a zero share.
    pub fn fill_missing(&mut self, names: &[(&str, &'static str)]) {
        for &(name, unit) in names {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.metric(name, 0.0, unit);
            }
        }
    }

    /// Keep only the metrics named in `names`, in that order.
    pub fn select(&mut self, names: &[(&str, &'static str)]) {
        let mut kept = Vec::with_capacity(names.len());
        for &(name, _) in names {
            if let Some(m) = self.metrics.iter().find(|(n, _, _)| n == name) {
                kept.push(m.clone());
            }
        }
        self.metrics = kept;
    }

    /// The human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become a large sentinel).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Run `rep` (given its index) at least twice, then again while the
/// next repetition, at the mean length so far, still ends within
/// `seconds` of the start.
pub fn repeat<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep(out.len()));
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / out.len() as f64;
        if out.len() >= 2 && elapsed + mean > seconds {
            return out;
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn max_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat` (zeros where
/// it cannot be read).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// FNV-1a over score bit patterns, the digest the workspace's own
/// benches use for bit-identity checks.
pub fn fnv(h: &mut u64, scores: &[f64]) {
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Host and build facts printed with every run. `work_dir` holds the
/// run's files (segments, the reference cluster's state directory).
pub fn provenance(workload: &str, seed: u64, trace: bool, work_dir: &std::path::Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // `--git-dir` keeps git from searching directories above this one.
    let rev = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"cores\": {cores}, \"cpu\": \"{}\", \"git_rev\": \"{rev}\", \"profile\": \"{profile}\", \
         \"work_dir_fs\": \"{}\", \"measured_state_store\": \"memory (jxp_store::MemStore)\", \
         \"fsync_measured\": false}}",
        cpu.replace('"', "'"),
        fs_type(work_dir),
    )
}

/// File-system type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mounts`).
pub fn fs_type(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(ty)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() >= *len) {
            best = Some((mnt.len(), ty.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}
