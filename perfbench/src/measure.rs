//! Measurement plumbing shared by every workload: process CPU and memory
//! readings, host facts, and the result line each run prints.

use std::process::Command;
use std::time::Duration;

use ppuf_telemetry::SampleSeries;
use serde::Value;

/// Words of Linux's `struct rusage` on 64-bit targets: `ru_utime` and
/// `ru_stime` as (seconds, microseconds) pairs, then 14 `long`s starting
/// with `ru_maxrss` (KiB, index 4) and `ru_minflt` (index 8).
const RUSAGE_WORDS: usize = 18;

/// `who` for the calling process, all its threads, exited ones included.
const RUSAGE_SELF: i32 = 0;

// the word layout above holds only where `long` is 64 bits wide
const _: () = assert!(std::mem::size_of::<std::ffi::c_long>() == 8);

/// glibc `mallopt` parameters (`malloc.h`).
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// The largest mmap threshold glibc accepts on 64-bit targets
/// (`HEAP_MAX_SIZE / 2`).
const MMAP_THRESHOLD: i32 = 32 << 20;

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's allocator thresholds for the rest of the process: blocks
/// up to 32 MiB come from the heap rather than from their own mapping,
/// and freed heap memory is never returned to the kernel.
///
/// With glibc's dynamic defaults, each serving instance settled early at
/// one of a few page-fault levels (≈20 to ≈20 500 minor faults per n = 900
/// round, depending on whether the round's large buffers landed where a
/// free trims the heap) and kept it, moving its median round by up to
/// ≈45 %; see `README.md`. Call before any other thread starts.
///
/// # Errors
///
/// Returns a message when glibc refuses either setting.
pub fn fix_allocator_thresholds() -> Result<(), String> {
    for (name, param, value) in [
        ("M_MMAP_THRESHOLD", M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        ("M_TRIM_THRESHOLD", M_TRIM_THRESHOLD, i32::MAX),
    ] {
        // SAFETY: mallopt takes two ints and only changes allocator
        // parameters; no other thread is allocating yet.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({name}, {value}) failed"));
        }
    }
    Ok(())
}

/// This process's usage so far: CPU seconds (user + system, all threads,
/// exited ones included, to the microsecond), minor page faults, and
/// peak resident set in MiB; zeros if the call fails.
fn usage() -> (f64, f64, f64) {
    let mut words = [0i64; RUSAGE_WORDS];
    // SAFETY: `words` is as large as `struct rusage` (checked `long` width
    // above), and getrusage writes only into the struct it is given.
    if unsafe { getrusage(RUSAGE_SELF, words.as_mut_ptr()) } != 0 {
        return (0.0, 0.0, 0.0);
    }
    let seconds = |at: usize| words[at] as f64 + words[at + 1] as f64 * 1e-6;
    (seconds(0) + seconds(2), words[8] as f64, words[4] as f64 / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    usage().2
}

/// Wall time, CPU time and page faults read together, so a stretch of
/// work can be measured on all three or left out of a phase's totals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    wall: std::time::Instant,
    cpu_s: f64,
    minor_faults: f64,
}

impl Stamp {
    /// Reads the clocks and the fault counter now.
    pub(crate) fn now() -> Self {
        let (cpu_s, minor_faults, _) = usage();
        Stamp { wall: std::time::Instant::now(), cpu_s, minor_faults }
    }

    /// Wall time since this stamp.
    pub(crate) fn wall_elapsed(&self) -> Duration {
        self.wall.elapsed()
    }

    /// `(wall, cpu_s)` from this stamp to `later`.
    pub(crate) fn until(&self, later: &Stamp) -> (Duration, f64) {
        (later.wall.saturating_duration_since(self.wall), later.cpu_s - self.cpu_s)
    }

    /// Minor page faults from this stamp to `later`.
    pub(crate) fn faults_until(&self, later: &Stamp) -> f64 {
        later.minor_faults - self.minor_faults
    }
}

/// `values` as a sample series.
pub(crate) fn series(values: impl Iterator<Item = f64>) -> SampleSeries {
    let mut samples = SampleSeries::new();
    values.for_each(|value| samples.record(value));
    samples
}

/// The `q`-quantile of `samples` (nearest rank); 0 when there are none.
pub(crate) fn quantile(samples: &SampleSeries, q: f64) -> f64 {
    samples.quantile(q).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never enters).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one run measured and whether every output it checked was right.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations (rounds or solves) in the timed phases.
    pub attempted: u64,
    /// Of those, operations whose output check failed.
    pub failed: u64,
    /// Checks that failed outside any timed operation (warm-up rounds,
    /// device resets, layer replays), one line each.
    pub problems: Vec<String>,
    /// Measured values by metric name, in the order they were set.
    pub values: Vec<(&'static str, f64)>,
    /// Each timed round of an untraced serving run as `(position since
    /// the last device reset, milliseconds)`; kept in the run record, not
    /// in the result line.
    pub rounds: Vec<(usize, f64)>,
}

impl Outcome {
    /// Records (or overwrites) one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of a metric, if the run measured it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// True when no operation failed and no other check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being `names` (`(name, unit)`) in order.
    /// A name the run did not measure reads 0: its layer was not entered.
    pub fn result(&self, names: &[(&str, &str)]) -> Value {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.value(name).unwrap_or(0.0);
                let metric = map([("value", Value::Float(value)), ("unit", text(unit))]);
                (name.to_string(), metric)
            })
            .collect();
        map([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Map(metrics)),
        ])
    }

    /// The timed rounds as `[[position, ms], …]` for the run record.
    pub fn rounds_value(&self) -> Value {
        Value::Seq(
            self.rounds
                .iter()
                .map(|&(k, ms)| Value::Seq(vec![Value::UInt(k as u64), Value::Float(ms)]))
                .collect(),
        )
    }
}

/// A JSON object with `entries` in order.
pub fn map<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(entries.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
}

/// A JSON string.
pub fn text(value: &str) -> Value {
    Value::Str(value.to_string())
}

/// The facts a result depends on besides the code: the machine and the
/// toolchain, recorded with every run.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl HostFacts {
    /// Collects the facts; any that cannot be read reads `unknown`.
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|line| line.starts_with("model name"))
            .and_then(|line| line.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, model)| model.trim().to_string());
        HostFacts {
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The facts as a JSON object.
    pub fn value(&self) -> Value {
        map([
            ("cores", Value::UInt(self.cores as u64)),
            ("cpu_model", text(&self.cpu_model)),
            ("rustc", text(&self.rustc)),
            ("commit", text(&self.commit)),
        ])
    }
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails. `output` waits for the child to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::trim).map(str::to_string))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.set("setup_s", 2.0);
        outcome.set("latency_ms", 1.0);
        outcome.set("latency_ms", 1.25);
        let names = [("latency_ms", "ms"), ("setup_s", "s"), ("hits", "count")];
        let line = serde_json::to_string(&outcome.result(&names)).expect("serializes");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":2.0,\"unit\":\"s\"},\
             \"hits\":{\"value\":0.0,\"unit\":\"count\"}}}"
        );
        outcome.problems.push("warm-up round rejected".into());
        let line = serde_json::to_string(&outcome.result(&names)).expect("serializes");
        assert!(line.starts_with("{\"correct\":false"));
    }

    #[test]
    fn process_readings_are_live() {
        let before = Stamp::now();
        let spin: u64 = (0..2_000_000u64).fold(0, |a, b| a.wrapping_add(b * b));
        std::hint::black_box(spin);
        let touched = std::hint::black_box(vec![1u8; 8 << 20]);
        let after = Stamp::now();
        assert!(before.until(&after).1 > 0.0, "CPU time is read to the microsecond");
        assert!(before.faults_until(&after) > 0.0, "fresh pages fault");
        assert!(peak_rss_mb() >= 8.0, "{} MiB", peak_rss_mb());
        drop(touched);
    }
}
