//! Pieces every workload shares: the session shape, set-up timing, the
//! wall clock, and the reported metric record.

use std::fmt::Display;
use std::time::Instant;

use unicaim_attention::DEFAULT_PAGE_ROWS;
use unicaim_core::{ArrayConfig, EngineConfig, UniCaimEngine};
use unicaim_kvcache::{PolicySpec, Precision, PrefixRegistry, ServeConfig, SimConfig};

use crate::stats::{median, Accounting, Quantile, Timeline};

/// Fallible benchmark step; the message ends the run without a result.
pub type Res<T> = Result<T, String>;

/// Converts a library error into the benchmark's error message.
pub fn fail(e: impl Display) -> String {
    e.to_string()
}

/// Grace period after the last request is due (or the closed loop's
/// window closes) before unfinished work counts as failed.
pub const DRAIN_GRACE_S: f64 = 5.0;

/// What one timed window produced, whatever the workload.
pub struct Window {
    /// Wall-clock life of every retired request (in a closed loop, of
    /// every finished sequence, due at its start).
    pub timelines: Vec<Timeline>,
    /// Outcome counts.
    pub accounting: Accounting,
    /// Output tokens of retired requests.
    pub tokens: usize,
    /// Seconds from the first due time to the last token.
    pub wall_s: f64,
    /// Open loop: lateness of each submission against its due time.
    /// Closed loop: the client's gap between sequences. Milliseconds.
    pub lag_ms: Vec<f64>,
    /// Peak resident memory (`VmHWM`) of the window, reset when it
    /// opened, KiB.
    pub peak_rss_kib: f64,
    /// Percentile the TTFT and TPOT p99 columns hold: 99 in an open loop;
    /// lower in a closed loop, which finishes too few sequences for a p99.
    pub tail_percentile: f64,
}

/// Per-sequence cache shape of a workload: one session's slot share, its
/// reserved decode slots (`M`), the dynamic top-`k`, and the key-arena
/// precision. Every layer replay and the hardware model run at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Slots per session (`H + M`).
    pub share: usize,
    /// Reserved decode slots.
    pub m: usize,
    /// Dynamic top-k width.
    pub k: usize,
    /// Key-arena precision.
    pub precision: Precision,
    /// Rows per page of the workload's prefix registry; `None` when its
    /// admissions bypass the prefix cache.
    pub page_rows: Option<usize>,
}

impl Shape {
    /// The session configuration of one sequence.
    #[must_use]
    pub fn session_config(&self) -> SimConfig {
        SimConfig::reserved_decode_slots(self.share, self.k, self.m).with_precision(self.precision)
    }

    /// The paper's hybrid policy sized for the share.
    #[must_use]
    pub fn spec(&self) -> PolicySpec {
        PolicySpec::hybrid_for_share(self.share, self.m, self.k)
    }

    /// A serving core of 8 concurrent sessions at this shape (default
    /// sequential scheduler, 16-deep tenant queues).
    #[must_use]
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::new(8 * self.share, self.share, self.k)
            .with_reserved_decode_slots(self.m)
            .with_precision(self.precision)
    }

    /// A fresh prefix registry with the workload's page geometry (the
    /// default geometry when the workload has no registry).
    ///
    /// # Errors
    ///
    /// Registry configuration errors.
    pub fn registry(&self, dim: usize, max_pages: usize) -> Res<PrefixRegistry> {
        PrefixRegistry::with_shape(dim, self.page_rows.unwrap_or(DEFAULT_PAGE_ROWS), max_pages)
            .map_err(fail)
    }

    /// The hardware engine at this shape: `H = share − M` heavy rows, `M`
    /// reserved rows, top-`k`, on the default array (3-bit cells, 2-bit
    /// queries, σ_VTH 54 mV).
    ///
    /// # Errors
    ///
    /// The engine's configuration errors.
    pub fn engine(&self, dim: usize) -> Res<UniCaimEngine> {
        UniCaimEngine::new(
            ArrayConfig {
                dim,
                ..ArrayConfig::default()
            },
            EngineConfig {
                h: self.share - self.m,
                m: self.m,
                k: self.k,
            },
        )
        .map_err(fail)
    }
}

/// Monotonic seconds since a fixed origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds since the origin.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Spins until `t` seconds after the origin. Busy-waiting keeps the
    /// load generator's core awake, so a wake-up from sleep (which on a virtual
    /// machine can take milliseconds) never lands in a measured latency.
    pub fn wait_until(&self, t: f64) {
        while self.secs() < t {
            std::hint::spin_loop();
        }
    }
}

/// Set-up time: each phase runs as several timed units, and counts as its
/// median unit time × its unit count, so one descheduled unit does not
/// move the total.
#[derive(Debug, Default)]
pub struct Setup {
    seconds: f64,
    units: usize,
    inputs_rss_kib: f64,
}

impl Setup {
    /// Records the resident set (`VmRSS`) once the inputs are generated,
    /// before the first library call.
    ///
    /// # Errors
    ///
    /// When `/proc/self/status` has no `VmRSS` line.
    pub fn inputs_generated(&mut self) -> Res<()> {
        self.inputs_rss_kib = status_kib("VmRSS:")?;
        Ok(())
    }

    /// The resident set [`Setup::inputs_generated`] recorded, KiB.
    #[must_use]
    pub fn inputs_rss_kib(&self) -> f64 {
        self.inputs_rss_kib
    }

    /// Runs `units` timed units of one phase, returning their outputs.
    pub fn phase<T>(&mut self, units: usize, mut unit: impl FnMut(usize) -> T) -> Vec<T> {
        let mut times = Vec::with_capacity(units);
        let out = (0..units)
            .map(|i| {
                let clock = Clock::start();
                let v = unit(i);
                times.push(clock.secs());
                v
            })
            .collect();
        self.seconds += median(&times) * units as f64;
        self.units += units;
        out
    }

    /// Runs a whole-phase step `repeats` times and keeps the last output;
    /// the phase counts once, at its median time.
    pub fn repeated<T>(&mut self, repeats: usize, mut step: impl FnMut() -> T) -> T {
        let mut times = Vec::with_capacity(repeats);
        let mut last = None;
        for _ in 0..repeats.max(1) {
            let clock = Clock::start();
            last = Some(step());
            times.push(clock.secs());
        }
        self.seconds += median(&times);
        self.units += times.len();
        last.expect("at least one repeat ran")
    }

    /// Total set-up seconds so far.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Timed units so far.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }
}

/// One `kB` field of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Resets the process's peak resident memory (`VmHWM`) to its current
/// resident set, so set-up's transients stay out of a window's peak.
///
/// # Errors
///
/// When `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() -> Res<()> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(fail)
}

/// Peak resident memory (`VmHWM`) since the last reset, KiB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_kib() -> Res<f64> {
    status_kib("VmHWM:")
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// How the value was taken, when not obvious from the name (e.g. the
    /// percentile a closed loop reports in its p99 column).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// A percentile metric, noting the percentile actually taken and its
    /// sample count. `scale` converts the sample unit (seconds or
    /// microseconds) into `unit`.
    #[must_use]
    pub fn quantile(name: &'static str, q: Quantile, scale: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: q.value * scale,
            unit,
            samples: q.samples,
            note: format!("p{} of {}", q.percentile, q.samples),
        }
    }
}
