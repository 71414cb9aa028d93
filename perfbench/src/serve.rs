//! The open-loop serving workloads, `serve_mixed` and
//! `serve_shared_prefix`: a seeded Poisson wall-clock schedule of
//! requests submitted to one [`ServeCore`] while a single load-generator thread
//! ticks it.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use unicaim_attention::workloads::{mixed_batch, shared_prefix_batch, DecodeWorkload};
use unicaim_kvcache::{
    DecodeSession, MetricsSummary, PolicySpec, Precision, Priority, ServeCore, SimResult,
    SubmitOutcome,
};

use crate::harness::{
    fail, peak_rss_kib, reset_peak_rss, Clock, Res, Setup, Shape, Window, DRAIN_GRACE_S,
};
use crate::stats::{timeline, Accounting, Slo};
use crate::trace::Tracer;

/// Offered load, requests per second: about a third of the knee of the
/// 8 × 96-slot core on a 2-core AVX2 host for each traffic mix (p99 TTFT
/// passed 30 ms near 320 req/s for mixed prompts and near 560 req/s for
/// shared prefixes, whose admissions skip the prefill matrix). Below half
/// the knee, queueing amplifies a host slowdown less, so the latency
/// tails hold steady from run to run.
#[must_use]
pub fn rate(traffic: Traffic) -> f64 {
    match traffic {
        Traffic::Mixed => 100.0,
        Traffic::SharedPrefix => 140.0,
    }
}

/// Fewest requests a run sends, so the TTFT and TPOT p99s keep ten
/// samples beyond them even on a short run.
const MIN_REQUESTS: usize = 1008;
/// `mixed_batch` repeats its task-kind × prompt-length × decode-length
/// mix every 36 requests; set-up generates whole cycles.
const MIX_CYCLE: usize = 36;
/// Tenants requests are spread over.
const TENANTS: usize = 3;
/// Every `HIGH_EVERY`-th request is High priority.
const HIGH_EVERY: usize = 5;
/// Shared system prompts of `serve_shared_prefix`.
const PROMPTS: usize = 4;
/// Distinct turns per shared prompt (`shared_prefix_batch` repeats its
/// answer step every 24 turns, so later turns repeat earlier ones).
const TURNS: usize = 24;
/// Rows per page of the prefix registry. The 80 kept prefix rows
/// (`H = 96 − 16`) then end mid-page, as real prompts usually do, so each
/// spliced session's first decode write copies a shared page on write.
const PAGE_ROWS: usize = 12;
/// Page budget of the prefix registry: the 4 prompts' kept rows need 28.
const REGISTRY_PAGES: usize = 64;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Distinct mixed-task prompts, no prefix registry, f32 arenas.
    Mixed,
    /// Turns over shared system prompts through a prefix registry, Int8
    /// arenas.
    SharedPrefix,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Request {
    workload: usize,
    tenant: usize,
    priority: Priority,
    /// Seconds after the schedule's origin.
    due: f64,
}

/// A serving workload after set-up: its distinct prompts and the
/// request schedule over them.
pub struct Prepared {
    /// Per-session shape of the core.
    pub shape: Shape,
    /// SLO limits of the workload.
    pub slo: Slo,
    /// Distinct request workloads (requests refer to them by index).
    pub workloads: Vec<DecodeWorkload>,
    requests: Vec<Request>,
    /// Set-up time.
    pub setup: Setup,
}

/// What one measured serving run produced.
pub struct Measured {
    /// The timed window.
    pub window: Window,
    /// Retired requests' decode results, keyed by workload index.
    pub results: Vec<(usize, SimResult)>,
    /// The core's tick-domain summary.
    pub summary: MetricsSummary,
    /// Copy-on-write page copies in the registry's arena.
    pub cow_copies: u64,
}

/// The shape both serving workloads run at: the 8 × 96-slot core with
/// `M = 16`, top-32 (the saturation scenario's core).
#[must_use]
pub fn shape(traffic: Traffic) -> Shape {
    Shape {
        share: 96,
        m: 16,
        k: 32,
        precision: match traffic {
            Traffic::Mixed => Precision::F32,
            Traffic::SharedPrefix => Precision::Int8,
        },
        page_rows: (traffic == Traffic::SharedPrefix).then_some(PAGE_ROWS),
    }
}

/// SLO limits: about 10× the p99 TTFT and TPOT each workload showed on
/// a quiet 2-core AVX2 host.
fn slo(traffic: Traffic) -> Slo {
    match traffic {
        Traffic::Mixed => Slo {
            ttft: 0.025,
            tpot: 0.001,
        },
        Traffic::SharedPrefix => Slo {
            ttft: 0.025,
            tpot: 0.002,
        },
    }
}

/// Generates the workload's requests from `seed`: `rate × seconds`
/// requests (at least [`MIN_REQUESTS`]), uniform tenants, and every 5th
/// request High priority.
///
/// # Errors
///
/// When the resident set cannot be read.
pub fn prepare(traffic: Traffic, seed: u64, seconds: f64) -> Res<Prepared> {
    let rate = rate(traffic);
    let n = ((rate * seconds).round() as usize).max(MIN_REQUESTS);
    let mut setup = Setup::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E7E_0001);
    let (workloads, picks): (Vec<DecodeWorkload>, Vec<usize>) = match traffic {
        Traffic::Mixed => {
            // Whole mix cycles, each from its own range of workload seeds
            // (and each run seed from its own block of them), so no two
            // requests share a prompt.
            let cycles = n.div_ceil(MIX_CYCLE);
            let workloads: Vec<DecodeWorkload> = setup
                .phase(cycles, |c| {
                    let first = seed
                        .wrapping_mul(1 << 20)
                        .wrapping_add((c * MIX_CYCLE) as u64);
                    mixed_batch(MIX_CYCLE, 192, 24, first)
                })
                .into_iter()
                .flatten()
                .collect();
            (workloads, (0..n).collect())
        }
        Traffic::SharedPrefix => {
            let workloads: Vec<DecodeWorkload> = setup
                .phase(PROMPTS, |p| {
                    shared_prefix_batch(
                        TURNS,
                        384,
                        24,
                        seed.wrapping_mul(64).wrapping_add(p as u64),
                    )
                })
                .into_iter()
                .flatten()
                .collect();
            let mut next_turn = [0usize; PROMPTS];
            let picks = (0..n)
                .map(|_| {
                    let p = rng.gen_range(0..PROMPTS);
                    let turn = next_turn[p] % TURNS;
                    next_turn[p] += 1;
                    p * TURNS + turn
                })
                .collect();
            (workloads, picks)
        }
    };
    // Poisson arrivals with stratified gaps: the n exponential quantiles
    // at (i + ½)/n, in an order shuffled by the seed. Every seed offers
    // the same gap distribution (so the same burstiness) in a different
    // order, which keeps the latency tails comparable across seeds.
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    for i in (1..n).rev() {
        gaps.swap(i, rng.gen_range(0..=i));
    }
    let mut due = 0.0;
    let requests = picks
        .into_iter()
        .zip(gaps)
        .enumerate()
        .map(|(i, (workload, gap))| {
            if i > 0 {
                due += gap;
            }
            Request {
                workload,
                tenant: rng.gen_range(0..TENANTS),
                priority: if (i + 1) % HIGH_EVERY == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                },
                due,
            }
        })
        .collect();
    setup.inputs_generated()?;
    let shape = shape(traffic);
    let mut prepared = Prepared {
        shape,
        slo: slo(traffic),
        workloads,
        requests,
        setup: Setup::default(),
    };
    // Core construction and warm-up: a throwaway core serves a few
    // requests so first-touch costs stay out of the timed window.
    setup.repeated(3, || {
        let mut core = prepared.core().expect("workload core config is valid");
        for (i, w) in prepared.workloads.iter().take(4).enumerate() {
            core.submit(w, shape.spec(), i % TENANTS, Priority::Normal)
                .expect("warm-up spec fits the core");
        }
        core.drain().expect("warm-up requests decode");
    });
    prepared.setup = setup;
    Ok(prepared)
}

/// Ticks the core once inside a span named for what the tick did:
/// `serve.tick_admit` when it admitted a request, else
/// `serve.tick_decode`.
///
/// # Errors
///
/// The tick's error.
pub fn tick(core: &mut ServeCore<'_>, tracer: &mut Tracer) -> Res<()> {
    let queued = core.queue_depth();
    let preempted = core.metrics().preemptions();
    let span = tracer.begin("serve.tick", None);
    core.tick().map_err(fail)?;
    // Preempted sessions rejoin the queue, so admissions are the queue's
    // shrinkage plus this tick's preemptions.
    let requeued = core.metrics().preemptions() - preempted;
    let admitted = queued as u64 + requeued > core.queue_depth() as u64;
    tracer.end_named(
        span,
        if admitted {
            "serve.tick_admit"
        } else {
            "serve.tick_decode"
        },
    );
    Ok(())
}

impl Prepared {
    /// A fresh core for this workload.
    ///
    /// # Errors
    ///
    /// Configuration errors.
    pub fn core(&self) -> Res<ServeCore<'_>> {
        let core = ServeCore::new(self.shape.serve_config()).map_err(fail)?;
        Ok(match self.shape.page_rows {
            None => core,
            Some(_) => core
                .with_prefix_registry(self.shape.registry(self.workloads[0].dim, REGISTRY_PAGES)?),
        })
    }

    /// The first `n` requests' workloads, in schedule order.
    #[must_use]
    pub fn sample(&self, n: usize) -> Vec<&DecodeWorkload> {
        self.requests
            .iter()
            .take(n)
            .map(|r| &self.workloads[r.workload])
            .collect()
    }

    /// Runs the schedule open-loop against a fresh core: submits each
    /// request when due, ticks while work is queued or running, and stops
    /// at the drain deadline.
    ///
    /// # Errors
    ///
    /// Any submission or tick error.
    pub fn measure(&self, tracer: &mut Tracer) -> Res<Measured> {
        let spec: PolicySpec = self.shape.spec();
        let mut core = self.core()?;
        let last_due = self.requests.last().map_or(0.0, |r| r.due);
        let deadline = last_due + DRAIN_GRACE_S;
        // Queued request id → schedule index (ids count accepted
        // submissions in order).
        let mut request_of_id: Vec<usize> = Vec::with_capacity(self.requests.len());
        let mut tick_end: Vec<f64> = Vec::new();
        let mut lag_ms = Vec::with_capacity(self.requests.len());
        let mut rejected = 0;
        let mut next = 0;
        // Root span of the window: its self time is the load generator's own
        // work and its waiting between arrivals.
        reset_peak_rss()?;
        let window = tracer.begin("loadgen.window", None);
        let clock = Clock::start();
        loop {
            let now = clock.secs();
            if now >= deadline {
                break;
            }
            while let Some(r) = self.requests.get(next).filter(|r| r.due <= now) {
                lag_ms.push((now - r.due) * 1e3);
                let span = tracer.begin("loadgen.submit", Some(next));
                let outcome = core
                    .submit(
                        &self.workloads[r.workload],
                        spec.clone(),
                        r.tenant,
                        r.priority,
                    )
                    .map_err(fail)?;
                tracer.end(span);
                match outcome {
                    SubmitOutcome::Queued { id } => {
                        debug_assert_eq!(id, request_of_id.len());
                        request_of_id.push(next);
                    }
                    SubmitOutcome::Rejected => rejected += 1,
                }
                next += 1;
            }
            if core.running() > 0 || core.queue_depth() > 0 {
                tick(&mut core, tracer)?;
                tick_end.push(clock.secs());
            } else if let Some(r) = self.requests.get(next) {
                clock.wait_until(r.due);
            } else {
                break;
            }
        }
        tracer.end(window);
        let wall_s = tick_end.last().copied().unwrap_or(0.0);
        let peak_rss_kib = peak_rss_kib()?;

        let report = tracer.span("serve.report", None, || core.report());
        let mut timelines = Vec::with_capacity(report.completed.len());
        let mut results = Vec::with_capacity(report.completed.len());
        let mut tokens = 0;
        for done in report.completed {
            let r = &self.requests[request_of_id[done.id]];
            let steps = done.result.steps;
            timelines.push(timeline(
                &tick_end,
                r.due,
                done.first_token_tick,
                done.completion_tick,
                steps,
            ));
            tokens += steps;
            results.push((r.workload, done.result));
        }
        let accounting = Accounting::tally(self.requests.len(), rejected, &timelines, self.slo);
        let cow_copies = core
            .prefix_registry()
            .map_or(0, |r| r.arena().stats().cow_copies);
        Ok(Measured {
            window: Window {
                timelines,
                accounting,
                tokens,
                wall_s,
                lag_ms,
                peak_rss_kib,
                tail_percentile: 99.0,
            },
            results,
            summary: report.summary,
            cow_copies,
        })
    }

    /// The correctness gate: every retired request's result must equal a
    /// solo [`DecodeSession`] run of the same request.
    ///
    /// # Errors
    ///
    /// The first mismatch, or any session error.
    pub fn check(&self, measured: &Measured) -> Res<()> {
        let config = self.shape.session_config();
        let spec = self.shape.spec();
        let mut solo: HashMap<usize, SimResult> = HashMap::new();
        for (w, served) in &measured.results {
            if !solo.contains_key(w) {
                let mut session = DecodeSession::prefill_spec(&self.workloads[*w], &spec, &config)
                    .map_err(fail)?;
                session.run_to_completion().map_err(fail)?;
                solo.insert(*w, session.finish());
            }
            if solo[w] != *served {
                return Err(format!(
                    "served result of {} differs from its solo run: {served:?} vs {:?}",
                    self.workloads[*w].name, solo[w]
                ));
            }
        }
        Ok(())
    }
}
