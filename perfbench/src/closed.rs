//! The closed-loop workloads: one client runs sequences back to back
//! until the window closes, cycling a fixed pool generated at set-up.
//!
//! * `stack_decode` — 8-layer [`LayerStackSession`]s under one global
//!   budget with the `entropy_dynamic` allocator;
//! * `hw_engine` — the [`UniCaimEngine`] at the paper's operating point,
//!   driven call by call (`load_prefill`, then `decode_step` per token)
//!   on clones of one engine built at set-up.

use unicaim_attention::workloads::{layer_stack_tasks, needle_task, DecodeWorkload};
use unicaim_core::{HardwareRunResult, OpStats, UniCaimEngine};
use unicaim_kvcache::{simulate_stack, AllocatorSpec, Precision, StackConfig, StackResult};

use crate::harness::{
    fail, peak_rss_kib, reset_peak_rss, Clock, Res, Setup, Shape, Window, DRAIN_GRACE_S,
};
use crate::layers::{decode_on_engine, decode_stack};
use crate::stats::{Accounting, Slo, Timeline};
use crate::trace::Tracer;

/// Layers per stack.
pub const LAYERS: usize = 8;
/// Distinct stacks `stack_decode` cycles.
const STACK_POOL: usize = 16;
/// Distinct needle sequences `hw_engine` cycles.
const HW_POOL: usize = 8;

/// Percentile a closed loop's p99 columns hold. One client finishes a
/// few hundred sequences in a 20-second run, too few for a p99 with ten
/// samples beyond it; p90 needs 100. It is fixed, so a faster change is
/// compared at the same percentile as its parent.
const CLOSED_TAIL: f64 = 90.0;

/// Runs sequences back to back, each through `run_one(sequence, pool
/// index, clock, deadline) -> Ok(Some(first-token time))`, until
/// `seconds` have passed; a sequence still running at the drain deadline
/// (`run_one` returns `Ok(None)`) counts as failed. Returns the window and the pool
/// index of every finished sequence.
fn closed_loop(
    seconds: f64,
    pool: usize,
    tokens_per_sequence: usize,
    slo: Slo,
    mut run_one: impl FnMut(usize, usize, &Clock, f64) -> Res<Option<f64>>,
) -> Res<(Window, Vec<usize>)> {
    reset_peak_rss()?;
    let clock = Clock::start();
    let deadline = seconds + DRAIN_GRACE_S;
    let mut timelines = Vec::new();
    let mut lag_ms = Vec::new();
    let mut ran = Vec::new();
    let mut sent = 0;
    let mut last_end = 0.0;
    while clock.secs() < seconds {
        let start = clock.secs();
        if sent > 0 {
            lag_ms.push((start - last_end) * 1e3);
        }
        let j = sent % pool;
        sent += 1;
        let Some(first_token) = run_one(sent - 1, j, &clock, deadline)? else {
            break;
        };
        last_end = clock.secs();
        ran.push(j);
        timelines.push(Timeline {
            due: start,
            first_token,
            completion: last_end,
            tokens: tokens_per_sequence,
        });
    }
    let window = Window {
        accounting: Accounting::tally(sent, 0, &timelines, slo),
        tokens: timelines.len() * tokens_per_sequence,
        wall_s: last_end,
        timelines,
        lag_ms,
        peak_rss_kib: peak_rss_kib()?,
        tail_percentile: CLOSED_TAIL,
    };
    Ok((window, ran))
}

/// `stack_decode` after set-up.
pub struct Stacks {
    /// Per-layer shape.
    pub shape: Shape,
    /// Distinct stacks, one workload per layer each.
    pub pool: Vec<Vec<DecodeWorkload>>,
    allocator: AllocatorSpec,
    config: StackConfig,
    /// Set-up time.
    pub setup: Setup,
}

/// Per-layer shape of `stack_decode`: 48 slots, `M = 8`, top-8, f32.
const STACK_SHAPE: Shape = Shape {
    share: 48,
    m: 8,
    k: 8,
    precision: Precision::F32,
    page_rows: None,
};

/// Decode steps per stack sequence.
const STACK_STEPS: usize = 256;

impl Stacks {
    /// Generates the pool: [`STACK_POOL`] 8-layer stacks of 128-token
    /// prompts and 256 decode steps, seeded from `seed`.
    ///
    /// # Errors
    ///
    /// When the resident set cannot be read.
    pub fn prepare(seed: u64) -> Res<Self> {
        let mut setup = Setup::default();
        let pool = setup.phase(STACK_POOL, |p| {
            layer_stack_tasks(
                LAYERS,
                128,
                STACK_STEPS,
                // Layer l draws workload seed `base + 1 + 31 l`; bases 256
                // apart keep every layer of every stack of every run distinct.
                seed.wrapping_mul(1 << 12).wrapping_add(256 * p as u64),
            )
        });
        setup.inputs_generated()?;
        let shape = STACK_SHAPE;
        let mut stacks = Self {
            shape,
            pool,
            allocator: AllocatorSpec::from_name("entropy_dynamic").expect("registered allocator"),
            config: StackConfig::new(LAYERS * shape.share, shape.k)
                .with_reserved_decode_slots(shape.m)
                .with_precision(shape.precision),
            setup: Setup::default(),
        };
        // Warm-up: the first stack, three times, outside the timed window.
        setup.repeated(3, || {
            simulate_stack(
                &stacks.pool[0],
                &shape.spec(),
                &stacks.allocator,
                &stacks.config,
            )
            .expect("pool stacks decode")
        });
        stacks.setup = setup;
        Ok(stacks)
    }

    /// Runs the closed loop for `seconds`, returning the window, the pool
    /// index and the result of every finished sequence.
    ///
    /// # Errors
    ///
    /// Any stack error.
    pub fn measure(
        &self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Res<(Window, Vec<usize>, Vec<StackResult>)> {
        let mut results = Vec::new();
        let slo = STACK_SLO;
        let (window, ran) = closed_loop(
            seconds,
            self.pool.len(),
            STACK_STEPS,
            slo,
            |i, j, clock, deadline| {
                let span = tracer.begin("stack.sequence", Some(i));
                let out = decode_stack(
                    &self.pool[j],
                    self.shape,
                    &self.allocator,
                    &self.config,
                    tracer,
                    Some(i),
                    clock,
                    deadline,
                )?;
                tracer.end(span);
                Ok(out.map(|(first, result)| {
                    results.push(result);
                    first
                }))
            },
        )?;
        Ok((window, ran, results))
    }

    /// The correctness gate: every finished sequence equals
    /// [`simulate_stack`] on its pool entry.
    ///
    /// # Errors
    ///
    /// The first mismatch, or any stack error.
    pub fn check(&self, ran: &[usize], results: &[StackResult]) -> Res<Vec<StackResult>> {
        let spec = self.shape.spec();
        let mut reference: Vec<Option<StackResult>> = vec![None; self.pool.len()];
        for (&j, result) in ran.iter().zip(results) {
            if reference[j].is_none() {
                reference[j] = Some(
                    simulate_stack(&self.pool[j], &spec, &self.allocator, &self.config)
                        .map_err(fail)?,
                );
            }
            if reference[j].as_ref() != Some(result) {
                return Err(format!("stack {j} differs from simulate_stack"));
            }
        }
        Ok(reference.into_iter().flatten().collect())
    }
}

/// SLO limits of `stack_decode`: about 10× the tail TTFT and TPOT on a
/// quiet 2-core AVX2 host.
const STACK_SLO: Slo = Slo {
    ttft: 0.130,
    tpot: 0.000_4,
};

/// The paper's operating point: H = 512, M = 64, top-64.
const HW_SHAPE: Shape = Shape {
    share: 576,
    m: 64,
    k: 64,
    precision: Precision::F32,
    page_rows: None,
};

/// SLO limits of `hw_engine`: about 10× the tail TTFT and TPOT on a
/// quiet 2-core AVX2 host.
const HW_SLO: Slo = Slo {
    ttft: 0.070,
    tpot: 0.002_7,
};

/// Decode steps per needle sequence.
const HW_STEPS: usize = 64;

/// `hw_engine` after set-up.
pub struct Hardware {
    /// The engine's shape.
    pub shape: Shape,
    /// Distinct 1024 + 64-token needle sequences.
    pub pool: Vec<DecodeWorkload>,
    /// The engine built at set-up; every sequence runs on a clone.
    pub template: UniCaimEngine,
    /// Set-up time.
    pub setup: Setup,
}

impl Hardware {
    /// Generates the pool and builds the engine.
    ///
    /// # Errors
    ///
    /// Engine configuration errors, or when the resident set cannot be
    /// read.
    pub fn prepare(seed: u64) -> Res<Self> {
        let mut setup = Setup::default();
        let pool = setup.phase(HW_POOL, |p| {
            needle_task(1024, HW_STEPS, seed.wrapping_mul(64).wrapping_add(p as u64))
        });
        setup.inputs_generated()?;
        let shape = HW_SHAPE;
        let template = setup.repeated(3, || shape.engine(pool[0].dim))?;
        let mut hw = Self {
            shape,
            pool,
            template,
            setup: Setup::default(),
        };
        // Warm-up: the first sequence, three times, outside the timed
        // window.
        setup.repeated(3, || {
            decode_on_engine(
                &hw.template,
                &hw.pool[0],
                &mut Tracer::new(false),
                None,
                &Clock::start(),
                f64::INFINITY,
            )
        })?;
        hw.setup = setup;
        Ok(hw)
    }

    /// Runs the closed loop for `seconds`, returning the window and the
    /// array statistics of the first run of each pool sequence.
    ///
    /// # Errors
    ///
    /// Engine errors.
    pub fn measure(
        &self,
        seconds: f64,
        tracer: &mut Tracer,
    ) -> Res<(Window, Vec<Option<OpStats>>)> {
        let mut stats: Vec<Option<OpStats>> = vec![None; self.pool.len()];
        let (window, _) = closed_loop(
            seconds,
            self.pool.len(),
            HW_STEPS,
            HW_SLO,
            |i, j, clock, deadline| {
                let span = tracer.begin("core.sequence", Some(i));
                let out = decode_on_engine(
                    &self.template,
                    &self.pool[j],
                    tracer,
                    Some(i),
                    clock,
                    deadline,
                )?;
                tracer.end(span);
                Ok(out.map(|(first, s)| {
                    stats[j].get_or_insert(s);
                    first
                }))
            },
        )?;
        Ok((window, stats))
    }

    /// The correctness gate: the reused engine (the set-up template,
    /// after every clone the loop took) reproduces a freshly built engine
    /// on the first sequence, and the call-by-call path the loop timed
    /// produced the same array statistics as [`UniCaimEngine::run`] on
    /// every pool sequence it ran. `runs` are [`UniCaimEngine::run`] on
    /// each pool sequence, on clones of the template taken after the loop.
    ///
    /// # Errors
    ///
    /// The first mismatch, or any engine error.
    pub fn check(&self, stats: &[Option<OpStats>], runs: &[HardwareRunResult]) -> Res<()> {
        let mut fresh = self.shape.engine(self.pool[0].dim)?;
        let fresh = fresh.run(&self.pool[0]).map_err(fail)?;
        if fresh != runs[0] {
            return Err("the reused engine differs from a fresh one on the first sequence".into());
        }
        for (j, (timed, run)) in stats.iter().zip(runs).enumerate() {
            if timed.is_some_and(|s| s != run.stats) {
                return Err(format!(
                    "sequence {j}: call-by-call statistics differ from UniCaimEngine::run"
                ));
            }
        }
        Ok(())
    }
}
