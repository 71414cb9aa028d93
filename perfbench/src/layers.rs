//! The hardware cost model every workload reports, and the traced run's
//! layer replay: the run's own generated requests fed through each layer
//! one public call at a time, each call inside a span.

use unicaim_accel::{cost_from_stats, Technology};
use unicaim_attention::kernels::{self, QuantRowView, RowView};
use unicaim_attention::workloads::DecodeWorkload;
use unicaim_core::{HardwareRunResult, OpStats, UniCaimEngine};
use unicaim_kvcache::{
    prefill_attention_matrix, AllocatorSpec, DecodeSession, LayerStackSession, MetricsSummary,
    Priority, Scheduler, Sequential, ServeCore, StackConfig, StackResult, WorkerPool,
};

use crate::harness::{fail, Clock, Res, Shape};
use crate::serve;
use crate::trace::Tracer;

/// Calls per timed kernel batch (one span).
pub const KERNEL_CALLS: usize = 1000;
/// Timed batches per kernel.
const KERNEL_BATCHES: usize = 20;
/// Sessions the engine replay steps together.
const ENGINE_SESSIONS: usize = 8;
/// Page budget of the replay's registries: room for every replayed
/// prefix, so nothing is evicted.
const REPLAY_PAGES: usize = 4096;

/// Runs every sample sequence through [`UniCaimEngine::run`] on a clone
/// of `template`.
///
/// # Errors
///
/// Engine errors.
pub fn model(template: &UniCaimEngine, sample: &[&DecodeWorkload]) -> Res<Vec<HardwareRunResult>> {
    sample
        .iter()
        .map(|w| template.clone().run(w).map_err(fail))
        .collect()
}

/// The runs' summed statistics and their modeled energy (pJ) and delay
/// (ns) per decode step, through `accel::cost_from_stats`.
#[must_use]
pub fn modeled_cost(template: &UniCaimEngine, runs: &[HardwareRunResult]) -> (OpStats, f64, f64) {
    let stats = runs
        .iter()
        .fold(OpStats::new(), |acc, r| acc.merged(&r.stats));
    let cost = cost_from_stats(
        "unicaim",
        &Technology::default(),
        template.array().config(),
        &stats,
    );
    (
        stats,
        cost.energy_per_step * 1e12,
        cost.delay_per_step * 1e9,
    )
}

/// Which layers the workload's own run does not exercise, so the replay
/// must.
#[derive(Debug, Clone, Copy)]
pub struct Missing {
    /// `ServeCore`.
    pub serve: bool,
    /// `LayerStackSession`.
    pub stack: bool,
    /// `UniCaimEngine`.
    pub core: bool,
}

/// Counters the replay read from the layers it drove.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Summary of the replayed serving core, when serve was replayed.
    pub serve: Option<MetricsSummary>,
    /// Result of the replayed stack, when stack was replayed.
    pub stack: Option<StackResult>,
    /// Bytes each kernel reads per call: `(kernel, bytes)`.
    pub kernel_bytes: Vec<(&'static str, usize)>,
}

/// Feeds `sample` through every layer below the workload's own entry
/// point, and through `missing` top layers, one call per span.
///
/// # Errors
///
/// Any layer error.
pub fn replay(
    shape: Shape,
    sample: &[&DecodeWorkload],
    template: &UniCaimEngine,
    missing: Missing,
    tracer: &mut Tracer,
) -> Res<ReplayCounts> {
    let root = tracer.begin("replay", None);
    replay_session(shape, sample, tracer)?;
    replay_engine(shape, sample, tracer)?;
    replay_prefix(shape, sample, tracer)?;
    let span = tracer.begin("replay.kernels", None);
    let mut counts = ReplayCounts {
        kernel_bytes: replay_kernels(shape, sample[0], tracer),
        ..ReplayCounts::default()
    };
    tracer.end(span);
    if missing.core {
        let span = tracer.begin("replay.core", None);
        for (r, w) in sample.iter().enumerate() {
            decode_on_engine(template, w, tracer, Some(r), &Clock::start(), f64::INFINITY)?;
        }
        tracer.end(span);
    }
    if missing.stack {
        let span = tracer.begin("replay.stack", None);
        counts.stack = Some(replay_stack(shape, sample, tracer)?);
        tracer.end(span);
    }
    if missing.serve {
        let span = tracer.begin("replay.serve", None);
        counts.serve = Some(replay_serve(shape, sample, tracer)?);
        tracer.end(span);
    }
    tracer.end(root);
    Ok(counts)
}

/// Admission (cold, or through a registry when the workload uses one),
/// its two dominant parts on their own, then every decode step.
fn replay_session(shape: Shape, sample: &[&DecodeWorkload], tracer: &mut Tracer) -> Res<()> {
    let span = tracer.begin("replay.session", None);
    let config = shape.session_config();
    let spec = shape.spec();
    let registry = shape
        .page_rows
        .map(|_| shape.registry(sample[0].dim, REPLAY_PAGES))
        .transpose()?;
    for (r, w) in sample.iter().enumerate() {
        let admit = tracer.begin("session.admit", Some(r));
        let mut session = match &registry {
            Some(registry) => {
                DecodeSession::prefill_shared(w, &spec, &config, registry)
                    .map_err(fail)?
                    .0
            }
            None => DecodeSession::prefill_spec(w, &spec, &config).map_err(fail)?,
        };
        tracer.end(admit);
        std::hint::black_box(tracer.span("session.prefill_matrix", Some(r), || {
            prefill_attention_matrix(w)
        }));
        std::hint::black_box(tracer.span("session.reference", Some(r), || {
            w.full_attention_reference()
        }));
        while !session.is_done() {
            let step = tracer.begin("session.step", Some(r));
            session.step().map_err(fail)?;
            tracer.end(step);
        }
    }
    tracer.end(span);
    Ok(())
}

/// `Scheduler::step_once` over 8 sessions, sequentially and on a worker
/// pool of `nproc` threads (the calling thread waits while they run).
fn replay_engine(shape: Shape, sample: &[&DecodeWorkload], tracer: &mut Tracer) -> Res<()> {
    let span = tracer.begin("replay.engine", None);
    let config = shape.session_config();
    let spec = shape.spec();
    let pool = WorkerPool::with_available_parallelism();
    let schedulers: [(&'static str, &dyn Scheduler); 2] = [
        ("engine.step_once.sequential", &Sequential),
        ("engine.step_once.worker_pool", &pool),
    ];
    for (name, scheduler) in schedulers {
        let mut sessions = sample
            .iter()
            .cycle()
            .take(ENGINE_SESSIONS)
            .map(|w| DecodeSession::prefill_spec(w, &spec, &config).map_err(fail))
            .collect::<Res<Vec<_>>>()?;
        while sessions.iter().any(|s| !s.is_done()) {
            let step = tracer.begin(name, None);
            scheduler.step_once(&mut sessions).map_err(fail)?;
            tracer.end(step);
        }
    }
    tracer.end(span);
    Ok(())
}

/// Every sample request admitted twice through a fresh registry: the
/// second admission always hits, so hit latency is measured on every
/// workload, whether or not its own traffic shares prefixes.
fn replay_prefix(shape: Shape, sample: &[&DecodeWorkload], tracer: &mut Tracer) -> Res<()> {
    let span = tracer.begin("replay.prefix", None);
    let config = shape.session_config();
    let spec = shape.spec();
    let registry = shape.registry(sample[0].dim, REPLAY_PAGES)?;
    for (r, w) in sample.iter().enumerate() {
        for _ in 0..2 {
            let admit = tracer.begin("prefix.admit", Some(r));
            let (session, reuse) =
                DecodeSession::prefill_shared(w, &spec, &config, &registry).map_err(fail)?;
            tracer.end_named(
                admit,
                if reuse.prefix_hit {
                    "prefix.admit_hit"
                } else {
                    "prefix.admit_miss"
                },
            );
            std::hint::black_box(session);
        }
    }
    tracer.end(span);
    Ok(())
}

/// The three decode-step kernels at the workload's shape: a scan of
/// `share` resident keys (f32 and int8) and fused attention over `k`
/// selected rows. Each span covers [`KERNEL_CALLS`] calls. Returns the
/// bytes each call reads.
fn replay_kernels(
    shape: Shape,
    w: &DecodeWorkload,
    tracer: &mut Tracer,
) -> Vec<(&'static str, usize)> {
    let dim = w.dim;
    let rows = shape.share.min(w.prefill_keys.len());
    let keys: Vec<f32> = w.prefill_keys[..rows].iter().flatten().copied().collect();
    let values: Vec<f32> = w.prefill_values[..rows].iter().flatten().copied().collect();
    let (qkeys, qscales) = kernels::quantize_arena_i8(&keys, dim);
    let key_view = RowView::contiguous(&keys, dim);
    let value_view = RowView::contiguous(&values, dim);
    let qkey_view = QuantRowView::contiguous(&qkeys, &qscales, dim);
    let query = &w.decode_queries[0];
    let mut query_q = vec![0i8; dim];
    let query_scale = kernels::quantize_row_i8(query, &mut query_q);
    let scan: Vec<usize> = (0..rows).collect();
    let selected: Vec<usize> = (0..rows)
        .step_by((rows / shape.k).max(1))
        .take(shape.k)
        .collect();
    let scale = 1.0 / (dim as f32).sqrt();
    let mut scores = vec![0.0f32; rows];
    let mut weights = Vec::with_capacity(rows);
    let mut out = vec![0.0f32; dim];
    for _ in 0..KERNEL_BATCHES {
        tracer.span("kernels.dot_gather", None, || {
            for _ in 0..KERNEL_CALLS {
                kernels::dot_gather(
                    std::hint::black_box(query),
                    key_view,
                    &scan,
                    scale,
                    &mut scores,
                );
                std::hint::black_box(&mut scores);
            }
        });
        tracer.span("kernels.dot_gather_q", None, || {
            for _ in 0..KERNEL_CALLS {
                kernels::dot_gather_q(
                    std::hint::black_box(&query_q),
                    query_scale,
                    qkey_view,
                    &scan,
                    scale,
                    &mut scores,
                );
                std::hint::black_box(&mut scores);
            }
        });
        tracer.span("kernels.attend_gather", None, || {
            for _ in 0..KERNEL_CALLS {
                kernels::attend_gather(
                    std::hint::black_box(query),
                    key_view,
                    value_view,
                    &selected,
                    scale,
                    &mut weights,
                    &mut out,
                );
                std::hint::black_box(&mut out);
            }
        });
    }
    // Rows read per call (row indices included), f32 = 4 bytes.
    let index = std::mem::size_of::<usize>();
    vec![
        ("kernels.dot_gather", rows * (4 * dim + index) + 4 * dim),
        ("kernels.dot_gather_q", rows * (dim + 4 + index) + dim),
        (
            "kernels.attend_gather",
            selected.len() * (8 * dim + index) + 4 * dim,
        ),
    ]
}

/// Decodes one sequence on a clone of `template`, call by call, with a
/// span around `load_prefill` and each `decode_step`; `None` when the
/// deadline passes first. Returns the first token's time and the array's
/// statistics.
///
/// # Errors
///
/// Engine errors.
pub fn decode_on_engine(
    template: &UniCaimEngine,
    w: &DecodeWorkload,
    tracer: &mut Tracer,
    request: Option<usize>,
    clock: &Clock,
    deadline: f64,
) -> Res<Option<(f64, OpStats)>> {
    let mut engine = template.clone();
    let span = tracer.begin("core.load_prefill", request);
    engine.load_prefill(w).map_err(fail)?;
    tracer.end(span);
    let prefill_len = w.prefill_keys.len();
    let mut first_token = None;
    for step in 0..w.decode_queries.len() {
        if clock.secs() >= deadline {
            return Ok(None);
        }
        let span = tracer.begin("core.decode_step", request);
        let report = engine
            .decode_step(
                prefill_len + step,
                &w.decode_queries[step],
                &w.decode_keys[step],
                &w.decode_values[step],
            )
            .map_err(fail)?;
        tracer.end(span);
        std::hint::black_box(report);
        first_token.get_or_insert_with(|| clock.secs());
    }
    let mut stats = *engine.array().stats();
    stats.decode_steps = w.decode_queries.len() as u64;
    Ok(Some((first_token.unwrap_or_else(|| clock.secs()), stats)))
}

/// One stack of up to 8 layers built from the sample's most common
/// decode length (layers advance in lockstep), decoded under the
/// `entropy_dynamic` allocator.
fn replay_stack(shape: Shape, sample: &[&DecodeWorkload], tracer: &mut Tracer) -> Res<StackResult> {
    let decode_len = |w: &&DecodeWorkload| w.decode_queries.len();
    let common = sample
        .iter()
        .map(decode_len)
        .max_by_key(|&len| sample.iter().filter(|w| decode_len(w) == len).count())
        .unwrap_or(0);
    let layers: Vec<DecodeWorkload> = sample
        .iter()
        .filter(|w| decode_len(w) == common)
        .take(crate::closed::LAYERS)
        .map(|&w| w.clone())
        .collect();
    let allocator = AllocatorSpec::from_name("entropy_dynamic").map_err(fail)?;
    let config = StackConfig::new(layers.len() * shape.share, shape.k)
        .with_reserved_decode_slots(shape.m)
        .with_precision(shape.precision);
    decode_stack(
        &layers,
        shape,
        &allocator,
        &config,
        tracer,
        None,
        &Clock::start(),
        f64::INFINITY,
    )?
    .map(|(_, result)| result)
    .ok_or_else(|| "replayed stack ran past its deadline".to_owned())
}

/// Decodes one stack, a span around its prefill and each step; `None`
/// when the deadline passes first. Returns the first token's time and
/// the stack's result.
///
/// # Errors
///
/// Any stack error.
#[allow(clippy::too_many_arguments)]
pub fn decode_stack(
    layers: &[DecodeWorkload],
    shape: Shape,
    allocator: &AllocatorSpec,
    config: &StackConfig,
    tracer: &mut Tracer,
    request: Option<usize>,
    clock: &Clock,
    deadline: f64,
) -> Res<Option<(f64, StackResult)>> {
    let span = tracer.begin("stack.prefill", request);
    let mut stack =
        LayerStackSession::prefill(layers, &shape.spec(), allocator, config).map_err(fail)?;
    tracer.end(span);
    let mut first_token = None;
    while !stack.is_done() {
        if clock.secs() >= deadline {
            return Ok(None);
        }
        let span = tracer.begin("stack.step", request);
        stack.step().map_err(fail)?;
        tracer.end(span);
        first_token.get_or_insert_with(|| clock.secs());
    }
    Ok(Some((
        first_token.unwrap_or_else(|| clock.secs()),
        stack.finish(),
    )))
}

/// The sample as one closed batch into a serving core at the workload's
/// shape, ticked until drained.
fn replay_serve(
    shape: Shape,
    sample: &[&DecodeWorkload],
    tracer: &mut Tracer,
) -> Res<MetricsSummary> {
    let mut core = ServeCore::new(shape.serve_config()).map_err(fail)?;
    for (r, w) in sample.iter().enumerate() {
        core.submit(w, shape.spec(), r % 3, Priority::Normal)
            .map_err(fail)?;
    }
    while core.running() > 0 || core.queue_depth() > 0 {
        serve::tick(&mut core, tracer)?;
    }
    Ok(core.report().summary)
}
