//! Output: the per-layer metrics of a traced pass, the metric table, the
//! result line's JSON, and the trace file.

use std::fmt::Write as _;
use std::io::Write as _;

use unicaim_bench::HostProvenance;
use unicaim_kvcache::MetricsSummary;

use crate::harness::{fail, Metric, Res};
use crate::layers::KERNEL_CALLS;
use crate::stats::{mean, plain_quantile, Quantile};
use crate::trace::{self, Tracer};
use crate::{Args, Pass};

/// Nearest-rank percentile of the durations (µs) of the spans `names`.
fn span_quantile(tracer: &Tracer, names: &[&str], p: f64) -> Quantile {
    let durations: Vec<f64> = names.iter().flat_map(|n| tracer.durations_us(n)).collect();
    plain_quantile(&durations, p)
}

/// The per-layer metrics of a traced pass, from its spans and counters.
/// A layer's counters come from the workload's own run when it has that
/// layer, otherwise from the replay.
pub fn per_layer(pass: &Pass, tracer: &Tracer) -> Vec<Metric> {
    let replay = pass.replay.as_ref();
    let p50 = |name, span: &str, scale, unit| {
        Metric::quantile(name, span_quantile(tracer, &[span], 50.0), scale, unit)
    };
    let ticks = ["serve.tick_admit", "serve.tick_decode"];

    let summary = pass
        .counts
        .serve
        .as_ref()
        .or_else(|| replay.and_then(|r| r.serve.as_ref()));
    let ticks_n = summary.map_or(0, |s| s.ticks as usize);
    let admitted = summary.map_or(0, |s| s.admitted);
    let from_summary = |name, f: fn(&MetricsSummary) -> f64, unit, samples| {
        Metric::new(name, summary.map_or(0.0, f), unit, samples)
    };

    let seq = span_quantile(tracer, &["engine.step_once.sequential"], 50.0);
    let pool = span_quantile(tracer, &["engine.step_once.worker_pool"], 50.0);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    // Each kernel span covers KERNEL_CALLS calls.
    let kernel = |name, span: &str| {
        let q = span_quantile(tracer, &[span], 50.0);
        let bytes = replay
            .and_then(|r| r.kernel_bytes.iter().find(|(k, _)| *k == span))
            .map_or(0, |&(_, b)| b);
        Metric {
            note: format!("p50 of {} batches; {bytes} bytes read per call", q.samples),
            ..Metric::new(name, q.value * 1e3 / KERNEL_CALLS as f64, "ns", q.samples)
        }
    };

    let mut stacks = pass.counts.stacks.clone();
    if let Some(r) = replay.and_then(|r| r.stack.as_ref()) {
        stacks.push((r.reallocations, r.metrics.layer_evictions.iter().sum()));
    }
    let per_stack = |name, f: fn(&(usize, u64)) -> f64| {
        Metric::new(
            name,
            mean(&stacks.iter().map(f).collect::<Vec<_>>()),
            "count",
            stacks.len(),
        )
    };

    let stats = &pass.model_stats;
    let steps = stats.decode_steps as usize;
    let per_step =
        |name, count: u64| Metric::new(name, count as f64 / steps.max(1) as f64, "count", steps);

    vec![
        Metric::quantile(
            "serve.tick_us.p50",
            span_quantile(tracer, &ticks, 50.0),
            1.0,
            "us",
        ),
        Metric::quantile(
            "serve.tick_us.p99",
            span_quantile(tracer, &ticks, 99.0),
            1.0,
            "us",
        ),
        p50("serve.tick_admit_us.p50", ticks[0], 1.0, "us"),
        p50("serve.tick_decode_us.p50", ticks[1], 1.0, "us"),
        from_summary(
            "serve.batch_size.mean",
            |s| s.steps_executed as f64 / s.ticks.max(1) as f64,
            "count",
            ticks_n,
        ),
        from_summary(
            "serve.queue_wait_ticks.p50",
            |s| s.p50_wait_ticks,
            "ticks",
            ticks_n,
        ),
        from_summary(
            "serve.preemptions",
            |s| s.preemptions as f64,
            "count",
            ticks_n,
        ),
        from_summary(
            "serve.wasted_steps",
            |s| s.wasted_steps as f64,
            "count",
            ticks_n,
        ),
        Metric::quantile(
            "loadgen.lag_ms.p99",
            plain_quantile(&pass.lag_ms, 99.0),
            1.0,
            "ms",
        ),
        p50("session.admit_us.p50", "session.admit", 1.0, "us"),
        p50(
            "session.prefill_matrix_us.p50",
            "session.prefill_matrix",
            1.0,
            "us",
        ),
        p50("session.reference_us.p50", "session.reference", 1.0, "us"),
        p50("session.step_us.p50", "session.step", 1.0, "us"),
        Metric::quantile("engine.step_once_us.sequential", seq, 1.0, "us"),
        Metric::quantile("engine.step_once_us.worker_pool", pool, 1.0, "us"),
        Metric {
            note: format!("base: sequential step_once p50; pool of {workers} workers"),
            ..Metric::new(
                "engine.pool_speedup",
                seq.value / pool.value,
                "ratio",
                pool.samples,
            )
        },
        Metric {
            note: "base: admissions".to_owned(),
            ..from_summary(
                "prefix.hit_ratio",
                |s| s.prefix_hits as f64 / s.admitted.max(1) as f64,
                "ratio",
                admitted as usize,
            )
        },
        from_summary(
            "prefix.pages_shared",
            |s| s.pages_shared as f64,
            "count",
            admitted as usize,
        ),
        Metric::new(
            "prefix.cow_copies",
            pass.counts.cow_copies as f64,
            "count",
            admitted as usize,
        ),
        p50("prefix.admit_hit_us.p50", "prefix.admit_hit", 1.0, "us"),
        kernel("kernels.dot_gather_ns", "kernels.dot_gather"),
        kernel("kernels.dot_gather_q_ns", "kernels.dot_gather_q"),
        kernel("kernels.attend_gather_ns", "kernels.attend_gather"),
        p50("stack.prefill_ms.p50", "stack.prefill", 1e-3, "ms"),
        p50("stack.step_us.p50", "stack.step", 1.0, "us"),
        per_stack("stack.reallocations", |s| s.0 as f64),
        per_stack("stack.evictions", |s| s.1 as f64),
        p50("core.load_prefill_ms.p50", "core.load_prefill", 1e-3, "ms"),
        p50("core.decode_step_us.p50", "core.decode_step", 1.0, "us"),
        per_step("core.cam_searches", stats.cam_searches),
        per_step("core.comparator_evals", stats.comparator_evals),
        per_step("core.adc_conversions", stats.adc_conversions),
        per_step("core.row_writes", stats.row_writes),
    ]
}

/// A number as JSON (every digit Rust's shortest round-trip form keeps).
fn json_number(x: f64) -> Res<String> {
    if x.is_finite() {
        Ok(format!("{x:?}"))
    } else {
        Err(format!("non-finite figure {x}"))
    }
}

/// The metrics as a JSON object of `{"value", "unit"}` records.
///
/// # Errors
///
/// A non-finite value.
pub fn metrics_json(metrics: &[Metric]) -> Res<String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value)?,
            m.unit
        );
    }
    out.push('}');
    Ok(out)
}

/// Prints every metric with its unit, sample count and note.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<32} {:>16.6} {:<6} n={:<7} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

/// Writes the traced pass's spans, per-layer metrics, self times and
/// tracing overhead (`(metric, untraced, traced)`) to
/// `perfbench/traces/<workload>-seed<seed>.json`.
///
/// # Errors
///
/// I/O errors and non-finite figures.
pub fn write_trace(
    args: &Args,
    host: &HostProvenance,
    load: &str,
    layer: &[Metric],
    overhead: &[(&'static str, f64, f64)],
    tracer: &Tracer,
) -> Res<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(fail)?;
    let path = dir.join(format!("{}-seed{}.json", args.name, args.seed));
    let mut body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"load\": \"{load}\", \
         \"backend\": \"{}\", \"nproc\": {},\n",
        args.name,
        args.seed,
        json_number(args.seconds)?,
        host.backend,
        host.nproc
    );
    let _ = writeln!(body, "\"per_layer\": {},", metrics_json(layer)?);
    body.push_str("\"overhead\": {");
    for (i, (name, untraced, traced)) in overhead.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"untraced\": {}, \"traced\": {}}}",
            json_number(*untraced)?,
            json_number(*traced)?
        );
    }
    body.push_str("},\n\"by_name\": [");
    for (i, (name, n, total, own)) in trace::by_name(tracer.spans()).iter().enumerate() {
        let sep = if i > 0 { ",\n" } else { "" };
        let _ = write!(
            body,
            "{sep}{{\"name\": \"{name}\", \"count\": {n}, \"total_us\": {}, \"self_us\": {}}}",
            json_number(*total)?,
            json_number(*own)?
        );
    }
    let _ = write!(
        body,
        "],\n\"spans\": {}}}\n",
        trace::spans_json(tracer.spans())
    );
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(fail)?);
    file.write_all(body.as_bytes()).map_err(fail)?;
    file.flush().map_err(fail)?;
    Ok(path)
}
