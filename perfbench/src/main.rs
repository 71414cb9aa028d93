//! Wall-clock benchmark of the UniCAIM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mixed|serve_shared_prefix|stack_decode|hw_engine> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up from its seed, measures it for the given
//! seconds, checks every output against a reference run (a mismatch
//! ends the run with an error and no figures), and prints every metric
//! with its unit and sample count. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`; with
//! `--trace 1` the per-layer metrics of a second, traced pass of the same
//! seed, whose spans are written to `perfbench/traces/`. See
//! `perfbench/METRICS.md` for the workloads and what each metric means.

#![forbid(unsafe_code)]

mod closed;
mod harness;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use unicaim_attention::workloads::DecodeWorkload;
use unicaim_bench::HostProvenance;
use unicaim_core::{HardwareRunResult, OpStats, UniCaimEngine};
use unicaim_kvcache::{MetricsSummary, SimResult};

use crate::harness::{fail, Metric, Res, Setup, Shape, Window};
use crate::layers::{Missing, ReplayCounts};
use crate::serve::Traffic;
use crate::stats::{mean, supported_quantile, Accounting, Timeline};
use crate::trace::Tracer;

/// Requests (or layer sequences) each workload feeds the hardware model
/// for its modeled energy and delay.
const MODEL_SAMPLE: usize = 16;
/// Requests the traced run replays through the lower layers.
const REPLAY_SAMPLE: usize = 24;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serve(Traffic),
    StackDecode,
    HwEngine,
}

impl Workload {
    fn parse(name: &str) -> Res<Self> {
        Ok(match name {
            "serve_mixed" => Self::Serve(Traffic::Mixed),
            "serve_shared_prefix" => Self::Serve(Traffic::SharedPrefix),
            "stack_decode" => Self::StackDecode,
            "hw_engine" => Self::HwEngine,
            other => return Err(format!("unknown workload {other:?}")),
        })
    }
}

/// Command-line arguments.
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?.to_owned();
    let seconds: f64 = value("--seconds")?.parse().map_err(fail)?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    Ok(Args {
        workload: Workload::parse(&name)?,
        name,
        seed: value("--seed")?.parse().map_err(fail)?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
        },
    })
}

/// How a workload offered load, and the counters its own layers kept.
struct Counts {
    /// How load was offered.
    load: String,
    /// The workload's own serving core summary, if it has one.
    serve: Option<MetricsSummary>,
    /// Copy-on-write page copies in its prefix registry.
    cow_copies: u64,
    /// `(reallocations, evictions)` of every stack it decoded.
    stacks: Vec<(usize, u64)>,
}

/// Everything one measured pass produced.
struct Pass {
    e2e: Vec<Metric>,
    accounting: Accounting,
    /// Submission lateness (open loop) or client gap (closed loop), ms.
    lag_ms: Vec<f64>,
    counts: Counts,
    /// Hardware-model statistics summed over the model sample.
    model_stats: OpStats,
    replay: Option<ReplayCounts>,
}

/// What a workload's own run hands to the tail every pass shares.
struct Ran<'a> {
    window: Window,
    setup: &'a Setup,
    shape: Shape,
    /// The hardware engine at the workload's shape.
    template: &'a UniCaimEngine,
    /// `UniCaimEngine::run` results of the model sample.
    model_runs: &'a [HardwareRunResult],
    /// Decode results the fidelity metrics average.
    results: Vec<&'a SimResult>,
    replay_sample: Vec<&'a DecodeWorkload>,
    missing: Missing,
    counts: Counts,
}

fn end_to_end(ran: &Ran, energy_pj: f64, delay_ns: f64) -> Res<Vec<Metric>> {
    let w = &ran.window;
    let ttft: Vec<f64> = w.timelines.iter().map(Timeline::ttft).collect();
    let tpot: Vec<f64> = w.timelines.iter().filter_map(Timeline::tpot).collect();
    let q = |samples: &[f64], p: f64, what: &str| {
        supported_quantile(samples, p).ok_or_else(|| {
            format!(
                "{} {what} samples leave fewer than ten beyond p{p}",
                samples.len()
            )
        })
    };
    let tail = w.tail_percentile;
    let n = ran.results.len();
    let fidelity =
        |f: fn(&SimResult) -> f64| mean(&ran.results.iter().map(|s| f(s)).collect::<Vec<_>>());
    let model_n = ran.model_runs.len();
    let sent = w.accounting.sent;
    Ok(vec![
        Metric {
            note: "sum of per-phase median unit times × units".to_owned(),
            ..Metric::new("setup_s", ran.setup.seconds(), "s", ran.setup.units())
        },
        Metric::quantile("ttft_p50_ms", q(&ttft, 50.0, "TTFT")?, 1e3, "ms"),
        Metric::quantile("ttft_p99_ms", q(&ttft, tail, "TTFT")?, 1e3, "ms"),
        Metric::quantile("tpot_p50_us", q(&tpot, 50.0, "TPOT")?, 1e6, "us"),
        Metric::quantile("tpot_p99_us", q(&tpot, tail, "TPOT")?, 1e6, "us"),
        Metric::new(
            "tokens_per_s",
            w.tokens as f64 / w.wall_s,
            "tok/s",
            w.timelines.len(),
        ),
        Metric::new(
            "slo_attainment",
            w.accounting.slo_attainment(),
            "ratio",
            sent,
        ),
        Metric::new(
            "served_share",
            1.0 - w.accounting.error_share(),
            "ratio",
            sent,
        ),
        Metric::new("output_cosine", fidelity(|s| s.output_cosine), "ratio", n),
        Metric::new(
            "retrieval_accuracy",
            fidelity(|s| s.retrieval_accuracy),
            "ratio",
            n,
        ),
        Metric::new("modeled_energy_pj_per_token", energy_pj, "sim-pJ", model_n),
        Metric::new("modeled_delay_ns_per_token", delay_ns, "sim-ns", model_n),
        Metric {
            note: "window peak above the resident set once inputs were generated".to_owned(),
            ..Metric::new(
                "peak_rss_mb",
                (w.peak_rss_kib - ran.setup.inputs_rss_kib()) / 1024.0,
                "MiB",
                1,
            )
        },
    ])
}

/// The tail every pass shares: the modeled hardware cost, the layer
/// replay when tracing, and the end-to-end metrics.
fn finish(ran: Ran, tracer: &mut Tracer) -> Res<Pass> {
    let (model_stats, energy_pj, delay_ns) = layers::modeled_cost(ran.template, ran.model_runs);
    let replay = tracer
        .enabled()
        .then(|| {
            layers::replay(
                ran.shape,
                &ran.replay_sample,
                ran.template,
                ran.missing,
                tracer,
            )
        })
        .transpose()?;
    Ok(Pass {
        e2e: end_to_end(&ran, energy_pj, delay_ns)?,
        accounting: ran.window.accounting,
        lag_ms: ran.window.lag_ms,
        counts: ran.counts,
        model_stats,
        replay,
    })
}

/// Sets the workload up, measures it, checks its outputs, models its
/// hardware cost, and (when tracing) replays it through every layer.
fn run_pass(args: &Args, tracer: &mut Tracer) -> Res<Pass> {
    match args.workload {
        Workload::Serve(traffic) => {
            let p = serve::prepare(traffic, args.seed, args.seconds)?;
            let m = p.measure(tracer)?;
            p.check(&m)?;
            let template = p.shape.engine(p.workloads[0].dim)?;
            let model_runs = layers::model(&template, &p.sample(MODEL_SAMPLE))?;
            finish(
                Ran {
                    window: m.window,
                    setup: &p.setup,
                    shape: p.shape,
                    template: &template,
                    model_runs: &model_runs,
                    results: m.results.iter().map(|(_, r)| r).collect(),
                    replay_sample: p.sample(REPLAY_SAMPLE),
                    missing: Missing {
                        serve: false,
                        stack: true,
                        core: true,
                    },
                    counts: Counts {
                        load: format!("open loop, Poisson {} req/s", serve::rate(traffic)),
                        serve: Some(m.summary),
                        cow_copies: m.cow_copies,
                        stacks: Vec::new(),
                    },
                },
                tracer,
            )
        }
        Workload::StackDecode => {
            let s = closed::Stacks::prepare(args.seed)?;
            let (window, ran, results) = s.measure(args.seconds, tracer)?;
            let reference = s.check(&ran, &results)?;
            let flat: Vec<_> = s.pool.iter().flatten().collect();
            let template = s.shape.engine(flat[0].dim)?;
            let model_runs = layers::model(&template, &flat[..MODEL_SAMPLE])?;
            finish(
                Ran {
                    window,
                    setup: &s.setup,
                    shape: s.shape,
                    template: &template,
                    model_runs: &model_runs,
                    // Each pool entry that ran counts once: its reference
                    // equals every run of it.
                    results: reference.iter().flat_map(|r| &r.per_layer).collect(),
                    replay_sample: flat[..REPLAY_SAMPLE].to_vec(),
                    missing: Missing {
                        serve: true,
                        stack: false,
                        core: true,
                    },
                    counts: Counts {
                        load: "closed loop, 1 client".to_owned(),
                        serve: None,
                        cow_copies: 0,
                        stacks: results
                            .iter()
                            .map(|r| (r.reallocations, r.metrics.layer_evictions.iter().sum()))
                            .collect(),
                    },
                },
                tracer,
            )
        }
        Workload::HwEngine => {
            let h = closed::Hardware::prepare(args.seed)?;
            let (window, stats) = h.measure(args.seconds, tracer)?;
            let pool: Vec<_> = h.pool.iter().collect();
            let model_runs = layers::model(&h.template, &pool)?;
            h.check(&stats, &model_runs)?;
            finish(
                Ran {
                    window,
                    setup: &h.setup,
                    shape: h.shape,
                    template: &h.template,
                    model_runs: &model_runs,
                    results: model_runs.iter().map(|r| &r.metrics).collect(),
                    replay_sample: pool,
                    missing: Missing {
                        serve: true,
                        stack: true,
                        core: false,
                    },
                    counts: Counts {
                        load: "closed loop, 1 client".to_owned(),
                        serve: None,
                        cow_copies: 0,
                        stacks: Vec::new(),
                    },
                },
                tracer,
            )
        }
    }
}

fn run() -> Res<()> {
    let args = parse_args()?;
    let host = HostProvenance::capture();
    host.warn_if_scalar();
    host.warn_if_single_core();
    let base = run_pass(&args, &mut Tracer::new(false))?;
    println!(
        "workload {} seed {} seconds {}: {}; kernel tier {}, nproc {}",
        args.name, args.seed, args.seconds, base.counts.load, host.backend, host.nproc
    );
    let a = base.accounting;
    println!(
        "requests: sent {} succeeded {} rejected {} failed {} (within SLO {})",
        a.sent, a.succeeded, a.rejected, a.failed, a.within_slo
    );
    report::print_table("end-to-end (untraced):", &base.e2e);
    let (report, accounting) = if args.trace {
        let mut tracer = Tracer::new(true);
        let traced = run_pass(&args, &mut tracer)?;
        let layer = report::per_layer(&traced, &tracer);
        report::print_table("per-layer (traced pass, with layer replay):", &layer);
        let overhead: Vec<_> = base
            .e2e
            .iter()
            .zip(&traced.e2e)
            .map(|(u, t)| (u.name, u.value, t.value))
            .collect();
        println!("tracing overhead (traced − untraced):");
        for (name, u, t) in &overhead {
            println!("  {name:<32} {:>+16.6}", t - u);
        }
        let path = report::write_trace(
            &args,
            &host,
            &traced.counts.load,
            &layer,
            &overhead,
            &tracer,
        )?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        (layer, traced.accounting)
    } else {
        (base.e2e, base.accounting)
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        accounting.sent,
        accounting.rejected + accounting.failed,
        report::metrics_json(&report)?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
