//! Batched multi-sequence decode: eight concurrent sequences (a mix of
//! needle, multi-hop, and summary tasks at different context lengths)
//! time-share one UniCAIM-sized slot budget, each with its own KV state and
//! pruning-policy state — the serving-style counterpart of the
//! single-sequence `long_context_decode` example.
//!
//! Three stops:
//!
//! 1. run the batch closed-loop on a `ServeCore` — every request submitted
//!    at tick 0, then drained — under the `Sequential` scheduler;
//! 2. run it again under the `WorkerPool` scheduler and check every
//!    request's result is identical to the bit;
//! 3. admit a single sequence as a `DecodeSession` and drive it step by
//!    step, watching the per-step outcomes a serving loop would see.
//!
//! Run with: `cargo run --release --example batched_decode`

use std::time::Instant;

use unicaim_repro::attention::workloads::{mixed_batch, needle_task};
use unicaim_repro::kvcache::{
    DecodeSession, PolicySpec, Priority, SchedulerSpec, ServeConfig, ServeCore, ServeReport,
    SimConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batch_size = 8;
    let share = 96; // per-sequence slot share of the shared array
    let m = 16; // reserved decode slots per sequence
    let k = 32; // dynamic top-k width

    let workloads = mixed_batch(batch_size, 192, 24, 11);
    let config = ServeConfig::new(share * batch_size, share, k);
    let spec = PolicySpec::hybrid_for_share(share, m, k);

    // 1 + 2. One closed batch, two schedulers.
    let mut reports: Vec<ServeReport> = Vec::new();
    for scheduler in [
        SchedulerSpec::Sequential,
        SchedulerSpec::WorkerPool { workers: 0 },
    ] {
        let start = Instant::now();
        let mut core = ServeCore::new(config.with_scheduler(scheduler))?;
        for workload in &workloads {
            core.submit(workload, spec.clone(), 0, Priority::Normal)?;
        }
        core.drain()?;
        let report = core.report();
        println!(
            "{scheduler:?}: {} sequences, {} tokens in {} ticks, {:.1} ms end-to-end",
            report.batch.n_sequences,
            report.batch.total_steps,
            core.now(),
            1e3 * start.elapsed().as_secs_f64(),
        );
        reports.push(report);
    }
    assert_eq!(
        reports[0].completed, reports[1].completed,
        "schedulers must agree to the bit (sequences are independent)"
    );
    println!("both schedulers produced identical per-request results\n");

    let report = &reports[0];
    println!(
        "batch of {batch_size} sequences sharing {} KV slots ({share} per sequence), \
         {} policy\n",
        config.total_capacity,
        spec.name()
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "sequence", "prompt", "steps", "answers", "recall%", "accuracy%", "out-cosine"
    );
    let mut completed: Vec<_> = report.completed.iter().collect();
    completed.sort_by_key(|c| c.id);
    for c in completed {
        // Request ids are assigned in submission order: id i is workload i.
        let (w, r) = (&workloads[c.id], &c.result);
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>10.1} {:>12.1} {:>12.3}",
            r.workload,
            w.prefill_keys.len(),
            r.steps,
            r.answer_steps,
            100.0 * r.salient_recall,
            100.0 * r.retrieval_accuracy,
            r.output_cosine,
        );
    }

    let batch = &report.batch;
    println!(
        "\naggregate: {} tokens generated, recall {:.1}% over {} answer steps, \
         output cosine {:.3}",
        batch.total_steps,
        100.0 * batch.salient_recall,
        batch.total_answer_steps,
        batch.output_cosine,
    );
    println!(
        "peak shared-array occupancy: {}/{} slots",
        batch.peak_resident, batch.total_capacity
    );
    println!(
        "\nThe shared budget is statically partitioned: each sequence owns a\n\
         fixed share of the array's rows and keeps its own eviction/selection\n\
         state, so one noisy sequence can neither evict another's needle nor\n\
         borrow another's free slots.\n"
    );

    // 3. One sequence, stepped incrementally.
    let workload = needle_task(192, 16, 3);
    let session_config = SimConfig::reserved_decode_slots(share, k, m);
    let mut session = DecodeSession::prefill(&workload, spec.build(), &session_config)?;
    println!(
        "incremental session: {} prompt tokens kept of {}, {} decode steps",
        session.resident(),
        workload.prefill_keys.len(),
        session.steps(),
    );
    while !session.is_done() {
        let outcome = session.step()?;
        if outcome.step % 4 == 0 {
            println!(
                "  step {:>2}: selected {:>2} tokens, {:>2} resident after insert, \
                 {} steps remaining",
                outcome.step, outcome.selected, outcome.resident, outcome.remaining,
            );
        }
    }
    let result = session.finish();
    println!(
        "retired: recall {:.1}% over {} answer steps, output cosine {:.3}",
        100.0 * result.salient_recall,
        result.answer_steps,
        result.output_cosine,
    );
    Ok(())
}
