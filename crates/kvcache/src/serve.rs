//! The continuous-batching serving core: a long-lived, multi-tenant front
//! end over [`DecodeSession`]s.
//!
//! A [`ServeCore`] runs **open-loop**: requests arrive over time, wait in
//! bounded per-tenant queues, are admitted against the shared slot
//! budget, decode alongside whatever else is mid-flight, and retire
//! individually — there is no drain-to-empty barrier between arrivals
//! (vLLM-style continuous batching). A *closed* batch is the special case
//! where every request is submitted at tick 0 and the core is drained.
//! The moving parts:
//!
//! * **Admission control** — each admitted request is charged a fixed
//!   session share ([`ServeConfig::session_slots`]) against
//!   [`ServeConfig::total_capacity`]; arrivals that do not fit wait in
//!   their tenant's queue, and a queue at
//!   [`ServeConfig::queue_limit`] bounces the submission (backpressure).
//! * **Per-tenant round-robin fairness** — admission cycles a cursor over
//!   the tenant queues, so one chatty tenant cannot starve the rest.
//! * **Priority preemption** — a queued [`Priority::High`] request that
//!   cannot fit evicts the most recently admitted `Normal` session; the
//!   victim's decoded tokens are discarded and the request is requeued at
//!   the *front* of its tenant queue for a fresh re-prefill (the
//!   re-prefill makes its eventual output bit-identical to an undisturbed
//!   run — pinned by a property test).
//! * **Virtual time** — one [`ServeCore::tick`] advances every running
//!   session by one decode step. All latency metrics
//!   ([`ServerMetrics`](crate::ServerMetrics)) are measured in ticks, so a
//!   serving trace produces bit-identical numbers on every machine; wall
//!   clock enters only when a bench times a whole run.
//!
//! Per-tick stepping goes through the [`Scheduler`] seam
//! ([`Scheduler::step_once`]): sessions are independent, so the
//! `WorkerPool` fan-out produces the same report as `Sequential`, to the
//! bit.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};
use unicaim_attention::workloads::{ArrivalEvent, DecodeWorkload};
use unicaim_attention::Precision;

use crate::engine::{Scheduler, SchedulerSpec};
use crate::error::HarnessError;
use crate::metrics::{MetricsSummary, ServerMetrics};
use crate::prefix::PrefixRegistry;
use crate::session::{validate_workload, DecodeSession};
use crate::sim::{SimConfig, SimResult};
use crate::spec::PolicySpec;

/// Scheduling class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Default class: queued FIFO, preemptible.
    Normal,
    /// Latency-sensitive class: jumps ahead of `Normal` requests in its
    /// tenant queue and may preempt a running `Normal` session when the
    /// slot budget is full. Never preempted itself.
    High,
}

/// Configuration of a [`ServeCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Shared KV-slot budget across all concurrently running sessions
    /// (the UniCAIM array's row count).
    pub total_capacity: usize,
    /// Slots charged per admitted request — its session's cache capacity.
    /// `total_capacity / session_slots` requests can run at once.
    pub session_slots: usize,
    /// Dynamic top-k width for every session.
    pub k: usize,
    /// Decode slots reserved per session: the prefill budget is
    /// `session_slots − reserved_decode_slots` (see
    /// [`SimConfig::reserved_decode_slots`](crate::SimConfig::reserved_decode_slots)).
    pub reserved_decode_slots: usize,
    /// Key-arena storage precision for every session.
    pub precision: Precision,
    /// Bound on each tenant's queue; a submission to a full queue is
    /// rejected (counted, never silently dropped). Preemption requeues are
    /// exempt — a preempted request never bounces.
    pub queue_limit: usize,
    /// How each tick's per-session steps are scheduled. Sessions are
    /// independent, so every choice yields a bit-identical
    /// [`ServeReport`].
    pub scheduler: SchedulerSpec,
}

impl ServeConfig {
    /// A sequentially scheduled core sharing `total_capacity` slots in
    /// `session_slots` shares with top-`k` selection, no reserved decode
    /// slots, f32 arenas, and a queue bound of 16 per tenant.
    #[must_use]
    pub fn new(total_capacity: usize, session_slots: usize, k: usize) -> Self {
        Self {
            total_capacity,
            session_slots,
            k,
            reserved_decode_slots: 0,
            precision: Precision::F32,
            queue_limit: 16,
            scheduler: SchedulerSpec::Sequential,
        }
    }

    /// Sets the per-session reserved decode slots (builder-style).
    #[must_use]
    pub fn with_reserved_decode_slots(mut self, m: usize) -> Self {
        self.reserved_decode_slots = m;
        self
    }

    /// Sets the key-arena storage precision (builder-style).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the per-tenant queue bound (builder-style).
    #[must_use]
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }

    /// Sets the per-tick scheduler (builder-style).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Maximum concurrently running sessions.
    #[must_use]
    pub fn max_concurrent(&self) -> usize {
        self.total_capacity
            .checked_div(self.session_slots)
            .unwrap_or(0)
    }

    /// The [`SimConfig`] every admitted session runs under.
    #[must_use]
    pub fn session_config(&self) -> SimConfig {
        SimConfig::reserved_decode_slots(self.session_slots, self.k, self.reserved_decode_slots)
            .with_precision(self.precision)
    }

    /// Checks the configuration can serve at all.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidServeConfig`] for a zero session share, a
    /// share larger than the total budget, a zero queue bound, a zero `k`,
    /// or reserved decode slots that leave no prefill budget.
    pub fn validate(&self) -> Result<(), HarnessError> {
        let fail = |reason: String| Err(HarnessError::InvalidServeConfig { reason });
        if self.session_slots == 0 {
            return fail("session share of 0 slots cannot hold a session".into());
        }
        if self.session_slots > self.total_capacity {
            return fail(format!(
                "session share of {} slots exceeds the total budget of {} slots",
                self.session_slots, self.total_capacity
            ));
        }
        if self.k == 0 {
            return fail("top-k width of 0 selects nothing".into());
        }
        if self.queue_limit == 0 {
            return fail("queue limit of 0 rejects every submission".into());
        }
        if self.reserved_decode_slots >= self.session_slots {
            return fail(format!(
                "{} reserved decode slots leave no prefill budget in a {}-slot share",
                self.reserved_decode_slots, self.session_slots
            ));
        }
        Ok(())
    }
}

/// What [`ServeCore::submit`] did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitOutcome {
    /// Accepted into its tenant's queue; the id keys the eventual
    /// [`CompletedRequest`].
    Queued {
        /// Request id (assigned in submission order).
        id: usize,
    },
    /// Bounced: the tenant's queue was at [`ServeConfig::queue_limit`].
    Rejected,
}

/// A retired request with its serving timeline and decode result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// Request id from [`SubmitOutcome::Queued`].
    pub id: usize,
    /// Tenant that submitted it.
    pub tenant: usize,
    /// Scheduling class.
    pub priority: Priority,
    /// Tick the request was submitted at.
    pub arrival_tick: u64,
    /// Tick its first token was generated at (after its *final*
    /// admission, so a preempted request's TTFT includes the re-prefill).
    pub first_token_tick: u64,
    /// Tick it retired at.
    pub completion_tick: u64,
    /// Times it was preempted before completing.
    pub preemptions: u32,
    /// The decode result — bit-identical to running the sequence alone
    /// under [`ServeConfig::session_config`], whatever happened around it.
    pub result: SimResult,
}

/// The completed requests of a [`ServeReport`] folded into batch-level
/// aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResult {
    /// Per-request results, in completion order — each is exactly what
    /// [`simulate_decode`](crate::simulate_decode) would report for that
    /// sequence under [`ServeConfig::session_config`].
    pub per_sequence: Vec<SimResult>,
    /// Number of completed requests.
    pub n_sequences: usize,
    /// The shared slot budget the core ran under.
    pub total_capacity: usize,
    /// Total decode steps executed across all completed requests (=
    /// generated tokens, the numerator of a tokens/sec throughput figure).
    pub total_steps: usize,
    /// Total answer steps aggregated across requests (weight of the
    /// salience means below; 0 means the batch had nothing to retrieve).
    pub total_answer_steps: usize,
    /// Step-weighted mean output cosine across the batch (the per-step
    /// mean a single flat run over all steps would report, folded in
    /// completion order).
    pub output_cosine: f64,
    /// Answer-step-weighted mean salient recall across the batch.
    pub salient_recall: f64,
    /// Answer-step-weighted mean retrieval accuracy across the batch.
    pub retrieval_accuracy: f64,
    /// Peak total resident tokens across the running sessions at any tick
    /// — the shared array's high-water occupancy. Bounded by
    /// `total_capacity` by construction (each session owns a fixed share
    /// of the budget); reported so under-utilization is visible.
    pub peak_resident: usize,
}

/// Folds per-request results into the batch aggregate. Weighting each
/// request's mean by its step (resp. answer-step) count reconstructs the
/// global per-step mean.
fn aggregate(
    per_sequence: Vec<SimResult>,
    total_capacity: usize,
    peak_resident: usize,
) -> BatchResult {
    let n = per_sequence.len();
    let total_steps: usize = per_sequence.iter().map(|r| r.steps).sum();
    let total_answer_steps: usize = per_sequence.iter().map(|r| r.answer_steps).sum();
    let weighted = |f: fn(&SimResult) -> f64, w: fn(&SimResult) -> usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            per_sequence.iter().map(|r| f(r) * w(r) as f64).sum::<f64>() / total as f64
        }
    };
    let output_cosine = weighted(|r| r.output_cosine, |r| r.steps, total_steps);
    let salient_recall = weighted(|r| r.salient_recall, |r| r.answer_steps, total_answer_steps);
    let retrieval_accuracy = weighted(
        |r| r.retrieval_accuracy,
        |r| r.answer_steps,
        total_answer_steps,
    );

    BatchResult {
        per_sequence,
        n_sequences: n,
        total_capacity,
        total_steps,
        total_answer_steps,
        output_cosine,
        salient_recall,
        retrieval_accuracy,
        peak_resident,
    }
}

/// End-of-run report: per-request results plus the aggregate views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Every retired request, in completion order.
    pub completed: Vec<CompletedRequest>,
    /// The completed requests folded into step-weighted batch means.
    pub batch: BatchResult,
    /// The serving metrics summary.
    pub summary: MetricsSummary,
}

/// A request waiting in (or bounced back to) a tenant queue.
struct Pending<'w> {
    id: usize,
    tenant: usize,
    priority: Priority,
    arrival_tick: u64,
    preemptions: u32,
    workload: &'w DecodeWorkload,
    spec: PolicySpec,
}

/// Bookkeeping for one running session (kept in a vec parallel to the
/// sessions so the scheduler can borrow the bare `&mut [DecodeSession]`).
struct RunningMeta<'w> {
    request: Pending<'w>,
    first_token_tick: Option<u64>,
}

/// The continuous-batching serving core. See the module docs for
/// the scheduling model.
///
/// ```
/// use unicaim_attention::workloads::needle_task;
/// use unicaim_kvcache::{PolicySpec, Priority, ServeConfig, ServeCore, SubmitOutcome};
///
/// let workload = needle_task(64, 8, 3);
/// let mut core = ServeCore::new(ServeConfig::new(96, 48, 8)).unwrap();
/// let spec = PolicySpec::hybrid_for_share(48, 0, 8);
/// let outcome = core
///     .submit(&workload, spec, 0, Priority::Normal)
///     .unwrap();
/// assert_eq!(outcome, SubmitOutcome::Queued { id: 0 });
/// core.drain().unwrap();
/// let report = core.report();
/// assert_eq!(report.summary.completed, 1);
/// ```
pub struct ServeCore<'w> {
    config: ServeConfig,
    session_config: SimConfig,
    scheduler: Box<dyn Scheduler>,
    /// Per-tenant queues keyed by tenant id. A tenant's queue is created
    /// on its first submission and kept, so any id — up to `usize::MAX` —
    /// costs one map entry.
    queues: BTreeMap<usize, VecDeque<Pending<'w>>>,
    /// The tenant id the next admission scan starts at.
    rr_cursor: usize,
    running: Vec<RunningMeta<'w>>,
    sessions: Vec<DecodeSession<'w, 'static>>,
    completed: Vec<CompletedRequest>,
    metrics: ServerMetrics,
    tick: u64,
    next_id: usize,
    prefix_registry: Option<PrefixRegistry>,
}

impl<'w> ServeCore<'w> {
    /// Creates the core, building the scheduler named by the config.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidServeConfig`] from
    /// [`ServeConfig::validate`].
    pub fn new(config: ServeConfig) -> Result<Self, HarnessError> {
        config.validate()?;
        Ok(Self {
            session_config: config.session_config(),
            scheduler: config.scheduler.build(),
            queues: BTreeMap::new(),
            rr_cursor: 0,
            running: Vec::new(),
            sessions: Vec::new(),
            completed: Vec::new(),
            metrics: ServerMetrics::new(config.total_capacity),
            tick: 0,
            next_id: 0,
            prefix_registry: None,
            config,
        })
    }

    /// Equips the core with a shared [`PrefixRegistry`]: every admission
    /// (initial or re-admission after preemption) goes through
    /// [`DecodeSession::prefill_shared`], so requests from *any* tenant
    /// that share a prefix splice its cached pages instead of
    /// re-prefilling, and the reuse shows up in
    /// [`ServerMetrics`](crate::ServerMetrics) (`prefix_hits`,
    /// `pages_shared`, `prefix_bytes_saved`). Cloned registries share one
    /// cache, so several cores can draw from the same pool.
    ///
    /// Admission results stay bit-identical with or without a registry
    /// (see [`DecodeSession::prefill_shared`]); a dimension mismatch
    /// between registry and workload surfaces as
    /// [`HarnessError::PrefixDimMismatch`] at admission time.
    #[must_use]
    pub fn with_prefix_registry(mut self, registry: PrefixRegistry) -> Self {
        self.prefix_registry = Some(registry);
        self
    }

    /// The shared prefix registry, when one is equipped.
    #[must_use]
    pub fn prefix_registry(&self) -> Option<&PrefixRegistry> {
        self.prefix_registry.as_ref()
    }

    /// The core's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current virtual time (ticks run so far).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Requests currently waiting across all tenant queues.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Sessions currently decoding.
    #[must_use]
    pub fn running(&self) -> usize {
        self.sessions.len()
    }

    /// Slots currently charged to running sessions.
    #[must_use]
    pub fn occupied_slots(&self) -> usize {
        self.running() * self.config.session_slots
    }

    /// Slots still free for admission.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.config.total_capacity - self.occupied_slots()
    }

    /// The live metric accumulators (counters and per-tick samples).
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Submits a request for `tenant` at the current tick.
    ///
    /// High-priority requests enter their tenant queue ahead of every
    /// queued `Normal` request (but behind earlier `High` ones). A full
    /// queue rejects the submission — the caller sees
    /// [`SubmitOutcome::Rejected`] and the rejection counter moves, but
    /// nothing is silently dropped.
    ///
    /// # Errors
    ///
    /// [`HarnessError::InvalidSpec`] when `spec` cannot run under this
    /// core's per-session config ([`PolicySpec::validate_for`]), and
    /// [`HarnessError::EmptyWorkload`] when `workload` has no decode
    /// steps, and [`HarnessError::InvalidWorkload`] when its rows or
    /// vectors disagree in shape — checked here so a bad request fails at
    /// the front door, not mid-flight.
    pub fn submit(
        &mut self,
        workload: &'w DecodeWorkload,
        spec: PolicySpec,
        tenant: usize,
        priority: Priority,
    ) -> Result<SubmitOutcome, HarnessError> {
        spec.validate_for(&self.session_config)?;
        if workload.decode_queries.is_empty() {
            return Err(HarnessError::EmptyWorkload);
        }
        validate_workload(workload)?;
        self.metrics.note_submitted(self.tick);
        let queue = self.queues.entry(tenant).or_default();
        if queue.len() >= self.config.queue_limit {
            self.metrics.note_rejected();
            return Ok(SubmitOutcome::Rejected);
        }
        let id = self.next_id;
        self.next_id += 1;
        let pending = Pending {
            id,
            tenant,
            priority,
            arrival_tick: self.tick,
            preemptions: 0,
            workload,
            spec,
        };
        match priority {
            Priority::Normal => queue.push_back(pending),
            Priority::High => {
                // Ahead of queued Normals, behind earlier Highs (and behind
                // any preemption requeue holding the head).
                let at = queue
                    .iter()
                    .position(|p| p.priority == Priority::Normal && p.preemptions == 0)
                    .unwrap_or(queue.len());
                queue.insert(at, pending);
            }
        }
        Ok(SubmitOutcome::Queued { id })
    }

    /// Runs one virtual time step: preempt → admit → decode → retire.
    ///
    /// 1. queued `High` requests that cannot fit evict the most recently
    ///    admitted `Normal` sessions (victims requeue at the front of
    ///    their tenant queue, decoded tokens discarded);
    /// 2. the admission cursor cycles the tenant queues round-robin —
    ///    `High` queue heads first, then `Normal` — admitting while slots
    ///    remain (admission runs the prefill);
    /// 3. every running session advances one decode step (through the
    ///    configured [`Scheduler`]);
    /// 4. finished sessions retire into [`CompletedRequest`]s.
    ///
    /// # Errors
    ///
    /// Any [`HarnessError`] raised by a session's prefill or step
    /// (harness ↔ policy contract violations).
    pub fn tick(&mut self) -> Result<(), HarnessError> {
        self.preempt_for_queued_high();
        self.admit_from_queues()?;

        // Decode: one step per running session, through the scheduler
        // seam. Every running session has work by invariant (finished
        // sessions retire at the end of the tick they finish in).
        let steps = self.sessions.len();
        self.scheduler.step_once(&mut self.sessions)?;
        for (meta, session) in self.running.iter_mut().zip(&self.sessions) {
            debug_assert!(session.tokens_generated() > 0);
            if meta.first_token_tick.is_none() {
                meta.first_token_tick = Some(self.tick);
                self.metrics
                    .note_first_token(self.tick - meta.request.arrival_tick);
            }
        }

        let resident_tokens: usize = self.sessions.iter().map(DecodeSession::resident).sum();
        self.metrics.sample_tick(
            self.queue_depth(),
            self.occupied_slots(),
            steps,
            resident_tokens,
        );

        // Retire finished sessions (preserving order for the survivors).
        for i in (0..self.sessions.len()).rev() {
            if self.sessions[i].is_done() {
                let session = self.sessions.remove(i);
                let meta = self.running.remove(i);
                let result = session.finish();
                self.metrics
                    .note_completed(self.tick - meta.request.arrival_tick, result.steps);
                // lint:allow(no-panic-in-lib): is_done() requires at least one generated token, and the first step always records first_token_tick
                let first_token_tick = meta.first_token_tick.expect("finished implies a token");
                self.completed.push(CompletedRequest {
                    id: meta.request.id,
                    tenant: meta.request.tenant,
                    priority: meta.request.priority,
                    arrival_tick: meta.request.arrival_tick,
                    first_token_tick,
                    completion_tick: self.tick,
                    preemptions: meta.request.preemptions,
                    result,
                });
            }
        }

        self.tick += 1;
        Ok(())
    }

    /// Evicts `Normal` sessions (most recently admitted first) until every
    /// queued `High` request could fit, or no victim remains.
    fn preempt_for_queued_high(&mut self) {
        let mut queued_high = self
            .queues
            .values()
            .flatten()
            .filter(|p| p.priority == Priority::High)
            .count();
        while queued_high * self.config.session_slots > self.free_slots() {
            let Some(victim) = self
                .running
                .iter()
                .rposition(|m| m.request.priority == Priority::Normal)
            else {
                break;
            };
            let session = self.sessions.remove(victim);
            let mut meta = self.running.remove(victim);
            self.metrics.note_preempted(session.tokens_generated());
            meta.request.preemptions += 1;
            // Head-of-line requeue: the victim re-prefills as soon as slots
            // free up again, keeping its original arrival tick (the queue
            // bound does not apply — a preempted request never bounces).
            self.queues
                .entry(meta.request.tenant)
                .or_default()
                .push_front(meta.request);
            queued_high = queued_high.saturating_sub(1);
        }
    }

    /// Round-robin admission over the tenant queues: `High` queue heads
    /// first, then any head, while free slots remain. The cursor walks
    /// tenant ids in ascending order from just past the last admitted
    /// tenant, wrapping to the smallest id after the largest.
    fn admit_from_queues(&mut self) -> Result<(), HarnessError> {
        if self.queues.is_empty() {
            return Ok(());
        }
        for high_only in [true, false] {
            loop {
                if self.free_slots() < self.config.session_slots {
                    return Ok(());
                }
                let cursor = self.rr_cursor;
                let claimed = self
                    .queues
                    .range(cursor..)
                    .chain(self.queues.range(..cursor))
                    .find(|(_, queue)| {
                        queue
                            .front()
                            .is_some_and(|p| !high_only || p.priority == Priority::High)
                    })
                    .map(|(&tenant, _)| tenant);
                let Some(tenant) = claimed else { break };
                // `claimed` saw a front element; a vanished one means the
                // cursor scan raced itself, so just stop admitting.
                let Some(pending) = self.queues.get_mut(&tenant).and_then(VecDeque::pop_front)
                else {
                    break;
                };
                // Past the largest tenant id the walk wraps to the smallest
                // (this also keeps `tenant + 1` from overflowing).
                let largest = self.queues.keys().next_back().copied();
                self.rr_cursor = if largest == Some(tenant) {
                    0
                } else {
                    tenant + 1
                };
                self.admit(pending)?;
            }
        }
        Ok(())
    }

    /// Prefills one request into a running session — through the shared
    /// prefix registry when one is equipped.
    fn admit(&mut self, pending: Pending<'w>) -> Result<(), HarnessError> {
        let session = match &self.prefix_registry {
            Some(registry) => {
                let (session, reuse) = DecodeSession::prefill_shared(
                    pending.workload,
                    &pending.spec,
                    &self.session_config,
                    registry,
                )?;
                self.metrics.note_prefix_reuse(
                    reuse.prefix_hit,
                    reuse.pages_shared,
                    reuse.bytes_saved,
                );
                session
            }
            None => DecodeSession::prefill(
                pending.workload,
                pending.spec.build(),
                &self.session_config,
            )?,
        };
        self.metrics
            .note_admitted(self.tick - pending.arrival_tick, pending.preemptions > 0);
        self.running.push(RunningMeta {
            request: pending,
            first_token_tick: None,
        });
        self.sessions.push(session);
        Ok(())
    }

    /// Ticks until every queued and running request has retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeCore::tick`] error.
    pub fn drain(&mut self) -> Result<(), HarnessError> {
        while self.running() > 0 || self.queue_depth() > 0 {
            self.tick()?;
        }
        Ok(())
    }

    /// Replays an arrival trace to completion: submits each event at its
    /// tick (minting its policy through `spec_for`), ticking the core
    /// through the gaps, then drains.
    ///
    /// # Errors
    ///
    /// Any [`ServeCore::submit`] or [`ServeCore::tick`] error; also
    /// [`HarnessError::InvalidServeConfig`] if `events` is not sorted by
    /// arrival tick (a scrambled trace would silently warp every latency
    /// metric).
    pub fn run(
        &mut self,
        events: &'w [ArrivalEvent],
        spec_for: &mut dyn FnMut(&ArrivalEvent) -> PolicySpec,
    ) -> Result<ServeReport, HarnessError> {
        if events.windows(2).any(|w| w[0].at_tick > w[1].at_tick) {
            return Err(HarnessError::InvalidServeConfig {
                reason: "arrival trace must be sorted by tick".into(),
            });
        }
        for event in events {
            while self.tick < event.at_tick {
                self.tick()?;
            }
            let spec = spec_for(event);
            let priority = if event.high_priority {
                Priority::High
            } else {
                Priority::Normal
            };
            self.submit(&event.workload, spec, event.tenant, priority)?;
        }
        self.drain()?;
        Ok(self.report())
    }

    /// The report of everything retired so far: per-request results, the
    /// batch-style aggregate, and the metrics summary.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        let per_sequence: Vec<SimResult> =
            self.completed.iter().map(|c| c.result.clone()).collect();
        ServeReport {
            batch: aggregate(
                per_sequence,
                self.config.total_capacity,
                self.metrics.peak_resident_tokens(),
            ),
            completed: self.completed.clone(),
            summary: self.metrics.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicaim_attention::workloads::{mixed_batch, needle_task, poisson_arrivals, ArrivalSpec};

    /// A 2-concurrent-session core: 2 × 40 slots, k 8, 8 reserved decode
    /// slots per session.
    fn small_config() -> ServeConfig {
        ServeConfig::new(80, 40, 8).with_reserved_decode_slots(8)
    }

    fn spec_for_share() -> PolicySpec {
        PolicySpec::hybrid_for_share(40, 8, 8)
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        for bad in [
            ServeConfig::new(80, 0, 8),
            ServeConfig::new(40, 80, 8),
            ServeConfig::new(80, 40, 0),
            ServeConfig::new(80, 40, 8).with_queue_limit(0),
            ServeConfig::new(80, 40, 8).with_reserved_decode_slots(40),
        ] {
            assert!(
                matches!(
                    ServeCore::new(bad),
                    Err(HarnessError::InvalidServeConfig { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn registry_equipped_core_is_bit_identical_and_counts_reuse() {
        // Two tenants, four requests against the *same* prompt: the
        // registry-equipped core must decode every request bit-identically
        // to the plain core while paying the prefill once.
        let w = needle_task(48, 8, 3);
        let run = |registry: Option<PrefixRegistry>| {
            let mut core = ServeCore::new(small_config()).unwrap();
            if let Some(registry) = registry {
                core = core.with_prefix_registry(registry);
            }
            for tenant in 0..4 {
                core.submit(&w, spec_for_share(), tenant % 2, Priority::Normal)
                    .unwrap();
            }
            core.drain().unwrap();
            core.report()
        };
        let plain = run(None);
        let registry = PrefixRegistry::new(w.dim, 64).unwrap();
        let shared = run(Some(registry.clone()));

        assert_eq!(shared.completed, plain.completed);
        assert_eq!(plain.summary.prefix_hits, 0);
        assert_eq!(plain.summary.pages_shared, 0);
        // First admission registers, the other three splice.
        assert_eq!(shared.summary.prefix_hits, 3);
        assert!(shared.summary.pages_shared > 0);
        assert!(shared.summary.prefix_bytes_saved > 0);
        assert_eq!(registry.stats().hits, 3);
        assert_eq!(registry.stats().misses, 1);
    }

    #[test]
    fn mismatched_spec_is_rejected_at_submit() {
        let w = needle_task(48, 8, 1);
        let mut core = ServeCore::new(small_config()).unwrap();
        let err = core
            .submit(
                &w,
                PolicySpec::hybrid_for_share(64, 8, 8),
                0,
                Priority::Normal,
            )
            .unwrap_err();
        assert!(matches!(err, HarnessError::InvalidSpec { .. }));
    }

    #[test]
    fn stepless_workload_is_rejected_at_submit() {
        let mut stepless = needle_task(48, 8, 1);
        stepless.decode_queries.clear();
        let mut core = ServeCore::new(small_config()).unwrap();
        let err = core
            .submit(&stepless, spec_for_share(), 0, Priority::Normal)
            .unwrap_err();
        assert_eq!(err, HarnessError::EmptyWorkload);
        // Rejected before it is counted: the core still drains cleanly.
        assert_eq!(core.metrics().summary().submitted, 0);
        core.drain().unwrap();
        assert_eq!(core.report().summary.completed, 0);
    }

    #[test]
    fn malformed_workloads_are_rejected_at_submit() {
        type Mutation = fn(&mut DecodeWorkload);
        let cases: [(&str, Mutation); 12] = [
            ("dim 0", |w| w.dim = 0),
            ("short prefill key", |w| w.prefill_keys[5].truncate(3)),
            ("short prefill value", |w| w.prefill_values[0].truncate(3)),
            ("long prefill query", |w| w.prefill_queries[63].push(0.0)),
            ("short decode query", |w| w.decode_queries[2].truncate(3)),
            ("short decode key", |w| w.decode_keys[7].truncate(3)),
            ("short decode value", |w| w.decode_values[1].truncate(3)),
            ("prefill value count", |w| w.prefill_values.truncate(60)),
            ("prefill query count", |w| w.prefill_queries.truncate(60)),
            ("decode key count", |w| w.decode_keys.truncate(4)),
            ("decode value count", |w| w.decode_values.truncate(4)),
            ("salient_at count", |w| w.salient_at.truncate(4)),
        ];
        for (name, mutate) in cases {
            let mut w = needle_task(64, 8, 3);
            mutate(&mut w);
            let mut core = ServeCore::new(small_config()).unwrap();
            let err = core
                .submit(&w, spec_for_share(), 0, Priority::Normal)
                .unwrap_err();
            assert!(
                matches!(err, HarnessError::InvalidWorkload { .. }),
                "{name}: {err:?}"
            );
            // Rejected before it is counted: the core still drains cleanly.
            assert_eq!(core.metrics().summary().submitted, 0, "{name}");
            core.drain().unwrap();
        }
    }

    #[test]
    fn tenant_ids_up_to_usize_max_are_served() {
        let workloads = mixed_batch(3, 32, 6, 5);
        let tenants = [0, 1 << 40, usize::MAX];
        let config = small_config();
        let mut core = ServeCore::new(config).unwrap();
        for (w, &tenant) in workloads.iter().zip(&tenants) {
            core.submit(w, spec_for_share(), tenant, Priority::Normal)
                .unwrap();
        }
        core.drain().unwrap();
        let report = core.report();
        assert_eq!(report.completed.len(), 3);
        for done in &report.completed {
            assert_eq!(done.tenant, tenants[done.id]);
            let mut solo = DecodeSession::prefill_spec(
                &workloads[done.id],
                &spec_for_share(),
                &config.session_config(),
            )
            .unwrap();
            solo.run_to_completion().unwrap();
            assert_eq!(done.result, solo.finish(), "tenant {}", done.tenant);
        }
    }

    #[test]
    fn single_request_matches_a_solo_session_bit_for_bit() {
        let w = needle_task(48, 8, 2);
        let config = small_config();
        let mut core = ServeCore::new(config).unwrap();
        core.submit(&w, spec_for_share(), 0, Priority::Normal)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();

        let mut solo =
            DecodeSession::prefill_spec(&w, &spec_for_share(), &config.session_config()).unwrap();
        solo.run_to_completion().unwrap();
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.completed[0].result, solo.finish());
        // Admitted at tick 0, first token at tick 0, 8 decode steps.
        assert_eq!(report.completed[0].first_token_tick, 0);
        assert_eq!(report.completed[0].completion_tick, 7);
        assert_eq!(report.summary.tokens_completed, 8);
    }

    #[test]
    fn excess_arrivals_queue_and_join_mid_flight() {
        // 2 slots' worth of budget, 4 simultaneous arrivals: two run, two
        // queue, and the queued ones join as the first two retire — the
        // core never drains to zero in between.
        let workloads = mixed_batch(4, 32, 6, 3);
        let mut core = ServeCore::new(small_config()).unwrap();
        for w in &workloads {
            let out = core
                .submit(w, spec_for_share(), 0, Priority::Normal)
                .unwrap();
            assert!(matches!(out, SubmitOutcome::Queued { .. }));
        }
        core.tick().unwrap();
        assert_eq!(core.running(), 2);
        assert_eq!(core.queue_depth(), 2);
        core.drain().unwrap();
        let report = core.report();
        assert_eq!(report.completed.len(), 4);
        assert_eq!(report.summary.preemptions, 0);
        // Ragged lengths: the queued sequences were admitted mid-flight,
        // before the running pair both finished.
        assert!(report.summary.min_occupancy_between_arrivals > 0);
        assert_eq!(report.summary.peak_occupancy_slots, 80);
        assert!(report.summary.peak_resident_tokens <= 80);
    }

    #[test]
    fn batch_aggregates_are_step_weighted() {
        let workloads = mixed_batch(3, 32, 6, 9);
        let mut core = ServeCore::new(ServeConfig::new(3 * 40, 40, 8)).unwrap();
        for w in &workloads {
            core.submit(
                w,
                PolicySpec::StreamingLlm { n_sinks: 2 },
                0,
                Priority::Normal,
            )
            .unwrap();
        }
        core.drain().unwrap();
        let batch = core.report().batch;
        assert_eq!(batch.n_sequences, 3);
        let expect: f64 = batch
            .per_sequence
            .iter()
            .map(|s| s.output_cosine * s.steps as f64)
            .sum::<f64>()
            / batch.total_steps as f64;
        assert!((batch.output_cosine - expect).abs() < 1e-12);
        assert_eq!(
            batch.total_answer_steps,
            batch
                .per_sequence
                .iter()
                .map(|s| s.answer_steps)
                .sum::<usize>()
        );
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let w = needle_task(32, 6, 4);
        let mut core = ServeCore::new(small_config().with_queue_limit(3)).unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(
                core.submit(&w, spec_for_share(), 0, Priority::Normal)
                    .unwrap(),
            );
        }
        // Nothing has ticked, so all six sit in tenant 0's queue: 3 fit.
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == SubmitOutcome::Rejected)
                .count(),
            3
        );
        assert_eq!(core.metrics().rejected(), 3);
        core.drain().unwrap();
        assert_eq!(core.report().summary.completed, 3);
    }

    #[test]
    fn tenants_are_admitted_round_robin() {
        // Tenant 0 floods its queue; tenant 1 submits one request. With
        // one session's worth of budget, tenant 1 must be admitted second,
        // not after tenant 0's whole queue.
        let workloads = mixed_batch(6, 32, 6, 5);
        let mut core =
            ServeCore::new(ServeConfig::new(40, 40, 8).with_reserved_decode_slots(8)).unwrap();
        for w in &workloads[..5] {
            core.submit(w, spec_for_share(), 0, Priority::Normal)
                .unwrap();
        }
        core.submit(&workloads[5], spec_for_share(), 1, Priority::Normal)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();
        assert_eq!(report.completed.len(), 6);
        let tenant1_done = report.completed.iter().position(|c| c.tenant == 1).unwrap();
        assert!(
            tenant1_done <= 1,
            "tenant 1 must not wait behind tenant 0's whole queue \
             (finished {tenant1_done} of 5)"
        );
    }

    #[test]
    fn high_priority_preempts_and_victim_reprefills_identically() {
        // Fill the core with two long Normal sessions, then submit a High
        // request: one Normal is evicted, re-queued, and eventually
        // completes with a result identical to an undisturbed solo run.
        let long = mixed_batch(2, 48, 12, 6);
        let urgent = needle_task(32, 6, 7);
        let config = small_config();
        let mut core = ServeCore::new(config).unwrap();
        for w in &long {
            core.submit(w, spec_for_share(), 0, Priority::Normal)
                .unwrap();
        }
        core.tick().unwrap();
        assert_eq!(core.running(), 2);
        core.submit(&urgent, spec_for_share(), 1, Priority::High)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();
        assert_eq!(report.summary.preemptions, 1);
        assert_eq!(report.summary.re_prefills, 1);
        assert!(report.summary.wasted_steps > 0);
        assert_eq!(report.completed.len(), 3);
        // The urgent request finished before the preempted victim.
        let urgent_done = report.completed.iter().find(|c| c.id == 2).unwrap();
        let victim = report
            .completed
            .iter()
            .find(|c| c.preemptions == 1)
            .expect("one request was preempted");
        assert!(urgent_done.completion_tick < victim.completion_tick);
        // Bit-identical to a solo run despite the mid-flight eviction.
        let victim_workload = &long[victim.id];
        let mut solo = DecodeSession::prefill_spec(
            victim_workload,
            &spec_for_share(),
            &config.session_config(),
        )
        .unwrap();
        solo.run_to_completion().unwrap();
        assert_eq!(victim.result, solo.finish());
        // The ledger balances once drained.
        assert_eq!(
            report.summary.steps_executed,
            report.summary.tokens_completed + report.summary.wasted_steps
        );
    }

    #[test]
    fn high_priority_sessions_are_never_preempted() {
        // Two running High sessions; a queued High cannot preempt them and
        // must wait for a natural retirement.
        let long = mixed_batch(2, 48, 12, 8);
        let urgent = needle_task(32, 6, 9);
        let mut core = ServeCore::new(small_config()).unwrap();
        for w in &long {
            core.submit(w, spec_for_share(), 0, Priority::High).unwrap();
        }
        core.tick().unwrap();
        core.submit(&urgent, spec_for_share(), 1, Priority::High)
            .unwrap();
        core.drain().unwrap();
        assert_eq!(core.report().summary.preemptions, 0);
    }

    #[test]
    fn run_replays_a_poisson_trace_deterministically() {
        let events = poisson_arrivals(&ArrivalSpec {
            n_requests: 10,
            mean_interarrival_ticks: 3.0,
            n_tenants: 2,
            high_priority_every: 4,
            base_prefill: 32,
            decode_len: 6,
            seed: 11,
        });
        let spec = spec_for_share();
        let run_once = || {
            let mut core = ServeCore::new(small_config()).unwrap();
            core.run(&events, &mut |_| spec.clone()).unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
        assert_eq!(a.summary.submitted, 10);
        assert_eq!(
            a.summary.completed + a.summary.rejected,
            a.summary.submitted
        );
        assert_eq!(a.batch.n_sequences, a.completed.len());
        // ids key back into the event trace.
        for c in &a.completed {
            assert_eq!(c.arrival_tick, events[c.id].at_tick);
        }
    }

    #[test]
    fn run_rejects_a_scrambled_trace() {
        let mut events = poisson_arrivals(&ArrivalSpec {
            n_requests: 4,
            mean_interarrival_ticks: 4.0,
            n_tenants: 1,
            high_priority_every: 0,
            base_prefill: 32,
            decode_len: 4,
            seed: 13,
        });
        events.swap(0, 3);
        assert!(events.windows(2).any(|w| w[0].at_tick > w[1].at_tick));
        let mut core = ServeCore::new(small_config()).unwrap();
        assert!(matches!(
            core.run(&events, &mut |_| spec_for_share()),
            Err(HarnessError::InvalidServeConfig { .. })
        ));
    }

    #[test]
    fn schedulers_produce_identical_reports() {
        let events = poisson_arrivals(&ArrivalSpec {
            n_requests: 8,
            mean_interarrival_ticks: 2.0,
            n_tenants: 2,
            high_priority_every: 3,
            base_prefill: 32,
            decode_len: 6,
            seed: 17,
        });
        let spec = spec_for_share();
        let run_with = |scheduler| {
            let mut core = ServeCore::new(small_config().with_scheduler(scheduler)).unwrap();
            core.run(&events, &mut |_| spec.clone()).unwrap()
        };
        let seq = run_with(SchedulerSpec::Sequential);
        let par = run_with(SchedulerSpec::WorkerPool { workers: 3 });
        assert_eq!(seq, par);
    }

    #[test]
    fn report_and_configs_roundtrip_through_json() {
        let w = needle_task(32, 6, 19);
        let config = small_config();
        let mut core = ServeCore::new(config).unwrap();
        core.submit(&w, spec_for_share(), 0, Priority::High)
            .unwrap();
        core.drain().unwrap();
        let report = core.report();
        let text = serde_json::to_string(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);

        let cfg_text = serde_json::to_string(&config).unwrap();
        let cfg_back: ServeConfig = serde_json::from_str(&cfg_text).unwrap();
        assert_eq!(cfg_back, config);
    }
}
