//! The per-tick schedulers a [`ServeCore`](crate::ServeCore) advances its
//! running [`DecodeSession`]s with.
//!
//! Two schedulers ship:
//!
//! * [`Sequential`] — one in-order pass over the running sessions;
//! * [`WorkerPool`] — fans the per-sequence decode work across a vendored
//!   fixed thread pool. Sequences are fully independent (each owns its
//!   slot share and its policy state), so any schedule produces the same
//!   per-sequence results, and the two schedulers'
//!   [`ServeReport`](crate::ServeReport)s are identical to the bit.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::error::HarnessError;
use crate::session::DecodeSession;

/// Advances a set of admitted sessions one serving tick at a time.
///
/// Implementations decide *when* each session's next step runs (an
/// in-order pass, thread-pool fan-out, …) but not *what* a step does —
/// that is fixed by [`DecodeSession::step`], which is why every scheduler
/// produces identical per-sequence results.
pub trait Scheduler: Send + Sync {
    /// Advances every unfinished session by exactly one decode step — one
    /// *serving tick*. The continuous-batching
    /// [`ServeCore`](crate::ServeCore) drives its running set through this,
    /// so admissions and preemptions can interleave between ticks.
    /// Finished sessions are skipped, and sessions are independent, so any
    /// schedule of the per-session steps yields identical results; the
    /// default is a sequential in-order pass.
    ///
    /// # Errors
    ///
    /// Propagates the first [`HarnessError`] any session's step raised.
    fn step_once(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        sessions.iter_mut().try_for_each(step_unfinished)
    }
}

/// Single-threaded schedule: each tick steps every unfinished session in
/// order (the trait's default [`Scheduler::step_once`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Scheduler for Sequential {}

/// Fans independent per-sequence decode across a fixed worker pool (the
/// vendored `scoped_threadpool`): each worker claims the next unfinished
/// session off a queue. A whole session is the unit of work, so at most
/// `min(workers, batch size)` threads run; each session scans its
/// residents on the thread that steps it.
///
/// Per-sequence results are identical to [`Sequential`]'s because nothing
/// is shared between sequences mid-run. The pool spawns and joins its
/// threads on every [`step_once`](Scheduler::step_once) call, so it only
/// pays off when each tick carries enough work to amortise that cost.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with exactly `workers` threads (floored at 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism (1 when that
    /// cannot be determined).
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

/// Steps `session` once unless it is already done.
fn step_unfinished(session: &mut DecodeSession<'_, '_>) -> Result<(), HarnessError> {
    if !session.is_done() {
        session.step()?;
    }
    Ok(())
}

impl Scheduler for WorkerPool {
    /// Fans the tick across `min(workers, sessions)` pool threads (inline
    /// when that is 1): workers claim the next session off a queue, and
    /// the first error wins and stops the claimers. Sessions are `Send`
    /// (policies are `Send` by trait bound), so handing
    /// `&mut DecodeSession` to a scoped worker is safe.
    fn step_once(&self, sessions: &mut [DecodeSession<'_, '_>]) -> Result<(), HarnessError> {
        let workers = self.workers.min(sessions.len().max(1));
        if workers <= 1 {
            // No parallelism to exploit; skip the pool machinery.
            return sessions.iter_mut().try_for_each(step_unfinished);
        }
        // Both mutexes guard single-step state transitions (an iterator
        // `next`, an `Option` insert), so a worker panicking elsewhere
        // cannot leave them mid-update: recover from poisoning rather
        // than cascading a panic through every pool thread (the original
        // panic still propagates when the scope joins).
        use std::sync::PoisonError;
        let queue = Mutex::new(sessions.iter_mut());
        let first_error: Mutex<Option<HarnessError>> = Mutex::new(None);
        let mut pool = scoped_threadpool::Pool::new(workers);
        pool.scoped(|scope| {
            for _ in 0..workers {
                scope.execute(|| loop {
                    if first_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_some()
                    {
                        break;
                    }
                    let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some(session) = claimed else { break };
                    if let Err(e) = step_unfinished(session) {
                        first_error
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(e);
                        break;
                    }
                });
            }
        });
        match first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Serializable scheduler choice for
/// [`ServeConfig`](crate::ServeConfig::scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// [`Sequential`] in-order ticks.
    Sequential,
    /// [`WorkerPool`] with the given thread count; `workers = 0` means
    /// "size to the machine's available parallelism".
    WorkerPool {
        /// Worker thread count (0 = auto).
        workers: usize,
    },
}

impl SchedulerSpec {
    /// Builds the scheduler.
    #[must_use]
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::Sequential => Box::new(Sequential),
            SchedulerSpec::WorkerPool { workers: 0 } => {
                Box::new(WorkerPool::with_available_parallelism())
            }
            SchedulerSpec::WorkerPool { workers } => Box::new(WorkerPool::new(workers)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::StreamingLlm;
    use crate::policy::Policy;
    use crate::sim::SimConfig;
    use unicaim_attention::workloads::{mixed_batch, DecodeWorkload};

    fn sample_batch() -> Vec<DecodeWorkload> {
        mixed_batch(5, 64, 8, 13)
    }

    /// Prefills one session per workload under a 24-slot share, minting
    /// each sequence's policy from `factory`.
    fn prefill_all<'w>(
        workloads: &'w [DecodeWorkload],
        factory: impl Fn(usize) -> Box<dyn Policy>,
    ) -> Vec<DecodeSession<'w, 'static>> {
        let config = SimConfig::new(24, 8);
        workloads
            .iter()
            .enumerate()
            .map(|(i, w)| DecodeSession::prefill(w, factory(i), &config).unwrap())
            .collect()
    }

    #[test]
    fn worker_pool_surfaces_session_errors() {
        use crate::policy::StepDecision;
        use unicaim_attention::Matrix;

        /// Selects a ghost token on its first step.
        struct Broken;
        impl Policy for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn prefill_keep(&mut self, attn: &Matrix, budget: usize) -> Vec<usize> {
                (0..attn.rows().min(budget)).collect()
            }
            fn select(
                &mut self,
                _step: usize,
                _scored: &[(usize, f32)],
                _k: usize,
            ) -> StepDecision {
                StepDecision {
                    selected: vec![usize::MAX],
                }
            }
            fn observe(&mut self, _step: usize, _weights: &[(usize, f32)]) {}
            fn evict(&mut self, _step: usize, resident: &[usize]) -> Option<usize> {
                resident.first().copied()
            }
        }

        let workloads = sample_batch();
        let mut sessions = prefill_all(&workloads, |i| {
            if i == 3 {
                Box::new(Broken)
            } else {
                Box::new(StreamingLlm::new(2))
            }
        });
        let err = WorkerPool::new(2).step_once(&mut sessions).unwrap_err();
        assert_eq!(
            err,
            HarnessError::SelectedNonResident {
                step: 0,
                token: usize::MAX
            }
        );
    }

    #[test]
    fn step_once_ticks_every_unfinished_session_in_lockstep() {
        // Driving the batch tick-by-tick through step_once (on either
        // scheduler) must advance every session one step per tick until it
        // drains, and finish every session exactly as a solo run would.
        let workloads = sample_batch();
        let factory = |_| Box::new(StreamingLlm::new(2)) as Box<dyn Policy>;
        let expected: Vec<_> = prefill_all(&workloads, factory)
            .into_iter()
            .map(|mut s| {
                s.run_to_completion().unwrap();
                s.finish()
            })
            .collect();

        for scheduler in [
            Box::new(Sequential) as Box<dyn Scheduler>,
            Box::new(WorkerPool::new(3)),
        ] {
            let mut sessions = prefill_all(&workloads, factory);
            let mut ticks = 0usize;
            while sessions.iter().any(|s| !s.is_done()) {
                let before: Vec<usize> = sessions.iter().map(DecodeSession::next_step).collect();
                scheduler.step_once(&mut sessions).unwrap();
                for (session, before) in sessions.iter().zip(before) {
                    let expected_step = (before + 1).min(session.steps());
                    assert_eq!(session.next_step(), expected_step);
                }
                ticks += 1;
            }
            // Ragged batch: tick count is the longest sequence.
            assert_eq!(
                ticks,
                workloads
                    .iter()
                    .map(|w| w.decode_queries.len())
                    .max()
                    .unwrap()
            );
            let finished: Vec<_> = sessions.into_iter().map(DecodeSession::finish).collect();
            assert_eq!(finished, expected);
        }
    }

    #[test]
    fn scheduler_spec_roundtrips_through_json() {
        let specs = [
            SchedulerSpec::Sequential,
            SchedulerSpec::WorkerPool { workers: 4 },
        ];
        for spec in specs {
            let text = serde_json::to_string(&spec).unwrap();
            let back: SchedulerSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(back, spec);
        }
    }
}
