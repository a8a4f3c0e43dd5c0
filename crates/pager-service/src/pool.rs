//! Worker pool with batch coalescing and bounded admission.
//!
//! Planning requests flow through a *bounded* `mpsc` queue consumed by
//! a fixed pool of std threads. Before a request is queued, the
//! dispatcher checks an *in-flight* table: if an identical key is
//! already being planned, the request subscribes to that computation
//! instead of enqueueing a duplicate — under bursts of identical
//! instances (exactly the conference-call hot path: many pages for the
//! same popular distribution) the pool does the work once and fans the
//! result out to every waiter.
//!
//! The queue bound is the backpressure valve: when `queue_depth` jobs
//! are already waiting, new distinct work is *shed* immediately with
//! [`ServiceError::Overloaded`] rather than queued behind a backlog it
//! would only deepen. Coalesced subscriptions never shed — joining an
//! in-flight computation adds no load.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pager_core::{Delay, Instance};

use crate::deadline::Deadline;
use crate::error::ServiceError;
use crate::planner::{plan, Plan, TierPolicy, Variant};
use crate::service::PlanKey;
use crate::{cache::ShardedCache, metrics::Metrics};

/// Result fanned out to every subscriber of one computation.
pub(crate) type PlanResult = Result<Arc<Plan>, ServiceError>;

/// One subscriber to a computation: a callback the worker (or the
/// shedding submitter) invokes exactly once. Blocking callers wrap a
/// channel send in it; the transport engine posts a completion to the
/// shard's queue.
pub(crate) struct Waiter {
    pub(crate) complete: Box<dyn FnOnce(PlanResult, bool) + Send>,
    /// Whether this subscriber joined an already in-flight
    /// computation. Recorded at registration (under the in-flight
    /// lock — the only place the answer is race-free) and handed back
    /// to the callback.
    pub(crate) coalesced: bool,
}

impl Waiter {
    /// Delivers the result, consuming the waiter.
    fn deliver(self, result: &PlanResult) {
        (self.complete)(result.clone(), self.coalesced);
    }
}

struct PlanJob {
    key: PlanKey,
    fingerprint: u64,
    instance: Instance,
    delay: Delay,
    variant: Variant,
    /// The *admission-time* deadline: queueing delay counts against
    /// the budget, so a job that waited too long is already expired
    /// when a worker picks it up and cancels at the first checkpoint.
    deadline: Deadline,
    /// When the job was offered to the queue; the dequeue records the
    /// elapsed wait into `Metrics::queue_wait`, which in turn drives
    /// shed responses' `retry_after_ms`.
    enqueued_at: std::time::Instant,
}

/// Work the pool executes: planning requests (the hot path, coalesced
/// and shed) or one-off maintenance closures (snapshot checkpoints)
/// that share the same threads so background work can never outnumber
/// the configured worker count.
enum Job {
    Plan(PlanJob),
    Maintenance(Box<dyn FnOnce() + Send>),
}

/// What happened when a job was offered to the bounded queue.
enum Enqueue {
    Accepted,
    Full,
    Closed,
}

/// Owns the bounded queue, the in-flight table, and the worker
/// threads.
pub(crate) struct Dispatcher {
    queue: Mutex<Option<mpsc::SyncSender<Job>>>,
    inflight: Arc<Mutex<HashMap<PlanKey, Vec<Waiter>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<Metrics>,
}

impl Dispatcher {
    /// Starts the worker pool over a queue bounded at `queue_depth`
    /// waiting jobs. Failing to spawn a worker thread tears the
    /// partial pool down cleanly (the queue sender drops, so
    /// already-started workers see a closed channel and exit).
    pub(crate) fn new(
        workers: usize,
        queue_depth: usize,
        cache: Arc<ShardedCache<PlanKey, Plan>>,
        metrics: Arc<Metrics>,
        policy: TierPolicy,
    ) -> std::io::Result<Dispatcher> {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let inflight: Arc<Mutex<HashMap<PlanKey, Vec<Waiter>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                let inflight = Arc::clone(&inflight);
                std::thread::Builder::new()
                    .name(format!("pager-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &cache, &metrics, &inflight, policy))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Dispatcher {
            queue: Mutex::new(Some(tx)),
            inflight,
            workers: Mutex::new(handles),
            metrics,
        })
    }

    /// Submits a planning job for `waiter`, coalescing onto an
    /// identical in-flight one when possible. Returns whether the
    /// waiter coalesced onto in-flight work.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the bounded queue is full
    /// (the request is shed, never queued); [`ServiceError::Internal`]
    /// during shutdown. On `Err` the waiter *has already been
    /// delivered* the same error (exactly once, via `fail_waiters`),
    /// so callers must not complete it again.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        &self,
        key: PlanKey,
        fingerprint: u64,
        instance: Instance,
        delay: Delay,
        variant: Variant,
        deadline: Deadline,
        mut waiter: Waiter,
    ) -> Result<bool, ServiceError> {
        let coalesced = {
            let mut inflight = self
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(waiters) = inflight.get_mut(&key) {
                waiter.coalesced = true;
                waiters.push(waiter);
                true
            } else {
                inflight.insert(key.clone(), vec![waiter]);
                false
            }
        };
        if coalesced {
            return Ok(true);
        }
        // Gauge before the offer: the moment the job lands in the
        // channel a worker may dequeue it and run the matching `dec`,
        // so incrementing after `try_send` could order inc after dec
        // and leak a permanent +1 (dec saturates at zero).
        Metrics::inc(&self.metrics.queue_depth);
        // First request for this key: offer it to the bounded queue.
        // The queue lock is released before touching the in-flight
        // table again (lock order: queue before inflight, never
        // nested the other way).
        let outcome = {
            let queue = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match queue.as_ref() {
                None => Enqueue::Closed,
                Some(tx) => match tx.try_send(Job::Plan(PlanJob {
                    key: key.clone(),
                    fingerprint,
                    instance,
                    delay,
                    variant,
                    deadline,
                    enqueued_at: std::time::Instant::now(),
                })) {
                    Ok(()) => Enqueue::Accepted,
                    Err(mpsc::TrySendError::Full(_)) => Enqueue::Full,
                    Err(mpsc::TrySendError::Disconnected(_)) => Enqueue::Closed,
                },
            }
        };
        match outcome {
            Enqueue::Accepted => Ok(false),
            Enqueue::Full => {
                // Shed: un-register and fail everyone who coalesced
                // onto this key between our insert and now, so nobody
                // waits on a computation that will never run.
                Metrics::dec(&self.metrics.queue_depth);
                // The hint tracks the observed queue wait: a shed
                // client retrying sooner than the median wait would
                // only rejoin the very backlog that shed it.
                let error = ServiceError::Overloaded {
                    retry_after_ms: self.metrics.retry_hint_ms(),
                };
                Metrics::inc(&self.metrics.requests_shed);
                self.fail_waiters(&key, &error);
                Err(error)
            }
            Enqueue::Closed => {
                Metrics::dec(&self.metrics.queue_depth);
                let error = ServiceError::Internal("service is shutting down".into());
                self.fail_waiters(&key, &error);
                Err(error)
            }
        }
    }

    /// Offers a one-off maintenance closure (e.g. a snapshot
    /// checkpoint) to the worker pool. Maintenance bypasses the
    /// in-flight table (there is nothing to coalesce or wait on) but
    /// respects the bounded queue: under full load the checkpoint is
    /// simply not scheduled this round, and the caller's trigger will
    /// re-fire on a later observe.
    ///
    /// Returns whether the job was accepted.
    pub(crate) fn submit_maintenance(&self, work: Box<dyn FnOnce() + Send>) -> bool {
        Metrics::inc(&self.metrics.queue_depth);
        let accepted = {
            let queue = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match queue.as_ref() {
                None => false,
                Some(tx) => tx.try_send(Job::Maintenance(work)).is_ok(),
            }
        };
        if !accepted {
            Metrics::dec(&self.metrics.queue_depth);
        }
        accepted
    }

    /// Removes a key's in-flight registration and sends `error` to
    /// every subscriber it had accumulated.
    fn fail_waiters(&self, key: &PlanKey, error: &ServiceError) {
        let waiters = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(key)
            .unwrap_or_default();
        let failure: PlanResult = Err(error.clone());
        for waiter in waiters {
            waiter.deliver(&failure);
        }
    }

    /// Stops accepting work and joins every worker.
    pub(crate) fn shutdown(&self) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<Job>>,
    cache: &ShardedCache<PlanKey, Plan>,
    metrics: &Metrics,
    inflight: &Mutex<HashMap<PlanKey, Vec<Waiter>>>,
    policy: TierPolicy,
) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let job = match rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv()
        {
            Ok(job) => job,
            Err(_) => return, // queue closed: shut down
        };
        Metrics::dec(&metrics.queue_depth);
        let job = match job {
            Job::Plan(job) => job,
            Job::Maintenance(work) => {
                work();
                continue;
            }
        };
        metrics
            .queue_wait
            .record(u64::try_from(job.enqueued_at.elapsed().as_micros()).unwrap_or(u64::MAX));
        // A coalesced burst may have already populated the cache by
        // the time this job reaches the front of the queue.
        let result: PlanResult = match cache.get(job.fingerprint, &job.key) {
            Some(ready) => Ok(ready),
            None => {
                let token = job.deadline.token();
                match plan(&job.instance, job.delay, job.variant, &policy, &token) {
                    Ok(fresh) => {
                        metrics
                            .tier_latency(fresh.tier)
                            .record(fresh.planning_micros);
                        if fresh.downgraded {
                            Metrics::inc(&metrics.deadline_downgrades);
                        }
                        if job.deadline.expired() {
                            Metrics::inc(&metrics.deadline_misses);
                        }
                        if fresh.downgraded {
                            // A downgraded plan is a deadline artefact,
                            // not the best answer for this key: caching
                            // it would poison the slot for every later
                            // patient request.
                            Ok(Arc::new(fresh))
                        } else {
                            Ok(cache.insert(job.fingerprint, job.key.clone(), Arc::new(fresh)))
                        }
                    }
                    Err(error) => {
                        Metrics::inc(&metrics.errors);
                        if matches!(error, ServiceError::Overloaded { .. }) {
                            Metrics::inc(&metrics.deadline_misses);
                        }
                        Err(error)
                    }
                }
            }
        };
        let waiters = inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&job.key)
            .unwrap_or_default();
        // Delivery happens after the in-flight lock is released:
        // callback waiters may take their own locks (`reactor` class).
        for waiter in waiters {
            waiter.deliver(&result);
        }
    }
}
