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
//! in-flight computation adds no load. An uncacheable solve has no key
//! to coalesce on, so it enters as a task: queued, shed and refused at
//! shutdown like any first request for a key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pager_core::cancel::CancelToken;
use pager_core::{Delay, Instance};

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
    deadline: CancelToken,
}

/// Work with nothing to coalesce — an uncacheable solve or a snapshot
/// checkpoint. A worker runs it with `Ok(())`; a refused one is handed
/// its refusal instead. Either way it is called exactly once.
pub(crate) type Task = Box<dyn FnOnce(Result<(), ServiceError>) + Send>;

/// Work the pool executes: planning requests (the hot path, coalesced
/// and shed) or tasks, which share the same threads and the same bound
/// so that no solve and no checkpoint runs outside the configured
/// worker count.
enum Job {
    Plan(Box<PlanJob>),
    Run(Task),
}

/// Why the bounded queue turned a job away.
enum Refused {
    Full,
    Closed,
}

/// Owns the bounded queue, the in-flight table, and the worker
/// threads.
pub(crate) struct Dispatcher {
    /// Each job travels with the instant it was offered; the dequeue
    /// records the elapsed wait into `Metrics::queue_wait`, which in
    /// turn drives shed responses' `retry_after_ms`.
    queue: Mutex<Option<mpsc::SyncSender<(Job, Instant)>>>,
    /// Set by [`Dispatcher::shutdown`], so callers that never queue
    /// can see the refusal without taking the queue lock.
    closed: AtomicBool,
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
        let (tx, rx) = mpsc::sync_channel::<(Job, Instant)>(queue_depth.max(1));
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
            closed: AtomicBool::new(false),
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
        deadline: CancelToken,
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
        let job = Job::Plan(Box::new(PlanJob {
            key: key.clone(),
            fingerprint,
            instance,
            delay,
            variant,
            deadline,
        }));
        match self.offer(job) {
            Ok(()) => Ok(false),
            // Un-register and fail everyone who coalesced onto this key
            // between our insert and now, so nobody waits on a
            // computation that will never run.
            Err((refused, _)) => {
                let error = self.refusal(refused);
                self.fail_waiters(&key, &error);
                Err(error)
            }
        }
    }

    /// Submits an uncacheable request's `task`, which nothing can
    /// coalesce with. It is admitted, shed and refused at shutdown
    /// exactly as a first request for a key is by
    /// [`Dispatcher::submit`], and handed the refusal before this
    /// returns.
    pub(crate) fn submit_task(&self, task: Task) {
        if let Err((refused, Job::Run(task))) = self.offer(Job::Run(task)) {
            task(Err(self.refusal(refused)));
        }
    }

    /// Offers a one-off maintenance closure (e.g. a snapshot
    /// checkpoint) to the worker pool. Maintenance respects the
    /// bounded queue but is not a request: under full load the
    /// checkpoint is simply not scheduled this round (and not counted
    /// as shed), and the caller's trigger will re-fire on a later
    /// observe.
    ///
    /// Returns whether the job was accepted.
    pub(crate) fn submit_maintenance(&self, work: Box<dyn FnOnce() + Send>) -> bool {
        self.offer(Job::Run(Box::new(move |_| work()))).is_ok()
    }

    /// Offers `job` to the bounded queue, handing it back with the
    /// reason when the queue is full or closed.
    fn offer(&self, job: Job) -> Result<(), (Refused, Job)> {
        // Gauge before the offer: the moment the job lands in the
        // channel a worker may dequeue it and run the matching `dec`,
        // so incrementing after `try_send` could order inc after dec
        // and leak a permanent +1 (dec saturates at zero).
        self.metrics.queue_depth.inc();
        // The queue lock is released before the caller touches the
        // in-flight table again (lock order: queue before inflight,
        // never nested the other way).
        let sent = match self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
        {
            None => Err((Refused::Closed, job)),
            Some(tx) => tx.try_send((job, Instant::now())).map_err(|e| match e {
                mpsc::TrySendError::Full((job, _)) => (Refused::Full, job),
                mpsc::TrySendError::Disconnected((job, _)) => (Refused::Closed, job),
            }),
        };
        if sent.is_err() {
            self.metrics.queue_depth.dec();
        }
        sent
    }

    /// The error a refused request is answered with; a shed one is
    /// counted.
    fn refusal(&self, refused: Refused) -> ServiceError {
        match refused {
            Refused::Full => {
                self.metrics.requests_shed.inc();
                // The hint tracks the observed queue wait: a shed
                // client retrying sooner than the median wait would
                // only rejoin the very backlog that shed it.
                ServiceError::Overloaded {
                    retry_after_ms: self.metrics.retry_hint_ms(),
                }
            }
            Refused::Closed => ServiceError::Internal("service is shutting down".into()),
        }
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

    /// Whether [`Dispatcher::shutdown`] has run: new work is refused.
    pub(crate) fn closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Stops accepting work and joins every worker.
    pub(crate) fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
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
    rx: &Mutex<mpsc::Receiver<(Job, Instant)>>,
    cache: &ShardedCache<PlanKey, Plan>,
    metrics: &Metrics,
    inflight: &Mutex<HashMap<PlanKey, Vec<Waiter>>>,
    policy: TierPolicy,
) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let (job, enqueued_at) = match rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv()
        {
            Ok(queued) => queued,
            Err(_) => return, // queue closed: shut down
        };
        metrics.queue_depth.dec();
        metrics
            .queue_wait
            .record(u64::try_from(enqueued_at.elapsed().as_micros()).unwrap_or(u64::MAX));
        let job = match job {
            Job::Plan(job) => job,
            Job::Run(task) => {
                task(Ok(()));
                continue;
            }
        };
        // A coalesced burst may have already populated the cache by
        // the time this job reaches the front of the queue.
        let result: PlanResult = match cache.get(job.fingerprint, &job.key) {
            Some(ready) => Ok(ready),
            None => solve(
                &job.instance,
                job.delay,
                job.variant,
                &job.deadline,
                &policy,
                metrics,
                Some((cache, job.fingerprint, job.key.clone())),
            ),
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

/// Runs one solve and records it: tier latency, deadline downgrades
/// and misses, and errors. With `slot` (the cache plus the miss's
/// fingerprint and key) a fresh plan is cached — unless it was
/// downgraded. Worker threads and the service's cheap inline solves
/// both come through here.
pub(crate) fn solve(
    instance: &Instance,
    delay: Delay,
    variant: Variant,
    deadline: &CancelToken,
    policy: &TierPolicy,
    metrics: &Metrics,
    slot: Option<(&ShardedCache<PlanKey, Plan>, u64, PlanKey)>,
) -> PlanResult {
    match plan(instance, delay, variant, policy, deadline) {
        Ok(fresh) => {
            metrics
                .tier_latency(fresh.tier)
                .record(fresh.planning_micros);
            if fresh.downgraded {
                metrics.deadline_downgrades.inc();
            }
            if deadline.is_cancelled() {
                metrics.deadline_misses.inc();
            }
            match slot {
                // A downgraded plan is a deadline artefact, not the
                // best answer for this key: caching it would poison
                // the slot for every later patient request.
                Some((cache, fingerprint, key)) if !fresh.downgraded => {
                    Ok(cache.insert(fingerprint, key, Arc::new(fresh)))
                }
                _ => Ok(Arc::new(fresh)),
            }
        }
        Err(error) => {
            metrics.errors.inc();
            if matches!(error, ServiceError::Overloaded { .. }) {
                metrics.deadline_misses.inc();
            }
            Err(error)
        }
    }
}
