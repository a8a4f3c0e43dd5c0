//! Worker pool with batch coalescing and bounded admission.
//!
//! Every job is a [`Task`] on one *bounded* `mpsc` queue consumed by a
//! fixed pool of std threads; a worker dequeues it, records how long it
//! waited, and runs it. Before a keyed solve is queued, the dispatcher
//! checks an *in-flight* table: if an identical key is already being
//! planned, the request subscribes to that computation instead of
//! enqueueing a duplicate — under bursts of identical instances
//! (exactly the conference-call hot path: many pages for the same
//! popular distribution) the pool does the work once and fans the
//! result out to every subscriber.
//!
//! The queue bound is the backpressure valve: when `queue_depth` jobs
//! are already waiting, new distinct work is *shed* immediately with
//! [`ServiceError::Overloaded`] rather than queued behind a backlog it
//! would only deepen. A key's one task is handed either the go-ahead or
//! that refusal, and delivers whichever result follows by the same
//! fan-out, so a subscriber that coalesced onto a refused key is
//! refused with it. Coalescing itself never sheds — joining an
//! in-flight computation adds no load. An uncacheable solve has no key
//! to coalesce on, so it enters as a bare task: queued, shed and
//! refused at shutdown like the first request for a key.

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

/// One subscriber to a keyed computation, called exactly once with its
/// result. Blocking callers wrap a channel send in it; the transport
/// engine posts a completion to the shard's queue.
type Subscriber = Box<dyn FnOnce(PlanResult) + Send>;

/// The one kind of job the pool runs. A worker runs it with `Ok(())`;
/// a refused one is handed its refusal instead. Either way it is called
/// exactly once.
pub(crate) type Task = Box<dyn FnOnce(Result<(), ServiceError>) + Send>;

/// Why the bounded queue turned a task away.
enum Refused {
    Full,
    Closed,
}

/// Owns the bounded queue, the in-flight table, and the worker
/// threads.
pub(crate) struct Dispatcher {
    /// Each task travels with the instant it was offered; the dequeue
    /// records the elapsed wait into `Metrics::queue_wait`, which in
    /// turn drives shed responses' `retry_after_ms`.
    queue: Mutex<Option<mpsc::SyncSender<(Task, Instant)>>>,
    /// Set by [`Dispatcher::shutdown`], so callers that never queue
    /// can see the refusal without taking the queue lock.
    closed: AtomicBool,
    /// The in-flight table: each key being planned, with its
    /// subscribers.
    inflight: Arc<Mutex<HashMap<PlanKey, Vec<Subscriber>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<Metrics>,
}

impl Dispatcher {
    /// Starts the worker pool over a queue bounded at `queue_depth`
    /// waiting tasks. Failing to spawn a worker thread tears the
    /// partial pool down cleanly (the queue sender drops, so
    /// already-started workers see a closed channel and exit).
    pub(crate) fn new(
        workers: usize,
        queue_depth: usize,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Dispatcher> {
        let (tx, rx) = mpsc::sync_channel::<(Task, Instant)>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("pager-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &metrics))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Dispatcher {
            queue: Mutex::new(Some(tx)),
            closed: AtomicBool::new(false),
            inflight: Arc::new(Mutex::new(HashMap::new())),
            workers: Mutex::new(handles),
            metrics,
        })
    }

    /// Subscribes `subscriber` to the computation of `key`, and returns
    /// whether it coalesced onto one already in flight. The flag is
    /// fixed here, under the in-flight lock — the only place it is
    /// race-free — and handed to `subscriber` with the result.
    ///
    /// The first subscriber of a key offers one task. Admitted, it runs
    /// `solve`; refused, it is handed the refusal
    /// ([`ServiceError::Overloaded`] when the queue is full,
    /// [`ServiceError::Internal`] during shutdown) before this returns.
    /// Either way it removes the key's subscribers and delivers the one
    /// result to each, exactly once, after releasing the lock.
    pub(crate) fn submit(
        &self,
        key: PlanKey,
        subscriber: impl FnOnce(PlanResult, bool) + Send + 'static,
        solve: impl FnOnce() -> PlanResult + Send + 'static,
    ) -> bool {
        {
            let mut inflight = self
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(subscribers) = inflight.get_mut(&key) {
                subscribers.push(Box::new(move |result| subscriber(result, true)));
                return true;
            }
            inflight.insert(
                key.clone(),
                vec![Box::new(move |result| subscriber(result, false))],
            );
        }
        let inflight = Arc::clone(&self.inflight);
        self.submit_task(Box::new(move |admitted| {
            let result = admitted.and_then(|()| solve());
            let subscribers = inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&key)
                .unwrap_or_default();
            // Delivery happens after the in-flight lock is released:
            // subscribers may take their own locks (`reactor` class).
            for subscriber in subscribers {
                subscriber(result.clone());
            }
        }));
        false
    }

    /// Offers `task` to the bounded queue. A refused task is handed its
    /// refusal before this returns, and a shed one is counted.
    pub(crate) fn submit_task(&self, task: Task) {
        if let Err((refused, task)) = self.offer(task) {
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
        self.offer(Box::new(move |_| work())).is_ok()
    }

    /// Offers `task` to the bounded queue, handing it back with the
    /// reason when the queue is full or closed.
    fn offer(&self, task: Task) -> Result<(), (Refused, Task)> {
        // Gauge before the offer: the moment the task lands in the
        // channel a worker may dequeue it and run the matching `dec`,
        // so incrementing after `try_send` could order inc after dec
        // and leak a permanent +1 (dec saturates at zero).
        self.metrics.queue_depth.inc();
        // The queue lock is released before a refused task runs and
        // touches the in-flight table (lock order: queue before
        // inflight, never nested the other way).
        let sent = match self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
        {
            None => Err((Refused::Closed, task)),
            Some(tx) => tx.try_send((task, Instant::now())).map_err(|e| match e {
                mpsc::TrySendError::Full((task, _)) => (Refused::Full, task),
                mpsc::TrySendError::Disconnected((task, _)) => (Refused::Closed, task),
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

fn worker_loop(rx: &Mutex<mpsc::Receiver<(Task, Instant)>>, metrics: &Metrics) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let Ok((task, enqueued_at)) = rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv()
        else {
            return; // queue closed: shut down
        };
        metrics.queue_depth.dec();
        metrics
            .queue_wait
            .record(u64::try_from(enqueued_at.elapsed().as_micros()).unwrap_or(u64::MAX));
        task(Ok(()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_refused_key_fans_its_refusal_out_to_every_subscriber() {
        let metrics = Arc::new(Metrics::default());
        let pool = Dispatcher::new(1, 1, Arc::clone(&metrics)).unwrap();
        // Hold the only worker, then fill the one queue slot.
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        pool.submit_task(Box::new(move |_| {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
        }));
        started.recv().unwrap();
        let (drained_tx, drained) = mpsc::channel();
        pool.submit_task(Box::new(move |_| drained_tx.send(()).unwrap()));

        let (answers_tx, answers) = mpsc::channel();
        let subscriber = |name: &'static str| {
            let tx = answers_tx.clone();
            move |result: PlanResult, coalesced| tx.send((name, result, coalesced)).unwrap()
        };
        let key = PlanKey::for_delay(2);
        std::thread::scope(|s| {
            // With the queue lock held, the first submit registers its
            // key and then waits to be refused; the second joins it.
            let queue = pool.queue.lock().unwrap();
            let first = s.spawn(|| {
                pool.submit(key.clone(), subscriber("first"), || {
                    unreachable!("a refused key is never solved")
                })
            });
            while !pool.inflight.lock().unwrap().contains_key(&key) {
                std::thread::yield_now();
            }
            let coalesced = pool.submit(key.clone(), subscriber("second"), || {
                unreachable!("a coalesced subscriber never solves")
            });
            assert!(coalesced);
            drop(queue);
            assert!(!first.join().unwrap());
        });
        let mut refused: Vec<_> = answers.try_iter().collect();
        refused.sort_by_key(|&(name, _, _)| name);
        assert_eq!(refused.len(), 2, "each subscriber answered exactly once");
        for ((name, result, coalesced), expected) in refused.into_iter().zip(["first", "second"]) {
            assert_eq!(name, expected);
            assert_eq!(coalesced, name == "second");
            assert!(matches!(result, Err(ServiceError::Overloaded { .. })));
        }
        assert_eq!(metrics.requests_shed.get(), 1, "one refused key, one shed");
        assert!(pool.inflight.lock().unwrap().is_empty());

        // Once the queue drains, the same key is solved afresh.
        release.send(()).unwrap();
        drained.recv().unwrap();
        let instance = Instance::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let solve_metrics = Arc::clone(&metrics);
        let third = pool.submit(key, subscriber("third"), move || {
            solve(
                &instance,
                Delay::new(1).unwrap(),
                Variant::Auto,
                &CancelToken::never(),
                &TierPolicy::default(),
                &solve_metrics,
                None,
            )
        });
        assert!(!third);
        let (name, result, coalesced) = answers.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((name, coalesced), ("third", false));
        assert_eq!(result.unwrap().strategy.rounds(), 1);
        assert!(answers.try_recv().is_err());
    }
}
