//! A persistent, caller-participating scoped pool for the staged round
//! engine.
//!
//! The staged engine shards each stage of a round (plan, ledger build,
//! mask resolution, pull apply, delivery, finalization) into one job
//! per shard and needs every job finished before the next stage reads
//! its output. At n = 65 536 jobs run from tens of microseconds to tens
//! of milliseconds, and a round runs about eight of these fork/join
//! points, so what a dispatch costs decides whether a second shard pays
//! for itself.
//!
//! ## Dispatch
//!
//! A pool built for `threads = t` spawns **t − 1** workers; the thread
//! that calls [`ScopedPool::scope`] is the t-th. Inside a scope:
//!
//! 1. The first job [`Scope::spawn`]ed is kept back for the caller.
//!    Every later job goes on a shared queue, and a dispatch wakes a
//!    worker only if one is parked.
//! 2. When the scope body returns, the caller runs its kept-back job,
//!    then every queued job no worker has started yet, then waits for
//!    the jobs workers did start.
//! 3. An idle thread — a worker with an empty queue, or the caller
//!    waiting for workers — spins for 2 ms before it parks on a condvar,
//!    if the pool has no more threads than the machine has cores. An
//!    oversubscribed pool parks at once: a spinning thread would take a
//!    core from a thread that has work.
//!
//! Why: each stage of the previous design sent every job to a worker
//! parked on a channel while the caller slept on a condvar, so a stage
//! paid a wake-up at both ends and one core of two sat idle. Measured
//! on a 2-vCPU Firecracker VM, a spinning worker starts a dispatched
//! job ~1 µs (p50) after the dispatch and a parked one ~50 µs (p50)
//! after, with a tail of several milliseconds. Here the caller works
//! instead of sleeping, back-to-back stages find the workers still
//! spinning, and a worker that is slow to wake costs parallelism, never
//! progress: the caller runs whatever it has not started. A one-thread
//! pool has no workers and runs every job inline.
//!
//! ## Soundness
//!
//! [`ScopedPool::scope`] accepts jobs that borrow the caller's stack
//! (`'env` closures), like `std::thread::scope` does. Soundness rests
//! on one invariant, upheld in exactly one place: **`scope` does not
//! return — not even by panic — until every job spawned inside it has
//! finished.** The caller's share and the wait run unconditionally
//! after the scope body; every job runs under `catch_unwind`, so a
//! panic (in the body, the caller's job or a worker's job) can neither
//! skip the wait nor strand the job counter, and is re-raised only
//! after it. Given that invariant, erasing a job's `'env` lifetime to
//! put it on the queue is safe: no borrow inside a job can outlive the
//! data it references.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle thread spins before it parks: longer than nearly
/// every serial section between two stages of a staged round at
/// n = 65 536, so the next dispatch finds its worker awake (in one
/// 1537-scope trial at 2 shards the worker parked 279–447 times with a
/// 0.5 ms bound and 13–25 times with 2 ms), and short enough that an
/// idle pool stops burning a core almost at once.
const SPIN: Duration = Duration::from_millis(2);

/// A type-erased job after its scope lifetime has been erased (see the
/// module docs for why that is sound).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A caught panic payload, re-raised on the caller.
type Panic = Box<dyn Any + Send + 'static>;

/// State shared between the caller and the workers.
struct Shared {
    /// How long an idle thread spins before it parks: [`SPIN`], or zero
    /// for an oversubscribed pool.
    spin: Duration,
    queue: Mutex<Queue>,
    /// Parked workers wait here for a wake token or shutdown.
    work: Condvar,
    /// `queue.jobs.len()`, readable without the lock by spinners. Only a
    /// hint: a spinner that reads it non-zero takes the lock to pop.
    queued: AtomicUsize,
    /// `queue.shutdown`, readable without the lock by spinners (same).
    closing: AtomicBool,
    /// Queued jobs not yet finished, whoever runs them.
    outstanding: AtomicUsize,
    /// The caller has parked waiting for `outstanding == 0`.
    caller_parked: AtomicBool,
    done_lock: Mutex<()>,
    /// The parked caller waits here.
    done: Condvar,
    /// The first panic a queued job raised in the current scope.
    panic: Mutex<Option<Panic>>,
}

struct Queue {
    /// Dispatched jobs no thread has started yet, in spawn order.
    jobs: VecDeque<Job>,
    /// Parked workers no dispatch has woken yet.
    idle: usize,
    /// Wake-ups sent but not yet taken by a parked worker. Counted so
    /// that a spurious condvar return can never eat a dispatch's wake.
    wakes: usize,
    shutdown: bool,
}

/// Lock a pool mutex. No code that can panic runs while one is held
/// (jobs run outside every lock), so none is ever poisoned; recovering
/// the guard anyway keeps `Drop` free of panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] under the same reasoning as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = lock(&self.queue);
        let job = q.jobs.pop_front();
        self.queued.store(q.jobs.len(), Ordering::Release);
        job
    }

    /// Run one queued job and retire it. The retiring decrement is the
    /// last touch of the job; it happens-before the caller's wait sees
    /// zero.
    fn run(&self, job: Job) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
            lock(&self.panic).get_or_insert(p);
        }
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1
            && self.caller_parked.load(Ordering::SeqCst)
        {
            // Taking the lock orders this notify after the caller's
            // wait began (it re-checks `outstanding` under this lock).
            let _g = lock(&self.done_lock);
            self.done.notify_one();
        }
    }

    /// The caller's wait for every queued job to finish: spin, then
    /// park. `caller_parked` is raised before the final check and read
    /// by `run` after its decrement (both `SeqCst`), so either the
    /// caller sees zero or the last job sees the flag and notifies.
    fn wait_idle(&self) {
        if spin(self.spin, || self.outstanding.load(Ordering::Acquire) == 0) {
            return;
        }
        let mut g = lock(&self.done_lock);
        self.caller_parked.store(true, Ordering::SeqCst);
        while self.outstanding.load(Ordering::SeqCst) != 0 {
            g = wait(&self.done, g);
        }
        self.caller_parked.store(false, Ordering::Relaxed);
    }

    fn work(&self) {
        loop {
            let busy = spin(self.spin, || {
                self.queued.load(Ordering::Acquire) != 0 || self.closing.load(Ordering::Acquire)
            });
            let mut q = lock(&self.queue);
            if let Some(job) = q.jobs.pop_front() {
                self.queued.store(q.jobs.len(), Ordering::Release);
                drop(q);
                self.run(job);
                continue;
            }
            if q.shutdown {
                return;
            }
            if busy {
                continue; // another thread took the job first: spin again
            }
            q.idle += 1;
            #[cfg(test)]
            self.work.notify_all(); // lets `wait_all_parked` observe the park
            loop {
                q = wait(&self.work, q);
                if q.shutdown {
                    return;
                }
                if q.wakes > 0 {
                    q.wakes -= 1;
                    break;
                }
            }
        }
    }
}

/// Spin until `ready()` or `limit` elapses; returns whether it became
/// ready. Plain busy-polling, reading the clock every 64 polls: a
/// `yield_now` between polls made a spinning worker on a 2-vCPU VM so
/// slow to react that the caller took its 50 µs jobs first (51 of 2000
/// ran on the worker, against 1999 of 2000 without the yield).
fn spin(limit: Duration, ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= limit {
            return ready();
        }
    }
}

/// A pool of persistent worker threads with caller-participating scoped
/// dispatch (see module docs).
pub struct ScopedPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ScopedPool {
    /// A pool that runs scopes on `threads` threads (`threads >= 1`):
    /// the caller plus `threads - 1` spawned workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let shared = Arc::new(Shared {
            spin: if threads <= cores {
                SPIN
            } else {
                Duration::ZERO
            },
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                idle: 0,
                wakes: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            queued: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            caller_parked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.work())
            })
            .collect();
        ScopedPool { shared, handles }
    }

    /// Threads a scope runs on: the caller plus the workers.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run a dispatch scope: `f` may [`Scope::spawn`] jobs that borrow
    /// data outside the call; `scope` returns only after every spawned
    /// job has completed. If any job panicked (or `f` itself did), the
    /// panic is re-raised here — after the wait, so borrows stay valid
    /// even on the unwind path.
    pub fn scope<'env, F>(&mut self, f: F)
    where
        F: FnOnce(&mut Scope<'env, '_>),
    {
        let mut scope = Scope {
            shared: &self.shared,
            first: None,
            _env: PhantomData,
        };
        let body = catch_unwind(AssertUnwindSafe(|| f(&mut scope)));
        let first = scope.first.take();
        // The load-bearing part: runs on success AND unwind.
        let own = first.and_then(|job| catch_unwind(AssertUnwindSafe(job)).err());
        while let Some(job) = self.shared.pop() {
            self.shared.run(job);
        }
        self.shared.wait_idle();
        let queued = lock(&self.shared.panic).take();
        if let Err(p) = body {
            resume_unwind(p);
        }
        if let Some(p) = own.or(queued) {
            resume_unwind(p);
        }
    }

    /// Block until every worker is parked (test hook for forcing
    /// interleavings).
    #[cfg(test)]
    fn wait_all_parked(&self) {
        let mut q = lock(&self.shared.queue);
        while q.idle < self.handles.len() {
            q = wait(&self.shared.work, q);
        }
    }
}

impl Drop for ScopedPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.closing.store(true, Ordering::Release);
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join(); // job panics were already re-raised in scope
        }
    }
}

impl std::fmt::Debug for ScopedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// Dispatch handle passed to the closure of [`ScopedPool::scope`].
pub struct Scope<'env, 'pool> {
    shared: &'pool Shared,
    /// The job the caller runs itself once the body returns.
    first: Option<Job>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env, '_> {
    /// Dispatch one job. The first job of a scope is the caller's; every
    /// later one is queued for whichever thread gets to it first. The
    /// job may borrow anything that outlives the enclosing
    /// [`ScopedPool::scope`] call.
    pub fn spawn(&mut self, job: impl FnOnce() + Send + 'env) {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: `ScopedPool::scope` runs or waits out every job —
        // the kept-back one and every queued one — before returning,
        // on both the success and the unwind path, so this job and
        // every `'env` borrow it captures are finished before the
        // borrowed data can be touched again. `outstanding` is raised
        // before the job becomes visible on the queue, so the wait can
        // never miss it.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        if self.first.is_none() {
            self.first = Some(job);
            return;
        }
        let shared = self.shared;
        let mut q = lock(&shared.queue);
        shared.outstanding.fetch_add(1, Ordering::SeqCst);
        q.jobs.push_back(job);
        shared.queued.store(q.jobs.len(), Ordering::Release);
        if q.idle > 0 {
            q.idle -= 1;
            q.wakes += 1;
            shared.work.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;

    #[test]
    fn jobs_run_and_scope_waits() {
        let mut pool = ScopedPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn jobs_may_borrow_mutable_chunks() {
        let mut pool = ScopedPool::new(3);
        let mut data = vec![0u64; 9];
        pool.scope(|s| {
            for (i, chunk) in data.chunks_mut(3).enumerate() {
                s.spawn(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 3 + j) as u64;
                    }
                });
            }
        });
        assert_eq!(data, (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_is_reusable_across_scopes() {
        let mut pool = ScopedPool::new(2);
        let mut total = 0u64;
        for round in 0..50u64 {
            let mut parts = [0u64; 2];
            pool.scope(|s| {
                let (a, b) = parts.split_at_mut(1);
                s.spawn(move || a[0] = round);
                s.spawn(move || b[0] = round * 2);
            });
            total += parts[0] + parts[1];
        }
        assert_eq!(total, (0..50u64).map(|r| 3 * r).sum::<u64>());
    }

    #[test]
    fn job_panic_is_relayed_after_the_wait() {
        let mut pool = ScopedPool::new(2);
        let flag = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {
                    flag.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(res.is_err(), "job panic must propagate to the caller");
        assert_eq!(flag.load(Ordering::SeqCst), 1, "sibling job still ran");
        // The pool survives a panicked scope.
        pool.scope(|s| {
            s.spawn(|| {
                flag.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(flag.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn more_jobs_than_workers_round_robin() {
        let mut pool = ScopedPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..7 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn scope_with_a_parked_worker_completes_on_the_caller() {
        // Park the worker, then hide it from dispatch for one scope: no
        // wake token is sent, so it cannot leave its condvar while the
        // scope runs. Every job must still run, on the calling thread.
        let mut pool = ScopedPool::new(2);
        pool.wait_all_parked();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        pool.scope(|s| {
            let hidden = std::mem::take(&mut s.shared.queue.lock().unwrap().idle);
            for _ in 0..4 {
                s.spawn(|| ran_on.lock().unwrap().push(std::thread::current().id()));
            }
            s.shared.queue.lock().unwrap().idle += hidden;
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 4);
        assert!(
            ran_on.iter().all(|&t| t == caller),
            "the caller ran every job"
        );
        // The worker is still parked and unharmed: the next scope's
        // dispatch wakes it as usual.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn caller_job_panic_waits_for_worker_jobs() {
        // The worker's job is provably running when the caller's job
        // panics (it reported in and blocks on the gate), and the gate
        // opens only while that panic unwinds. The scope must still
        // wait for the worker's job before relaying the panic.
        let mut pool = ScopedPool::new(2);
        let done = AtomicBool::new(false);
        let (started_tx, started_rx) = channel::<()>();
        let (gate_tx, gate_rx) = channel::<()>();
        struct OpenOnUnwind(std::sync::mpsc::Sender<()>);
        impl Drop for OpenOnUnwind {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(move || {
                    let _open = OpenOnUnwind(gate_tx);
                    started_rx.recv().unwrap();
                    panic!("caller job");
                });
                let done = &done;
                s.spawn(move || {
                    started_tx.send(()).unwrap();
                    gate_rx.recv().unwrap();
                    done.store(true, Ordering::SeqCst);
                });
            });
        }));
        let msg = res.expect_err("the caller job's panic is relayed");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"caller job"));
        assert!(
            done.load(Ordering::SeqCst),
            "scope unwound before the worker's job finished"
        );
    }

    #[test]
    fn drop_joins_a_parked_worker_promptly() {
        // A parked worker has no timeout to wait out: `Drop` must wake
        // it. Run the drop on a helper thread and give it ten seconds —
        // a lost wake-up would hang forever.
        let pool = ScopedPool::new(3);
        pool.wait_all_parked();
        let (tx, rx) = channel::<()>();
        let dropper = std::thread::spawn(move || {
            drop(pool);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("dropping a pool with parked workers must not block");
        dropper.join().unwrap();
    }
}
