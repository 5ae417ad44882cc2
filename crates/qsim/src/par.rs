//! Work-queue parallelism for embarrassingly parallel simulator workloads.
//!
//! The QMARL hot paths — batched circuit evaluation, parameter-shift
//! gradient fan-out, multi-seed rollouts — are all "N independent tasks
//! over shared read-only inputs". This module provides one shared
//! scheduler for them: a flat work queue drained through an atomic
//! cursor, so long tasks never straggle behind a static chunking (the
//! failure mode of splitting the queue into equal slices up front).
//! Results land in input order regardless of which thread ran which
//! task, so parallel output is bit-identical to serial output.
//!
//! The queue is drained by a process-wide pool of
//! `default_workers() - 1` persistent helper threads **plus the calling
//! thread**. Helpers are spawned on first use and park on a condition
//! variable while idle (no spinning). A call publishes one "drain the
//! cursor" job, wakes as many helpers as it may use, and starts draining
//! the job itself; helpers join while work is left. Training makes about
//! a hundred four-item calls per epoch, so spawning threads per call
//! would cost more than the tasks; here dispatch is one lock and one
//! wake-up, and a small call often finishes on the caller before a
//! helper is even awake.
//!
//! Because a caller can always finish its own queue alone, nested calls
//! (a sweep task that runs a batched executor) cannot deadlock, even
//! when every helper is busy. A call returns — or unwinds — only after
//! it has withdrawn its job and no helper is still inside it, so tasks
//! may borrow from the caller's stack. A task panic on a helper is
//! caught there and resumed on the caller with its original payload;
//! the helper keeps serving.
//!
//! The scheduler is deliberately dependency-free (`Mutex`, `Condvar`,
//! `AtomicUsize`), keeping the whole workspace buildable offline.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A sensible worker count for CPU-bound work: the machine's available
/// parallelism, falling back to 1 when it cannot be queried.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f(index, &items[index])` for every item on up to `workers`
/// threads — the caller plus pool helpers — returning the results **in
/// input order**.
///
/// Tasks are handed out one at a time through an atomic cursor (work
/// stealing degenerate case: a single shared queue), so heterogeneous
/// task costs balance automatically. The worker count is capped by the
/// pool: at most `default_workers()` threads (the caller and every
/// helper) work on one call. `workers <= 1`, an empty queue, or a single
/// item run inline on the caller's thread without touching the pool.
///
/// # Panics
///
/// Resumes the first task panic with its original payload, after every
/// helper has left the call.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    Pool::global().map(items, workers, f)
}

/// [`parallel_map`] for fallible tasks. Every task runs to completion
/// (there is no early abort — the queue is already distributed across
/// workers); afterwards the lowest-indexed error, if any, is returned,
/// otherwise the ordered successes.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing task.
pub fn try_parallel_map<T, R, E, F>(items: &[T], workers: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    parallel_map(items, workers, f).into_iter().collect()
}

/// [`parallel_map`] with per-task panic isolation: a panicking task
/// yields `Err(payload)` in its slot instead of tearing down the whole
/// map. Workers keep draining the queue after a panic, so one bad task
/// never poisons its siblings — the property long-running sweeps need
/// when a single cell dies.
///
/// The closure must be [`std::panic::UnwindSafe`] in spirit: it is run
/// under `catch_unwind(AssertUnwindSafe(..))`, which is sound here
/// because tasks only share read-only inputs and each writes its own
/// output slot. Use [`panic_message`] to render a payload for humans.
pub fn parallel_map_isolated<T, R, F>(
    items: &[T],
    workers: usize,
    f: F,
) -> Vec<Result<R, Box<dyn Any + Send>>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map(items, workers, |i, t| {
        panic::catch_unwind(AssertUnwindSafe(|| f(i, t)))
    })
}

/// Best-effort human-readable rendering of a panic payload: the `&str` /
/// `String` message when the panic used one, a placeholder otherwise
/// (typed payloads like injected kills should be downcast instead).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks `m`, ignoring poison: no user code ever runs while one of this
/// module's locks is held, so a poisoned lock cannot guard torn state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, ignoring poison for the same reason as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Persistent helper threads serving published jobs.
struct Pool {
    shared: Arc<Shared>,
    /// Helper threads actually running (spawn failures are skipped).
    helpers: usize,
}

/// The state a pool shares with its helpers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is published; idle helpers park on it.
    work: Condvar,
    /// Signalled when a withdrawn job's last helper leaves it; callers
    /// waiting to return park on it.
    left: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: Vec<Job>,
    next_id: u64,
}

/// One in-flight [`Pool::map`] call, as the helpers see it.
struct Job {
    id: u64,
    drain: Drain,
    /// Helpers that may still join; zeroed when the caller withdraws.
    open: usize,
    /// Helpers currently inside `drain`.
    active: usize,
    withdrawn: bool,
}

/// A lifetime-erased pointer to a caller's drain closure.
struct Drain(*const (dyn Fn() + Sync));

// SAFETY: `Drain`'s one field is a pointer to a closure that is `Sync`,
// so calling it from any thread is allowed. Sending the pointer does not
// extend the closure's lifetime: it is dereferenced only by a helper
// that joined the job while it was published, and the owning call
// blocks until every such helper has left (see `Pool::join`).
unsafe impl Send for Drain {}

impl Pool {
    /// The process-wide pool, spawned on first use.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::new(default_workers() - 1))
    }

    /// Spawns `helpers` named helper threads; any the OS refuses are
    /// skipped, leaving a smaller pool (at worst the caller alone).
    fn new(helpers: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            left: Condvar::new(),
        });
        let helpers = (0..helpers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                // xcheck: allow(determinism) — the pool's only spawn site.
                // Helpers run nothing but per-index tasks whose results the
                // caller restores to input order, and they catch every task
                // panic and hand it to the caller, so a detached helper can
                // neither reorder results nor hide a failure.
                std::thread::Builder::new()
                    .name(format!("qsim-par-{k}"))
                    .spawn(move || shared.serve())
            })
            .filter(Result::is_ok)
            .count();
        Pool { shared, helpers }
    }

    /// [`parallel_map`] on this pool.
    fn map<T, R, F>(&self, items: &[T], workers: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let cursor = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(n));
        // The cursor only hands out indices, so `Relaxed` suffices: inputs
        // reach helpers through the queue lock that publishes the job, and
        // results come back through the `results` lock.
        let drain = || {
            let mut local = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(i, &items[i])));
            }
            lock(&results).append(&mut local);
        };
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let helper_drain = || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(&drain)) {
                lock(&panicked).get_or_insert(payload);
            }
        };
        let open = workers.min(n).saturating_sub(1).min(self.helpers);
        if open == 0 {
            drain();
        } else {
            self.join(open, &helper_drain, &drain);
        }
        let payload = lock(&panicked).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
        let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        results.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(results.len(), n);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Publishes `helper_drain` for up to `open` helpers and runs `own`
    /// on the calling thread. Returns — or resumes `own`'s unwind — only
    /// once the job is withdrawn and no helper is inside `helper_drain`.
    fn join(&self, open: usize, helper_drain: &(dyn Fn() + Sync), own: &dyn Fn()) {
        let drain: *const (dyn Fn() + Sync + '_) = helper_drain;
        // SAFETY: erases the borrow's lifetime only; the fat-pointer layout
        // is unchanged. Helpers dereference the pointer only between joining
        // the published job and leaving it, and `_withdraw` below is dropped
        // on every exit from this function, return or unwind, blocking until
        // the job is withdrawn and has no helper inside. So no dereference
        // outlives the borrow of `helper_drain`.
        let drain: *const (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(drain) };
        let id = {
            let mut q = lock(&self.shared.queue);
            let id = q.next_id;
            q.next_id += 1;
            q.jobs.push(Job {
                id,
                drain: Drain(drain),
                open,
                active: 0,
                withdrawn: false,
            });
            id
        };
        for _ in 0..open {
            self.shared.work.notify_one();
        }
        let _withdraw = Withdraw {
            shared: &self.shared,
            id,
        };
        own();
    }
}

impl Shared {
    /// A helper thread's body: join open jobs, park when there are none.
    fn serve(&self) {
        let mut q = lock(&self.queue);
        loop {
            let Some(pos) = q.jobs.iter().position(|j| j.open > 0) else {
                q = wait(&self.work, q);
                continue;
            };
            let job = &mut q.jobs[pos];
            job.open -= 1;
            job.active += 1;
            let (id, drain) = (job.id, job.drain.0);
            drop(q);
            // SAFETY: the job was published and not withdrawn when this
            // helper joined it, and its caller's `Withdraw` blocks until
            // `active` is back to zero (below), so the closure is alive for
            // the whole call. The closure catches every task panic, so the
            // call never unwinds past the bookkeeping below.
            unsafe { (*drain)() };
            q = lock(&self.queue);
            if let Some(job) = q.jobs.iter_mut().find(|j| j.id == id) {
                job.active -= 1;
                if job.active == 0 && job.withdrawn {
                    self.left.notify_all();
                }
            }
        }
    }
}

/// On drop: withdraws a published job so no further helper joins it,
/// waits until no helper is inside it, and removes it from the queue.
struct Withdraw<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        let mut q = lock(&self.shared.queue);
        while let Some(pos) = q.jobs.iter().position(|j| j.id == self.id) {
            let job = &mut q.jobs[pos];
            job.open = 0;
            job.withdrawn = true;
            if job.active == 0 {
                q.jobs.remove(pos);
                return;
            }
            q = wait(&self.shared.left, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, ThreadId};

    /// True on `caller`'s thread; tasks use it to tell the calling
    /// thread from pool helpers. Private pools built by these tests keep
    /// their helpers parked for the rest of the test process, like the
    /// global pool.
    fn on(caller: ThreadId) -> bool {
        thread::current().id() == caller
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = parallel_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(&none, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn balances_heterogeneous_tasks() {
        // Tasks of wildly different cost still produce ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 4, |_, &x| {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            (0..spins).fold(x, |acc, _| {
                std::hint::black_box(acc.wrapping_mul(31).wrapping_add(1))
            });
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn try_variant_returns_first_error_by_index() {
        let items: Vec<usize> = (0..100).collect();
        let res: Result<Vec<usize>, usize> =
            try_parallel_map(
                &items,
                8,
                |_, &x| {
                    if x == 41 || x == 73 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            );
        assert_eq!(res.unwrap_err(), 41);
        let ok: Result<Vec<usize>, usize> = try_parallel_map(&items, 8, |_, &x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn isolated_map_contains_panics_without_poisoning_siblings() {
        // Silence the default hook's backtrace for the intentional panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 4] {
            let out = parallel_map_isolated(&items, workers, |_, &x| {
                if x % 13 == 5 {
                    panic!("task {x} exploded");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 13 == 5 {
                    let payload = r.as_ref().expect_err("should have panicked");
                    assert_eq!(
                        panic_message(payload.as_ref()),
                        format!("task {i} exploded")
                    );
                } else {
                    assert_eq!(*r.as_ref().expect("should have succeeded"), i * 2);
                }
            }
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let p = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
        std::panic::set_hook(prev);
    }

    #[test]
    fn nested_call_completes_while_every_helper_is_busy() {
        let pool = Pool::new(2);
        assert_eq!(pool.helpers, 2);
        // Three tasks meet at a barrier, so the caller and both helpers
        // each hold one; every nested call below then finds no idle helper
        // and must be drained by its own caller.
        let all_busy = Barrier::new(3);
        let outer: Vec<u64> = (0..3).collect();
        let out = pool.map(&outer, 3, |_, &x| {
            all_busy.wait();
            let inner: Vec<u64> = (0..8).collect();
            pool.map(&inner, 3, |_, &y| x * 100 + y)
        });
        for (x, row) in out.iter().enumerate() {
            let want: Vec<u64> = (0..8).map(|y| x as u64 * 100 + y).collect();
            assert_eq!(row, &want);
        }
    }

    #[test]
    fn helper_panic_resumes_on_caller_and_pool_keeps_serving() {
        let pool = Pool::new(1);
        let caller = thread::current().id();
        // The caller's task waits until the helper holds the other task,
        // so the panic is guaranteed to happen on the helper.
        let (started_tx, started_rx) = mpsc::channel();
        let started_rx = Mutex::new(started_rx);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0u8, 1], 2, |_, _| {
                if on(caller) {
                    lock(&started_rx).recv().unwrap();
                } else {
                    started_tx.send(()).unwrap();
                    panic::panic_any(0xB0A7_u32);
                }
            })
        }))
        .expect_err("the helper's panic must reach the caller");
        assert_eq!(err.downcast_ref::<u32>(), Some(&0xB0A7));

        // Same handshake again: the call can only finish if the helper
        // survived its panic and runs the second task.
        let helper_name = Mutex::new(None);
        let out = pool.map(&[10u8, 20], 2, |_, &x| {
            if on(caller) {
                lock(&started_rx).recv().unwrap();
            } else {
                *lock(&helper_name) = thread::current().name().map(str::to_string);
                started_tx.send(()).unwrap();
            }
            x + 1
        });
        assert_eq!(out, vec![11, 21]);
        assert_eq!(lock(&helper_name).as_deref(), Some("qsim-par-0"));
    }

    #[test]
    fn caller_panic_waits_for_helper_mid_task() {
        let pool = Pool::new(1);
        let caller = thread::current().id();
        let (started_tx, started_rx) = mpsc::channel();
        let started_rx = Mutex::new(started_rx);
        let (kept_registered, helper_finished) = (AtomicBool::new(false), AtomicBool::new(false));

        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0u8, 1], 2, |_, _| {
                if on(caller) {
                    lock(&started_rx).recv().unwrap();
                    panic!("caller task failed");
                }
                started_tx.send(()).unwrap();
                // Stay mid-task until the unwinding caller has withdrawn the
                // job (or, if the pool were broken, dropped it). A correct
                // pool keeps it registered until this helper leaves.
                let registered = loop {
                    match lock(&pool.shared.queue).jobs.first() {
                        Some(job) if !job.withdrawn => {}
                        job => break job.is_some_and(|j| j.active == 1),
                    }
                    thread::yield_now();
                };
                kept_registered.store(registered, Ordering::SeqCst);
                helper_finished.store(true, Ordering::SeqCst);
            })
        }))
        .expect_err("the caller's panic propagates");
        assert_eq!(panic_message(err.as_ref()), "caller task failed");
        assert!(
            helper_finished.load(Ordering::SeqCst),
            "the call unwound while a helper was still inside it"
        );
        assert!(
            kept_registered.load(Ordering::SeqCst),
            "the job was dropped while a helper was still inside it"
        );
        assert!(lock(&pool.shared.queue).jobs.is_empty());
    }

    #[test]
    fn back_to_back_small_calls_stay_ordered() {
        for k in 0..1000u64 {
            let items = [k, k + 1, k + 2, k + 3];
            let out = parallel_map(&items, 4, |i, &x| x * 10 + i as u64);
            assert_eq!(out, vec![k * 10, k * 10 + 11, k * 10 + 22, k * 10 + 33]);
        }
    }
}
