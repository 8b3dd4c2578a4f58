//! Shim for the `rayon` API subset used in this workspace. The build
//! environment has no network access and an empty cargo registry, so
//! external crates are vendored as minimal API-compatible shims under
//! `compat/` (see the workspace README).
//!
//! Supported shape: `slice.par_iter().map(f).collect()`. Results come
//! back **in input order**, so `collect` is deterministic regardless of
//! scheduling.
//!
//! Execution model:
//!
//! - **One persistent pool.** The thread count is read once, at the
//!   first parallel call: `RAYON_NUM_THREADS`, else
//!   `available_parallelism`. The process then starts `threads − 1`
//!   workers that live as long as it does; no call spawns a thread.
//! - **Shared claiming.** A map over 2 or more items queues one helper
//!   job per spare worker (at most `items − 1`). The calling thread
//!   claims items itself; caller and helpers take the next item from one
//!   atomic index, so uneven items and a late-waking worker balance on
//!   their own. Each result is written to its input's slot.
//! - **No nested fan-out.** A `par_iter` made while the thread is
//!   already inside a parallel map (a worker, or a caller claiming its
//!   items) runs sequentially on that thread.
//! - **No deadlock between callers.** Helpers never wait on the pool.
//!   When a caller runs out of items it takes back its helper jobs no
//!   worker has started and waits only for the ones already running.
//!   It never runs another caller's job while it waits: that job could
//!   need a lock the waiting thread holds.
//! - **Panics.** A panic in any item resumes on the caller once no
//!   helper is running; the pool keeps serving later calls.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    /// Set on pool workers for their whole life, and on a caller while
    /// it claims its own items: a `par_iter` made here runs inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Worker threads ever started. Only the pool's one-time start-up
/// spawns, so this stays at `threads − 1` however many calls run.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

type Panic = Box<dyn Any + Send>;

/// One parallel map's bookkeeping, shared with its helper jobs.
struct Call {
    /// Helper jobs queued or running for this call.
    pending: Mutex<usize>,
    done: Condvar,
    /// The first panic a helper caught.
    panic: Mutex<Option<Panic>>,
}

/// One helper's share of a call: claim and map items until none is left.
struct Job {
    call: Arc<Call>,
    /// Borrows the caller's stack; see the safety contract in
    /// [`par_map_slice`].
    work: &'static (dyn Fn() + Sync),
}

impl Job {
    fn run(self) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(self.work)) {
            lock(&self.call.panic).get_or_insert(payload);
        }
        let mut pending = lock(&self.call.pending);
        *pending -= 1;
        if *pending == 0 {
            self.call.done.notify_all();
        }
    }
}

struct Pool {
    /// Workers actually started (`threads − 1` unless a spawn failed).
    workers: usize,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// No code panics while holding a shim lock, so a poisoned guard is
/// still consistent; recovering it keeps `Helpers::drop` panic-free.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn thread_count() -> usize {
    // Honor rayon's own env convention so thread count can be forced —
    // e.g. RAYON_NUM_THREADS=4 on a single-core box to genuinely
    // exercise cross-thread behavior.
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        // Workers call `pool()` first thing and block until this
        // initialiser returns.
        let mut workers = 0;
        for i in 1..thread_count() {
            let started = std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(worker_loop);
            if started.is_err() {
                break;
            }
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            workers += 1;
        }
        Pool {
            workers,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    })
}

/// A worker runs for the life of the process and is never joined: every
/// job catches its own panic, so the loop itself cannot end.
fn worker_loop() {
    IN_PARALLEL.set(true);
    let pool = pool();
    loop {
        let mut queue = pool
            .ready
            .wait_while(lock(&pool.queue), |queue| queue.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        let job = queue.pop_front();
        drop(queue);
        if let Some(job) = job {
            job.run();
        }
    }
}

/// Held by a caller while its helpers may run. Dropping it — on return
/// or on unwind — takes back the helper jobs no worker has started and
/// waits for the rest, then clears the caller's in-parallel flag.
struct Helpers<'p> {
    pool: &'p Pool,
    call: &'p Arc<Call>,
}

impl Drop for Helpers<'_> {
    fn drop(&mut self) {
        let mut queue = lock(&self.pool.queue);
        let queued = queue.len();
        queue.retain(|job| !Arc::ptr_eq(&job.call, self.call));
        let retracted = queued - queue.len();
        drop(queue);
        let mut pending = lock(&self.call.pending);
        *pending -= retracted;
        drop(self.call.done.wait_while(pending, |pending| *pending > 0));
        IN_PARALLEL.set(false);
    }
}

/// Order-preserving parallel map over a slice.
fn par_map_slice<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    let pool = pool();
    let helpers = pool.workers.min(items.len().saturating_sub(1));
    if helpers == 0 || IN_PARALLEL.get() {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let claim = || loop {
        // Relaxed: the index only hands out items; results are published
        // through the slot mutexes and the call's pending count.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
            break;
        };
        let result = f(item);
        *lock(slot) = Some(result);
    };
    let call = Arc::new(Call {
        pending: Mutex::new(helpers),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        // SAFETY: `work` borrows `claim`, which borrows `items`, `f`,
        // `next` and `slots`, all of which outlive `_helpers`. Helper
        // jobs only reach `work` through `pool.queue`, and dropping
        // `_helpers` — on return and on unwind alike — removes every job
        // of this call still queued and waits until each one a worker
        // took has finished. So no job touches the borrow after this
        // block, and a helper's panic is caught inside `Job::run`.
        let work: &'static (dyn Fn() + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync + 'static)>(
                &claim,
            )
        };
        IN_PARALLEL.set(true);
        let _helpers = Helpers { pool, call: &call };
        lock(&pool.queue).extend((0..helpers).map(|_| Job {
            call: Arc::clone(&call),
            work,
        }));
        for _ in 0..helpers {
            pool.ready.notify_one();
        }
        claim();
    }
    if let Some(payload) = lock(&call.panic).take() {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("rayon-shim: every item is claimed exactly once")
        })
        .collect()
}

/// Entry point: `.par_iter()` on slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: 'a;
    /// The parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// Result of [`ParIter::map`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// The subset of rayon's `ParallelIterator` this workspace needs:
/// terminal `collect` on mapped parallel iterators.
pub trait ParallelIterator {
    /// Produced item type.
    type Item: Send;

    /// Evaluate in parallel, preserving input order.
    fn to_vec(self) -> Vec<Self::Item>;

    /// Collect into any `FromIterator` container (input order).
    fn collect<C: FromIterator<Self::Item>>(self) -> C
    where
        Self: Sized,
    {
        self.to_vec().into_iter().collect()
    }
}

impl<'a, T, R, F> ParallelIterator for ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    type Item = R;
    fn to_vec(self) -> Vec<R> {
        par_map_slice(self.items, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::{Duration, Instant};

    /// Spin until `flag` is set, giving up after `limit`.
    fn wait_for(flag: &AtomicBool, limit: Duration) {
        let started = Instant::now();
        while !flag.load(Ordering::SeqCst) && started.elapsed() < limit {
            thread::yield_now();
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload.downcast_ref::<&str>().copied().unwrap_or("")
    }

    fn assert_pool_serves() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, (0..1000).map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn nested_par_iter_is_ordered_and_finishes() {
        let outer: Vec<u64> = (0..16).collect();
        let inner: Vec<u64> = (0..100).collect();
        let sums: Vec<Vec<u64>> = outer
            .par_iter()
            .map(|o| {
                // The nested map runs inline: every inner item on the
                // thread that claimed the outer one.
                let here = thread::current().id();
                inner
                    .par_iter()
                    .map(|i| {
                        // Long enough for an idle worker to claim an
                        // item, were the call to fan out.
                        let started = Instant::now();
                        while started.elapsed() < Duration::from_micros(20) {}
                        assert_eq!(thread::current().id(), here, "nested call fanned out");
                        o * 1000 + i
                    })
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<u64>> = (0..16)
            .map(|o| (0..100).map(|i| o * 1000 + i).collect())
            .collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn caller_item_panic_reaches_caller() {
        let caller = thread::current().id();
        let caller_claimed = AtomicBool::new(false);
        let v: Vec<u64> = (0..64).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            v.par_iter()
                .map(|x| {
                    if thread::current().id() == caller {
                        caller_claimed.store(true, Ordering::SeqCst);
                        panic!("caller item");
                    }
                    // Leave an item for the caller to claim.
                    wait_for(&caller_claimed, Duration::from_secs(10));
                    *x
                })
                .collect::<Vec<u64>>()
        }));
        let payload = result.expect_err("the caller's panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "caller item");
        assert_pool_serves();
    }

    #[test]
    fn helper_item_panic_reaches_caller() {
        if super::pool().workers == 0 {
            // One thread: no helper exists to panic. CI reruns this
            // crate's tests with RAYON_NUM_THREADS=4.
            return;
        }
        let caller = thread::current().id();
        let helper_claimed = AtomicBool::new(false);
        let v: Vec<u64> = (0..64).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            v.par_iter()
                .map(|x| {
                    if thread::current().id() != caller {
                        helper_claimed.store(true, Ordering::SeqCst);
                        panic!("helper item");
                    }
                    // Leave an item for a helper to claim.
                    wait_for(&helper_claimed, Duration::from_secs(10));
                    *x
                })
                .collect::<Vec<u64>>()
        }));
        let payload = result.expect_err("a helper's panic must reach the caller");
        assert_eq!(panic_message(payload.as_ref()), "helper item");
        assert_pool_serves();
    }

    #[test]
    fn concurrent_callers_get_exact_results() {
        thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    let v: Vec<u64> = (0..50).collect();
                    for round in 0..200u64 {
                        let out: Vec<u64> = v.par_iter().map(|x| x * t + round).collect();
                        assert_eq!(out, (0..50).map(|x| x * t + round).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn no_thread_spawned_per_call() {
        let v: Vec<u64> = (0..32).collect();
        for round in 0..1000u64 {
            let out: Vec<u64> = v.par_iter().map(|x| x + round).collect();
            assert_eq!(out.len(), 32);
        }
        let spawned = super::SPAWNED.load(Ordering::Relaxed);
        assert_eq!(spawned, super::pool().workers);
        assert!(spawned < super::thread_count(), "spawned {spawned} threads");
    }
}
