//! Deterministic fan-out over threads.
//!
//! Each figure in the paper sweeps a parameter (threshold δ, relevant-node
//! percentage, …) over full 20 000-epoch simulations. Individual simulations
//! are single-threaded and deterministic; the sweep fans the parameter
//! points across worker threads and returns results in input order, so
//! parallel and sequential execution produce byte-identical reports.
//!
//! Every fan-out in the workspace — the sweep and the engine's two sharded
//! passes, the world advance and sensor sampling — goes through
//! [`for_each_mut`]: scoped threads claim the items of one `&mut` slice in
//! order, so the borrow checker proves that no two threads touch the same
//! item, and the threads are started and joined within the call.

use std::sync::Mutex;

/// Run `f` on every element of `items`, each exactly once, on the calling
/// thread and `threads − 1` scoped threads (no more threads than items),
/// which claim items in order. Which thread runs which item varies from
/// call to call, so `f` must make each item's result depend on that item
/// alone.
///
/// With `threads ≤ 1`, or at most one item, every item runs inline on the
/// caller and no thread starts. A panicking item propagates to the caller
/// once every thread has stopped; the other items still run.
///
/// ```
/// let mut cells = [1u64, 2, 3, 4];
/// dirq_sim::runner::for_each_mut(&mut cells, 2, |x| *x *= *x);
/// assert_eq!(cells, [1, 4, 9, 16]);
/// ```
pub fn for_each_mut<T: Send>(items: &mut [T], threads: usize, f: impl Fn(&mut T) + Sync) {
    let threads = threads.min(items.len());
    if threads <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let queue = Mutex::new(items.iter_mut());
    let work = || loop {
        // Claim in a statement of its own, so `f` runs with the lock
        // released.
        let item = queue.lock().expect("nothing panics while holding the claim lock").next();
        let Some(item) = item else {
            break;
        };
        f(item);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

/// Run `f` over every element of `params`, in parallel, preserving order.
///
/// `threads = 0` selects the available CPU parallelism. Panics in workers
/// are propagated to the caller.
///
/// ```
/// let squares = dirq_sim::runner::run_sweep(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn run_sweep<P, R, F>(params: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let mut cells: Vec<(&P, Option<R>)> = params.iter().map(|p| (p, None)).collect();
    for_each_mut(&mut cells, effective_threads(threads, params.len()), |(p, r)| *r = Some(f(p)));
    cells.into_iter().map(|(_, r)| r.expect("every sweep cell ran")).collect()
}

/// Decide how many worker threads to use for `jobs` work items.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 { host_threads() } else { requested };
    t.min(jobs).max(1)
}

/// The host's available parallelism (1 when it cannot be read). A query
/// costs tens of microseconds, so callers resolve a worker count once.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deployments below this node count run their per-node sharded passes
/// serially: the whole pass takes a few microseconds, less than starting
/// the threads.
const SHARD_MIN_NODES: usize = 512;

/// The worker count a per-node sharded pass (the world advance, sensor
/// sampling) runs at over `nodes` nodes when `requested` are asked for:
/// 1 when `requested` is at most 1 or `nodes` is below a 512-node floor,
/// otherwise `requested` clamped to [`host_threads`], so a 1-core host
/// runs serially too. The host is queried only past the first two
/// checks. Worker counts only ever change speed, never results.
pub fn shard_workers(requested: usize, nodes: usize) -> usize {
    if requested > 1 && nodes >= SHARD_MIN_NODES {
        requested.min(host_threads())
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_workers_follow_the_request_the_floor_and_the_host() {
        let host = host_threads();
        for nodes in [0, 1, SHARD_MIN_NODES - 1, SHARD_MIN_NODES, 50_000] {
            for requested in [0, 1] {
                assert_eq!(shard_workers(requested, nodes), 1, "{requested} of {nodes}");
            }
        }
        for requested in [2, 4, 64] {
            assert_eq!(shard_workers(requested, SHARD_MIN_NODES - 1), 1, "below the floor");
            for nodes in [SHARD_MIN_NODES, 50_000] {
                assert_eq!(shard_workers(requested, nodes), requested.min(host));
            }
        }
    }

    #[test]
    fn empty_sweep() {
        let out: Vec<u32> = run_sweep(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let params: Vec<u64> = (0..257).collect();
        let out = run_sweep(&params, 8, |&x| x * 3);
        assert_eq!(out, params.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_path_used_for_single_thread() {
        let params = vec![1, 2, 3];
        let out = run_sweep(&params, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items slow so completion order inverts submission order.
        let params: Vec<u64> = (0..32).collect();
        let out = run_sweep(&params, 4, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, params);
    }

    #[test]
    fn effective_threads_bounds() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let params = vec![0u32, 1, 2];
        let _ = run_sweep(&params, 2, |&x| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn for_each_mut_runs_every_item_exactly_once() {
        for len in [0usize, 1, 7, 97] {
            let expected: Vec<(usize, u64)> = (0..len).map(|i| (1, (i as u64) * 31 + 7)).collect();
            for threads in [1usize, 2, 3, 8] {
                // (index, runs, value): the value is written from the item alone.
                let mut items: Vec<(usize, usize, u64)> = (0..len).map(|i| (i, 0, 0)).collect();
                for_each_mut(&mut items, threads, |(i, runs, value)| {
                    *runs += 1;
                    *value = (*i as u64) * 31 + 7;
                });
                let got: Vec<(usize, u64)> = items.iter().map(|&(_, r, v)| (r, v)).collect();
                assert_eq!(got, expected, "{len} items at {threads} threads");
            }
        }
    }

    #[test]
    fn for_each_mut_propagates_a_panic_and_stays_usable() {
        let mut items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_mut(&mut items, 3, |x| {
                if *x == 5 {
                    panic!("boom");
                }
                *x += 100;
            });
        }));
        assert!(result.is_err(), "the item's panic must reach the caller");
        for (i, &x) in items.iter().enumerate() {
            let want = if i == 5 { 5 } else { i as u32 + 100 };
            assert_eq!(x, want, "item {i}: every other item still runs");
        }
        let mut again: Vec<u32> = (0..16).collect();
        for_each_mut(&mut again, 3, |x| *x *= 2);
        assert_eq!(again, (0..16).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn for_each_mut_at_one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let mut ran_on: Vec<Option<std::thread::ThreadId>> = vec![None; 9];
        for_each_mut(&mut ran_on, 1, |t| *t = Some(std::thread::current().id()));
        assert!(ran_on.iter().all(|&t| t == Some(caller)));
    }
}
