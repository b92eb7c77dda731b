//! Execution policies and a std-only scoped-thread worker pool.
//!
//! Every hot loop of the pipeline — activation-set computation, greedy
//! selection's candidate precompute, gradient-based synthesis, detection
//! trials — is embarrassingly parallel across inputs. This module provides the
//! one knob they all share, [`ExecPolicy`], plus two order-preserving map
//! combinators built on [`std::thread::scope`] with a chunk-level
//! work-stealing queue (the build environment has no crates.io access, so no
//! rayon; an atomic-counter chunk queue over scoped threads covers everything
//! needed here while keeping uneven per-item costs load-balanced).
//!
//! The module lives in the tensor crate — the root of the workspace dependency
//! graph — so that every layer (`dnnip-nn`, `dnnip-faults`, `dnnip-core`,
//! `dnnip-bench`) can share the same policy type; `dnnip_core::par` re-exports
//! it under its historical path.
//!
//! **Determinism contract:** [`map`] and [`try_map`] return results in input
//! order, and the work distribution never influences what each item computes —
//! so `ExecPolicy::Serial` and `ExecPolicy::Threads(n)` produce *bit-identical*
//! results for any pure per-item function. The differential test suite
//! (`tests/parallel_equivalence.rs`) pins this end to end.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// How a parallelizable stage executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Run on the calling thread. The default: zero overhead, no surprises.
    #[default]
    Serial,
    /// Run on up to `n` scoped worker threads (`0` and `1` behave like
    /// [`ExecPolicy::Serial`]).
    Threads(usize),
}

impl ExecPolicy {
    /// One worker per available hardware thread (as reported by
    /// [`std::thread::available_parallelism`]; falls back to 1). Callers that
    /// want a specific count pass [`ExecPolicy::Threads`] instead.
    pub fn auto() -> Self {
        ExecPolicy::Threads(
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of worker threads this policy uses (at least 1).
    pub fn threads(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
        }
    }
}

/// Target number of work-queue chunks handed out per worker. More chunks than
/// workers is what makes the queue *steal*: a worker that drew cheap chunks
/// keeps pulling while a slow one is still busy, instead of idling at the
/// barrier the old one-contiguous-chunk-per-worker split imposed.
const CHUNKS_PER_WORKER: usize = 4;

/// Apply `f` to every item, in parallel according to `policy`, preserving input
/// order in the result.
///
/// Work distribution is a chunk-level work-stealing queue: items are split
/// into `CHUNKS_PER_WORKER ×` more contiguous chunks than workers, and each
/// worker repeatedly claims the next unclaimed chunk off a shared atomic
/// counter until the queue is drained. Uneven per-item costs (mixed image
/// sizes, early-exit items) therefore no longer stall the whole map on the
/// unluckiest worker. Each chunk's results are tagged with its queue index and
/// re-assembled in input order afterwards, and `f` runs per item regardless of
/// which worker claims it — so the output is **bit-identical** for every
/// policy and worker count (pinned by the differential tests below and in
/// `tests/parallel_equivalence.rs`).
///
/// A panic in any worker propagates to the caller.
pub fn map<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = policy.threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items
        .len()
        .div_ceil(workers.saturating_mul(CHUNKS_PER_WORKER))
        .max(1);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let next = AtomicUsize::new(0);
    // Never spawn more threads than there are chunks to claim.
    let spawned = workers.min(chunks.len());
    let mut tagged: Vec<(usize, Vec<R>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(c) else { break };
                        local.push((c, chunk.iter().map(&f).collect()));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    // Chunk indices are unique, so this sort restores exact input order no
    // matter which worker claimed which chunk.
    tagged.sort_unstable_by_key(|(c, _)| *c);
    tagged.into_iter().flat_map(|(_, r)| r).collect()
}

/// Fallible version of [`map`]: applies `f` to every item and returns the
/// results in input order, or the error of the **lowest-indexed** failing item
/// (so the reported error does not depend on thread scheduling).
///
/// # Errors
///
/// Returns the first (by input order) error produced by `f`.
pub fn try_map<T, R, E, F>(policy: ExecPolicy, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    map(policy, items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn policies_report_thread_counts() {
        assert_eq!(ExecPolicy::Serial.threads(), 1);
        assert_eq!(ExecPolicy::Threads(0).threads(), 1);
        assert_eq!(ExecPolicy::Threads(4).threads(), 4);
        assert!(ExecPolicy::auto().threads() >= 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::Serial);
    }

    #[test]
    fn map_preserves_order_for_every_policy() {
        let items: Vec<usize> = (0..103).collect();
        let serial = map(ExecPolicy::Serial, &items, |&x| x * x);
        for threads in [1usize, 2, 3, 4, 7, 200] {
            let parallel = map(ExecPolicy::Threads(threads), &items, |&x| x * x);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        assert!(map(ExecPolicy::Threads(4), &Vec::<usize>::new(), |&x| x).is_empty());
    }

    #[test]
    fn map_actually_visits_every_item_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        let out = map(ExecPolicy::Threads(4), &items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(out[49], 50);
    }

    #[test]
    fn work_stealing_is_bit_identical_under_skewed_costs() {
        // Differential serial-vs-threads test with wildly uneven per-item
        // work: cheap items return immediately, expensive ones spin. The
        // stealing queue must not change a single result or its position.
        let items: Vec<usize> = (0..61).collect();
        let skewed = |&x: &usize| -> u64 {
            let mut acc = x as u64;
            // Items divisible by 7 are ~1000× more expensive.
            let reps = if x % 7 == 0 { 20_000 } else { 20 };
            for i in 0..reps {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial = map(ExecPolicy::Serial, &items, skewed);
        for threads in [2usize, 3, 4, 16] {
            assert_eq!(
                map(ExecPolicy::Threads(threads), &items, skewed),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn stealing_queue_hands_multiple_chunks_to_one_worker() {
        use std::collections::{HashMap, HashSet};
        use std::sync::Mutex;
        // With 2 workers over 64 items the queue holds 64 / (2 × 4) = 8-item
        // chunks, i.e. 8 chunks. Record which thread processed each chunk: 8
        // chunks over at most 2 threads means some thread MUST drain several —
        // which is exactly what the pre-stealing one-chunk-per-worker split
        // could never do.
        let items: Vec<usize> = (0..64).collect();
        let chunk_len = 64usize.div_ceil(2 * CHUNKS_PER_WORKER);
        let chunks_by_thread: Mutex<HashMap<std::thread::ThreadId, HashSet<usize>>> =
            Mutex::new(HashMap::new());
        let out = map(ExecPolicy::Threads(2), &items, |&x| {
            chunks_by_thread
                .lock()
                .unwrap()
                .entry(std::thread::current().id())
                .or_default()
                .insert(x / chunk_len);
            x
        });
        assert_eq!(out, items);
        let by_thread = chunks_by_thread.lock().unwrap();
        let max_chunks = by_thread.values().map(HashSet::len).max().unwrap();
        assert!(
            max_chunks > 1,
            "no worker drained more than one chunk — queue degenerated to static chunking"
        );
    }

    #[test]
    fn try_map_returns_the_lowest_indexed_error() {
        let items: Vec<usize> = (0..40).collect();
        let result = try_map(ExecPolicy::Threads(4), &items, |&x| {
            if x % 10 == 7 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(result, Err(7));
        let ok: Result<Vec<usize>, usize> = try_map(ExecPolicy::Threads(3), &items, |&x| Ok(x * 2));
        assert_eq!(ok.unwrap()[3], 6);
    }
}
