//! Fork-join helpers over the (optionally pooled) `rayon` runtime.
//!
//! The engine's honest compute lanes and the bench crate's
//! scenario-matrix fanout share the same shape: recursively split a
//! chunk of work in two, forking the halves onto worker threads, until the
//! chunks are small enough to run serially. These helpers capture that
//! shape once, built **only** on `rayon::join` — so they work identically
//! against the vendored persistent pool and against crates.io rayon
//! (swapping the `vendor/` path entry stays a no-op).
//!
//! The `parallel` crate feature shows in one place, the fork site
//! ([`width`] and the private `join`): with it, a fork goes through
//! `rayon::join` and the width is the current pool's; without it, the
//! pool is one thread wide and a fork runs its halves in order. The
//! [`PhaseSend`]/[`PhaseShared`] bounds are `Send`/`Sync` with the feature
//! and empty without it, so callers need no `cfg` of their own.

use crate::engine::{PhaseSend, PhaseShared};

/// The worker count of the current pool: `rayon::current_num_threads()`
/// with the `parallel` feature (`BCOUNT_POOL_THREADS`, or the pool a
/// `ThreadPool::install` runs in), 1 without it.
pub fn width() -> usize {
    #[cfg(feature = "parallel")]
    let width = rayon::current_num_threads();
    #[cfg(not(feature = "parallel"))]
    let width = 1;
    width
}

/// Runs `a` and `b`: through `rayon::join` with the `parallel` feature
/// (inline in a one-thread pool), in order without it.
fn join<A, B>(a: A, b: B)
where
    A: FnOnce() + PhaseSend,
    B: FnOnce() + PhaseSend,
{
    #[cfg(feature = "parallel")]
    rayon::join(a, b);
    #[cfg(not(feature = "parallel"))]
    {
        a();
        b();
    }
}

/// The decision a splitter makes about one lane of work.
pub enum Split<L> {
    /// Too big: fork into two independent halves.
    Fork(L, L),
    /// Small enough: run the leaf body.
    Leaf(L),
}

/// Recursively splits `lane` via `split`, forking the halves onto the
/// pool, and runs `leaf` on every non-splittable piece. Whether the
/// halves run on two threads or in order (left first) is the schedule's
/// business: callers rely on the two being observationally identical,
/// which holds whenever the lanes are disjoint (the splitter hands out
/// non-overlapping state).
pub fn for_each_split<L, S, F>(lane: L, split: &S, leaf: &F)
where
    L: PhaseSend,
    S: Fn(L) -> Split<L> + PhaseShared,
    F: Fn(L) + PhaseShared,
{
    match split(lane) {
        Split::Leaf(lane) => leaf(lane),
        Split::Fork(left, right) => join(
            || for_each_split(left, split, leaf),
            || for_each_split(right, split, leaf),
        ),
    }
}

/// One contiguous piece of a sliced work list: the slice plus the index of
/// its first element in the original.
struct ChunkLane<'a, T> {
    base: usize,
    items: &'a mut [T],
}

/// Runs `body(base_index, chunk)` over `items` split into chunks of at
/// most `chunk` elements, forking the chunks across the pool. Chunks are
/// disjoint `&mut` windows, so bodies may freely mutate their elements;
/// results land in place, preserving the original order regardless of
/// scheduling.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], chunk: usize, body: &F)
where
    T: PhaseSend,
    F: Fn(usize, &mut [T]) + PhaseShared,
{
    let chunk = chunk.max(1);
    for_each_split(
        ChunkLane { base: 0, items },
        &|lane: ChunkLane<'_, T>| {
            if lane.items.len() <= chunk {
                return Split::Leaf(lane);
            }
            let mid = lane.items.len() / 2;
            let (left, right) = lane.items.split_at_mut(mid);
            Split::Fork(
                ChunkLane {
                    base: lane.base,
                    items: left,
                },
                ChunkLane {
                    base: lane.base + mid,
                    items: right,
                },
            )
        },
        &|lane: ChunkLane<'_, T>| body(lane.base, lane.items),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `body` inside pools of 1, 2, 4 and 8 workers: a one-thread
    /// pool runs every fork's halves in order, and the wider ones fork
    /// with the `parallel` feature (without it every pool is one wide).
    fn at_each_width(body: impl Fn(usize) + Sync) {
        for threads in [1, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds");
            pool.install(|| {
                assert!(width() == 1 || width() == threads);
                body(threads);
            });
        }
    }

    #[test]
    fn chunks_cover_every_item_exactly_once_in_order() {
        at_each_width(|threads| {
            let mut items: Vec<u32> = vec![0; 257];
            for_each_chunk_mut(&mut items, 16, &|base, chunk| {
                for (i, item) in chunk.iter_mut().enumerate() {
                    // Each element visited exactly once, at its own index.
                    assert_eq!(*item, 0);
                    *item = (base + i) as u32;
                }
            });
            let expect: Vec<u32> = (0..257).collect();
            assert_eq!(items, expect, "pool width {threads}");
        });
    }

    #[test]
    fn single_chunk_runs_without_split() {
        let mut items = vec![1u8, 2, 3];
        for_each_chunk_mut(&mut items, 8, &|base, chunk| {
            assert_eq!(base, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn split_recursion_reaches_all_leaves() {
        // Sum 0..1024 through the generic splitter.
        use std::sync::atomic::{AtomicU64, Ordering};
        at_each_width(|threads| {
            let total = AtomicU64::new(0);
            for_each_split(
                0u64..1024,
                &|range: std::ops::Range<u64>| {
                    if range.end - range.start <= 32 {
                        Split::Leaf(range)
                    } else {
                        let mid = range.start + (range.end - range.start) / 2;
                        Split::Fork(range.start..mid, mid..range.end)
                    }
                },
                &|range: std::ops::Range<u64>| {
                    total.fetch_add(range.sum::<u64>(), Ordering::Relaxed);
                },
            );
            assert_eq!(
                total.load(Ordering::Relaxed),
                1024 * 1023 / 2,
                "pool width {threads}"
            );
        });
    }
}
