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
//! Without the `parallel` crate feature the same functions exist with the
//! `Send`/`Sync` bounds dropped and every fork degraded to sequential
//! recursion, so callers need no `cfg` of their own.

/// The decision a splitter makes about one lane of work.
pub enum Split<L> {
    /// Too big: fork into two independent halves.
    Fork(L, L),
    /// Small enough: run the leaf body.
    Leaf(L),
}

/// Recursively splits `lane` via `split`, forking the halves through
/// `rayon::join` while `parallel` holds, and runs `leaf` on every
/// non-splittable piece. With `parallel` false (or without the feature)
/// the recursion is strictly sequential and left-to-right — callers rely
/// on the two orders being observationally identical, which holds whenever
/// the lanes are disjoint (the splitter hands out non-overlapping state).
#[cfg(feature = "parallel")]
pub fn for_each_split<L, S, F>(lane: L, parallel: bool, split: &S, leaf: &F)
where
    L: Send,
    S: Fn(L) -> Split<L> + Sync,
    F: Fn(L) + Sync,
{
    match split(lane) {
        Split::Leaf(lane) => leaf(lane),
        Split::Fork(left, right) => {
            if parallel {
                rayon::join(
                    || for_each_split(left, true, split, leaf),
                    || for_each_split(right, true, split, leaf),
                );
            } else {
                for_each_split(left, false, split, leaf);
                for_each_split(right, false, split, leaf);
            }
        }
    }
}

/// Sequential fallback of [`for_each_split`] (no `parallel` feature): same
/// signature minus the thread-safety bounds, every fork run in order.
#[cfg(not(feature = "parallel"))]
pub fn for_each_split<L, S, F>(lane: L, _parallel: bool, split: &S, leaf: &F)
where
    S: Fn(L) -> Split<L>,
    F: Fn(L),
{
    match split(lane) {
        Split::Leaf(lane) => leaf(lane),
        Split::Fork(left, right) => {
            for_each_split(left, _parallel, split, leaf);
            for_each_split(right, _parallel, split, leaf);
        }
    }
}

/// One contiguous piece of a sliced work list: the slice plus the index of
/// its first element in the original.
struct ChunkLane<'a, T> {
    base: usize,
    items: &'a mut [T],
}

/// The shared splitter behind both [`for_each_chunk_mut`] variants:
/// halve the lane until it is at most `chunk` items wide.
fn split_chunk_lane<T>(lane: ChunkLane<'_, T>, chunk: usize) -> Split<ChunkLane<'_, T>> {
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
}

/// Runs `body(base_index, chunk)` over `items` split into chunks of at
/// most `chunk` elements, forking the chunks across the pool while
/// `parallel` holds (sequentially otherwise). Chunks are disjoint
/// `&mut` windows, so bodies may freely mutate their elements; results
/// land in place, preserving the original order regardless of scheduling.
#[cfg(feature = "parallel")]
pub fn for_each_chunk_mut<T, F>(items: &mut [T], chunk: usize, parallel: bool, body: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    for_each_split(
        ChunkLane { base: 0, items },
        parallel,
        &|lane: ChunkLane<'_, T>| split_chunk_lane(lane, chunk),
        &|lane: ChunkLane<'_, T>| body(lane.base, lane.items),
    );
}

/// Sequential fallback of [`for_each_chunk_mut`] (no `parallel` feature).
#[cfg(not(feature = "parallel"))]
pub fn for_each_chunk_mut<T, F>(items: &mut [T], chunk: usize, parallel: bool, body: &F)
where
    F: Fn(usize, &mut [T]),
{
    let chunk = chunk.max(1);
    for_each_split(
        ChunkLane { base: 0, items },
        parallel,
        &|lane: ChunkLane<'_, T>| split_chunk_lane(lane, chunk),
        &|lane: ChunkLane<'_, T>| body(lane.base, lane.items),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_item_exactly_once_in_order() {
        for parallel in [false, true] {
            let mut items: Vec<u32> = vec![0; 257];
            for_each_chunk_mut(&mut items, 16, parallel, &|base, chunk| {
                for (i, item) in chunk.iter_mut().enumerate() {
                    // Each element visited exactly once, at its own index.
                    assert_eq!(*item, 0);
                    *item = (base + i) as u32;
                }
            });
            let expect: Vec<u32> = (0..257).collect();
            assert_eq!(items, expect, "parallel={parallel}");
        }
    }

    #[test]
    fn single_chunk_runs_without_split() {
        let mut items = vec![1u8, 2, 3];
        for_each_chunk_mut(&mut items, 8, true, &|base, chunk| {
            assert_eq!(base, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn split_recursion_reaches_all_leaves() {
        // Sum 0..1024 through the generic splitter.
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        for_each_split(
            0u64..1024,
            true,
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
        assert_eq!(total.load(Ordering::Relaxed), 1024 * 1023 / 2);
    }
}
