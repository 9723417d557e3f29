//! Indexed ready queue for Algorithm 1.
//!
//! The scheduler's waiting queue must support two operations at every
//! decision point: insert a released task in policy-key order, and
//! start *every* waiting task whose allocation fits in the free
//! processors, scanning in key order (list scheduling, Algorithm 1
//! lines 7–11). A sorted `Vec` makes both O(n) — O(n²) over a run.
//!
//! [`IndexedQueue`] replaces it with a two-tier structure:
//!
//! * While the queue holds at most [`SPILL_THRESHOLD`] tasks it lives
//!   in a sorted inline buffer — identical layout to the reference
//!   queue, but with a cached minimum allocation so a decision point
//!   where *nothing* fits is rejected in O(1) instead of a full scan.
//!   At the queue depths real DAG workloads produce (a few hundred
//!   waiting tasks), the buffer's contiguous scans and memmoves beat
//!   any pointer structure's cache behaviour.
//! * Past the threshold the buffer spills into a treap (randomized
//!   BST) over the policy key, augmented with the **minimum allocation
//!   in each subtree**. Insertion is O(log n); finding the first task
//!   in key order with `alloc ≤ free` is a single root-to-leaf descent
//!   guided by the subtree minima, so a decision point that starts `k`
//!   tasks costs O((k+1) log n) instead of O(n). When the queue drains
//!   back below a quarter of the threshold, the treap's in-order
//!   contents move back into the buffer (already sorted), restoring
//!   the fast path; the 4× hysteresis bounds transition thrash.
//!
//! Repeatedly popping the first fit until none remains is equivalent
//! to one in-order scan that starts every fitting task, because `free`
//! only decreases while scanning: a task skipped at some point in key
//! order stays infeasible for the rest of that decision point.
//!
//! [`LinearQueue`] keeps the original sorted-`Vec` behaviour as an
//! executable specification; differential tests drive both and demand
//! identical start orders.
//!
//! Treap priorities come from the in-tree SplitMix64 stream seeded per
//! queue, so the tree shape — though never the *observable* queue
//! behaviour — is deterministic across runs and platforms.

use moldable_graph::TaskId;
use moldable_model::rng::splitmix64_next;

/// One waiting task: identity, capped allocation and policy sort key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyItem {
    /// The waiting task.
    pub task: TaskId,
    /// Capped allocation `p'_j` from Algorithm 2.
    pub alloc: u32,
    /// Policy sort key (primary, release-sequence tiebreak) — unique
    /// per item because the sequence number is.
    pub key: (f64, u64),
}

fn key_lt(a: (f64, u64), b: (f64, u64)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

/// Queue interface shared by the indexed and reference implementations.
pub trait ReadyQueue {
    /// Insert a released task (its key must be unique).
    fn push(&mut self, item: ReadyItem);
    /// Remove and return the first task in key order with
    /// `alloc ≤ free`, if any.
    fn pop_first_fit(&mut self, free: u32) -> Option<ReadyItem>;
    /// Number of waiting tasks.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reference implementation: a `Vec` kept sorted by key, scanned
/// linearly — the executable specification of queue behaviour.
#[derive(Debug, Default)]
pub struct LinearQueue {
    items: Vec<ReadyItem>,
}

impl LinearQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReadyQueue for LinearQueue {
    fn push(&mut self, item: ReadyItem) {
        let pos = self.items.partition_point(|it| !key_lt(item.key, it.key));
        self.items.insert(pos, item);
    }

    fn pop_first_fit(&mut self, free: u32) -> Option<ReadyItem> {
        let pos = self.items.iter().position(|it| it.alloc <= free)?;
        Some(self.items.remove(pos))
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

const NIL: u32 = u32::MAX;

/// Queue length at which [`IndexedQueue`] moves from its inline sorted
/// buffer into the treap. Below this, contiguous scans win; above it,
/// the O(log n) descent does.
pub const SPILL_THRESHOLD: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct Node {
    item: ReadyItem,
    /// Heap priority (min at the root), drawn from SplitMix64.
    prio: u64,
    /// Minimum `alloc` in this node's subtree (the augmentation).
    min_alloc: u32,
    left: u32,
    right: u32,
}

/// Indexed ready queue: inline sorted buffer for short queues, treap
/// with subtree-minimum allocation tracking past [`SPILL_THRESHOLD`].
/// Worst-case O(log n) insert and first-fit pop.
#[derive(Debug)]
pub struct IndexedQueue {
    /// Inline tier: sorted by key, holds *all* items iff `root == NIL`.
    small: Vec<ReadyItem>,
    /// Cached minimum `alloc` over `small` (`u32::MAX` when empty).
    small_min: u32,
    /// Blocked-prefix memo for [`IndexedQueue::pop_fits_into`]: the
    /// first `blocked_len` inline items are all known to need more
    /// than `blocked_free` processors (established by the previous
    /// drain), and `blocked_min` is their minimum allocation. A drain
    /// at `free ≤ blocked_free` can start scanning at `blocked_len` —
    /// in steady state (FIFO appends) each item is examined O(1) times
    /// across its whole queue residence instead of once per decision
    /// point. `blocked_len == 0` means no memo.
    blocked_len: usize,
    /// See [`IndexedQueue::blocked_len`].
    blocked_free: u32,
    /// See [`IndexedQueue::blocked_len`].
    blocked_min: u32,
    /// Migration point (constructor-tunable for tests).
    spill_at: usize,
    nodes: Vec<Node>,
    /// Recycled arena slots.
    spare: Vec<u32>,
    root: u32,
    len: usize,
    prio_state: u64,
}

impl Default for IndexedQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexedQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_spill_threshold(SPILL_THRESHOLD)
    }

    /// An empty queue that spills to the treap once it holds more than
    /// `spill_at` items. [`Self::new`] uses [`SPILL_THRESHOLD`].
    #[must_use]
    pub fn with_spill_threshold(spill_at: usize) -> Self {
        Self {
            small: Vec::new(),
            small_min: u32::MAX,
            blocked_len: 0,
            blocked_free: 0,
            blocked_min: u32::MAX,
            spill_at: spill_at.max(1),
            nodes: Vec::new(),
            spare: Vec::new(),
            root: NIL,
            len: 0,
            // Any fixed seed works: priorities only shape the tree.
            prio_state: 0x9D2C_5680_0B5A_3CF5,
        }
    }

    /// Is the inline tier active (treap empty)?
    fn inline_mode(&self) -> bool {
        self.root == NIL
    }

    fn node(&self, i: u32) -> &Node {
        &self.nodes[i as usize]
    }

    fn node_mut(&mut self, i: u32) -> &mut Node {
        &mut self.nodes[i as usize]
    }

    /// Recompute `min_alloc` of `i` from its children.
    fn pull(&mut self, i: u32) {
        let n = self.node(i);
        let mut m = n.item.alloc;
        let (l, r) = (n.left, n.right);
        if l != NIL {
            m = m.min(self.node(l).min_alloc);
        }
        if r != NIL {
            m = m.min(self.node(r).min_alloc);
        }
        self.node_mut(i).min_alloc = m;
    }

    fn alloc_node(&mut self, item: ReadyItem) -> u32 {
        let prio = splitmix64_next(&mut self.prio_state);
        let node = Node {
            item,
            prio,
            min_alloc: item.alloc,
            left: NIL,
            right: NIL,
        };
        if let Some(i) = self.spare.pop() {
            *self.node_mut(i) = node;
            i
        } else {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("queue exceeds u32 capacity")
        }
    }

    /// Insert arena node `new` into the subtree rooted at `at`,
    /// returning the new subtree root.
    fn insert_at(&mut self, at: u32, new: u32) -> u32 {
        if at == NIL {
            return new;
        }
        let mut at = at;
        if key_lt(self.node(new).item.key, self.node(at).item.key) {
            let l = self.insert_at(self.node(at).left, new);
            self.node_mut(at).left = l;
            if self.node(l).prio < self.node(at).prio {
                at = self.rotate_right(at);
            }
        } else {
            let r = self.insert_at(self.node(at).right, new);
            self.node_mut(at).right = r;
            if self.node(r).prio < self.node(at).prio {
                at = self.rotate_left(at);
            }
        }
        self.pull(at);
        at
    }

    /// Right rotation: left child becomes the subtree root.
    fn rotate_right(&mut self, y: u32) -> u32 {
        let x = self.node(y).left;
        self.node_mut(y).left = self.node(x).right;
        self.node_mut(x).right = y;
        self.pull(y);
        self.pull(x);
        x
    }

    /// Left rotation: right child becomes the subtree root.
    fn rotate_left(&mut self, x: u32) -> u32 {
        let y = self.node(x).right;
        self.node_mut(x).right = self.node(y).left;
        self.node_mut(y).left = x;
        self.pull(x);
        self.pull(y);
        y
    }

    /// Merge two subtrees where every key in `a` precedes every key in
    /// `b`, returning the merged root.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.node(a).prio < self.node(b).prio {
            let r = self.merge(self.node(a).right, b);
            self.node_mut(a).right = r;
            self.pull(a);
            a
        } else {
            let l = self.merge(a, self.node(b).left);
            self.node_mut(b).left = l;
            self.pull(b);
            b
        }
    }

    /// Remove the first item in key order with `alloc ≤ free` from the
    /// subtree at `at`. Returns the new subtree root and the removed
    /// arena index (if the subtree contained a fit).
    fn pop_at(&mut self, at: u32, free: u32) -> (u32, Option<u32>) {
        if at == NIL || self.node(at).min_alloc > free {
            return (at, None);
        }
        // The subtree minimum fits, so *something* here will be popped.
        let left = self.node(at).left;
        if left != NIL && self.node(left).min_alloc <= free {
            let (nl, removed) = self.pop_at(left, free);
            self.node_mut(at).left = nl;
            self.pull(at);
            return (at, removed);
        }
        if self.node(at).item.alloc <= free {
            let merged = self.merge(self.node(at).left, self.node(at).right);
            return (merged, Some(at));
        }
        let right = self.node(at).right;
        let (nr, removed) = self.pop_at(right, free);
        self.node_mut(at).right = nr;
        self.pull(at);
        (at, removed)
    }

    /// Insert into the treap tier without touching `len`.
    fn tree_insert(&mut self, item: ReadyItem) {
        let new = self.alloc_node(item);
        self.root = self.insert_at(self.root, new);
    }

    /// Move every inline item into the treap (spill up).
    fn spill(&mut self) {
        let drained = std::mem::take(&mut self.small);
        for it in drained {
            self.tree_insert(it);
        }
        self.small_min = u32::MAX;
        self.blocked_len = 0;
    }

    /// Move the whole treap back into the inline buffer (drain down).
    /// An iterative in-order walk emits items already key-sorted.
    fn unspill(&mut self) {
        debug_assert!(self.small.is_empty());
        self.small.reserve(self.len);
        let mut stack: Vec<u32> = Vec::new();
        let mut cur = self.root;
        let mut min = u32::MAX;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.node(cur).left;
            }
            let i = stack.pop().expect("non-empty stack");
            let item = self.node(i).item;
            min = min.min(item.alloc);
            self.small.push(item);
            cur = self.node(i).right;
        }
        self.small_min = min;
        self.blocked_len = 0;
        self.root = NIL;
        self.nodes.clear();
        self.spare.clear();
    }

    /// Recompute the cached inline minimum after a removal.
    fn refresh_small_min(&mut self) {
        self.small_min = self
            .small
            .iter()
            .map(|it| it.alloc)
            .min()
            .unwrap_or(u32::MAX);
    }

    /// Drain *every* item a full list-scheduling decision point would
    /// start: repeatedly the first item in key order with
    /// `alloc ≤ free`, with `free` shrinking as items are taken.
    /// Exactly equivalent to looping [`ReadyQueue::pop_first_fit`] —
    /// skipped items stay infeasible because `free` only decreases —
    /// but the inline tier does it in **one** compacting left-to-right
    /// pass instead of re-scanning the blocked prefix once per pop,
    /// O(n) per decision point instead of O(n·k).
    pub fn pop_fits_into(&mut self, free: &mut u32, out: &mut Vec<ReadyItem>) {
        loop {
            if self.inline_mode() {
                if self.small_min > *free {
                    return;
                }
                // The previous drain certified that its survivors all
                // need more than `blocked_free` processors; with no
                // more free now, only items pushed since can fit.
                let (start, mut min) = if self.blocked_len > 0 && *free <= self.blocked_free {
                    debug_assert!(self.blocked_len <= self.small.len());
                    (self.blocked_len.min(self.small.len()), self.blocked_min)
                } else {
                    (0, u32::MAX)
                };
                let mut w = start;
                for r in start..self.small.len() {
                    let it = self.small[r];
                    if it.alloc <= *free {
                        *free -= it.alloc;
                        out.push(it);
                        self.len -= 1;
                    } else {
                        min = min.min(it.alloc);
                        // While nothing has been removed (w == r) the
                        // prefix is already in place — no write-back.
                        if w != r {
                            self.small[w] = it;
                        }
                        w += 1;
                    }
                }
                self.small.truncate(w);
                self.small_min = min;
                // Every survivor was (re-)certified blocked at a free
                // count ≥ the final one — `free` only decreased.
                self.blocked_len = w;
                self.blocked_free = *free;
                self.blocked_min = min;
                return;
            }
            // Treap tier: O(log n) guided descents; a pop may trigger
            // the unspill transition, after which the loop finishes in
            // the inline branch above.
            match self.pop_first_fit(*free) {
                Some(it) => {
                    *free -= it.alloc;
                    out.push(it);
                }
                None => return,
            }
        }
    }
}

impl ReadyQueue for IndexedQueue {
    fn push(&mut self, item: ReadyItem) {
        if self.inline_mode() {
            if self.small.len() < self.spill_at {
                let pos = self.small.partition_point(|it| !key_lt(item.key, it.key));
                if pos < self.blocked_len {
                    // Insert lands inside the certified prefix (non-FIFO
                    // policy key): the memo no longer covers a prefix of
                    // known-blocked items, so drop it. FIFO keys append
                    // at the end and never take this branch.
                    self.blocked_len = 0;
                }
                self.small.insert(pos, item);
                self.small_min = self.small_min.min(item.alloc);
                self.len += 1;
                return;
            }
            self.spill();
        }
        self.tree_insert(item);
        self.len += 1;
    }

    fn pop_first_fit(&mut self, free: u32) -> Option<ReadyItem> {
        if self.inline_mode() {
            if self.small_min > free {
                return None;
            }
            let pos = self.small.iter().position(|it| it.alloc <= free)?;
            let item = self.small.remove(pos);
            // Single pops shift indices under the memo; drop it rather
            // than track the shift (this path is not the decision-point drain).
            self.blocked_len = 0;
            self.len -= 1;
            if item.alloc == self.small_min {
                self.refresh_small_min();
            }
            return Some(item);
        }
        let (root, removed) = self.pop_at(self.root, free);
        self.root = root;
        let i = removed?;
        self.len -= 1;
        self.spare.push(i);
        let item = self.node(i).item;
        if self.root == NIL {
            // Treap drained completely: clear the arena so the next
            // pushes land back in the inline tier.
            self.nodes.clear();
            self.spare.clear();
        } else if self.len * 4 < self.spill_at {
            self.unspill();
        }
        Some(item)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moldable_model::rng::{Rng, StdRng};

    fn item(seq: u64, alloc: u32, primary: f64) -> ReadyItem {
        ReadyItem {
            task: TaskId(u32::try_from(seq).unwrap()),
            alloc,
            key: (primary, seq),
        }
    }

    /// Drain both queues with the same free-processor sequence and
    /// compare the emitted items exactly.
    fn drain_equal(items: &[ReadyItem], frees: &[u32]) {
        let mut lin = LinearQueue::new();
        let mut idx = IndexedQueue::new();
        for &it in items {
            lin.push(it);
            idx.push(it);
        }
        for &f in frees {
            assert_eq!(lin.pop_first_fit(f), idx.pop_first_fit(f), "free={f}");
            assert_eq!(lin.len(), idx.len());
        }
    }

    #[test]
    fn pops_in_key_order_when_everything_fits() {
        let mut q = IndexedQueue::new();
        for seq in [3u64, 1, 4, 0, 2] {
            q.push(item(seq, 1, 0.0));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_first_fit(8))
            .map(|it| it.key.1)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn skips_items_that_do_not_fit() {
        let mut q = IndexedQueue::new();
        q.push(item(0, 5, 0.0));
        q.push(item(1, 2, 0.0));
        q.push(item(2, 5, 0.0));
        q.push(item(3, 1, 0.0));
        // Only 3 free: the first fit in key order is seq 1, then seq 3.
        assert_eq!(q.pop_first_fit(3).unwrap().key.1, 1);
        assert_eq!(q.pop_first_fit(3).unwrap().key.1, 3);
        assert_eq!(q.pop_first_fit(3), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_first_fit(5).unwrap().key.1, 0);
        assert_eq!(q.pop_first_fit(5).unwrap().key.1, 2);
    }

    #[test]
    fn negative_primary_keys_sort_before_zero() {
        // LongestFirst emits negative primaries; total_cmp must order
        // them ahead of 0.0 exactly like the reference.
        drain_equal(
            &[item(0, 1, 0.0), item(1, 1, -3.5), item(2, 1, -1.0)],
            &[4, 4, 4, 4],
        );
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut lin = LinearQueue::new();
        let mut idx = IndexedQueue::new();
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || lin.is_empty() {
                let primary = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(-10.0..10.0)
                };
                let it = item(seq, rng.gen_range(1u32..12), primary);
                seq += 1;
                lin.push(it);
                idx.push(it);
            } else {
                let free = rng.gen_range(0u32..14);
                assert_eq!(lin.pop_first_fit(free), idx.pop_first_fit(free));
            }
            assert_eq!(lin.len(), idx.len());
        }
        // Drain completely.
        loop {
            let (a, b) = (lin.pop_first_fit(16), idx.pop_first_fit(16));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn arena_slots_are_recycled() {
        // Spill threshold 1 forces everything through the treap tier.
        let mut q = IndexedQueue::with_spill_threshold(1);
        for round in 0..10u64 {
            for i in 0..100 {
                q.push(item(round * 100 + i, 1, 0.0));
            }
            while q.pop_first_fit(1).is_some() {}
        }
        // 1000 pushes but only ~100 live at once: the arena must not
        // grow past the high-water mark.
        assert!(q.nodes.len() <= 101, "arena grew to {}", q.nodes.len());
    }

    #[test]
    fn short_queues_never_touch_the_treap_arena() {
        let mut q = IndexedQueue::new();
        for round in 0..5u64 {
            for i in 0..SPILL_THRESHOLD as u64 {
                q.push(item(round * 10_000 + i, 2, 0.0));
            }
            while q.pop_first_fit(4).is_some() {}
        }
        assert!(q.nodes.is_empty(), "inline tier should have sufficed");
    }

    #[test]
    fn spill_and_unspill_transitions_match_reference() {
        // Tiny threshold so a few thousand interleaved ops cross the
        // inline→treap and treap→inline boundaries many times over.
        let mut rng = StdRng::seed_from_u64(0x5B11);
        let mut lin = LinearQueue::new();
        let mut idx = IndexedQueue::with_spill_threshold(16);
        let mut seq = 0u64;
        for _ in 0..8_000 {
            if rng.gen_bool(0.55) || lin.is_empty() {
                let primary = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen_range(-10.0..10.0)
                };
                let it = item(seq, rng.gen_range(1u32..12), primary);
                seq += 1;
                lin.push(it);
                idx.push(it);
            } else {
                let free = rng.gen_range(0u32..14);
                assert_eq!(lin.pop_first_fit(free), idx.pop_first_fit(free));
            }
            assert_eq!(lin.len(), idx.len());
        }
        loop {
            let (a, b) = (lin.pop_first_fit(16), idx.pop_first_fit(16));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(idx.is_empty());
    }

    #[test]
    fn batch_drain_matches_repeated_pops() {
        // Drive one queue with pop_fits_into and a twin with the
        // pop_first_fit loop it claims to equal, across random
        // push/drain interleavings and spill transitions.
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for spill_at in [4usize, 1024] {
            let mut a = IndexedQueue::with_spill_threshold(spill_at);
            let mut b = IndexedQueue::with_spill_threshold(spill_at);
            let mut seq = 0u64;
            let mut drained: Vec<ReadyItem> = Vec::new();
            for _ in 0..3_000 {
                if rng.gen_bool(0.7) || a.is_empty() {
                    // Mixed keys: FIFO-style appends exercise the
                    // blocked-prefix memo, mid-queue inserts its
                    // invalidation.
                    let primary = if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        rng.gen_range(-10.0..10.0)
                    };
                    let it = item(seq, rng.gen_range(1u32..12), primary);
                    seq += 1;
                    a.push(it);
                    b.push(it);
                } else {
                    let budget = rng.gen_range(0u32..30);
                    let mut free = budget;
                    drained.clear();
                    a.pop_fits_into(&mut free, &mut drained);
                    let mut free_b = budget;
                    for got in &drained {
                        let want = b.pop_first_fit(free_b).expect("twin pops too");
                        assert_eq!(*got, want);
                        free_b -= want.alloc;
                    }
                    assert_eq!(b.pop_first_fit(free_b), None, "twin had more fits");
                    assert_eq!(free, free_b);
                    assert_eq!(a.len(), b.len());
                }
            }
        }
    }

    #[test]
    fn failed_pop_on_inline_tier_is_rejected_by_cached_minimum() {
        let mut q = IndexedQueue::new();
        q.push(item(0, 5, 0.0));
        q.push(item(1, 3, 0.0));
        assert_eq!(q.pop_first_fit(2), None);
        // Removing the minimum-allocation item must refresh the cache.
        assert_eq!(q.pop_first_fit(3).unwrap().key.1, 1);
        assert_eq!(q.pop_first_fit(4), None);
        assert_eq!(q.pop_first_fit(5).unwrap().key.1, 0);
        assert!(q.is_empty());
    }
}
