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
//!   in a sorted inline buffer indexed by a **block-min tree**: an
//!   implicit min-segment tree over 16-item blocks of the buffer. A
//!   decision point descends it, skipping every subtree whose smallest
//!   allocation exceeds the free count, so it reads O(log(n/16)) tree
//!   nodes plus the 16 items of each block it starts a task from,
//!   instead of every waiting item. Started items stay in place as
//!   tombstones (no memmove) until they outnumber the live ones, and a
//!   FIFO release is an O(1) append whose block is indexed lazily at
//!   the next decision point. At the queue depths real DAG workloads
//!   produce (a few hundred waiting tasks), this contiguous layout
//!   beats any pointer structure's cache behaviour.
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
    /// Capped allocation `p'_j` from Algorithm 2. `u32::MAX` is
    /// reserved: [`IndexedQueue`] marks started items with it, and a
    /// capped allocation `⌈μP⌉` never reaches it.
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
    /// Insert a released task. Its key must be unique and its
    /// allocation below `u32::MAX`, which [`ReadyItem::alloc`] reserves.
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

/// Items per leaf of the inline tier's block-min tree.
const BLOCK: usize = 16;

/// Allocation written over a started inline item, which stays in place
/// as a tombstone until compaction. Searches cap `free` below it, so a
/// tombstone never fits.
const TOMB: u32 = u32::MAX;

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

/// Indexed ready queue: block-min-indexed sorted buffer for short
/// queues, treap with subtree-minimum allocation tracking past
/// [`SPILL_THRESHOLD`]. Worst-case O(log n) insert and first-fit pop.
#[derive(Debug)]
pub struct IndexedQueue {
    /// Inline tier: sorted by key, holds *all* items iff `root == NIL`.
    /// Started items stay in place as tombstones (`alloc == TOMB`)
    /// until they outnumber the live ones.
    small: Vec<ReadyItem>,
    /// Block-min tree over `small`: an implicit binary tree with
    /// `mins.len() / 2` leaves (a power of two). Leaf `b` holds the
    /// smallest live allocation among items `16b .. 16b + 16`, each
    /// inner node `i` the smaller of nodes `2i` and `2i + 1`, so
    /// `mins[1]` is the inline minimum. Unused leaves hold `TOMB`.
    mins: Vec<u32>,
    /// First `small` index written since `mins` was last refreshed. A
    /// FIFO push appends at or past it and leaves it alone, a
    /// mid-buffer insert lowers it, and a reshuffle of `small` resets
    /// it to 0, which makes the next refresh a rebuild.
    stale_from: usize,
    /// Sum of the live inline allocations: a drain whose `free` covers
    /// it starts the whole buffer, so it skips the tree.
    live_sum: u64,
    /// Migration point (constructor-tunable for tests).
    spill_at: usize,
    nodes: Vec<Node>,
    /// Recycled arena slots.
    spare: Vec<u32>,
    root: u32,
    len: usize,
    prio_state: u64,
    /// See [`IndexedQueue::scan_steps`].
    scan_steps: u64,
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
            mins: Vec::new(),
            stale_from: 0,
            live_sum: 0,
            spill_at: spill_at.max(1),
            nodes: Vec::new(),
            spare: Vec::new(),
            root: NIL,
            len: 0,
            // Any fixed seed works: priorities only shape the tree.
            prio_state: 0x9D2C_5680_0B5A_3CF5,
            scan_steps: 0,
        }
    }

    /// Inline-tier queue entries read so far by first-fit searches:
    /// items scanned in a drain, re-read to refresh the block-min tree,
    /// or passed over by a compaction. The treap tier, which only holds
    /// queues deeper than [`SPILL_THRESHOLD`], is not counted. A pure
    /// function of the push and pop sequence, so tests can pin it.
    #[must_use]
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
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
        for it in drained.into_iter().filter(|it| it.alloc != TOMB) {
            self.tree_insert(it);
        }
        self.live_sum = 0;
        self.stale_from = 0;
    }

    /// Move the whole treap back into the inline buffer (drain down).
    /// An iterative in-order walk emits items already key-sorted.
    fn unspill(&mut self) {
        debug_assert!(self.small.is_empty());
        self.small.reserve(self.len);
        let mut stack: Vec<u32> = Vec::new();
        let mut cur = self.root;
        let mut sum = 0;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.node(cur).left;
            }
            let i = stack.pop().expect("non-empty stack");
            let item = self.node(i).item;
            sum += u64::from(item.alloc);
            self.small.push(item);
            cur = self.node(i).right;
        }
        self.live_sum = sum;
        self.stale_from = 0;
        self.root = NIL;
        self.nodes.clear();
        self.spare.clear();
    }

    /// Bring the block-min tree up to date with `small`: rebuild it
    /// after a reshuffle or when the buffer outgrows its leaves, and
    /// otherwise recompute only the blocks written since the last
    /// refresh and their ancestors.
    fn refresh(&mut self) {
        let n = self.small.len();
        let blocks = n.div_ceil(BLOCK);
        if self.stale_from == 0 || blocks > self.mins.len() / 2 {
            // Rebuild: every node empty, then every block stale.
            self.mins.clear();
            self.mins.resize(2 * blocks.next_power_of_two(), TOMB);
            self.stale_from = 0;
        }
        if self.stale_from < n {
            let leaves = self.mins.len() / 2;
            let first = self.stale_from / BLOCK;
            for b in first..blocks {
                self.mins[leaves + b] = self.block_min(b);
            }
            let (mut lo, mut hi) = (leaves + first, leaves + blocks - 1);
            while lo > 1 {
                (lo, hi) = (lo / 2, hi / 2);
                for i in lo..=hi {
                    self.mins[i] = self.mins[2 * i].min(self.mins[2 * i + 1]);
                }
            }
            self.scan_steps += (n - first * BLOCK) as u64;
        }
        self.stale_from = n;
    }

    /// Smallest live allocation in block `b` (`TOMB` if none).
    fn block_min(&self, b: usize) -> u32 {
        let end = (b * BLOCK + BLOCK).min(self.small.len());
        self.small[b * BLOCK..end]
            .iter()
            .map(|it| it.alloc)
            .min()
            .unwrap_or(TOMB)
    }

    /// First block at or after `from` whose minimum allocation is at
    /// most `free`: climb until a subtree further right qualifies, then
    /// descend to its leftmost qualifying leaf.
    fn next_fit_block(&self, from: usize, free: u32) -> Option<usize> {
        let leaves = self.mins.len() / 2;
        if from >= leaves {
            return None;
        }
        let mut i = leaves + from;
        while self.mins[i] > free {
            // Right children end where their parent ends: climb past them.
            while i & 1 == 1 {
                i >>= 1;
            }
            if i == 0 {
                return None;
            }
            i += 1;
        }
        while i < leaves {
            i *= 2;
            if self.mins[i] > free {
                i += 1;
            }
        }
        Some(i - leaves)
    }

    /// Store block `b`'s new minimum and fix its ancestors, stopping
    /// at the first one that does not change.
    fn set_leaf(&mut self, b: usize, min: u32) {
        let mut i = self.mins.len() / 2 + b;
        self.mins[i] = min;
        while i > 1 {
            i /= 2;
            let m = self.mins[2 * i].min(self.mins[2 * i + 1]);
            if self.mins[i] == m {
                break;
            }
            self.mins[i] = m;
        }
    }

    /// Take up to `limit` inline items first-fit, in key order, with
    /// `free` shrinking as items are taken: descend the block-min tree
    /// to each block holding a fit, scan that block, and tombstone what
    /// it starts. Compacts once tombstones outnumber live items.
    fn take_by_blocks(&mut self, free: &mut u32, limit: usize, mut emit: impl FnMut(ReadyItem)) {
        self.refresh();
        let mut cap = (*free).min(TOMB - 1);
        if self.mins[1] > cap {
            return;
        }
        let (mut taken, mut from) = (0, 0);
        while taken < limit {
            let Some(b) = self.next_fit_block(from, cap) else {
                break;
            };
            let end = (b * BLOCK + BLOCK).min(self.small.len());
            let mut min = TOMB;
            for it in &mut self.small[b * BLOCK..end] {
                if taken < limit && it.alloc <= cap {
                    emit(*it);
                    *free -= it.alloc;
                    cap = (*free).min(TOMB - 1);
                    self.live_sum -= u64::from(it.alloc);
                    it.alloc = TOMB;
                    taken += 1;
                } else {
                    min = min.min(it.alloc);
                }
            }
            self.scan_steps += (end - b * BLOCK) as u64;
            self.set_leaf(b, min);
            from = b + 1;
        }
        self.len -= taken;
        if self.small.len() - self.len > self.len {
            self.scan_steps += self.small.len() as u64;
            self.small.retain(|it| it.alloc != TOMB);
            self.stale_from = 0;
        }
    }

    /// Drain *every* item a full list-scheduling decision point would
    /// start: repeatedly the first item in key order with
    /// `alloc ≤ free`, with `free` shrinking as items are taken.
    /// Exactly equivalent to looping [`ReadyQueue::pop_first_fit`],
    /// because skipped items stay infeasible while `free` only
    /// decreases. The inline tier descends the block-min tree, reading
    /// only the blocks that hold a fit, unless the tree cannot skip a
    /// block: when `free` covers every live allocation, or the buffer
    /// is a single block. Then one compacting pass reads it instead.
    pub fn pop_fits_into(&mut self, free: &mut u32, out: &mut Vec<ReadyItem>) {
        // Treap tier: O(log n) guided descents; a pop may trigger the
        // unspill transition, after which the inline tier finishes.
        while !self.inline_mode() {
            match self.pop_first_fit(*free) {
                Some(it) => {
                    *free -= it.alloc;
                    out.push(it);
                }
                None => return,
            }
        }
        if self.live_sum > u64::from(*free) && self.small.len() > BLOCK {
            self.take_by_blocks(free, usize::MAX, |it| out.push(it));
            return;
        }
        self.scan_steps += self.small.len() as u64;
        let mut w = 0;
        for r in 0..self.small.len() {
            let it = self.small[r];
            if it.alloc == TOMB {
                continue;
            }
            if it.alloc <= *free {
                *free -= it.alloc;
                self.live_sum -= u64::from(it.alloc);
                self.len -= 1;
                out.push(it);
            } else {
                // While nothing has been removed (w == r) the prefix
                // is already in place — no write-back.
                if w != r {
                    self.small[w] = it;
                }
                w += 1;
            }
        }
        self.small.truncate(w);
        self.stale_from = 0;
    }
}

impl ReadyQueue for IndexedQueue {
    fn push(&mut self, item: ReadyItem) {
        assert!(item.alloc != TOMB, "allocation u32::MAX is reserved");
        if self.inline_mode() {
            if self.len < self.spill_at {
                // A key past the last one (every FIFO key) appends; only
                // an earlier key pays the binary search and memmove.
                if self
                    .small
                    .last()
                    .is_some_and(|last| key_lt(item.key, last.key))
                {
                    let pos = self.small.partition_point(|it| !key_lt(item.key, it.key));
                    self.small.insert(pos, item);
                    self.stale_from = self.stale_from.min(pos);
                } else {
                    self.small.push(item);
                }
                self.live_sum += u64::from(item.alloc);
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
            let mut found = None;
            self.take_by_blocks(&mut { free }, 1, |it| found = Some(it));
            return found;
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

    /// The inline tier's bookkeeping agrees with its buffer: keys
    /// sorted, live count and allocation sum exact, tombstones no more
    /// than live items, and wherever the block-min tree is fresh every
    /// node holds the minimum of what it covers.
    fn assert_consistent(q: &IndexedQueue) {
        if !q.inline_mode() {
            return;
        }
        assert!(q.small.windows(2).all(|w| key_lt(w[0].key, w[1].key)));
        let live: Vec<u32> = q
            .small
            .iter()
            .map(|it| it.alloc)
            .filter(|&a| a != TOMB)
            .collect();
        assert_eq!(live.len(), q.len);
        assert_eq!(live.iter().copied().map(u64::from).sum::<u64>(), q.live_sum);
        assert!(
            q.small.len() - q.len <= q.len,
            "tombstones outnumber live items"
        );
        if q.stale_from > 0 && q.stale_from == q.small.len() {
            let leaves = q.mins.len() / 2;
            let blocks = q.small.len().div_ceil(BLOCK);
            for b in 0..leaves {
                let want = if b < blocks { q.block_min(b) } else { TOMB };
                assert_eq!(q.mins[leaves + b], want, "leaf {b}");
            }
            for i in 1..leaves {
                assert_eq!(q.mins[i], q.mins[2 * i].min(q.mins[2 * i + 1]), "node {i}");
            }
        }
    }

    #[test]
    fn spill_and_unspill_transitions_match_reference() {
        // Tiny thresholds so a few thousand interleaved ops cross the
        // inline→treap and treap→inline boundaries many times over.
        // Each case: (spill threshold, share of FIFO keys, whether a
        // decision point is drained whole by `pop_fits_into` instead of
        // popped one first fit at a time). Thresholds past 16 keep
        // several block-min blocks live on the inline side of every
        // transition.
        let mut rng = StdRng::seed_from_u64(0x5B11);
        for (spill_at, fifo, whole) in [
            (16usize, 0.5, false),
            (64, 0.5, true),
            (64, 0.9, false),
            (200, 1.0, true),
        ] {
            let mut lin = LinearQueue::new();
            let mut idx = IndexedQueue::with_spill_threshold(spill_at);
            let mut seq = 0u64;
            let mut spills = 0;
            let mut drained = Vec::new();
            for _ in 0..8_000 {
                if rng.gen_bool(0.55) || lin.is_empty() {
                    let primary = if rng.gen_bool(fifo) {
                        0.0
                    } else {
                        rng.gen_range(-10.0..10.0)
                    };
                    let it = item(seq, rng.gen_range(1u32..12), primary);
                    seq += 1;
                    lin.push(it);
                    let was_inline = idx.inline_mode();
                    idx.push(it);
                    spills += usize::from(was_inline && !idx.inline_mode());
                } else if whole {
                    let budget = rng.gen_range(0u32..10);
                    let mut free = budget;
                    drained.clear();
                    idx.pop_fits_into(&mut free, &mut drained);
                    let mut left = budget;
                    for got in &drained {
                        assert_eq!(lin.pop_first_fit(left), Some(*got));
                        left -= got.alloc;
                    }
                    assert_eq!(lin.pop_first_fit(left), None, "reference had more fits");
                    assert_eq!(free, left);
                    assert_consistent(&idx);
                } else {
                    let free = rng.gen_range(0u32..14);
                    assert_eq!(lin.pop_first_fit(free), idx.pop_first_fit(free));
                }
                assert_eq!(lin.len(), idx.len());
            }
            assert!(spills > 0, "spill_at {spill_at}: never spilled");
            loop {
                let (a, b) = (lin.pop_first_fit(16), idx.pop_first_fit(16));
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert!(idx.is_empty());
        }
    }

    #[test]
    fn batch_drain_matches_repeated_pops() {
        // Drive one queue with pop_fits_into and a twin with the
        // pop_first_fit loop it claims to equal, across random
        // push/drain interleavings and spill transitions. Each case:
        // (spill threshold, push probability, share of FIFO keys,
        // largest drain budget). Small budgets against a deep queue
        // take the block-min descent and pile up tombstones until a
        // compaction; large budgets against a short queue take the
        // compacting pass, and the last case's budgets often cover a
        // queue of several blocks; non-FIFO keys insert mid-buffer.
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        // Passes are counted per buffer size: one block, or more.
        let (mut passes, mut descents, mut compactions, mut mid_inserts, mut deepest) =
            ([0; 2], 0, 0, 0, 0);
        for (spill_at, push_p, fifo, budget_max) in [
            (4usize, 0.7, 0.5, 30u32),
            (1024, 0.7, 0.5, 30),
            (1024, 0.6, 1.0, 24),
            (1024, 0.5, 0.8, 120),
            (1024, 0.35, 0.5, 400),
            (1024, 0.8, 0.5, 2000),
        ] {
            let mut a = IndexedQueue::with_spill_threshold(spill_at);
            let mut b = IndexedQueue::with_spill_threshold(spill_at);
            let mut seq = 0u64;
            let mut drained: Vec<ReadyItem> = Vec::new();
            for _ in 0..3_000 {
                if rng.gen_bool(push_p) || a.is_empty() {
                    let primary = if rng.gen_bool(fifo) {
                        0.0
                    } else {
                        rng.gen_range(-10.0..10.0)
                    };
                    let it = item(seq, rng.gen_range(1u32..12), primary);
                    seq += 1;
                    if a.inline_mode() && a.small.last().is_some_and(|l| key_lt(it.key, l.key)) {
                        mid_inserts += 1;
                    }
                    a.push(it);
                    b.push(it);
                    deepest = deepest.max(a.small.len());
                } else {
                    let budget = rng.gen_range(0u32..budget_max);
                    let (inline, before, steps) = (a.inline_mode(), a.small.len(), a.scan_steps);
                    let pass = inline && (a.live_sum <= u64::from(budget) || before <= BLOCK);
                    let mut free = budget;
                    drained.clear();
                    a.pop_fits_into(&mut free, &mut drained);
                    // The compacting pass reads the buffer exactly once.
                    if pass {
                        assert_eq!(a.scan_steps - steps, before as u64);
                        passes[usize::from(before > BLOCK)] += 1;
                    } else if inline {
                        descents += 1;
                    }
                    if inline && a.small.len() < before && a.len() > 0 {
                        compactions += 1;
                    }
                    let mut free_b = budget;
                    for got in &drained {
                        let want = b.pop_first_fit(free_b).expect("twin pops too");
                        assert_eq!(*got, want);
                        free_b -= want.alloc;
                    }
                    assert_eq!(b.pop_first_fit(free_b), None, "twin had more fits");
                    assert_eq!(free, free_b);
                    assert_eq!(a.len(), b.len());
                    assert_consistent(&a);
                    assert_consistent(&b);
                }
            }
        }
        assert!(
            passes.iter().all(|&n| n > 0) && descents > 0 && compactions > 0 && mid_inserts > 0,
            "{passes:?} {descents} {compactions} {mid_inserts}"
        );
        assert!(deepest > 4 * BLOCK, "deepest inline buffer {deepest}");
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
