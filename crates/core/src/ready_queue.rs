//! Allocation-bucketed ready queue for Algorithm 1.
//!
//! The scheduler's waiting queue must support two operations at every
//! decision point: insert a released task in policy-key order, and
//! start *every* waiting task whose capped allocation fits in the free
//! processors, scanning in key order (list scheduling, Algorithm 1
//! lines 7–11). The first fit for `free` processors is the waiting
//! task with the smallest key among those whose allocation is at most
//! `free`, so [`IndexedQueue`] indexes the waiting set by allocation,
//! not by queue position:
//!
//! * One **bucket** per distinct capped allocation holds that
//!   allocation's tasks in key order. Under FIFO and the two
//!   allocation-ordered policies the keys within a bucket only grow,
//!   so a release appends to the bucket's sorted run in O(1). A key
//!   that sorts before the run's last one (the two duration policies)
//!   goes into the bucket's pairing heap instead: O(1) insert and
//!   amortized O(log n) removal, however deep the bucket grows. A
//!   bucket's head is the smaller of its run's first item and its
//!   heap's root. Run and heap nodes of every bucket share one arena
//!   whose freed slots are reused, so the queue allocates only when
//!   its peak depth grows.
//! * A **live list** of the non-empty buckets, sorted by allocation,
//!   caches each bucket's head key. A first-fit search reads the heads
//!   of the live prefix whose allocation fits `free` and takes the
//!   smallest key, so its cost follows the number of distinct waiting
//!   allocations (at most `⌈μP⌉`), not the number of waiting tasks.
//!   The search also notes the runner-up key, and keeps starting tasks
//!   from the winning bucket while its next head sorts before it.
//!   When the smallest live allocation exceeds `free`, a decision
//!   point ends after one comparison. When the waiting allocations
//!   sum to at most `free`, every waiting task starts: one pass
//!   gathers them and sorts them by key, and the bucket order is never
//!   consulted, so buckets that a release makes non-empty join the
//!   live list unsorted and are sorted in only when a search needs
//!   them.
//!
//! Repeatedly popping the first fit until none remains is equivalent
//! to one in-order scan that starts every fitting task, because `free`
//! only decreases while scanning: a task skipped at some point in key
//! order stays infeasible for the rest of that decision point.
//!
//! The original sorted-`Vec` queue survives as `LinearQueue` in this
//! module's tests, the operation-by-operation oracle the unit tests
//! drive the indexed queue against; the online scheduler's schedules
//! are pinned by FNV fingerprints in `tests/queue_equivalence.rs`.

use moldable_graph::TaskId;

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

/// A policy key as one integer that orders like the key: the primary
/// in `f64::total_cmp` order, then the sequence number.
fn ord_key((primary, seq): (f64, u64)) -> u128 {
    let bits = primary.to_bits();
    let flip = if bits >> 63 == 1 { u64::MAX } else { 1 << 63 };
    (u128::from(bits ^ flip) << 64) | u128::from(seq)
}

fn key_lt(a: (f64, u64), b: (f64, u64)) -> bool {
    ord_key(a) < ord_key(b)
}

/// Null arena index.
const NIL: u32 = u32::MAX;

/// An arena slot: a waiting task and its links.
#[derive(Debug, Clone, Copy)]
struct Node {
    item: ReadyItem,
    /// In a run, the next item in key order; in a heap, the next
    /// sibling; in a free slot, the next free slot.
    next: u32,
    /// In a heap, the first child. Always `NIL` in a run.
    child: u32,
}

/// The waiting tasks of one allocation.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// First and last node of the sorted run (`NIL` when empty).
    first: u32,
    last: u32,
    /// Root of the pairing heap of keys that arrived out of order.
    heap: u32,
}

const EMPTY: Bucket = Bucket {
    first: NIL,
    last: NIL,
    heap: NIL,
};

/// A non-empty bucket in the live list.
#[derive(Debug, Clone, Copy)]
struct Live {
    alloc: u32,
    /// Index into [`IndexedQueue::buckets`].
    bucket: u32,
    /// Arena slot of the bucket's head item.
    head: u32,
    /// The head item's [`ord_key`], kept here so a search reads only
    /// this list.
    key: u128,
}

/// Ready queue indexed by capped allocation: one key-ordered bucket
/// per allocation and a list of the non-empty ones. O(1) FIFO release,
/// amortized O(log n) out-of-order release, and a first-fit search
/// that reads one head per distinct fitting allocation.
///
/// Memory grows with the largest allocation pushed (4 bytes per
/// processor count up to it, zero-filled on allocation), with the
/// number of distinct allocations and with the peak number of waiting
/// tasks.
#[derive(Debug)]
pub struct IndexedQueue {
    /// Node arena shared by every bucket.
    nodes: Vec<Node>,
    /// First free arena slot, `NIL` if none.
    free_slot: u32,
    /// Bucket index + 1 of allocation `a` at index `a` (0: none yet).
    ids: Vec<u32>,
    /// One bucket per distinct allocation pushed so far.
    buckets: Vec<Bucket>,
    /// The non-empty buckets: `live[..sorted]` in allocation order,
    /// then the ones releases made non-empty since the last search.
    live: Vec<Live>,
    sorted: usize,
    /// The largest [`ord_key`] pushed so far: a key past it (every
    /// FIFO key) is past every run's last key too.
    newest: u128,
    /// Sum of the waiting allocations: a decision point whose `free`
    /// covers it starts every waiting task.
    alloc_sum: u64,
    len: usize,
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
        Self {
            nodes: Vec::new(),
            free_slot: NIL,
            ids: Vec::new(),
            buckets: Vec::new(),
            live: Vec::new(),
            sorted: 0,
            newest: 0,
            alloc_sum: 0,
            len: 0,
            scan_steps: 0,
        }
    }

    /// Bucket heads read by first-fit searches so far: each search for
    /// the next task to start reads the head of every live bucket whose
    /// allocation fits, each further task it starts from the winning
    /// bucket reads that bucket's next head, and a decision point at
    /// which every waiting task fits reads each live bucket once. A
    /// pure function of the push and pop sequence, so tests can pin it.
    #[must_use]
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
    }

    fn key(&self, slot: u32) -> (f64, u64) {
        self.nodes[slot as usize].item.key
    }

    /// Store `item` in a fresh or recycled arena slot.
    fn alloc_node(&mut self, item: ReadyItem) -> u32 {
        let node = Node {
            item,
            next: NIL,
            child: NIL,
        };
        if self.free_slot == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("queue exceeds u32 capacity")
        } else {
            let slot = self.free_slot;
            self.free_slot = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        }
    }

    /// Meld two pairing heaps (either root may be `NIL`): the root with
    /// the larger key becomes the other's first child.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let (root, sub) = if key_lt(self.key(b), self.key(a)) {
            (b, a)
        } else {
            (a, b)
        };
        self.nodes[sub as usize].next = self.nodes[root as usize].child;
        self.nodes[root as usize].child = sub;
        root
    }

    /// Combine a removed root's children, the sibling list starting at
    /// `first`, into one heap: meld them in pairs left to right, then
    /// fold the pairs right to left (the two-pass rule behind the
    /// pairing heap's amortized O(log n) removal).
    fn merge_pairs(&mut self, mut first: u32) -> u32 {
        // Melded pairs, the latest first, linked through `next`.
        let mut pairs = NIL;
        while first != NIL {
            let second = self.nodes[first as usize].next;
            let rest = if second == NIL {
                NIL
            } else {
                self.nodes[second as usize].next
            };
            let pair = self.meld(first, second);
            self.nodes[pair as usize].next = pairs;
            pairs = pair;
            first = rest;
        }
        let mut root = NIL;
        while pairs != NIL {
            let rest = self.nodes[pairs as usize].next;
            root = self.meld(root, pairs);
            pairs = rest;
        }
        if root != NIL {
            self.nodes[root as usize].next = NIL;
        }
        root
    }

    /// Arena slot of a non-empty bucket's smallest key.
    fn head_of(&self, b: Bucket) -> u32 {
        if b.heap == NIL || (b.first != NIL && key_lt(self.key(b.first), self.key(b.heap))) {
            b.first
        } else {
            b.heap
        }
    }

    /// Insert the buckets that releases made non-empty into the sorted
    /// prefix of the live list.
    fn sort_live(&mut self) {
        for j in self.sorted..self.live.len() {
            let alloc = self.live[j].alloc;
            let pos = self.live[..j].partition_point(|l| l.alloc < alloc);
            self.live[pos..=j].rotate_right(1);
        }
        self.sorted = self.live.len();
    }

    /// Index of allocation `alloc`'s bucket, made on first use.
    fn bucket_of(&mut self, alloc: u32) -> usize {
        let a = alloc as usize;
        if let Some(&id) = self.ids.get(a).filter(|&&id| id != 0) {
            return id as usize - 1;
        }
        if a >= self.ids.len() {
            // A fresh zeroed table, so the part no allocation reaches
            // is never written.
            let mut ids = vec![0; (a + 1).max(2 * self.ids.len())];
            ids[..self.ids.len()].copy_from_slice(&self.ids);
            self.ids = ids;
        }
        self.buckets.push(EMPTY);
        self.ids[a] = u32::try_from(self.buckets.len()).expect("bucket count fits u32");
        self.buckets.len() - 1
    }

    /// Insert a released task. Its key must be unique.
    pub fn push(&mut self, item: ReadyItem) {
        let id = self.bucket_of(item.alloc);
        let slot = self.alloc_node(item);
        let mut b = self.buckets[id];
        let was_empty = b.first == NIL && b.heap == NIL;
        // A key past the run's last one (every FIFO key) appends; an
        // earlier key joins the heap.
        let key = ord_key(item.key);
        let behind_run = b.last != NIL && (key > self.newest || ord_key(self.key(b.last)) < key);
        self.newest = self.newest.max(key);
        if b.last == NIL || behind_run {
            if b.last == NIL {
                b.first = slot;
            } else {
                self.nodes[b.last as usize].next = slot;
            }
            b.last = slot;
        } else {
            b.heap = self.meld(b.heap, slot);
        }
        self.buckets[id] = b;
        self.len += 1;
        self.alloc_sum += u64::from(item.alloc);
        let head = Live {
            alloc: item.alloc,
            bucket: u32::try_from(id).expect("bucket count fits u32"),
            head: slot,
            key,
        };
        if was_empty {
            self.live.push(head);
        } else if !behind_run && self.head_of(b) == slot {
            self.sort_live();
            let pos = self.live.partition_point(|l| l.alloc < item.alloc);
            self.live[pos] = head;
        }
    }

    /// Start the head of the bucket at live index `i`, then keep
    /// starting its next head while fewer than `max` were taken, it
    /// fits `free`, and it sorts before `bound`, the smallest head key
    /// of the other fitting buckets: only this bucket's head changes
    /// meanwhile. The live entry is updated once, at the end.
    fn take(
        &mut self,
        i: usize,
        free: &mut u32,
        bound: u128,
        max: usize,
        mut emit: impl FnMut(ReadyItem),
    ) {
        let Live {
            alloc,
            bucket,
            mut head,
            ..
        } = self.live[i];
        let mut b = self.buckets[bucket as usize];
        // Run items leave from the front, so the ones taken stay linked
        // in order and join the free list as one chain at the end.
        let (run_first, mut run_last) = (b.first, NIL);
        let mut taken = 0;
        loop {
            let node = self.nodes[head as usize];
            if head == b.first {
                b.first = node.next;
                run_last = head;
            } else {
                b.heap = self.merge_pairs(node.child);
                self.nodes[head as usize].next = self.free_slot;
                self.free_slot = head;
            }
            *free -= alloc;
            emit(node.item);
            taken += 1;
            if b.first == NIL && b.heap == NIL {
                break;
            }
            head = self.head_of(b);
            if taken == max
                || alloc > *free
                || (bound != u128::MAX && bound < ord_key(self.key(head)))
            {
                break;
            }
        }
        // Each task after the first read its head once.
        self.scan_steps += taken as u64 - 1;
        if run_last != NIL {
            self.nodes[run_last as usize].next = self.free_slot;
            self.free_slot = run_first;
        }
        if b.first == NIL {
            b.last = NIL;
        }
        self.buckets[bucket as usize] = b;
        self.len -= taken;
        self.alloc_sum -= u64::from(alloc) * taken as u64;
        if b.first == NIL && b.heap == NIL {
            self.live.remove(i);
            self.sorted -= 1;
        } else {
            self.live[i].head = head;
            self.live[i].key = ord_key(self.key(head));
        }
    }

    /// Live index of the first fit for `free`, the smallest head key
    /// among the buckets whose allocation fits, and the smallest head
    /// key of the other fitting buckets (`u128::MAX` if none). Reads
    /// the sorted live list only as far as the allocations fit.
    fn first_fit(&mut self, free: u32) -> Option<(usize, u128)> {
        let (mut best, mut best_key, mut runner_up) = (None, u128::MAX, u128::MAX);
        let mut read = 0;
        for (i, l) in self.live.iter().enumerate() {
            if l.alloc > free {
                break;
            }
            read += 1;
            if l.key < best_key {
                runner_up = best_key;
                (best, best_key) = (Some(i), l.key);
            } else if l.key < runner_up {
                runner_up = l.key;
            }
        }
        self.scan_steps += read;
        best.map(|i| (i, runner_up))
    }

    /// Move every waiting task to `out` in key order and reset the
    /// queue.
    fn take_all(&mut self, out: &mut Vec<ReadyItem>) {
        let start = out.len();
        self.scan_steps += self.live.len() as u64;
        if self.free_slot == NIL {
            // No slot is free, so the arena holds exactly the waiting
            // tasks.
            out.extend(self.nodes.iter().map(|n| n.item));
            for l in &self.live {
                self.buckets[l.bucket as usize] = EMPTY;
            }
        } else {
            for l in &self.live {
                let b = std::mem::replace(&mut self.buckets[l.bucket as usize], EMPTY);
                // A run is a heap without children: walk both by
                // rotating each first child into the sibling chain,
                // emitting every node once it has no child left.
                for mut slot in [b.first, b.heap] {
                    while slot != NIL {
                        let child = self.nodes[slot as usize].child;
                        if child == NIL {
                            out.push(self.nodes[slot as usize].item);
                            slot = self.nodes[slot as usize].next;
                        } else {
                            self.nodes[slot as usize].child = self.nodes[child as usize].next;
                            self.nodes[child as usize].next = slot;
                            slot = child;
                        }
                    }
                }
            }
        }
        out[start..].sort_unstable_by_key(|it| ord_key(it.key));
        self.live.clear();
        self.sorted = 0;
        self.nodes.clear();
        self.free_slot = NIL;
        self.alloc_sum = 0;
        self.len = 0;
    }

    /// Drain *every* item a full list-scheduling decision point would
    /// start: repeatedly the first item in key order with
    /// `alloc ≤ free`, with `free` shrinking as items are taken.
    /// Exactly equivalent to looping [`Self::pop_first_fit`],
    /// because skipped items stay infeasible while `free` only
    /// decreases. Starts the whole queue in one sorted pass when `free`
    /// covers every waiting allocation, and returns after one
    /// comparison when the smallest waiting allocation exceeds `free`.
    pub fn pop_fits_into(&mut self, free: &mut u32, out: &mut Vec<ReadyItem>) {
        if self.alloc_sum <= u64::from(*free) {
            if !self.is_empty() {
                *free -= u32::try_from(self.alloc_sum).expect("sum is at most free");
                self.take_all(out);
            }
            return;
        }
        self.sort_live();
        while let Some((i, runner_up)) = self.first_fit(*free) {
            self.take(i, free, runner_up, usize::MAX, |it| out.push(it));
        }
    }

    /// Remove and return the first task in key order with
    /// `alloc ≤ free`, if any.
    pub fn pop_first_fit(&mut self, mut free: u32) -> Option<ReadyItem> {
        self.sort_live();
        let (i, _) = self.first_fit(free)?;
        let mut found = None;
        self.take(i, &mut free, u128::MAX, 1, |it| found = Some(it));
        found
    }

    /// Number of waiting tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mu_cap, QueuePolicy};
    use moldable_model::rng::{Rng, StdRng};
    use moldable_model::MU_MAX;

    /// The original queue: a `Vec` kept sorted by key, scanned
    /// linearly — the executable specification of queue behaviour.
    #[derive(Debug, Default)]
    struct LinearQueue {
        items: Vec<ReadyItem>,
    }

    impl LinearQueue {
        fn new() -> Self {
            Self::default()
        }

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

        fn is_empty(&self) -> bool {
            self.items.is_empty()
        }
    }

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

    /// Run one decision point on both queues and compare: the indexed
    /// queue's `pop_fits_into` must emit exactly what the oracle's
    /// repeated first fits emit, and leave the same free count.
    fn decision_point_equal(lin: &mut LinearQueue, idx: &mut IndexedQueue, budget: u32) -> usize {
        let mut free = budget;
        let mut got = Vec::new();
        idx.pop_fits_into(&mut free, &mut got);
        let mut left = budget;
        for it in &got {
            assert_eq!(lin.pop_first_fit(left), Some(*it), "budget {budget}");
            left -= it.alloc;
        }
        assert_eq!(lin.pop_first_fit(left), None, "oracle had more fits");
        assert_eq!(free, left);
        got.len()
    }

    /// Every task reachable from a bucket, walked without changing it:
    /// the run in order, then the heap in preorder.
    fn bucket_items(q: &IndexedQueue, b: Bucket) -> (Vec<ReadyItem>, Vec<ReadyItem>) {
        let mut run = Vec::new();
        let mut slot = b.first;
        while slot != NIL {
            let n = q.nodes[slot as usize];
            assert_eq!(n.child, NIL, "run node with a child");
            run.push(n.item);
            slot = n.next;
        }
        let mut heap = Vec::new();
        let mut stack = vec![(b.heap, None::<(f64, u64)>)];
        while let Some((slot, parent)) = stack.pop() {
            if slot == NIL {
                continue;
            }
            let n = q.nodes[slot as usize];
            if let Some(p) = parent {
                assert!(key_lt(p, n.item.key), "heap order violated");
            }
            heap.push(n.item);
            stack.push((n.next, parent));
            stack.push((n.child, Some(n.item.key)));
        }
        (run, heap)
    }

    /// The index agrees with its contents: the live list's sorted
    /// prefix is in allocation order, the list names exactly the
    /// non-empty buckets, once each, with their true head keys, runs
    /// are sorted and heaps heap-ordered, the count and allocation sum
    /// are exact, and every arena slot is either waiting or free.
    fn assert_consistent(q: &IndexedQueue) {
        assert!(q.live[..q.sorted]
            .windows(2)
            .all(|w| w[0].alloc < w[1].alloc));
        let mut allocs: Vec<u32> = q.live.iter().map(|l| l.alloc).collect();
        allocs.sort_unstable();
        allocs.dedup();
        assert_eq!(allocs.len(), q.live.len(), "bucket listed twice");
        let (mut count, mut sum) = (0, 0u64);
        for (a, &id) in q.ids.iter().enumerate() {
            if id == 0 {
                continue;
            }
            let b = q.buckets[id as usize - 1];
            let (run, heap) = bucket_items(q, b);
            let live = q.live.iter().find(|l| l.alloc as usize == a);
            if run.is_empty() && heap.is_empty() {
                assert!(live.is_none(), "empty bucket {a} is live");
                assert_eq!((b.first, b.last, b.heap), (NIL, NIL, NIL));
                continue;
            }
            let live = live.unwrap_or_else(|| panic!("bucket {a} is not live"));
            assert_eq!(live.bucket, id - 1);
            assert!(run.windows(2).all(|w| key_lt(w[0].key, w[1].key)));
            let all: Vec<_> = run.iter().chain(&heap).collect();
            assert!(all.iter().all(|it| it.alloc as usize == a));
            let min = all
                .iter()
                .map(|it| it.key)
                .reduce(|x, y| if key_lt(y, x) { y } else { x });
            assert_eq!(Some(live.key), min.map(ord_key), "bucket {a} head key");
            assert_eq!(ord_key(q.nodes[live.head as usize].item.key), live.key);
            count += all.len();
            sum += all.iter().map(|it| u64::from(it.alloc)).sum::<u64>();
        }
        assert_eq!((count, sum), (q.len, q.alloc_sum));
        let mut free = 0;
        let mut slot = q.free_slot;
        while slot != NIL {
            free += 1;
            slot = q.nodes[slot as usize].next;
        }
        assert_eq!(free + q.len, q.nodes.len(), "arena slot lost");
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
        assert_consistent(&idx);
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
        // Shortest-first keys arrive out of order, so most tasks pass
        // through the heaps; 1000 pushes with at most 100 waiting at
        // once must not grow the arena past that high-water mark.
        let mut rng = StdRng::seed_from_u64(0xA4E7);
        let mut q = IndexedQueue::new();
        for round in 0..10u64 {
            for i in 0..100 {
                let seq = round * 100 + i;
                q.push(item(seq, 1 + (seq % 3) as u32, rng.gen_range(0.0..1.0)));
            }
            while q.pop_first_fit(2).is_some() {}
            assert_consistent(&q);
            while q.pop_first_fit(3).is_some() {}
        }
        assert!(q.nodes.len() <= 100, "arena grew to {}", q.nodes.len());
    }

    #[test]
    fn every_policy_matches_the_oracle_on_wide_platforms() {
        // Random push / decision-point / first-fit sequences under all
        // five policies, with allocations drawn from the capped domain
        // 1..=⌈μP⌉ at P = 16384 (hundreds of distinct allocations per
        // case). Each case: (distinct allocations drawn, push
        // probability, largest budget as a share of the waiting
        // allocation sum). Budgets above the sum start the whole queue
        // in one pass; small ones leave the head blocked behind wider
        // tasks; the eight-allocation case empties and refills its
        // buckets over and over.
        let p = 16_384;
        let cap = mu_cap(p, MU_MAX);
        let mut rng = StdRng::seed_from_u64(0x0B0E);
        let (mut take_alls, mut blocked, mut refills) = (0, 0, 0);
        for policy in QueuePolicy::all() {
            for (distinct, push_p, budget_share) in
                [(400usize, 0.6, 0.3), (300, 0.5, 1.5), (8, 0.5, 0.8)]
            {
                let domain: Vec<u32> = (0..distinct).map(|_| rng.gen_range(1..=cap)).collect();
                let mut lin = LinearQueue::new();
                let mut idx = IndexedQueue::new();
                let mut held = vec![false; cap as usize + 1];
                for seq in 0..4_000u64 {
                    if rng.gen_bool(push_p) || lin.is_empty() {
                        let alloc = domain[rng.gen_range(0..distinct)];
                        let it = ReadyItem {
                            task: TaskId(u32::try_from(seq).unwrap()),
                            alloc,
                            key: policy.key(rng.gen_range(0.1..100.0), alloc, seq),
                        };
                        let a = alloc as usize;
                        let empty = lin.items.iter().all(|w| w.alloc != alloc);
                        refills += usize::from(empty && held[a]);
                        held[a] = true;
                        lin.push(it);
                        idx.push(it);
                    } else {
                        let sum: u64 = lin.items.iter().map(|it| u64::from(it.alloc)).sum();
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let budget = rng.gen_range(0..=(sum as f64 * budget_share) as u32);
                        if rng.gen_bool(0.2) {
                            assert_eq!(lin.pop_first_fit(budget), idx.pop_first_fit(budget));
                        } else {
                            let head_blocked = lin.items[0].alloc > budget;
                            let took = decision_point_equal(&mut lin, &mut idx, budget);
                            take_alls += usize::from(u64::from(budget) >= sum);
                            blocked += usize::from(head_blocked && took > 0);
                        }
                    }
                    assert_eq!(lin.len(), idx.len());
                    if seq % 256 == 0 {
                        assert_consistent(&idx);
                    }
                }
                assert_consistent(&idx);
                while !lin.is_empty() {
                    decision_point_equal(&mut lin, &mut idx, cap);
                }
                assert!(idx.is_empty());
            }
        }
        assert!(
            take_alls > 0 && blocked > 0 && refills > 0,
            "{take_alls} {blocked} {refills}"
        );
    }

    #[test]
    fn deep_single_bucket_duration_queues_stay_logarithmic() {
        // 10^5 tasks of one allocation under the two duration
        // policies: keys arrive in random order, so nearly every one
        // lands in the bucket's heap. A quadratic insert would take
        // minutes here; the pairing heap takes milliseconds. The
        // oracle checks the first 3000 operations; every pop is also
        // checked against an ordered set of the waiting keys.
        const N: u64 = 100_000;
        const SAMPLE: u64 = 3_000;
        // Order-preserving map of `total_cmp` onto u64.
        let ord = |(primary, seq): (f64, u64)| {
            let bits = primary.to_bits();
            let bits = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            (bits, seq)
        };
        for policy in [QueuePolicy::ShortestFirst, QueuePolicy::LongestFirst] {
            let mut rng = StdRng::seed_from_u64(0xDEE9);
            let mut lin = LinearQueue::new();
            let mut idx = IndexedQueue::new();
            let mut waiting = std::collections::BTreeSet::new();
            let check_pop =
                |idx: &mut IndexedQueue, waiting: &mut std::collections::BTreeSet<_>| {
                    let got = idx.pop_first_fit(7).expect("queue is not empty");
                    assert_eq!(Some(ord(got.key)), waiting.pop_first());
                    got
                };
            for seq in 0..N {
                let it = ReadyItem {
                    task: TaskId(u32::try_from(seq).unwrap()),
                    alloc: 7,
                    key: policy.key(rng.gen_range(0.1..100.0), 7, seq),
                };
                idx.push(it);
                waiting.insert(ord(it.key));
                if seq < SAMPLE {
                    lin.push(it);
                }
                // Pop one task after every third push.
                if seq % 3 == 2 {
                    let got = check_pop(&mut idx, &mut waiting);
                    if seq < SAMPLE {
                        assert_eq!(lin.pop_first_fit(7), Some(got), "seq {seq}");
                    }
                }
            }
            assert_eq!((idx.live.len(), idx.len()), (1, waiting.len()));
            while !waiting.is_empty() {
                check_pop(&mut idx, &mut waiting);
            }
            assert!(idx.is_empty() && idx.pop_first_fit(7).is_none());
        }
    }

    #[test]
    fn failed_pop_is_rejected_by_the_smallest_live_allocation() {
        let mut q = IndexedQueue::new();
        q.push(item(0, 5, 0.0));
        q.push(item(1, 3, 0.0));
        let mut free = 2;
        let mut out = Vec::new();
        q.pop_fits_into(&mut free, &mut out);
        assert!(out.is_empty() && free == 2);
        assert_eq!(q.scan_steps(), 0, "a blocked decision point reads no head");
        assert_eq!(q.pop_first_fit(3).unwrap().key.1, 1);
        assert_eq!(q.pop_first_fit(4), None);
        assert_eq!(q.pop_first_fit(5).unwrap().key.1, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn a_decision_point_that_fits_everything_starts_it_in_key_order() {
        // Three buckets, one of them holding out-of-order keys in its
        // heap: a budget covering the whole queue starts every task in
        // key order, reading each live bucket once.
        let mut q = IndexedQueue::new();
        for (seq, alloc, primary) in [
            (0, 4, 3.0),
            (1, 2, 1.0),
            (2, 4, 0.5),
            (3, 1, 2.0),
            (4, 4, 9.0),
        ] {
            q.push(item(seq, alloc, primary));
        }
        let mut free = 16;
        let mut out = Vec::new();
        q.pop_fits_into(&mut free, &mut out);
        let order: Vec<u64> = out.iter().map(|it| it.key.1).collect();
        assert_eq!(order, vec![2, 1, 3, 0, 4]);
        assert_eq!((free, q.scan_steps()), (1, 3));
        assert!(q.is_empty() && q.nodes.is_empty());
        assert_consistent(&q);
    }
}
