//! The ordered runqueue shared by CFS and EEVDF: a slab-backed treap
//! with a subtree-minimum augmentation and an arrival-order list.
//!
//! * **Slab.** Nodes live in one `Vec` per runqueue, linked by `u32`
//!   indices, with freed nodes on a free list. Once the queue has reached
//!   its peak population, insert and remove touch no allocator. A node's
//!   index is stable for as long as it is queued, so a policy can keep it
//!   in `pd.rq_slot` and remove that exact task later.
//! * **Order.** Nodes are sorted by a `(u64, TaskId)` key (CFS: vruntime;
//!   EEVDF: virtual deadline); the id breaks ties, so the order is total.
//! * **Balance.** Each node's heap priority is a hash of its task id, and
//!   the tree is the treap of its `(key, priority)` pairs: a binary
//!   search tree by key and a max-heap by priority. The shape is a pure
//!   function of which tasks are queued with which keys (not of the
//!   order they came in, barring equal priorities), no random source or
//!   host state is involved, and because the priorities do not depend on
//!   the keys, no queue contents — deadlines, vruntimes, weights — can
//!   unbalance it: the depth is that of a random binary search tree,
//!   O(log n) expected (about 1.39·log₂ n). Insert splits one subtree
//!   and remove merges two; each touches O(1) nodes below that point in
//!   expectation, and no rebalancing walks back up.
//! * **Augmentation.** Each node carries a value (EEVDF: the vruntime it
//!   was queued with) and the minimum value over its subtree, the way
//!   Linux's EEVDF augments its rbtree with `min_vruntime`.
//!   [`first_where`](RqTree::first_where) uses it to find the smallest key
//!   whose value passes a monotone test in one descent.
//! * **Arrival list.** Nodes are also threaded on a doubly-linked list in
//!   insertion order; [`newest`](RqTree::newest) is its tail.

use skyloft::task::TaskId;

/// Absent link: slot 0 is a sentinel whose minimum is `u64::MAX`, so
/// reading a summary through an absent link needs no branch.
const NIL: u32 = 0;

/// `prev` of a node on the free list.
const FREE: u32 = u32::MAX;

/// A runqueue key: primary order, then the task id as tie-break.
pub type Key = (u64, TaskId);

/// A task's heap priority: the SplitMix64 finalizer of its id.
fn priority(id: TaskId) -> u32 {
    let mut z = id.to_bits().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 32) as u32
}

#[derive(Clone, Copy)]
struct Node {
    key: Key,
    /// The augmented value.
    val: u64,
    /// Minimum `val` over this node's subtree.
    min: u64,
    /// Left and right child: `child[d]` with `d = 1` for larger keys.
    child: [u32; 2],
    parent: u32,
    prio: u32,
    /// Arrival-order neighbours ([`FREE`] marks a free node); `next` also
    /// links the free list.
    prev: u32,
    next: u32,
}

/// One runqueue's tree; see the module docs. (Every link field defaults
/// to [`NIL`].)
#[derive(Default)]
pub struct RqTree {
    /// The sentinel, then the nodes. The sentinel is pushed with the first
    /// key (its key is never read, but a `TaskId` can only come from a
    /// task table).
    nodes: Vec<Node>,
    root: u32,
    /// The node with the smallest key, cached as Linux caches
    /// `rb_leftmost`.
    leftmost: u32,
    /// Head of the free-node list.
    free: u32,
    /// Oldest and newest arrival.
    head: u32,
    tail: u32,
    len: usize,
}

impl RqTree {
    /// Number of queued nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, n: u32) -> &Node {
        let node = &self.nodes[n as usize];
        debug_assert!(n != NIL && node.prev != FREE, "node {n} is not queued");
        node
    }

    fn node_mut(&mut self, n: u32) -> &mut Node {
        &mut self.nodes[n as usize]
    }

    /// The key of queued node `n`.
    pub fn key(&self, n: u32) -> Key {
        self.node(n).key
    }

    /// The value queued node `n` was inserted with.
    pub fn val(&self, n: u32) -> u64 {
        self.node(n).val
    }

    /// Queues `key` with augmented value `val`, as the newest arrival, and
    /// returns its node index. `key` must not already be queued.
    pub fn insert(&mut self, key: Key, val: u64) -> u32 {
        let prio = priority(key.1);
        // Walk down past the nodes that outrank the new one. Each gains
        // `val` in its subtree, so its minimum is settled on the way.
        let (mut parent, mut n, mut d) = (NIL, self.root, 0);
        while n != NIL && self.node(n).prio > prio {
            let node = self.node_mut(n);
            node.min = node.min.min(val);
            parent = n;
            d = usize::from(node.key < key);
            n = node.child[d];
        }
        // The new node takes `n`'s place, over `n`'s subtree split
        // around `key`.
        let [lo, hi] = self.split(n, key);
        let node = Node {
            key,
            val,
            min: val,
            child: [lo, hi],
            parent,
            prio,
            prev: self.tail,
            next: NIL,
        };
        if self.nodes.is_empty() {
            self.nodes.push(Node {
                min: u64::MAX,
                ..node
            });
        }
        let x = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let x = self.free;
            self.free = self.nodes[x as usize].next;
            self.nodes[x as usize] = node;
            x
        };
        self.node_mut(lo).parent = x;
        self.node_mut(hi).parent = x;
        self.pull(x);
        match parent {
            NIL => self.root = x,
            p => self.node_mut(p).child[d] = x,
        }
        if self.leftmost == NIL || key < self.node(self.leftmost).key {
            self.leftmost = x;
        }
        match self.tail {
            NIL => self.head = x,
            t => self.node_mut(t).next = x,
        }
        self.tail = x;
        self.len += 1;
        x
    }

    /// Dequeues node `n` and returns its key. Every other node keeps its
    /// index.
    pub fn remove(&mut self, n: u32) -> Key {
        let Node {
            key,
            child: [lo, hi],
            parent,
            prev,
            next,
            ..
        } = *self.node(n);
        if n == self.leftmost {
            // The leftmost node has no left child: its successor is the
            // right subtree's leftmost node, or else its parent.
            self.leftmost = if hi == NIL {
                parent
            } else {
                self.spine_end(hi, 0)
            };
        }
        let m = self.merge(lo, hi);
        self.node_mut(m).parent = parent;
        self.replace_child(parent, n, m);
        // The ancestors' minima may have been this node's value.
        let mut p = parent;
        while p != NIL {
            let old = self.node(p).min;
            self.pull(p);
            if self.node(p).min == old {
                break;
            }
            p = self.node(p).parent;
        }
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            s => self.node_mut(s).prev = prev,
        }
        let free = self.free;
        let node = self.node_mut(n);
        node.prev = FREE;
        node.next = free;
        self.free = n;
        self.len -= 1;
        key
    }

    /// The node with the smallest key, in O(1).
    pub fn first(&self) -> Option<u32> {
        (self.leftmost != NIL).then_some(self.leftmost)
    }

    /// The node with the largest key.
    pub fn last(&self) -> Option<u32> {
        (self.root != NIL).then(|| self.spine_end(self.root, 1))
    }

    /// The last node on the path from `n` that always takes `child[d]`.
    fn spine_end(&self, mut n: u32, d: usize) -> u32 {
        while self.node(n).child[d] != NIL {
            n = self.node(n).child[d];
        }
        n
    }

    /// The most recently inserted node still queued.
    pub fn newest(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Queued task ids in arrival order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        let mut n = self.head;
        std::iter::from_fn(move || {
            (n != NIL).then(|| {
                let node = self.node(n);
                n = node.next;
                node.key.1
            })
        })
    }

    /// The node with the smallest key among those whose value passes `ok`,
    /// which must be monotone (`ok(b)` and `a ≤ b` imply `ok(a)`).
    pub fn first_where(&self, ok: impl Fn(u64) -> bool) -> Option<u32> {
        // The smallest key passing is the common case: check it in O(1).
        match self.first() {
            Some(n) if ok(self.node(n).val) => Some(n),
            _ => self.descend(ok).0,
        }
    }

    /// The descent behind [`first_where`](RqTree::first_where), plus the
    /// number of nodes it visited (at most the tree's height).
    ///
    /// By monotonicity, a subtree holds a passing node iff its minimum
    /// value passes. Every key on the left is below the node's own, and
    /// every key on the right above it; so the answer is in the left
    /// subtree if any of it passes, else the node itself if it passes,
    /// else in the right subtree.
    pub(crate) fn descend(&self, ok: impl Fn(u64) -> bool) -> (Option<u32>, usize) {
        let mut n = self.root;
        if n == NIL || !ok(self.node(n).min) {
            return (None, 0);
        }
        let mut visits = 0;
        loop {
            visits += 1;
            let node = self.node(n);
            let left = node.child[0];
            let go_left = left != NIL && ok(self.node(left).min);
            if !go_left && ok(node.val) {
                return (Some(n), visits);
            }
            n = node.child[usize::from(!go_left)];
        }
    }

    /// Points `parent`'s link to `old` (or the root) at `new`.
    fn replace_child(&mut self, parent: u32, old: u32, new: u32) {
        if parent == NIL {
            self.root = new;
        } else {
            let d = usize::from(self.node(parent).child[1] == old);
            self.node_mut(parent).child[d] = new;
        }
    }

    /// Recomputes `n`'s subtree minimum from its children.
    fn pull(&mut self, n: u32) {
        let Node {
            child: [l, r], val, ..
        } = *self.node(n);
        let min = val
            .min(self.nodes[l as usize].min)
            .min(self.nodes[r as usize].min);
        self.node_mut(n).min = min;
    }

    /// Splits the subtree rooted at `n` into the nodes with keys below
    /// `key` and those above it (`key` itself is not in it); returns the
    /// two parts' roots, whose `parent` the caller sets.
    fn split(&mut self, n: u32, key: Key) -> [u32; 2] {
        if n == NIL {
            return [NIL, NIL];
        }
        // `d = 1`: `n` is below `key` and keeps its left subtree; the
        // right one is split, its lower part becoming `n`'s right child.
        let d = usize::from(self.node(n).key < key);
        let mut parts = self.split(self.node(n).child[d], key);
        self.node_mut(n).child[d] = parts[1 - d];
        self.node_mut(parts[1 - d]).parent = n;
        self.pull(n);
        parts[1 - d] = n;
        parts
    }

    /// Joins two subtrees, every key in `lo` below every key in `hi`;
    /// returns the root, whose `parent` the caller sets.
    fn merge(&mut self, lo: u32, hi: u32) -> u32 {
        if lo == NIL {
            return hi;
        }
        if hi == NIL {
            return lo;
        }
        // The higher priority roots the join; its inner subtree is joined
        // with the other side.
        let (top, d, other) = if self.node(lo).prio > self.node(hi).prio {
            (lo, 1, hi)
        } else {
            (hi, 0, lo)
        };
        let inner = self.node(top).child[d];
        let m = if d == 1 {
            self.merge(inner, other)
        } else {
            self.merge(other, inner)
        };
        self.node_mut(top).child[d] = m;
        self.node_mut(m).parent = top;
        self.pull(top);
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft::task::{Task, TaskTable};
    use std::collections::BTreeMap;

    impl RqTree {
        /// Checks key order, heap order, parent links and subtree minima;
        /// returns the subtree's (height, min).
        fn check_at(&self, n: u32, lo: Option<Key>, hi: Option<Key>) -> (usize, u64) {
            if n == NIL {
                return (0, u64::MAX);
            }
            let node = self.node(n);
            assert!(lo.is_none_or(|k| k < node.key) && hi.is_none_or(|k| node.key < k));
            for c in node.child {
                assert!(c == NIL || self.node(c).parent == n, "parent link of {c}");
                assert!(
                    c == NIL || self.node(c).prio <= node.prio,
                    "heap order at {n}"
                );
            }
            let (hl, ml) = self.check_at(node.child[0], lo, Some(node.key));
            let (hr, mr) = self.check_at(node.child[1], Some(node.key), hi);
            assert_eq!(node.min, node.val.min(ml).min(mr));
            (1 + hl.max(hr), node.min)
        }

        fn check(&self) {
            assert!(self.root == NIL || self.node(self.root).parent == NIL);
            assert_eq!(
                self.first(),
                (self.root != NIL).then(|| self.spine_end(self.root, 0))
            );
            self.check_at(self.root, None, None);
            assert_eq!(self.tasks().count(), self.len);
        }

        fn in_order(&self, n: u32, out: &mut Vec<Key>) {
            if n != NIL {
                self.in_order(self.node(n).child[0], out);
                out.push(self.node(n).key);
                self.in_order(self.node(n).child[1], out);
            }
        }

        fn pre_order(&self, n: u32, out: &mut Vec<Key>) {
            if n != NIL {
                out.push(self.node(n).key);
                self.pre_order(self.node(n).child[0], out);
                self.pre_order(self.node(n).child[1], out);
            }
        }
    }

    fn ids(n: usize) -> Vec<TaskId> {
        let mut tasks = TaskTable::new();
        (0..n)
            .map(|_| tasks.insert(|id| Task::bare(id, 0)))
            .collect()
    }

    /// SplitMix64 step: a deterministic operation stream.
    fn next(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_an_ordered_map_under_churn() {
        let ids = ids(512);
        let mut tree = RqTree::default();
        // task -> (node, key, val), plus the arrival order.
        let mut model: BTreeMap<TaskId, (u32, Key, u64)> = BTreeMap::new();
        let mut arrivals: Vec<TaskId> = Vec::new();
        let mut s = 7;
        for _ in 0..20_000 {
            let r = next(&mut s);
            let t = ids[(r % ids.len() as u64) as usize];
            if let Some((n, key, _)) = model.remove(&t) {
                assert_eq!(tree.remove(n), key);
                arrivals.retain(|&a| a != t);
            } else {
                // Few distinct primaries, so ties exercise the id order.
                let key = ((r >> 16) % 64, t);
                let val = (r >> 32) % 1000;
                model.insert(t, (tree.insert(key, val), key, val));
                arrivals.push(t);
            }
            tree.check();
            assert_eq!(tree.len(), model.len());
            assert!(tree.tasks().eq(arrivals.iter().copied()));
            assert_eq!(
                tree.newest().map(|n| tree.key(n).1),
                arrivals.last().copied()
            );
            let mut keys: Vec<Key> = model.values().map(|&(_, k, _)| k).collect();
            keys.sort();
            assert_eq!(tree.first().map(|n| tree.key(n)), keys.first().copied());
            assert_eq!(tree.last().map(|n| tree.key(n)), keys.last().copied());
            // The descent finds the smallest key whose value is <= limit.
            let limit = (r >> 8) % 1000;
            let want = model
                .values()
                .filter(|&&(_, _, v)| v <= limit)
                .map(|&(_, k, _)| k)
                .min();
            assert_eq!(tree.first_where(|v| v <= limit).map(|n| tree.key(n)), want);
            for &(n, key, val) in model.values() {
                assert_eq!((tree.key(n), tree.val(n)), (key, val));
            }
        }
        let mut keys = Vec::new();
        tree.in_order(tree.root, &mut keys);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn warm_tree_reuses_its_nodes() {
        let ids = ids(64);
        let mut tree = RqTree::default();
        let nodes: Vec<u32> = ids.iter().map(|&t| tree.insert((0, t), 0)).collect();
        let cap = tree.nodes.capacity();
        for round in 0..100u64 {
            for &n in &nodes {
                tree.remove(n);
            }
            for &t in &ids {
                tree.insert((round, t), round);
            }
        }
        assert_eq!(
            tree.nodes.len(),
            ids.len() + 1,
            "the nodes and the sentinel"
        );
        assert_eq!(tree.nodes.capacity(), cap);
        tree.check();
    }

    #[test]
    fn descent_is_logarithmic_on_sorted_input() {
        // Sequential keys: the worst insertion order for a tree balanced
        // by nothing. Values fall as keys rise, so the only node passing
        // `v == 0` has the largest key and the descent runs to the bottom
        // of the right spine.
        let n = 1 << 14;
        let ids = ids(n);
        let mut tree = RqTree::default();
        for (i, &t) in ids.iter().enumerate() {
            tree.insert((i as u64, t), (n - 1 - i) as u64);
        }
        let (height, _) = tree.check_at(tree.root, None, None);
        let (hit, visits) = tree.descend(|v| v == 0);
        assert_eq!(hit, tree.last());
        let log = (n as f64).log2().ceil() as usize;
        assert!(visits <= 2 * log + 2, "{visits} visits");
        // A random binary search tree's height is ~3·log₂ n.
        assert!(height <= 3 * log, "height {height}");
    }

    #[test]
    fn shape_does_not_depend_on_arrival_order() {
        let ids = ids(300);
        let keys: Vec<Key> = ids.iter().map(|&t| ((t.to_bits() * 37) % 101, t)).collect();
        let build = |order: &mut dyn Iterator<Item = &Key>| {
            let mut tree = RqTree::default();
            for &k in order {
                tree.insert(k, k.0);
            }
            let mut shape = Vec::new();
            tree.pre_order(tree.root, &mut shape);
            shape
        };
        assert_eq!(build(&mut keys.iter()), build(&mut keys.iter().rev()));
    }
}
