//! Srivastava-style *blocking* optimistic (a,b)-tree — the paper's
//! `srivastava_abtree` comparator (Figure 6). Generic over `(K, V)`.
//!
//! Same structural rules as `flock_ds::abtree` (immutable key arrays,
//! in-place child cells, copy-on-write node replacement, preemptive splits,
//! relaxed deletes) but with raw test-and-test-and-set spin locks instead of
//! Flock locks: no descriptors, no logging, no helping. This is the
//! independent blocking implementation the paper compares its `abtree`
//! against — sharing the node layout deliberately isolates the variable
//! under test (the locking mechanism).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use flock_sync::{ApproxLen, TtasLock};

use flock_api::{Key, Map, Value};

/// Maximum keys per node.
pub const B: usize = 12;

struct Node<K, V> {
    lock: TtasLock,
    removed: AtomicBool,
    is_leaf: bool,
    /// Leaf: element keys. Internal: separators (children = len + 1).
    keys: Vec<K>,
    /// Element values (leaves only).
    vals: Vec<V>,
    children: [AtomicUsize; B + 1],
}

impl<K: Key, V: Value> Node<K, V> {
    fn empty_children() -> [AtomicUsize; B + 1] {
        std::array::from_fn(|_| AtomicUsize::new(0))
    }

    fn leaf(entries: &[(K, V)]) -> Self {
        debug_assert!(entries.len() <= B);
        Self {
            lock: TtasLock::new(),
            removed: AtomicBool::new(false),
            is_leaf: true,
            keys: entries.iter().map(|(k, _)| k.clone()).collect(),
            vals: entries.iter().map(|(_, v)| v.clone()).collect(),
            children: Self::empty_children(),
        }
    }

    fn internal(seps: &[K], kids: &[*mut Node<K, V>]) -> Self {
        debug_assert_eq!(kids.len(), seps.len() + 1);
        let children = std::array::from_fn(|i| {
            AtomicUsize::new(if i < kids.len() { kids[i] as usize } else { 0 })
        });
        Self {
            lock: TtasLock::new(),
            removed: AtomicBool::new(false),
            is_leaf: false,
            keys: seps.to_vec(),
            vals: Vec::new(),
            children,
        }
    }

    #[inline]
    fn route(&self, k: &K) -> usize {
        self.keys.partition_point(|s| s <= k)
    }

    #[inline]
    fn find(&self, k: &K) -> Option<usize> {
        self.keys.iter().position(|x| x == k)
    }

    fn leaf_entries(&self) -> Vec<(K, V)> {
        self.keys
            .iter()
            .cloned()
            .zip(self.vals.iter().cloned())
            .collect()
    }

    fn separators(&self) -> Vec<K> {
        self.keys.clone()
    }

    fn child_ptrs(&self) -> Vec<*mut Node<K, V>> {
        (0..=self.keys.len())
            .map(|i| self.children[i].load(Ordering::SeqCst) as *mut Node<K, V>)
            .collect()
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.keys.len() == B
    }
}

/// Blocking optimistic (a,b)-tree map.
pub struct BlockingABTree<K: Key, V: Value> {
    /// Maintained element count backing `len_approx`.
    len: ApproxLen,
    anchor: *mut Node<K, V>,
}

// SAFETY: spin locks guard mutation; epoch reclamation.
unsafe impl<K: Key, V: Value> Send for BlockingABTree<K, V> {}
unsafe impl<K: Key, V: Value> Sync for BlockingABTree<K, V> {}

impl<K: Key, V: Value> Default for BlockingABTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> BlockingABTree<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        let root = flock_epoch::alloc(Node::leaf(&[]));
        let anchor = flock_epoch::alloc(Node::internal(&[], &[root]));
        Self {
            anchor,
            len: ApproxLen::new(),
        }
    }

    fn path_to(&self, k: &K) -> Vec<*mut Node<K, V>> {
        let mut path = vec![self.anchor];
        // SAFETY: caller pinned.
        let mut cur =
            unsafe { (*self.anchor).children[0].load(Ordering::SeqCst) } as *mut Node<K, V>;
        loop {
            path.push(cur);
            // SAFETY: pinned.
            let n = unsafe { &*cur };
            if n.is_leaf {
                return path;
            }
            cur = n.children[n.route(k)].load(Ordering::SeqCst) as *mut Node<K, V>;
        }
    }

    /// Split full root under the anchor lock. Returns success.
    fn split_root(&self, root: *mut Node<K, V>) -> bool {
        // SAFETY: pinned caller.
        let a = unsafe { &*self.anchor };
        let r = unsafe { &*root };
        a.lock.acquire();
        r.lock.acquire();
        let ok = a.children[0].load(Ordering::SeqCst) == root as usize
            && r.is_full()
            && !r.removed.load(Ordering::SeqCst);
        if ok {
            let mid = r.keys.len() / 2;
            let (sep, left_ptr, right_ptr);
            if r.is_leaf {
                let e = r.leaf_entries();
                sep = e[mid].0.clone();
                left_ptr = flock_epoch::alloc(Node::leaf(&e[..mid]));
                right_ptr = flock_epoch::alloc(Node::leaf(&e[mid..]));
            } else {
                let seps = r.separators();
                let kids = r.child_ptrs();
                sep = seps[mid].clone();
                left_ptr = flock_epoch::alloc(Node::internal(&seps[..mid], &kids[..=mid]));
                right_ptr = flock_epoch::alloc(Node::internal(&seps[mid + 1..], &kids[mid + 1..]));
            }
            let new_root = flock_epoch::alloc(Node::internal(&[sep], &[left_ptr, right_ptr]));
            r.removed.store(true, Ordering::SeqCst);
            a.children[0].store(new_root as usize, Ordering::SeqCst);
            // SAFETY: replaced above; unique retire under the locks.
            unsafe { flock_epoch::retire(root) };
        }
        r.lock.release();
        a.lock.release();
        ok
    }

    /// Split full child `c` of `p` under `g`; returns success.
    fn split_child(
        &self,
        g: *mut Node<K, V>,
        p: *mut Node<K, V>,
        c: *mut Node<K, V>,
        k: &K,
    ) -> bool {
        // SAFETY: pinned caller.
        let (g, p, c) = unsafe { (&*g, &*p, &*c) };
        g.lock.acquire();
        p.lock.acquire();
        c.lock.acquire();
        let gi = g.route(k);
        let pi = p.route(k);
        let ok = !g.removed.load(Ordering::SeqCst)
            && !p.removed.load(Ordering::SeqCst)
            && !c.removed.load(Ordering::SeqCst)
            && c.is_full()
            && !p.is_full()
            && g.children[gi].load(Ordering::SeqCst) == p as *const Node<K, V> as usize
            && p.children[pi].load(Ordering::SeqCst) == c as *const Node<K, V> as usize;
        if ok {
            let mid = c.keys.len() / 2;
            let (sep, left_ptr, right_ptr);
            if c.is_leaf {
                let e = c.leaf_entries();
                sep = e[mid].0.clone();
                left_ptr = flock_epoch::alloc(Node::leaf(&e[..mid]));
                right_ptr = flock_epoch::alloc(Node::leaf(&e[mid..]));
            } else {
                let seps = c.separators();
                let kids = c.child_ptrs();
                sep = seps[mid].clone();
                left_ptr = flock_epoch::alloc(Node::internal(&seps[..mid], &kids[..=mid]));
                right_ptr = flock_epoch::alloc(Node::internal(&seps[mid + 1..], &kids[mid + 1..]));
            }
            let mut nseps = p.separators();
            let mut nkids = p.child_ptrs();
            nseps.insert(pi, sep);
            nkids[pi] = left_ptr;
            nkids.insert(pi + 1, right_ptr);
            let new_p = flock_epoch::alloc(Node::internal(&nseps, &nkids));
            p.removed.store(true, Ordering::SeqCst);
            c.removed.store(true, Ordering::SeqCst);
            g.children[gi].store(new_p as usize, Ordering::SeqCst);
            // SAFETY: both replaced; unique retires under the locks.
            unsafe {
                flock_epoch::retire(p as *const Node<K, V> as *mut Node<K, V>);
                flock_epoch::retire(c as *const Node<K, V> as *mut Node<K, V>);
            }
        }
        c.lock.release();
        p.lock.release();
        g.lock.release();
        ok
    }

    /// Insert; `false` if present.
    pub fn insert(&self, k: K, v: V) -> bool {
        let ok = self.insert_impl(k, v);
        if ok {
            self.len.inc();
        }
        ok
    }

    fn insert_impl(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        'restart: loop {
            let path = self.path_to(&k);
            let leaf = *path.last().expect("leaf");
            // SAFETY: pinned.
            if unsafe { &*leaf }.find(&k).is_some() {
                return false;
            }
            // SAFETY: pinned.
            if unsafe { &*path[1] }.is_full() {
                self.split_root(path[1]);
                continue 'restart;
            }
            for w in 2..path.len() {
                // SAFETY: pinned.
                if unsafe { &*path[w] }.is_full() {
                    self.split_child(path[w - 2], path[w - 1], path[w], &k);
                    continue 'restart;
                }
            }
            let parent = path[path.len() - 2];
            // SAFETY: pinned.
            let p = unsafe { &*parent };
            p.lock.acquire();
            let slot = p.route(&k);
            let l = unsafe { &*leaf };
            let ok = !p.removed.load(Ordering::SeqCst)
                && p.children[slot].load(Ordering::SeqCst) == leaf as usize
                && l.find(&k).is_none()
                && !l.is_full();
            if ok {
                let mut entries = l.leaf_entries();
                let pos = entries.partition_point(|(ek, _)| ek < &k);
                entries.insert(pos, (k.clone(), v.clone()));
                let newl = flock_epoch::alloc(Node::leaf(&entries));
                p.children[slot].store(newl as usize, Ordering::SeqCst);
                // SAFETY: replaced above; unique retire under the lock.
                unsafe { flock_epoch::retire(leaf) };
            }
            p.lock.release();
            if ok {
                return true;
            }
            // Re-check for presence before retrying.
            let path2 = self.path_to(&k);
            // SAFETY: pinned.
            if unsafe { &**path2.last().expect("leaf") }.find(&k).is_some() {
                return false;
            }
        }
    }

    /// Native atomic update: copy-on-write replace the leaf with the value
    /// changed, under the parent's lock — the single atomic child-pointer
    /// store means readers see the old batch or the new one, never absence
    /// or a third value. Returns `false` (storing nothing) if `k` is
    /// absent.
    pub fn update(&self, k: K, v: V) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let path = self.path_to(&k);
            let leaf = *path.last().expect("leaf");
            // SAFETY: pinned.
            let l = unsafe { &*leaf };
            if l.find(&k).is_none() {
                return false;
            }
            let parent = path[path.len() - 2];
            // SAFETY: pinned.
            let p = unsafe { &*parent };
            p.lock.acquire();
            let slot = p.route(&k);
            let pos = if !p.removed.load(Ordering::SeqCst)
                && p.children[slot].load(Ordering::SeqCst) == leaf as usize
            {
                l.find(&k)
            } else {
                None
            };
            if let Some(pos) = pos {
                let mut entries = l.leaf_entries();
                entries[pos].1 = v.clone();
                let newl = flock_epoch::alloc(Node::leaf(&entries));
                p.children[slot].store(newl as usize, Ordering::SeqCst);
                // SAFETY: replaced above; unique retire under the lock.
                unsafe { flock_epoch::retire(leaf) };
            }
            p.lock.release();
            if pos.is_some() {
                return true;
            }
        }
    }

    /// Remove; `false` if absent.
    pub fn remove(&self, k: K) -> bool {
        let ok = self.remove_impl(&k);
        if ok {
            self.len.dec();
        }
        ok
    }

    fn remove_impl(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        loop {
            let path = self.path_to(k);
            let leaf = *path.last().expect("leaf");
            // SAFETY: pinned.
            let l = unsafe { &*leaf };
            if l.find(k).is_none() {
                return false;
            }
            let parent = path[path.len() - 2];
            // SAFETY: pinned.
            let p = unsafe { &*parent };
            if l.keys.len() > 1 || p.keys.is_empty() {
                p.lock.acquire();
                let slot = p.route(k);
                let ok = !p.removed.load(Ordering::SeqCst)
                    && p.children[slot].load(Ordering::SeqCst) == leaf as usize
                    && l.find(k).is_some();
                if ok {
                    let mut entries = l.leaf_entries();
                    entries.remove(l.find(k).expect("validated"));
                    let newl = flock_epoch::alloc(Node::leaf(&entries));
                    p.children[slot].store(newl as usize, Ordering::SeqCst);
                    // SAFETY: replaced above; unique retire under the lock.
                    unsafe { flock_epoch::retire(leaf) };
                }
                p.lock.release();
                if ok {
                    return true;
                }
            } else {
                let g = path[path.len() - 3];
                // SAFETY: pinned.
                let g = unsafe { &*g };
                g.lock.acquire();
                p.lock.acquire();
                let gi = g.route(k);
                let pi = p.route(k);
                let ok = !g.removed.load(Ordering::SeqCst)
                    && !p.removed.load(Ordering::SeqCst)
                    && g.children[gi].load(Ordering::SeqCst) == parent as usize
                    && p.children[pi].load(Ordering::SeqCst) == leaf as usize
                    && l.keys.len() == 1
                    && l.find(k).is_some();
                if ok {
                    let mut seps = p.separators();
                    let mut kids = p.child_ptrs();
                    kids.remove(pi);
                    seps.remove(if pi == 0 { 0 } else { pi - 1 });
                    let replacement = if seps.is_empty() {
                        kids[0] as usize
                    } else {
                        flock_epoch::alloc(Node::internal(&seps, &kids)) as usize
                    };
                    p.removed.store(true, Ordering::SeqCst);
                    g.children[gi].store(replacement, Ordering::SeqCst);
                    // SAFETY: both unlinked; unique retires under the locks.
                    unsafe {
                        flock_epoch::retire(parent);
                        flock_epoch::retire(leaf);
                    }
                }
                p.lock.release();
                g.lock.release();
                if ok {
                    return true;
                }
            }
        }
    }

    /// Wait-free lookup.
    pub fn get(&self, k: K) -> Option<V> {
        let _g = flock_epoch::pin();
        // SAFETY: pinned descent.
        let mut cur =
            unsafe { (*self.anchor).children[0].load(Ordering::SeqCst) } as *mut Node<K, V>;
        loop {
            // SAFETY: pinned.
            let n = unsafe { &*cur };
            if n.is_leaf {
                return n.find(&k).map(|i| n.vals[i].clone());
            }
            cur = n.children[n.route(&k)].load(Ordering::SeqCst) as *mut Node<K, V>;
        }
    }

    /// Presence-only lookup: the same descent as [`BlockingABTree::get`]
    /// without cloning the value.
    pub fn contains(&self, k: &K) -> bool {
        let _g = flock_epoch::pin();
        // SAFETY: pinned descent.
        let mut cur =
            unsafe { (*self.anchor).children[0].load(Ordering::SeqCst) } as *mut Node<K, V>;
        loop {
            // SAFETY: pinned.
            let n = unsafe { &*cur };
            if n.is_leaf {
                return n.find(k).is_some();
            }
            cur = n.children[n.route(k)].load(Ordering::SeqCst) as *mut Node<K, V>;
        }
    }

    /// Element count (O(n)).
    pub fn len(&self) -> usize {
        let _g = flock_epoch::pin();
        // SAFETY: pinned walk.
        unsafe { Self::count((*self.anchor).children[0].load(Ordering::SeqCst) as *mut Node<K, V>) }
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    unsafe fn count(n: *mut Node<K, V>) -> usize {
        // SAFETY: pinned per caller.
        let node = unsafe { &*n };
        if node.is_leaf {
            node.keys.len()
        } else {
            (0..=node.keys.len())
                .map(|i| unsafe {
                    Self::count(node.children[i].load(Ordering::SeqCst) as *mut Node<K, V>)
                })
                .sum()
        }
    }
}

impl<K: Key, V: Value> Drop for BlockingABTree<K, V> {
    fn drop(&mut self) {
        // SAFETY: exclusive access.
        unsafe fn free<K: Key, V: Value>(n: *mut Node<K, V>) {
            if n.is_null() {
                return;
            }
            // SAFETY: exclusive teardown.
            unsafe {
                if !(*n).is_leaf {
                    for i in 0..=(*n).keys.len() {
                        free((*n).children[i].load(Ordering::SeqCst) as *mut Node<K, V>);
                    }
                }
                flock_epoch::free_now(n);
            }
        }
        // SAFETY: exclusive access.
        unsafe {
            free((*self.anchor).children[0].load(Ordering::SeqCst) as *mut Node<K, V>);
            flock_epoch::free_now(self.anchor);
        }
    }
}

impl<K: Key, V: Value> Map<K, V> for BlockingABTree<K, V> {
    fn insert(&self, key: K, value: V) -> bool {
        BlockingABTree::insert(self, key, value)
    }
    fn remove(&self, key: K) -> bool {
        BlockingABTree::remove(self, key)
    }
    fn get(&self, key: K) -> Option<V> {
        BlockingABTree::get(self, key)
    }
    fn contains(&self, key: K) -> bool {
        BlockingABTree::contains(self, &key)
    }
    fn name(&self) -> &'static str {
        "srivastava_abtree"
    }
    fn update(&self, key: K, value: V) -> bool {
        BlockingABTree::update(self, key, value)
    }
    fn len_approx(&self) -> Option<usize> {
        Some(self.len.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_conformance as testutil;

    #[test]
    fn basic_ops() {
        let t: BlockingABTree<u64, u64> = BlockingABTree::new();
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert!(t.insert(3, 30));
        assert_eq!(t.get(5), Some(50));
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_and_drains() {
        let t: BlockingABTree<u64, u64> = BlockingABTree::new();
        for k in 0..2_000 {
            assert!(t.insert(k, k * 3));
        }
        assert_eq!(t.len(), 2_000);
        for k in 0..2_000 {
            assert_eq!(t.get(k), Some(k * 3));
            assert!(t.remove(k));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn oracle() {
        let t: BlockingABTree<u64, u64> = BlockingABTree::new();
        testutil::oracle_check(&t, 4_000, 512, 51);
    }

    #[test]
    fn concurrent_partitioned() {
        let t: BlockingABTree<u64, u64> = BlockingABTree::new();
        testutil::partition_stress(&t, 4, 1_500);
    }
}
