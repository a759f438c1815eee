//! One `map_conformance!` instantiation per Flock structure (both lock
//! disciplines of the leaftree included): the shared differential-oracle +
//! partitioned-stress + provided-method suite, run in both lock modes.
//! Ordered structures additionally stamp `ordered_map_conformance!` — the
//! range-scan oracle and the concurrent scan-consistency suite at all
//! three `(K, V)` shapes. The hash table is the one unordered structure
//! and stays point-op only.

use flock_ds::abtree::ABTree;
use flock_ds::arttree::ArtTree;
use flock_ds::dlist::DList;
use flock_ds::hashtable::HashTable;
use flock_ds::lazylist::LazyList;
use flock_ds::leaftreap::LeafTreap;
use flock_ds::leaftree::LeafTree;

flock_api::map_conformance!(dlist, DList::new());
flock_api::map_conformance!(lazylist, LazyList::new());
flock_api::map_conformance!(hashtable, HashTable::with_capacity(512));
flock_api::map_conformance!(leaftree, LeafTree::new());
flock_api::map_conformance!(leaftree_strict, LeafTree::new_strict());
flock_api::map_conformance!(leaftreap, LeafTreap::new());
flock_api::map_conformance!(abtree, ABTree::new());
flock_api::map_conformance!(arttree, ArtTree::new());

flock_api::ordered_map_conformance!(dlist_ordered, DList::new());
flock_api::ordered_map_conformance!(lazylist_ordered, LazyList::new());
flock_api::ordered_map_conformance!(leaftree_ordered, LeafTree::new());
flock_api::ordered_map_conformance!(leaftree_strict_ordered, LeafTree::new_strict());
flock_api::ordered_map_conformance!(leaftreap_ordered, LeafTreap::new());
flock_api::ordered_map_conformance!(abtree_ordered, ABTree::new());
flock_api::ordered_map_conformance!(arttree_ordered, ArtTree::new());

/// EXPERIMENTS.md §8 caveat, made checkable: under the chaos stall
/// schedule every registry structure's victim op (a native `update` of a
/// pre-inserted key) must provably park *inside* a critical section
/// (`InThunk`), not complete through an outside-the-lock read path.
#[cfg(feature = "chaos")]
mod stall_seam {
    use super::*;
    use flock_api::testing::{exclusive, stall_seam_crossed_check};

    #[test]
    fn dlist_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(DList::<u64, u64>::new));
    }

    #[test]
    fn lazylist_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(LazyList::<u64, u64>::new));
    }

    #[test]
    fn hashtable_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(|| HashTable::<u64, u64>::with_capacity(512)));
    }

    #[test]
    fn leaftree_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(LeafTree::<u64, u64>::new));
    }

    #[test]
    fn leaftree_strict_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(LeafTree::<u64, u64>::new_strict));
    }

    #[test]
    fn leaftreap_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(LeafTreap::<u64, u64>::new));
    }

    #[test]
    fn abtree_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(ABTree::<u64, u64>::new));
    }

    #[test]
    fn arttree_crosses_in_thunk() {
        exclusive(|| stall_seam_crossed_check(ArtTree::<u64, u64>::new));
    }
}

/// Lock sets under contention: every remove, split and rotation that takes
/// two or three locks as one set, raced by twice as many lock-free threads
/// as the host has cores on a key range small enough that sets collide,
/// overlap and help each other. Per key, the successful inserts and
/// removes must alternate, so their difference is the key's final
/// presence.
mod lock_set_stress {
    use super::*;
    use flock_api::Map;
    use flock_api::testing::exclusive;
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

    const KEYS: u64 = 192;
    const OPS: usize = 20_000;

    fn contended<M: Map<u64, u64>>(map: M) {
        exclusive(|| {
            let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
            let net: Vec<AtomicI64> = (0..KEYS).map(|_| AtomicI64::new(0)).collect();
            std::thread::scope(|s| {
                for t in 0..2 * cores as u64 {
                    let (map, net) = (&map, &net);
                    s.spawn(move || {
                        let mut state = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for _ in 0..OPS {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % KEYS;
                            if state >> 32 & 1 == 0 {
                                if map.insert(k, t) {
                                    net[k as usize].fetch_add(1, Relaxed);
                                }
                            } else if map.remove(k) {
                                net[k as usize].fetch_sub(1, Relaxed);
                            }
                        }
                    });
                }
            });
            for (k, n) in net.iter().enumerate() {
                let n = n.load(Relaxed);
                assert!(n == 0 || n == 1, "key {k}: inserts minus removes is {n}");
                assert_eq!(map.contains(k as u64), n == 1, "key {k}");
            }
        });
    }

    #[test]
    fn lazylist_remove() {
        contended(LazyList::new());
    }

    #[test]
    fn dlist_remove() {
        contended(DList::new());
    }

    #[test]
    fn leaftree_remove() {
        contended(LeafTree::new());
    }

    #[test]
    fn leaftreap_remove_and_rotate() {
        contended(LeafTreap::new());
    }

    #[test]
    fn abtree_remove_and_split() {
        contended(ABTree::new());
    }

    #[test]
    fn arttree_upgrade() {
        contended(ArtTree::new());
    }
}
