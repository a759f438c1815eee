//! One `map_conformance!` instantiation per baseline structure. The
//! baselines ignore the Flock lock mode, so running the suite in both modes
//! simply runs it twice — keeping the instantiation identical to the Flock
//! structures' is the point of the shared macro.

use flock_baselines::{BlockingABTree, BlockingBst, EllenBst, HarrisList, NatarajanBst};

flock_api::map_conformance!(harris_list, HarrisList::new());
flock_api::map_conformance!(harris_list_opt, HarrisList::new_opt());
flock_api::map_conformance!(natarajan, NatarajanBst::new());
flock_api::map_conformance!(ellen, EllenBst::new());
flock_api::map_conformance!(bronson_style_bst, BlockingBst::new());
flock_api::map_conformance!(srivastava_abtree, BlockingABTree::new());

/// Every baseline maintains a striped counter now: `len_approx` must be
/// `Some`, track mixed trait-level ops exactly when quiescent, and stay
/// exact after a concurrent partitioned workload.
#[test]
fn maintained_len_approx_is_exact_when_quiescent() {
    use flock_api::Map;
    let maps: Vec<Box<dyn Map<u64, u64>>> = vec![
        Box::new(HarrisList::new()),
        Box::new(HarrisList::new_opt()),
        Box::new(NatarajanBst::new()),
        Box::new(EllenBst::new()),
        Box::new(BlockingBst::new()),
        Box::new(BlockingABTree::new()),
    ];
    for map in maps {
        let name = map.name();
        assert_eq!(map.len_approx(), Some(0), "{name}: empty map");
        for k in 0..100 {
            assert!(map.insert(k, k * 10), "{name}");
        }
        assert!(!map.insert(7, 0), "{name}: duplicate insert not counted");
        assert_eq!(map.len_approx(), Some(100), "{name}");
        for k in 0..40 {
            assert!(map.remove(k), "{name}");
        }
        assert!(!map.remove(7), "{name}: double remove not counted");
        assert_eq!(map.len_approx(), Some(60), "{name}");
        assert!(map.update(50, 1), "{name}");
        assert_eq!(
            map.len_approx(),
            Some(60),
            "{name}: update must not change the count"
        );
        // Concurrent churn over disjoint partitions; exact once quiescent.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = &map;
                s.spawn(move || {
                    for i in 0..250u64 {
                        let k = 1_000 + i * 4 + t;
                        assert!(map.insert(k, i));
                        if i % 2 == 0 {
                            assert!(map.remove(k));
                        }
                    }
                });
            }
        });
        // 60 + 4 threads * 125 surviving odd-i keys.
        assert_eq!(map.len_approx(), Some(60 + 4 * 125), "{name} after churn");
    }
}

/// Contended churn on a fresh `EllenBst` per round: four threads racing
/// inserts, removes and gets on 16 keys, so deletes splice subtrees that
/// late helpers of finished inserts and deletes still point into. Every
/// splice must retire its pair exactly once (debug builds' collector
/// panics on a double retire) and, per key, the successful inserts and
/// removes must alternate.
#[test]
fn ellen_contended_rounds() {
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
    for round in 0..500 {
        let map = EllenBst::<u64, u64>::new();
        let net: Vec<AtomicI64> = (0..16).map(|_| AtomicI64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (map, net) = (&map, &net);
                s.spawn(move || {
                    let mut state = (round * 4 + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for _ in 0..2_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % 16;
                        match state >> 8 & 3 {
                            0 => {
                                if map.insert(k, k) {
                                    net[k as usize].fetch_add(1, Relaxed);
                                }
                            }
                            1 => {
                                if map.remove(k) {
                                    net[k as usize].fetch_sub(1, Relaxed);
                                }
                            }
                            _ => {
                                if let Some(v) = map.get(k) {
                                    assert_eq!(v, k, "round {round}: value corrupted");
                                }
                            }
                        }
                    }
                });
            }
        });
        for (k, n) in net.iter().enumerate() {
            let n = n.load(Relaxed);
            assert!(n == 0 || n == 1, "round {round}, key {k}: net {n}");
            assert_eq!(map.contains(k as u64), n == 1, "round {round}, key {k}");
        }
    }
}
