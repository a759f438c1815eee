//! Cross-crate integration tests: every Flock structure and every baseline
//! hammered through the one `flock_api::Map` interface, in both lock modes,
//! against a sequential oracle (per-thread key partitions make per-thread
//! sequential semantics exact even under full concurrency).

use flock::api::Map;
use flock::core::LockMode;
use flock_bench::{BASELINES, FLOCK_STRUCTURES, make_map};
use flock_conformance::{default_methods_check, partition_stress, with_mode};

fn flock_structures() -> Vec<Box<dyn Map<u64, u64>>> {
    FLOCK_STRUCTURES.map(|name| make_map(name, 1024)).into()
}

fn baseline_structures() -> Vec<Box<dyn Map<u64, u64>>> {
    BASELINES.map(|name| make_map(name, 1024)).into()
}

#[test]
fn all_flock_structures_lock_free() {
    with_mode(LockMode::LockFree, || {
        for map in flock_structures() {
            partition_stress(&*map, 4, 800);
        }
    });
}

#[test]
fn all_flock_structures_blocking() {
    with_mode(LockMode::Blocking, || {
        for map in flock_structures() {
            partition_stress(&*map, 4, 800);
        }
    });
}

#[test]
fn all_baselines() {
    with_mode(LockMode::LockFree, || {
        for map in baseline_structures() {
            partition_stress(&*map, 4, 800);
        }
    });
}

/// The provided-method surface works uniformly across all 14 registry
/// entries (12 distinct structures + 2 variants).
#[test]
fn default_methods_across_all_structures() {
    with_mode(LockMode::LockFree, || {
        for map in flock_structures().into_iter().chain(baseline_structures()) {
            default_methods_check(&*map);
        }
    });
}

/// High-contention smoke test: every structure, all threads on 16 keys.
#[test]
fn contention_smoke_all_structures() {
    with_mode(LockMode::LockFree, || {
        for map in flock_structures().into_iter().chain(baseline_structures()) {
            let name = map.name();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let map = &map;
                    s.spawn(move || {
                        let mut state = t + 1;
                        for _ in 0..2_000 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % 16;
                            match state % 3 {
                                0 => {
                                    map.insert(k, k);
                                }
                                1 => {
                                    map.remove(k);
                                }
                                _ => {
                                    if let Some(v) = map.get(k) {
                                        assert_eq!(v, k, "{name}: value corrupted");
                                    }
                                }
                            }
                        }
                    });
                }
            });
        }
    });
}
