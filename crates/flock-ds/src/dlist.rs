//! Sorted doubly-linked list — the paper's running example (Algorithm 1),
//! generic over `(K, V)`.
//!
//! Each link carries `next` and `prev` pointers, its entry and its lock;
//! everything else follows the crate's [list protocol](crate#list-protocol).
//! An insert locks the predecessor that the found link's `prev` names; a
//! remove locks that predecessor and the victim. Either splice is the
//! two-word update (`prev.next = n; next.prev = n`) that is painful to make
//! lock-free by hand and trivial here.

use flock_api::{Key, Value};
use flock_core::{Lock, Mutable};

use crate::list::{List, ListNode};

/// A link of a [`DList`]; its fields are private.
pub struct Link<K: Key, V: Value> {
    next: Mutable<*mut Self>,
    prev: Mutable<*mut Self>,
    entry: Option<(K, Mutable<V>)>,
    lock: Lock,
}

impl<K: Key, V: Value> ListNode for Link<K, V> {
    type K = K;
    type V = V;
    const NAME: &'static str = "dlist";

    fn new(entry: Option<(K, V)>, next: *mut Self, prev: *mut Self) -> Self {
        Self {
            next: Mutable::new(next),
            prev: Mutable::new(prev),
            entry: entry.map(|(k, v)| (k, Mutable::new(v))),
            lock: Lock::new(),
        }
    }
    fn next(&self) -> &Mutable<*mut Self> {
        &self.next
    }
    fn prev(&self) -> Option<&Mutable<*mut Self>> {
        Some(&self.prev)
    }
    fn entry(&self) -> Option<&(K, Mutable<V>)> {
        self.entry.as_ref()
    }
    fn lock(&self) -> &Lock {
        &self.lock
    }
}

/// Sorted doubly-linked list map (paper Algorithm 1).
///
/// ```
/// use flock_ds::dlist::DList;
/// use flock_api::Map;
/// let l: DList<u64, u64> = DList::new();
/// assert!(l.insert(2, 20));
/// assert!(l.insert(1, 10));
/// assert_eq!(l.get(2), Some(20));
/// assert!(l.remove(1));
/// assert_eq!(l.get(1), None);
/// ```
pub type DList<K, V> = List<Link<K, V>>;

#[cfg(test)]
mod tests {
    crate::list::tests::list_tests!(DList);
}
