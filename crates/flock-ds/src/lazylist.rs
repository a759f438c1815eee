//! Sorted singly-linked *lazy list* (Heller et al., OPODIS 2006), written
//! with Flock locks as in the paper's `lazylist` (§7), generic over
//! `(K, V)`.
//!
//! Each node carries `next`, its entry and its lock; everything else
//! follows the crate's [list protocol](crate#list-protocol). An update
//! locks the search's trailing node; a remove marks the victim's lock
//! obsolete (the logical delete) and splices it out (the physical delete)
//! in one critical section.

use flock_api::{Key, Value};
use flock_core::{Lock, Mutable};

use crate::list::{List, ListNode};

/// A node of a [`LazyList`]; its fields are private.
pub struct Node<K: Key, V: Value> {
    next: Mutable<*mut Self>,
    entry: Option<(K, Mutable<V>)>,
    lock: Lock,
}

impl<K: Key, V: Value> ListNode for Node<K, V> {
    type K = K;
    type V = V;
    const NAME: &'static str = "lazylist";

    fn new(entry: Option<(K, V)>, next: *mut Self, _prev: *mut Self) -> Self {
        Self {
            next: Mutable::new(next),
            entry: entry.map(|(k, v)| (k, Mutable::new(v))),
            lock: Lock::new(),
        }
    }
    fn next(&self) -> &Mutable<*mut Self> {
        &self.next
    }
    fn prev(&self) -> Option<&Mutable<*mut Self>> {
        None
    }
    fn entry(&self) -> Option<&(K, Mutable<V>)> {
        self.entry.as_ref()
    }
    fn lock(&self) -> &Lock {
        &self.lock
    }
}

/// Sorted singly-linked lazy list map.
pub type LazyList<K, V> = List<Node<K, V>>;

#[cfg(test)]
mod tests {
    crate::list::tests::list_tests!(LazyList);
}
