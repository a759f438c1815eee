//! # flock-baselines — comparator data structures for the evaluation
//!
//! From-scratch Rust implementations of the structures the paper's
//! evaluation (§8) compares Flock against:
//!
//! | module | structure | role in the paper |
//! |---|---|---|
//! | [`harris`] | Harris's lock-free linked list (+ the optimized-find variant of David et al.) | Fig. 7 `harris_list`, `harris_list_opt` |
//! | [`natarajan`] | Natarajan–Mittal lock-free external BST (edge flagging) | Fig. 5 `natarajan` |
//! | [`ellen`] | Ellen et al. non-blocking external BST (Info records) | Fig. 5 `ellen` |
//! | [`blocking_bst`] | Bronson-style blocking optimistic internal BST with per-node spin locks | Fig. 5 `bronson`/`drachsler` class |
//! | [`blocking_abtree`] | Srivastava-style blocking optimistic (a,b)-tree | Fig. 6 `srivastava_abtree` |
//!
//! All baselines use `flock-epoch` for reclamation (the comparison should
//! not be confounded by different memory managers) but none of them use
//! Flock locks or logs — the lock-free ones are direct CAS designs with
//! their own flag/mark bits, and the blocking ones use raw
//! test-and-test-and-set spin locks.
//!
//! Every baseline implements [`flock_api::Map`] — the same single interface
//! the Flock structures implement, and **generically over `(K, V)`** like
//! them — so the bench harness needs no adapter layer to mix the two
//! families. Node *keys* are plain generic fields (the CAS designs replace
//! whole nodes), but every baseline stores its *values* in one atomic word
//! of raw `ValueRepr` payload bits (fat values behind an epoch-retired
//! pointer) — the pattern `blocking_bst`'s in-place revive pioneered, now
//! shared via the crate-private `value_cell` module — which is what gives
//! all five a **native atomic `Map::update`** (no registry structure uses
//! the trait's remove-then-insert default; each conformance suite checks
//! the atomicity). All five keep their striped maintained counters
//! (`flock_sync::ApproxLen`, shared with the Flock structures since the
//! `ValueRepr` refactor) behind `Map::len_approx`.
//!
//! Divergences from the original systems are documented in each module's
//! docs (notably: `blocking_bst` does not rebalance, so it matches
//! Bronson's locking discipline but not its AVL shape).

#![warn(missing_docs)]

pub mod blocking_abtree;
pub mod blocking_bst;
pub mod ellen;
pub mod harris;
pub mod natarajan;
mod value_cell;

pub use blocking_abtree::BlockingABTree;
pub use blocking_bst::BlockingBst;
pub use ellen::EllenBst;
pub use harris::HarrisList;
pub use natarajan::NatarajanBst;

pub use flock_api::Map;
