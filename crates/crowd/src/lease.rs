//! Worker checkout/lease bookkeeping for concurrent jobs sharing one pool.
//!
//! §3.1 assumes "n random workers provide the answers" — true for a single HIT, but when
//! the multi-job scheduler (`cdas_engine::scheduler`) keeps several HITs from *different*
//! jobs in flight at once, nothing in the platform stops the same worker from being
//! assigned to two overlapping HITs, or twice to the same question through them. The
//! [`PoolLedger`] closes that gap: it tracks which workers are currently checked out,
//! hands out disjoint [`WorkerLease`]s, and takes workers back when a HIT completes or is
//! cancelled.
//!
//! Two properties matter for the parallel fleet:
//!
//! * The ledger is a **concurrent lease table**: a `PoolLedger` is a cheap handle (clones
//!   share the same table), and every operation takes `&self` behind an internal lock, so
//!   a ledger can be observed — or, in principle, leased from — by multiple threads.
//! * Leases release **on drop (RAII)**. A [`WorkerLease`] holds a handle back to its
//!   table and returns its workers the moment it goes out of scope — through an early
//!   `?` return, a panic unwinding a shard thread, or a plain happy-path drop. A
//!   scheduler bug (or crash) can therefore never strand workers as checked out; the
//!   leak the old explicit-release protocol allowed on error paths is structurally gone.
//!
//! The ledger deliberately holds only [`WorkerId`]s, not worker state: it composes with
//! any roster — a [`WorkerPool`], a real platform's qualified
//! worker list, or a hand-written subset.
//!
//! ```
//! use cdas_crowd::lease::PoolLedger;
//! use cdas_core::types::WorkerId;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ledger = PoolLedger::new((0..10).map(WorkerId));
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = ledger.try_lease(6, &mut rng).unwrap();
//! // Only 4 workers remain free: a second 6-worker lease must wait.
//! assert!(ledger.try_lease(6, &mut rng).is_none());
//! assert_eq!(ledger.available(), 4);
//! drop(a); // RAII: dropping the lease returns its workers
//! assert_eq!(ledger.available(), 10);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cdas_core::types::WorkerId;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pool::WorkerPool;

/// Identifier of one outstanding lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LeaseId(pub u64);

/// The table behind a [`PoolLedger`] handle.
#[derive(Debug, Default)]
struct LedgerState {
    roster: Vec<WorkerId>,
    /// Each worker's position in `roster`, as `(worker, position)` pairs sorted by worker.
    position: Vec<(WorkerId, usize)>,
    /// The free roster positions, in the order past leases and releases left them.
    free: Vec<usize>,
    /// Whether the worker at each roster position is checked out.
    checked_out: Vec<bool>,
    /// The roster positions each outstanding lease holds, in draw order.
    leases: BTreeMap<LeaseId, Vec<usize>>,
    next_lease: u64,
}

impl LedgerState {
    /// Number of workers checked out.
    fn leased(&self) -> usize {
        self.roster.len() - self.free.len()
    }

    /// Check out the position at `index` of `free`, swap-removing it from the list.
    fn take_free(&mut self, index: usize) -> usize {
        let p = self.free.swap_remove(index);
        if let Some(flag) = self.checked_out.get_mut(p) {
            *flag = true;
        }
        p
    }

    /// Return a lease's workers to the free roster; no-op for unknown/released ids.
    fn release(&mut self, lease: LeaseId) -> usize {
        let Some(positions) = self.leases.remove(&lease) else {
            return 0;
        };
        for &p in &positions {
            if let Some(flag) = self.checked_out.get_mut(p) {
                *flag = false;
                self.free.push(p);
            }
        }
        positions.len()
    }
}

/// A set of workers checked out together for one HIT — an RAII guard.
///
/// Dropping the lease (explicitly, through `?`, or during a panic unwind) returns its
/// workers to the [`PoolLedger`] it came from. There is no way to copy or serialize a
/// lease: exactly one guard exists per checkout, so the release happens exactly once.
#[derive(Debug)]
#[must_use = "dropping a WorkerLease returns its workers to the ledger immediately; bind it for the HIT's lifetime"]
pub struct WorkerLease {
    /// The lease identifier (for the dispatch timeline and [`PoolLedger::workers_of`]).
    pub id: LeaseId,
    workers: Vec<WorkerId>,
    table: Arc<Mutex<LedgerState>>,
}

impl WorkerLease {
    /// The leased workers, in assignment order.
    pub fn workers(&self) -> &[WorkerId] {
        &self.workers
    }

    /// Number of leased workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the lease is empty (never produced by [`PoolLedger::try_lease`]).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Release the lease now. Equivalent to dropping it; provided so call sites can make
    /// the hand-back explicit.
    pub fn release(self) {}
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        // Recover from a poisoned table rather than skip the release: the only foreign
        // code that runs under the ledger lock is the caller's RNG inside `try_lease`'s
        // draws, which execute *before* any state mutation — so a poisoned
        // `LedgerState` is never mid-mutation and releasing into it is safe. Skipping
        // would strand this lease's workers forever, the exact failure RAII exists to
        // rule out.
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .release(self.id);
    }
}

/// Checkout ledger over a fixed worker roster — a concurrent lease table.
///
/// `PoolLedger` is a handle: clones share the same table, so a test (or a supervisor
/// thread) can keep a clone and watch `available()`/`outstanding_leases()` while a
/// scheduler leases through its own. The table keeps the free roster positions in a
/// list, plus one leased flag per roster position. A [`try_lease`](Self::try_lease) of
/// `n` workers is O(n): it draws `n` indices and swap-removes them from the list. A
/// release is O(1) per worker: it pushes the positions back. [`is_leased`](Self::is_leased)
/// is a binary search, O(log roster), and the counts are O(1). Everything is
/// deterministic given the caller's RNG, like the rest of the simulation. The order of
/// the free list, and so which workers a given draw picks, follows the ledger's lease
/// history.
#[derive(Debug, Clone, Default)]
pub struct PoolLedger {
    table: Arc<Mutex<LedgerState>>,
}

impl PoolLedger {
    /// A ledger over an explicit roster (duplicates are collapsed, order preserved).
    pub fn new(roster: impl IntoIterator<Item = WorkerId>) -> Self {
        // Sorted `(worker, index)` pairs keep each worker's first occurrence. In index
        // order the survivors are the roster, and each one's rank there is its position.
        let mut position: Vec<(WorkerId, usize)> = roster
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, i))
            .collect();
        position.sort_unstable();
        position.dedup_by_key(|entry| entry.0);
        let mut by_index: Vec<&mut (WorkerId, usize)> = position.iter_mut().collect();
        by_index.sort_unstable_by_key(|entry| entry.1);
        let mut ids = Vec::with_capacity(by_index.len());
        for (p, entry) in by_index.into_iter().enumerate() {
            entry.1 = p;
            ids.push(entry.0);
        }
        PoolLedger {
            table: Arc::new(Mutex::new(LedgerState {
                free: (0..ids.len()).collect(),
                checked_out: vec![false; ids.len()],
                roster: ids,
                position,
                leases: BTreeMap::new(),
                next_lease: 0,
            })),
        }
    }

    /// A ledger over every worker of a simulated pool.
    pub fn from_pool(pool: &WorkerPool) -> Self {
        Self::new(pool.workers().iter().map(|w| w.id))
    }

    fn state(&self) -> MutexGuard<'_, LedgerState> {
        // See `WorkerLease::drop`: a poisoned table is never mid-mutation (the caller's
        // RNG is the only foreign code under this lock, and it runs before any write),
        // so the ledger keeps working after a panicking caller instead of cascading.
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Total roster size.
    pub fn roster_len(&self) -> usize {
        self.state().roster.len()
    }

    /// The roster, in checkout-priority order (a copy — the table stays locked only for
    /// the duration of the call).
    pub fn roster(&self) -> Vec<WorkerId> {
        self.state().roster.clone()
    }

    /// The workers not checked out, in roster order (a copy, read under one lock).
    pub fn free_roster(&self) -> Vec<WorkerId> {
        let state = self.state();
        state
            .roster
            .iter()
            .zip(&state.checked_out)
            .filter(|&(_, &out)| !out)
            .map(|(&worker, _)| worker)
            .collect()
    }

    /// Number of workers currently free.
    pub fn available(&self) -> usize {
        self.state().free.len()
    }

    /// Number of workers currently checked out.
    pub fn leased(&self) -> usize {
        self.state().leased()
    }

    /// Number of outstanding leases.
    pub fn outstanding_leases(&self) -> usize {
        self.state().leases.len()
    }

    /// Whether a specific worker is currently checked out.
    pub fn is_leased(&self, worker: WorkerId) -> bool {
        let state = self.state();
        state
            .position
            .binary_search_by_key(&worker, |&(w, _)| w)
            .ok()
            .and_then(|i| state.position.get(i))
            .and_then(|&(_, p)| state.checked_out.get(p))
            .is_some_and(|&out| out)
    }

    /// The workers behind an outstanding lease.
    pub fn workers_of(&self, lease: LeaseId) -> Option<Vec<WorkerId>> {
        let state = self.state();
        let positions = state.leases.get(&lease)?;
        Some(
            positions
                .iter()
                .filter_map(|&p| state.roster.get(p).copied())
                .collect(),
        )
    }

    /// Try to check out `n` distinct free workers, chosen uniformly at random among the
    /// free part of the roster: every `n`-subset of the free workers is equally likely.
    /// Returns `None` — leaving the ledger untouched — when fewer than `n` workers are
    /// free (the caller waits and retries) or when `n` is zero.
    ///
    /// The returned [`WorkerLease`] releases on drop.
    #[must_use = "an unbound lease releases its workers immediately, making the checkout a no-op"]
    pub fn try_lease<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Option<WorkerLease> {
        if n == 0 {
            return None;
        }
        let mut state = self.state();
        let free = state.free.len();
        if free < n {
            return None;
        }
        // Draw i picks uniformly among the `free - i` workers the first i draws left.
        // Every index is drawn before the table changes: a panic inside the caller's RNG
        // leaves it as it was.
        let mut picked: Vec<usize> = (0..n).map(|i| rng.random_range(0..free - i)).collect();
        for pick in &mut picked {
            *pick = state.take_free(*pick);
        }
        let workers = picked
            .iter()
            .filter_map(|&p| state.roster.get(p).copied())
            .collect();
        let id = LeaseId(state.next_lease);
        state.next_lease += 1;
        state.leases.insert(id, picked);
        Some(WorkerLease {
            id,
            workers,
            table: Arc::clone(&self.table),
        })
    }

    /// Return a lease's workers to the free roster by id. Returns how many workers were
    /// freed (0 for an unknown or already-released lease).
    ///
    /// Normally unnecessary — leases release on drop — and safe to combine with RAII: the
    /// guard's later drop finds the id gone and does nothing.
    pub fn release(&self, lease: LeaseId) -> usize {
        self.state().release(lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ledger(n: u64) -> PoolLedger {
        PoolLedger::new((0..n).map(WorkerId))
    }

    #[test]
    fn leases_are_disjoint_until_released() {
        let l = ledger(12);
        let mut rng = StdRng::seed_from_u64(7);
        let a = l.try_lease(5, &mut rng).unwrap();
        let b = l.try_lease(5, &mut rng).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
        let overlap = a
            .workers()
            .iter()
            .filter(|w| b.workers().contains(w))
            .count();
        assert_eq!(overlap, 0, "concurrent leases must not share workers");
        assert_eq!(l.available(), 2);
        assert_eq!(l.outstanding_leases(), 2);
        // Third lease cannot be satisfied until one releases.
        assert!(l.try_lease(5, &mut rng).is_none());
        a.release();
        assert!(l.try_lease(5, &mut rng).is_some());
    }

    #[test]
    fn leased_workers_are_distinct_within_a_lease() {
        let l = ledger(30);
        let mut rng = StdRng::seed_from_u64(3);
        let lease = l.try_lease(20, &mut rng).unwrap();
        let mut ids: Vec<u64> = lease.workers().iter().map(|w| w.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        for w in lease.workers() {
            assert!(l.is_leased(*w));
        }
        assert_eq!(l.workers_of(lease.id).unwrap().len(), 20);
    }

    #[test]
    fn failed_lease_leaves_ledger_untouched() {
        let l = ledger(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(l.try_lease(5, &mut rng).is_none());
        assert!(l.try_lease(0, &mut rng).is_none());
        assert_eq!(l.available(), 4);
        assert_eq!(l.leased(), 0);
        assert_eq!(l.outstanding_leases(), 0);
    }

    #[test]
    fn dropping_a_lease_releases_it() {
        let l = ledger(6);
        let mut rng = StdRng::seed_from_u64(2);
        {
            let _lease = l.try_lease(3, &mut rng).unwrap();
            assert_eq!(l.available(), 3);
        }
        assert_eq!(l.available(), 6);
        assert_eq!(l.outstanding_leases(), 0);
    }

    #[test]
    fn manual_release_then_drop_frees_workers_exactly_once() {
        let l = ledger(6);
        let mut rng = StdRng::seed_from_u64(2);
        let lease = l.try_lease(3, &mut rng).unwrap();
        let id = lease.id;
        assert_eq!(l.release(id), 3);
        assert_eq!(l.available(), 6);
        // A second lease takes some of the same workers…
        let again = l.try_lease(4, &mut rng).unwrap();
        assert_eq!(l.available(), 2);
        // …and the stale guard's drop must not free them out from under it.
        drop(lease);
        assert_eq!(l.available(), 2);
        assert_eq!(l.release(LeaseId(999)), 0);
        drop(again);
        assert_eq!(l.available(), 6);
    }

    #[test]
    fn a_panicking_thread_cannot_strand_workers() {
        let l = ledger(8);
        let observer = l.clone();
        let result = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(9);
            let _lease = l.try_lease(5, &mut rng).unwrap();
            assert_eq!(l.available(), 3);
            panic!("simulated shard crash mid-lease");
        })
        .join();
        assert!(result.is_err(), "the thread must have panicked");
        assert_eq!(observer.available(), 8, "unwind released the lease");
        assert_eq!(observer.outstanding_leases(), 0);
    }

    #[test]
    fn a_panicking_rng_cannot_poison_the_ledger_or_strand_leases() {
        // `try_lease` runs the caller's RNG inside the table lock (the draws). If that
        // RNG panics, the mutex is poisoned — but the state is never mid-mutation at
        // that point, so both the guards' drops and later ledger calls must recover
        // instead of stranding workers or cascading panics.
        struct FusedRng(u32);
        impl rand::Rng for FusedRng {
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.checked_sub(1).expect("scripted RNG exhausted");
                7
            }
        }

        let l = ledger(10);
        let mut good_rng = StdRng::seed_from_u64(3);
        let survivor = l.try_lease(4, &mut good_rng).unwrap();
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.try_lease(3, &mut FusedRng(2))
        }));
        assert!(poisoning.is_err(), "the scripted RNG must have panicked");
        // The ledger keeps answering through the poison…
        assert_eq!(l.available(), 6);
        assert_eq!(l.outstanding_leases(), 1);
        // …a fresh lease still works…
        let after = l.try_lease(3, &mut good_rng).unwrap();
        assert_eq!(l.available(), 3);
        // …and the pre-poison guard still releases its workers on drop.
        drop(survivor);
        drop(after);
        assert_eq!(l.available(), 10);
        assert_eq!(l.leased(), 0);
    }

    #[test]
    fn clones_share_one_table() {
        let l = ledger(10);
        let handle = l.clone();
        let mut rng = StdRng::seed_from_u64(4);
        let lease = l.try_lease(6, &mut rng).unwrap();
        assert_eq!(handle.available(), 4);
        assert_eq!(handle.outstanding_leases(), 1);
        drop(lease);
        assert_eq!(handle.available(), 10);
    }

    #[test]
    fn from_pool_covers_every_worker_and_dedups() {
        let pool = WorkerPool::generate(&PoolConfig::clean(25, 0.8, 5));
        let l = PoolLedger::from_pool(&pool);
        assert_eq!(l.roster_len(), 25);
        assert_eq!(l.roster().len(), 25);
        let dup = PoolLedger::new([WorkerId(1), WorkerId(1), WorkerId(2)]);
        assert_eq!(dup.roster_len(), 2);
    }

    #[test]
    fn picks_are_uniform_over_the_free_workers() {
        // Ten of 30 workers stay leased throughout. Two 4-worker leases overlap in every
        // round and are released in alternating order, so the free list's order keeps
        // changing. Each of the 20 free workers is in a round's 8 picks with probability
        // 0.4: 4,000 picks in 10,000 rounds, with a standard deviation near 49.
        let l = ledger(30);
        let mut rng = StdRng::seed_from_u64(17);
        let held = l.try_lease(10, &mut rng).unwrap();
        let mut picks = [0u32; 30];
        for round in 0..10_000 {
            let a = l.try_lease(4, &mut rng).unwrap();
            let b = l.try_lease(4, &mut rng).unwrap();
            for w in a.workers().iter().chain(b.workers()) {
                picks[w.0 as usize] += 1;
            }
            if round % 2 == 0 {
                drop((a, b));
            } else {
                drop((b, a));
            }
        }
        for (worker, &count) in picks.iter().enumerate() {
            if held.workers().contains(&WorkerId(worker as u64)) {
                assert_eq!(count, 0, "leased worker {worker} was picked");
            } else {
                // Within 5% of uniform, about four standard deviations.
                assert!(
                    (3_800..=4_200).contains(&count),
                    "worker {worker} picked {count} times"
                );
            }
        }
    }

    #[test]
    fn leasing_is_deterministic_for_a_seed() {
        let pick = || {
            let l = ledger(40);
            let mut rng = StdRng::seed_from_u64(11);
            l.try_lease(10, &mut rng).unwrap().workers().to_vec()
        };
        assert_eq!(pick(), pick());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// The lease table as a plain list of free workers plus a busy set: a lease
    /// swap-removes the worker at each drawn index, a release pushes its workers back.
    /// The reference the ledger's position-indexed table must match draw for draw.
    struct BusySetLedger {
        roster: Vec<WorkerId>,
        free: Vec<WorkerId>,
        busy: BTreeSet<WorkerId>,
        leases: BTreeMap<LeaseId, Vec<WorkerId>>,
        next_lease: u64,
    }

    impl BusySetLedger {
        fn new(roster: &[WorkerId]) -> Self {
            let mut seen = BTreeSet::new();
            let roster: Vec<WorkerId> =
                roster.iter().copied().filter(|w| seen.insert(*w)).collect();
            BusySetLedger {
                free: roster.clone(),
                roster,
                busy: BTreeSet::new(),
                leases: BTreeMap::new(),
                next_lease: 0,
            }
        }

        fn try_lease(&mut self, n: usize, rng: &mut StdRng) -> Option<(LeaseId, Vec<WorkerId>)> {
            if n == 0 || self.free.len() < n {
                return None;
            }
            let workers: Vec<WorkerId> = (0..n)
                .map(|_| {
                    let index = rng.random_range(0..self.free.len());
                    self.free.swap_remove(index)
                })
                .collect();
            self.busy.extend(workers.iter().copied());
            let id = LeaseId(self.next_lease);
            self.next_lease += 1;
            self.leases.insert(id, workers.clone());
            Some((id, workers))
        }

        fn release(&mut self, lease: LeaseId) -> usize {
            let workers = self.leases.remove(&lease).unwrap_or_default();
            for w in &workers {
                self.busy.remove(w);
                self.free.push(*w);
            }
            workers.len()
        }
    }

    fn assert_same_table(ledger: &PoolLedger, reference: &BusySetLedger) {
        assert_eq!(
            ledger.available(),
            reference.roster.len() - reference.busy.len()
        );
        assert_eq!(ledger.leased(), reference.busy.len());
        assert_eq!(ledger.outstanding_leases(), reference.leases.len());
        // Ids 40 and 41 are never on a roster.
        for id in 0..42 {
            assert_eq!(
                ledger.is_leased(WorkerId(id)),
                reference.busy.contains(&WorkerId(id)),
                "worker {id}"
            );
        }
        for (&id, workers) in &reference.leases {
            assert_eq!(ledger.workers_of(id).as_ref(), Some(workers));
        }
        let free: Vec<WorkerId> = reference
            .roster
            .iter()
            .copied()
            .filter(|w| !reference.busy.contains(w))
            .collect();
        assert_eq!(ledger.free_roster(), free);
    }

    proptest! {
        /// Any sequence of leases, guard drops and releases by id leaves the ledger's
        /// table where the reference table would be, picking the same workers from the
        /// same RNG, on a roster out of id order and with duplicates.
        #[test]
        fn flag_table_matches_the_busy_set_table(
            roster in prop::collection::vec(0u64..40, 0..40),
            ops in prop::collection::vec((0usize..3, 0usize..64), 0..40),
            seed in 0u64..1_000,
        ) {
            let roster: Vec<WorkerId> = roster.into_iter().map(WorkerId).collect();
            let ledger = PoolLedger::new(roster.iter().copied());
            let mut reference = BusySetLedger::new(&roster);
            prop_assert_eq!(ledger.roster(), reference.roster.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            let mut guards: Vec<WorkerLease> = Vec::new();
            for (op, arg) in ops {
                match op {
                    0 => {
                        let n = arg % (reference.roster.len() + 2);
                        let lease = ledger.try_lease(n, &mut rng);
                        let expected = reference.try_lease(n, &mut reference_rng);
                        prop_assert_eq!(
                            lease.as_ref().map(|l| (l.id, l.workers().to_vec())),
                            expected
                        );
                        guards.extend(lease);
                    }
                    1 if !guards.is_empty() => {
                        let guard = guards.remove(arg % guards.len());
                        reference.release(guard.id);
                        drop(guard);
                    }
                    _ => {
                        let id = LeaseId((arg as u64) % (reference.next_lease + 1));
                        prop_assert_eq!(ledger.release(id), reference.release(id));
                    }
                }
                prop_assert_eq!(rng.clone(), reference_rng.clone());
                assert_same_table(&ledger, &reference);
            }
            drop(guards);
            prop_assert_eq!(ledger.available(), reference.roster.len());
            prop_assert_eq!(ledger.outstanding_leases(), 0);
        }
    }
}
