//! Fixture: the clean counterpart — every function acquires `left` before
//! `right`, and `outer` before `inner`, so the acquisition graph has two edges
//! and no cycle. `Nested` takes its locks through a generic relock helper,
//! whose class is the field named at each call site.
use std::sync::{Mutex, MutexGuard, PoisonError};

pub struct Pair {
    left: Mutex<u32>,
    right: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let a = self.left.lock();
        let b = self.right.lock();
        *a + *b
    }

    pub fn forward_again(&self) -> u32 {
        let a = self.left.lock();
        let b = self.right.lock();
        *b - *a
    }
}

pub struct Nested {
    outer: Mutex<u32>,
    inner: Mutex<u32>,
}

impl Nested {
    fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
        lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn total(&self) -> u32 {
        let a = Self::relock(&self.outer);
        let b = Self::relock(&self.inner);
        *a + *b
    }
}
