//! Timer-tag multiplexing across shards.
//!
//! Every instance of a backend arms the same few timer tags
//! (`BATCH_TIMEOUT_TAG`, its deadline tables' tags, …), so two inner
//! instances of the same backend would collide if their tags were
//! forwarded unchanged, and the tag values are too scattered for
//! bit-packing a shard index.  [`TimerMux`] instead allocates a fresh outer tag per
//! armed timer and remembers which `(shard, inner tag)` it stands for;
//! timers are one-shot at this layer, so entries are dropped when they
//! fire.

use smp_mempool::TimerTag;
use std::collections::HashMap;

/// Maps outer (replica-facing) timer tags to per-shard inner tags.
#[derive(Clone, Debug, Default)]
pub struct TimerMux {
    next: TimerTag,
    pending: HashMap<TimerTag, (u16, TimerTag)>,
}

impl TimerMux {
    /// An empty multiplexer.
    pub fn new() -> Self {
        TimerMux::default()
    }

    /// Registers an inner timer and returns the outer tag to arm.
    pub fn arm(&mut self, shard: u16, inner: TimerTag) -> TimerTag {
        let outer = self.next;
        // Outer tags stay well below the replica layer's mempool-flag bit
        // (2^63); wrapping is unreachable in practice.
        self.next += 1;
        self.pending.insert(outer, (shard, inner));
        outer
    }

    /// Resolves a fired outer tag to its `(shard, inner tag)`, removing
    /// the registration.
    pub fn fire(&mut self, outer: TimerTag) -> Option<(u16, TimerTag)> {
        self.pending.remove(&outer)
    }

    /// Number of armed-but-unfired timers.
    pub fn armed(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_fire_roundtrip() {
        let mut mux = TimerMux::new();
        let a = mux.arm(0, 42);
        let b = mux.arm(3, 42);
        assert_ne!(
            a, b,
            "same inner tag on different shards gets distinct outer tags"
        );
        assert_eq!(mux.armed(), 2);
        assert_eq!(mux.fire(b), Some((3, 42)));
        assert_eq!(mux.fire(b), None, "timers are one-shot");
        assert_eq!(mux.fire(a), Some((0, 42)));
        assert_eq!(mux.armed(), 0);
    }

    #[test]
    fn outer_tags_are_unique_across_many_arms() {
        let mut mux = TimerMux::new();
        let tags: Vec<TimerTag> = (0..1000).map(|i| mux.arm((i % 4) as u16, 7)).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags.len());
    }
}
