//! Deterministic exponential backoff for dials and reconnects.
//!
//! Both cluster formation and the steady-state reconnect supervisor
//! retry through this one policy, so a replica that restarts mid-run
//! redials its peers exactly the way the cluster first formed.  The
//! jitter is derived from `(seed, peer, attempt)` with a splitmix64
//! hash instead of a thread-local RNG: two runs with the same seed
//! back off identically, which keeps chaos runs reproducible and the
//! policy unit-testable without mocking time.

use std::time::Duration;

/// First-attempt delay ceiling, in milliseconds.
pub const BASE_MS: u64 = 10;
/// Ceiling every attempt's delay is clamped to, in milliseconds.
pub const CAP_MS: u64 = 1_000;

/// The delay before retry number `attempt` (0-based) to `peer`:
/// exponential backoff with deterministic half-width jitter.
///
/// Attempt `k` waits between `min(BASE_MS << k, CAP_MS) / 2` and
/// `min(BASE_MS << k, CAP_MS)` milliseconds; where in that band is fixed
/// by hashing `(seed, peer, attempt)`.
pub fn delay(seed: u64, peer: u32, attempt: u32) -> Duration {
    let exp = BASE_MS.saturating_mul(1u64 << attempt.min(20)).min(CAP_MS);
    // Jitter spans the upper half of the band: [exp/2, exp].
    let h = splitmix64(seed ^ ((u64::from(peer)) << 32) ^ u64::from(attempt));
    let jitter = h % (exp / 2 + 1);
    Duration::from_millis(exp - exp / 2 + jitter.min(exp / 2))
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_per_inputs() {
        for attempt in 0u32..8 {
            assert_eq!(delay(42, 3, attempt), delay(42, 3, attempt));
        }
        // Different peers / seeds jitter differently somewhere in range.
        let distinct = (0u32..8).any(|a| delay(42, 3, a) != delay(43, 3, a));
        assert!(distinct, "seed must influence jitter");
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let mut capped = false;
        for attempt in 0u32..32 {
            let d = delay(7, 0, attempt);
            let exp = BASE_MS.saturating_mul(1 << attempt.min(20)).min(CAP_MS);
            capped |= exp == CAP_MS;
            let lo = exp - exp / 2;
            assert!(
                d >= Duration::from_millis(lo) && d <= Duration::from_millis(exp),
                "attempt {attempt}: {d:?} outside [{lo}, {exp}] ms"
            );
        }
        assert!(capped, "the attempts must reach the cap");
        // Past the cap, the band stops growing.
        assert!(delay(7, 0, 30) <= Duration::from_millis(CAP_MS));
        assert!(delay(7, 0, 0) <= Duration::from_millis(BASE_MS));
    }
}
