//! Token-bucket rate limiter for bulk data messages.
//!
//! Section VI: "we use a token-based limiter to limit the sending rate of
//! data messages: every data message needs a token to be sent out, and
//! tokens are refilled at a configurable rate.  This ensures that the
//! network resources will not be overtaken by data messages."  Together
//! with the high-priority network lane for consensus messages this keeps
//! the consensus path responsive even when microblock dissemination
//! saturates the link.

use smp_types::SimTime;

/// Share of a replica's bandwidth that bulk data messages may consume.
pub const DATA_BANDWIDTH_SHARE: f64 = 0.9;

/// A byte-granularity token bucket.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Refill rate in bytes per microsecond.
    rate: f64,
    /// Maximum token balance (burst size) in bytes.
    capacity: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket refilling at `bytes_per_sec`, holding at most
    /// `burst_bytes`, starting full.
    pub fn new(bytes_per_sec: f64, burst_bytes: f64) -> Self {
        TokenBucket {
            rate: bytes_per_sec / 1_000_000.0,
            capacity: burst_bytes.max(1.0),
            tokens: burst_bytes.max(1.0),
            last_refill: 0,
        }
    }

    /// Builds a bucket allowing `share` of `bandwidth_bps` (bits/s) to be
    /// used by data messages, with a one-second burst.
    pub fn for_bandwidth_share(bandwidth_bps: u64, share: f64) -> Self {
        let bytes_per_sec = bandwidth_bps as f64 / 8.0 * share.clamp(0.01, 1.0);
        TokenBucket::new(bytes_per_sec, bytes_per_sec)
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let elapsed = (now - self.last_refill) as f64;
            self.tokens = (self.tokens + elapsed * self.rate).min(self.capacity);
            self.last_refill = now;
        }
    }

    /// Attempts to spend `bytes` tokens at time `now`.  Returns `true` and
    /// debits the bucket if enough tokens are available.
    pub fn try_consume(&mut self, now: SimTime, bytes: usize) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Time (from `now`) until `bytes` tokens will be available.
    pub fn time_until_available(&mut self, now: SimTime, bytes: usize) -> SimTime {
        self.refill(now);
        let deficit = bytes as f64 - self.tokens;
        if deficit <= 0.0 {
            return 0;
        }
        (deficit / self.rate).ceil() as SimTime
    }

    /// Current token balance in bytes.
    pub fn balance(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_until_empty_then_refills() {
        // 1 MB/s, 100 KB burst.
        let mut b = TokenBucket::new(1_000_000.0, 100_000.0);
        assert!(b.try_consume(0, 60_000));
        assert!(!b.try_consume(0, 60_000), "bucket exhausted");
        // After 50 ms another 50 KB has refilled.
        assert!(b.try_consume(50_000, 60_000));
    }

    #[test]
    fn time_until_available_reflects_deficit() {
        let mut b = TokenBucket::new(1_000_000.0, 10_000.0);
        assert_eq!(b.time_until_available(0, 5_000), 0);
        assert!(b.try_consume(0, 10_000));
        // Needs 10 KB at 1 B/us => 10,000 us.
        assert_eq!(b.time_until_available(0, 10_000), 10_000);
    }

    #[test]
    fn balance_never_exceeds_capacity() {
        let mut b = TokenBucket::new(1_000_000.0, 1_000.0);
        assert!(b.try_consume(0, 100));
        let _ = b.time_until_available(10_000_000, 1);
        assert!(b.balance() <= 1_000.0);
    }

    #[test]
    fn bandwidth_share_constructor() {
        // 100 Mb/s at 90% => 11.25 MB/s.
        let mut b = TokenBucket::for_bandwidth_share(100_000_000, DATA_BANDWIDTH_SHARE);
        assert!(b.try_consume(0, 11_000_000));
        assert!(!b.try_consume(0, 1_000_000));
    }
}
