//! Wire-size modelling.
//!
//! The paper's bandwidth analysis (Table III, Appendix A/B) depends on the
//! relative sizes of transactions (~128 B payload), microblocks (tens of
//! kilobytes), proposals (ids + proofs vs. full data), votes and acks
//! (~100 B).  Every message type in the reproduction implements
//! [`WireSize`] using the constants below so bandwidth accounting is
//! consistent across protocols.

/// Per-transaction framing overhead in bytes (id + client + sequence).
pub const TX_OVERHEAD_BYTES: usize = 40;

/// Header bytes of a microblock (id, creator, count, timestamp).
pub const MICROBLOCK_HEADER_BYTES: usize = 48;

/// Header bytes of a proposal/block (view, parent hash, payload root,
/// proposer, height).
pub const PROPOSAL_HEADER_BYTES: usize = 120;

/// Size of a consensus vote message (view, block hash, signature), matching
/// the ~100 B figure quoted in the paper's introduction.
pub const VOTE_BYTES: usize = 108;

/// Size of a PAB acknowledgement (microblock id + signature share).
pub const ACK_BYTES: usize = 100;

/// Size of a quorum certificate reference embedded in a proposal header:
/// the certified block's hash (32 B) and one aggregate signature (64 B),
/// whatever the number of votes behind it.
///
/// Every certificate in the model is charged by this convention.  The ones
/// that also say *who* signed — a PAB availability proof, a Narwhal or DAG
/// batch certificate, all `smp_crypto::QuorumProof` — add a signer bitmap
/// of `⌈n / 8⌉` bytes (replicas fetch missing data from the signers): 97 B
/// at n = 4, 104 B at n = 64, 109 B at n = 100, at any quorum.  Nothing is
/// charged per signature, so a proposal's size does not grow with `f`.
pub const QC_BYTES: usize = 96;

/// Size of a load-balancing query / info message.
pub const LB_QUERY_BYTES: usize = 48;

/// Size of a fetch request (microblock id + requester).
pub const FETCH_REQUEST_BYTES: usize = 44;

/// Types that know how many bytes they occupy on the (simulated) wire.
pub trait WireSize {
    /// Number of bytes this value serializes to.
    fn wire_size(&self) -> usize;
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        self.iter().map(WireSize::wire_size).sum()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        self.as_ref().map_or(0, WireSize::wire_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(usize);
    impl WireSize for Fixed {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn vec_wire_size_sums_elements() {
        let v = vec![Fixed(3), Fixed(4), Fixed(5)];
        assert_eq!(v.wire_size(), 12);
    }

    #[test]
    fn option_wire_size() {
        assert_eq!(Some(Fixed(7)).wire_size(), 7);
        assert_eq!(Option::<Fixed>::None.wire_size(), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants, clippy::manual_range_contains)]
    fn vote_is_roughly_100_bytes() {
        assert!(VOTE_BYTES >= 90 && VOTE_BYTES <= 128);
    }
}
