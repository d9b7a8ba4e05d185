//! Wire-size modelling of the data types.
//!
//! The paper's bandwidth analysis (Table III, Appendix A/B) depends on the
//! relative sizes of transactions (~128 B payload), microblocks (tens of
//! kilobytes), proposals (ids + proofs vs. full data), votes and acks
//! (~100 B).  The data a message carries implements [`WireSize`] with the
//! constants below, and mempool policy reads those sizes: the batcher's
//! fill, the Stratus limiter, the sharded proposal budget.  What a message
//! adds on top is decided in one place, `smp_replica::wire`.

/// Per-transaction framing overhead in bytes (id + client + sequence).
pub const TX_OVERHEAD_BYTES: usize = 40;

/// Header bytes of a microblock (id, creator, count, timestamp).
pub const MICROBLOCK_HEADER_BYTES: usize = 48;

/// Header bytes of a proposal/block (view, parent hash, payload root,
/// proposer, height).
pub const PROPOSAL_HEADER_BYTES: usize = 120;

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
}
