//! The per-shard message envelope.

/// A mempool message tagged with the dissemination shard it belongs to.
///
/// Shard-`j` instances across replicas form one logical broadcast group;
/// the envelope is what routes an incoming message to the right inner
/// instance.  The shard index rides in otherwise-unused header padding of
/// the underlying transport frame, so the envelope adds no wire bytes of
/// its own — with one shard, a sharded deployment is byte-identical to an
/// unsharded one.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedMsg<M> {
    /// Index of the dissemination shard this message belongs to.
    pub shard: u16,
    /// The wrapped backend-mempool message.
    pub inner: M,
}

impl<M> ShardedMsg<M> {
    /// Wraps `inner` for `shard`.
    pub fn new(shard: u16, inner: M) -> Self {
        ShardedMsg { shard, inner }
    }
}
