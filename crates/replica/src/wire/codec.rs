//! The real byte encoding of [`ReplicaMsg`] — what actually goes on a
//! socket.
//!
//! The surrounding [`wire`](crate::wire) module is a *cost model*: it
//! tells the simulator how many bytes a message would occupy and how much
//! CPU it would burn.  This module is the genuine article for the
//! `smp-net` runtime: a deterministic, versioned, length-prefixed binary
//! framing with strict rejection of malformed input.
//!
//! # Frame layout
//!
//! ```text
//! [0..4)   magic  "SMPW"
//! [4]      version (currently 2)
//! [5]      flags   (bit 0 = high-priority lane; other bits must be 0)
//! [6..10)  body length, u32 big-endian (bounded by MAX_FRAME_BYTES)
//! [10..]   body: family tag (0 = consensus, 1 = mempool, 2 = sync) + payload
//! ```
//!
//! All multi-byte integers are big-endian.  Collections are a `u32` count
//! followed by the elements; options are a one-byte presence tag.  The
//! decoder never trusts a length it has not bounds-checked against the
//! remaining input, never allocates capacity from attacker-controlled
//! counts, and never panics on garbage: every malformed input path returns
//! a [`DecodeError`].
//!
//! Content-derived identifiers (transaction, microblock, and proposal
//! ids) are **not** carried on the wire; the decoder re-derives them from
//! the encoded contents, so a peer cannot claim an id its bytes do not
//! hash to.
//!
//! # One impl per wire type
//!
//! Every type that appears on the wire has exactly one [`WireCodec`]
//! impl, composed from the impls of its fields: the integers, `bool` and
//! `Digest`; `Vec<T>` (the only place a count is checked) and `Option<T>`
//! (the only place a presence tag is read); then records and message enums
//! declared through `wire!` as one field list that yields the encoder,
//! the decoder and the `MIN_BYTES` floor together.  Adding a message
//! variant is one line in its enum's `wire!` block plus one line in
//! `tests/codec_golden.rs`, which pins every frame's bytes.

use crate::wire::{MempoolWire, ReplicaMsg, ReplicaPayload, SyncMsg};
use bytes::Bytes;
use smp_consensus::ConsensusMsg;
use smp_crypto::{Digest, QuorumProof, Signature};
use smp_mempool::{DagAck, DagBlock, DagMsg, DagParentRef, NarwhalMsg, NativeMsg, SmpMsg};
use smp_shard::ShardedMsg;
use smp_types::{
    BlockId, ClientId, Microblock, MicroblockId, MicroblockRef, Payload, Proposal, ReplicaId,
    Transaction, TxId, View,
};
use std::sync::Arc;
use stratus::StratusMsg;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"SMPW";

/// Current codec version, stamped into every frame header.
pub const CODEC_VERSION: u8 = 2;

/// Fixed frame-header size: magic + version + flags + body length.
pub const FRAME_HEADER_BYTES: usize = 10;

/// Upper bound on the body length a decoder will accept.  Generous for
/// the largest legitimate messages (multi-microblock fetch responses) but
/// small enough that a hostile length prefix cannot drive allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Priority bit in the header flags byte.
const FLAG_PRIORITY: u8 = 0x01;

/// Why a frame (or body) was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the expected content.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        have: usize,
    },
    /// The frame did not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`CODEC_VERSION`].
    BadVersion(u8),
    /// The flags byte set bits this version does not define.
    BadFlags(u8),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    OversizedFrame(usize),
    /// An enum tag byte had no matching variant.
    BadTag {
        /// Which type was being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// The body decoded cleanly but left unconsumed bytes.
    TrailingBytes(usize),
    /// A sharded payload group tried to nest another sharded group.
    NestedShardGroup,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported codec version {v} (expected {CODEC_VERSION})"
                )
            }
            DecodeError::BadFlags(x) => write!(f, "undefined flag bits {x:#04x}"),
            DecodeError::OversizedFrame(n) => {
                write!(f, "length prefix {n} exceeds {MAX_FRAME_BYTES}")
            }
            DecodeError::BadTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            DecodeError::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after body"),
            DecodeError::NestedShardGroup => write!(f, "sharded payload groups must not nest"),
        }
    }
}

impl DecodeError {
    /// Stable taxonomy label for telemetry, matching
    /// `smp_net::DECODE_TAXONOMY` so decode failures can be counted by
    /// kind across processes.
    pub fn taxonomy(&self) -> &'static str {
        match self {
            DecodeError::Truncated { .. } => "truncated",
            DecodeError::BadMagic(_) => "bad_magic",
            DecodeError::BadVersion(_) => "bad_version",
            DecodeError::BadFlags(_) => "bad_flags",
            DecodeError::OversizedFrame(_) => "oversized_frame",
            DecodeError::BadTag { .. } => "bad_tag",
            DecodeError::BadBool(_) => "bad_bool",
            DecodeError::TrailingBytes(_) => "trailing_bytes",
            DecodeError::NestedShardGroup => "nested_shard_group",
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked cursor over an input slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The `Type.field` being decoded: what a bad `Option` tag is blamed on.
    context: &'static str,
    /// Set while the groups of a sharded payload decode.
    in_shard_group: bool,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            context: "Option",
            in_shard_group: false,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    /// Decodes the field called `name` (`Type.field`).
    fn field<T: WireCodec>(&mut self, name: &'static str) -> Result<T, DecodeError> {
        self.context = name;
        T::decode_from(self)
    }

    /// A `u32` element count, pre-checked against the remaining input so a
    /// hostile count cannot drive allocation: every `T` costs at least
    /// `T::MIN_BYTES` input bytes.
    fn count<T: WireCodec>(&mut self) -> Result<usize, DecodeError> {
        let n = u32::decode_from(self)? as usize;
        let floor = n.saturating_mul(T::MIN_BYTES.max(1));
        if floor > self.remaining() {
            return Err(DecodeError::Truncated {
                needed: floor,
                have: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// Types with a deterministic binary body encoding.
///
/// One impl per wire type, and nothing else: an impl's `encode_into` and
/// `decode_from` are the type's whole layout, and its `MIN_BYTES` is
/// summed from the same fields.  [`ReplicaMsg`] composes the consensus,
/// mempool and sync families under the versioned frame header.
pub trait WireCodec: Sized {
    /// The fewest bytes any encoding of the type occupies — what
    /// `Vec<T>` holds a claimed element count against.
    const MIN_BYTES: usize;

    /// Appends the binary encoding of `self` to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Decodes one value, consuming exactly its bytes from `r`.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

// ---------------------------------------------------------------------
// Primitives and containers.
// ---------------------------------------------------------------------

impl WireCodec for u8 {
    const MIN_BYTES: usize = 1;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(1)?[0])
    }
}

impl WireCodec for u16 {
    const MIN_BYTES: usize = 2;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u16::from_be_bytes(r.array()?))
    }
}

impl WireCodec for u32 {
    const MIN_BYTES: usize = 4;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u32::from_be_bytes(r.array()?))
    }
}

impl WireCodec for u64 {
    const MIN_BYTES: usize = 8;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_be_bytes());
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::from_be_bytes(r.array()?))
    }
}

/// A byte length (the modelled `Transaction::payload_len`): a `u64` on
/// the wire, and never longer than a frame — sizes are summed and
/// multiplied downstream, so a hostile `u64::MAX` must not get in.
impl WireCodec for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode_into(buf);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = usize::try_from(u64::decode_from(r)?).unwrap_or(usize::MAX);
        if n > MAX_FRAME_BYTES {
            return Err(DecodeError::OversizedFrame(n));
        }
        Ok(n)
    }
}

impl WireCodec for bool {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode_from(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }
}

impl WireCodec for Digest {
    const MIN_BYTES: usize = 4 * u64::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        for w in self.0 {
            w.encode_into(buf);
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = u64::decode_from(r)?;
        }
        Ok(Digest(words))
    }
}

/// The one collection encoding: a `u32` count, then the elements.
fn encode_slice<T: WireCodec>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).encode_into(buf);
    for item in items {
        item.encode_into(buf);
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_slice(self, buf);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count::<T>()?;
        // Grown as elements arrive: an element in memory can be several
        // times its wire floor, so not even a checked count sets capacity.
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(T::decode_from(r)?);
        }
        Ok(items)
    }
}

/// A transaction payload: a `Vec<u8>` on the wire, copied in one piece.
impl WireCodec for Bytes {
    const MIN_BYTES: usize = Vec::<u8>::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode_into(buf);
        buf.extend_from_slice(self);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count::<u8>()?;
        Ok(match r.take(n)? {
            [] => Bytes::new(),
            bytes => Bytes::copy_from_slice(bytes),
        })
    }
}

/// The one option encoding: a presence byte, then the value if present.
impl<T: WireCodec> WireCodec for Option<T> {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode_into(buf);
            }
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode_from(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(DecodeError::BadTag {
                context: r.context,
                tag,
            }),
        }
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.0.encode_into(buf);
        self.1.encode_into(buf);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

// ---------------------------------------------------------------------
// Records and tagged unions: each layout written once.
// ---------------------------------------------------------------------

/// Implements [`WireCodec`] from one field list in wire order.
///
/// * `struct T { field: Type, .. }` — a record (`{ 0: Type }` for a
///   newtype); `MIN_BYTES` is the sum of its fields' floors.
/// * `struct T { .. } => expr` — the same, with the decoded fields handed
///   to `expr`, which rebuilds the value through its constructor so that
///   content-derived ids are recomputed, never read.
/// * `enum T { tag => Variant(x: Type), tag => Variant { field: Type, .. } }`
///   — a one-byte tag, then the variant's fields.
///
/// A field's declared type is what decodes; encoding goes through the
/// value's own field, so an `Arc<Vec<T>>` field is declared `Vec<T>`.
/// Record impls are `#[inline]` so that the loop of a `Vec<Transaction>`
/// holds its element's code instead of calling it (about 10 % on bulk
/// frames).
macro_rules! wire {
    (struct $ty:ident { $($f:ident : $t:ty),+ $(,)? } => $build:expr) => {
        impl WireCodec for $ty {
            const MIN_BYTES: usize = 0 $(+ <$t>::MIN_BYTES)+;
            #[inline]
            fn encode_into(&self, buf: &mut Vec<u8>) {
                $(self.$f.encode_into(buf);)+
            }
            #[inline]
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                $(let $f: $t = r.field(concat!(stringify!($ty), ".", stringify!($f)))?;)+
                Ok($build)
            }
        }
    };
    (struct $ty:ident { $($f:tt : $t:ty),+ $(,)? }) => {
        impl WireCodec for $ty {
            const MIN_BYTES: usize = 0 $(+ <$t>::MIN_BYTES)+;
            #[inline]
            fn encode_into(&self, buf: &mut Vec<u8>) {
                $(self.$f.encode_into(buf);)+
            }
            #[inline]
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($ty {
                    $($f: r.field::<$t>(concat!(stringify!($ty), ".", stringify!($f)))?,)+
                })
            }
        }
    };
    (enum $ty:ident { $(
        $tag:literal => $v:ident $(($x:ident : $xt:ty))? $({ $($f:ident : $t:ty),+ })?
    ),+ $(,)? }) => {
        impl WireCodec for $ty {
            const MIN_BYTES: usize = u8::MIN_BYTES;
            fn encode_into(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$v $(($x))? $({ $($f),+ })? => {
                        buf.push($tag);
                        $($x.encode_into(buf);)?
                        $($($f.encode_into(buf);)+)?
                    })+
                }
            }
            fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                match u8::decode_from(r)? {
                    $($tag => Ok(Self::$v $((<$xt>::decode_from(r)?))? $({
                        $($f: r.field::<$t>(
                            concat!(stringify!($ty), "::", stringify!($v), ".", stringify!($f)),
                        )?,)+
                    })?),)+
                    tag => Err(DecodeError::BadTag {
                        context: stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

wire! { struct ReplicaId { 0: u32 } }
wire! { struct ClientId { 0: u32 } }
wire! { struct View { 0: u64 } }
wire! { struct BlockId { 0: Digest } }
wire! { struct MicroblockId { 0: Digest } }
wire! { struct TxId { 0: Digest } }
wire! { struct Signature { signer: u32, tag: u64 } }

/// `{ digest: Digest, aggregate: u64, bitmap: Vec<u8> }`, written out
/// because the aggregate and the signer bitmap are private to
/// `smp-crypto`: read through their accessors, and rebuilt through
/// `from_parts`, which keeps one bitmap per signer set whatever padding a
/// peer sent.  The bitmap is copied in one piece, like a payload; what its
/// bits claim is `QuorumProof::verify`'s to judge.
impl WireCodec for QuorumProof {
    const MIN_BYTES: usize = Digest::MIN_BYTES + u64::MIN_BYTES + Vec::<u8>::MIN_BYTES;
    #[inline]
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.digest.encode_into(buf);
        self.aggregate().encode_into(buf);
        (self.bitmap().len() as u32).encode_into(buf);
        buf.extend_from_slice(self.bitmap());
    }
    #[inline]
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let digest = r.field("QuorumProof.digest")?;
        let aggregate = r.field("QuorumProof.aggregate")?;
        let n = r.count::<u8>()?;
        QuorumProof::from_parts(digest, aggregate, r.take(n)?).ok_or(DecodeError::OversizedFrame(n))
    }
}

wire! {
    struct Transaction {
        client: ClientId,
        seq: u64,
        payload: Bytes,
        payload_len: usize,
        created_at: u64,
        received_at: Option<u64>,
        entry_replica: Option<ReplicaId>,
    } => Transaction {
        // Re-derived, never read off the wire.
        id: TxId::derive(client, seq),
        client,
        seq,
        payload,
        payload_len,
        created_at,
        received_at,
        entry_replica,
    }
}

wire! {
    struct Microblock {
        creator: ReplicaId,
        created_at: u64,
        disseminator: ReplicaId,
        txs: Vec<Transaction>,
    } => {
        // `seal` re-derives the content id and resets the disseminator;
        // stamp the encoded disseminator back afterwards (a DLB proxy may
        // differ from the creator).
        let mut mb = Microblock::seal(creator, txs, created_at);
        mb.disseminator = disseminator;
        mb
    }
}

wire! {
    struct MicroblockRef {
        id: MicroblockId,
        creator: ReplicaId,
        tx_count: u32,
        proof: Option<QuorumProof>,
    }
}

impl WireCodec for Payload {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Inline(txs) => {
                buf.push(0);
                txs.encode_into(buf);
            }
            Payload::Refs(refs) => {
                buf.push(1);
                refs.encode_into(buf);
            }
            Payload::Sharded(groups) => {
                buf.push(2);
                groups.encode_into(buf);
            }
            Payload::Empty => buf.push(3),
        }
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode_from(r)? {
            0 => Ok(Payload::Inline(Arc::new(Vec::decode_from(r)?))),
            1 => Ok(Payload::Refs(Vec::decode_from(r)?)),
            2 => {
                // Per-shard groups carry plain payloads; nesting is a protocol
                // violation (and would otherwise allow stack-exhausting input).
                if std::mem::replace(&mut r.in_shard_group, true) {
                    return Err(DecodeError::NestedShardGroup);
                }
                let groups = Vec::<(u16, Payload)>::decode_from(r)?;
                r.in_shard_group = false;
                Ok(Payload::Sharded(groups))
            }
            3 => Ok(Payload::Empty),
            tag => Err(DecodeError::BadTag {
                context: "Payload",
                tag,
            }),
        }
    }
}

wire! {
    struct Proposal {
        view: View,
        height: u64,
        parent: BlockId,
        proposer: ReplicaId,
        carries_qc: bool,
        payload: Payload,
    }
    // `Proposal::new` re-derives the block id from the decoded header and
    // payload root, so an id cannot be spoofed independently of content.
    => Proposal::new(view, height, parent, proposer, payload, carries_qc)
}

wire! { struct DagParentRef { creator: ReplicaId, round: u64 } }
wire! { struct DagAck { id: MicroblockId, sig: Signature } }

wire! {
    struct DagBlock {
        creator: ReplicaId,
        round: u64,
        seq: u64,
        // Its id is re-derived by `Microblock`'s re-seal, never trusted
        // from the wire.
        batch: Option<Microblock>,
        parents: Vec<DagParentRef>,
        acks: Vec<DagAck>,
        sig: Signature,
    }
}

// ---------------------------------------------------------------------
// The message families.
// ---------------------------------------------------------------------

wire! {
    enum ConsensusMsg {
        0 => Propose(p: Proposal),
        1 => Vote { view: View, block: BlockId, voter: ReplicaId },
        2 => Prepare { view: View, block: BlockId, voter: ReplicaId, instance: ReplicaId },
        3 => Commit { view: View, block: BlockId, voter: ReplicaId, instance: ReplicaId },
        4 => NewView { view: View, voter: ReplicaId, high_qc_view: View },
    }
}

impl WireCodec for NativeMsg {
    const MIN_BYTES: usize = u8::MIN_BYTES;
    fn encode_into(&self, _buf: &mut Vec<u8>) {
        match *self {}
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // The native mempool has no peer messages; any tag is invalid.
        Err(DecodeError::BadTag {
            context: "NativeMsg",
            tag: u8::decode_from(r)?,
        })
    }
}

wire! {
    enum SmpMsg {
        0 => Microblock(mb: Microblock),
        1 => Gossip { hops: u8, mb: Microblock },
        2 => Fetch { ids: Vec<MicroblockId> },
        3 => FetchResp { mbs: Vec<Microblock> },
    }
}

wire! {
    enum NarwhalMsg {
        0 => Batch(mb: Microblock),
        1 => Echo { id: MicroblockId, sig: Signature },
        2 => Ready { id: MicroblockId, sig: Signature },
        3 => Certificate { id: MicroblockId, creator: ReplicaId, tx_count: u32, proof: QuorumProof },
        4 => Fetch { ids: Vec<MicroblockId> },
        5 => FetchResp { mbs: Vec<Microblock> },
    }
}

wire! {
    enum DagMsg {
        0 => Block(b: DagBlock),
        1 => Fetch { ids: Vec<MicroblockId> },
        2 => FetchResp { mbs: Vec<Microblock> },
    }
}

wire! {
    enum StratusMsg {
        0 => PabMsg(mb: Microblock),
        1 => PabAck { id: MicroblockId, sig: Signature },
        2 => PabProof { id: MicroblockId, proof: QuorumProof },
        3 => PabRequest { ids: Vec<MicroblockId> },
        4 => PabResponse { mbs: Vec<Microblock> },
        5 => LbQuery { token: u64 },
        6 => LbInfo { token: u64, stable_time_us: Option<u64> },
        7 => LbForward(mb: Microblock),
    }
}

impl<M: WireCodec> WireCodec for ShardedMsg<M> {
    const MIN_BYTES: usize = u16::MIN_BYTES + M::MIN_BYTES;
    fn encode_into(&self, buf: &mut Vec<u8>) {
        self.shard.encode_into(buf);
        self.inner.encode_into(buf);
    }
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ShardedMsg {
            shard: u16::decode_from(r)?,
            inner: M::decode_from(r)?,
        })
    }
}

wire! {
    enum SyncMsg {
        0 => Request { from_index: u64 },
        1 => Response { from_index: u64, entries: Vec<TxId> },
    }
}

// ---------------------------------------------------------------------
// Frame encode / decode.
// ---------------------------------------------------------------------

/// Encodes `msg` as one complete frame (header + body).
pub fn encode_frame<MM>(msg: &ReplicaMsg<MM>) -> Vec<u8>
where
    MM: MempoolWire + WireCodec,
{
    let mut body = Vec::with_capacity(64);
    match &msg.payload {
        ReplicaPayload::Consensus(c) => {
            body.push(0);
            c.encode_into(&mut body);
        }
        ReplicaPayload::Mempool(m) => {
            body.push(1);
            m.encode_into(&mut body);
        }
        ReplicaPayload::Sync(s) => {
            body.push(2);
            s.encode_into(&mut body);
        }
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(CODEC_VERSION);
    frame.push(if msg.priority { FLAG_PRIORITY } else { 0 });
    (body.len() as u32).encode_into(&mut frame);
    frame.extend_from_slice(&body);
    frame
}

/// A validated frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Whether the sender marked the frame high-priority.
    pub priority: bool,
    /// Length of the body that follows the header.
    pub body_len: usize,
}

/// Validates the fixed-size header (first [`FRAME_HEADER_BYTES`] bytes).
pub fn decode_header(header: &[u8]) -> Result<FrameHeader, DecodeError> {
    if header.len() < FRAME_HEADER_BYTES {
        return Err(DecodeError::Truncated {
            needed: FRAME_HEADER_BYTES,
            have: header.len(),
        });
    }
    if header[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[..4]);
        return Err(DecodeError::BadMagic(m));
    }
    if header[4] != CODEC_VERSION {
        return Err(DecodeError::BadVersion(header[4]));
    }
    let flags = header[5];
    if flags & !FLAG_PRIORITY != 0 {
        return Err(DecodeError::BadFlags(flags));
    }
    let body_len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(DecodeError::OversizedFrame(body_len));
    }
    Ok(FrameHeader {
        priority: flags & FLAG_PRIORITY != 0,
        body_len,
    })
}

/// Decodes a body produced by [`encode_frame`] (the bytes after the
/// header), requiring every byte to be consumed.
pub fn decode_body<MM>(body: &[u8], priority: bool) -> Result<ReplicaMsg<MM>, DecodeError>
where
    MM: MempoolWire + WireCodec,
{
    let mut r = Reader::new(body);
    let payload = match u8::decode_from(&mut r)? {
        0 => ReplicaPayload::Consensus(ConsensusMsg::decode_from(&mut r)?),
        1 => ReplicaPayload::Mempool(MM::decode_from(&mut r)?),
        2 => ReplicaPayload::Sync(SyncMsg::decode_from(&mut r)?),
        tag => {
            return Err(DecodeError::BadTag {
                context: "ReplicaPayload",
                tag,
            })
        }
    };
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(ReplicaMsg { payload, priority })
}

/// Decodes one complete frame, returning the message and the total bytes
/// consumed (header + body).  The input may extend past the frame.
pub fn decode_frame<MM>(input: &[u8]) -> Result<(ReplicaMsg<MM>, usize), DecodeError>
where
    MM: MempoolWire + WireCodec,
{
    let header = decode_header(input)?;
    let total = FRAME_HEADER_BYTES + header.body_len;
    if input.len() < total {
        return Err(DecodeError::Truncated {
            needed: total,
            have: input.len(),
        });
    }
    let msg = decode_body(&input[FRAME_HEADER_BYTES..total], header.priority)?;
    Ok((msg, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decode failure whose label `smp_net::DECODE_TAXONOMY` does not
    /// list is counted as `"other"`.  The match has no wildcard, so a new
    /// variant must take the next position here and a value in `all`.
    #[test]
    fn every_decode_error_label_is_countable() {
        let position = |e: &DecodeError| match e {
            DecodeError::Truncated { .. } => 0,
            DecodeError::BadMagic(_) => 1,
            DecodeError::BadVersion(_) => 2,
            DecodeError::BadFlags(_) => 3,
            DecodeError::OversizedFrame(_) => 4,
            DecodeError::BadTag { .. } => 5,
            DecodeError::BadBool(_) => 6,
            DecodeError::TrailingBytes(_) => 7,
            DecodeError::NestedShardGroup => 8,
        };
        let all = [
            DecodeError::Truncated { needed: 2, have: 1 },
            DecodeError::BadMagic(*b"nope"),
            DecodeError::BadVersion(0),
            DecodeError::BadFlags(0x80),
            DecodeError::OversizedFrame(usize::MAX),
            DecodeError::BadTag {
                context: "test",
                tag: 0xff,
            },
            DecodeError::BadBool(2),
            DecodeError::TrailingBytes(1),
            DecodeError::NestedShardGroup,
        ];
        for (i, e) in all.iter().enumerate() {
            assert_eq!(position(e), i, "{e:?} is out of place");
            let label = e.taxonomy();
            assert!(
                label != "other" && smp_net::DECODE_TAXONOMY.contains(&label),
                "{e:?}: label {label} is not in smp_net::DECODE_TAXONOMY"
            );
        }
    }

    fn mb(n: usize) -> Microblock {
        let txs = (0..n)
            .map(|i| Transaction::synthetic(ClientId(2), i as u64, 64, 5))
            .collect();
        Microblock::seal(ReplicaId(1), txs, 7)
    }

    fn round_trip<MM>(msg: ReplicaMsg<MM>)
    where
        MM: MempoolWire + WireCodec + PartialEq,
    {
        let frame = encode_frame(&msg);
        let (back, used) = decode_frame::<MM>(&frame).expect("decode");
        assert_eq!(used, frame.len());
        assert_eq!(back.priority, msg.priority);
        match (&back.payload, &msg.payload) {
            (ReplicaPayload::Consensus(a), ReplicaPayload::Consensus(b)) => assert_eq!(a, b),
            (ReplicaPayload::Mempool(a), ReplicaPayload::Mempool(b)) => assert!(a == b),
            _ => panic!("family changed in round trip"),
        }
    }

    #[test]
    fn consensus_and_mempool_frames_round_trip() {
        round_trip::<StratusMsg>(ReplicaMsg::consensus(
            ConsensusMsg::Vote {
                view: View(3),
                block: BlockId::GENESIS,
                voter: ReplicaId(2),
            },
            true,
        ));
        round_trip::<StratusMsg>(ReplicaMsg::mempool(StratusMsg::PabMsg(mb(3)), false));
        round_trip::<SmpMsg>(ReplicaMsg::mempool(
            SmpMsg::Gossip { mb: mb(2), hops: 2 },
            false,
        ));
        round_trip::<ShardedMsg<StratusMsg>>(ReplicaMsg::mempool(
            ShardedMsg::new(
                5,
                StratusMsg::LbInfo {
                    token: 9,
                    stable_time_us: Some(1_234),
                },
            ),
            true,
        ));
    }

    #[test]
    fn sharded_proposal_payloads_round_trip() {
        let payload = Payload::sharded(vec![
            (
                0,
                Payload::Refs(vec![MicroblockRef::unproven(mb(1).id, ReplicaId(1), 1)]),
            ),
            (
                2,
                Payload::inline(vec![Transaction::synthetic(ClientId(0), 9, 128, 0)]),
            ),
        ]);
        let p = Proposal::new(View(4), 2, BlockId::GENESIS, ReplicaId(0), payload, true);
        round_trip::<StratusMsg>(ReplicaMsg::consensus(ConsensusMsg::Propose(p), false));
    }

    #[test]
    fn header_rejects_bad_magic_version_flags_and_length() {
        let frame = encode_frame::<StratusMsg>(&ReplicaMsg::mempool(
            StratusMsg::LbQuery { token: 1 },
            false,
        ));
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame::<StratusMsg>(&bad),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad = frame.clone();
        bad[4] = 9;
        assert_eq!(
            decode_frame::<StratusMsg>(&bad).unwrap_err(),
            DecodeError::BadVersion(9)
        );
        let mut bad = frame.clone();
        bad[5] = 0x80;
        assert_eq!(
            decode_frame::<StratusMsg>(&bad).unwrap_err(),
            DecodeError::BadFlags(0x80)
        );
        let mut bad = frame;
        bad[6] = 0xff; // body length far beyond MAX_FRAME_BYTES
        assert!(matches!(
            decode_frame::<StratusMsg>(&bad),
            Err(DecodeError::OversizedFrame(_))
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let frame =
            encode_frame::<StratusMsg>(&ReplicaMsg::mempool(StratusMsg::PabMsg(mb(2)), false));
        for cut in [0, 1, FRAME_HEADER_BYTES, frame.len() - 1] {
            assert!(matches!(
                decode_frame::<StratusMsg>(&frame[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
        // A body longer than its content decodes to TrailingBytes.
        let msg: ReplicaMsg<StratusMsg> =
            ReplicaMsg::mempool(StratusMsg::LbQuery { token: 1 }, false);
        let mut frame = encode_frame(&msg);
        frame.push(0);
        let len = (frame.len() - FRAME_HEADER_BYTES) as u32;
        frame[6..10].copy_from_slice(&len.to_be_bytes());
        assert_eq!(
            decode_frame::<StratusMsg>(&frame).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );
    }

    /// Encodes `msg`, overwrites the `u32` count that sits `after` bytes
    /// before the end of the frame with `u32::MAX`, and decodes.
    fn hostile_count<MM>(msg: ReplicaMsg<MM>, after: usize) -> DecodeError
    where
        MM: MempoolWire + WireCodec,
    {
        let mut frame = encode_frame(&msg);
        let at = frame.len() - after - 4;
        assert_eq!(frame[at..at + 4], [0; 4], "not an empty collection");
        frame[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        match decode_frame::<MM>(&frame) {
            Err(e) => e,
            Ok(_) => panic!("a hostile count decoded"),
        }
    }

    fn hostile_mempool_count<MM>(msg: MM, after: usize) -> DecodeError
    where
        MM: MempoolWire + WireCodec,
    {
        hostile_count(ReplicaMsg::mempool(msg, false), after)
    }

    fn hostile_payload_count(payload: Payload) -> DecodeError {
        let p = Proposal::new(View(1), 1, BlockId::GENESIS, ReplicaId(0), payload, false);
        hostile_count::<NativeMsg>(ReplicaMsg::consensus(ConsensusMsg::Propose(p), false), 0)
    }

    #[test]
    fn hostile_collection_counts_cannot_drive_allocation() {
        // A collection claiming 2^32-1 elements in a tiny body must fail on
        // the bounds check of the one `Vec<T>` impl, not attempt the
        // allocation.  One row per element type: (site, bytes after the
        // count, per-element floor, error).
        let block = DagBlock {
            creator: ReplicaId(0),
            round: 0,
            seq: 0,
            batch: None,
            parents: vec![],
            acks: vec![],
            sig: Signature { signer: 0, tag: 0 },
        };
        let empty_proof = QuorumProof::new(Digest::ZERO);
        let (id, sig, tx_tail) = (mb(0).id, Signature::MIN_BYTES, 8 + 8 + 1 + 1);
        let sync = SyncMsg::Response {
            from_index: 0,
            entries: vec![],
        };
        #[rustfmt::skip]
        let rows = [
            ("PabRequest.ids", 0, 32, hostile_mempool_count(StratusMsg::PabRequest { ids: vec![] }, 0)),
            ("FetchResp.mbs", 0, 20, hostile_mempool_count(SmpMsg::FetchResp { mbs: vec![] }, 0)),
            ("Microblock.txs", 0, 34, hostile_mempool_count(NarwhalMsg::Batch(mb(0)), 0)),
            ("Transaction.payload", tx_tail, 1, hostile_mempool_count(SmpMsg::Microblock(mb(1)), tx_tail)),
            ("QuorumProof.bitmap", 0, 1, hostile_mempool_count(StratusMsg::PabProof { id, proof: empty_proof }, 0)),
            ("Payload::Inline", 0, 34, hostile_payload_count(Payload::inline(vec![]))),
            ("Payload::Refs", 0, 41, hostile_payload_count(Payload::Refs(vec![]))),
            ("Payload::Sharded", 0, 3, hostile_payload_count(Payload::Sharded(vec![]))),
            ("DagBlock.parents", 4 + sig, 12, hostile_mempool_count(DagMsg::Block(block.clone()), 4 + sig)),
            ("DagBlock.acks", sig, 44, hostile_mempool_count(DagMsg::Block(block), sig)),
            ("SyncMsg::Response.entries", 0, 32, hostile_count(ReplicaMsg::<StratusMsg>::sync(sync), 0)),
        ];
        for (site, have, floor, err) in rows {
            let needed = u32::MAX as usize * floor;
            assert_eq!(err, DecodeError::Truncated { needed, have }, "{site}");
        }
    }

    #[test]
    fn proof_bitmaps_decode_as_sent_and_padding_does_not_make_a_second_form() {
        let sign = |signer, tag| Signature { signer, tag };
        let proof = QuorumProof::from_signatures(Digest::of_u64(1), [sign(0, 5), sign(9, 7)]);
        let mut bytes = Vec::new();
        proof.encode_into(&mut bytes);
        assert_eq!(bytes.len(), 32 + 8 + 4 + 2);
        let decode = |bytes: &[u8]| QuorumProof::decode_from(&mut Reader::new(bytes));
        assert_eq!(decode(&bytes), Ok(proof.clone()));
        // Two bytes of zero padding: the same proof, not a rival of it.
        let count = bytes.len() - 2 - 4;
        bytes[count..count + 4].copy_from_slice(&4u32.to_be_bytes());
        bytes.extend([0, 0]);
        assert_eq!(decode(&bytes), Ok(proof.clone()));
        // Garbage bits are kept for `verify` to refuse, not dropped here.
        *bytes.last_mut().unwrap() = 0x80;
        let garbage = decode(&bytes).unwrap();
        assert_eq!(garbage.signers(), [0, 9, 31]);
        assert_eq!(garbage.aggregate(), proof.aggregate());
    }

    #[test]
    fn modelled_payload_lengths_beyond_a_frame_are_rejected() {
        // `payload_len` is summed into wire sizes and multiplied by n - 1 for
        // the rate limiter; a peer must not be able to plant u64::MAX there.
        let mut big = mb(1);
        let mut tx = big.txs[0].clone();
        tx.payload_len = MAX_FRAME_BYTES;
        big = Microblock::seal(big.creator, vec![tx], big.created_at);
        let mut frame = encode_frame(&ReplicaMsg::mempool(StratusMsg::LbForward(big), false));
        assert!(decode_frame::<StratusMsg>(&frame).is_ok());
        // payload_len sits before created_at (8) and the two option tags.
        let at = frame.len() - (8 + 1 + 1) - 8;
        for hostile in [MAX_FRAME_BYTES as u64 + 1, u64::MAX] {
            frame[at..at + 8].copy_from_slice(&hostile.to_be_bytes());
            assert_eq!(
                decode_frame::<StratusMsg>(&frame).unwrap_err(),
                DecodeError::OversizedFrame(hostile as usize)
            );
        }
    }

    #[test]
    fn ids_are_rederived_not_trusted() {
        let msg: ReplicaMsg<SmpMsg> = ReplicaMsg::mempool(SmpMsg::Microblock(mb(2)), false);
        let frame = encode_frame(&msg);
        let (back, _) = decode_frame::<SmpMsg>(&frame).unwrap();
        let ReplicaPayload::Mempool(SmpMsg::Microblock(decoded)) = back.payload else {
            panic!("wrong variant");
        };
        assert_eq!(decoded.id, mb(2).id);
        assert_eq!(
            decoded.id,
            MicroblockId::derive(
                decoded.creator,
                &decoded.txs.iter().map(|t| t.id).collect::<Vec<_>>()
            )
        );
    }
}
