//! Leader-based BFT consensus engines for the Stratus reproduction.
//!
//! The paper integrates its shared mempool with three off-the-shelf
//! leader-based protocols — HotStuff, PBFT and Streamlet — and compares
//! against MirBFT as a multi-leader baseline.  This crate provides all
//! four as event-driven [`ConsensusEngine`]s that are *mempool-agnostic*:
//! they ask the surrounding replica for a payload when they lead a view
//! and hand incoming proposals back for verification/filling, exactly the
//! interface the shared-mempool abstraction needs (paper Figure 1).
//!
//! All four run on one crate-private core (`core.rs`): `Chain` (the block
//! table, the committed set and commit emission), `Pacemaker` (round-robin
//! leader, current view, the once-per-view payload and proposal gate, the
//! view timer, the timeout / `Reject` / `NewView` view change) and
//! `TwoPhase` (prepare quorum → own commit vote → commit quorum).  An
//! engine's file holds only its vote and commit rule, and this table is the
//! whole difference between the files:
//!
//! | engine | proposes when | votes go to | commit rule | view change | state kept besides the core |
//! |---|---|---|---|---|---|
//! | [`HotStuffEngine`] | `2f + 1` votes for the previous view, or `2f + 1` `NewView`s | the next leader | three-chain on a QC | `Pacemaker` | `high_qc`, the vote tally |
//! | [`PbftEngine`] | it leads the view entered on commit, or `2f + 1` `NewView`s | everyone, twice | `TwoPhase` commit quorum, one block | `Pacemaker` | `last_committed` |
//! | [`StreamletEngine`] | it enters an epoch it leads, on the previous epoch's notarization or timeout | everyone, once per epoch and only in the current one, for a block extending the longest notarized chain | three notarized blocks in consecutive epochs finalize the middle one | an epoch ends on its block's notarization, or on its own timer | the highest epoch voted in, `notarized`, the longest notarized tip |
//! | [`MirBftEngine`] | every 100 ms, every replica, if it has a payload | everyone, twice | `TwoPhase` commit quorum, one block | none | the cadence timer, `next_seq`, `instance_tips`, `awaiting_payload` |
//!
//! `tests/effects_golden.rs` pins every effect the engines emit.

pub mod api;
mod core;
pub mod hotstuff;
pub mod mirbft;
pub mod pbft;
pub mod streamlet;
pub mod testkit;

pub use self::core::VIEW_TIMEOUT;
pub use api::{CDest, CEffects, CEvent, ConsensusEngine, ConsensusMsg, ProposalVerdict, StateSize};
pub use hotstuff::HotStuffEngine;
pub use mirbft::MirBftEngine;
pub use pbft::PbftEngine;
pub use streamlet::StreamletEngine;
