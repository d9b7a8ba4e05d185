//! The protocol matrix of Table II.

use serde::{Deserialize, Serialize};

/// Every protocol configuration evaluated in the paper (Table II), plus a
/// Stratus-Streamlet integration mentioned in Section VI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Native HotStuff without a shared mempool (N-HS).
    NativeHotStuff,
    /// Native PBFT without a shared mempool (N-PBFT).
    NativePbft,
    /// HotStuff with a simple best-effort shared mempool (SMP-HS).
    SmpHotStuff,
    /// SMP-HS with gossip dissemination instead of broadcast (SMP-HS-G).
    SmpHotStuffGossip,
    /// HotStuff integrated with Stratus (S-HS) — this paper.
    StratusHotStuff,
    /// PBFT integrated with Stratus (S-PBFT) — this paper.
    StratusPbft,
    /// Streamlet integrated with Stratus (S-SL).
    StratusStreamlet,
    /// HotStuff over a reliable-broadcast shared mempool (Narwhal): the
    /// paper's RB comparator, a Bracha echo and ready per batch, so O(n²)
    /// signed messages.
    Narwhal,
    /// PBFT-based multi-leader protocol (MirBFT).
    MirBft,
    /// HotStuff over the Mysticeti-style DAG mempool, certified mode
    /// (D-HS): batches become proposable once their DAG support pattern
    /// yields a 2f+1 ack certificate.
    DagHotStuff,
    /// D-HS in the uncertified fast-path mode (D-HS-F): batches are
    /// proposable on first delivery, references carry no certificates.
    DagHotStuffFast,
}

impl Protocol {
    /// The acronym used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::NativeHotStuff => "N-HS",
            Protocol::NativePbft => "N-PBFT",
            Protocol::SmpHotStuff => "SMP-HS",
            Protocol::SmpHotStuffGossip => "SMP-HS-G",
            Protocol::StratusHotStuff => "S-HS",
            Protocol::StratusPbft => "S-PBFT",
            Protocol::StratusStreamlet => "S-SL",
            Protocol::Narwhal => "Narwhal",
            Protocol::MirBft => "MirBFT",
            Protocol::DagHotStuff => "D-HS",
            Protocol::DagHotStuffFast => "D-HS-F",
        }
    }

    /// Short description (Table II's right-hand column).
    pub fn description(&self) -> &'static str {
        match self {
            Protocol::NativeHotStuff => "Native HotStuff without a shared mempool",
            Protocol::NativePbft => "Native PBFT without a shared mempool",
            Protocol::SmpHotStuff => "HotStuff integrated with a simple shared mempool",
            Protocol::SmpHotStuffGossip => "SMP-HS with gossip instead of broadcast",
            Protocol::StratusHotStuff => "HotStuff integrated with Stratus (this paper)",
            Protocol::StratusPbft => "PBFT integrated with Stratus (this paper)",
            Protocol::StratusStreamlet => "Streamlet integrated with Stratus (this paper)",
            Protocol::Narwhal => {
                "HotStuff over a reliable-broadcast (RB) mempool, the paper's RB comparator: \
                 a Bracha echo and ready per batch, O(n^2) signed messages"
            }
            Protocol::MirBft => "PBFT based multi-leader protocol",
            Protocol::DagHotStuff => "HotStuff over a Mysticeti-style DAG mempool (certified)",
            Protocol::DagHotStuffFast => "HotStuff over a Mysticeti-style DAG mempool (fast path)",
        }
    }

    /// Whether the protocol uses the Stratus mempool (and therefore the
    /// prioritization / rate-limiting optimizations of Section VI).
    pub fn is_stratus(&self) -> bool {
        matches!(
            self,
            Protocol::StratusHotStuff | Protocol::StratusPbft | Protocol::StratusStreamlet
        )
    }

    /// All protocols evaluated in the scalability experiment (Figure 7).
    pub fn figure7_set() -> Vec<Protocol> {
        vec![
            Protocol::NativeHotStuff,
            Protocol::NativePbft,
            Protocol::SmpHotStuff,
            Protocol::StratusHotStuff,
            Protocol::StratusPbft,
            Protocol::Narwhal,
            Protocol::MirBft,
        ]
    }

    /// Every protocol in Table II.
    pub fn all() -> Vec<Protocol> {
        vec![
            Protocol::NativeHotStuff,
            Protocol::NativePbft,
            Protocol::SmpHotStuff,
            Protocol::SmpHotStuffGossip,
            Protocol::StratusHotStuff,
            Protocol::StratusPbft,
            Protocol::StratusStreamlet,
            Protocol::Narwhal,
            Protocol::MirBft,
            Protocol::DagHotStuff,
            Protocol::DagHotStuffFast,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Protocol::StratusHotStuff.label(), "S-HS");
        assert_eq!(Protocol::SmpHotStuffGossip.label(), "SMP-HS-G");
        assert_eq!(Protocol::NativeHotStuff.label(), "N-HS");
    }

    #[test]
    fn stratus_flags() {
        assert!(Protocol::StratusPbft.is_stratus());
        assert!(!Protocol::SmpHotStuff.is_stratus());
    }

    #[test]
    fn figure7_set_has_seven_protocols() {
        assert_eq!(Protocol::figure7_set().len(), 7);
        assert_eq!(Protocol::all().len(), 11);
    }

    #[test]
    fn dag_protocols_are_shared_mempool_backends() {
        assert_eq!(Protocol::DagHotStuff.label(), "D-HS");
        assert_eq!(Protocol::DagHotStuffFast.label(), "D-HS-F");
        assert!(!Protocol::DagHotStuff.is_stratus());
    }
}
