//! Stratus configuration knobs.

use serde::{Deserialize, Serialize};

/// Configuration of the distributed load balancer (Section V).  Its
/// timeouts `τ` and `τ'` and the banList reset period are constants of
/// [`crate::dlb`]; the estimator's window and busy margin `β` are
/// constants of [`crate::estimator`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DlbConfig {
    /// Whether load balancing is enabled at all.
    pub enabled: bool,
    /// Power-of-d-choices sample size (the paper evaluates d ∈ {1, 2, 3};
    /// d = 1 is the default, d = 3 performs best under skew).
    pub d: usize,
}

impl Default for DlbConfig {
    fn default() -> Self {
        DlbConfig {
            enabled: true,
            d: 1,
        }
    }
}

impl DlbConfig {
    /// A disabled load balancer (used by the `S-HS-Even` configuration and
    /// in ablations).
    pub fn disabled() -> Self {
        DlbConfig {
            enabled: false,
            ..DlbConfig::default()
        }
    }

    /// Sets the power-of-d-choices sample size.
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d.max(1);
        self
    }
}

/// Configuration of the Stratus mempool.  A fetch asks the proof's signers
/// one signer at a time, the next `δ` later
/// ([`crate::pab::PabEngine::fetch_candidates`]), the retry period `δ` is
/// [`smp_mempool::FETCH_TIMEOUT`], and the data limiter always runs at
/// [`crate::limiter::DATA_BANDWIDTH_SHARE`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StratusConfig {
    /// PAB availability quorum `q ∈ [f+1, 2f+1]` (Section IV-A); `None`
    /// is the minimum, `f + 1`.  [`StratusConfig::pab_quorum`] clamps it.
    pub pab_quorum_override: Option<usize>,
    /// Load-balancing configuration.
    pub dlb: DlbConfig,
}

impl StratusConfig {
    /// Sets the DLB configuration.
    pub fn with_dlb(mut self, dlb: DlbConfig) -> Self {
        self.dlb = dlb;
        self
    }

    /// The PAB quorum for a system tolerating `f` faults: the override, or
    /// `f + 1`, clamped to `[f + 1, 2f + 1]`.
    pub fn pab_quorum(&self, f: usize) -> usize {
        self.pab_quorum_override
            .unwrap_or(f + 1)
            .clamp(f + 1, 2 * f + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = StratusConfig::default();
        assert!(c.dlb.enabled);
        assert_eq!(c.dlb.d, 1);
        assert_eq!(c.pab_quorum_override, None);
    }

    #[test]
    fn builders_apply() {
        let c = StratusConfig::default().with_dlb(DlbConfig::disabled().with_d(3));
        assert!(!c.dlb.enabled);
        assert_eq!(c.dlb.d, 3);
    }

    #[test]
    fn pab_quorum_is_clamped() {
        let f = 3; // n = 10
        assert_eq!(StratusConfig::default().pab_quorum(f), 4); // f + 1
        let q = |q| StratusConfig {
            pab_quorum_override: Some(q),
            ..StratusConfig::default()
        };
        assert_eq!(q(1).pab_quorum(f), 4); // f + 1
        assert_eq!(q(5).pab_quorum(f), 5);
        assert_eq!(q(100).pab_quorum(f), 7); // 2f + 1
    }

    #[test]
    fn dlb_with_d_clamps_to_one() {
        assert_eq!(DlbConfig::default().with_d(0).d, 1);
        assert_eq!(DlbConfig::default().with_d(3).d, 3);
    }
}
