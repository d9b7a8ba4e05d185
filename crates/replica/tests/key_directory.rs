//! A deployment derives its public-key set once.
//!
//! Every replica checks signatures against every replica's public key,
//! and only the mempools hold keys: Stratus's PAB engine, Narwhal's and
//! the certified DAG's certificate book.  Each takes the key set from the
//! deployment's shared `smp_crypto::directory` and derives only its own
//! pair, so building n replicas costs n + n derivations (one more own
//! pair per shard), where deriving the set per replica cost n² + n.

use smp_crypto::key_derivations;
use smp_mempool::{DagMempool, NarwhalMempool};
use smp_shard::ShardedMempool;
use smp_types::{ReplicaId, SystemConfig};
use stratus::{StratusConfig, StratusMempool};

/// Key derivations made while `build` constructs every replica of one
/// deployment; the replicas are dropped after the count is read.
fn derivations<M>(sys: &SystemConfig, build: impl Fn(&SystemConfig, ReplicaId) -> M) -> u64 {
    let before = key_derivations();
    let replicas: Vec<M> = sys.replicas().map(|i| build(sys, i)).collect();
    let used = key_derivations() - before;
    drop(replicas);
    used
}

fn stratus(s: &SystemConfig, i: ReplicaId) -> StratusMempool {
    StratusMempool::new(s, StratusConfig::default(), i)
}

#[test]
fn a_deployment_derives_each_key_once_per_family() {
    for n in [100, 400] {
        let sys = SystemConfig::new(n).with_seed(7);
        let n = n as u64;
        assert_eq!(derivations(&sys, stratus), 2 * n, "S-HS at n = {n}");
        assert_eq!(
            derivations(&sys, NarwhalMempool::new),
            2 * n,
            "Narwhal at n = {n}"
        );
        assert_eq!(derivations(&sys, DagMempool::new), 2 * n, "D-HS at n = {n}");
        // Four shards hold four PAB engines per replica: four own pairs,
        // still one directory.
        let sharded = sys.clone().with_shards(4);
        let four_shards = derivations(&sharded, |s, i| {
            ShardedMempool::from_system(s, i.0 as u64, |_, shard| stratus(shard, i))
        });
        assert_eq!(four_shards, n + 4 * n, "S-HS k = 4 at n = {n}");
    }
}

#[test]
fn a_rebuilt_deployment_pays_for_its_keys_again() {
    let sys = SystemConfig::new(100);
    let first = derivations(&sys, stratus);
    let second = derivations(&sys, stratus);
    assert_eq!(first, 200);
    assert_eq!(
        second, first,
        "no key table outlives the replicas holding it"
    );
}
