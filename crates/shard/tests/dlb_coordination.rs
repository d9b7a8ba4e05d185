//! Cross-shard DLB coordination: a load shift observed by one shard's
//! load balancer must produce one coherent ban view across all `k`
//! shards of the replica, so no shard keeps forwarding to a proxy that
//! another shard already knows is saturated.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smp_crypto::{KeyPair, Signature};
use smp_mempool::{Dest, Effects, Mempool};
use smp_shard::{ShardedMempool, ShardedMsg, TimerMux};
use smp_types::{ClientId, MempoolConfig, Microblock, ReplicaId, SystemConfig, Transaction};
use stratus::{DlbConfig, StratusConfig, StratusMempool, StratusMsg};

const N: usize = 4;
const K: usize = 2;

fn system() -> SystemConfig {
    SystemConfig::new(N).with_mempool(MempoolConfig {
        // Per-shard budget after the k-way split is one 168-wire-byte
        // transaction, so every routed tx seals a microblock immediately.
        batch_size_bytes: 168 * K,
        tx_payload_bytes: 128,
        ..MempoolConfig::default()
    })
}

fn sharded() -> (ShardedMempool<StratusMempool>, SmallRng) {
    let sys = system();
    let cfg = StratusConfig {
        dlb: DlbConfig {
            estimator_window: 4,
            busy_factor: 2.0,
            d: 2,
            ..DlbConfig::default()
        },
        // No limiter: the forwarding path is exercised in isolation.
        data_bandwidth_share: None,
        ..StratusConfig::default()
    };
    let mp = ShardedMempool::sequential(&sys, K, 0, |_, shard_sys| {
        StratusMempool::new(shard_sys, cfg, ReplicaId(0))
    });
    (mp, SmallRng::seed_from_u64(7))
}

/// An endless supply of transactions that the router assigns to `shard`.
/// Distinct `client` values give disjoint transaction (and so microblock)
/// ids, letting each test phase seal fresh content.
fn txs_for_shard(
    mp: &ShardedMempool<StratusMempool>,
    shard: usize,
    client: u32,
) -> impl Iterator<Item = Transaction> + '_ {
    (0u64..).filter_map(move |seq| {
        let tx = Transaction::synthetic(ClientId(client), seq, 128, 0);
        (mp.router().shard_of_tx(&tx) == shard).then_some(tx)
    })
}

fn find_mb(fx: &Effects<ShardedMsg<StratusMsg>>, shard: u16) -> Option<Microblock> {
    fx.msgs
        .iter()
        .find_map(|(_, m)| match (&m.shard, &m.inner) {
            (s, StratusMsg::PabMsg(mb)) if *s == shard => Some(mb.clone()),
            _ => None,
        })
}

/// The `(target, token)` pairs of the shard's outgoing `LbQuery`s.
fn lb_queries(fx: &Effects<ShardedMsg<StratusMsg>>, shard: u16) -> Vec<(ReplicaId, u64)> {
    fx.msgs
        .iter()
        .filter_map(|(dest, m)| match (&m.shard, &m.inner) {
            (s, StratusMsg::LbQuery { token }) if *s == shard => match dest {
                Dest::One(r) => Some((*r, *token)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// A peer's PabAck, forged with the key the PAB engine derives for it
/// from the system seed — so the test can play any replica without
/// instantiating one.
fn forged_ack(seed: u64, peer: u32, mb: &Microblock) -> StratusMsg {
    StratusMsg::PabAck {
        id: mb.id,
        sig: Signature::sign(&KeyPair::derive(seed, peer).secret, &mb.id.digest()),
    }
}

/// Seals one microblock on `shard` per round and acks it from two peers
/// after `delay`, inflating the shard's stable-time estimate.
fn drive_shard_busy(
    mp: &mut ShardedMempool<StratusMempool>,
    shard: usize,
    base: u64,
    client: u32,
    rng: &mut SmallRng,
) {
    let seed = system().seed;
    let txs: Vec<Transaction> = txs_for_shard(mp, shard, client).take(6).collect();
    for (round, tx) in txs.into_iter().enumerate() {
        let now = base + round as u64 * 1_000_000;
        let fx = mp.on_client_txs(now, vec![tx], rng);
        // Once the estimator tips busy, seals sample proxies instead of
        // broadcasting — nothing left to ack that round.
        let Some(mb) = find_mb(&fx, shard as u16) else {
            continue;
        };
        // Slow rounds after a fast baseline push the estimate past
        // `busy_factor` times the floor.
        let delay = if round < 3 { 10_000 } else { 80_000 };
        for peer in [1u32, 2u32] {
            let _ = mp.on_message(
                now + delay,
                ReplicaId(peer),
                ShardedMsg::new(shard as u16, forged_ack(seed, peer, &mb)),
                rng,
            );
        }
    }
    assert!(
        mp.shard(shard).estimator().is_busy(),
        "shard {shard} estimator should report busy after ST inflation"
    );
}

#[test]
fn load_shift_produces_one_coherent_ban_view_across_shards() {
    let (mut mp, mut rng) = sharded();
    drive_shard_busy(&mut mp, 0, 0, 0, &mut rng);

    // The next shard-0 microblock is load-balanced, not broadcast.
    let tx = txs_for_shard(&mp, 0, 1).next().expect("tx for shard 0");
    let fx = mp.on_client_txs(10_000_000, vec![tx], &mut rng);
    let queries = lb_queries(&fx, 0);
    assert_eq!(queries.len(), 2, "busy shard samples d=2 proxies");
    assert!(find_mb(&fx, 0).is_none(), "no self-broadcast while busy");

    // Both sampled peers reply lightly loaded; the balancer forwards to
    // one of them and bans it until the proof (or a reset) arrives.
    for (target, token) in &queries {
        let _ = mp.on_message(
            10_000_100,
            *target,
            ShardedMsg::new(
                0,
                StratusMsg::LbInfo {
                    token: *token,
                    stable_time_us: Some(10),
                },
            ),
            &mut rng,
        );
    }
    let bans0 = mp.shard(0).load_balancer().banned();
    assert_eq!(bans0.len(), 1, "exactly the chosen proxy is banned");
    let proxy = bans0[0];

    // The coherence property under test: the ban taken by shard 0's
    // balancer is visible on shard 1 (and in the merged coordinator
    // view) within the same event-handling round — no second event is
    // needed to propagate it.
    assert!(
        mp.shard(1).load_balancer().is_banned(proxy),
        "shard 1 must share shard 0's ban of {proxy:?}"
    );
    assert!(
        mp.coordinated_bans().contains(&proxy),
        "the merged coordinator view includes the ban"
    );

    // And the coherent view changes behaviour: when shard 1 becomes
    // busy, its own sampling never touches the proxy shard 0 banned.
    drive_shard_busy(&mut mp, 1, 20_000_000, 2, &mut rng);
    let tx = txs_for_shard(&mp, 1, 3).next().expect("tx for shard 1");
    let fx = mp.on_client_txs(40_000_000, vec![tx], &mut rng);
    let queries = lb_queries(&fx, 1);
    assert!(!queries.is_empty(), "busy shard 1 samples proxies");
    assert!(
        queries.iter().all(|(target, _)| *target != proxy),
        "shard 1 sampling excludes the proxy banned via shard 0: {queries:?}"
    );
}

#[test]
fn banlist_reset_on_one_shard_clears_the_merged_view() {
    let (mut mp, mut rng) = sharded();

    // Shard 0's first event arms its periodic banList reset; the wrapper
    // remaps the tag through its timer multiplexer, so capture every
    // wrapper tag from the first round and fire them all later (the
    // batch-timeout tag fires as a harmless no-op alongside the reset).
    let first_tx = txs_for_shard(&mp, 0, 4).next().expect("tx for shard 0");
    let fx = mp.on_client_txs(0, vec![first_tx], &mut rng);
    let armed: Vec<u64> = fx.timers.iter().map(|(_, tag)| *tag).collect();
    assert!(!armed.is_empty(), "first round arms the reset timer");
    let mb = find_mb(&fx, 0).expect("first tx seals a microblock");
    let seed = system().seed;
    for peer in [1u32, 2u32] {
        let _ = mp.on_message(
            10_000,
            ReplicaId(peer),
            ShardedMsg::new(0, forged_ack(seed, peer, &mb)),
            &mut rng,
        );
    }

    drive_shard_busy(&mut mp, 0, 1_000_000, 5, &mut rng);
    let tx = txs_for_shard(&mp, 0, 6).next().expect("tx for shard 0");
    let fx = mp.on_client_txs(10_000_000, vec![tx], &mut rng);
    let queries = lb_queries(&fx, 0);
    for (target, token) in &queries {
        let _ = mp.on_message(
            10_000_100,
            *target,
            ShardedMsg::new(
                0,
                StratusMsg::LbInfo {
                    token: *token,
                    stable_time_us: Some(10),
                },
            ),
            &mut rng,
        );
    }
    let proxy = *mp
        .coordinated_bans()
        .first()
        .expect("forwarding banned the proxy");
    assert!(mp.shard(1).load_balancer().is_banned(proxy));

    // The reset must clear the merged view and every shard's imposed
    // bans, or stale cross-shard bans would linger beyond the paper's
    // banList reset interval.
    for tag in armed {
        let _ = mp.on_timer(15_000_000, tag, &mut rng);
    }
    assert!(
        mp.coordinated_bans().is_empty(),
        "the reset clears the merged coordinator view"
    );
    for shard in 0..K {
        assert!(
            !mp.shard(shard).load_balancer().is_banned(proxy),
            "shard {shard} still bans {proxy:?} after the reset"
        );
    }
}

/// Crash-recovery rebuilds the timer multiplexer from scratch: outer
/// tags armed by the previous incarnation must not resolve against the
/// reborn mux, and re-armed inner timers get fresh registrations.
#[test]
fn rebuilt_timer_mux_owes_nothing_to_the_previous_incarnation() {
    let mut mux = TimerMux::new();
    let stale: Vec<_> = (0..8).map(|i| mux.arm((i % 2) as u16, 100 + i)).collect();
    assert_eq!(mux.armed(), 8);

    // Crash: the recovering replica constructs a fresh mux (pre-crash
    // wall-clock timers die with the process).
    let mut mux = TimerMux::new();
    assert_eq!(mux.armed(), 0);

    // Re-arm one inner timer, then replay every stale outer tag a
    // zombie callback might still hold: only the new registration may
    // resolve, and only to the new (shard, inner) pair.
    let fresh = mux.arm(1, 100);
    for &tag in &stale {
        let resolved = mux.fire(tag);
        if tag == fresh {
            assert_eq!(resolved, Some((1, 100)));
        } else {
            assert_eq!(
                resolved, None,
                "stale outer tag {tag} resolved after rebuild"
            );
        }
    }
    assert_eq!(mux.fire(fresh), None, "one-shot across the replay");
}
