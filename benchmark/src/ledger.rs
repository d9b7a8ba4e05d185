//! The commit ledger: which replica first-committed which transaction.
//!
//! An *operation* is one client transaction handed to
//! `Mempool::on_client_txs` of an honest replica.  It **succeeds** when
//! at least `f + 1` replicas have *first*-committed it; committing it
//! again on the same replica is waste, not throughput.  Inline payloads
//! are tracked per `TxId`; reference payloads per `MicroblockRef.id`,
//! weighted by `tx_count` (the reference is all a proposal shows).
//!
//! The ledger also keeps the safety log (see [`Ledger::violations`]) and
//! the commit-latency samples.
//!
//! It runs inside the measured region on every commit of every replica,
//! so it is built to stay cheap: an inline proposal is walked once, when
//! the first replica commits it, and every later replica only flips a
//! bit on the proposal.  That shortcut holds while no transaction shows
//! up in two proposals; the first one that does moves the ledger to
//! per-transaction bookkeeping, exact either way.

use smp_metrics::LatencyHistogram;
use smp_types::{Payload, Proposal, SimTime, Transaction};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Ids are already digests: their first word is the hash.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*b);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;
type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// One tracked unit: a microblock (reference payloads) or, in
/// per-transaction mode, a transaction.
struct Unit {
    /// Bit `r` is set once replica `r` has committed the unit.
    committed_by: u128,
    /// Transactions the unit stands for.
    txs: u32,
    /// Whether the unit counts as an operation: offered to, or created
    /// by, an honest replica.
    counted: bool,
}

/// The inline transactions of one proposal, walked once.
struct Block {
    committed_by: u128,
    /// `(transaction key, counts as an operation)`.
    txs: Vec<(u64, bool)>,
    counted: u32,
}

/// A committed proposal as the safety log keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Label {
    proposer: u32,
    view: u64,
    height: u64,
}

/// Totals read off a finished ledger.
#[derive(Clone, Debug, Default)]
pub struct LedgerSummary {
    /// Transactions offered to honest replicas.
    pub attempted: u64,
    /// Of those, first-committed by at least `f + 1` replicas.
    pub succeeded: u64,
    /// Transactions committed, counted once per replica and repetition.
    pub committed_all: u64,
    /// Of `committed_all`, repetitions on a replica that already had them.
    pub committed_dup: u64,
    /// 1 − mean per-replica unique commits ÷ cluster-wide unique commits,
    /// over the replicas expected to stay live.
    pub gap_share: f64,
    /// Longest gap between unique commits at the observer, µs.
    pub stall_us: u64,
    /// `now` of the observer's last unique commit, µs.
    pub last_commit_us: u64,
    /// Transactions generated by any replica within the offered window;
    /// against the scheduled count it says how late the generators ran.
    pub generated_on_time: u64,
}

pub struct Ledger {
    n: usize,
    f: usize,
    /// Replicas whose offers are operations (not Byzantine, not silent).
    honest: Vec<bool>,
    /// Replicas expected to commit everything (honest and never crashed).
    live: Vec<bool>,
    /// MirBFT runs one instance per leader and orders within it only.
    per_proposer_order: bool,
    /// Sockets: keep latency samples (the simulator's come from the
    /// observer replica's own histogram).
    sample_latency: bool,
    units: IdMap<Unit>,
    /// Inline proposals by proposal id word (xor the shard group).
    blocks: IdMap<Block>,
    /// Every inline transaction key seen so far (block mode only).
    inline_seen: IdSet,
    /// Set by the first transaction seen in two proposals.
    per_tx: bool,
    offered: u64,
    on_time_until: SimTime,
    generated_on_time: u64,
    /// Per replica, the (instance, proposal id word) it committed, in order.
    sequences: Vec<Vec<(u32, u64)>>,
    /// (proposer, view, height) → proposal id word of the first commit.
    labels: HashMap<Label, u64>,
    /// Chained proposals only: parent id word → committed child id words.
    children: IdMap<Vec<u64>>,
    /// (instance, height) → proposal id word of the first commit.
    heights: HashMap<(u32, u64), u64>,
    /// Commits whose height label another committed proposal already had.
    pub height_collisions: u64,
    /// Distinct chained proposals committed on a parent that already had
    /// a committed child: both branches of a fork were committed.
    pub sibling_commits: u64,
    equivocations: Vec<String>,
    unique_txs: Vec<u64>,
    committed_all: u64,
    committed_dup: u64,
    /// Stall tracking at replica 0: gaps are measured from `stall_from`.
    stall_from: SimTime,
    last_unique_commit: SimTime,
    stall_us: u64,
    /// The entry replica's reception stamp → its own first commit of the
    /// transaction: one clock, inline payloads only.
    pub one_clock: LatencyHistogram,
    /// The program's own stamps (`Executed.receive_times` against the
    /// executing replica's `now`), pooled over all replicas.
    pub executed: LatencyHistogram,
}

impl Ledger {
    /// A ledger for `n` replicas.  `honest[r]` says whether replica `r`'s
    /// offers count; `live[r]` whether it is expected to commit everything.
    pub fn new(honest: Vec<bool>, live: Vec<bool>, per_proposer_order: bool) -> Self {
        let n = honest.len();
        assert!(n <= 128, "the committed_by bitmap holds 128 replicas");
        assert_eq!(live.len(), n);
        Ledger {
            n,
            f: (n - 1) / 3,
            honest,
            live,
            per_proposer_order,
            sample_latency: false,
            units: IdMap::default(),
            blocks: IdMap::default(),
            inline_seen: IdSet::default(),
            per_tx: false,
            offered: 0,
            on_time_until: SimTime::MAX,
            generated_on_time: 0,
            sequences: vec![Vec::new(); n],
            labels: HashMap::new(),
            children: IdMap::default(),
            heights: HashMap::new(),
            height_collisions: 0,
            sibling_commits: 0,
            equivocations: Vec::new(),
            unique_txs: vec![0; n],
            committed_all: 0,
            committed_dup: 0,
            stall_from: 0,
            last_unique_commit: 0,
            stall_us: 0,
            one_clock: LatencyHistogram::new(),
            executed: LatencyHistogram::new(),
        }
    }

    /// A ledger in which every replica is honest and live.
    #[cfg(test)]
    pub fn all_honest(n: usize) -> Self {
        Ledger::new(vec![true; n], vec![true; n], false)
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Measures the observer's commit gaps from `at` on (the first
    /// injected fault); without it, from the first commit.
    pub fn stall_from(&mut self, at: SimTime) {
        self.stall_from = at;
        self.last_unique_commit = at;
    }

    /// Offers stamped later than `deadline` (the end of the offered
    /// window) are late: the generator fell behind its schedule.
    pub fn count_on_time_until(&mut self, deadline: SimTime) {
        self.on_time_until = deadline;
    }

    /// Keeps commit-latency samples.  Sockets only: replicas there run on
    /// clocks of their own, so inline transactions are sampled from their
    /// reception stamp to the first commit *on the replica that stamped
    /// them* — the one sample with both ends on one clock — and the
    /// program's own stamps are pooled over all replicas.
    pub fn sample_latency(&mut self) {
        self.sample_latency = true;
    }

    pub fn record_offer(&mut self, replica: u32, now: SimTime, txs: &[Transaction]) {
        if now <= self.on_time_until {
            self.generated_on_time += txs.len() as u64;
        }
        if self.honest[replica as usize] {
            self.offered += txs.len() as u64;
        }
    }

    pub fn record_executed(&mut self, now: SimTime, receive_times: &[SimTime]) {
        if !self.sample_latency {
            return;
        }
        for t in receive_times {
            self.executed.record(now.saturating_sub(*t));
        }
    }

    pub fn record_commit(&mut self, replica: u32, now: SimTime, proposal: &Proposal) {
        let instance = if self.per_proposer_order {
            proposal.proposer.0
        } else {
            0
        };
        let id = proposal.id.0 .0[0];
        self.sequences[replica as usize].push((instance, id));
        let label = Label {
            proposer: proposal.proposer.0,
            view: proposal.view.0,
            height: proposal.height,
        };
        let first = *self.labels.entry(label).or_insert(id);
        if first != id {
            self.equivocations.push(format!(
                "replica {replica} committed {id:016x} where {first:016x} was committed for {label:?}"
            ));
        }
        if proposal.carries_qc {
            let children = self.children.entry(proposal.parent.0 .0[0]).or_default();
            if !children.contains(&id) {
                children.push(id);
                if children.len() > 1 {
                    self.sibling_commits += 1;
                }
            }
        }
        if *self
            .heights
            .entry((instance, proposal.height))
            .or_insert(id)
            != id
        {
            self.height_collisions += 1;
        }
        let before = self.unique_txs[replica as usize];
        self.commit_payload(replica, now, id, &proposal.payload);
        if replica == 0 && self.unique_txs[0] > before {
            if self.last_unique_commit > 0 || self.stall_from > 0 {
                let gap = now.saturating_sub(self.last_unique_commit.max(self.stall_from));
                self.stall_us = self.stall_us.max(gap);
            }
            self.last_unique_commit = now;
        }
    }

    /// Whether a committed inline transaction counts as an operation.
    fn counts(honest: &[bool], tx: &Transaction) -> bool {
        tx.entry_replica
            .is_none_or(|r| honest.get(r.index()).copied().unwrap_or(false))
    }

    fn commit_payload(&mut self, replica: u32, now: SimTime, block_key: u64, payload: &Payload) {
        match payload {
            Payload::Empty => {}
            Payload::Inline(txs) if self.per_tx => self.commit_txs(replica, now, txs),
            Payload::Inline(txs) => {
                if !self.blocks.contains_key(&block_key) {
                    // First commit anywhere: walk the transactions once.
                    if txs
                        .iter()
                        .any(|tx| self.inline_seen.contains(&tx.id.0 .0[0]))
                    {
                        self.switch_to_per_tx();
                        return self.commit_txs(replica, now, txs);
                    }
                    let mut block = Block {
                        committed_by: 0,
                        txs: Vec::with_capacity(txs.len()),
                        counted: 0,
                    };
                    for tx in txs.iter() {
                        let counted = Self::counts(&self.honest, tx);
                        block.counted += u32::from(counted);
                        block.txs.push((tx.id.0 .0[0], counted));
                        self.inline_seen.insert(tx.id.0 .0[0]);
                    }
                    self.blocks.insert(block_key, block);
                }
                let block = self.blocks.get_mut(&block_key).expect("inserted above");
                let bit = 1u128 << replica;
                let n = txs.len() as u64;
                self.committed_all += n;
                if block.committed_by & bit != 0 {
                    self.committed_dup += n;
                    return;
                }
                block.committed_by |= bit;
                self.unique_txs[replica as usize] += n;
                if self.sample_latency {
                    Self::sample_entry_latency(&mut self.one_clock, replica, now, txs.iter());
                }
            }
            Payload::Refs(refs) => {
                for r in refs {
                    let honest = &self.honest;
                    let unit = self.units.entry(r.id.0 .0[0]).or_insert_with(|| Unit {
                        committed_by: 0,
                        txs: r.tx_count,
                        counted: honest.get(r.creator.index()).copied().unwrap_or(false),
                    });
                    Self::mark(
                        unit,
                        replica,
                        &mut self.unique_txs,
                        &mut self.committed_all,
                        &mut self.committed_dup,
                    );
                }
            }
            Payload::Sharded(groups) => {
                for (shard, p) in groups {
                    let group = (u64::from(*shard) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    self.commit_payload(replica, now, block_key ^ group, p);
                }
            }
        }
    }

    fn sample_entry_latency<'a>(
        one_clock: &mut LatencyHistogram,
        replica: u32,
        now: SimTime,
        txs: impl Iterator<Item = &'a Transaction>,
    ) {
        for tx in txs {
            if let (Some(entry), Some(received_at)) = (tx.entry_replica, tx.received_at) {
                if entry.0 == replica {
                    one_clock.record(now.saturating_sub(received_at));
                }
            }
        }
    }

    /// Per-transaction bookkeeping of an inline payload.
    fn commit_txs(&mut self, replica: u32, now: SimTime, txs: &[Transaction]) {
        for tx in txs {
            let honest = &self.honest;
            let unit = self.units.entry(tx.id.0 .0[0]).or_insert_with(|| Unit {
                committed_by: 0,
                txs: 1,
                counted: Self::counts(honest, tx),
            });
            let first_here = unit.committed_by & (1 << replica) == 0;
            Self::mark(
                unit,
                replica,
                &mut self.unique_txs,
                &mut self.committed_all,
                &mut self.committed_dup,
            );
            if first_here && self.sample_latency {
                Self::sample_entry_latency(&mut self.one_clock, replica, now, std::iter::once(tx));
            }
        }
    }

    /// A transaction turned up in a second proposal: expand every block
    /// into per-transaction units and keep them from here on.
    fn switch_to_per_tx(&mut self) {
        self.per_tx = true;
        for (_, block) in self.blocks.drain() {
            for (key, counted) in block.txs {
                self.units.insert(
                    key,
                    Unit {
                        committed_by: block.committed_by,
                        txs: 1,
                        counted,
                    },
                );
            }
        }
        self.inline_seen = IdSet::default();
    }

    fn mark(unit: &mut Unit, replica: u32, unique: &mut [u64], all: &mut u64, dup: &mut u64) {
        let bit = 1u128 << replica;
        *all += unit.txs as u64;
        if unit.committed_by & bit != 0 {
            *dup += unit.txs as u64;
        } else {
            unit.committed_by |= bit;
            unique[replica as usize] += unit.txs as u64;
        }
    }

    /// Safety violations among everything committed so far.
    ///
    /// Replicas may skip proposals (a replica that missed a block commits
    /// around it), so commit logs are compared as *orders*, not position
    /// by position: the logs are safe when one total order contains them
    /// all, that is, when the union of their consecutive pairs has no
    /// cycle.  A label check catches what an order cannot: one
    /// `(proposer, view, height)` never names two proposals.
    ///
    /// Two weaker signs are counted, not flagged, because the program
    /// shows them at the seed commit without replicas ever disagreeing:
    /// `height_collisions` (a leader that missed its parent restarts the
    /// height label at 1) and `sibling_commits` (after a view change both
    /// branches under one parent get committed, by every replica alike).
    pub fn violations(&self) -> Vec<String> {
        let mut found = self.equivocations.clone();
        // Kahn's algorithm over the proposals, one graph per instance.
        let mut index: HashMap<(u32, u64), usize> = HashMap::new();
        let mut succ: Vec<Vec<usize>> = Vec::new();
        let mut indegree: Vec<u32> = Vec::new();
        for log in &self.sequences {
            let mut last: HashMap<u32, usize> = HashMap::new();
            for key in log {
                let next = index.len();
                let node = *index.entry(*key).or_insert(next);
                if node == succ.len() {
                    succ.push(Vec::new());
                    indegree.push(0);
                }
                if let Some(prev) = last.insert(key.0, node) {
                    succ[prev].push(node);
                    indegree[node] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..succ.len()).filter(|i| indegree[*i] == 0).collect();
        let mut ordered = 0usize;
        while let Some(node) = ready.pop() {
            ordered += 1;
            for next in std::mem::take(&mut succ[node]) {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    ready.push(next);
                }
            }
        }
        if ordered < indegree.len() {
            found.push(format!(
                "{} committed proposals are ordered differently by different replicas",
                indegree.len() - ordered
            ));
        }
        found
    }

    pub fn summary(&self) -> LedgerSummary {
        let need = self.f as u32 + 1;
        let mut succeeded = 0u64;
        let mut cluster_unique = 0u64;
        for unit in self.units.values() {
            if unit.committed_by != 0 {
                cluster_unique += unit.txs as u64;
            }
            if unit.counted && unit.committed_by.count_ones() >= need {
                succeeded += unit.txs as u64;
            }
        }
        for block in self.blocks.values() {
            if block.committed_by != 0 {
                cluster_unique += block.txs.len() as u64;
            }
            if block.committed_by.count_ones() >= need {
                succeeded += block.counted as u64;
            }
        }
        let live: Vec<u64> = (0..self.n)
            .filter(|r| self.live[*r])
            .map(|r| self.unique_txs[r])
            .collect();
        let gap_share = if cluster_unique == 0 || live.is_empty() {
            0.0
        } else {
            let mean = live.iter().sum::<u64>() as f64 / live.len() as f64;
            1.0 - mean / cluster_unique as f64
        };
        LedgerSummary {
            attempted: self.offered,
            // Reference payloads are weighted by the proposal's own
            // `tx_count`, and a Byzantine creator's batches are excluded,
            // so this exceeds `attempted` only if the program miscounts —
            // cap it so `failed` stays a whole number either way.
            succeeded: succeeded.min(self.offered),
            committed_all: self.committed_all,
            committed_dup: self.committed_dup,
            gap_share,
            stall_us: self.stall_us,
            last_commit_us: self.last_unique_commit,
            generated_on_time: self.generated_on_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_types::{BlockId, ClientId, MicroblockId, MicroblockRef, ReplicaId, View};

    /// Transactions stamped as received by `entry` at `at`.
    fn txs(range: std::ops::Range<u64>, entry: u32, at: SimTime) -> Vec<Transaction> {
        range
            .map(|i| {
                let mut tx = Transaction::synthetic(ClientId(entry), i, 128, 0);
                tx.mark_received(ReplicaId(entry), at);
                tx
            })
            .collect()
    }

    fn proposal(view: u64, height: u64, payload: Payload) -> Proposal {
        Proposal::new(
            View(view),
            height,
            BlockId::GENESIS,
            View(view).leader(4),
            payload,
            true,
        )
    }

    /// A chain a → b → c of chained proposals, by parent link.
    fn chain() -> (Proposal, Proposal, Proposal) {
        let link = |view: u64, parent: BlockId| {
            Proposal::new(
                View(view),
                view,
                parent,
                View(view).leader(4),
                Payload::Empty,
                true,
            )
        };
        let a = link(1, BlockId::GENESIS);
        let b = link(2, a.id);
        let c = link(3, b.id);
        (a, b, c)
    }

    #[test]
    fn safety_check_ignores_a_gap_and_a_late_commit() {
        let mut ledger = Ledger::all_honest(4);
        let (a, b, c) = chain();
        // Replica 1 skips b; replica 2 commits b only after the others
        // are past c.  Both logs fit the order a, b, c.
        for r in [0, 1, 3] {
            ledger.record_commit(r, 10, &a);
            if r != 1 {
                ledger.record_commit(r, 20, &b);
            }
            ledger.record_commit(r, 30, &c);
        }
        for p in [&a, &b, &c] {
            ledger.record_commit(2, 40, p);
        }
        assert_eq!(ledger.violations(), Vec::<String>::new());
    }

    #[test]
    fn safety_check_flags_an_injected_fork() {
        // An order conflict: b before c on replica 0, c before b on replica 1.
        let mut ledger = Ledger::all_honest(4);
        let (a, b, c) = chain();
        for p in [&a, &b, &c] {
            ledger.record_commit(0, 10, p);
        }
        for p in [&a, &c, &b] {
            ledger.record_commit(1, 10, p);
        }
        let v = ledger.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("ordered differently"));

        // Equivocation: two proposals under one (proposer, view, height).
        let mut ledger = Ledger::all_honest(4);
        let one = proposal(1, 1, Payload::Empty);
        let other = proposal(1, 1, Payload::inline(txs(0..1, 0, 0)));
        ledger.record_commit(0, 10, &one);
        ledger.record_commit(1, 10, &other);
        assert_eq!(ledger.violations().len(), 1);
    }

    #[test]
    fn reused_height_labels_and_sibling_commits_are_counted_not_flagged() {
        // A leader that missed its parent labels its proposal height 1;
        // after a view change a second child of `a` is committed too.
        let mut ledger = Ledger::all_honest(4);
        let (a, b, _) = chain();
        let relabelled = Proposal::new(View(3), 1, b.id, View(3).leader(4), Payload::Empty, true);
        let sibling = Proposal::new(View(5), 2, a.id, View(5).leader(4), Payload::Empty, true);
        for r in 0..2 {
            for p in [&a, &b, &relabelled, &sibling] {
                ledger.record_commit(r, 10, p);
            }
        }
        assert!(ledger.violations().is_empty());
        assert_eq!(ledger.height_collisions, 2 * 2);
        assert_eq!(ledger.sibling_commits, 1);
    }

    #[test]
    fn success_needs_f_plus_one_first_commits_and_repeats_are_waste() {
        let mut ledger = Ledger::all_honest(4);
        ledger.sample_latency();
        let batch = txs(0..10, 0, 100);
        ledger.record_offer(0, 100, &batch);
        let p = proposal(1, 1, Payload::inline(batch.clone()));
        ledger.record_commit(0, 600, &p);
        assert_eq!(ledger.summary().succeeded, 0, "one replica is not f + 1");
        ledger.record_commit(1, 700, &p);
        let s = ledger.summary();
        assert_eq!((s.attempted, s.succeeded), (10, 10));
        assert_eq!(s.committed_dup, 0);
        // Only the entry replica's commit is a one-clock latency sample.
        assert_eq!(ledger.one_clock.count(), 10);
        assert_eq!(ledger.one_clock.max_us(), Some(500));
        // The same transactions in a later proposal on replica 0: waste,
        // and the switch to per-transaction bookkeeping loses nothing.
        let again = proposal(2, 2, Payload::inline(batch));
        ledger.record_commit(0, 800, &again);
        let s = ledger.summary();
        assert_eq!(
            (s.succeeded, s.committed_dup, s.committed_all),
            (10, 10, 30)
        );
        assert_eq!(ledger.one_clock.count(), 10);
        // On replica 2 the later proposal is their first commit.
        ledger.record_commit(2, 900, &again);
        let s = ledger.summary();
        assert_eq!(
            (s.succeeded, s.committed_dup, s.committed_all),
            (10, 10, 40)
        );
        // Replica 3 committed nothing: a quarter of the cluster's commits
        // are missing on the average replica.
        assert!((s.gap_share - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_whole_proposal_committed_twice_on_one_replica_is_waste() {
        let mut ledger = Ledger::all_honest(4);
        let batch = txs(0..5, 1, 0);
        ledger.record_offer(1, 0, &batch);
        let p = proposal(1, 1, Payload::inline(batch));
        ledger.record_commit(0, 10, &p);
        ledger.record_commit(0, 20, &p);
        let s = ledger.summary();
        assert_eq!((s.committed_all, s.committed_dup, s.succeeded), (10, 5, 0));
    }

    #[test]
    fn reference_payloads_are_weighted_and_byzantine_creators_excluded() {
        let honest = vec![true, true, true, false];
        let mut ledger = Ledger::new(honest, vec![true; 4], false);
        ledger.record_offer(0, 0, &txs(0..7, 0, 0));
        ledger.record_offer(3, 0, &txs(100..105, 3, 0));
        let refs = Payload::Refs(vec![
            MicroblockRef::unproven(MicroblockId(smp_crypto::Digest::of_u64(1)), ReplicaId(0), 7),
            MicroblockRef::unproven(MicroblockId(smp_crypto::Digest::of_u64(2)), ReplicaId(3), 5),
        ]);
        let p = proposal(1, 1, refs);
        ledger.record_commit(1, 10, &p);
        ledger.record_commit(2, 10, &p);
        let s = ledger.summary();
        assert_eq!((s.attempted, s.succeeded), (7, 7));
        assert_eq!(s.committed_all, 24);
        // Inline transactions that entered through the Byzantine replica
        // do not count either.
        let inline = proposal(2, 2, Payload::inline(txs(100..105, 3, 0)));
        ledger.record_commit(1, 20, &inline);
        ledger.record_commit(2, 20, &inline);
        assert_eq!(ledger.summary().succeeded, 7);
    }

    #[test]
    fn stall_is_the_longest_observer_gap_after_the_first_fault() {
        let mut ledger = Ledger::all_honest(4);
        ledger.stall_from(1_000);
        let mut height = 0;
        for (at, n) in [(200u64, 0u64), (1_500, 10), (4_000, 20), (4_100, 30)] {
            height += 1;
            let batch = txs(n..n + 10, 0, at);
            ledger.record_offer(0, at, &batch);
            ledger.record_commit(0, at, &proposal(height, height, Payload::inline(batch)));
        }
        // 1 000 → 1 500 → 4 000 → 4 100: the longest gap is 2 500.
        assert_eq!(ledger.summary().stall_us, 2_500);
        assert_eq!(ledger.summary().last_commit_us, 4_100);
    }
}
