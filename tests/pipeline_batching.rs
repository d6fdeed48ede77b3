//! The batched hot path's contract tests, at the node level:
//!
//! * the write-ahead barrier pays exactly **one group-commit sync** per
//!   `take_outputs` round, however many entries the round appended;
//! * apply batches **never straddle a reconfiguration barrier** — a run of
//!   commands abutting a SplitLeave (`Cnew`) entry flushes before the split
//!   completes, so range retention observes the same boundary as the
//!   one-at-a-time path did;
//! * a power cut landing **mid group-commit** rolls the torn batch back
//!   atomically at recovery — the log never reboots with part of a batch;
//! * and the point of it all: under an open-loop backlog on the `wal`
//!   backend, pipelined replication **commits at least twice** what the
//!   lockstep one-entry-per-round-trip cycle does, with batches of more than
//!   one entry.

use bytes::Bytes;
use recraft::core::{MapMachine, Node, PipelineConfig, StateMachine, Timing};
use recraft::net::Message;
use recraft::sim::{Backend, Sim, SimConfig, Workload};
use recraft::storage::{LogEntry, LogStore, WalLog, WalOptions};
use recraft::types::{
    ClientOp, ClientRequest, ClusterConfig, ClusterId, ConfigChange, EpochTerm, LogIndex, NodeId,
    RangeSet, Result, SessionId, SplitSpec,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

// ---- Helpers ---------------------------------------------------------------

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique temp dir removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "recraft-pipeline-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TestDir(path)
    }

    fn open(&self) -> WalLog {
        WalLog::open_with(
            &self.0,
            WalOptions {
                fsync: false,
                segment_bytes: 1 << 20, // no mid-test segment roll
            },
        )
        .expect("open wal")
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn et(term: u32) -> EpochTerm {
    EpochTerm::new(0, term)
}

fn cmd_entry(i: u64, kv: &str) -> LogEntry {
    LogEntry::command(LogIndex(i), et(1), Bytes::from(kv.to_string()))
}

// ---- One sync per barrier round --------------------------------------------

#[test]
fn one_group_commit_sync_per_take_outputs_round() {
    let dir = TestDir::new("sync-count");
    let config = ClusterConfig::new(ClusterId(1), [NodeId(1)], RangeSet::full()).expect("config");
    let mut node = Node::with_store(
        NodeId(1),
        config,
        MapMachine::default(),
        dir.open(),
        Timing::default(),
        7,
    );
    // Boot wrote the snapshot and one record — the identity — under one sync.
    assert_eq!(node.log().sync_count(), 1);
    node.tick(400_000); // single-node election fires and wins instantly
    assert!(node.is_leader());
    let _ = node.take_outputs(); // the election no-op's barrier
    let base = node.log().sync_count();

    // Several client writes land in ONE event round (no barrier between).
    for (i, kv) in ["a=1", "b=2", "c=3", "d=4"].iter().enumerate() {
        node.step(
            500_000,
            NodeId(99),
            Message::ClientReq {
                req: ClientRequest {
                    session: SessionId(9),
                    seq: i as u64 + 1,
                    op: ClientOp::Command {
                        key: b"a".to_vec(),
                        cmd: Bytes::from(kv.to_string()),
                    },
                },
            },
        );
    }
    assert_eq!(
        node.log().sync_count(),
        base,
        "appends buffer until the barrier"
    );
    let _ = node.take_outputs();
    assert_eq!(
        node.log().sync_count(),
        base + 1,
        "one group-commit sync per take_outputs round, regardless of batch size"
    );
    // And the commands actually applied (single-node commits immediately).
    assert_eq!(node.state_machine().get(b"d"), Some(&b"4"[..]));

    // An idle round pays no sync at all.
    node.tick(510_000);
    let _ = node.take_outputs();
    assert_eq!(node.log().sync_count(), base + 1, "idle rounds are free");
}

// ---- Apply batches never straddle a reconfiguration barrier -----------------

/// A state machine that records the index-shape of every apply call the
/// consensus layer makes, delegating the semantics to [`MapMachine`].
#[derive(Debug, Default)]
struct RecordingMachine {
    inner: MapMachine,
    calls: Vec<Vec<u64>>,
}

impl StateMachine for RecordingMachine {
    fn apply(&mut self, index: LogIndex, cmd: &Bytes) -> Bytes {
        self.calls.push(vec![index.0]);
        self.inner.apply(index, cmd)
    }
    fn apply_batch(&mut self, entries: &[(LogIndex, Bytes)]) -> Vec<Bytes> {
        self.calls.push(entries.iter().map(|(i, _)| i.0).collect());
        entries
            .iter()
            .map(|(i, c)| self.inner.apply(*i, c))
            .collect()
    }
    fn query(&self, key: &[u8]) -> Bytes {
        self.inner.query(key)
    }
    fn snapshot(&self, ranges: &RangeSet) -> Bytes {
        self.inner.snapshot(ranges)
    }
    fn restore(&mut self, data: &Bytes) -> Result<()> {
        self.inner.restore(data)
    }
    fn restore_merged(&mut self, parts: &[Bytes]) -> Result<()> {
        self.inner.restore_merged(parts)
    }
    fn retain_ranges(&mut self, ranges: &RangeSet) {
        self.inner.retain_ranges(ranges);
    }
}

#[test]
fn apply_batch_flushes_before_split_leave_barrier() {
    // A follower of cluster 1 = {1, 2} receives, in ONE AppendEntries, a run
    // of commands abutting the split entries (Cjoint + Cnew) and a command
    // after them, all already committed by the leader. The apply pass must
    // hand the state machine [1, 2] BEFORE the split completes (range
    // retention!) and [5] after — never a batch containing the barrier.
    let base =
        ClusterConfig::new(ClusterId(1), [NodeId(1), NodeId(2)], RangeSet::full()).expect("config");
    let mut node = Node::new(
        NodeId(1),
        base.clone(),
        RecordingMachine::default(),
        Timing::default(),
        3,
    );
    let (lo, hi) = recraft::types::KeyRange::full().split_at(b"m").unwrap();
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), [NodeId(1)], RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), [NodeId(2)], RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    let entries = vec![
        cmd_entry(1, "a=1"),
        cmd_entry(2, "zz=2"), // outside node 1's post-split range
        LogEntry::config(LogIndex(3), et(1), ConfigChange::SplitJoint(spec.clone())),
        LogEntry::config(LogIndex(4), et(1), ConfigChange::SplitNew(spec)),
        cmd_entry(5, "b=5"),
    ];
    node.step(
        0,
        NodeId(2),
        Message::AppendEntries {
            cluster: ClusterId(1),
            eterm: et(1),
            prev_index: LogIndex(0),
            prev_eterm: EpochTerm::ZERO,
            entries,
            leader_commit: LogIndex(5),
            probe: 0,
        },
    );
    assert_eq!(node.cluster(), ClusterId(10), "split completed");
    assert_eq!(
        node.state_machine().calls,
        vec![vec![1, 2], vec![5]],
        "the run flushed at the barrier; nothing straddled the split entries"
    );
    // The boundary mattered: zz applied pre-split and was then retained away.
    assert_eq!(node.state_machine().inner.get(b"zz"), None);
    assert_eq!(node.state_machine().inner.get(b"b"), Some(&b"5"[..]));
}

// ---- Power cut mid group-commit ---------------------------------------------

#[test]
fn power_cut_mid_group_commit_rolls_back_the_whole_batch() {
    let dir = TestDir::new("mid-commit");
    let config =
        ClusterConfig::new(ClusterId(1), [NodeId(1), NodeId(2)], RangeSet::full()).expect("config");
    {
        let mut node = Node::with_store(
            NodeId(1),
            config,
            MapMachine::default(),
            dir.open(),
            Timing::default(),
            11,
        );
        // Round 1: two entries, barrier taken → durable.
        node.step(
            0,
            NodeId(2),
            Message::AppendEntries {
                cluster: ClusterId(1),
                eterm: et(1),
                prev_index: LogIndex(0),
                prev_eterm: EpochTerm::ZERO,
                entries: vec![cmd_entry(1, "a=1"), cmd_entry(2, "b=2")],
                leader_commit: LogIndex(0),
                probe: 0,
            },
        );
        let _ = node.take_outputs();
        // Round 2: an eight-entry batch lands as ONE group-commit record,
        // and the power dies BEFORE the barrier — mid-write.
        node.step(
            1,
            NodeId(2),
            Message::AppendEntries {
                cluster: ClusterId(1),
                eterm: et(1),
                prev_index: LogIndex(2),
                prev_eterm: et(1),
                entries: (3..=10).map(|i| cmd_entry(i, "x=y")).collect(),
                leader_commit: LogIndex(0),
                probe: 0,
            },
        );
        assert_eq!(node.log().last_index(), LogIndex(10));
        // Tear partway into the batch record: some of it hit the platter.
        node.power_cut(24);
    }
    // Recovery: the torn batch rolls back ATOMICALLY — the log reboots at
    // the last barrier, never with a partial batch.
    let node = Node::reopen(
        NodeId(1),
        dir.open(),
        MapMachine::default(),
        Timing::default(),
        11,
    )
    .expect("reopen");
    assert_eq!(
        node.log().last_index(),
        LogIndex(2),
        "the whole unsynced batch is gone"
    );
    assert_eq!(node.log().eterm_at(LogIndex(2)), Some(et(1)));
}

// ---- Pipelining pays at saturation -------------------------------------------

/// Writes confirmed to clients during one measured second of an open-loop
/// run (64 sessions, each keeping 8 writes in flight) against a 3-node
/// `wal` cluster replicating under `pipeline`, and the run's mean entries
/// per AppendEntries batch.
fn open_loop_commits(pipeline: PipelineConfig) -> (u64, f64) {
    let cfg = SimConfig::with_seed(0x51BE)
        .with_backend(Backend::Wal)
        .with_pipeline(pipeline);
    let mut sim = Sim::new(cfg);
    let cluster = ClusterId(1);
    sim.boot_cluster(
        cluster,
        &[NodeId(1), NodeId(2), NodeId(3)],
        RangeSet::full(),
    );
    sim.run_until_leader(cluster);
    sim.add_clients(
        64,
        Workload {
            key_count: 10_000,
            value_size: 512,
            get_ratio: 0.0,
            pipeline: 8,
            ..Workload::default()
        },
    );
    sim.run_for(500_000); // warm-up: the backlog builds
    let from = sim.time();
    sim.run_for(1_000_000);
    let commits = sim.metrics().completed_between(from, sim.time());
    sim.check_invariants();
    (commits, sim.metrics().mean_batch_size().unwrap_or(0.0))
}

#[test]
fn pipelined_replication_commits_twice_what_lockstep_does_on_the_wal() {
    let (lockstep, _) = open_loop_commits(PipelineConfig::lockstep());
    let (pipelined, mean_batch) = open_loop_commits(PipelineConfig::default());
    assert!(
        pipelined >= 2 * lockstep,
        "pipelined replication must commit at least 2x lockstep on wal: \
         {pipelined} vs {lockstep} writes in the measured second"
    );
    assert!(
        mean_batch > 1.0,
        "an open-loop backlog must coalesce into batches, mean batch {mean_batch:.2}"
    );
}
