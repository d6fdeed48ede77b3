//! Criterion micro-benchmarks of the protocol building blocks: log appends,
//! epoch-term packing, quorum evaluation, configuration derivation, the
//! snapshot image path (encode, merge-restore, checksum and the framed
//! `snapshot.bin` write, at 1 000 pairs and at the repo benchmark's 10 000;
//! README has the before/after rows), the WAL's barrier (one 600-byte entry
//! or a hard-state change made durable) and its other operations (a
//! compaction that frees no file, a reboot over a 5 MiB snapshot), and the
//! frame writer and mux reader.
//!
//! Run with: `cargo bench -p recraft-bench --bench micro`

use bytes::{Bytes, BytesMut};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recraft_bench::preloaded_store;
use recraft_core::quorum::QuorumSpec;
use recraft_core::stack::ConfigStack;
use recraft_core::{Node, StateMachine, Timing};
use recraft_kv::KvStore;
use recraft_net::frame::put_frame;
use recraft_net::mux::MuxReader;
use recraft_net::{Envelope, Message};
use recraft_storage::{
    crc32, HardState, LogEntry, LogStore, MemLog, NodeMeta, Snapshot, WalLog, WalOptions,
};
use recraft_types::{
    ClientOp, ClientRequest, ClusterConfig, ClusterId, ConfigChange, EpochTerm, KeyRange, LogIndex,
    NodeId, RangeSet, SessionId, SplitSpec,
};
use std::collections::BTreeSet;

fn nodes(n: u64) -> BTreeSet<NodeId> {
    (1..=n).map(NodeId).collect()
}

fn bench_log_append(c: &mut Criterion) {
    c.bench_function("memlog_append_compact_4k", |b| {
        b.iter(|| {
            let mut log = MemLog::new();
            for i in 1..=4096u64 {
                log.append(LogEntry::command(
                    LogIndex(i),
                    EpochTerm::new(0, 1),
                    Bytes::from_static(b"0123456789abcdef"),
                ));
            }
            log.compact_to(LogIndex(4096), EpochTerm::new(0, 1))
                .unwrap();
            black_box(log.last_index())
        });
    });
}

fn bench_eterm(c: &mut Criterion) {
    c.bench_function("eterm_pack_compare", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for e in 0..64u32 {
                for t in 0..64u32 {
                    let et = EpochTerm::new(e, t);
                    if et > black_box(EpochTerm::new(31, 31)) {
                        acc ^= et.packed();
                    }
                }
            }
            acc
        });
    });
}

fn bench_quorum(c: &mut Criterion) {
    let joint = QuorumSpec::joint_majorities([nodes(3), nodes(5)].iter());
    let votes = nodes(5);
    c.bench_function("quorum_joint_satisfied", |b| {
        b.iter(|| black_box(joint.satisfied(black_box(&votes))));
    });
}

fn bench_derive(c: &mut Criterion) {
    let base = ClusterConfig::new(ClusterId(1), nodes(9), RangeSet::full()).unwrap();
    let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), (1..=4).map(NodeId), RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), (5..=9).map(NodeId), RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    let mut stack = ConfigStack::new(base, LogIndex::ZERO);
    stack.push(LogIndex(5), ConfigChange::SplitJoint(spec.clone()));
    stack.push(LogIndex(9), ConfigChange::SplitNew(spec));
    c.bench_function("config_stack_derive_mid_split", |b| {
        b.iter(|| black_box(stack.derive(NodeId(3))));
    });
}

/// The snapshot image path, state machine to disk: encode, merge-restore,
/// checksum, and the framed + fsynced `snapshot.bin` replacement.
fn bench_snapshot(c: &mut Criterion) {
    for (label, pairs) in [("1k", 1000u64), ("10k", 10_000)] {
        // Keys `k{i:08}` under 512-byte values; 10 000 of them is the repo
        // benchmark's keyspace, a 5.3 MB image.
        let store = preloaded_store(pairs, pairs);
        c.bench_function(&format!("kv_snapshot_{label}_pairs"), |b| {
            b.iter(|| black_box(store.snapshot(&RangeSet::full())));
        });
        let mid = format!("k{:08}", pairs / 2);
        let (lo, hi) = KeyRange::full().split_at(mid.as_bytes()).unwrap();
        let parts = [
            store.snapshot(&RangeSet::from(lo)),
            store.snapshot(&RangeSet::from(hi)),
        ];
        c.bench_function(&format!("kv_restore_merged_{label}_pairs"), |b| {
            b.iter(|| {
                let mut merged = KvStore::new();
                merged.restore_merged(black_box(&parts)).unwrap();
                black_box(merged.len())
            });
        });
    }
    let image = Bytes::from(
        (0..5u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect::<Vec<u8>>(),
    );
    c.bench_function("crc32_5mib", |b| {
        b.iter(|| black_box(crc32(black_box(&image))));
    });
    let dir = std::env::temp_dir().join(format!("recraft-micro-snap-{}", std::process::id()));
    let mut wal = WalLog::open(&dir).unwrap();
    let config = ClusterConfig::new(ClusterId(1), nodes(3), RangeSet::full()).unwrap();
    let mut snapshot = Snapshot::empty(ClusterId(1), RangeSet::full());
    snapshot.chunks = vec![image];
    c.bench_function("snapshot_save_5mib", |b| {
        b.iter(|| wal.save_snapshot(black_box(&snapshot), &config));
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL with real fsync: one 600-byte entry made durable (`append` + the
/// barrier), a term change made durable (`save_meta` + the barrier), a
/// compaction that frees no file, and a reboot — `WalLog::open` then
/// `Node::reopen` — over the repo benchmark's 5.3 MB boot image.
fn bench_wal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("recraft-micro-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let one_segment = WalOptions {
        fsync: true,
        segment_bytes: 1 << 30,
    };
    let mut wal = WalLog::open_with(dir.join("ops"), one_segment).unwrap();
    let mut meta = NodeMeta {
        hard: HardState::default(),
        cluster: ClusterId(1),
        cluster_epoch: 0,
        bootstrapped: true,
        retired: false,
        join_target: None,
        history: Vec::new(),
    };
    let (eterm, value) = (EpochTerm::new(0, 1), Bytes::from(vec![b'v'; 600]));
    c.bench_function("wal_append_600b_and_barrier", |b| {
        b.iter(|| {
            let index = wal.last_index().next();
            wal.append(LogEntry::command(index, eterm, black_box(value.clone())));
            wal.sync();
        });
    });
    c.bench_function("wal_save_meta_and_barrier", |b| {
        b.iter(|| {
            let next = EpochTerm::new(0, meta.hard.eterm.term() + 1);
            meta.hard.advance(next);
            wal.save_meta(black_box(&meta));
            wal.sync();
        });
    });
    c.bench_function("wal_compact_no_file_freed", |b| {
        b.iter(|| {
            let index = wal.last_index().next();
            wal.append(LogEntry::command(
                index,
                eterm,
                Bytes::from_static(b"0123456789abcdef"),
            ));
            wal.compact_to(index, eterm).unwrap();
        });
    });
    drop(wal);

    let config = ClusterConfig::new(ClusterId(1), nodes(3), RangeSet::full()).unwrap();
    let boot = dir.join("boot");
    drop(Node::with_store(
        NodeId(1),
        config,
        preloaded_store(10_000, 10_000),
        WalLog::open(&boot).unwrap(),
        Timing::default(),
        1,
    ));
    c.bench_function("wal_reopen_5mib_snapshot", |b| {
        b.iter(|| {
            let wal = WalLog::open(&boot).unwrap();
            let node = Node::reopen(NodeId(1), wal, KvStore::new(), Timing::default(), 1);
            black_box(node.unwrap().applied_index())
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The front door's two codec hot paths: framing one client write into a
/// connection's outbound buffer, and draining one socket read that holds a
/// 256-request backlog.
fn bench_wire(c: &mut Criterion) {
    let request = |seq| {
        let req = ClientRequest {
            session: SessionId(seq % 64),
            seq,
            op: ClientOp::Command {
                key: format!("k{seq:08}").into_bytes(),
                cmd: Bytes::from(vec![b'v'; 128]),
            },
        };
        Envelope::new(NodeId(1000), NodeId(1), Message::ClientReq { req })
    };
    let env = request(7);
    let mut out = BytesMut::new();
    c.bench_function("envelope_put_frame", |b| {
        b.iter(|| {
            out.clear();
            put_frame(&mut out, black_box(&env));
            black_box(out.len())
        });
    });
    let mut wire = BytesMut::new();
    for seq in 0..256 {
        put_frame(&mut wire, &request(seq));
    }
    c.bench_function("mux_reader_drain_256", |b| {
        b.iter(|| {
            let mut reader = MuxReader::new();
            reader.feed(black_box(&wire));
            let mut drained = 0;
            while let Some(env) = reader.next_envelope().unwrap() {
                drained += 1;
                black_box(env);
            }
            assert_eq!(drained, 256);
        });
    });
}

criterion_group!(
    benches,
    bench_log_append,
    bench_eterm,
    bench_quorum,
    bench_derive,
    bench_snapshot,
    bench_wal,
    bench_wire
);
criterion_main!(benches);
