//! Pinned simulator traces: five scenarios, replayed step for step, must
//! produce the same node events and the same client history as the code
//! they were pinned on. Between them they cover a split and a merge under
//! put-only and under read-mixed client load (ReadIndex reads through the
//! split's leave phase and the merge), `AddAndResize`, a crash and restart,
//! a power cut and `RebootFromDisk`, and an autonomous `FleetHarness`
//! campaign.
//!
//! Each digest is FNV-1a over the scenario's `dump_trace` event lines and
//! its client history. The trace does not depend on `RECRAFT_BACKEND`, but
//! the durable state machine shapes snapshots and so the schedule: each
//! scenario has one digest per `RECRAFT_SM` value. Re-cut a digest only for
//! a protocol change recorded in CHANGES.md, as with the golden wire lines.

use recraft::net::AdminCmd;
use recraft::sim::{Action, FleetConfig, FleetHarness, Sim, SimConfig, SmKind, Workload};
use recraft::types::{
    ClusterConfig, ClusterId, MergeParticipant, MergeTx, NodeId, RangeSet, SplitSpec, TxId,
};
use std::collections::BTreeSet;

const SEC: u64 = 1_000_000;

/// `(scenario, digest with RECRAFT_SM=mem, digest with RECRAFT_SM=durable)`.
const PINNED: [(&str, u64, u64); 5] = [
    (
        "split_then_merge",
        0xd062_1af2_96c2_c988,
        0xcaba_b24f_2406_a428,
    ),
    (
        "split_across_a_leader_crash",
        0xbcb9_ffb1_4e4d_2730,
        0x66cf_772f_ddd2_7946,
    ),
    (
        "add_and_resize_across_a_power_cut",
        0x5fff_4410_dd87_b169,
        0x5fff_4410_dd87_b169,
    ),
    (
        "idle_fleet_merges_down",
        0x74ed_7a3e_3518_f8e4,
        0x74ed_7a3e_3518_f8e4,
    ),
    (
        "reads_through_a_split_and_merge",
        0xbbfe_a704_c81d_ec5f,
        0xb968_16a3_3001_433f,
    ),
];

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

/// FNV-1a, 64 bits: stable across toolchains, unlike `DefaultHasher`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of a run: its trace's event lines (the header names the
/// backend, so it is left out), then its client history.
fn digest(sim: &Sim, name: &str) -> u64 {
    let path = std::env::temp_dir().join(format!(
        "recraft-trace-digest-{}-{name}.log",
        std::process::id()
    ));
    sim.dump_trace(&path).expect("write trace");
    let trace = std::fs::read_to_string(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for line in trace.lines().filter(|line| !line.starts_with('#')) {
        hash = fnv(hash, line.as_bytes());
        hash = fnv(hash, b"\n");
    }
    for op in sim.history() {
        hash = fnv(hash, format!("{op:?}\n").as_bytes());
    }
    hash
}

fn check(sim: &Sim, name: &str) {
    sim.check_invariants();
    sim.check_linearizability();
    let actual = digest(sim, name);
    let (_, mem, durable) = PINNED
        .iter()
        .find(|(pinned, ..)| *pinned == name)
        .expect("a pinned scenario");
    let pinned = match sim.config().sm {
        SmKind::Mem => mem,
        SmKind::Durable => durable,
    };
    assert_eq!(
        actual, *pinned,
        "{name}: trace digest {actual:#x} differs from the pinned {pinned:#x}"
    );
}

fn two_way_spec(sim: &Sim, src: ClusterId) -> SplitSpec {
    let leader = sim.leader_of(src).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    let (lo, hi) = base.ranges().ranges()[0].split_at(b"k00005000").unwrap();
    SplitSpec::new(
        vec![
            ClusterConfig::new(ClusterId(10), ids(1..=3), RangeSet::from(lo)).unwrap(),
            ClusterConfig::new(ClusterId(11), ids(4..=6), RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap()
}

/// A 6-node cluster under eight clients running `workload` splits in two,
/// and the halves merge back.
fn split_then_merge_under(workload: Workload, name: &str) {
    let mut sim = Sim::new(SimConfig::with_seed(0x11FE));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    sim.add_clients(8, workload);
    sim.run_for(3 * SEC);
    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    sim.run_for(3 * SEC);
    let tx = MergeTx {
        id: TxId(9),
        coordinator: ClusterId(11),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(10),
                members: ids(1..=3).into_iter().collect(),
            },
            MergeParticipant {
                cluster: ClusterId(11),
                members: ids(4..=6).into_iter().collect(),
            },
        ],
        new_cluster: ClusterId(20),
        resume_members: None,
    };
    sim.admin(ClusterId(11), AdminCmd::Merge(tx));
    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(ClusterId(20)).is_some() && s.members_of(ClusterId(20)).len() == 6
    });
    sim.run_for(3 * SEC);
    check(&sim, name);
}

/// `split_merge_lifecycle::full_lifecycle_split_then_merge`.
#[test]
fn split_then_merge() {
    split_then_merge_under(Workload::default(), "split_then_merge");
}

/// The same shape with half the operations linearizable `Get`s and four in
/// flight per client, so ReadIndex reads are confirmed, served, bounced
/// and redirected all through the split's leave phase and the merge.
#[test]
fn reads_through_a_split_and_merge() {
    let workload = Workload {
        get_ratio: 0.5,
        pipeline: 4,
        ..Workload::default()
    };
    split_then_merge_under(workload, "reads_through_a_split_and_merge");
}

/// `fault_injection::split_survives_leader_crash_mid_operation`.
#[test]
fn split_across_a_leader_crash() {
    let mut sim = Sim::new(SimConfig::with_seed(0xFA17));
    let src = ClusterId(1);
    sim.boot_cluster(src, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(src);
    sim.add_clients(4, Workload::default());
    sim.run_for(2 * SEC);
    let leader = sim.leader_of(src).unwrap();
    let spec = two_way_spec(&sim, src);
    sim.admin(src, AdminCmd::Split(spec));
    let t = sim.time();
    sim.schedule_action(t + 30_000, Action::Crash(leader));
    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some() && s.leader_of(ClusterId(11)).is_some()
    });
    let t = sim.time();
    sim.schedule_action(t + SEC, Action::Restart(leader));
    sim.run_until_pred(60 * SEC, |s| {
        s.node(leader).unwrap().current_eterm().epoch() == 1
    });
    sim.run_for(2 * SEC);
    check(&sim, "split_across_a_leader_crash");
}

/// `crash_recovery::membership_change_completes_across_a_crash`.
#[test]
fn add_and_resize_across_a_power_cut() {
    let mut sim = Sim::new(SimConfig::with_seed(0xADD1));
    let cluster = ClusterId(1);
    sim.boot_cluster(cluster, &ids(1..=3), RangeSet::full());
    sim.run_until_leader(cluster);
    sim.boot_joiner(NodeId(4));
    sim.boot_joiner(NodeId(5));
    let add: BTreeSet<NodeId> = [NodeId(4), NodeId(5)].into_iter().collect();
    let req = sim.admin(cluster, AdminCmd::AddAndResize(add));
    let at = sim.time() + SEC / 5;
    sim.schedule_action(at, Action::PowerCut(NodeId(2)));
    sim.schedule_action(at + 2 * SEC, Action::RebootFromDisk(NodeId(2)));
    sim.run_until_pred(60 * SEC, |s| s.admin_completed_at(req).is_some());
    sim.run_for(10 * SEC);
    check(&sim, "add_and_resize_across_a_power_cut");
}

/// `fleet_scenarios::idle_fleet_merges_down_to_min_ranges`.
#[test]
fn idle_fleet_merges_down() {
    let fleet = FleetConfig {
        split_ops: 120,
        merge_ops: 5,
        split_bytes: 64 << 20,
        merge_bytes: 16 << 20,
        cooldown_us: 2 * SEC,
        stall_us: 60 * SEC,
        max_inflight: 2,
        replication: 1,
        min_ranges: 1,
        max_ranges: 64,
    };
    let mut h = FleetHarness::new(SimConfig::with_seed(0xF1EE_0001), fleet, 500_000);
    h.boot_fleet(4, 10_000);
    h.run(90 * SEC);
    assert_eq!(h.report().ranges, 1);
    check(&h.sim, "idle_fleet_merges_down");
}
