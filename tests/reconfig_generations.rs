//! Multi-generation reconfigurations: clusters that split, split again, and
//! merge across generations — epochs keep climbing and every node always
//! lands in a consistent configuration (§V's "continuous split, merge, and
//! membership changes").

use recraft::net::AdminCmd;
use recraft::sim::{Sim, SimConfig, Workload};
use recraft::types::{
    ClusterConfig, ClusterId, MergeParticipant, MergeTx, NodeId, RangeSet, SplitSpec, TxId,
};

const SEC: u64 = 1_000_000;

fn ids(r: std::ops::RangeInclusive<u64>) -> Vec<NodeId> {
    r.map(NodeId).collect()
}

fn split_two(
    sim: &mut Sim,
    src: ClusterId,
    at: &[u8],
    left: (ClusterId, Vec<NodeId>),
    right: (ClusterId, Vec<NodeId>),
) {
    let leader = sim.leader_of(src).unwrap();
    let base = sim.node(leader).unwrap().config().clone();
    // Split the (single) range the cluster currently serves.
    let range = base
        .ranges()
        .ranges()
        .iter()
        .find(|r| r.contains(at))
        .expect("split key inside served range")
        .clone();
    let (lo, hi) = range.split_at(at).unwrap();
    // Other ranges (if any) stay with the left subcluster.
    let mut left_ranges = RangeSet::from(lo);
    for r in base.ranges().ranges() {
        if r != &range {
            left_ranges.insert(r.clone()).unwrap();
        }
    }
    let spec = SplitSpec::new(
        vec![
            ClusterConfig::new(left.0, left.1, left_ranges).unwrap(),
            ClusterConfig::new(right.0, right.1, RangeSet::from(hi)).unwrap(),
        ],
        base.members(),
        base.ranges(),
    )
    .unwrap();
    sim.admin(src, AdminCmd::Split(spec));
    let (l, r) = (left.0, right.0);
    sim.run_until_pred(60 * SEC, |s| {
        s.leader_of(l).is_some() && s.leader_of(r).is_some()
    });
}

#[test]
fn second_generation_split_raises_epoch_twice() {
    let mut sim = Sim::new(SimConfig::with_seed(0x6E61));
    let root = ClusterId(1);
    sim.boot_cluster(root, &ids(1..=8), RangeSet::full());
    sim.run_until_leader(root);
    sim.add_clients(4, Workload::default());
    sim.run_for(2 * SEC);

    // Generation 1: 8 nodes -> 4 + 4.
    split_two(
        &mut sim,
        root,
        b"k00005000",
        (ClusterId(10), ids(1..=4)),
        (ClusterId(11), ids(5..=8)),
    );
    sim.run_for(SEC);
    // Generation 2: the left half splits again -> 2 + 2.
    split_two(
        &mut sim,
        ClusterId(10),
        b"k00002500",
        (ClusterId(20), ids(1..=2)),
        (ClusterId(21), ids(3..=4)),
    );
    sim.run_for(SEC);

    // Epochs: generation-2 clusters are at epoch 2; the untouched right half
    // stays at epoch 1.
    for id in ids(1..=4) {
        assert_eq!(
            sim.node(id).unwrap().current_eterm().epoch(),
            2,
            "{id} in a generation-2 cluster"
        );
    }
    for id in ids(5..=8) {
        assert_eq!(sim.node(id).unwrap().current_eterm().epoch(), 1);
    }
    // Three disjoint serving clusters cover the keyspace.
    for key in [b"k00001000".as_slice(), b"k00004000", b"k00008000"] {
        let owners: Vec<ClusterId> = sim
            .nodes()
            .filter(|n| n.is_leader() && n.config().ranges().contains(key))
            .map(|n| n.cluster())
            .collect();
        assert_eq!(owners.len(), 1, "key {key:?} owned once: {owners:?}");
    }

    // Cross-generation merge: a generation-2 cluster (epoch 2) merges with
    // the generation-1 cluster (epoch 1); the result is at max(2,1)+1 = 3.
    let tx = MergeTx {
        id: TxId(99),
        coordinator: ClusterId(21),
        participants: vec![
            MergeParticipant {
                cluster: ClusterId(21),
                members: ids(3..=4).into_iter().collect(),
            },
            MergeParticipant {
                cluster: ClusterId(11),
                members: ids(5..=8).into_iter().collect(),
            },
        ],
        new_cluster: ClusterId(30),
        resume_members: None,
    };
    sim.admin(ClusterId(21), AdminCmd::Merge(tx));
    // The old coordinator leader campaigns the moment it resumes, so the
    // merged cluster can lead before its last member has resumed.
    sim.run_until_pred(90 * SEC, |s| {
        s.leader_of(ClusterId(30)).is_some() && s.members_of(ClusterId(30)).len() == 6
    });
    let leader = sim.leader_of(ClusterId(30)).unwrap();
    assert_eq!(sim.node(leader).unwrap().current_eterm().epoch(), 3);
    assert_eq!(sim.members_of(ClusterId(30)).len(), 6);

    sim.run_for(2 * SEC);
    sim.check_invariants();
    sim.check_linearizability();
}

#[test]
fn membership_change_inside_a_subcluster_after_split() {
    // Epoch numbers are NOT updated for membership changes (§III-A): a
    // subcluster created by a split can grow without touching its epoch.
    let mut sim = Sim::new(SimConfig::with_seed(0x6E62));
    let root = ClusterId(1);
    sim.boot_cluster(root, &ids(1..=6), RangeSet::full());
    sim.run_until_leader(root);
    sim.run_for(SEC);
    split_two(
        &mut sim,
        root,
        b"k00005000",
        (ClusterId(10), ids(1..=3)),
        (ClusterId(11), ids(4..=6)),
    );
    sim.run_for(SEC);
    // Grow subcluster 10 by two joiners.
    sim.boot_joiner(NodeId(7));
    sim.boot_joiner(NodeId(8));
    sim.admin(
        ClusterId(10),
        AdminCmd::AddAndResize([NodeId(7), NodeId(8)].into_iter().collect()),
    );
    sim.run_until_pred(30 * SEC, |s| {
        s.leader_of(ClusterId(10)).is_some_and(|l| {
            let n = s.node(l).unwrap();
            n.config().members().len() == 5 && n.config().quorum_size() == 3
        })
    });
    let leader = sim.leader_of(ClusterId(10)).unwrap();
    assert_eq!(
        sim.node(leader).unwrap().current_eterm().epoch(),
        1,
        "membership changes do not bump the epoch"
    );
    // The joiners adopted the subcluster's identity and epoch.
    sim.run_until_pred(30 * SEC, |s| {
        [7u64, 8].iter().all(|id| {
            let n = s.node(NodeId(*id)).unwrap();
            n.cluster() == ClusterId(10) && n.current_eterm().epoch() == 1
        })
    });
    sim.check_invariants();
}

#[test]
fn random_reconfiguration_storm() {
    // A seeded storm of alternating splits and merges under client load;
    // safety and linearizability must hold throughout, and the system must
    // end with every key served by exactly one cluster.
    for seed in [11u64, 12] {
        let mut sim = Sim::new(SimConfig::with_seed(seed));
        let root = ClusterId(1);
        sim.boot_cluster(root, &ids(1..=6), RangeSet::full());
        sim.run_until_leader(root);
        sim.add_clients(4, Workload::default());
        sim.run_for(2 * SEC);
        // Split, merge back, split again at a different key, merge back.
        split_two(
            &mut sim,
            root,
            b"k00003000",
            (ClusterId(10), ids(1..=3)),
            (ClusterId(11), ids(4..=6)),
        );
        sim.run_for(SEC);
        let tx = MergeTx {
            id: TxId(seed),
            coordinator: ClusterId(10),
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
            new_cluster: ClusterId(12),
            resume_members: None,
        };
        sim.admin(ClusterId(10), AdminCmd::Merge(tx));
        sim.run_until_pred(90 * SEC, |s| s.leader_of(ClusterId(12)).is_some());
        sim.run_for(SEC);
        split_two(
            &mut sim,
            ClusterId(12),
            b"k00007000",
            (ClusterId(13), ids(1..=3)),
            (ClusterId(14), ids(4..=6)),
        );
        sim.run_for(2 * SEC);
        // Coverage: every probe key served by exactly one leader.
        for key in [b"k00000001".as_slice(), b"k00005000", b"k00009999"] {
            let owners = sim
                .nodes()
                .filter(|n| n.is_leader() && n.config().ranges().contains(key))
                .count();
            assert_eq!(owners, 1, "seed {seed}: key {key:?}");
        }
        // The final epoch reflects the whole lineage: split (1), merge (2),
        // split (3).
        let l = sim.leader_of(ClusterId(13)).unwrap();
        assert_eq!(sim.node(l).unwrap().current_eterm().epoch(), 3);
        sim.check_invariants();
        sim.check_linearizability();
    }
}
