//! The seat host: the round one thread runs over the nodes it hosts,
//! sans-io.
//!
//! A [`Shard`] owns a set of nodes ("seats"). The TCP runtime's workers and
//! the simulator both drive one, so the ordering rules below are the code
//! production runs *and* the code a seed replays. The embedder feeds in what
//! arrived ([`Shard::step`]) and the clock ([`Shard::tick`]), then calls
//! [`Shard::flush`], which externalizes the round:
//!
//! * **A seat's barrier comes before any of its output.** Each seat that has
//!   something to externalize ([`Node::has_outputs`]) takes its write-ahead
//!   barrier ([`Node::take_outputs`]) and only then hands its outbox on, so
//!   no vote or ack leaves ahead of the state it promises. One barrier covers
//!   everything the seat drained since its last one (group commit per seat);
//!   a seat that externalized nothing skips it, so an idle range costs no
//!   fsync.
//! * **Same-shard traffic is stepped in the round that produced it.** An
//!   envelope addressed to another seat of this shard is held for an
//!   in-round pass, where the embedder's route closure decides at delivery
//!   whether it is stepped or dropped (a link cut since it was sent). The
//!   pass again takes the barrier of every seat that produced output and
//!   routes what it sent — so a request → append → ack → reply exchange
//!   among co-hosted seats costs one round, not three. At most
//!   [`LOCAL_PASSES`] passes run; what the last one leaves goes back to the
//!   embedder, which offers it as arrived in its next round.
//! * **A seat leaves at its barrier.** [`Shard::take_out`] flushes the
//!   seat's final barrier before handing the node back, for a migration, a
//!   removal, or a crash between rounds (where every output has already been
//!   externalized, so the barrier promotes nothing anybody was told).
//! * **Status is reported, changes flagged.** Every seat visited in a pass
//!   yields a [`Flushed`] saying whether its leader flag, cluster or
//!   retirement changed since its last report — what wakes anyone waiting
//!   on a placement — with its load and its elections and snapshot installs
//!   since then.
//!
//! The embedder keeps the I/O and the world: sockets, latency, loss, which
//! links are cut, which addresses are live, and who owns a seat not hosted
//! here. It sees those through the route closure and acts on each
//! [`Flushed`] outbox itself.

use crate::events::NodeEvent;
use crate::node::{Node, Role};
use crate::sm::StateMachine;
use recraft_net::Envelope;
use recraft_storage::LogStore;
use recraft_types::{ClusterId, NodeId};
use std::collections::BTreeMap;

/// Ceiling on in-round passes: how many times a round steps the envelopes
/// its own seats addressed to each other before leaving the rest to the
/// next round. A request → append → ack → reply exchange among co-hosted
/// seats takes two; the bound keeps a chatty shard from starving its
/// embedder's I/O.
pub const LOCAL_PASSES: usize = 4;

/// What one seat externalized at one visit of a round. The counts run
/// from the seat's previous report.
#[derive(Debug)]
pub struct Flushed {
    /// The seat.
    pub seat: NodeId,
    /// Its outbox in send order, less what is stepped in-round; empty when
    /// the seat took no barrier.
    pub outbox: Vec<Envelope>,
    /// Its trace events, in order.
    pub events: Vec<NodeEvent>,
    /// The leader flag, cluster or retirement changed (or this is the
    /// first report since adoption).
    pub moved: bool,
    /// Envelopes stepped into the seat plus messages it sent: its load.
    pub steps: u64,
    /// Of those stepped, the ones an in-round pass delivered.
    pub local: u64,
    /// Elections it won.
    pub elections: u64,
    /// Snapshots it installed.
    pub snapshot_installs: u64,
}

/// One hosted node, with the placement and load since its last report.
struct Seat<SM, LS> {
    node: Node<SM, LS>,
    reported: Option<(bool, ClusterId, bool)>,
    steps: u64,
    local: u64,
}

/// A set of co-hosted seats and the round that drives them. See the
/// [module documentation](self).
pub struct Shard<SM, LS> {
    seats: BTreeMap<NodeId, Seat<SM, LS>>,
}

impl<SM, LS> Default for Shard<SM, LS> {
    fn default() -> Self {
        Shard {
            seats: BTreeMap::new(),
        }
    }
}

impl<SM: StateMachine, LS: LogStore> Shard<SM, LS> {
    /// Hosts `node` from the next round on.
    pub fn adopt(&mut self, node: Node<SM, LS>) {
        let seat = Seat {
            node,
            reported: None,
            steps: 0,
            local: 0,
        };
        self.seats.insert(seat.node.id(), seat);
    }

    /// Hands the seat for `id` back once its final barrier has flushed
    /// whatever it wrote. Between rounds a seat holds no unsent output.
    pub fn take_out(&mut self, id: NodeId) -> Option<Node<SM, LS>> {
        let mut seat = self.seats.remove(&id)?;
        let _ = seat.node.take_outputs();
        Some(seat.node)
    }

    /// The hosted node `id`.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node<SM, LS>> {
        self.seats.get(&id).map(|seat| &seat.node)
    }

    /// The earliest [`Node::next_deadline`] among the seats.
    #[must_use]
    pub fn next_deadline(&self) -> u64 {
        let due = self.seats.values().map(|seat| seat.node.next_deadline());
        due.min().unwrap_or(u64::MAX)
    }

    /// Steps an arrived envelope into its seat. Hands it back when the
    /// shard does not host `env.to`.
    #[must_use]
    pub fn step(&mut self, now: u64, env: Envelope) -> Option<Envelope> {
        let Some(seat) = self.seats.get_mut(&env.to) else {
            return Some(env);
        };
        seat.steps += 1;
        seat.node.step(now, env.from, env.msg);
        None
    }

    /// Advances every seat's timers to `now`.
    pub fn tick(&mut self, now: u64) {
        for seat in self.seats.values_mut() {
            seat.node.tick(now);
        }
    }

    /// Externalizes the round: a pass visiting every seat, then up to
    /// [`LOCAL_PASSES`] passes, each stepping what the one before addressed
    /// among seats and visiting the seats it stepped. A visit takes the
    /// seat's barrier iff it has output, then reports it. `route` is asked
    /// about each envelope a pass would step (`false` drops it); `emit` gets
    /// the shard and each pass's reports when the pass is done. Returns, in
    /// send order, the envelopes among seats that the last pass left: the
    /// embedder offers them as arrived in its next round.
    pub fn flush(
        &mut self,
        now: u64,
        mut route: impl FnMut(&Envelope) -> bool,
        mut emit: impl FnMut(&Self, std::vec::Drain<'_, Flushed>),
    ) -> Vec<Envelope> {
        let mut left: Vec<Envelope> = Vec::new();
        let mut visit: Vec<NodeId> = self.seats.keys().copied().collect();
        let mut pass = Vec::with_capacity(visit.len());
        for n in 0..=LOCAL_PASSES {
            if n > 0 {
                if left.is_empty() {
                    break;
                }
                visit.clear();
                for env in std::mem::take(&mut left) {
                    let to = env.to;
                    if route(&env) && self.step(now, env).is_none() {
                        visit.push(to);
                        self.seats.get_mut(&to).expect("just stepped").local += 1;
                    }
                }
                visit.sort_unstable();
                visit.dedup();
            }
            for id in &visit {
                pass.extend(self.visit(*id, &mut left));
            }
            emit(self, pass.drain(..));
        }
        left
    }

    fn visit(&mut self, id: NodeId, left: &mut Vec<Envelope>) -> Option<Flushed> {
        let seat = self.seats.get_mut(&id)?;
        let (mut outbox, events) = if seat.node.has_outputs() {
            seat.node.take_outputs()
        } else {
            Default::default()
        };
        let node = &seat.node;
        let placement = Some((
            node.is_leader(),
            node.cluster(),
            node.role() == Role::Removed,
        ));
        let moved = std::mem::replace(&mut seat.reported, placement) != placement;
        let steps = std::mem::take(&mut seat.steps) + outbox.len() as u64;
        let local = std::mem::take(&mut seat.local);
        let count = |f: fn(&NodeEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        let elections = count(|e| matches!(e, NodeEvent::BecameLeader { .. }));
        let snapshot_installs = count(|e| matches!(e, NodeEvent::SnapshotInstalled { .. }));
        left.extend(outbox.extract_if(.., |env| self.seats.contains_key(&env.to)));
        Some(Flushed {
            seat: id,
            outbox,
            events,
            moved,
            steps,
            local,
            elections,
            snapshot_installs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MapMachine, Timing};
    use bytes::Bytes;
    use recraft_net::{AdminCmd, Message};
    use recraft_storage::MemLog;
    use recraft_types::{
        ClientOp, ClientRequest, ClusterConfig, EpochTerm, LogIndex, RangeSet, SessionId,
    };

    type TestShard = Shard<MapMachine, MemLog>;

    const IDS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];
    const CLIENT: NodeId = NodeId(1_000_000);
    const ADMIN: NodeId = NodeId(2_000_000);

    /// A shard hosting `seats` of one three-node cluster (node 1, the
    /// smallest id, campaigns on its first tick).
    fn shard(seats: &[NodeId]) -> TestShard {
        let config = ClusterConfig::new(ClusterId(1), IDS, RangeSet::full()).expect("config");
        let mut shard = TestShard::default();
        for id in seats {
            let node = Node::with_store(
                *id,
                config.clone(),
                MapMachine::default(),
                MemLog::new(),
                Timing::default(),
                id.0,
            );
            shard.adopt(node);
        }
        shard
    }

    /// Whether the node's log and epoch-term are durable: a power cut of a
    /// copy of its log (which drops what lies past the sync watermark) keeps
    /// every entry and the node's current epoch-term.
    fn durable(node: &Node<MapMachine, MemLog>) -> bool {
        let mut cut = node.log().clone();
        cut.power_cut(0);
        let eterm = cut.load_meta().map(|meta| meta.hard.eterm);
        cut.last_index() == node.log().last_index() && eterm == Some(node.current_eterm())
    }

    /// What one round returned: envelopes leaving the shard, the reports,
    /// how many envelopes the route accepted, how many the passes stepped,
    /// and what they left.
    struct Round {
        out: Vec<Envelope>,
        /// Seat, outbox length, event count, moved.
        reports: Vec<(NodeId, usize, usize, bool)>,
        routed: u64,
        local: u64,
        left: Vec<Envelope>,
    }

    /// Steps `arrived`, ticks at `now` and flushes with every link up,
    /// asserting at each pass that a seat reporting output was durable.
    fn round(shard: &mut TestShard, now: u64, arrived: Vec<Envelope>) -> Round {
        for env in arrived {
            assert!(shard.step(now, env).is_none(), "a hosted seat");
        }
        shard.tick(now);
        let (mut out, mut reports, mut routed, mut local) = (Vec::new(), Vec::new(), 0, 0);
        let left = shard.flush(
            now,
            |_| {
                routed += 1;
                true
            },
            |shard, pass| {
                for f in pass {
                    let node = shard.node(f.seat).expect("reported seats are hosted");
                    if !f.outbox.is_empty() || !f.events.is_empty() {
                        assert!(
                            durable(node),
                            "{} externalized ahead of its barrier",
                            f.seat
                        );
                    }
                    reports.push((f.seat, f.outbox.len(), f.events.len(), f.moved));
                    local += f.local;
                    out.extend(f.outbox);
                }
            },
        );
        Round {
            out,
            reports,
            routed,
            local,
            left,
        }
    }

    fn put(seq: u64) -> Envelope {
        let req = ClientRequest {
            session: SessionId(7),
            seq,
            op: ClientOp::Command {
                key: b"k".to_vec(),
                cmd: Bytes::from(format!("k={seq}")),
            },
        };
        Envelope::new(CLIENT, NodeId(1), Message::ClientReq { req })
    }

    fn admin(cmd: AdminCmd) -> Envelope {
        Envelope::new(ADMIN, NodeId(1), Message::AdminReq { req_id: 1, cmd })
    }

    /// Boots the cluster in one shard: node 1 wins its election within the
    /// first round, its no-op committed by the in-round passes.
    fn elected() -> TestShard {
        let mut s = shard(&IDS);
        let r = round(&mut s, 1_000, Vec::new());
        assert!(s.node(NodeId(1)).is_some_and(Node::is_leader));
        assert_eq!((r.routed, r.local), (8, 8));
        s
    }

    #[test]
    fn no_seat_externalizes_ahead_of_its_barrier() {
        // Co-hosted: every exchange of a write runs inside one round.
        let mut s = elected();
        let r = round(&mut s, 2_000, vec![put(1)]);
        assert_eq!(r.local, 4, "two appends, two acks");
        assert!(matches!(&r.out[..], [Envelope { to: CLIENT, .. }]));
        // A follower that acks in one pass and appends in the next: its
        // report leaves before the next pass steps it.
        let follower = s.take_out(NodeId(2)).expect("hosted");
        let r = round(&mut s, 3_000, vec![put(2)]);
        let append = r.out.into_iter().find(|env| env.to == NodeId(2));
        s.adopt(follower);
        let arrived = vec![put(3), append.expect("an append for node 2")];
        let r = round(&mut s, 4_000, arrived);
        assert!(r.local >= 4);

        // Split across two shards, relayed by hand: each envelope leaves a
        // shard only in a report made after its sender's barrier.
        let (mut a, mut b) = (shard(&IDS[..2]), shard(&IDS[2..]));
        let (mut to_a, mut to_b) = (Vec::new(), Vec::new());
        for t in 1..20 {
            let (ra, rb) = (
                round(&mut a, t * 1_000, to_a),
                round(&mut b, t * 1_000, to_b),
            );
            let out = ra.out.into_iter().chain(rb.out);
            (to_a, to_b) = out.partition(|env| a.node(env.to).is_some());
            to_b.retain(|env| env.to != CLIENT);
            if t == 5 {
                to_a.push(put(1));
            }
        }
        let leader = a.node(NodeId(1)).expect("hosted");
        assert!(leader.is_leader() && leader.commit_index() == LogIndex(2));
        let follower = b.node(NodeId(3)).map(|n| n.log().last_index());
        assert_eq!(follower, Some(LogIndex(2)));
    }

    #[test]
    fn a_seat_with_nothing_to_send_takes_no_barrier() {
        let mut s = shard(&IDS[1..2]);
        // A vote answer from a later term makes a follower adopt the term,
        // and it owes nobody a message.
        let resp = Message::VoteResp {
            cluster: ClusterId(1),
            eterm: EpochTerm::new(0, 5),
            granted: false,
            pull: None,
        };
        let r = round(
            &mut s,
            1_000,
            vec![Envelope::new(NodeId(3), NodeId(2), resp)],
        );
        assert_eq!(r.reports, vec![(NodeId(2), 0, 0, true)]);
        let node = s.node(NodeId(2)).expect("hosted");
        assert_eq!(node.current_eterm(), EpochTerm::new(0, 5));
        assert!(!durable(node), "no output, so no barrier");
        // Leaving the shard takes it.
        assert!(durable(&s.take_out(NodeId(2)).expect("hosted")));
    }

    #[test]
    fn a_seat_taken_out_has_flushed_its_barrier() {
        let mut s = elected();
        assert!(s.step(2_000, put(1)).is_none(), "hosted");
        assert!(
            !durable(s.node(NodeId(1)).expect("hosted")),
            "appended, unsynced"
        );
        let node = s.take_out(NodeId(1)).expect("hosted");
        assert!(durable(&node));
        assert_eq!(node.log().last_index(), LogIndex(2));
        assert!(s.node(NodeId(1)).is_none());
    }

    #[test]
    fn envelopes_left_after_the_last_pass_come_back() {
        // Joint consensus takes more exchanges than a round has passes.
        let mut s = elected();
        let r = round(
            &mut s,
            2_000,
            vec![admin(AdminCmd::JointChange([NodeId(1), NodeId(2)].into()))],
        );
        assert_eq!(r.local, 8);
        let left = r.left;
        assert!(!left.is_empty(), "the last pass left envelopes");
        assert_eq!(r.routed, r.local, "none dropped");
        // Offered as arrived, they finish the change in the next round.
        let r = round(&mut s, 3_000, left);
        assert!(r.left.is_empty());
        assert_eq!(r.routed, r.local);
        let members = s.node(NodeId(1)).map(|n| n.config().members().clone());
        assert_eq!(members, Some(IDS[..2].iter().copied().collect()));
    }

    #[test]
    fn a_pass_drops_what_the_route_refuses_at_delivery() {
        let mut s = elected();
        assert!(s.step(2_000, put(1)).is_none());
        // The links are cut once the leader's report is out, as a test
        // isolates a leader when its reply arrives: the appends routed in
        // that pass must not cross the cut.
        let cut = std::cell::Cell::new(false);
        let mut local = 0;
        let left = s.flush(
            2_000,
            |_| !cut.get(),
            |_, pass| {
                local += pass.map(|f| f.local).sum::<u64>();
                cut.set(true);
            },
        );
        assert_eq!(local, 0);
        assert!(left.is_empty());
        let follower = s.node(NodeId(2)).map(|n| n.log().last_index());
        assert_eq!(follower, Some(LogIndex(1)), "never stepped");
    }

    #[test]
    fn a_report_flags_a_changed_placement_once() {
        let mut s = shard(&IDS);
        let r = round(&mut s, 1_000, Vec::new());
        let moved = |id: NodeId| -> Vec<bool> {
            let seat = r.reports.iter().filter(|report| report.0 == id);
            seat.map(|report| report.3).collect()
        };
        assert_eq!(
            moved(NodeId(1)),
            vec![true, true, false],
            "adopted, then elected"
        );
        assert_eq!(moved(NodeId(2)), vec![true, false, false], "adopted only");
        let r = round(&mut s, 2_000, Vec::new());
        assert!(r.reports.iter().all(|report| !report.3), "nothing changed");
    }
}
