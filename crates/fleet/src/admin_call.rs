//! One admin command's way to a member that takes it.
//!
//! ReCraft needs no external coordinator because every step is retried until
//! a member answers. [`AdminCall`] is that rule for an admin command, written
//! once for every caller — the fleet [`Controller`](crate::Controller), the
//! TCP `AdminClient::run_on_leader` and the simulator's `Sim::admin` — each
//! of which keeps its own clock and transport:
//!
//! * **where an attempt goes** — to the leader the caller saw (see
//!   [`seen_leader`]), else to the member the last answer pointed at, else
//!   to the member whose turn it is;
//! * **what an answer means** — an acceptance, or a rejection
//!   [`Error::is_transient`] does not name, ends the call. A `NotLeader`
//!   that names another member points the next attempt there. A lost
//!   attempt or any other `NotLeader` passes the turn on. Any other
//!   transient rejection (P1, P3, `MergeBlocked`) resolves where it was
//!   given, so the next attempt goes back to that member.

use recraft_net::AdminCmd;
use recraft_types::{Error, NodeId};

/// The leader a round of observations saw: of the members that claim to
/// lead, as `(commit index, id)`, the most committed one. A deposed leader
/// that has not heard of its successor commits nothing more, so it loses
/// to the successor once that has committed its first entry; ties go to
/// the higher id.
#[must_use]
pub fn seen_leader(claims: impl IntoIterator<Item = (u64, NodeId)>) -> Option<NodeId> {
    claims.into_iter().max().map(|(_, node)| node)
}

/// One admin command on its way to a member that takes it: the command,
/// the member the last answer pointed at, and whose turn it is otherwise.
/// No clock and no transport: the caller asks [`AdminCall::target`] where
/// each attempt goes and hands its answer to [`AdminCall::on_answer`].
#[derive(Debug)]
pub struct AdminCall {
    /// The command.
    pub cmd: AdminCmd,
    hint: Option<NodeId>,
    turn: usize,
}

impl AdminCall {
    /// A call for `cmd` that has made no attempt yet.
    #[must_use]
    pub fn new(cmd: AdminCmd) -> Self {
        AdminCall {
            cmd,
            hint: None,
            turn: 0,
        }
    }

    /// Where the next attempt goes: `seen_leader`, else the member the last
    /// answer pointed at, else the one of `members` whose turn it is.
    #[must_use]
    pub fn target(
        &self,
        seen_leader: Option<NodeId>,
        members: impl IntoIterator<Item = NodeId, IntoIter: ExactSizeIterator>,
    ) -> Option<NodeId> {
        let mut members = members.into_iter();
        let turn = || (self.turn.checked_rem(members.len())).and_then(|i| members.nth(i));
        seen_leader.or(self.hint).or_else(turn)
    }

    /// Takes `from`'s answer to an attempt (`None`: none came). Returns how
    /// the call ended, if it did: accepted, or rejected for good.
    pub fn on_answer(
        &mut self,
        from: NodeId,
        answer: Option<Result<(), Error>>,
    ) -> Option<Result<(), Error>> {
        match answer {
            Some(Err(Error::NotLeader(Some(leader)))) if leader != from => self.hint = Some(leader),
            None | Some(Err(Error::NotLeader(_))) => (self.hint, self.turn) = (None, self.turn + 1),
            Some(Err(e)) if e.is_transient() => self.hint = Some(from),
            Some(end) => return Some(end),
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEMBERS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

    /// The rule, one row per answer kind: `(case, the answer node 1 gives
    /// a fresh call's first attempt, how the call ends, the next target with
    /// no seen leader if it did not end)`. A seen leader (node 3) is the
    /// next target after every answer that does not end the call.
    #[test]
    fn each_answer_points_the_next_attempt_where_the_rule_says() {
        type Row = (
            &'static str,
            Option<Result<(), Error>>,
            Option<Result<(), Error>>,
            Option<u64>,
        );
        let invalid = Error::InvalidConfig("stale".into());
        let rows: [Row; 9] = [
            (
                "an acceptance ends the call",
                Some(Ok(())),
                Some(Ok(())),
                None,
            ),
            (
                "a rejection no retry cures ends the call",
                Some(Err(invalid.clone())),
                Some(Err(invalid)),
                None,
            ),
            (
                "a NotLeader naming another member points there",
                Some(Err(Error::NotLeader(Some(NodeId(2))))),
                None,
                Some(2),
            ),
            (
                "a NotLeader naming a non-member points there too",
                Some(Err(Error::NotLeader(Some(NodeId(9))))),
                None,
                Some(9),
            ),
            (
                "a NotLeader naming the member that gave it passes the turn on",
                Some(Err(Error::NotLeader(Some(NodeId(1))))),
                None,
                Some(2),
            ),
            (
                "a NotLeader naming nobody passes the turn on",
                Some(Err(Error::NotLeader(None))),
                None,
                Some(2),
            ),
            ("no answer passes the turn on", None, None, Some(2)),
            (
                "P1 is waited out on the member that gave it",
                Some(Err(Error::PreconditionP1)),
                None,
                Some(1),
            ),
            (
                "MergeBlocked is waited out on the member that gave it",
                Some(Err(Error::MergeBlocked)),
                None,
                Some(1),
            ),
        ];
        for (case, answer, ends, next) in rows {
            let mut call = AdminCall::new(AdminCmd::ProposeNoop);
            assert_eq!(call.target(Some(NodeId(3)), MEMBERS), Some(NodeId(3)));
            let first = call.target(None, MEMBERS);
            assert_eq!(first, Some(NodeId(1)), "{case}: first attempt");
            assert_eq!(call.on_answer(NodeId(1), answer), ends, "{case}");
            let Some(next) = next else {
                assert!(ends.is_some(), "{case}: the call ended");
                continue;
            };
            let led = call.target(Some(NodeId(3)), MEMBERS);
            assert_eq!(led, Some(NodeId(3)), "{case}: the seen leader first");
            assert_eq!(call.target(None, MEMBERS), Some(NodeId(next)), "{case}");
        }
    }

    /// The turn walks the members in order and wraps; an answer pointing
    /// elsewhere leaves it where it was.
    #[test]
    fn the_turn_walks_the_members_and_wraps() {
        let mut call = AdminCall::new(AdminCmd::ProposeNoop);
        let mut asked = Vec::new();
        for _ in 0..4 {
            let to = call.target(None, MEMBERS).expect("a member");
            asked.push(to.0);
            assert_eq!(call.on_answer(to, None), None);
        }
        assert_eq!(asked, [1, 2, 3, 1]);
        let hinted = Some(Err(Error::NotLeader(Some(NodeId(3)))));
        assert_eq!(call.on_answer(NodeId(2), hinted), None);
        assert_eq!(call.target(None, MEMBERS), Some(NodeId(3)));
        assert_eq!(call.on_answer(NodeId(3), None), None);
        assert_eq!(call.target(None, MEMBERS), Some(NodeId(3)), "turn 5 of 3");
    }

    /// With no member, no seen leader and no pointer there is no target;
    /// either of the other two still gives one.
    #[test]
    fn an_empty_member_list_gives_no_target() {
        let mut call = AdminCall::new(AdminCmd::ProposeNoop);
        assert_eq!(call.target(None, []), None);
        assert_eq!(call.target(Some(NodeId(4)), []), Some(NodeId(4)));
        assert_eq!(
            call.on_answer(NodeId(4), Some(Err(Error::PreconditionP3))),
            None
        );
        assert_eq!(call.target(None, []), Some(NodeId(4)));
    }

    /// The most committed claimant leads; ties go to the higher id.
    #[test]
    fn the_seen_leader_is_the_most_committed_claimant() {
        assert_eq!(seen_leader([]), None);
        let claims = [(7, NodeId(1)), (9, NodeId(3)), (8, NodeId(2))];
        assert_eq!(seen_leader(claims), Some(NodeId(3)));
        assert_eq!(
            seen_leader([(5, NodeId(2)), (5, NodeId(1))]),
            Some(NodeId(2))
        );
    }
}
