//! The autonomous reconfiguration controller.
//!
//! A sans-io planner over the fleet: the embedding samples every range's
//! load and size each interval and calls [`Controller::plan`]; the
//! controller answers with the admin-plane commands that reshape the fleet
//! — ReCraft splits for hot or oversized ranges, ReCraft merges for cold
//! adjacent ones, and membership staffing when a range is too thin to
//! split. Three mechanisms keep it from thrashing:
//!
//! * **hysteresis** — the merge thresholds sit far below the split
//!   thresholds, so a range that just split does not immediately qualify to
//!   merge back;
//! * **cooldowns** — a cluster that just finished (or abandoned) a
//!   reconfiguration is ineligible for [`FleetConfig::cooldown_us`];
//! * **an in-flight bound** — at most [`FleetConfig::max_inflight`]
//!   reconfigurations run concurrently, so a load spike cannot detonate
//!   half the fleet at once.
//!
//! Multi-step operations are driven by observation, not callbacks: a split
//! of a minimally-staffed range first emits [`FleetCmd::Staff`], and the
//! split itself is emitted on a later `plan` round once the samples show
//! the new members in place. Completion is likewise observed from the
//! samples (children or the merged cluster showing up), which makes the
//! controller restart-tolerant: its only ground truth is what the fleet
//! reports.
//!
//! Delivery is one rule of the controller too. Each tracked operation
//! (staffing, a split, a led merge) owes its admin command until a member
//! accepts it, a member rejects it with an error [`Error::is_transient`]
//! does not name, or the operation leaves the pending set. A command thus
//! lives as long as its tracked operation, which
//! [`FleetConfig::stall_us`] bounds. After every `plan` the host sends each
//! command [`Controller::owed`] lists once, to the member its [`AdminCall`]
//! names — the member that reported itself leader this round, else the one
//! the last answer pointed at, else the next in turn — and hands the answer
//! back through [`Controller::on_admin_answer`]. A cluster with no leader
//! holds up nothing: its command stays owed for the next round.

use crate::admin_call::AdminCall;
use crate::sampling::SampleBook;
use recraft_net::AdminCmd;
use recraft_types::{
    ClusterConfig, ClusterId, Error, KeyRange, MergeParticipant, MergeTx, NodeId, RangeSet,
    SplitSpec, TxId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Thresholds and limits for the fleet controller.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Ops per sampling interval at or above which a range is split.
    pub split_ops: u64,
    /// Ops per interval at or below which a range may merge (hysteresis:
    /// keep this far below [`FleetConfig::split_ops`]).
    pub merge_ops: u64,
    /// Resident bytes at or above which a range is split regardless of load.
    pub split_bytes: usize,
    /// Resident bytes at or below which a range may merge.
    pub merge_bytes: usize,
    /// Quiet period after a reconfiguration completes (or is abandoned)
    /// during which the affected clusters are ineligible, in µs.
    pub cooldown_us: u64,
    /// How long a pending reconfiguration may go without observable
    /// progress before the controller gives up tracking it, in µs.
    /// Abandoning it frees the in-flight slot and ends the delivery of its
    /// command.
    pub stall_us: u64,
    /// Maximum reconfigurations in flight at once across the fleet.
    pub max_inflight: usize,
    /// Replicas per range: a split needs `2 ×` this many members, so
    /// thinner ranges are staffed (`AddAndResize`) before splitting.
    pub replication: usize,
    /// Never merge the fleet below this many ranges.
    pub min_ranges: usize,
    /// Never split the fleet above this many ranges.
    pub max_ranges: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            split_ops: 400,
            merge_ops: 40,
            split_bytes: 8 * 1024 * 1024,
            merge_bytes: 1024 * 1024,
            cooldown_us: 3_000_000,
            stall_us: 120_000_000,
            max_inflight: 2,
            replication: 1,
            min_ranges: 1,
            max_ranges: 1024,
        }
    }
}

/// One range's observation for a planning round.
#[derive(Debug, Clone)]
pub struct RangeSample {
    /// The cluster serving the range.
    pub cluster: ClusterId,
    /// The ranges it serves (authoritative, from the cluster itself).
    pub ranges: RangeSet,
    /// Its current member set.
    pub members: BTreeSet<NodeId>,
    /// Client operations completed against it during the sampling interval.
    pub ops: u64,
    /// Resident data bytes (keys + values).
    pub bytes: usize,
    /// The suggested split point — the median resident key when the
    /// embedding can compute one, else a byte-wise range midpoint. `None`
    /// marks the range unsplittable this round.
    pub split_key: Option<Vec<u8>>,
}

/// An operation [`Controller::plan`] started.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetCmd {
    /// Provision `add` fresh nodes for `cluster` — pre-split staffing. The
    /// embedding allocates the node ids and hands them to
    /// [`Controller::staffed`], which makes their `AddAndResize` owed.
    Staff {
        /// The understaffed cluster.
        cluster: ClusterId,
        /// How many nodes to add.
        add: usize,
    },
    /// A split or merge started on `cluster`, owed from now on.
    Admin {
        /// The target cluster.
        cluster: ClusterId,
        /// The command (a split or a merge).
        cmd: AdminCmd,
    },
}

/// Why a cluster is currently untouchable by new planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingKind {
    /// Waiting for staffing (`AddAndResize`) to land so a split can follow.
    Staffing {
        /// When the staffing was requested.
        since: u64,
    },
    /// A split was issued; waiting for both children to report in.
    Splitting {
        /// The subcluster ids the split will produce.
        children: [ClusterId; 2],
        /// When the split was issued.
        since: u64,
    },
    /// Coordinating a merge; waiting for the merged cluster to report in.
    MergeLead {
        /// The other participant.
        partner: ClusterId,
        /// The merged cluster's id.
        new_cluster: ClusterId,
        /// When the merge was issued.
        since: u64,
    },
    /// Participating in a merge someone else coordinates (does not count
    /// against the in-flight budget; cleared with its coordinator).
    MergeFollow {
        /// The coordinating cluster.
        coordinator: ClusterId,
    },
}

/// The fleet controller: thresholds, hysteresis, cooldowns, and the
/// in-flight bound, applied over per-range samples each planning round.
#[derive(Debug)]
pub struct Controller {
    cfg: FleetConfig,
    next_cluster: u64,
    next_tx: u64,
    pending: BTreeMap<ClusterId, PendingKind>,
    /// The command each tracked operation still owes, by target cluster.
    owed: BTreeMap<ClusterId, AdminCall>,
    cooldown_until: BTreeMap<ClusterId, u64>,
    splits_planned: u64,
    merges_planned: u64,
    staffs_planned: u64,
}

impl Controller {
    /// Creates a controller. `next_cluster` seeds the cluster-id allocator
    /// and must be above every id the fleet already uses (split children
    /// and merged clusters get fresh ids from here on up).
    #[must_use]
    pub fn new(cfg: FleetConfig, next_cluster: u64) -> Self {
        Controller {
            cfg,
            next_cluster,
            next_tx: 1,
            pending: BTreeMap::new(),
            owed: BTreeMap::new(),
            cooldown_until: BTreeMap::new(),
            splits_planned: 0,
            merges_planned: 0,
            staffs_planned: 0,
        }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// `(splits, merges, staffings)` planned so far.
    #[must_use]
    pub fn planned(&self) -> (u64, u64, u64) {
        (
            self.splits_planned,
            self.merges_planned,
            self.staffs_planned,
        )
    }

    /// Reconfigurations currently tracked in flight (staffing, splits, and
    /// led merges; merge followers ride on their coordinator's slot).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.pending
            .values()
            .filter(|k| !matches!(k, PendingKind::MergeFollow { .. }))
            .count()
    }

    /// The pending operation on `cluster`, if any.
    #[must_use]
    pub fn pending(&self, cluster: ClusterId) -> Option<&PendingKind> {
        self.pending.get(&cluster)
    }

    /// The host booted `joiners` for a [`FleetCmd::Staff`] that `plan` just
    /// returned: their `AddAndResize` is owed to `cluster` from now on.
    pub fn staffed(&mut self, cluster: ClusterId, joiners: BTreeSet<NodeId>) {
        (self.owed).insert(cluster, AdminCall::new(AdminCmd::AddAndResize(joiners)));
    }

    /// Every command still owed to a sampled cluster, each addressed for
    /// this round's one send: to the member `book` saw lead, else to the one
    /// the last answer named, else to the next member in turn.
    #[must_use]
    pub fn owed(
        &self,
        samples: &[RangeSample],
        book: &SampleBook,
    ) -> Vec<(ClusterId, NodeId, AdminCmd)> {
        (samples.iter())
            .filter_map(|s| {
                let call = self.owed.get(&s.cluster)?;
                let to = call.target(book.leader(s.cluster), s.members.iter().copied())?;
                Some((s.cluster, to, call.cmd.clone()))
            })
            .collect()
    }

    /// Takes `from`'s answer to the command owed to `cluster` (`None`: it
    /// could not be reached). Returns how the delivery ended, if this answer
    /// ended it: accepted, or rejected by an error [`Error::is_transient`]
    /// does not name. The operation itself stays tracked either way.
    pub fn on_admin_answer(
        &mut self,
        cluster: ClusterId,
        from: NodeId,
        answer: Option<Result<(), Error>>,
    ) -> Option<Result<(), Error>> {
        let end = self.owed.get_mut(&cluster)?.on_answer(from, answer)?;
        self.owed.remove(&cluster).map(|_| end)
    }

    /// Starts `cmd` on `cluster`: owed from now on, and reported by `plan`.
    fn issue(&mut self, cluster: ClusterId, cmd: AdminCmd, cmds: &mut Vec<FleetCmd>) {
        self.owed.insert(cluster, AdminCall::new(cmd.clone()));
        cmds.push(FleetCmd::Admin { cluster, cmd });
    }

    fn alloc_cluster(&mut self) -> ClusterId {
        let id = ClusterId(self.next_cluster);
        self.next_cluster += 1;
        id
    }

    fn cool(&mut self, now: u64, cluster: ClusterId) {
        self.cooldown_until
            .insert(cluster, now + self.cfg.cooldown_us);
    }

    fn eligible(&self, now: u64, cluster: ClusterId) -> bool {
        !self.pending.contains_key(&cluster)
            && self.cooldown_until.get(&cluster).is_none_or(|t| *t <= now)
    }

    /// One planning round: advance pending multi-step operations against
    /// the fresh samples, then fill the remaining in-flight budget with new
    /// splits (hottest first) and merges (adjacent cold pairs, coldest
    /// first). Returns the operations it started.
    pub fn plan(&mut self, now: u64, samples: &[RangeSample]) -> Vec<FleetCmd> {
        let by_cluster: BTreeMap<ClusterId, &RangeSample> =
            samples.iter().map(|s| (s.cluster, s)).collect();
        let mut cmds = Vec::new();
        self.advance_pending(now, &by_cluster, &mut cmds);

        let mut budget = self.cfg.max_inflight.saturating_sub(self.inflight());
        // Ranges the fleet will have once everything pending lands: each
        // tracked split is +1, each led merge −1.
        let mut projected = samples.len() as i64
            + self
                .pending
                .values()
                .map(|k| match k {
                    PendingKind::Staffing { .. } | PendingKind::Splitting { .. } => 1,
                    PendingKind::MergeLead { .. } => -1,
                    PendingKind::MergeFollow { .. } => 0,
                })
                .sum::<i64>();

        // New splits, hottest first.
        let mut hot: Vec<&RangeSample> = samples
            .iter()
            .filter(|s| {
                self.eligible(now, s.cluster)
                    && (s.ops >= self.cfg.split_ops || s.bytes >= self.cfg.split_bytes)
                    && s.split_key.is_some()
            })
            .collect();
        hot.sort_by_key(|s| std::cmp::Reverse((s.ops, s.bytes)));
        for s in hot {
            if budget == 0 || projected >= self.cfg.max_ranges as i64 {
                break;
            }
            if s.members.len() >= 2 * self.cfg.replication {
                if !self.start_split(now, s, &mut cmds) {
                    continue;
                }
            } else {
                self.pending
                    .insert(s.cluster, PendingKind::Staffing { since: now });
                cmds.push(FleetCmd::Staff {
                    cluster: s.cluster,
                    add: 2 * self.cfg.replication - s.members.len(),
                });
                self.staffs_planned += 1;
            }
            budget -= 1;
            projected += 1;
        }

        // New merges: adjacent cold pairs in key order, coldest pair first.
        let mut in_key_order: Vec<&RangeSample> = samples.iter().collect();
        in_key_order.sort_by(|a, b| {
            let sa = a.ranges.ranges().first().map_or(&[][..], KeyRange::start);
            let sb = b.ranges.ranges().first().map_or(&[][..], KeyRange::start);
            sa.cmp(sb)
        });
        let cold = |s: &RangeSample| s.ops <= self.cfg.merge_ops && s.bytes <= self.cfg.merge_bytes;
        let mut pairs: Vec<(&RangeSample, &RangeSample)> = in_key_order
            .windows(2)
            .filter_map(|w| {
                let (a, b) = (w[0], w[1]);
                let adjacent = a
                    .ranges
                    .ranges()
                    .last()
                    .zip(b.ranges.ranges().first())
                    .is_some_and(|(la, fb)| la.adjacent_below(fb));
                (adjacent
                    && cold(a)
                    && cold(b)
                    && self.eligible(now, a.cluster)
                    && self.eligible(now, b.cluster))
                .then_some((a, b))
            })
            .collect();
        pairs.sort_by_key(|(a, b)| a.ops + b.ops);
        let mut taken: BTreeSet<ClusterId> = BTreeSet::new();
        for (a, b) in pairs {
            if budget == 0 || projected <= self.cfg.min_ranges as i64 {
                break;
            }
            if taken.contains(&a.cluster) || taken.contains(&b.cluster) {
                continue;
            }
            let new_cluster = self.alloc_cluster();
            let tx = MergeTx {
                id: TxId(self.next_tx),
                coordinator: a.cluster,
                participants: vec![
                    MergeParticipant {
                        cluster: a.cluster,
                        members: a.members.clone(),
                    },
                    MergeParticipant {
                        cluster: b.cluster,
                        members: b.members.clone(),
                    },
                ],
                new_cluster,
                // Resume with the coordinator's whole subcluster only: the
                // merged range keeps the replication factor and the other
                // participant's nodes retire back to the spare pool.
                resume_members: Some(a.members.clone()),
            };
            if tx.validate().is_err() {
                continue;
            }
            self.next_tx += 1;
            taken.insert(a.cluster);
            taken.insert(b.cluster);
            self.pending.insert(
                a.cluster,
                PendingKind::MergeLead {
                    partner: b.cluster,
                    new_cluster,
                    since: now,
                },
            );
            self.pending.insert(
                b.cluster,
                PendingKind::MergeFollow {
                    coordinator: a.cluster,
                },
            );
            self.issue(a.cluster, AdminCmd::Merge(tx), &mut cmds);
            self.merges_planned += 1;
            budget -= 1;
            projected -= 1;
        }
        cmds
    }

    /// Advances every tracked operation against the round's samples:
    /// staffed clusters get their split issued, completed splits/merges
    /// release their slots and start cooldowns, stalled ones are abandoned.
    fn advance_pending(
        &mut self,
        now: u64,
        by_cluster: &BTreeMap<ClusterId, &RangeSample>,
        cmds: &mut Vec<FleetCmd>,
    ) {
        let stall_us = self.cfg.stall_us;
        let stalled = move |since: u64| now.saturating_sub(since) >= stall_us;
        for cluster in self.pending.keys().copied().collect::<Vec<_>>() {
            match self.pending.get(&cluster).cloned() {
                Some(PendingKind::Staffing { since }) => match by_cluster.get(&cluster) {
                    Some(s) if s.members.len() >= 2 * self.cfg.replication => {
                        if !self.start_split(now, s, cmds) {
                            self.pending.remove(&cluster);
                            self.cool(now, cluster);
                        }
                    }
                    Some(_) if !stalled(since) => {}
                    _ => {
                        self.pending.remove(&cluster);
                        self.cool(now, cluster);
                    }
                },
                Some(PendingKind::Splitting { children, since }) => {
                    // Done when both children report in; a stalled split
                    // cools its parent too.
                    let done = children.iter().all(|c| by_cluster.contains_key(c));
                    if done || stalled(since) {
                        self.pending.remove(&cluster);
                        for c in children.into_iter().chain((!done).then_some(cluster)) {
                            self.cool(now, c);
                        }
                    }
                }
                Some(PendingKind::MergeLead {
                    partner,
                    new_cluster,
                    since,
                }) => {
                    if by_cluster.contains_key(&new_cluster) || stalled(since) {
                        self.pending.remove(&cluster);
                        self.pending.remove(&partner);
                        self.cool(now, new_cluster);
                        self.cool(now, cluster);
                        self.cool(now, partner);
                    }
                }
                Some(PendingKind::MergeFollow { .. }) | None => {}
            }
        }
        self.owed.retain(|c, _| self.pending.contains_key(c));
    }

    /// Starts a split of `s` at its suggested key, unless it has none that
    /// splits one of its ranges.
    fn start_split(&mut self, now: u64, s: &RangeSample, cmds: &mut Vec<FleetCmd>) -> bool {
        let Some((spec, children)) = self.split_spec(s) else {
            return false;
        };
        let splitting = PendingKind::Splitting {
            children,
            since: now,
        };
        self.pending.insert(s.cluster, splitting);
        self.issue(s.cluster, AdminCmd::Split(spec), cmds);
        self.splits_planned += 1;
        true
    }

    /// Builds a two-way split of `s` at its suggested key: the first
    /// `replication` members keep the low half, the rest take the high
    /// half. Returns `None` when the key does not split any of the
    /// cluster's ranges or the plan fails validation.
    fn split_spec(&mut self, s: &RangeSample) -> Option<(SplitSpec, [ClusterId; 2])> {
        let key = s.split_key.clone()?;
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut found = false;
        for r in s.ranges.ranges() {
            if !found && r.contains(&key) && key.as_slice() > r.start() {
                let (l, h) = r.split_at(&key).ok()?;
                lo.push(l);
                hi.push(h);
                found = true;
            } else if found {
                hi.push(r.clone());
            } else {
                lo.push(r.clone());
            }
        }
        if !found {
            return None;
        }
        let members: Vec<NodeId> = s.members.iter().copied().collect();
        let cut = self.cfg.replication.clamp(1, members.len() - 1);
        let ca = self.alloc_cluster();
        let cb = self.alloc_cluster();
        let sub_a = ClusterConfig::new(
            ca,
            members[..cut].iter().copied(),
            RangeSet::from_ranges(lo).ok()?,
        )
        .ok()?;
        let sub_b = ClusterConfig::new(
            cb,
            members[cut..].iter().copied(),
            RangeSet::from_ranges(hi).ok()?,
        )
        .ok()?;
        let spec = SplitSpec::new(vec![sub_a, sub_b], &s.members, &s.ranges).ok()?;
        Some((spec, [ca, cb]))
    }
}

/// The range cluster `r` of `ranges` boots on: an equal slice of the
/// `k{:08}`-formatted keyspace of `key_space` keys, unbounded at the
/// fleet's outer edges.
///
/// # Panics
/// Panics unless `1 <= r <= ranges`.
#[must_use]
pub fn boot_range(r: usize, ranges: usize, key_space: u64) -> RangeSet {
    assert!((1..=ranges).contains(&r), "range {r} of {ranges}");
    let bound = |i: usize| format!("k{:08}", i as u64 * key_space / ranges as u64).into_bytes();
    let range = match (r == 1, r == ranges) {
        (true, true) => KeyRange::full(),
        (true, false) => KeyRange::new(Vec::new(), bound(1)).expect("first range"),
        (false, true) => KeyRange::from_start(bound(ranges - 1)),
        (false, false) => KeyRange::new(bound(r - 1), bound(r)).expect("middle range"),
    };
    RangeSet::from(range)
}

/// A key strictly inside `range`, splitting it roughly in half byte-wise:
/// the digit-string average of the bounds (an unbounded top is treated as
/// 1.0 in the base-256 fraction space). The fallback split point when no
/// resident-key median is available.
#[must_use]
pub fn midpoint_key(range: &KeyRange) -> Option<Vec<u8>> {
    let a = range.start();
    let n = a.len().max(range.end().map_or(0, <[u8]>::len)) + 1;
    // sum = a + b as base-256 fractions; `whole` carries the integer part.
    let mut sum: Vec<u16> = (0..n).map(|i| u16::from(*a.get(i).unwrap_or(&0))).collect();
    let whole: u16 = match range.end() {
        Some(b) => {
            let mut carry = 0u16;
            for i in (0..n).rev() {
                let d = sum[i] + u16::from(*b.get(i).unwrap_or(&0)) + carry;
                sum[i] = d & 0xFF;
                carry = d >> 8;
            }
            carry
        }
        None => 1,
    };
    // mid = (whole.sum) / 2, most-significant digit first.
    let mut rem = whole & 1;
    let mut mid: Vec<u8> = Vec::with_capacity(n);
    for digit in &sum {
        let cur = (rem << 8) | digit;
        mid.push((cur >> 1) as u8);
        rem = cur & 1;
    }
    (mid.as_slice() > a && range.contains(&mid)).then_some(mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        cluster: u64,
        range: KeyRange,
        members: &[u64],
        ops: u64,
        bytes: usize,
    ) -> RangeSample {
        let split_key = midpoint_key(&range);
        RangeSample {
            cluster: ClusterId(cluster),
            ranges: RangeSet::from(range),
            members: members.iter().map(|n| NodeId(*n)).collect(),
            ops,
            bytes,
            split_key,
        }
    }

    fn cfg() -> FleetConfig {
        FleetConfig {
            split_ops: 100,
            merge_ops: 10,
            split_bytes: 1 << 20,
            merge_bytes: 1 << 10,
            cooldown_us: 1_000_000,
            stall_us: 60_000_000,
            max_inflight: 2,
            replication: 1,
            min_ranges: 1,
            max_ranges: 64,
        }
    }

    #[test]
    fn hot_thin_range_is_staffed_then_split() {
        let mut c = Controller::new(cfg(), 100);
        let hot = sample(1, KeyRange::full(), &[1], 500, 0);
        let cmds = c.plan(0, &[hot]);
        assert_eq!(
            cmds,
            vec![FleetCmd::Staff {
                cluster: ClusterId(1),
                add: 1
            }]
        );
        // Next round: the spare landed; the split goes out.
        let staffed = sample(1, KeyRange::full(), &[1, 9], 500, 0);
        let cmds = c.plan(1_000, &[staffed]);
        assert_eq!(cmds.len(), 1);
        let FleetCmd::Admin {
            cluster,
            cmd: AdminCmd::Split(spec),
        } = &cmds[0]
        else {
            panic!("expected a split, got {cmds:?}");
        };
        assert_eq!(*cluster, ClusterId(1));
        assert_eq!(spec.subclusters().len(), 2);
        assert_eq!(c.planned(), (1, 0, 1));
        // While the split is pending the cluster is untouchable.
        let again = sample(1, KeyRange::full(), &[1, 9], 500, 0);
        assert!(c.plan(2_000, &[again]).is_empty());
    }

    #[test]
    fn cold_adjacent_pair_merges_with_one_subcluster_resuming() {
        let mut c = Controller::new(cfg(), 100);
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let a = sample(1, lo, &[1], 0, 0);
        let b = sample(2, hi, &[2], 0, 0);
        let cmds = c.plan(0, &[a, b]);
        assert_eq!(cmds.len(), 1);
        let FleetCmd::Admin {
            cmd: AdminCmd::Merge(tx),
            ..
        } = &cmds[0]
        else {
            panic!("expected a merge, got {cmds:?}");
        };
        assert_eq!(tx.coordinator, ClusterId(1));
        assert_eq!(
            tx.resume_members,
            Some([NodeId(1)].into_iter().collect::<BTreeSet<_>>())
        );
        assert_eq!(c.inflight(), 1);
        // The merged cluster reporting in releases the slot and cools down.
        let merged = sample(tx.new_cluster.0, KeyRange::full(), &[1], 0, 0);
        assert!(c.plan(1_000, std::slice::from_ref(&merged)).is_empty());
        assert_eq!(c.inflight(), 0);
        // Still cooling: no re-plan against the merged cluster yet.
        assert!(c.plan(1_500, std::slice::from_ref(&merged)).is_empty());
        // Cooldown expired, but a lone full-range cluster at min_ranges has
        // nothing to merge with and no load to split on.
        assert!(c.plan(3_000_000, &[merged]).is_empty());
    }

    #[test]
    fn hysteresis_leaves_midband_ranges_alone() {
        let mut c = Controller::new(cfg(), 100);
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        // Between merge_ops (10) and split_ops (100): no action.
        let a = sample(1, lo, &[1], 50, 0);
        let b = sample(2, hi, &[2], 50, 0);
        assert!(c.plan(0, &[a, b]).is_empty());
    }

    #[test]
    fn inflight_budget_bounds_concurrent_reconfigurations() {
        let mut c = Controller::new(cfg(), 100);
        let (lo, rest) = KeyRange::full().split_at(b"h").unwrap();
        let (mid, hi) = rest.split_at(b"p").unwrap();
        let samples = vec![
            sample(1, lo, &[1], 900, 0),
            sample(2, mid, &[2], 800, 0),
            sample(3, hi, &[3], 700, 0),
        ];
        let cmds = c.plan(0, &samples);
        // max_inflight = 2: only the two hottest ranges get staffed.
        assert_eq!(cmds.len(), 2);
        assert!(cmds.iter().all(|c| matches!(
            c,
            FleetCmd::Staff { cluster, .. } if *cluster != ClusterId(3)
        )));
    }

    #[test]
    fn split_children_completion_starts_their_cooldown() {
        let mut c = Controller::new(cfg(), 100);
        let hot = sample(1, KeyRange::full(), &[1, 2], 500, 0);
        let cmds = c.plan(0, &[hot]);
        let FleetCmd::Admin {
            cmd: AdminCmd::Split(spec),
            ..
        } = &cmds[0]
        else {
            panic!("expected a split");
        };
        let children: Vec<ClusterId> = spec.subclusters().iter().map(ClusterConfig::id).collect();
        // Both children report in — hot enough to split again, but cooling.
        let kids: Vec<RangeSample> = spec
            .subclusters()
            .iter()
            .map(|sub| {
                let r = sub.ranges().ranges()[0].clone();
                sample(sub.id().0, r, &[sub.members().first().unwrap().0], 500, 0)
            })
            .collect();
        assert!(c.plan(1_000, &kids).is_empty());
        assert_eq!(c.inflight(), 0);
        // After the cooldown they are fair game again.
        let cmds = c.plan(2_000_000, &kids);
        assert_eq!(cmds.len(), 2, "both children re-split: {cmds:?}");
        assert!(children.iter().all(|ch| c.pending(*ch).is_some()));
    }

    /// One round's reports from two cold adjacent three-node ranges, with
    /// `leader` (if any) reporting itself leader of cluster 1.
    fn reports(leader: Option<u64>) -> Vec<(NodeId, recraft_net::NodeStats)> {
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let report = |node: u64| {
            let (cluster, range, first) = if node <= 3 { (1, &lo, 1) } else { (2, &hi, 4) };
            let stats = recraft_net::NodeStats {
                cluster: ClusterId(cluster),
                epoch: 0,
                ranges: RangeSet::from(range.clone()),
                members: (first..first + 3).map(NodeId).collect(),
                is_leader: leader == Some(node),
                leader_hint: leader.map(NodeId),
                commit: 5,
                applied: 5,
                ops: 0,
                bytes: 0,
                split_key: None,
            };
            (NodeId(node), stats)
        };
        (1..=6).map(report).collect()
    }

    /// A controller that just planned a merge coordinated by cluster 1, the
    /// book and samples of that round, and where the merge went first.
    fn merge_owed(leader: Option<u64>) -> (Controller, SampleBook, Vec<RangeSample>, NodeId) {
        let mut c = Controller::new(cfg(), 100);
        let mut book = SampleBook::new();
        let samples = book.build(&reports(leader));
        let cmds = c.plan(0, &samples);
        assert!(matches!(
            &cmds[..],
            [FleetCmd::Admin {
                cmd: AdminCmd::Merge(_),
                ..
            }]
        ));
        let sends = c.owed(&samples, &book);
        assert_eq!(sends.len(), 1, "one command owed: {sends:?}");
        let (cluster, to, cmd) = &sends[0];
        assert_eq!(*cluster, ClusterId(1));
        assert!(matches!(cmd, AdminCmd::Merge(_)));
        (c, book, samples, *to)
    }

    /// The owed rule, one row per case: `(case, reported leader, first
    /// target, its answer, how the delivery ends, the next round's target)`.
    #[test]
    fn an_owed_command_goes_where_the_last_answer_points() {
        type Row = (
            &'static str,
            Option<u64>,
            u64,
            Option<Result<(), Error>>,
            Option<Result<(), Error>>,
            Option<u64>,
        );
        let invalid = Error::InvalidConfig("stale".into());
        let rows: [Row; 6] = [
            (
                "the reported leader is asked first, and again while it leads",
                Some(2),
                2,
                Some(Err(Error::MergeBlocked)),
                None,
                Some(2),
            ),
            (
                "an acceptance ends the sends",
                None,
                1,
                Some(Ok(())),
                Some(Ok(())),
                None,
            ),
            (
                "a named leader gets the next send",
                None,
                1,
                Some(Err(Error::NotLeader(Some(NodeId(3))))),
                None,
                Some(3),
            ),
            (
                "a transient rejection is sent again to the same member",
                None,
                1,
                Some(Err(Error::PreconditionP3)),
                None,
                Some(1),
            ),
            (
                "an unreachable member is passed over",
                None,
                1,
                None,
                None,
                Some(2),
            ),
            (
                "a rejection no retry cures ends the sends as failed",
                None,
                1,
                Some(Err(invalid.clone())),
                Some(Err(invalid)),
                None,
            ),
        ];
        for (case, leader, first, answer, ends, next) in rows {
            let (mut c, book, samples, to) = merge_owed(leader);
            assert_eq!(to, NodeId(first), "{case}: first send");
            assert_eq!(c.on_admin_answer(ClusterId(1), to, answer), ends, "{case}");
            let again: Vec<NodeId> = c.owed(&samples, &book).iter().map(|s| s.1).collect();
            assert_eq!(
                again,
                next.map(NodeId).into_iter().collect::<Vec<_>>(),
                "{case}"
            );
            assert_eq!(c.inflight(), 1, "{case}: the merge stays tracked");
        }
    }

    /// An operation the samples show complete owes nothing more, answered
    /// or not.
    #[test]
    fn an_operation_completed_by_the_samples_owes_nothing() {
        let (mut c, book, _, to) = merge_owed(Some(1));
        let Some(PendingKind::MergeLead { new_cluster, .. }) = c.pending(ClusterId(1)).cloned()
        else {
            panic!("cluster 1 leads the merge");
        };
        let merged = sample(new_cluster.0, KeyRange::full(), &[1, 2, 3], 0, 0);
        assert!(c.plan(1_000, std::slice::from_ref(&merged)).is_empty());
        assert_eq!(c.inflight(), 0);
        assert!(c.owed(&[merged], &book).is_empty());
        assert_eq!(c.on_admin_answer(ClusterId(1), to, Some(Ok(()))), None);
    }

    /// A staffing's `AddAndResize` is owed from the moment the host hands
    /// the joiners back, to the staffed cluster.
    #[test]
    fn staffing_owes_its_add_once_the_joiners_are_booted() {
        let mut c = Controller::new(cfg(), 100);
        let hot = sample(1, KeyRange::full(), &[1], 500, 0);
        let book = SampleBook::new();
        assert!(matches!(
            &c.plan(0, std::slice::from_ref(&hot))[..],
            [FleetCmd::Staff { .. }]
        ));
        assert!(c.owed(std::slice::from_ref(&hot), &book).is_empty());
        c.staffed(ClusterId(1), BTreeSet::from([NodeId(9)]));
        let sends = c.owed(&[hot], &book);
        let add = AdminCmd::AddAndResize(BTreeSet::from([NodeId(9)]));
        assert_eq!(sends, vec![(ClusterId(1), NodeId(1), add)]);
    }

    #[test]
    fn midpoint_key_lands_strictly_inside() {
        let full = KeyRange::full();
        let m = midpoint_key(&full).unwrap();
        assert!(full.contains(&m) && !m.is_empty());
        let (_, upper) = full.split_at(b"k00050000").unwrap();
        let m = midpoint_key(&upper).unwrap();
        assert!(upper.contains(&m) && m.as_slice() > b"k00050000".as_slice());
        let narrow = KeyRange::new(b"a".to_vec(), b"b".to_vec()).unwrap();
        let m = midpoint_key(&narrow).unwrap();
        assert!(narrow.contains(&m) && m.as_slice() > b"a".as_slice());
        let tight = KeyRange::new(b"a".to_vec(), b"a\x01".to_vec()).unwrap();
        let m = midpoint_key(&tight).unwrap();
        assert!(tight.contains(&m) && m.as_slice() > b"a".as_slice());
    }
}
