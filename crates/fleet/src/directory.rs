//! The shard directory: a versioned, loosely-consistent map of the fleet.
//!
//! The paper's only external dependency (§V) is "a naming service that
//! maintains the information of all live clusters ... consistent with the
//! cluster with a very loose time bound like the domain name service". This
//! is that service's data model. Writers (whatever observes the clusters)
//! rebuild or upsert records; readers route keys through [`lookup`] and may
//! be arbitrarily stale — the protocol's `Redirect` and `WrongRange`
//! answers, not the directory, are what keep routing convergent. The
//! [`version`] counter makes that staleness observable: a router can stamp
//! the version it routed on and measure how often stale routes bounced.
//!
//! [`lookup`]: ShardDirectory::lookup
//! [`version`]: ShardDirectory::version

use recraft_types::{ClusterId, NodeId, RangeSet};
use std::collections::{BTreeMap, BTreeSet};

/// One cluster's directory record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirRecord {
    /// Key ranges the cluster serves.
    pub ranges: RangeSet,
    /// Member nodes.
    pub members: BTreeSet<NodeId>,
}

/// The directory contents: per cluster, its served ranges and member nodes.
#[derive(Debug, Clone, Default)]
pub struct ShardDirectory {
    clusters: BTreeMap<ClusterId, DirRecord>,
    version: u64,
}

impl ShardDirectory {
    /// Replaces the record for one cluster.
    pub fn upsert(&mut self, cluster: ClusterId, ranges: RangeSet, members: BTreeSet<NodeId>) {
        self.version += 1;
        self.clusters.insert(cluster, DirRecord { ranges, members });
    }

    /// Drops a cluster that no longer exists.
    pub fn remove(&mut self, cluster: ClusterId) {
        if self.clusters.remove(&cluster).is_some() {
            self.version += 1;
        }
    }

    /// Clears everything (used before a full rebuild).
    pub fn clear(&mut self) {
        if !self.clusters.is_empty() {
            self.version += 1;
        }
        self.clusters.clear();
    }

    /// How many times the contents have changed. A reader that remembers
    /// the version it routed on can tell "my miss was staleness" from "the
    /// key is genuinely unserved".
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The number of recorded clusters (ranges) in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the directory holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster serving `key`, if any.
    #[must_use]
    pub fn lookup(&self, key: &[u8]) -> Option<(ClusterId, &BTreeSet<NodeId>)> {
        self.clusters
            .iter()
            .find(|(_, rec)| rec.ranges.contains(key))
            .map(|(c, rec)| (*c, &rec.members))
    }

    /// The member set of `cluster`, if known.
    #[must_use]
    pub fn members(&self, cluster: ClusterId) -> Option<&BTreeSet<NodeId>> {
        self.clusters.get(&cluster).map(|rec| &rec.members)
    }

    /// The ranges recorded for `cluster`, if known.
    #[must_use]
    pub fn ranges(&self, cluster: ClusterId) -> Option<&RangeSet> {
        self.clusters.get(&cluster).map(|rec| &rec.ranges)
    }

    /// All known clusters.
    #[must_use]
    pub fn clusters(&self) -> &BTreeMap<ClusterId, DirRecord> {
        &self.clusters
    }

    /// Rebuilds the directory from one round of controller observations,
    /// bumping the version only when something actually changed — a steady
    /// fleet polled every interval keeps a steady version, so routers can
    /// use the counter as a cheap "did anything move" signal.
    ///
    /// Clusters absent from `records` are dropped: the observer samples the
    /// whole fleet, so absence means merged away or decommissioned. Callers
    /// with only a partial view should use [`ShardDirectory::upsert`].
    pub fn sync(
        &mut self,
        records: impl IntoIterator<Item = (ClusterId, RangeSet, BTreeSet<NodeId>)>,
    ) {
        let next: BTreeMap<ClusterId, DirRecord> = records
            .into_iter()
            .map(|(c, ranges, members)| (c, DirRecord { ranges, members }))
            .collect();
        if next != self.clusters {
            self.clusters = next;
            self.version += 1;
        }
    }

    /// The cluster whose first range begins exactly where `cluster`'s last
    /// range ends — the unique right-hand merge partner, when the keyspace
    /// around the boundary is covered. Merging non-adjacent ranges would
    /// leave the merged cluster serving a disconnected range set, so the
    /// controller only ever pairs neighbors.
    #[must_use]
    pub fn neighbor_above(&self, cluster: ClusterId) -> Option<ClusterId> {
        let rec = self.clusters.get(&cluster)?;
        let last = rec.ranges.ranges().last()?;
        self.clusters
            .iter()
            .find(|(other, r)| {
                **other != cluster
                    && r.ranges
                        .ranges()
                        .first()
                        .is_some_and(|first| last.adjacent_below(first))
            })
            .map(|(c, _)| *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recraft_types::KeyRange;

    #[test]
    fn lookup_routes_by_range() {
        let mut dir = ShardDirectory::default();
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        dir.upsert(
            ClusterId(1),
            RangeSet::from(lo),
            [NodeId(1)].into_iter().collect(),
        );
        dir.upsert(
            ClusterId(2),
            RangeSet::from(hi),
            [NodeId(2)].into_iter().collect(),
        );
        assert_eq!(dir.lookup(b"apple").unwrap().0, ClusterId(1));
        assert_eq!(dir.lookup(b"zebra").unwrap().0, ClusterId(2));
        dir.remove(ClusterId(2));
        assert!(dir.lookup(b"zebra").is_none());
        assert_eq!(dir.clusters().len(), 1);
    }

    #[test]
    fn version_counts_changes() {
        let mut dir = ShardDirectory::default();
        assert_eq!(dir.version(), 0);
        dir.upsert(
            ClusterId(1),
            RangeSet::full(),
            [NodeId(1)].into_iter().collect(),
        );
        assert_eq!(dir.version(), 1);
        dir.remove(ClusterId(7)); // absent: no change
        assert_eq!(dir.version(), 1);
        dir.clear();
        assert_eq!(dir.version(), 2);
        dir.clear(); // already empty: no change
        assert_eq!(dir.version(), 2);
    }

    #[test]
    fn sync_only_bumps_version_on_change() {
        let mut dir = ShardDirectory::default();
        let (lo, hi) = KeyRange::full().split_at(b"m").unwrap();
        let records = || {
            vec![
                (
                    ClusterId(1),
                    RangeSet::from(lo.clone()),
                    [NodeId(1)]
                        .into_iter()
                        .collect::<std::collections::BTreeSet<_>>(),
                ),
                (
                    ClusterId(2),
                    RangeSet::from(hi.clone()),
                    [NodeId(2)].into_iter().collect(),
                ),
            ]
        };
        dir.sync(records());
        assert_eq!(dir.version(), 1);
        assert_eq!(dir.len(), 2);
        dir.sync(records()); // steady fleet: steady version
        assert_eq!(dir.version(), 1);
        // A membership change alone is a change.
        let mut staffed = records();
        staffed[1].2.insert(NodeId(3));
        dir.sync(staffed);
        assert_eq!(dir.version(), 2);
        dir.sync(records().into_iter().take(1)); // cluster 2 merged away
        assert_eq!(dir.version(), 3);
        assert!(dir.lookup(b"zebra").is_none());
    }

    #[test]
    fn neighbor_above_finds_the_adjacent_range() {
        let mut dir = ShardDirectory::default();
        let (lo, rest) = KeyRange::full().split_at(b"g").unwrap();
        let (mid, hi) = rest.split_at(b"t").unwrap();
        for (i, r) in [lo, mid, hi].into_iter().enumerate() {
            dir.upsert(
                ClusterId(i as u64 + 1),
                RangeSet::from(r),
                [NodeId(i as u64 + 1)].into_iter().collect(),
            );
        }
        assert_eq!(dir.neighbor_above(ClusterId(1)), Some(ClusterId(2)));
        assert_eq!(dir.neighbor_above(ClusterId(2)), Some(ClusterId(3)));
        // The top range is unbounded: nothing above it.
        assert_eq!(dir.neighbor_above(ClusterId(3)), None);
    }
}
