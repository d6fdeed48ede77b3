//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures (see `benches/`).
//!
//! Each bench target is a `harness = false` binary that drives the
//! deterministic simulator and prints the same rows/series the paper
//! reports. Absolute numbers come from the simulated network (DESIGN.md §2);
//! EXPERIMENTS.md records the shape comparison against the paper.

use bytes::Bytes;
use recraft_core::NodeEvent;
use recraft_kv::KvStore;
use recraft_sim::{Sim, SimConfig, Workload};
use recraft_types::{ClusterConfig, ClusterId, KeyRange, NodeId, RangeSet, SplitSpec};
use std::collections::BTreeMap;
use std::io::Write;

/// One virtual second in simulator time units (µs).
pub const SEC: u64 = 1_000_000;

/// One `"name": value` pair of a bench summary. The value is already JSON:
/// a number formatted to the precision the bench reports, or a quoted
/// string.
pub type Field = (&'static str, String);

/// Writes `target/bench-summaries/BENCH_<bench>.json`, the perf-trajectory
/// artifact CI uploads: one object holding `"bench"`, the `header` pairs,
/// and — when there are any — a `"points"` array with one object per row.
///
/// # Errors
/// Any failure creating the directory or writing the file.
pub fn write_summary(bench: &str, header: &[Field], rows: &[Vec<Field>]) -> std::io::Result<()> {
    // Benches run with the package as CWD; anchor on the manifest so the
    // summary lands in the workspace-level target dir CI uploads from.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-summaries");
    std::fs::create_dir_all(&dir)?;
    let mut f = std::fs::File::create(dir.join(format!("BENCH_{bench}.json")))?;
    write!(f, "{{\n  \"bench\": \"{bench}\"")?;
    for (name, value) in header {
        write!(f, ",\n  \"{name}\": {value}")?;
    }
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let lead = if i == 0 {
            ",\n  \"points\": [\n"
        } else {
            ",\n"
        };
        write!(f, "{lead}    {{{}}}", cells.join(", "))?;
    }
    if !rows.is_empty() {
        write!(f, "\n  ]")?;
    }
    writeln!(f, "\n}}")
}

/// Node ids `1..=n`.
#[must_use]
pub fn node_ids(n: u64) -> Vec<NodeId> {
    (1..=n).map(NodeId).collect()
}

/// A `KvStore` preloaded with `pairs` 512-byte values under uniformly spread
/// keys (the paper's 100 / 1K / 10K KV-pair configurations).
#[must_use]
pub fn preloaded_store(pairs: u64, key_count: u64) -> KvStore {
    use recraft_core::StateMachine;
    let mut store = KvStore::new();
    for i in 0..pairs {
        let key = format!("k{:08}", (i * key_count / pairs.max(1)) % key_count);
        let mut value = format!("preload-{i}-").into_bytes();
        value.resize(512, b'p');
        store.apply(
            recraft_types::LogIndex(i + 1),
            &recraft_kv::KvCmd::Put {
                key: key.into_bytes(),
                value: Bytes::from(value),
            }
            .encode(),
        );
    }
    store
}

/// Boots an `n`-node cluster whose members all hold `store`'s contents.
pub fn boot_preloaded(sim: &mut Sim, cluster: ClusterId, ids: &[NodeId], store: &KvStore) {
    let config =
        ClusterConfig::new(cluster, ids.iter().copied(), RangeSet::full()).expect("valid config");
    for id in ids {
        sim.boot_node_with_store(*id, config.clone(), store.clone());
    }
}

/// An even `ways`-way split plan of the full key space over the members of
/// `base`, allocating `members / ways` nodes per subcluster. Key boundaries
/// are chosen inside the `k%08d` keyspace of `key_count` keys.
#[must_use]
pub fn even_split_spec(
    base: &ClusterConfig,
    ways: usize,
    key_count: u64,
    first_new_cluster: u64,
) -> SplitSpec {
    let members: Vec<NodeId> = base.members().iter().copied().collect();
    let per = members.len() / ways;
    let mut subs = Vec::new();
    let mut cursor = KeyRange::full();
    for w in 0..ways {
        let ids: Vec<NodeId> = members[w * per..(w + 1) * per].to_vec();
        let range = if w + 1 == ways {
            cursor.clone()
        } else {
            let boundary = format!("k{:08}", (w as u64 + 1) * key_count / ways as u64);
            let (lo, hi) = cursor.split_at(boundary.as_bytes()).expect("in range");
            cursor = hi;
            lo
        };
        subs.push(
            ClusterConfig::new(
                ClusterId(first_new_cluster + w as u64),
                ids,
                RangeSet::from(range),
            )
            .expect("valid subcluster"),
        );
    }
    SplitSpec::new(subs, base.members(), base.ranges()).expect("valid split plan")
}

/// Per-cluster committed-command throughput per window, derived from the
/// apply trace (deduplicated by command digest, attributed to the first
/// applying cluster).
#[must_use]
pub fn cluster_throughput_series(
    sim: &Sim,
    window: u64,
    until: u64,
) -> BTreeMap<ClusterId, Vec<u64>> {
    let buckets = (until / window + 1) as usize;
    let mut seen = std::collections::HashSet::new();
    let mut out: BTreeMap<ClusterId, Vec<u64>> = BTreeMap::new();
    for (t, _, ev) in sim.trace() {
        if let NodeEvent::AppliedCommand {
            cluster, digest, ..
        } = ev
        {
            if *t < until && seen.insert(*digest) {
                let series = out.entry(*cluster).or_insert_with(|| vec![0; buckets]);
                series[(*t / window) as usize] += 1;
            }
        }
    }
    out
}

/// A standard simulation for benches: paper-like LAN latencies.
#[must_use]
pub fn bench_sim(seed: u64) -> Sim {
    Sim::new(SimConfig::with_seed(seed))
}

/// The paper's client workload: 512-byte uniform-random puts.
#[must_use]
pub fn put_workload(key_count: u64) -> Workload {
    Workload {
        key_count,
        value_size: 512,
        get_ratio: 0.0,
        ..Workload::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_store_sizes() {
        let s = preloaded_store(100, 10_000);
        assert_eq!(s.len(), 100);
        assert!(s.data_size() > 100 * 512);
    }

    #[test]
    fn even_split_spec_shapes() {
        let base = ClusterConfig::new(ClusterId(1), node_ids(9), RangeSet::full()).unwrap();
        let spec = even_split_spec(&base, 3, 10_000, 10);
        assert_eq!(spec.subclusters().len(), 3);
        assert!(spec.subclusters().iter().all(|c| c.len() == 3));
        // Ranges partition the keyspace.
        for key in [b"k00000000".as_slice(), b"k00004000", b"k00009999"] {
            assert_eq!(
                spec.subclusters()
                    .iter()
                    .filter(|c| c.ranges().contains(key))
                    .count(),
                1
            );
        }
    }
}
