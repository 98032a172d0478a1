//! Fleet-sharded preparation end to end: N workers prepare disjoint
//! design subsets into disjoint disk tiers, the tiers are merged, and the
//! merged cache is **byte-identical** to one cold unsharded prepare —
//! file set and file contents, not just equivalent results.

use rtl_timer::pipeline::{shard_of, DesignSet, TimerConfig};
use rtlt_store::Store;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rtlt-shard-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_sources() -> Vec<(String, String)> {
    let mk = |name: &str, w: u32, extra: &str| {
        (
            name.to_owned(),
            format!(
                "module {name}(input clk, input [{x}:0] a, input [{x}:0] b, output [{x}:0] q);
                   reg [{x}:0] r;
                   reg [{x}:0] s;
                   always @(posedge clk) begin
                     r <= a + b;
                     s <= s ^ (r {extra});
                   end
                   assign q = s;
                 endmodule",
                x = w - 1,
            ),
        )
    };
    vec![
        mk("sh0", 8, "+ a"),
        mk("sh1", 10, "- b"),
        mk("sh2", 12, "& a"),
        mk("sh3", 9, "| b"),
        mk("sh4", 11, "^ a"),
    ]
}

/// Relative path → file bytes of every entry under a cache root.
fn tree_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else if p.is_file() {
                let rel = p
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&p).expect("readable entry"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn sharded_prepare_and_merge_is_byte_identical_to_cold_prepare() {
    let cfg = TimerConfig {
        threads: 2,
        ..Default::default()
    };
    let sources = tiny_sources();
    const SHARDS: usize = 3;

    // Reference: one cold unsharded prepare.
    let cold_dir = ScratchDir::new("cold");
    let cold_store = Store::on_disk(&cold_dir.0);
    let cold = DesignSet::prepare_named_with(&sources, &cfg, &cold_store).expect("cold prepare");

    // Fleet: three workers, disjoint subsets, disjoint cache dirs.
    let shard_dirs: Vec<ScratchDir> = (0..SHARDS)
        .map(|i| ScratchDir::new(&format!("shard{i}")))
        .collect();
    let mut prepared = 0;
    for (i, dir) in shard_dirs.iter().enumerate() {
        let subset = DesignSet::shard_sources(&sources, i, SHARDS);
        for (name, _) in &subset {
            assert_eq!(shard_of(name, SHARDS), i);
        }
        let store = Store::on_disk(&dir.0);
        let set = DesignSet::prepare_named_with(&subset, &cfg, &store).expect("shard prepare");
        prepared += set.designs().len();
    }
    assert_eq!(prepared, sources.len(), "shards cover every design");

    // Assembly: merge the three disk tiers into one fresh cache.
    let merged_dir = ScratchDir::new("merged");
    let merged_store = Store::on_disk(&merged_dir.0);
    let mut merged_files = 0;
    for dir in &shard_dirs {
        let report = merged_store.merge_disk_tier(&dir.0).expect("shard dir");
        assert_eq!(report.invalid_entries, 0);
        merged_files += report.merged_files + report.skipped_existing;
    }

    // Byte-identity: same file set, same bytes as the cold cache.
    let cold_tree = tree_bytes(&cold_dir.0);
    let merged_tree = tree_bytes(&merged_dir.0);
    assert_eq!(
        cold_tree.keys().collect::<Vec<_>>(),
        merged_tree.keys().collect::<Vec<_>>(),
        "merged cache holds exactly the cold cache's entries"
    );
    assert_eq!(cold_tree, merged_tree, "entry bytes are identical");
    assert!(merged_files >= cold_tree.len() as u64);

    // And the merged cache *works*: a fresh store over it answers the full
    // preparation without a single prepare-stage miss, producing a set
    // whose content digest matches the cold one.
    let warm_store = Store::on_disk(&merged_dir.0);
    let warm = DesignSet::prepare_named_with(&sources, &cfg, &warm_store).expect("warm prepare");
    let agg = warm_store
        .stats()
        .aggregate(rtl_timer::cache::stage::PREPARE);
    assert_eq!(agg.misses, 0, "fully warm from the merged tiers");
    assert_eq!(warm.content_digest(), cold.content_digest());
}

#[test]
fn merge_skips_invalid_entries_and_existing_keys() {
    let src = ScratchDir::new("merge-src");
    let dst = ScratchDir::new("merge-dst");
    let key = rtlt_store::KeyBuilder::new("merge").u64(1).finish();

    let src_store = Store::on_disk(&src.0);
    src_store.put("ns", key, vec![1u64, 2, 3]);
    // A second, corrupt file in the source must be skipped, not copied.
    let bogus = src.0.join("ns").join(format!("{}.bin", "f".repeat(64)));
    std::fs::write(&bogus, b"not an entry").expect("write bogus");

    let dst_store = Store::on_disk(&dst.0);
    let first = dst_store.merge_disk_tier(&src.0).expect("source dir");
    assert_eq!(first.merged_files, 1);
    assert_eq!(first.invalid_entries, 1);
    assert_eq!(first.skipped_existing, 0);

    // Merging again: the key already exists, nothing is rewritten.
    let second = dst_store.merge_disk_tier(&src.0).expect("source dir");
    assert_eq!(second.merged_files, 0);
    assert_eq!(second.skipped_existing, 1);

    // The merged entry is servable.
    assert_eq!(
        *dst_store.get::<Vec<u64>>("ns", key).expect("merged entry"),
        vec![1, 2, 3]
    );

    // A missing source (a mistyped shard dir) is an error naming the
    // cause, not an empty merge.
    let missing = dst_store
        .merge_disk_tier(&src.0.join("no-such-shard"))
        .expect_err("missing source dir");
    assert_eq!(missing.kind(), std::io::ErrorKind::NotFound);

    // Merging into a store with no disk tier is a zero no-op.
    assert_eq!(
        Store::in_memory()
            .merge_disk_tier(&src.0)
            .expect("no disk tier"),
        rtlt_store::MergeReport::default()
    );
}
