//! The golden table, `results/goldens.txt`, must classify every CSV under
//! `results/` exactly once (gated or host-timed), and name the bench
//! binary that produces it. `run_all.sh` reads the same table, so a CSV
//! missing from it would silently escape the byte-identity gate.

use std::collections::BTreeMap;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `(csv, binary, class)` rows of the table.
fn table() -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(root().join("results/goldens.txt"))
        .expect("results/goldens.txt is readable");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(cols.len(), 3, "malformed golden-table row: {l:?}");
            (cols[0].into(), cols[1].into(), cols[2].into())
        })
        .collect()
}

#[test]
fn every_results_csv_is_classified_exactly_once() {
    let mut classified: BTreeMap<String, usize> = BTreeMap::new();
    for (csv, _, class) in table() {
        assert!(
            class == "gated" || class == "host-timed",
            "{csv}: unknown class {class:?}"
        );
        *classified.entry(csv).or_default() += 1;
    }
    let twice: Vec<_> = classified.iter().filter(|(_, &n)| n > 1).collect();
    assert!(twice.is_empty(), "classified more than once: {twice:?}");

    let on_disk: Vec<String> = std::fs::read_dir(root().join("results"))
        .expect("results/ is readable")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".csv").map(String::from)
        })
        .collect();
    for csv in &on_disk {
        assert!(
            classified.contains_key(csv),
            "results/{csv}.csv is not classified in results/goldens.txt"
        );
    }
    for csv in classified.keys() {
        assert!(
            on_disk.contains(csv),
            "results/goldens.txt lists {csv}, but results/{csv}.csv does not exist"
        );
    }
}

#[test]
fn every_classified_csv_names_a_bench_binary() {
    for (csv, bin, _) in table() {
        let src = root().join(format!("crates/bench/src/bin/{bin}.rs"));
        assert!(src.exists(), "{csv}: no bench binary {bin}");
    }
}
