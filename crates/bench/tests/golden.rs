//! The rows `reproduce all --smoke --json` writes, pinned without their
//! timings: `#results`, node counts, and for the serial CSR run and the
//! tiled run each the sweeps, products computed and skipped, tiles
//! skipped and per-sweep and per-nonterminal nnz, of Q1 and Q2 over the
//! four smallest ontologies. The tiled run is on a 2-wide device, so its
//! batches go through `Device::par_map_ranges`. A change that moves any
//! of them — one product more or fewer, a sweep added, a tile pair no
//! longer skipped — fails here with the diff.
//!
//! When such a move is intended, rewrite the file and commit it with the
//! change:
//!
//! ```text
//! CFPQ_BLESS=1 cargo test -p cfpq-bench --test golden
//! ```

use cfpq_bench::{render_json, run_row, small_suite, Query};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/reproduce-smoke.json"
);

/// `json` without the lines of its `*_ms` keys (all scalars, one line
/// each); a dropped line that closed its object takes the comma of the
/// line before it along.
fn without_timings(json: &str) -> String {
    let mut kept: Vec<&str> = Vec::new();
    for line in json.lines() {
        let field = line.trim_start();
        let key = field.strip_prefix('"').and_then(|f| f.split('"').next());
        if key.is_some_and(|key| key.ends_with("_ms")) {
            if !field.ends_with(',') {
                if let Some(last) = kept.last_mut() {
                    *last = last.strip_suffix(',').unwrap_or(last);
                }
            }
            continue;
        }
        kept.push(line);
    }
    kept.join("\n") + "\n"
}

/// A line diff of `old` → `new` (longest common subsequence): `-` lines
/// only in `old`, `+` lines only in `new`, each with its line number.
fn diff(old: &str, new: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    // common[i][j]: the LCS length of old[i..] and new[j..].
    let mut common = vec![vec![0usize; new.len() + 1]; old.len() + 1];
    for i in (0..old.len()).rev() {
        for j in (0..new.len()).rev() {
            common[i][j] = if old[i] == new[j] {
                common[i + 1][j + 1] + 1
            } else {
                common[i + 1][j].max(common[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < old.len() || j < new.len() {
        if i < old.len() && j < new.len() && old[i] == new[j] {
            (i, j) = (i + 1, j + 1);
        } else if j == new.len() || (i < old.len() && common[i + 1][j] >= common[i][j + 1]) {
            out += &format!("-{:>4} {}\n", i + 1, old[i]);
            i += 1;
        } else {
            out += &format!("+{:>4} {}\n", j + 1, new[j]);
            j += 1;
        }
    }
    out
}

#[test]
fn smoke_rows_match_the_golden_file() {
    let sections: Vec<(Query, Vec<_>)> = [Query::Q1, Query::Q2]
        .into_iter()
        .map(|q| (q, small_suite().iter().map(|d| run_row(q, d, 2)).collect()))
        .collect();
    let actual = without_timings(&render_json(&sections));
    if std::env::var_os("CFPQ_BLESS").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    assert!(
        golden == actual,
        "the smoke rows differ from {GOLDEN} (- golden, + now):\n{}\n\
         if the change is intended, rewrite the file with\n    \
         CFPQ_BLESS=1 cargo test -p cfpq-bench --test golden",
        diff(&golden, &actual)
    );
}

#[test]
fn timings_are_dropped_with_their_commas() {
    let json = "{\n  \"a\": 1,\n  \"b_ms\": 2.5,\n  \"c\": [\n    3\n  ],\n  \"d_ms\": null\n}";
    assert_eq!(
        without_timings(json),
        "{\n  \"a\": 1,\n  \"c\": [\n    3\n  ]\n}\n"
    );
    assert_eq!(diff("a\nb\nc", "a\nc\nd"), "-   2 b\n+   3 d\n");
}
