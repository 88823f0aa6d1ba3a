//! `all`: every workload, each run in a child process of its own —
//! first untraced [`RUNS`] times on the one seed (the end-to-end numbers,
//! with their run-to-run spread), then traced once (the per-layer
//! numbers) — collected into one printed report and one result file.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{results_dir, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::{DETAIL_PREFIX, RUN_SECONDS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

pub struct AllConfig {
    pub seed: u64,
    pub json: Option<PathBuf>,
}

/// Version of the result file's layout.
pub const SCHEMA: u32 = 2;

/// Untraced runs per workload, all on the same seed: their spread is the
/// box's noise and nothing else.
const RUNS: usize = 3;

/// The cold workloads: their traced run replays the op stage by stage,
/// and the replay must still add up to the op it mirrors.
const REPLAYED: [&str; 5] = [
    "onto-cold",
    "blocks-cold",
    "sparse-cold",
    "rpq-cold",
    "single-path",
];
const STAGE_SUM_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
const TRACE_OVERHEAD_MAX: f64 = 0.15;

/// Runs this executable once more for one workload run; returns the
/// detail document the child printed.
fn child(workload: &str, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    // A run that found wrong answers exits non-zero but still reports
    // (its notes and faults are in the detail); one that printed nothing
    // crashed, and its stderr says how.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
        .ok_or(format!(
            "the {workload} run ({}) left no result: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ))?;
    Json::parse(detail)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn fingerprint(cfg: &AllConfig) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_output("rustc", &["-V"]))),
        (
            "commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("runs", Json::Num(RUNS as f64)),
    ])
}

fn metric_of<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.get("metrics")?.get(name)
}

fn count(run: &Json, key: &str) -> f64 {
    run.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn strings(run: &Json, key: &str) -> Vec<String> {
    let items = run.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    items
        .iter()
        .filter_map(Json::as_str)
        .map(str::to_owned)
        .collect()
}

/// Complaints about a traced run whose replay no longer mirrors the op.
fn replay_faults(workload: &str, traced: &Json) -> Vec<String> {
    if !REPLAYED.contains(&workload) {
        return Vec::new();
    }
    let value = |name| metric_of(traced, name)?.get("value")?.as_f64();
    let mut faults = Vec::new();
    match value("bench.stage_sum_share") {
        Some(share) if STAGE_SUM_RANGE.contains(&share) => {}
        share => faults.push(format!(
            "bench.stage_sum_share is {share:?}, outside {STAGE_SUM_RANGE:?}: the replayed stages no longer add up to the op"
        )),
    }
    match value("bench.trace_overhead_share") {
        Some(share) if share <= TRACE_OVERHEAD_MAX => {}
        share => faults.push(format!(
            "bench.trace_overhead_share is {share:?}, above {TRACE_OVERHEAD_MAX}"
        )),
    }
    faults
}

pub fn run_all(cfg: &AllConfig) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for (name, why) in WORKLOADS {
        eprintln!("{name}: {RUNS} untraced runs of {RUN_SECONDS} s, then a traced one");
        let untraced: Vec<Json> = (0..RUNS)
            .map(|_| child(name, cfg.seed, false))
            .collect::<Result<_, _>>()?;
        let traced = child(name, cfg.seed, true)?;
        let attempted: f64 = untraced.iter().map(|r| count(r, "attempted")).sum();
        let failed: f64 = untraced.iter().map(|r| count(r, "failed")).sum();

        println!("\n== {name} — {why}");
        let mut end_to_end = Vec::new();
        for def in END_TO_END {
            let per_run = |key| -> Vec<Option<f64>> {
                let of = |run| metric_of(run, def.name)?.get(key)?.as_f64();
                untraced.iter().map(of).collect()
            };
            let values: Vec<f64> = per_run("value").into_iter().flatten().collect();
            let (mut mid, spread) = (median(&values), quartile_spread(&values));
            if def.name == "failed_share" {
                // Pooled over the runs: a median would hide one bad run.
                mid = Some(failed / attempted.max(1.0));
            }
            println!(
                "{:<40} {:>16} {:<6} spread {:<7} n={:?}",
                def.name,
                mid.map_or("null".to_owned(), |v| format!("{v:.4}")),
                def.unit,
                spread.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0)),
                per_run("n")
                    .into_iter()
                    .flatten()
                    .map(|n| n as u64)
                    .collect::<Vec<_>>(),
            );
            end_to_end.push((
                def.name,
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("median", Json::num(mid)),
                    ("spread", Json::num(spread)),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                    (
                        "n",
                        Json::Arr(per_run("n").into_iter().map(Json::num).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for def in PER_LAYER {
            let m = metric_of(&traced, def.name);
            let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let n = m.and_then(|m| m.get("n")).and_then(Json::as_f64);
            if let Some(v) = value {
                let n = n.map_or(String::new(), |n| format!("  n={n}"));
                println!("{:<40} {:>16.4} {}{n}", def.name, v, def.unit);
            }
            per_layer.push((
                def.name,
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("value", Json::num(value)),
                    ("n", Json::num(n)),
                ]),
            ));
        }

        let mut faults: Vec<String> = untraced
            .iter()
            .chain([&traced])
            .flat_map(|r| strings(r, "faults"))
            .collect();
        faults.extend(replay_faults(name, &traced));
        if failed > 0.0 || count(&traced, "failed") > 0.0 {
            faults.push(format!(
                "{} of {} ops failed untraced, {} of {} traced",
                failed,
                attempted,
                count(&traced, "failed"),
                count(&traced, "attempted")
            ));
        }
        println!("attempted {attempted}, failed {failed}");
        for note in untraced
            .iter()
            .chain([&traced])
            .flat_map(|r| strings(r, "notes"))
        {
            println!("note: {note}");
        }
        for fault in &faults {
            println!("FAULT: {fault}");
            problems.push(format!("{name}: {fault}"));
        }
        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("why", Json::str(why)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
            ("traced_attempted", Json::Num(count(&traced, "attempted"))),
            ("traced_failed", Json::Num(count(&traced, "failed"))),
            ("faults", Json::Arr(faults.iter().map(Json::str).collect())),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::Num(f64::from(SCHEMA))),
        ("fingerprint", fingerprint(cfg)),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(path) = &cfg.json {
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("results written to {}", path.display());
    }
    eprintln!("traces are in {}", results_dir().display());
    if problems.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("\n{} problem(s):", problems.len());
    for p in &problems {
        eprintln!("  {p}");
    }
    Ok(ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(stage_sum: Option<f64>, overhead: Option<f64>) -> Json {
        let metric = |v| Json::obj([("value", Json::num(v))]);
        Json::obj([(
            "metrics",
            Json::obj([
                ("bench.stage_sum_share", metric(stage_sum)),
                ("bench.trace_overhead_share", metric(overhead)),
            ]),
        )])
    }

    #[test]
    fn a_replay_that_drifts_from_its_op_is_a_fault() {
        assert!(replay_faults("onto-cold", &traced(Some(1.02), Some(0.01))).is_empty());
        assert!(replay_faults("onto-cold", &traced(Some(0.97), Some(-0.03))).is_empty());
        assert_eq!(
            replay_faults("onto-cold", &traced(Some(0.8), Some(0.01))).len(),
            1
        );
        assert_eq!(
            replay_faults("onto-cold", &traced(Some(1.2), Some(0.2))).len(),
            2
        );
        assert_eq!(replay_faults("onto-cold", &traced(None, None)).len(), 2);
        // Workloads that are not replayed are not held to it.
        assert!(replay_faults("svc-open", &traced(None, None)).is_empty());
        assert!(replay_faults("update-stream", &traced(Some(2.0), Some(1.0))).is_empty());
    }
}
