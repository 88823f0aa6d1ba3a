//! `compare OLD.json NEW.json`: applies each end-to-end metric's bound to
//! two result files of `all` and says, per workload and metric, whether
//! NEW is within it.

use crate::all::SCHEMA;
use crate::json::Json;
use crate::metrics::{Better, Bound, END_TO_END, RATES};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Worse than the baseline by more than the bound, and by more than
    /// the runs of either side spread.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound and
    /// the change lies inside it: the medians cannot be told apart at the
    /// bound's resolution.
    Unresolved,
    /// Absent (`null`) on either side.
    NotApplicable,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::NotApplicable => "n/a",
        }
    }
}

/// A metric's median over the runs of one side, with their spread (the
/// interquartile range as a share of the median).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: Option<f64>,
}

/// By how much `new` is worse than `old`, as a share of `old`; negative
/// when it is better.
fn worse_by(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

pub fn judge(better: Better, bound: f64, old: Option<Side>, new: Option<Side>) -> (Status, f64) {
    let (Some(old), Some(new)) = (old, new) else {
        return (Status::NotApplicable, 0.0);
    };
    let change = worse_by(better, old.median, new.median);
    let spread = f64::max(old.spread.unwrap_or(0.0), new.spread.unwrap_or(0.0));
    let status = if change > bound.max(spread) {
        Status::Regressed
    } else if spread > bound {
        Status::Unresolved
    } else {
        Status::Ok
    };
    (status, change)
}

/// `max_rate_ok` moves in steps of the fixed rate list (0 = not even the
/// lowest); its bound is so many steps down.
pub fn judge_max_rate(steps: u32, old: Option<f64>, new: Option<f64>) -> (Status, f64) {
    let (Some(old), Some(new)) = (old, new) else {
        return (Status::NotApplicable, 0.0);
    };
    let step = |rate: f64| RATES.iter().filter(|r| f64::from(**r) <= rate).count() as f64;
    let down = step(old) - step(new);
    let status = if down > f64::from(steps) {
        Status::Regressed
    } else {
        Status::Ok
    };
    (status, down)
}

/// `failed / attempted` may rise by `bound`, absolute.
pub fn judge_failed(bound: f64, old: f64, new: f64) -> (Status, f64) {
    let status = if new - old > bound {
        Status::Regressed
    } else {
        Status::Ok
    };
    (status, new - old)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub old: Option<f64>,
    pub new: Option<f64>,
    /// Share of the baseline the metric got worse by (steps for
    /// `max_rate_ok`, absolute share for `failed_share`).
    pub change: f64,
    pub status: Status,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose `failed_share` rose at all.
    pub more_failures: Vec<String>,
}

impl Comparison {
    /// Non-zero on any regression or any rise of `failed_share`.
    pub fn exit_code(&self) -> i32 {
        let regressed = self.rows.iter().any(|r| r.status == Status::Regressed);
        i32::from(regressed || !self.more_failures.is_empty())
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:<20} {:>14} {:>14} {:>9}  {}\n",
            "workload", "metric", "old", "new", "worse by", "status"
        );
        let show = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v:.4}"));
        for r in &self.rows {
            let change = match r.metric.as_str() {
                "max_rate_ok" => format!("{:+.0} step", r.change),
                "failed_share" => format!("{:+.4}", r.change),
                _ => format!("{:+.1}%", r.change * 100.0),
            };
            out.push_str(&format!(
                "{:<14} {:<20} {:>14} {:>14} {:>9}  {}\n",
                r.workload,
                r.metric,
                show(r.old),
                show(r.new),
                change,
                r.status.as_str()
            ));
        }
        for w in &self.more_failures {
            out.push_str(&format!(
                "{w}: more operations failed than in the baseline\n"
            ));
        }
        out
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        median: m.get("median")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64),
    })
}

fn failed_share(workload: &Json) -> Option<f64> {
    let attempted = workload.get("attempted")?.as_f64()?;
    Some(workload.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// Compares two result documents of `all`, workload by workload; a
/// workload missing from NEW is an error, one missing from OLD is skipped.
pub fn compare(old: &Json, new: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &Json| {
        if doc.get("schema").and_then(Json::as_f64) != Some(f64::from(SCHEMA)) {
            return Err(format!("not a result file of `all`, schema {SCHEMA}"));
        }
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or("not a result file of `all`: no workloads array".to_owned())
    };
    let (old_ws, new_ws) = (workloads(old)?, workloads(new)?);
    let mut out = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
    };
    for old_w in &old_ws {
        let name = old_w.get("name").and_then(Json::as_str).unwrap_or("?");
        let new_w = new_ws
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or(format!("workload {name} is missing from the new results"))?;
        for def in END_TO_END {
            let (old_side, new_side) = (side(old_w, def.name), side(new_w, def.name));
            let (mut o, mut n) = (old_side.map(|s| s.median), new_side.map(|s| s.median));
            let (status, change) = match def.bound.expect("end-to-end metrics carry a bound") {
                Bound::Share(bound) => judge(def.better, bound, old_side, new_side),
                Bound::Steps(steps) => judge_max_rate(steps, o, n),
                // Pooled over the runs: a median would hide one bad run.
                Bound::Absolute(bound) => {
                    (o, n) = (failed_share(old_w), failed_share(new_w));
                    match (o, n) {
                        (Some(o), Some(n)) => {
                            if n > o {
                                out.more_failures.push(name.to_owned());
                            }
                            judge_failed(bound, o, n)
                        }
                        _ => (Status::NotApplicable, 0.0),
                    }
                }
            };
            out.rows.push(Row {
                workload: name.to_owned(),
                metric: def.name.to_owned(),
                old: o,
                new: n,
                change,
                status,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, spread: f64) -> Option<Side> {
        Some(Side {
            median,
            spread: Some(spread),
        })
    }

    #[test]
    fn a_bound_is_a_share_of_the_baseline_in_the_bad_direction() {
        use Better::{Higher, Lower};
        assert_eq!(
            judge(Lower, 0.10, side(10.0, 0.01), side(10.9, 0.01)).0,
            Status::Ok
        );
        assert_eq!(
            judge(Lower, 0.10, side(10.0, 0.01), side(11.1, 0.01)).0,
            Status::Regressed
        );
        // Getting better never regresses, in either direction.
        assert_eq!(
            judge(Lower, 0.10, side(10.0, 0.01), side(5.0, 0.01)).0,
            Status::Ok
        );
        assert_eq!(
            judge(Higher, 0.10, side(100.0, 0.01), side(300.0, 0.01)).0,
            Status::Ok
        );
        assert_eq!(
            judge(Higher, 0.10, side(100.0, 0.01), side(91.0, 0.01)).0,
            Status::Ok
        );
        let (status, change) = judge(Higher, 0.10, side(100.0, 0.01), side(89.0, 0.01));
        assert_eq!(status, Status::Regressed);
        assert!((change - 0.11).abs() < 1e-12);
    }

    #[test]
    fn a_wide_spread_leaves_small_changes_unresolved_and_large_ones_regressed() {
        let lower = Better::Lower;
        for (old, new) in [(0.2, 0.01), (0.01, 0.2)] {
            // Inside the spread, whichever side of the bound: unresolved.
            for median in [10.5, 11.5] {
                assert_eq!(
                    judge(lower, 0.10, side(10.0, old), side(median, new)).0,
                    Status::Unresolved
                );
            }
            // Beyond both the bound and the spread: a regression, however
            // noisy the metric.
            assert_eq!(
                judge(lower, 0.10, side(10.0, old), side(30.0, new)).0,
                Status::Regressed
            );
        }
        // A single run has no spread to hide in.
        let single = Some(Side {
            median: 20.0,
            spread: None,
        });
        assert_eq!(
            judge(lower, 0.10, side(10.0, 0.01), single).0,
            Status::Regressed
        );
    }

    #[test]
    fn null_metrics_are_not_applicable() {
        let lower = Better::Lower;
        assert_eq!(
            judge(lower, 0.10, None, side(1.0, 0.0)).0,
            Status::NotApplicable
        );
        assert_eq!(
            judge(lower, 0.10, side(1.0, 0.0), None).0,
            Status::NotApplicable
        );
        assert_eq!(
            judge_max_rate(1, None, Some(1000.0)).0,
            Status::NotApplicable
        );
    }

    #[test]
    fn max_rate_may_drop_one_step_not_two() {
        let [low, mid, high] = RATES.map(f64::from);
        let judge = |old, new| judge_max_rate(1, Some(old), Some(new));
        assert_eq!(judge(mid, mid), (Status::Ok, 0.0));
        assert_eq!(judge(mid, high), (Status::Ok, -1.0));
        assert_eq!(judge(high, mid), (Status::Ok, 1.0));
        assert_eq!(judge(high, low), (Status::Regressed, 2.0));
        assert_eq!(judge(mid, 0.0), (Status::Regressed, 2.0));
        assert_eq!(judge(low, 0.0), (Status::Ok, 1.0));
    }

    /// A one-workload result file: `op_ms_p50` as given, every other
    /// share-bounded metric 1.0, the service metrics only with a max rate.
    fn doc(p50: f64, spread: f64, failed: f64, max_rate: Option<f64>) -> Json {
        let e2e = END_TO_END.iter().map(|d| {
            let median = match d.name {
                "op_ms_p50" => Some(p50),
                "op_ms_p99" => max_rate.map(|_| 30.0),
                "max_rate_ok" => max_rate,
                _ => Some(1.0),
            };
            (
                d.name,
                Json::obj([("median", Json::num(median)), ("spread", Json::Num(spread))]),
            )
        });
        Json::obj([
            ("schema", Json::Num(f64::from(SCHEMA))),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("svc-open")),
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(failed)),
                    ("end_to_end", Json::obj(e2e)),
                ])]),
            ),
        ])
    }

    #[test]
    fn documents_compare_row_by_row_and_set_the_exit_code() {
        let base = doc(1.0, 0.02, 0.0, Some(1000.0));
        let same = compare(&base, &base).unwrap();
        assert_eq!(same.exit_code(), 0);
        assert_eq!(same.rows.len(), END_TO_END.len());
        assert!(same.rows.iter().all(|r| r.status == Status::Ok));
        assert!(same.render().contains("svc-open"));
        let status = |c: &Comparison, metric: &str| {
            let row = c.rows.iter().find(|r| r.metric == metric);
            row.expect("one row per metric").status
        };

        let slower = compare(&base, &doc(1.3, 0.02, 0.0, Some(1000.0))).unwrap();
        assert_eq!(slower.exit_code(), 1);
        assert_eq!(status(&slower, "op_ms_p50"), Status::Regressed);

        let noisy = compare(&base, &doc(1.3, 0.4, 0.0, Some(1000.0))).unwrap();
        assert_eq!(noisy.exit_code(), 0, "unresolved is reported, not failed");
        assert_eq!(status(&noisy, "op_ms_p50"), Status::Unresolved);
        let noisy_but_far = compare(&base, &doc(1.5, 0.4, 0.0, Some(1000.0))).unwrap();
        assert_eq!(noisy_but_far.exit_code(), 1);

        let two_steps = compare(&base, &doc(1.0, 0.02, 0.0, Some(0.0))).unwrap();
        assert_eq!(status(&two_steps, "max_rate_ok"), Status::Regressed);

        // One more failure in a thousand is within the share bound, but
        // any rise at all fails the exit code.
        let one_failed = compare(&base, &doc(1.0, 0.02, 1.0, Some(1000.0))).unwrap();
        assert!(one_failed.rows.iter().all(|r| r.status == Status::Ok));
        assert_eq!(one_failed.exit_code(), 1);
        let many_failed = compare(&base, &doc(1.0, 0.02, 5.0, Some(1000.0))).unwrap();
        assert_eq!(status(&many_failed, "failed_share"), Status::Regressed);

        // A workload without the service metrics reports them as n/a.
        let closed = compare(&doc(1.0, 0.02, 0.0, None), &doc(1.0, 0.02, 0.0, None)).unwrap();
        assert_eq!(status(&closed, "op_ms_p99"), Status::NotApplicable);
        assert_eq!(status(&closed, "max_rate_ok"), Status::NotApplicable);
        assert_eq!(closed.exit_code(), 0);

        let empty = |schema: u32| {
            Json::obj([
                ("schema", Json::Num(f64::from(schema))),
                ("workloads", Json::Arr(vec![])),
            ])
        };
        assert!(compare(&base, &empty(SCHEMA)).is_err(), "workload missing");
        assert!(compare(&empty(SCHEMA + 1), &base).is_err(), "other schema");
    }
}
