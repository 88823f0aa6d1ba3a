//! The whole-stack benchmark of the CFPQ-by-matrix-multiplication
//! reproduction. See `benchmark/README.md`.
//!
//! ```text
//! cfpq-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one process
//! cfpq-benchmark all [--seed N] [--json OUT.json]
//! cfpq-benchmark compare OLD.json NEW.json
//! ```
//!
//! A run prints every metric by name with its unit, then a line
//! `detail {…}` (the same with sample counts, `null`s, notes and faults —
//! what `all` collects), then the one-line result the acceptance driver
//! reads.

mod adapter;
mod all;
mod compare;
mod json;
mod metrics;
mod openloop;
mod run;
mod stats;
mod trace;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::{RunConfig, RunResult};
use std::process::ExitCode;

/// Seconds one run measures for: what `BENCHMARK.json` tells the driver
/// to pass as `--seconds`, and what `all` passes.
const RUN_SECONDS: u32 = 10;

/// Starts the line of a run's output that carries its detail document.
const DETAIL_PREFIX: &str = "detail ";

const USAGE: &str = "usage:
  cfpq-benchmark --workload NAME --seed N --seconds S --trace 0|1
  cfpq-benchmark all [--seed N] [--json OUT.json]
  cfpq-benchmark compare OLD.json NEW.json";

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            out.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} {v:?} is not a valid number"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?.ok_or(format!("--{name} is required"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cfpq-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..], &["seed", "json"])?;
            all::run_all(&all::AllConfig {
                seed: flags.number("seed")?.unwrap_or(1),
                json: flags.get("json").map(Into::into),
            })
        }
        Some("compare") => {
            let [old, new] = &args[1..] else {
                return Err("compare takes two result files".into());
            };
            let load = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let comparison = compare::compare(&load(old)?, &load(new)?)?;
            print!("{}", comparison.render());
            Ok(ExitCode::from(comparison.exit_code() as u8))
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
            let workload = flags.get("workload").ok_or("--workload is required")?;
            let trace: u8 = flags.required("trace")?;
            if trace > 1 {
                return Err("--trace is 0 or 1".into());
            }
            let cfg = RunConfig::new(
                workload,
                flags.required("seed")?,
                positive_seconds(flags.required("seconds")?)?,
                trace == 1,
            );
            let result = run::run(&cfg)?;
            Ok(report(&cfg, &result))
        }
        _ => Err("no command given".into()),
    }
}

fn positive_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is not between 0 and 600"))
    }
}

/// Prints every metric by name with its unit, then the detail line `all`
/// reads, then the one-line JSON result the acceptance driver reads.
/// Exits non-zero when an answer was wrong or the run faulted.
fn report(cfg: &RunConfig, result: &RunResult) -> ExitCode {
    let defs = if cfg.traced { PER_LAYER } else { END_TO_END };
    let mut faults = result.faults.clone();
    for def in defs {
        let m = result.metrics.get(def.name);
        match m.value {
            Some(v) => {
                let n = m.n.map_or(String::new(), |n| format!("  n={n}"));
                println!("{:<40} {:>16.4} {}{n}", def.name, v, def.unit);
            }
            // Every workload owes the driver every listed end-to-end metric.
            None if !cfg.traced && def.listed => {
                faults.push(format!("{} was not measured", def.name));
            }
            None => {}
        }
    }
    for note in &result.notes {
        eprintln!("note: {note}");
    }
    for fault in &faults {
        eprintln!("fault: {fault}");
    }
    let correct = result.correct() && faults.is_empty();
    let head = |metrics: Json| {
        vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", metrics),
        ]
    };
    let strings = |items: &[String]| Json::Arr(items.iter().map(Json::str).collect());
    let mut detail = head(Json::obj(defs.iter().map(|d| {
        let m = result.metrics.get(d.name);
        let fields = [
            ("value", Json::num(m.value)),
            ("unit", Json::str(d.unit)),
            ("n", Json::num(m.n.map(|n| n as f64))),
        ];
        (d.name, Json::obj(fields))
    })));
    detail.push(("seed", Json::Num(cfg.seed as f64)));
    detail.push(("faults", strings(&faults)));
    detail.push(("notes", strings(&result.notes)));
    println!("{DETAIL_PREFIX}{}", Json::obj(detail).render());
    // The driver reads numbers only, and only the metrics `BENCHMARK.json`
    // lists: a per-layer metric that does not apply to this workload goes
    // out as 0.
    let line = head(Json::obj(defs.iter().filter(|d| d.listed).map(|d| {
        let value = result.metrics.get(d.name).value.unwrap_or(0.0);
        let fields = [("value", Json::Num(value)), ("unit", Json::str(d.unit))];
        (d.name, Json::obj(fields))
    })));
    println!("{}", Json::obj(line).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Oracle;

    #[test]
    fn flags_are_checked() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let f = Flags::parse(&args("--seed 3 --seconds 1.5"), &["seed", "seconds"]).unwrap();
        assert_eq!(f.required::<u64>("seed"), Ok(3));
        assert_eq!(f.number::<f64>("seconds"), Ok(Some(1.5)));
        assert!(f.required::<u8>("trace").is_err());
        assert!(Flags::parse(&args("--sed 3"), &["seed"]).is_err());
        assert!(Flags::parse(&args("--seed"), &["seed"]).is_err());
        assert!(Flags::parse(&args("--seed x"), &["seed"])
            .unwrap()
            .number::<u64>("seed")
            .is_err());
        assert!(dispatch(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(dispatch(&args("--workload onto-cold --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(dispatch(&args("--workload onto-cold --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    /// A short run of a real workload: every end-to-end metric comes out,
    /// and a wrong answer (here: an oracle made to disagree) flips
    /// `failed`, `correct` and the exit code.
    #[test]
    fn a_wrong_answer_flips_failed_share_and_the_exit_code() {
        let mut cfg = RunConfig::new("rpq-cold", 1, 0.2, false);
        let honest = run::run(&cfg).unwrap();
        assert!(honest.correct() && honest.attempted >= 100);
        for def in END_TO_END {
            let v = honest.metrics.get(def.name).value;
            match def.name {
                // A hundred ops carry a p90 but no p99, and a closed loop
                // has no rate to sweep.
                "op_ms_p99" | "max_rate_ok" => assert_eq!(v, None, "{}", def.name),
                "failed_share" => assert_eq!(v, Some(0.0)),
                _ => assert!(v.is_some_and(|v| v > 0.0), "{}", def.name),
            }
        }
        assert_eq!(report(&cfg, &honest), ExitCode::SUCCESS);

        cfg.oracle = Oracle::Corrupted;
        let wrong = run::run(&cfg).unwrap();
        assert_eq!(wrong.failed, wrong.attempted);
        assert_eq!(wrong.metrics.get("failed_share").value, Some(1.0));
        assert!(!wrong.correct());
        assert_eq!(report(&cfg, &wrong), ExitCode::FAILURE);
    }
}
