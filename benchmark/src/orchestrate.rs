//! `run`: every workload, each in a child process of this same
//! program; `run --check`, the smoke that holds the program to
//! `BENCHMARK.json`; `run --repeat n`, the two-set steadiness check.

use crate::json::{self, Value};
use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::process::Command;

pub struct Plan {
    pub seed: u64,
    pub check: bool,
    pub repeat: Option<usize>,
}

struct Bounded {
    name: String,
    unit: String,
    bound: f64,
}

/// What `BENCHMARK.json` promises.
struct Contract {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Bounded>,
    per_layer: Vec<(String, String)>,
}

fn load_contract() -> Result<Contract, String> {
    let here = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(here))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: missing \"{key}\""))
    };
    let list = |key: &str| doc.get(key).map(Value::arr).unwrap_or_default();
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::num)
            .ok_or("BENCHMARK.json: missing \"run_seconds\"")?,
        workloads: list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| {
                Ok(Bounded {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    bound: m.get("bound").and_then(Value::num).ok_or("missing bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?,
    })
}

/// One child run's result line, parsed.
struct Outcome {
    stdout: String,
    correct: bool,
    /// `(name, value, unit)` in printed order, duplicates kept.
    metrics: Vec<(String, f64, String)>,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let what = format!("{workload} seed {seed} trace {}", u8::from(trace));
    if !output.status.success() {
        return Err(format!(
            "{what}: {}\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or(format!("{what}: no output"))?;
    let doc = json::parse(last).map_err(|e| format!("{what}: result line: {e}"))?;
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{what}: result keys {keys:?}"));
    }
    let metrics = doc
        .get("metrics")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::num);
            let unit = m.get("unit").and_then(Value::str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("{what}: metric {name} lacks value or unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Outcome {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        metrics,
        stdout,
    })
}

pub fn run(plan: &Plan) -> u8 {
    let outcome = load_contract().and_then(|contract| {
        if plan.check {
            check(&contract)
        } else if let Some(n) = plan.repeat {
            repeat(plan, &contract, n)
        } else {
            all(plan, &contract)
        }
    });
    match outcome {
        Ok(()) => 0,
        Err(why) => {
            eprintln!("FAILED: {why}");
            1
        }
    }
}

/// Every workload untraced, then traced.
fn all(plan: &Plan, contract: &Contract) -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = child(workload, plan.seed, contract.run_seconds, trace, false)?;
            for line in out.stdout.lines() {
                println!("[{workload} trace={}] {line}", u8::from(trace));
            }
            if !out.correct {
                return Err(format!("{workload}: incorrect outputs"));
            }
        }
    }
    Ok(())
}

fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The smoke: the program's lists equal the contract's, and every run
/// prints each promised metric exactly once, with its unit, finite.
fn check(contract: &Contract) -> Result<(), String> {
    let same =
        |ours: &[Def], theirs: Vec<(&str, &str)>| ours.iter().map(|d| (d.name, d.unit)).eq(theirs);
    let e2e = contract
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()));
    let layers = contract
        .per_layer
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()));
    if !same(END_TO_END, e2e.collect()) || !same(PER_LAYER, layers.collect()) {
        return Err("metric lists in src/metrics.rs and BENCHMARK.json differ".into());
    }
    if contract.workloads != WORKLOADS {
        return Err("workload lists in src/metrics.rs and BENCHMARK.json differ".into());
    }
    for workload in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = child(workload, 1, 0.5, trace, true)?;
            let what = format!("{workload} trace {}", u8::from(trace));
            if !out.correct {
                return Err(format!("{what}: incorrect outputs"));
            }
            for (name, value, _) in &out.metrics {
                if !legal_name(name) || !defs.iter().any(|d| d.name == name) {
                    return Err(format!("{what}: unexpected metric {name}"));
                }
                if !value.is_finite() || (!trace && *value == 0.0) {
                    return Err(format!("{what}: {name} = {value}"));
                }
            }
            for d in defs {
                let printed: Vec<_> = out.metrics.iter().filter(|(n, ..)| n == d.name).collect();
                match printed.as_slice() {
                    [(_, _, unit)] if unit == d.unit => {}
                    _ => {
                        return Err(format!(
                            "{what}: {} printed {} times",
                            d.name,
                            printed.len()
                        ))
                    }
                }
            }
            println!("ok {what}: {} metrics", defs.len());
        }
    }
    Ok(())
}

/// Median, quartiles and quartile spread (as a share of the median).
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Self {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        Spread { median, q1, q3 }
    }

    fn share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Two sets of `n` untraced runs per workload (seeds `seed..seed+n`, the
/// same in both sets, separate process launches). A metric whose quartile
/// spread exceeds its bound is *unresolved*; two medians further apart than
/// the bound, in either direction, are a disagreement. Both fail.
fn repeat(plan: &Plan, contract: &Contract, n: usize) -> Result<(), String> {
    let seconds = contract.run_seconds;
    let mut trouble = Vec::new();
    println!("| workload | metric | unit | bound | set 1 median (q1–q3) | spread | set 2 median (q1–q3) | spread | set 2 vs 1 | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in WORKLOADS {
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for _set in 0..2 {
            let mut columns = vec![Vec::new(); contract.end_to_end.len()];
            for i in 0..n {
                let out = child(workload, plan.seed + i as u64, seconds, false, false)?;
                if !out.correct {
                    return Err(format!("{workload}: incorrect outputs"));
                }
                for (column, m) in columns.iter_mut().zip(&contract.end_to_end) {
                    let value = out.metrics.iter().find(|(name, ..)| *name == m.name);
                    column.push(value.ok_or(format!("{workload}: {} missing", m.name))?.1);
                }
            }
            sets.push(columns);
        }
        for (i, m) in contract.end_to_end.iter().enumerate() {
            let (a, b) = (Spread::of(&sets[0][i]), Spread::of(&sets[1][i]));
            let change = (b.median - a.median) / a.median;
            let unresolved = a.share().max(b.share()) > m.bound;
            let verdict = if change.abs() > m.bound {
                "DISAGREE"
            } else if unresolved {
                "UNRESOLVED"
            } else {
                "ok"
            };
            if verdict != "ok" {
                trouble.push(format!("{workload}/{} {verdict}", m.name));
            }
            println!(
                "| {workload} | {} | {} | {:.0}% | {:.4} ({:.4}–{:.4}) | {:.1}% | {:.4} ({:.4}–{:.4}) | {:.1}% | {:+.1}% | {verdict} |",
                m.name, m.unit, m.bound * 100.0,
                a.median, a.q1, a.q3, a.share() * 100.0,
                b.median, b.q1, b.q3, b.share() * 100.0,
                change * 100.0,
            );
        }
    }
    if trouble.is_empty() {
        Ok(())
    } else {
        Err(trouble.join(", "))
    }
}
