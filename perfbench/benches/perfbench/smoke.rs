//! Smoke check (`--smoke`): every workload, at tiny sizes, untraced and
//! traced, must emit exactly the metrics `BENCHMARK.json` declares, with
//! their units, and no failed session.

use crate::workload::Kind;
use crate::{run, Args};

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Result<String, String> {
    std::fs::read_to_string(crate::workload::repo_root().join("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))
}

/// The `(name, unit)` pairs listed under `section` (units are empty for
/// `workloads`).
fn declared(text: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let start = text
        .find(&format!("\"{section}\": ["))
        .ok_or(format!("BENCHMARK.json has no {section}"))?;
    let body = &text[start..];
    let body = &body[..body.find(']').ok_or("unterminated section")?];
    Ok(body
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect())
}

/// The string value of `"key": "..."` in `text`, or "" if absent.
fn field(text: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    text.find(&pat)
        .and_then(|at| {
            let rest = &text[at + pat.len()..];
            rest.find('"').map(|end| rest[..end].to_owned())
        })
        .unwrap_or_default()
}

/// Runs the smoke check; reports each problem on stderr.
pub fn check_all() -> bool {
    match check() {
        Ok(runs) => {
            eprintln!("perfbench smoke: ok ({runs} runs)");
            true
        }
        Err(e) => {
            eprintln!("perfbench smoke: {e}");
            false
        }
    }
}

fn check() -> Result<usize, String> {
    crate::stats::self_check()?;
    let text = benchmark_json()?;
    for (workload, _) in declared(&text, "workloads")? {
        Kind::parse(&workload).ok_or(format!("BENCHMARK.json lists unknown {workload}"))?;
    }
    let mut runs = 0;
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(&text, section)?;
        want.sort();
        // Every workload the benchmark can run, listed in BENCHMARK.json
        // or not, emits the same metrics.
        for workload in Kind::NAMES {
            let kind = Kind::parse(workload).expect("Kind::NAMES parse");
            let workload = workload.to_owned();
            let args = Args {
                workload: workload.clone(),
                kind,
                seed: 7,
                seconds: 1,
                trace,
                smoke: true,
            };
            let report = run(&args);
            runs += 1;
            if !report.correct() {
                return Err(format!(
                    "{workload} trace={trace}: {} of {} sessions failed, {} misordered pairs",
                    report.checks.failed(),
                    report.checks.attempted,
                    report.checks.misordered_pairs
                ));
            }
            let mut got: Vec<(String, String)> = report
                .metrics
                .entries()
                .map(|(name, unit)| (name.to_owned(), unit.to_owned()))
                .collect();
            got.sort();
            if got != want {
                return Err(format!(
                    "{workload} trace={trace}: emits {got:?}, BENCHMARK.json declares {want:?}"
                ));
            }
        }
    }
    Ok(runs)
}
