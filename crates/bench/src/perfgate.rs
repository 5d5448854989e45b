//! Shared harness for the criterion-free perf benches (`sampling`,
//! `scheduler`): run modes, throughput measurement, the narrow JSON
//! results parser, and the ratio-based CI regression gate.
//!
//! The gate compares **ratios of measurements taken on the same host in
//! the same run** (batched vs single-draw, scheduled vs standalone)
//! against the committed baseline's ratios, so the runner's absolute
//! speed cancels out and slow or noisy CI hosts cannot flake the gate
//! while real pipeline regressions still move the ratio on any hardware.

use std::time::Instant;

/// How a bench binary runs: full (1s+ per case, writes the committed
/// baseline), quick smoke (one iteration, no JSON), or the CI regression
/// gate (shortened measurement, compared against the baseline).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full measurement pass; writes the committed baseline JSON.
    Full,
    /// Single-iteration smoke pass; writes nothing.
    Quick,
    /// Shortened measured pass compared against the committed baseline.
    Gate,
}

impl Mode {
    /// Parses the mode from the process arguments (`--gate`, `--quick` /
    /// `--test` / `CRITERION_QUICK`, default full).
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--gate") {
            Mode::Gate
        } else if args.iter().any(|a| a == "--quick" || a == "--test")
            || std::env::var_os("CRITERION_QUICK").is_some()
        {
            Mode::Quick
        } else {
            Mode::Full
        }
    }
}

/// One named throughput figure (operations per second; the operation —
/// draws, rounds — is the bench's choice).
pub struct Measurement {
    /// Case name, e.g. `with_replacement/batched_64`.
    pub name: String,
    /// Operations per second measured for the case.
    pub per_sec: f64,
}

/// Tells the gate where its baseline lives and which measurement pairs'
/// ratios it enforces.
pub struct GateConfig<'a> {
    /// Path to the committed baseline JSON.
    pub baseline_path: String,
    /// `(baseline_case, optimized_case)` pairs whose `optimized /
    /// baseline` ratios are enforced.
    pub pairs: &'a [(&'a str, &'a str)],
    /// How far a fresh ratio may fall below the baseline's ratio before
    /// the gate fails (`fresh * tolerance < baseline` is a regression).
    pub tolerance: f64,
}

/// Measures `total_ops` operations executed by `f` (which must perform
/// them all per call); `unit` labels the console line (e.g. `draws/s`).
pub fn measure(
    name: &str,
    total_ops: u64,
    mode: Mode,
    unit: &str,
    mut f: impl FnMut(),
) -> Measurement {
    if mode == Mode::Quick {
        f();
        println!("{name:<44} (quick smoke: ran once)");
        return Measurement {
            name: name.to_owned(),
            per_sec: 0.0,
        };
    }
    let (min_secs, min_reps) = match mode {
        Mode::Full => (1.0, 3),
        // The gate trades timing precision for wall-clock; its tolerance
        // absorbs the extra noise.
        Mode::Gate => (0.2, 2),
        Mode::Quick => unreachable!(),
    };
    // Warm-up.
    f();
    let mut reps = 0u32;
    let start = Instant::now();
    loop {
        f();
        reps += 1;
        if start.elapsed().as_secs_f64() > min_secs && reps >= min_reps {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let per_sec = (total_ops * u64::from(reps)) as f64 / secs;
    println!("{name:<44} {per_sec:>12.0} {unit}");
    Measurement {
        name: name.to_owned(),
        per_sec,
    }
}

/// Extracts the `"name": value` entries of the `"results"` object from a
/// JSON file these benches themselves wrote (a deliberately narrow parser
/// — the offline workspace has no serde, and the format is under our
/// control).
#[must_use]
pub fn parse_results(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = json.find("\"results\": {") else {
        return out;
    };
    for line in json[start..].lines().skip(1) {
        let trimmed = line.trim();
        if trimmed.starts_with('}') {
            break;
        }
        let Some((key, value)) = trimmed.rsplit_once(':') else {
            continue;
        };
        let name = key.trim().trim_matches('"').to_owned();
        if let Ok(v) = value.trim().trim_end_matches(',').parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Gate mode: compare fresh same-host ratios for every configured pair
/// against the committed baseline's ratios. Returns the number of
/// regressions. A pair missing from the baseline or from the fresh run is
/// one, and a missing/empty baseline or an empty comparison set counts as
/// one (a silently green gate that compares nothing protects nothing).
pub fn gate_against_baseline(results: &[Measurement], config: &GateConfig<'_>) -> usize {
    let baseline = match std::fs::read_to_string(&config.baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gate: cannot read baseline {}: {e}", config.baseline_path);
            return 1;
        }
    };
    let baseline = parse_results(&baseline);
    if baseline.is_empty() {
        eprintln!("gate: baseline {} has no results", config.baseline_path);
        return 1;
    }
    let lookup = |set: &[(String, f64)], name: &str| -> Option<f64> {
        set.iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .filter(|&v| v > 0.0)
    };
    let fresh: Vec<(String, f64)> = results
        .iter()
        .map(|m| (m.name.clone(), m.per_sec))
        .collect();
    let tolerance = config.tolerance;
    let mut regressions = 0;
    let mut compared = 0;
    println!(
        "\nperf gate vs {} (ratio-based, tolerance {tolerance}x):",
        config.baseline_path
    );
    for &(base_name, new_name) in config.pairs {
        let pair = format!("{new_name} / {base_name}");
        let (Some(base_lo), Some(base_hi)) =
            (lookup(&baseline, base_name), lookup(&baseline, new_name))
        else {
            regressions += 1;
            println!("  FAIL {pair}: pair not in baseline");
            continue;
        };
        let (Some(fresh_lo), Some(fresh_hi)) =
            (lookup(&fresh, base_name), lookup(&fresh, new_name))
        else {
            regressions += 1;
            println!("  FAIL {pair}: pair not measured in this run");
            continue;
        };
        compared += 1;
        let base_ratio = base_hi / base_lo;
        let fresh_ratio = fresh_hi / fresh_lo;
        if fresh_ratio * tolerance < base_ratio {
            regressions += 1;
            println!("  FAIL {pair}: ratio {fresh_ratio:.2}x vs baseline {base_ratio:.2}x");
        } else {
            println!("  ok   {pair}: ratio {fresh_ratio:.2}x vs baseline {base_ratio:.2}x");
        }
    }
    if compared == 0 {
        eprintln!("gate: no pair could be compared against the baseline");
        return 1;
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_own_results_format() {
        let json = concat!(
            "{\n  \"note\": \"x\",\n  \"results\": {\n",
            "    \"a/one\": 100.0,\n    \"a/two\": 250.5\n  },\n",
            "  \"ratios\": {\n    \"ignored\": 2.5\n  }\n}\n"
        );
        assert_eq!(
            parse_results(json),
            vec![("a/one".to_owned(), 100.0), ("a/two".to_owned(), 250.5)]
        );
        assert!(parse_results("{}").is_empty());
    }

    #[test]
    fn pairs_missing_from_either_side_count_as_regressions() {
        let path = std::env::temp_dir().join(format!(
            "rapidviz-perfgate-{}-missing-pairs.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            concat!(
                "{\n  \"results\": {\n",
                "    \"a/one\": 100.0,\n    \"a/two\": 200.0,\n",
                "    \"b/one\": 10.0,\n    \"b/two\": 20.0\n  }\n}\n"
            ),
        )
        .expect("temp baseline writes");
        let fresh = |name: &str, per_sec: f64| Measurement {
            name: name.to_owned(),
            per_sec,
        };
        let results = [
            fresh("a/one", 100.0),
            fresh("a/two", 200.0),
            fresh("b/one", 10.0),
        ];
        let gate = |pairs| {
            gate_against_baseline(
                &results,
                &GateConfig {
                    baseline_path: path.display().to_string(),
                    pairs,
                    tolerance: 1.5,
                },
            )
        };
        assert_eq!(gate(&[("a/one", "a/two")]), 0, "a present pair passes");
        assert_eq!(gate(&[("a/one", "a/missing")]), 1, "absent from baseline");
        assert_eq!(gate(&[("b/one", "b/two")]), 1, "absent from the fresh run");
        assert_eq!(
            gate(&[
                ("a/one", "a/two"),
                ("a/one", "a/missing"),
                ("b/one", "b/two")
            ]),
            2
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gate_fails_loudly_without_baseline() {
        let config = GateConfig {
            baseline_path: "/nonexistent/baseline.json".to_owned(),
            pairs: &[("a", "b")],
            tolerance: 1.5,
        };
        assert_eq!(gate_against_baseline(&[], &config), 1);
    }
}
