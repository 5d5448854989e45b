//! Every §6 extension exercised end-to-end.

use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::sum::SizedGroupSource;
use rapidviz::core::extensions::{
    ifocus_count, IFocusGraph, IFocusMistakes, IFocusMultiAggregate, IFocusPartial, IFocusSum1,
    IFocusSum2, IFocusTopT, IFocusValues, NoIndexSampler, VecPairGroup, VecSizedGroup, VecStream,
};
use rapidviz::core::{
    fraction_correct_pairs, is_top_t_correct, is_trend_correct, AlgoConfig, GroupSource,
};
use rapidviz::datagen::VecGroup;

fn two_point_groups(means: &[f64], n: usize, seed: u64) -> Vec<VecGroup> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    means
        .iter()
        .enumerate()
        .map(|(i, &mu)| {
            let values: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                .collect();
            VecGroup::new(format!("g{i}"), values)
        })
        .collect()
}

fn truths(groups: &[VecGroup]) -> Vec<f64> {
    groups.iter().map(|g| g.true_mean().unwrap()).collect()
}

#[test]
fn trends_extension() {
    let means = [30.0, 55.0, 40.0, 70.0, 20.0, 65.0];
    let mut groups = two_point_groups(&means, 80_000, 1000);
    let t = truths(&groups);
    let algo = IFocusGraph::path(AlgoConfig::new(100.0, 0.05), groups.len());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
    let result = algo.run(&mut groups, &mut rng);
    assert!(is_trend_correct(&result.estimates, &t, 0.0));
}

#[test]
fn topt_extension() {
    let means = [10.0, 85.0, 35.0, 60.0, 90.0, 20.0, 70.0, 45.0];
    let mut groups = two_point_groups(&means, 60_000, 1010);
    let t = truths(&groups);
    let algo = IFocusTopT::new(AlgoConfig::new(100.0, 0.05), 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1011);
    let result = algo.run(&mut groups, &mut rng);
    assert!(is_top_t_correct(&result.estimates, &t, 3, 0.0));
    let top = algo.top_indices(&result);
    assert_eq!(top, vec![4, 1, 6], "90, 85, 70");
}

#[test]
fn mistakes_extension() {
    let means = [20.0, 45.0, 46.0, 75.0, 90.0];
    let mut groups = two_point_groups(&means, 150_000, 1020);
    let t = truths(&groups);
    let algo = IFocusMistakes::new(AlgoConfig::new(100.0, 0.05), 0.15);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1021);
    let result = algo.run(&mut groups, &mut rng);
    assert!(fraction_correct_pairs(&result.estimates, &t) >= 0.85);
}

#[test]
fn values_extension() {
    let means = [25.0, 55.0, 85.0];
    let d = 2.5;
    let mut groups = two_point_groups(&means, 150_000, 1030);
    let t = truths(&groups);
    let algo = IFocusValues::new(AlgoConfig::new(100.0, 0.05), d);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1031);
    let result = algo.run(&mut groups, &mut rng);
    for (est, tr) in result.estimates.iter().zip(&t) {
        assert!(
            (est - tr).abs() <= d,
            "value accuracy violated: {est} vs {tr}"
        );
    }
}

#[test]
fn partial_extension_streams_in_order() {
    let means = [15.0, 40.0, 41.0, 80.0];
    let mut groups = two_point_groups(&means, 150_000, 1040);
    let algo = IFocusPartial::new(AlgoConfig::new(100.0, 0.05));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1041);
    let mut emitted = Vec::new();
    let _ = algo.run(&mut groups, &mut rng, |e| emitted.push(e.group));
    assert_eq!(emitted.len(), 4);
    // The contentious pair (1, 2) certifies after the easy groups.
    let pos = |g: usize| emitted.iter().position(|&x| x == g).unwrap();
    assert!(pos(0) < pos(1).max(pos(2)) || pos(3) < pos(1).max(pos(2)));
}

#[test]
fn sum_known_sizes_extension() {
    // Ordering by SUM where sizes invert the mean ordering.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1050);
    let big: Vec<f64> = (0..80_000)
        .map(|_| if rng.gen_bool(0.3) { 100.0 } else { 0.0 })
        .collect();
    let small: Vec<f64> = (0..4_000)
        .map(|_| if rng.gen_bool(0.9) { 100.0 } else { 0.0 })
        .collect();
    let mut groups = vec![VecGroup::new("big", big), VecGroup::new("small", small)];
    let true_sums: Vec<f64> = groups
        .iter()
        .map(|g| g.true_mean().unwrap() * g.len() as f64)
        .collect();
    assert!(true_sums[0] > true_sums[1]);
    let algo = IFocusSum1::new(AlgoConfig::new(100.0, 0.05));
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(1051);
    let result = algo.run(&mut groups, &mut run_rng);
    assert!(result.estimates[0] > result.estimates[1]);
}

#[test]
fn sum_unknown_sizes_extension() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1060);
    let mut mk = |mean: f64| -> Vec<f64> {
        (0..20_000)
            .map(|_| {
                if rng.gen_bool(mean / 100.0) {
                    100.0
                } else {
                    0.0
                }
            })
            .collect()
    };
    let mut groups = vec![
        VecSizedGroup::new("a", mk(40.0), 0.7), // σ ≈ 28
        VecSizedGroup::new("b", mk(60.0), 0.2), // σ ≈ 12
        VecSizedGroup::new("c", mk(30.0), 0.1), // σ ≈ 3
    ];
    let t: Vec<f64> = groups
        .iter()
        .map(|g| g.true_normalized_sum().unwrap())
        .collect();
    let algo = IFocusSum2::new(AlgoConfig::new(100.0, 0.05).with_resolution(2.0));
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(1061);
    let result = algo.run(&mut groups, &mut run_rng);
    assert!(rapidviz::core::is_correctly_ordered_with_resolution(
        &result.estimates,
        &t,
        2.0
    ));
}

#[test]
fn count_extension() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1070);
    let filler: Vec<f64> = (0..1000).map(|_| rng.gen_range(0.0..100.0)).collect();
    let mut groups = vec![
        VecSizedGroup::new("major", filler.clone(), 0.6),
        VecSizedGroup::new("minor", filler.clone(), 0.25),
        VecSizedGroup::new("rare", filler, 0.15),
    ];
    let config = AlgoConfig::new(100.0, 0.05).with_resolution(0.04);
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(1071);
    let result = ifocus_count(&config, &mut groups, &mut run_rng);
    assert!(result.estimates[0] > result.estimates[1]);
    assert!(result.estimates[1] > result.estimates[2]);
    assert!((result.estimates[0] - 0.6).abs() < 0.06);
}

#[test]
fn multi_aggregate_extension() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1080);
    let specs = [(25.0, 70.0), (55.0, 20.0), (85.0, 45.0)];
    let mut groups: Vec<VecPairGroup> = specs
        .iter()
        .enumerate()
        .map(|(i, &(my, mz))| {
            let pairs: Vec<(f64, f64)> = (0..60_000)
                .map(|_| {
                    (
                        if rng.gen_bool(my / 100.0) { 100.0 } else { 0.0 },
                        if rng.gen_bool(mz / 100.0) { 100.0 } else { 0.0 },
                    )
                })
                .collect();
            VecPairGroup::new(format!("g{i}"), pairs)
        })
        .collect();
    let algo = IFocusMultiAggregate::new(AlgoConfig::new(100.0, 0.05));
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(1081);
    let result = algo.run(&mut groups, &mut run_rng);
    // Y ordering: g0 < g1 < g2; Z ordering: g1 < g2 < g0.
    assert!(result.y_estimates[0] < result.y_estimates[1]);
    assert!(result.y_estimates[1] < result.y_estimates[2]);
    assert!(result.z_estimates[1] < result.z_estimates[2]);
    assert!(result.z_estimates[2] < result.z_estimates[0]);
}

#[test]
fn noindex_extension() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1090);
    let mut mk = |mean: f64, n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.gen_bool(mean / 100.0) {
                    100.0
                } else {
                    0.0
                }
            })
            .collect()
    };
    let mut stream = VecStream::new(vec![
        ("x".into(), mk(20.0, 40_000)),
        ("y".into(), mk(55.0, 40_000)),
        ("z".into(), mk(85.0, 40_000)),
    ]);
    let t = stream.true_means();
    let algo = NoIndexSampler::new(AlgoConfig::new(100.0, 0.05));
    let mut run_rng = rand::rngs::StdRng::seed_from_u64(1091);
    let result = algo.run(&mut stream, &mut run_rng);
    assert!(rapidviz::core::is_correctly_ordered(&result.estimates, &t));
}

/// FNV-1a over 64-bit words: a compact, order-sensitive fingerprint of a
/// run's outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn result(&mut self, r: &rapidviz::core::RunResult) {
        for &e in &r.estimates {
            self.float(e);
        }
        for &s in &r.samples_per_group {
            self.word(s);
        }
        self.word(r.rounds);
        self.word(u64::from(r.truncated));
        let trace = r.trace.as_ref().expect("trace enabled");
        self.word(trace.rows().len() as u64);
        for row in trace.rows() {
            self.word(row.round);
            for iv in &row.intervals {
                self.float(iv.lo);
                self.float(iv.hi);
            }
            for &a in &row.active {
                self.word(u64::from(a));
            }
        }
        let history = r.history.as_ref().expect("history enabled");
        self.word(history.points().len() as u64);
        for p in history.points() {
            self.word(p.round);
            self.word(p.total_samples);
            self.word(p.active_groups as u64);
            for &e in &p.estimates {
                self.float(e);
            }
        }
    }
}

/// Golden fixed-seed digests of the IFOCUS family: every §6 variant's
/// estimates, per-group samples, rounds, truncation flag, trace, history
/// and (for partial results) emission stream, over 16 seeds × both
/// sampling modes × {plain, resolution, round-capped}. The values were
/// captured before the variants shared one round loop; any change to the
/// RNG stream, the deactivation order or the trace bookkeeping shows up
/// here bit for bit.
#[test]
fn golden_digests_of_the_ifocus_family() {
    use rapidviz::core::extensions::IFocusGraph;
    use rapidviz::core::{IFocus, SamplingMode};

    const MEANS: [f64; 6] = [15.0, 35.0, 48.0, 56.0, 75.0, 90.0];
    let variants = [
        "ifocus",
        "values",
        "mistakes",
        "topt_largest",
        "topt_smallest",
        "graph_path",
        "graph_grid",
        "partial",
    ];
    let mut digests: Vec<Digest> = variants.iter().map(|_| Digest::new()).collect();
    for seed in 0..16u64 {
        for mode in [
            SamplingMode::WithoutReplacement,
            SamplingMode::WithReplacement,
        ] {
            for shape in 0..3 {
                let base = AlgoConfig::new(100.0, 0.05)
                    .with_mode(mode)
                    .with_trace()
                    .with_history_every(5);
                let config = match shape {
                    0 => base,
                    1 => base.with_resolution(6.0),
                    _ => base.with_max_rounds(40),
                };
                let data = two_point_groups(&MEANS, 1_500, 7_000 + seed);
                let run_seed = 9_000 + seed * 31 + shape;
                for (v, digest) in variants.iter().zip(&mut digests) {
                    let mut groups = data.clone();
                    let mut rng = rand::rngs::StdRng::seed_from_u64(run_seed);
                    let result = match *v {
                        "ifocus" => IFocus::new(config.clone()).run(&mut groups, &mut rng),
                        "values" => {
                            IFocusValues::new(config.clone(), 20.0).run(&mut groups, &mut rng)
                        }
                        "mistakes" => {
                            IFocusMistakes::new(config.clone(), 0.2).run(&mut groups, &mut rng)
                        }
                        "topt_largest" => {
                            IFocusTopT::new(config.clone(), 2).run(&mut groups, &mut rng)
                        }
                        "topt_smallest" => {
                            IFocusTopT::new_bottom(config.clone(), 2).run(&mut groups, &mut rng)
                        }
                        "graph_path" => {
                            IFocusGraph::path(config.clone(), 6).run(&mut groups, &mut rng)
                        }
                        "graph_grid" => {
                            IFocusGraph::grid(config.clone(), 2, 3).run(&mut groups, &mut rng)
                        }
                        _ => {
                            let mut emissions = Vec::new();
                            let r = IFocusPartial::new(config.clone()).run(
                                &mut groups,
                                &mut rng,
                                |e| emissions.push(e),
                            );
                            digest.word(emissions.len() as u64);
                            for e in &emissions {
                                digest.word(e.group as u64);
                                digest.word(e.label.len() as u64);
                                for b in e.label.bytes() {
                                    digest.word(u64::from(b));
                                }
                                digest.float(e.estimate);
                                digest.word(e.round);
                                digest.word(e.total_samples_so_far);
                            }
                            r
                        }
                    };
                    digest.result(&result);
                }
            }
        }
    }
    let got: Vec<(&str, u64)> = variants
        .iter()
        .zip(&digests)
        .map(|(&v, d)| (v, d.0))
        .collect();
    let expected: [(&str, u64); 8] = [
        ("ifocus", 0xca335a2541e4e81f),
        ("values", 0x6b5f7878a123216f),
        ("mistakes", 0x835ae91fde441a1c),
        ("topt_largest", 0xee152d488b0a35f3),
        ("topt_smallest", 0xc605bf5c9bc4abce),
        ("graph_path", 0x167ce0c40ec1858c),
        ("graph_grid", 0x017ba4e170d84467),
        ("partial", 0x5064a55b5ff48258),
    ];
    assert_eq!(got, expected, "golden digests changed: {got:#x?}");
}
