//! Trend lines (§6.1.1): for a monthly metric only *adjacent* months must
//! compare correctly — far cheaper than ordering all pairs when distant
//! months nearly tie.
//!
//! ```text
//! cargo run --release --example trendline
//! ```

use rand::{Rng, SeedableRng};
use rapidviz::core::extensions::IFocusGraph;
use rapidviz::core::{is_trend_correct, AlgoConfig, GroupSource, IFocus};
use rapidviz::datagen::VecGroup;

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

fn make_groups(seed: u64) -> Vec<VecGroup> {
    // A seasonal curve: many distant month pairs nearly tie (e.g. spring vs
    // autumn shoulders), which full ordering would have to resolve.
    let seasonal = [
        42.0, 48.0, 55.1, 62.0, 70.0, 76.0, 75.8, 70.2, 62.2, 55.0, 48.2, 41.8,
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    seasonal
        .iter()
        .zip(MONTHS)
        .map(|(&mu, month)| {
            let values: Vec<f64> = (0..150_000)
                .map(|_| if rng.gen_bool(mu / 100.0) { 100.0 } else { 0.0 })
                .collect();
            VecGroup::new(month, values)
        })
        .collect()
}

fn main() {
    let mut groups = make_groups(11);
    let truths: Vec<f64> = groups.iter().map(|g| g.true_mean().unwrap()).collect();
    let total: u64 = groups.iter().map(GroupSource::len).sum();

    let algo = IFocusGraph::path(AlgoConfig::new(100.0, 0.05), groups.len());
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let result = algo.run(&mut groups, &mut rng);

    println!("monthly trend (adjacent comparisons guaranteed w.p. >= 0.95):");
    for (i, month) in MONTHS.iter().enumerate() {
        let bar = "*".repeat((result.estimates[i] / 2.0) as usize);
        println!("{month} | {bar} {:.1}", result.estimates[i]);
    }
    println!(
        "trend correct: {}; cost {} samples ({:.2}%)",
        is_trend_correct(&result.estimates, &truths, 0.0),
        result.total_samples(),
        100.0 * result.fraction_sampled(total)
    );

    // What the full all-pairs guarantee would have cost on the same data.
    let mut groups_full = make_groups(11);
    let full = IFocus::new(AlgoConfig::new(100.0, 0.05));
    let mut rng_full = rand::rngs::StdRng::seed_from_u64(12);
    let result_full = full.run(&mut groups_full, &mut rng_full);
    println!(
        "all-pairs ordering would cost {} samples ({:.1}x more)",
        result_full.total_samples(),
        result_full.total_samples() as f64 / result.total_samples() as f64
    );
}
