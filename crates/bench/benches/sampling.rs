//! Sampling-pipeline benchmark: single-draw loop vs batched `select_many`
//! resolution, and IFOCUS rounds at growing batch sizes.
//!
//! Run with `cargo bench --bench sampling`. Beyond the usual console lines, the
//! run writes `BENCH_sampling.json` into the workspace root (override with
//! `BENCH_SAMPLING_OUT`) so the perf trajectory is tracked in-repo.
//!
//! Two reduced modes:
//!
//! * `--quick` / `--test` — single-iteration smoke pass, no JSON write.
//! * `--gate` — the CI perf-regression gate: a shortened but *measured*
//!   pass compared against the committed `BENCH_sampling.json` (override
//!   with `BENCH_SAMPLING_BASELINE`) **by speedup ratio, not absolute
//!   draws/s**: for every tracked (single-loop, batched) pair, the fresh
//!   batched-over-single ratio — both sides measured on the *same* host in
//!   the *same* run, so machine speed cancels — must not fall more than
//!   [`GATE_TOLERANCE`]× below the baseline's ratio for that pair. This
//!   keeps slow or noisy CI runners from flaking the gate while still
//!   catching real pipeline regressions (a batched path collapsing back to
//!   per-draw cost shows up in the ratio no matter the hardware). The
//!   fresh numbers are written to `BENCH_sampling.fresh.json` (override
//!   with `BENCH_SAMPLING_OUT`) for artifact upload, never to the
//!   committed baseline. A pair with a side missing from either run counts
//!   as a regression, and a missing baseline fails loudly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapidviz_bench::perfgate::{self, GateConfig, Measurement, Mode};
use rapidviz_core::group::VecGroup;
use rapidviz_core::{AlgoConfig, IFocus};
use rapidviz_needletail::sampler::BitmapSampler;
use rapidviz_needletail::Bitmap;
use std::fmt::Write as _;
use std::hint::black_box;

/// 1M-row bitmap with a realistic mixed profile: a dense cluster plus
/// scattered singletons (≈260k eligible rows).
fn test_bitmap() -> Bitmap {
    let mut positions: Vec<u64> = (100_000..300_000).collect();
    positions.extend((300_000..1_000_000).step_by(12).map(|p| p as u64));
    Bitmap::from_sorted_positions(&positions, 1_000_000)
}

/// How far a gate-mode **speedup ratio** (batched vs single-loop, measured
/// on the same host) may fall below the committed baseline's ratio before
/// the gate fails: `fresh_ratio < baseline_ratio / GATE_TOLERANCE` is a
/// regression. Ratios cancel the runner's absolute speed, so this only has
/// to absorb timing jitter within one run (observed well under ±20% even
/// in the shortened gate pass). It must stay well below the smallest
/// baseline ratio worth defending (~2.4× for the big-batch cache-cold
/// cases): at 1.5× a batched path collapsing to single-draw cost
/// (ratio → 1.0) fails every pair whose baseline ratio exceeds 1.5.
const GATE_TOLERANCE: f64 = 1.5;

/// The (single-loop baseline, optimized/batched) measurement pairs whose
/// speedups are reported in the JSON and enforced (as ratios) by the gate.
const SPEEDUP_PAIRS: &[(&str, &str)] = &[
    // Headline: the batched pipeline vs the seed single-draw loop.
    (
        "with_replacement/seed_single_loop",
        "with_replacement/batched_64",
    ),
    (
        "with_replacement/seed_single_loop",
        "with_replacement/batched_1024",
    ),
    (
        "without_replacement/seed_single_loop",
        "without_replacement/batched_64",
    ),
    (
        "without_replacement/seed_single_loop",
        "without_replacement/batched_256",
    ),
    (
        "without_replacement/seed_single_loop",
        "without_replacement/batched_1024",
    ),
    (
        "without_replacement/seed_single_loop",
        "without_replacement/batched_4096",
    ),
    // The PR also speeds up the single-draw path itself (broadword
    // select + open-addressed swap map):
    (
        "without_replacement/seed_single_loop",
        "without_replacement/single_loop",
    ),
    // Batched vs the already-optimized single loop, for transparency:
    (
        "with_replacement/single_loop",
        "with_replacement/batched_1024",
    ),
    (
        "without_replacement/single_loop",
        "without_replacement/batched_1024",
    ),
    // Select-bound regime (paper-scale bitmaps, cache-cold directory):
    (
        "large16m_with_replacement/seed_single_loop",
        "large16m_with_replacement/batched_64",
    ),
    (
        "large16m_with_replacement/seed_single_loop",
        "large16m_with_replacement/batched_1024",
    ),
    (
        "large16m_with_replacement/seed_single_loop",
        "large16m_with_replacement/batched_4096",
    ),
    (
        "large16m_without_replacement/seed_single_loop",
        "large16m_without_replacement/batched_64",
    ),
    (
        "large16m_without_replacement/seed_single_loop",
        "large16m_without_replacement/batched_1024",
    ),
    (
        "large16m_without_replacement/seed_single_loop",
        "large16m_without_replacement/batched_4096",
    ),
    (
        "large16m_without_replacement/single_loop",
        "large16m_without_replacement/batched_4096",
    ),
    // Cache-cold regime (DRAM-latency directory):
    (
        "huge256m_with_replacement/seed_single_loop",
        "huge256m_with_replacement/batched_64",
    ),
    (
        "huge256m_with_replacement/seed_single_loop",
        "huge256m_with_replacement/batched_1024",
    ),
    (
        "huge256m_with_replacement/seed_single_loop",
        "huge256m_with_replacement/batched_4096",
    ),
    (
        "huge256m_without_replacement/seed_single_loop",
        "huge256m_without_replacement/batched_64",
    ),
    (
        "huge256m_without_replacement/seed_single_loop",
        "huge256m_without_replacement/batched_1024",
    ),
    (
        "huge256m_without_replacement/seed_single_loop",
        "huge256m_without_replacement/batched_4096",
    ),
    (
        "huge256m_without_replacement/single_loop",
        "huge256m_without_replacement/batched_4096",
    ),
    (
        "huge256m_with_replacement/seed_single_loop",
        "huge256m_with_replacement/batched_16384",
    ),
    (
        "huge256m_without_replacement/seed_single_loop",
        "huge256m_without_replacement/batched_16384",
    ),
    ("ifocus/round_batch_1", "ifocus/round_batch_64"),
];

/// Faithful replica of the **seed** (pre-PR) sampling path, kept here as
/// the "before" baseline: a superblock directory binary search per draw, a
/// per-bit clear-lowest scan inside the word, and a SipHash-keyed `HashMap`
/// for the virtual Fisher–Yates state. The PR replaced all three (broadword
/// select, open-addressed swap map, batched `select_many` resolution).
mod seed_baseline {
    use rand::Rng;
    use std::collections::HashMap;

    const WORDS_PER_SUPERBLOCK: usize = 8;

    #[derive(Clone)]
    pub struct SeedDense {
        words: Vec<u64>,
        super_ranks: Vec<u64>,
        count_ones: u64,
    }

    impl SeedDense {
        pub fn from_sorted_positions(positions: &[u64], len: u64) -> Self {
            let mut words = vec![0u64; (len.div_ceil(64)) as usize];
            for &p in positions {
                words[(p / 64) as usize] |= 1u64 << (p % 64);
            }
            Self::from_words(words, len)
        }

        pub fn from_words(words: Vec<u64>, _len: u64) -> Self {
            let n_super = words.len().div_ceil(WORDS_PER_SUPERBLOCK);
            let mut super_ranks = Vec::with_capacity(n_super + 1);
            let mut running = 0u64;
            for s in 0..=n_super {
                super_ranks.push(running);
                if s < n_super {
                    let start = s * WORDS_PER_SUPERBLOCK;
                    let end = (start + WORDS_PER_SUPERBLOCK).min(words.len());
                    running += words[start..end]
                        .iter()
                        .map(|w| u64::from(w.count_ones()))
                        .sum::<u64>();
                }
            }
            Self {
                words,
                super_ranks,
                count_ones: running,
            }
        }

        pub fn count_ones(&self) -> u64 {
            self.count_ones
        }

        pub fn select(&self, k: u64) -> Option<u64> {
            if k >= self.count_ones {
                return None;
            }
            let sb = self.super_ranks.partition_point(|&r| r <= k) - 1;
            let mut remaining = k - self.super_ranks[sb];
            let word_start = sb * WORDS_PER_SUPERBLOCK;
            let word_end = (word_start + WORDS_PER_SUPERBLOCK).min(self.words.len());
            for wi in word_start..word_end {
                let ones = u64::from(self.words[wi].count_ones());
                if remaining < ones {
                    let bit = seed_select_in_word(self.words[wi], remaining as u32);
                    return Some((wi as u64) * 64 + u64::from(bit));
                }
                remaining -= ones;
            }
            unreachable!()
        }
    }

    /// The seed's per-bit scan.
    fn seed_select_in_word(mut word: u64, mut r: u32) -> u32 {
        loop {
            let tz = word.trailing_zeros();
            if r == 0 {
                return tz;
            }
            word &= word - 1;
            r -= 1;
        }
    }

    /// The seed's without-replacement sampler: SipHash map state.
    pub struct SeedSampler {
        bitmap: SeedDense,
        eligible: u64,
        swaps: HashMap<u64, u64>,
        drawn: u64,
    }

    impl SeedSampler {
        pub fn new(bitmap: SeedDense) -> Self {
            let eligible = bitmap.count_ones();
            Self {
                bitmap,
                eligible,
                swaps: HashMap::new(),
                drawn: 0,
            }
        }

        pub fn sample_with_replacement<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
            if self.eligible == 0 {
                return None;
            }
            let k = rng.gen_range(0..self.eligible);
            self.bitmap.select(k)
        }

        pub fn sample_without_replacement<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
            if self.drawn == self.eligible {
                return None;
            }
            let j = rng.gen_range(self.drawn..self.eligible);
            let chosen = self.logical(j);
            let displaced = self.logical(self.drawn);
            self.swaps.insert(j, displaced);
            self.swaps.remove(&self.drawn);
            self.drawn += 1;
            self.bitmap.select(chosen)
        }

        pub fn reset(&mut self) {
            self.swaps.clear();
            self.drawn = 0;
        }

        fn logical(&self, slot: u64) -> u64 {
            *self.swaps.get(&slot).unwrap_or(&slot)
        }
    }
}

/// Measures `total_draws` executed by `f` (which must perform them all) —
/// a thin wrapper over the shared harness fixing this bench's unit label.
fn measure(name: &str, total_draws: u64, mode: Mode, f: impl FnMut()) -> Measurement {
    perfgate::measure(name, total_draws, mode, "draws/s", f)
}

fn main() {
    let mode = Mode::from_args();
    let mut results: Vec<Measurement> = Vec::new();
    let bitmap = test_bitmap();
    let n_draws: u64 = match mode {
        Mode::Quick => 4_096,
        Mode::Gate | Mode::Full => 65_536,
    };

    // --- Seed (pre-PR) baselines: binary search + per-bit scan + SipHash. ---
    {
        let mut positions: Vec<u64> = (100_000..300_000).collect();
        positions.extend((300_000..1_000_000).step_by(12).map(|p| p as u64));
        let seed_bm = seed_baseline::SeedDense::from_sorted_positions(&positions, 1_000_000);
        let seed_sampler = seed_baseline::SeedSampler::new(seed_bm);
        results.push(measure(
            "with_replacement/seed_single_loop",
            n_draws,
            mode,
            || {
                let mut rng = StdRng::seed_from_u64(1);
                for _ in 0..n_draws {
                    black_box(seed_sampler.sample_with_replacement(&mut rng));
                }
            },
        ));
        let seed_bm = seed_baseline::SeedDense::from_sorted_positions(&positions, 1_000_000);
        let mut sampler = seed_baseline::SeedSampler::new(seed_bm);
        results.push(measure(
            "without_replacement/seed_single_loop",
            n_draws,
            mode,
            || {
                // Reset (fresh permutation) per rep instead of cloning the
                // bitmap; the new-path loops below do the same.
                sampler.reset();
                let mut rng = StdRng::seed_from_u64(2);
                for _ in 0..n_draws {
                    black_box(sampler.sample_without_replacement(&mut rng));
                }
            },
        ));
    }

    // --- With replacement: k independent selects vs one sorted sweep. ---
    {
        let mut sampler = BitmapSampler::new(bitmap.clone());
        results.push(measure(
            "with_replacement/single_loop",
            n_draws,
            mode,
            || {
                let mut rng = StdRng::seed_from_u64(1);
                for _ in 0..n_draws {
                    black_box(sampler.sample_with_replacement(&mut rng));
                }
            },
        ));
        for batch in [64usize, 256, 1024, 4096] {
            results.push(measure(
                &format!("with_replacement/batched_{batch}"),
                n_draws,
                mode,
                || {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..n_draws / batch as u64 {
                        out.clear();
                        sampler.sample_batch_with_replacement(batch, &mut rng, &mut out);
                        black_box(&out);
                    }
                },
            ));
        }
    }

    // --- Without replacement: virtual Fisher–Yates + select resolution. ---
    {
        let mut sampler = BitmapSampler::new(bitmap.clone());
        results.push(measure(
            "without_replacement/single_loop",
            n_draws,
            mode,
            || {
                sampler.reset();
                let mut rng = StdRng::seed_from_u64(2);
                for _ in 0..n_draws {
                    black_box(sampler.sample_without_replacement(&mut rng));
                }
            },
        ));
        for batch in [64usize, 256, 1024, 4096] {
            let mut sampler = BitmapSampler::new(bitmap.clone());
            results.push(measure(
                &format!("without_replacement/batched_{batch}"),
                n_draws,
                mode,
                || {
                    sampler.reset();
                    let mut rng = StdRng::seed_from_u64(2);
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..n_draws / batch as u64 {
                        out.clear();
                        sampler.sample_batch_without_replacement(batch, &mut rng, &mut out);
                        black_box(&out);
                    }
                },
            ));
        }
    }

    // --- Select-bound regime: 16M rows, where the rank directory and word
    // array no longer fit in cache and every independent binary search pays
    // memory latency. This is where the paper-scale (10^7–10^10 row)
    // workloads live, and where the sorted monotone sweep wins big.
    {
        let positions: Vec<u64> = (0..16_000_000u64).step_by(4).collect();
        let big = Bitmap::from_sorted_positions(&positions, 16_000_000);
        let seed_big = seed_baseline::SeedDense::from_sorted_positions(&positions, 16_000_000);
        let seed_sampler = seed_baseline::SeedSampler::new(seed_big.clone());
        results.push(measure(
            "large16m_with_replacement/seed_single_loop",
            n_draws,
            mode,
            || {
                let mut rng = StdRng::seed_from_u64(5);
                for _ in 0..n_draws {
                    black_box(seed_sampler.sample_with_replacement(&mut rng));
                }
            },
        ));
        let mut sampler = BitmapSampler::new(big.clone());
        results.push(measure(
            "large16m_with_replacement/single_loop",
            n_draws,
            mode,
            || {
                let mut rng = StdRng::seed_from_u64(5);
                for _ in 0..n_draws {
                    black_box(sampler.sample_with_replacement(&mut rng));
                }
            },
        ));
        for batch in [64usize, 1024, 4096] {
            results.push(measure(
                &format!("large16m_with_replacement/batched_{batch}"),
                n_draws,
                mode,
                || {
                    let mut rng = StdRng::seed_from_u64(5);
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..n_draws / batch as u64 {
                        out.clear();
                        sampler.sample_batch_with_replacement(batch, &mut rng, &mut out);
                        black_box(&out);
                    }
                },
            ));
        }
        let mut seed_wor = seed_baseline::SeedSampler::new(seed_big.clone());
        results.push(measure(
            "large16m_without_replacement/seed_single_loop",
            n_draws,
            mode,
            || {
                seed_wor.reset();
                let mut rng = StdRng::seed_from_u64(6);
                for _ in 0..n_draws {
                    black_box(seed_wor.sample_without_replacement(&mut rng));
                }
            },
        ));
        let mut wor = BitmapSampler::new(big.clone());
        results.push(measure(
            "large16m_without_replacement/single_loop",
            n_draws,
            mode,
            || {
                wor.reset();
                let mut rng = StdRng::seed_from_u64(6);
                for _ in 0..n_draws {
                    black_box(wor.sample_without_replacement(&mut rng));
                }
            },
        ));
        for batch in [64usize, 1024, 4096] {
            let mut wor = BitmapSampler::new(big.clone());
            results.push(measure(
                &format!("large16m_without_replacement/batched_{batch}"),
                n_draws,
                mode,
                || {
                    wor.reset();
                    let mut rng = StdRng::seed_from_u64(6);
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..n_draws / batch as u64 {
                        out.clear();
                        wor.sample_batch_without_replacement(batch, &mut rng, &mut out);
                        black_box(&out);
                    }
                },
            ));
        }
    }

    // --- Cache-cold regime: 256M rows (32 MB of words, 4 MB directory),
    // where every independent binary search takes DRAM-latency misses but
    // the sorted sweep's forward walk is prefetch-friendly. ---
    {
        // Every 4th bit set: 64M eligible rows, built straight from words.
        let words = vec![0x1111_1111_1111_1111u64; 4_000_000];
        let big = Bitmap::Dense(rapidviz_needletail::DenseBitmap::from_words(
            words.clone(),
            256_000_000,
        ));
        let seed_big = seed_baseline::SeedDense::from_words(words, 256_000_000);
        let seed_sampler = seed_baseline::SeedSampler::new(seed_big.clone());
        results.push(measure(
            "huge256m_with_replacement/seed_single_loop",
            n_draws,
            mode,
            || {
                let mut rng = StdRng::seed_from_u64(7);
                for _ in 0..n_draws {
                    black_box(seed_sampler.sample_with_replacement(&mut rng));
                }
            },
        ));
        let mut sampler = BitmapSampler::new(big.clone());
        results.push(measure(
            "huge256m_with_replacement/single_loop",
            n_draws,
            mode,
            || {
                let mut rng = StdRng::seed_from_u64(7);
                for _ in 0..n_draws {
                    black_box(sampler.sample_with_replacement(&mut rng));
                }
            },
        ));
        for batch in [64usize, 1024, 4096, 16384] {
            results.push(measure(
                &format!("huge256m_with_replacement/batched_{batch}"),
                n_draws,
                mode,
                || {
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..n_draws / batch as u64 {
                        out.clear();
                        sampler.sample_batch_with_replacement(batch, &mut rng, &mut out);
                        black_box(&out);
                    }
                },
            ));
        }
        let mut seed_wor = seed_baseline::SeedSampler::new(seed_big.clone());
        results.push(measure(
            "huge256m_without_replacement/seed_single_loop",
            n_draws,
            mode,
            || {
                seed_wor.reset();
                let mut rng = StdRng::seed_from_u64(8);
                for _ in 0..n_draws {
                    black_box(seed_wor.sample_without_replacement(&mut rng));
                }
            },
        ));
        let mut wor = BitmapSampler::new(big.clone());
        results.push(measure(
            "huge256m_without_replacement/single_loop",
            n_draws,
            mode,
            || {
                wor.reset();
                let mut rng = StdRng::seed_from_u64(8);
                for _ in 0..n_draws {
                    black_box(wor.sample_without_replacement(&mut rng));
                }
            },
        ));
        for batch in [64usize, 1024, 4096, 16384] {
            let mut wor = BitmapSampler::new(big.clone());
            results.push(measure(
                &format!("huge256m_without_replacement/batched_{batch}"),
                n_draws,
                mode,
                || {
                    wor.reset();
                    let mut rng = StdRng::seed_from_u64(8);
                    let mut out = Vec::with_capacity(batch);
                    for _ in 0..n_draws / batch as u64 {
                        out.clear();
                        wor.sample_batch_without_replacement(batch, &mut rng, &mut out);
                        black_box(&out);
                    }
                },
            ));
        }
    }

    // --- End-to-end round loop: IFocus with per-round batching. ---
    {
        let make_groups = || -> Vec<VecGroup> {
            let mut rng = StdRng::seed_from_u64(3);
            [30.0f64, 45.0, 55.0, 70.0]
                .iter()
                .enumerate()
                .map(|(i, &mu)| {
                    let values: Vec<f64> = (0..100_000)
                        .map(|_| {
                            use rand::Rng;
                            if rng.gen_bool(mu / 100.0) {
                                100.0
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    VecGroup::new(format!("g{i}"), values)
                })
                .collect()
        };
        let groups_proto = make_groups();
        let run_once = |config: AlgoConfig| {
            let mut groups = groups_proto.clone();
            let mut rng = StdRng::seed_from_u64(4);
            IFocus::new(config)
                .run(&mut groups, &mut rng)
                .total_samples()
        };
        let total = run_once(AlgoConfig::new(100.0, 0.05));
        results.push(measure("ifocus/round_batch_1", total, mode, || {
            black_box(run_once(AlgoConfig::new(100.0, 0.05)));
        }));
        results.push(measure("ifocus/round_batch_64", total, mode, || {
            black_box(run_once(
                AlgoConfig::new(100.0, 0.05).with_samples_per_round(64),
            ));
        }));
    }

    // --- Wide rounds: 16 groups x 4096 draws per round. ---
    {
        let make_groups = || -> Vec<VecGroup> {
            let mut rng = StdRng::seed_from_u64(9);
            (0..16)
                .map(|i| {
                    let mu = 20.0 + 4.0 * i as f64;
                    let values: Vec<f64> = (0..100_000)
                        .map(|_| {
                            use rand::Rng;
                            if rng.gen_bool(mu / 100.0) {
                                100.0
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    VecGroup::new(format!("g{i}"), values)
                })
                .collect()
        };
        let groups_proto = make_groups();
        let run_once = |config: AlgoConfig| {
            let mut groups = groups_proto.clone();
            let mut rng = StdRng::seed_from_u64(10);
            IFocus::new(config)
                .run(&mut groups, &mut rng)
                .total_samples()
        };
        let base_cfg = || {
            AlgoConfig::new(100.0, 0.05)
                .with_samples_per_round(4096)
                .with_max_rounds(200)
        };
        let total = run_once(base_cfg());
        results.push(measure("ifocus_wide/round_batch_4096", total, mode, || {
            black_box(run_once(base_cfg()));
        }));
    }

    report(&results, mode);
}

fn speedup(results: &[Measurement], base: &str, new: &str) -> Option<f64> {
    let get = |n: &str| results.iter().find(|m| m.name == n).map(|m| m.per_sec);
    match (get(base), get(new)) {
        (Some(b), Some(n)) if b > 0.0 => Some(n / b),
        _ => None,
    }
}

/// Gate mode: compare fresh **speedup ratios** (batched vs single-loop,
/// both sides from the same host and run) against the committed baseline's
/// ratios via the shared harness. Returns the number of regressions.
fn gate_against_baseline(results: &[Measurement]) -> usize {
    let baseline_path = std::env::var("BENCH_SAMPLING_BASELINE")
        .unwrap_or_else(|_| format!("{}/../../BENCH_sampling.json", env!("CARGO_MANIFEST_DIR")));
    perfgate::gate_against_baseline(
        results,
        &GateConfig {
            baseline_path,
            pairs: SPEEDUP_PAIRS,
            tolerance: GATE_TOLERANCE,
        },
    )
}

fn report(results: &[Measurement], mode: Mode) {
    if mode == Mode::Quick {
        println!("quick mode: skipping BENCH_sampling.json write");
        return;
    }
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sampling pipeline: seed single-draw loop vs batched select_many\",\n",
            "  \"unit\": \"draws per second\",\n",
            "  \"note\": \"seed_single_loop replicates the pre-batching implementation ",
            "(flat directory binary search, per-bit word scan, SipHash Fisher-Yates map). ",
            "Measured on a {cpus}-cpu host; small-bitmap regimes are cache-resident here, ",
            "which favors the per-draw baseline.\",\n",
            "  \"results\": {{\n",
        ),
        cpus = cpus
    );
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{}\": {:.0}{comma}", m.name, m.per_sec);
    }
    json.push_str("  },\n  \"speedups\": {\n");
    let lines: Vec<String> = SPEEDUP_PAIRS
        .iter()
        .filter_map(|(b, n)| speedup(results, b, n).map(|s| format!("    \"{n} vs {b}\": {s:.2}")))
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  }\n}\n");
    println!("{json}");
    // Gate runs never overwrite the committed baseline; their numbers go to
    // a sibling "fresh" file for CI artifact upload.
    let default_out = match mode {
        Mode::Gate => format!(
            "{}/../../BENCH_sampling.fresh.json",
            env!("CARGO_MANIFEST_DIR")
        ),
        _ => format!("{}/../../BENCH_sampling.json", env!("CARGO_MANIFEST_DIR")),
    };
    let out_path = std::env::var("BENCH_SAMPLING_OUT").unwrap_or(default_out);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    if mode == Mode::Gate {
        let regressions = gate_against_baseline(results);
        assert!(
            regressions == 0,
            "perf gate: {regressions} case(s) regressed past {GATE_TOLERANCE}x"
        );
        println!("perf gate passed");
    }
}
