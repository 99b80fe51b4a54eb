//! Seeded inputs. The program under test receives only what these
//! functions generate; the same seed gives the same inputs.

use datc_signal::dataset::{Dataset, DatasetConfig};
use datc_signal::motor::{MotorWorkload, PoolParams, SubjectPreset, WorkloadScenario};
use datc_signal::resample::resample_linear;
use datc_signal::Signal;

/// Seed used when none is given; it selects the paper's own corpus.
pub const DEFAULT_SEED: u64 = 0;

/// Sample rate of every recording, Hz (the paper's 2.5 kHz).
pub const FS: f64 = 2500.0;

/// Serial AER pattern dead time used when merging channels, s.
pub const DEAD_TIME_S: f64 = 25e-6;

/// Force output rate of every receiver, Hz (the experiments'
/// convention). Ground truth is kept at this rate: scoring resamples
/// both sides to the lower rate anyway, and linear resampling at an
/// unchanged rate is the identity, so scores are unchanged.
pub const OUTPUT_FS: f64 = 100.0;

/// One sensor channel: what the comparator sees and the force behind it.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Rectified sEMG at the comparator input.
    pub rectified: Signal,
    /// Ground-truth force trajectory at [`OUTPUT_FS`].
    pub force: Signal,
}

/// A ground-truth trajectory brought to [`OUTPUT_FS`].
fn at_output_rate(force: &Signal) -> Signal {
    resample_linear(force, OUTPUT_FS).expect("recordings are longer than two samples")
}

/// Derives an independent stream seed (splitmix64 finaliser).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The corpus: 190 patterns × 20 s at 2.5 kHz. The default seed gives
/// `Dataset::paper()` itself; any other seed gives a corpus of the same
/// shape drawn with another master seed. Patterns are generated on
/// `threads` workers and returned in pattern order.
pub fn corpus(seed: u64, threads: usize) -> Vec<Channel> {
    let config = if seed == DEFAULT_SEED {
        *Dataset::paper().config()
    } else {
        DatasetConfig {
            seed: mix(seed, 0xC0_5905),
            ..DatasetConfig::default()
        }
    };
    let dataset = Dataset::new(config);
    let n = dataset.len();
    parallel(n, threads, |id| {
        let p = dataset.pattern(id);
        Channel {
            rectified: p.rectified(),
            force: at_output_rate(&Signal::from_samples(p.force, config.sample_rate)),
        }
    })
}

/// `sessions` motor-pool recordings of `channels` channels × `seconds`
/// each, cut from the pool's output after `lead_s` seconds (so a
/// session can start mid-cycle). Channel `c` uses the subject preset
/// and the 0.3–0.6 gain spread of `datc_signal::motor::motor_fleet`,
/// and keeps the pool's twitch-force ground truth.
pub fn motor_sessions(
    scenario: WorkloadScenario,
    sessions: usize,
    channels: usize,
    (lead_s, seconds): (f64, f64),
    seed: u64,
    threads: usize,
) -> Vec<Vec<Channel>> {
    let presets = [
        SubjectPreset::Average,
        SubjectPreset::Small,
        SubjectPreset::Strong,
    ];
    let workloads: Vec<MotorWorkload> = presets
        .iter()
        .map(|p| MotorWorkload::with_pool(scenario, FS, PoolParams::with_units(p.n_units())))
        .collect();
    let flat = parallel(sessions * channels, threads, |k| {
        let (session, c) = (k / channels, k % channels);
        let preset = SubjectPreset::for_channel(c);
        let workload = &workloads[presets
            .iter()
            .position(|p| *p == preset)
            .expect("every preset is built")];
        let run = workload.run(lead_s + seconds, mix(seed, session as u64) + c as u64);
        let cut = |s: &Signal| {
            let skip = (lead_s * s.sample_rate()).round() as usize;
            s.slice(skip, s.len() - skip)
                .expect("the lead is shorter than the run")
        };
        Channel {
            rectified: cut(&run.semg)
                .to_scaled(0.3 + 0.3 * (c as f64 / channels as f64))
                .to_rectified(),
            force: at_output_rate(&cut(&run.force)),
        }
    });
    let mut flat = flat.into_iter();
    (0..sessions)
        .map(|_| flat.by_ref().take(channels).collect())
        .collect()
}

/// Evaluates `f(0..n)` on up to `threads` scoped workers, in order.
fn parallel<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let chunks: Vec<_> = slots
            .chunks_mut(n.div_ceil(threads).max(1))
            .enumerate()
            .map(|(w, chunk)| {
                let base = w * n.div_ceil(threads).max(1);
                scope.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(base + i));
                    }
                })
            })
            .collect();
        for c in chunks {
            c.join().expect("input generator panicked");
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot generated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_inputs_and_repeats_them() {
        let a = motor_sessions(WorkloadScenario::ballistic(), 2, 2, (0.1, 0.5), 1, 2);
        let b = motor_sessions(WorkloadScenario::ballistic(), 2, 2, (0.1, 0.5), 1, 2);
        let c = motor_sessions(WorkloadScenario::ballistic(), 2, 2, (0.1, 0.5), 2, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].len(), 2);
        assert_eq!(a[0][0].rectified.len(), (0.5 * FS) as usize);
        assert_eq!(a[1][1].rectified, b[1][1].rectified);
        assert_ne!(a[1][1].rectified, c[1][1].rectified);
        assert_ne!(a[0][0].rectified, a[1][0].rectified, "sessions differ");
    }

    #[test]
    fn parallel_keeps_order_for_any_worker_count() {
        for threads in 1..5 {
            assert_eq!(parallel(7, threads, |i| i * 2), vec![0, 2, 4, 6, 8, 10, 12]);
        }
        assert!(parallel(0, 3, |i| i).is_empty());
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
