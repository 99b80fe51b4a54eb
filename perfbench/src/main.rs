//! End-to-end benchmark of the D-ATC pipeline.
//!
//! ```text
//! perfbench --workload <corpus_inproc|tcp_ingest|udp_lossy> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets its inputs up from the seed (several times, reporting
//! the median set-up time), measures the workload for `--seconds`,
//! checks the outputs, and prints a report whose last line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Without
//! tracing the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the run also writes its spans to
//! `perfbench/out/`. See `NOTES.md` for the metric definitions.

mod corpus;
mod inputs;
mod report;
mod stats;
mod tcp;
mod trace;
mod transport;
mod udp;

use std::time::Instant;

use report::Outcome;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of a traced run spent untraced, as the overhead baseline.
const UNTRACED_SHARE: f64 = 0.4;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Worker threads and connections: the host's parallelism.
    pub threads: usize,
}

const USAGE: &str = "usage: perfbench --workload <corpus_inproc|tcp_ingest|udp_lossy> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs `make` [`SETUP_REPS`] times, dropping each result before the
/// next, and returns the last with every repetition's seconds.
pub fn set_up<T>(mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(make());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Untraced: one measured phase of the full length. Traced: an
/// untraced phase, then a traced one; the difference of their median
/// session times is the tracing overhead. Failures of either phase
/// count.
pub fn phases(args: &Args, mut measure: impl FnMut(f64, bool) -> Outcome) -> Outcome {
    if !args.trace {
        return measure(args.seconds, false);
    }
    let untraced = measure(args.seconds * UNTRACED_SHARE, false);
    let mut traced = measure(args.seconds * (1.0 - UNTRACED_SHARE), true);
    let t = traced.traced.get_or_insert_with(Default::default);
    t.untraced_p50_ms = untraced.times.p50().unwrap_or(0.0);
    t.traced_p50_ms = traced.times.p50().unwrap_or(0.0);
    traced.times.merge(untraced.times);
    traced
        .checks
        .extend(untraced.checks.into_iter().filter(|c| !c.ok));
    traced
}

/// Writes the traced run's spans as JSON lines under `perfbench/out/`.
fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(spans))?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "corpus_inproc" => corpus::run(&args),
        "tcp_ingest" => tcp::run(&args),
        "udp_lossy" => udp::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let metrics = match &outcome.traced {
        Some(t) if args.trace => {
            match write_spans(&args, &t.spans) {
                Ok(path) => println!("spans: {} written to {path}", t.spans.len()),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
            report::per_layer(t)
        }
        _ => report::end_to_end(&outcome),
    };
    report::print(&args.workload, &outcome, &metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse("--workload tcp_ingest").expect("valid");
        assert_eq!(a.seed, inputs::DEFAULT_SEED);
        assert!(!a.trace);
        let a = parse("--workload udp_lossy --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
        assert!(parse("--workload x --seed").is_err());
    }

    #[test]
    fn set_up_repeats_and_times_every_repetition() {
        let mut calls = 0;
        let (last, times) = set_up(|| {
            calls += 1;
            calls
        });
        assert_eq!(last, SETUP_REPS);
        assert_eq!(times.len(), SETUP_REPS);
    }
}
