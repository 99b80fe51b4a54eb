//! Support crate for the Criterion benches in `benches/` — see that
//! directory for the per-figure harnesses. Each bench first prints the
//! corresponding paper-vs-measured report (the "regenerate the figure"
//! deliverable), then times the computation that produces it.

/// Environment flag: set `DATC_BENCH_FULL=1` to run the paper-sized
/// workloads (190 patterns, 20 s RTL traces) inside the timed loops as
/// well; default keeps timed loops on reduced workloads so
/// `cargo bench --workspace` completes in minutes.
pub fn full_scale() -> bool {
    std::env::var("DATC_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

pub mod timing {
    //! The timing helpers of the hand-rolled JSON benches (`bench_fleet`,
    //! `bench_wire`, `bench_workload`).

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Times `f` best-of-`samples` after calibrating an inner iteration
    /// count to ≥ `target_ms` per sample, capped at `max_iters`. Returns
    /// seconds per call.
    pub fn measure<F: FnMut() -> u64>(
        mut f: F,
        samples: u32,
        target_ms: u64,
        max_iters: u64,
    ) -> f64 {
        let target = Duration::from_millis(target_ms);
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= target || iters >= max_iters {
                break;
            }
            iters = if elapsed.is_zero() {
                iters * 8
            } else {
                ((iters as f64 * target.as_secs_f64() / elapsed.as_secs_f64()) as u64)
                    .clamp(iters + 1, max_iters)
            };
        }
        let mut best = f64::INFINITY;
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
        best
    }

    /// Median of per-round `a/b` timing ratios where `a()` and `b()` run
    /// back to back inside each round, execution order alternating
    /// between rounds — the drift-cancelling measurement every headline
    /// ratio uses (back-to-back cancels slow frequency drift; alternation
    /// cancels any residual first-in-round bias). Returns the median
    /// ratio and the median seconds of `a` and of `b`.
    pub fn interleaved_ratio<A: FnMut() -> u64, B: FnMut() -> u64>(
        mut a: A,
        mut b: B,
        rounds: usize,
    ) -> (f64, f64, f64) {
        let mut ratios = Vec::with_capacity(rounds);
        let mut a_secs = Vec::with_capacity(rounds);
        let mut b_secs = Vec::with_capacity(rounds);
        let time = |f: &mut dyn FnMut() -> u64| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        };
        for round in 0..rounds {
            let (ta, tb) = if round % 2 == 0 {
                let ta = time(&mut a);
                let tb = time(&mut b);
                (ta, tb)
            } else {
                let tb = time(&mut b);
                let ta = time(&mut a);
                (ta, tb)
            };
            ratios.push(ta / tb);
            a_secs.push(ta);
            b_secs.push(tb);
        }
        (
            median(&mut ratios),
            median(&mut a_secs),
            median(&mut b_secs),
        )
    }

    /// The median of `v` (the upper one for an even length), sorting `v`
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics when `v` is empty or holds a NaN.
    pub fn median(v: &mut [f64]) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    }
}

pub mod regression {
    //! The CI perf-regression gate: compares a freshly written
    //! `BENCH_*.quick.json` artifact against the committed baseline and
    //! fails when any throughput metric regresses beyond a tolerance.
    //!
    //! Driven by the `bench_check` binary
    //! (`cargo run -p datc-bench --bin bench_check -- --pair <baseline>
    //! <fresh> …`). The tolerance is deliberately generous — the shared
    //! vCPU CI host drifts ±20 % run to run (see ROADMAP "Perf
    //! trajectory") — so the gate catches *collapses* (a hot path gone
    //! accidentally scalar, an allocation per event in the decoder), not
    //! single-digit noise.
    //!
    //! ## Like-for-like only
    //!
    //! Quick artifacts are **not** comparable with full runs: they time
    //! shorter inputs over fewer rounds (e.g. `BENCH_wire.quick.json`
    //! decodes 2 s recordings, the full run 10 s ones). The gate
    //! therefore refuses any artifact pair that is not `"quick": true`
    //! on both sides.
    //!
    //! ## What counts as a metric
    //!
    //! The artifacts are flat JSON written by the hand-rolled benches
    //! (one `"key": value` pair per line; nested objects inside arrays
    //! are workload sweeps, not gate metrics). A key is gated when its
    //! name marks it as a throughput/cost figure:
    //! `*_per_s` and `*speedup*` must not fall, `bytes_per_event*` must
    //! not rise. `decode_vs_packetize_ratio` is the one gated ratio: it
    //! asserts the zero-copy decode path keeps pace with packetize
    //! (interleaved in one process, so the ratio is host-independent in
    //! a way the raw rates are not). Other `*_ratio` fields stay
    //! informational. Everything else (workload sizes, event counts,
    //! session counts) is configuration, not performance.

    /// Which way a metric is allowed to move.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Direction {
        /// Throughput-style metric: regression = falling.
        HigherIsBetter,
        /// Cost-style metric: regression = rising.
        LowerIsBetter,
    }

    /// The gate direction for `key`, or `None` when the key is
    /// configuration rather than performance.
    pub fn metric_direction(key: &str) -> Option<Direction> {
        if key.starts_with("bytes_per_event") {
            Some(Direction::LowerIsBetter)
        } else if key.ends_with("_per_s")
            || key.contains("speedup")
            || key == "decode_vs_packetize_ratio"
        {
            Some(Direction::HigherIsBetter)
        } else {
            None
        }
    }

    /// A parsed flat bench artifact.
    #[derive(Debug, Clone, Default)]
    pub struct Artifact {
        /// The `"bench"` name field, when present.
        pub bench: Option<String>,
        /// The `"quick"` flag, when present.
        pub quick: Option<bool>,
        /// Every top-level numeric field, in file order.
        pub numbers: Vec<(String, f64)>,
    }

    impl Artifact {
        /// Looks up a numeric field.
        pub fn number(&self, key: &str) -> Option<f64> {
            self.numbers.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
        }
    }

    /// Parses the flat top-level `"key": value` lines of a bench
    /// artifact. Lines opening nested structure (array workload sweeps)
    /// and string fields other than `"bench"` are ignored; this is not
    /// a general JSON parser, it reads exactly what the hand-rolled
    /// benches write.
    pub fn parse_artifact(text: &str) -> Artifact {
        let mut artifact = Artifact::default();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            let Some(rest) = line.strip_prefix('"') else {
                continue;
            };
            let Some((key, value)) = rest.split_once('"') else {
                continue;
            };
            let Some(value) = value.trim_start().strip_prefix(':') else {
                continue;
            };
            let value = value.trim();
            match (key, value) {
                ("quick", "true") => artifact.quick = Some(true),
                ("quick", "false") => artifact.quick = Some(false),
                ("bench", v) => {
                    artifact.bench = Some(v.trim_matches('"').to_string());
                }
                (k, v) => {
                    if let Ok(n) = v.parse::<f64>() {
                        artifact.numbers.push((k.to_string(), n));
                    }
                }
            }
        }
        artifact
    }

    /// The outcome of one baseline-vs-fresh comparison.
    #[derive(Debug, Clone, Default)]
    pub struct CheckReport {
        /// Human-readable line per metric inspected.
        pub checks: Vec<String>,
        /// Human-readable line per gate violation (empty = pass).
        pub failures: Vec<String>,
    }

    impl CheckReport {
        /// `true` when no gate fired.
        pub fn passed(&self) -> bool {
            self.failures.is_empty()
        }
    }

    /// Compares two artifact texts; `tolerance` is the allowed relative
    /// regression (0.40 = a metric may lose up to 40 % / cost up to
    /// 40 % more before the gate fires).
    pub fn compare_artifacts(baseline: &str, fresh: &str, tolerance: f64) -> CheckReport {
        let base = parse_artifact(baseline);
        let new = parse_artifact(fresh);
        let mut report = CheckReport::default();

        if base.bench != new.bench {
            report.failures.push(format!(
                "bench name mismatch: baseline {:?} vs fresh {:?}",
                base.bench, new.bench
            ));
            return report;
        }
        // Like-for-like: the quick and full artifacts measure different
        // workloads (documented in each file's "comment" field) and
        // must never be compared against each other.
        if base.quick != Some(true) || new.quick != Some(true) {
            report.failures.push(format!(
                "not a quick/quick pair (baseline quick: {:?}, fresh quick: {:?}); \
                 bench_check only compares --quick artifacts with --quick baselines",
                base.quick, new.quick
            ));
            return report;
        }

        for (key, base_v) in &base.numbers {
            let Some(direction) = metric_direction(key) else {
                continue;
            };
            let Some(new_v) = new.number(key) else {
                report.failures.push(format!(
                    "{key}: present in baseline, missing in fresh artifact"
                ));
                continue;
            };
            let (regressed, change) = match direction {
                Direction::HigherIsBetter => {
                    (new_v < base_v * (1.0 - tolerance), new_v / base_v - 1.0)
                }
                Direction::LowerIsBetter => {
                    (new_v > base_v * (1.0 + tolerance), new_v / base_v - 1.0)
                }
            };
            let line = format!(
                "{key}: baseline {base_v:.3}, fresh {new_v:.3} ({:+.1} %, tolerance ±{:.0} %)",
                change * 100.0,
                tolerance * 100.0
            );
            if regressed {
                report.failures.push(line);
            } else {
                report.checks.push(line);
            }
        }
        if base
            .numbers
            .iter()
            .all(|(k, _)| metric_direction(k).is_none())
        {
            report
                .failures
                .push("baseline artifact contains no gated metrics".to_string());
        }
        report
    }

    #[cfg(test)]
    mod regression_tests {
        use super::*;

        fn artifact(quick: bool, decode: f64, bpe: f64) -> String {
            format!(
                "{{\n  \"bench\": \"bench_wire\",\n  \"quick\": {quick},\n  \
                 \"comment\": \"quick mode, not comparable with full\",\n  \
                 \"channels\": 8,\n  \"bytes_per_event_framed\": {bpe},\n  \
                 \"decode_events_per_s\": {decode},\n  \
                 \"gateway_sessions_per_s\": 2000.0\n}}\n"
            )
        }

        #[test]
        fn decode_vs_packetize_ratio_is_gated_other_ratios_are_not() {
            // The zero-copy gate: this one ratio is a hard floor …
            assert_eq!(
                metric_direction("decode_vs_packetize_ratio"),
                Some(Direction::HigherIsBetter)
            );
            // … while the fleet's interleaved ratios stay informational
            // (they are host-dependent shape comparisons, not floors).
            assert_eq!(
                metric_direction("fleet_64ch_vs_16ch_per_sample_ratio"),
                None
            );
            assert_eq!(metric_direction("cold_vs_sustained_encode_ratio"), None);
        }

        #[test]
        fn parses_flat_artifacts_and_skips_nested_sweeps() {
            let text = "{\n  \"bench\": \"bench_fleet\",\n  \"quick\": true,\n  \
                 \"single_channel_push_chunk_samples_per_s\": 157904924,\n  \
                 \"fleet\": [\n    {\"channels\": 16, \"threads\": 1, \"samples_per_s\": 1}\n  ]\n}\n";
            let a = parse_artifact(text);
            assert_eq!(a.bench.as_deref(), Some("bench_fleet"));
            assert_eq!(a.quick, Some(true));
            assert_eq!(
                a.number("single_channel_push_chunk_samples_per_s"),
                Some(157904924.0)
            );
            // the array's inner objects are workload sweeps, not gates
            assert_eq!(a.number("samples_per_s"), None);
            assert_eq!(a.number("threads"), None);
        }

        #[test]
        fn within_tolerance_passes() {
            let base = artifact(true, 100_000.0, 3.2);
            let fresh = artifact(true, 75_000.0, 3.9); // −25 % / +22 %
            let report = compare_artifacts(&base, &fresh, 0.40);
            assert!(report.passed(), "failures: {:?}", report.failures);
            assert_eq!(report.checks.len(), 3);
        }

        #[test]
        fn intentionally_degraded_throughput_fails_the_gate() {
            // The acceptance-criterion case: a metric collapsed by more
            // than the tolerance must fail the comparison.
            let base = artifact(true, 100_000.0, 3.2);
            let fresh = artifact(true, 50_000.0, 3.2); // −50 % decode
            let report = compare_artifacts(&base, &fresh, 0.40);
            assert!(!report.passed());
            assert_eq!(report.failures.len(), 1);
            assert!(
                report.failures[0].starts_with("decode_events_per_s"),
                "{:?}",
                report.failures
            );
        }

        #[test]
        fn rising_cost_metric_fails_the_gate() {
            let base = artifact(true, 100_000.0, 3.2);
            let fresh = artifact(true, 100_000.0, 5.0); // +56 % bytes/event
            let report = compare_artifacts(&base, &fresh, 0.40);
            assert!(!report.passed());
            assert!(report.failures[0].starts_with("bytes_per_event_framed"));
        }

        #[test]
        fn quick_vs_full_pairs_are_refused() {
            // the documented 2043 vs ≈700 sessions/s divergence: quick
            // and full artifacts must never be cross-compared
            let quick = artifact(true, 100_000.0, 3.2);
            let full = artifact(false, 100_000.0, 3.2);
            for (a, b) in [(&quick, &full), (&full, &quick), (&full, &full)] {
                let report = compare_artifacts(a, b, 0.40);
                assert!(!report.passed());
                assert!(
                    report.failures[0].contains("quick"),
                    "{:?}",
                    report.failures
                );
            }
        }

        #[test]
        fn metric_missing_from_fresh_artifact_fails() {
            let base = artifact(true, 100_000.0, 3.2);
            let fresh = base.replace("\"decode_events_per_s\": 100000,\n  ", "");
            let report = compare_artifacts(&base, &fresh, 0.40);
            assert!(!report.passed());
        }

        #[test]
        fn mismatched_bench_names_fail() {
            let base = artifact(true, 1.0, 3.2);
            let fresh = base.replace("bench_wire", "bench_fleet");
            let report = compare_artifacts(&base, &fresh, 0.40);
            assert!(!report.passed());
        }

        #[test]
        fn committed_baselines_parse_and_self_compare_clean() {
            // The real committed quick baselines must pass against
            // themselves — guards the parser against format drift.
            for name in [
                "BENCH_wire.quick.json",
                "BENCH_fleet.quick.json",
                "BENCH_workload.quick.json",
            ] {
                let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
                let text = std::fs::read_to_string(&path).expect("committed baseline");
                let report = compare_artifacts(&text, &text, 0.40);
                assert!(report.passed(), "{name}: {:?}", report.failures);
                assert!(!report.checks.is_empty(), "{name} has gated metrics");
            }
        }
    }
}

pub mod trend {
    //! Perf-trajectory reporting: folds the committed bench history —
    //! the full baselines preserved across PRs as `BENCH_<name>.pr<N>.json`
    //! plus the current `BENCH_<name>.json` — into one markdown trend
    //! table per bench, gated metrics only, with per-PR deltas.
    //!
    //! Driven by the `bench_trend` binary
    //! (`cargo run -p datc-bench --bin bench_trend [-- --dir <d>] [--out <f>]`).
    //!
    //! Quick artifacts (`BENCH_*.quick.json`) are excluded: they measure
    //! reduced CI-smoke workloads and are not comparable with the full
    //! history (the same like-for-like rule `bench_check` enforces).

    use crate::regression::{metric_direction, parse_artifact, Artifact};

    /// One point on a bench's perf trajectory.
    #[derive(Debug, Clone)]
    pub struct TrendPoint {
        /// Artifact filename (the row label).
        pub file: String,
        /// Bench short name parsed from the filename (`fleet`, `wire`).
        pub bench: String,
        /// PR number for historical baselines; `None` = the current
        /// full artifact, which sorts after all history.
        pub pr: Option<u32>,
        /// The parsed artifact.
        pub artifact: Artifact,
    }

    /// Classifies a filename into `(bench, pr)`: `BENCH_fleet.pr2.json`
    /// → `("fleet", Some(2))`, `BENCH_fleet.json` → `("fleet", None)`.
    /// Returns `None` for quick artifacts and anything else.
    pub fn classify_filename(name: &str) -> Option<(String, Option<u32>)> {
        let rest = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
        match rest.split_once('.') {
            None if !rest.is_empty() => Some((rest.to_string(), None)),
            Some((bench, pr)) if !bench.is_empty() => {
                let n = pr.strip_prefix("pr")?.parse().ok()?;
                Some((bench.to_string(), Some(n)))
            }
            _ => None,
        }
    }

    /// Parses `(filename, contents)` pairs into trajectory points,
    /// dropping quick artifacts and unrecognised filenames, sorted by
    /// bench then PR number (current artifact last).
    pub fn collect_points(files: &[(String, String)]) -> Vec<TrendPoint> {
        let mut points: Vec<TrendPoint> = files
            .iter()
            .filter_map(|(file, text)| {
                let (bench, pr) = classify_filename(file)?;
                let artifact = parse_artifact(text);
                // defence in depth: a quick artifact under a full name
                // still measures the wrong workload
                if artifact.quick == Some(true) {
                    return None;
                }
                Some(TrendPoint {
                    file: file.clone(),
                    bench,
                    pr,
                    artifact,
                })
            })
            .collect();
        points.sort_by(|a, b| {
            (&a.bench, a.pr.is_none(), a.pr).cmp(&(&b.bench, b.pr.is_none(), b.pr))
        });
        points
    }

    fn fmt_value(v: f64) -> String {
        if v.abs() >= 1000.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.3}")
        }
    }

    /// Renders the markdown trend report: one table per bench, one row
    /// per artifact (history in PR order, current full run last), one
    /// column per gated metric, each cell carrying the delta against
    /// the previous row.
    pub fn render_trend(files: &[(String, String)]) -> String {
        let points = collect_points(files);
        let mut out = String::from("# Bench trend\n");
        out.push_str(
            "\nGated metrics only (`*_per_s`, `*speedup*`, `bytes_per_event*`); \
             deltas are against the previous row. Quick artifacts are excluded.\n",
        );
        let mut benches: Vec<&str> = points.iter().map(|p| p.bench.as_str()).collect();
        benches.dedup();
        for bench in benches {
            let rows: Vec<&TrendPoint> = points.iter().filter(|p| p.bench == bench).collect();
            // column order: first appearance across the history
            let mut metrics: Vec<&str> = Vec::new();
            for p in &rows {
                for (k, _) in &p.artifact.numbers {
                    if metric_direction(k).is_some() && !metrics.contains(&k.as_str()) {
                        metrics.push(k);
                    }
                }
            }
            if metrics.is_empty() {
                continue;
            }
            out.push_str(&format!("\n## {bench}\n\n| artifact |"));
            for m in &metrics {
                out.push_str(&format!(" {m} |"));
            }
            out.push_str("\n|---|");
            out.push_str(&"---|".repeat(metrics.len()));
            out.push('\n');
            for (i, p) in rows.iter().enumerate() {
                out.push_str(&format!("| {} |", p.file));
                for m in &metrics {
                    let cell = match p.artifact.number(m) {
                        None => "—".to_string(),
                        Some(v) => {
                            let prev = i
                                .checked_sub(1)
                                .and_then(|j| rows[j].artifact.number(m))
                                .filter(|prev| *prev != 0.0);
                            match prev {
                                Some(prev) => {
                                    format!("{} ({:+.1} %)", fmt_value(v), (v / prev - 1.0) * 100.0)
                                }
                                None => fmt_value(v),
                            }
                        }
                    };
                    out.push_str(&format!(" {cell} |"));
                }
                out.push('\n');
            }
        }
        out
    }

    #[cfg(test)]
    mod trend_tests {
        use super::*;

        #[test]
        fn classifies_history_current_and_rejects_quick() {
            assert_eq!(
                classify_filename("BENCH_fleet.pr2.json"),
                Some(("fleet".into(), Some(2)))
            );
            assert_eq!(
                classify_filename("BENCH_wire.json"),
                Some(("wire".into(), None))
            );
            assert_eq!(classify_filename("BENCH_wire.quick.json"), None);
            assert_eq!(classify_filename("BENCH_.json"), None);
            assert_eq!(classify_filename("notes.md"), None);
            assert_eq!(classify_filename("BENCH_fleet.prX.json"), None);
        }

        fn point(file: &str, decode: f64) -> (String, String) {
            (
                file.to_string(),
                format!(
                    "{{\n  \"bench\": \"bench_wire\",\n  \"quick\": false,\n  \
                     \"channels\": 8,\n  \"decode_events_per_s\": {decode}\n}}\n"
                ),
            )
        }

        #[test]
        fn renders_history_in_pr_order_with_deltas() {
            let files = vec![
                point("BENCH_wire.json", 120000.0),
                point("BENCH_wire.pr8.json", 110000.0),
                point("BENCH_wire.pr2.json", 100000.0),
                // quick artifacts must not appear even if fed in
                (
                    "BENCH_wire.quick.json".into(),
                    "{\n  \"quick\": true,\n  \"decode_events_per_s\": 9\n}\n".into(),
                ),
            ];
            let md = render_trend(&files);
            let pr2 = md.find("BENCH_wire.pr2.json").expect("pr2 row");
            let pr8 = md.find("BENCH_wire.pr8.json").expect("pr8 row");
            let cur = md.find("| BENCH_wire.json").expect("current row");
            assert!(pr2 < pr8 && pr8 < cur, "rows in PR order, current last");
            assert!(md.contains("110000 (+10.0 %)"), "{md}");
            assert!(md.contains("120000 (+9.1 %)"), "{md}");
            assert!(!md.contains("quick"), "quick artifacts excluded:\n{md}");
        }

        #[test]
        fn missing_metric_renders_as_dash_not_zero() {
            let mut files = vec![point("BENCH_wire.pr2.json", 100000.0)];
            files.push((
                "BENCH_wire.pr3.json".into(),
                "{\n  \"bench\": \"bench_wire\",\n  \"quick\": false,\n  \
                 \"packetize_events_per_s\": 5000\n}\n"
                    .into(),
            ));
            let md = render_trend(&files);
            assert!(md.contains("—"), "{md}");
            // the pr3-only metric still gets a column
            assert!(md.contains("packetize_events_per_s"), "{md}");
        }

        #[test]
        fn committed_history_renders() {
            // The real committed artifacts at the workspace root must
            // fold into a non-trivial report.
            let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
            let mut files = Vec::new();
            for entry in std::fs::read_dir(&root).expect("workspace root") {
                let name = entry.expect("entry").file_name();
                let name = name.to_string_lossy().to_string();
                if classify_filename(&name).is_some() {
                    let text = std::fs::read_to_string(format!("{root}/{name}")).expect("artifact");
                    files.push((name, text));
                }
            }
            assert!(!files.is_empty(), "committed full artifacts exist");
            let md = render_trend(&files);
            assert!(md.contains("## fleet"), "{md}");
            assert!(md.contains("BENCH_fleet.pr2.json"), "{md}");
        }
    }
}
