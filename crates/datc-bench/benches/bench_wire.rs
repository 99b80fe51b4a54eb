//! Wire subsystem throughput: the AER merge that feeds the link, the
//! packet codec (events/s, bytes/event) and the observability overhead
//! of a session's receive pipeline. The TCP
//! gateway's session lifecycle is timed end to end by perfbench's
//! `tcp_ingest` workload.
//!
//! Hand-rolled harness (plain `main`, `harness = false`) like
//! `bench_fleet`: every run rewrites a machine-readable artifact at the
//! workspace root — `BENCH_wire.json` (full) or `BENCH_wire.quick.json`
//! (`--quick`, the CI smoke mode) — so the perf trajectory stays
//! diffable across PRs.
//!
//! Modes:
//! * full (default): 10 s recordings, 8 channels;
//! * `--quick`: 2 s recordings, fewer timing rounds.

use std::hint::black_box;
use std::time::Instant;

use datc_bench::timing::{interleaved_ratio, measure};
use datc_core::config::DatcConfig;
use datc_core::encoder::TraceLevel;
use datc_engine::FleetRunner;
use datc_obs::Registry;
use datc_signal::generator::semg_fleet;
use datc_uwb::aer::AddressedEvent;
use datc_wire::chaos::{ChaosLink, ChaosProfile};
use datc_wire::obs::SessionObs;
use datc_wire::packet::{encode_session, Packetizer, SessionHeader};
use datc_wire::session::{SessionRx, SessionRxConfig};
use datc_wire::{EventBatch, StreamDecoder};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (seconds, samples) = if quick { (2.0, 2) } else { (10.0, 4) };
    let channels = 8usize;
    let dead_time = 25e-6;

    eprintln!("encoding {channels} x {seconds} s sEMG channels...");
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let signals = semg_fleet(channels, seconds, 500);
    let fleet = FleetRunner::new(config, channels)
        .expect("valid fleet")
        .encode(&signals);
    let merged: Vec<AddressedEvent> = fleet.merge_aer(dead_time).merged;
    let n_events = merged.len() as u64;
    let header = SessionHeader::new(
        0,
        channels as u16,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    println!(
        "session: {n_events} events over {seconds} s ({:.0} ev/s on air)",
        n_events as f64 / seconds
    );

    // --- AER merge: the fleet's channels onto one serial link -------------
    // `FleetOutput::merge_aer`, the layer perfbench's `corpus_inproc`
    // traces as `aer`; the rate counts every encoded event the merge
    // takes in, collisions included.
    let fleet_events = fleet.total_events() as u64;
    let merge_secs = measure(
        || fleet.merge_aer(dead_time).merged.len() as u64,
        samples,
        40,
        1 << 14,
    );
    let merge_rate = fleet_events as f64 / merge_secs;
    println!("AER merge                 {merge_rate:>14.0} events/s");

    // --- codec: wire image & bytes/event ---------------------------------
    let wire = encode_session(header, &merged);
    let data_bytes = {
        let mut tx = Packetizer::new(header);
        tx.data_frames(&merged)
            .iter()
            .map(|f| f.len() as u64)
            .sum::<u64>()
    };
    let bytes_per_event = data_bytes as f64 / n_events.max(1) as f64;
    println!("wire cost                 {bytes_per_event:>14.2} bytes/event (framed)");

    // --- codec: packetize vs zero-copy streaming decode (interleaved) ----
    // The two halves of the codec measured back to back in each round so
    // the decode/packetize ratio is a host-independent statement about
    // the code, not about this machine's clock. The decode side is the
    // zero-copy path: frames parsed in place, events drained as a
    // struct-of-arrays `EventBatch` with no per-event materialisation.
    // `decode_vs_packetize_ratio` (>= 1 means decode keeps pace) is a
    // gated metric in `bench_check`.
    let pack_once = {
        let start = Instant::now();
        let mut tx = Packetizer::new(header);
        black_box(tx.data_frames(&merged).len() as u64);
        start.elapsed().as_secs_f64()
    };
    let codec_reps = ((0.04 / pack_once).ceil() as u64).clamp(1, 1 << 12);
    let codec_rounds = if quick { 7 } else { 9 };
    let run_packetize = || {
        let mut n = 0u64;
        for _ in 0..codec_reps {
            let mut tx = Packetizer::new(header);
            n += tx.data_frames(&merged).len() as u64;
        }
        n
    };
    let mut batch = EventBatch::new();
    let run_decode = |batch: &mut EventBatch| {
        let mut n = 0u64;
        for _ in 0..codec_reps {
            let mut rx = StreamDecoder::new();
            rx.push_bytes(&wire);
            batch.clear();
            rx.drain_batch(batch);
            assert_eq!(batch.len() as u64, n_events, "lossless decode");
            n += batch.len() as u64;
        }
        n
    };
    let (pack_over_decode, pack_total, decode_total) =
        interleaved_ratio(run_packetize, || run_decode(&mut batch), codec_rounds);
    let pack_secs = pack_total / codec_reps as f64;
    let decode_secs = decode_total / codec_reps as f64;
    let pack_rate = n_events as f64 / pack_secs;
    let decode_rate = n_events as f64 / decode_secs;
    println!("packetize                 {pack_rate:>14.0} events/s");
    println!("streaming decode          {decode_rate:>14.0} events/s");
    println!("decode vs packetize       {pack_over_decode:>14.3} x (interleaved median)");

    // --- codec: degraded-path decode --------------------------------------
    // The same session mangled once (outside the timed region) by the
    // deterministic chaos layer — ~5 % drop, 2 % duplication, 5 %
    // bounded reorder — then decoded from the damaged unit stream: the
    // resync/reorder/hole-accounting machinery is on the hot path here,
    // not the happy path measured above.
    let degraded: Vec<u8> = {
        // 16-event frames: enough chaos units for the 5 % rates to
        // bite even in the short --quick session.
        let mut tx = Packetizer::new(header).with_events_per_frame(16);
        let mut bytes = tx.hello();
        let data = tx.data_frames(&merged);
        let mut link = ChaosLink::new(0xD47C_BEEF, ChaosProfile::lossy());
        let mut out: Vec<Vec<u8>> = Vec::new();
        for f in &data {
            link.push(f, &mut out);
        }
        link.flush(&mut out);
        for unit in &out {
            bytes.extend_from_slice(unit);
        }
        bytes.extend_from_slice(&tx.bye());
        bytes
    };
    let degraded_events = {
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&degraded);
        let mut out = Vec::new();
        rx.drain_events(&mut out);
        assert!(rx.stats().events_lost > 0, "chaos must cost something");
        out.len() as u64
    };
    let degraded_secs = measure(
        || {
            let mut rx = StreamDecoder::new();
            rx.push_bytes(&degraded);
            let mut out = Vec::new();
            rx.drain_events(&mut out);
            assert_eq!(out.len() as u64, degraded_events, "deterministic chaos");
            out.len() as u64
        },
        samples,
        40,
        1 << 14,
    );
    let degraded_rate = degraded_events as f64 / degraded_secs;
    println!("degraded decode           {degraded_rate:>14.0} events/s (5% loss + reorder)");

    // --- observability overhead: instrumented vs plain session decode ----
    // The full per-session receive pipeline (decode + reconstruction)
    // with and without a live `SessionObs` publishing into a registry,
    // interleaved so host drift cancels. Registration happens once
    // (series handles are Arc-backed and cloned per session) — it is
    // session setup, amortised over seconds in production, and would
    // otherwise dominate this sub-millisecond replay. The steady-state
    // publish path syncs per push/finish, never per event, so the
    // speedup should sit at ~1.0 (acceptance: within 3 %).
    let registry = Registry::new();
    let obs = SessionObs::register(&registry, "bench");
    let session_once = {
        let start = Instant::now();
        let mut rx = SessionRx::new(SessionRxConfig::default());
        rx.push_bytes(&wire);
        black_box(rx.finish());
        start.elapsed().as_secs_f64()
    };
    let reps = ((0.04 / session_once).ceil() as u64).clamp(1, 1 << 12);
    let obs_rounds = if quick { 5 } else { 9 };
    let run_plain = || {
        let mut n = 0u64;
        for _ in 0..reps {
            let mut rx = SessionRx::new(SessionRxConfig::default());
            rx.push_bytes(&wire);
            n += rx.finish().stats.events_decoded;
        }
        n
    };
    let run_instrumented = || {
        let mut n = 0u64;
        for _ in 0..reps {
            let mut rx = SessionRx::new(SessionRxConfig::default()).with_metrics(obs.clone());
            rx.push_bytes(&wire);
            n += rx.finish().stats.events_decoded;
        }
        n
    };
    let (metrics_speedup, _, _) = interleaved_ratio(run_plain, run_instrumented, obs_rounds);
    let metrics_overhead_pct = (1.0 / metrics_speedup - 1.0) * 100.0;
    println!(
        "metrics-on decode         {metrics_speedup:>14.3} x plain ({metrics_overhead_pct:+.2} % overhead)"
    );

    // --- machine-readable artifact ---------------------------------------
    // Quick and full artifacts measure different workloads (2 s vs 10 s
    // recordings, fewer rounds in quick mode). The comment rides inside
    // the artifact so the divergence is documented where the numbers
    // live; bench_check only ever compares quick against quick.
    let comment = if quick {
        "quick CI smoke (2 s recordings, fewer rounds): compare only against quick \
         baselines (bench_check enforces this)"
    } else {
        "full baseline (10 s recordings): not comparable with the --quick artifact"
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"bench_wire\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"comment\": \"{comment}\",\n"));
    json.push_str(&format!("  \"channels\": {channels},\n"));
    json.push_str(&format!("  \"session_seconds\": {seconds},\n"));
    json.push_str(&format!("  \"events_per_session\": {n_events},\n"));
    json.push_str(&format!(
        "  \"bytes_per_event_framed\": {bytes_per_event:.3},\n"
    ));
    json.push_str(&format!("  \"aer_merge_events_per_s\": {merge_rate:.0},\n"));
    json.push_str(&format!("  \"packetize_events_per_s\": {pack_rate:.0},\n"));
    json.push_str(&format!("  \"decode_events_per_s\": {decode_rate:.0},\n"));
    json.push_str(&format!(
        "  \"decode_vs_packetize_ratio\": {pack_over_decode:.4},\n"
    ));
    json.push_str(&format!(
        "  \"degraded_decode_events_per_s\": {degraded_rate:.0},\n"
    ));
    json.push_str(&format!(
        "  \"decode_with_metrics_speedup\": {metrics_speedup:.4},\n"
    ));
    json.push_str(&format!(
        "  \"metrics_overhead_pct\": {metrics_overhead_pct:.3}\n"
    ));
    json.push_str("}\n");

    let name = if quick {
        "BENCH_wire.quick.json"
    } else {
        "BENCH_wire.json"
    };
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
}
