//! Multi-channel AER D-ATC driving a 1-DOF grip controller — the
//! hand-exoskeleton scenario the paper's introduction motivates (Ref. [8]:
//! "Continuous Position Control of 1 DOF Manipulator Using EMG Signals").
//!
//! Four forearm electrodes are encoded independently, merged over one
//! Address-Event link (collisions included), demultiplexed at the
//! receiver, and the reconstructed flexor/extensor balance drives a
//! first-order grip-aperture model.
//!
//! Run with: `cargo run --release --example exoskeleton_control`

use datc::core::DatcConfig;
use datc::engine::FleetRunner;
use datc::rx::{HybridReconstructor, Reconstructor};
use datc::signal::generator::{ForceProfile, SemgGenerator, SemgModel};
use datc::signal::stats::pearson;
use datc::uwb::aer::{address_bits, demux};

fn main() {
    let fs = 2500.0;
    let duration = 12.0;

    // Two flexor channels track the grip command, two extensor channels
    // its complement (co-contraction scaled down).
    let grip = ForceProfile::builder()
        .rest(1.0)
        .ramp(0.0, 0.6, 2.0)
        .hold(0.6, 2.0)
        .ramp(0.6, 0.2, 2.0)
        .hold(0.2, 2.0)
        .ramp(0.2, 0.0, 2.0)
        .rest(1.0)
        .build();
    let cmd = grip.samples(fs, duration);
    let release: Vec<f64> = cmd.iter().map(|f| 0.4 * (1.0 - f)).collect();

    let gen = SemgGenerator::new(SemgModel::modulated_noise(), fs);
    let electrodes: Vec<_> = [
        (&cmd, 0.55, 11u64),
        (&cmd, 0.35, 12),
        (&release, 0.50, 13),
        (&release, 0.30, 14),
    ]
    .iter()
    .map(|(force, gain, seed)| gen.generate(force, *seed).to_scaled(*gain).to_rectified())
    .collect();

    // --- fleet encode + AER merge over one serial IR-UWB link ---------------
    // One D-ATC encoder per electrode (bit-exact with standalone
    // encoders), then dead time = 5 symbols × 1 µs symbol slot on the
    // shared link.
    let fleet = FleetRunner::new(DatcConfig::paper(), electrodes.len()).expect("valid fleet");
    let (_, merge) = fleet.encode_merged(&electrodes, 5e-6);
    println!(
        "AER: {} channels ({} address bits), {} events merged, {} collisions",
        fleet.channels(),
        address_bits(fleet.channels()),
        merge.merged.len(),
        merge.collisions
    );

    // --- receiver: demux, reconstruct, drive the actuator -------------------
    let streams = demux(&merge.merged, fleet.channels(), 2000.0, duration);
    let recon = HybridReconstructor::paper();
    let estimates: Vec<_> = streams
        .iter()
        .map(|s| recon.reconstruct(s, 100.0))
        .collect();

    // flexion drive = mean(flexors) − mean(extensors), rectified
    let n = estimates[0].len();
    let mut aperture = Vec::with_capacity(n);
    let mut pos = 0.0f64; // grip aperture 0 (open) … 1 (closed)
    let tau = 0.35; // actuator time constant, seconds
    let dt = 1.0 / 100.0;
    for i in 0..n {
        let flex = 0.5 * (estimates[0].samples()[i] + estimates[1].samples()[i]);
        let ext = 0.5 * (estimates[2].samples()[i] + estimates[3].samples()[i]);
        let drive = (4.0 * (flex - 0.5 * ext)).clamp(0.0, 1.0);
        pos += dt / tau * (drive - pos);
        aperture.push(pos);
    }

    // --- score against the commanded grip -----------------------------------
    let cmd_at_100: Vec<f64> = (0..n)
        .map(|i| {
            let idx = ((i as f64 / 100.0) * fs) as usize;
            cmd.get(idx).copied().unwrap_or(0.0)
        })
        .collect();
    let r = pearson(&aperture, &cmd_at_100).expect("equal lengths");
    println!("grip-aperture vs command correlation: {:.1} %", r * 100.0);

    // a coarse trace for the terminal
    print!("command : ");
    for i in (0..n).step_by(n / 60) {
        print!("{}", glyph(cmd_at_100[i]));
    }
    print!("\naperture: ");
    for i in (0..n).step_by(n / 60) {
        print!("{}", glyph(aperture[i]));
    }
    println!();
    assert!(r > 0.8, "control tracking degraded: {:.2}", r);
}

fn glyph(x: f64) -> char {
    const G: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    G[((x.clamp(0.0, 1.0)) * 7.0).round() as usize]
}
