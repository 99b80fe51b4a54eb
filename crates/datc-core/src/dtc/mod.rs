//! The Dynamic Threshold Controller (DTC) — the custom digital logic of
//! Fig. 4, cycle-accurate.
//!
//! Per system-clock cycle (2 kHz in the paper) the DTC:
//!
//! 1. re-samples the asynchronous comparator bit through the
//!    metastability register `In_reg`;
//! 2. increments the frame counter when the synchronised bit is `'1'`;
//! 3. at `End_of_frame` (every 100/200/400/800 cycles) latches the count
//!    into the three-frame history, computes the weighted average `AVR`
//!    (Listing 1) and issues the next threshold code `Set_Vth`;
//! 4. exposes the synchronised bit as `D_out` for the IR-UWB modulator,
//!    which radiates an event pattern on every rising edge.

pub mod fixed_point;
pub mod intervals;

use crate::config::{Arithmetic, DatcConfig};
use crate::error::CoreError;
use fixed_point::{
    avr_float, avr_scaled, predict_code_fixed, predict_code_float, quantize_weights,
};
use intervals::IntervalTable;

/// Everything the DTC drives during one clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtcStep {
    /// The synchronised comparator bit (`D_out`), one `In_reg` delay
    /// behind the raw input.
    pub d_out: bool,
    /// `true` on a rising edge of `D_out` — the modulator fires an IR-UWB
    /// event pattern on this.
    pub event: bool,
    /// The threshold code that was in force when this cycle's bit was
    /// sampled (the code an event should be tagged with).
    pub sampled_code: u8,
    /// The threshold code after this cycle (changes only at
    /// `End_of_frame`).
    pub set_vth: u8,
    /// `true` when this cycle closed a frame.
    pub end_of_frame: bool,
}

/// Cycle-accurate behavioural DTC.
///
/// # Example
///
/// ```
/// use datc_core::dtc::Dtc;
/// use datc_core::config::DatcConfig;
///
/// let mut dtc = Dtc::new(DatcConfig::paper())?;
/// let step = dtc.step(true);
/// assert!(!step.event); // In_reg delays the bit by one cycle
/// let step = dtc.step(true);
/// assert!(step.event);  // now the rising edge is visible
/// # Ok::<(), datc_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dtc {
    config: DatcConfig,
    table: IntervalTable,
    weights_q: (u64, u64, u64),
    /// Metastability register between the asynchronous comparator and the
    /// synchronous core.
    in_reg: bool,
    /// Previous `D_out`, for rising-edge detection.
    d_prev: bool,
    /// Ones counted in the current frame.
    counter: u32,
    /// Cycles elapsed in the current frame.
    tick_in_frame: u32,
    /// Count of the previous frame (`N_one2` after the shift).
    n2: u32,
    /// Count of the frame before that (`N_one1` after the shift).
    n1: u32,
    set_vth: u8,
    ticks: u64,
    frames: u64,
}

impl Dtc {
    /// Builds a DTC from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// [`DatcConfig::validate`].
    pub fn new(config: DatcConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let n_levels = 1usize << config.dac_bits;
        let table = IntervalTable::new(config.frame_size.len(), config.interval_step, n_levels);
        Ok(Dtc {
            config,
            table,
            weights_q: quantize_weights(config.weights),
            in_reg: false,
            d_prev: false,
            counter: 0,
            tick_in_frame: 0,
            n2: 0,
            n1: 0,
            set_vth: config.initial_code,
            ticks: 0,
            frames: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &DatcConfig {
        &self.config
    }

    /// Current threshold code (`Set_Vth`).
    pub fn vth_code(&self) -> u8 {
        self.set_vth
    }

    /// Cycles executed since reset.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Frames completed since reset.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Asynchronous reset (`RST` pin): clears all state, restores the
    /// initial threshold code.
    pub fn reset(&mut self) {
        let config = self.config;
        *self = Dtc::new(config).expect("config was already validated");
    }

    /// Executes one system-clock cycle with raw comparator bit
    /// `d_in_async`.
    pub fn step(&mut self, d_in_async: bool) -> DtcStep {
        // In_reg: the synchronous core sees last cycle's bit.
        let d = self.in_reg;
        self.in_reg = d_in_async;

        let sampled_code = self.set_vth;

        if d {
            self.counter += 1;
        }
        self.tick_in_frame += 1;
        self.ticks += 1;

        let mut end_of_frame = false;
        if self.tick_in_frame == self.config.frame_size.len() {
            end_of_frame = true;
            self.frames += 1;
            let n3 = self.counter;
            self.set_vth = match self.config.arithmetic {
                Arithmetic::Fixed => predict_code_fixed(
                    avr_scaled(n3, self.n2, self.n1, self.weights_q),
                    &self.table,
                    self.config.max_code(),
                ),
                Arithmetic::Float => predict_code_float(
                    avr_float(n3, self.n2, self.n1, self.config.weights),
                    &self.table,
                    self.config.max_code(),
                ),
            };
            // History shift of Listing 1: N_one1 = N_one2; N_one2 = N_one3.
            self.n1 = self.n2;
            self.n2 = n3;
            self.counter = 0;
            self.tick_in_frame = 0;
        }

        let event = d && !self.d_prev;
        self.d_prev = d;

        DtcStep {
            d_out: d,
            event,
            sampled_code,
            set_vth: self.set_vth,
            end_of_frame,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameSize;

    fn run_frames(dtc: &mut Dtc, patterns: &[(usize, bool)]) -> Vec<u8> {
        // patterns: (cycles, bit) chunks; returns code after each frame end
        let mut codes = Vec::new();
        for &(n, bit) in patterns {
            for _ in 0..n {
                let s = dtc.step(bit);
                if s.end_of_frame {
                    codes.push(s.set_vth);
                }
            }
        }
        codes
    }

    #[test]
    fn all_zero_input_floors_threshold_at_1() {
        let mut dtc = Dtc::new(DatcConfig::paper()).unwrap();
        let codes = run_frames(&mut dtc, &[(1000, false)]);
        assert_eq!(codes.len(), 10);
        assert!(codes.iter().all(|&c| c == 1));
    }

    #[test]
    fn all_one_input_saturates_threshold() {
        let mut dtc = Dtc::new(DatcConfig::paper()).unwrap();
        // frame of 100 ones: N3=100 (minus the 1-cycle In_reg warm-up on
        // the very first frame), AVR ≈ (100 + 0.65·N2 + …)/2.
        // Frame 1: AVR ≈ 99/2 = 49.5 ≥ 48 → 15 immediately.
        let codes = run_frames(&mut dtc, &[(1000, true)]);
        assert_eq!(codes[0], 15);
        assert!(codes.iter().all(|&c| c == 15));
    }

    #[test]
    fn threshold_tracks_duty_cycle() {
        // 30 % duty → steady-state AVR = 0.3·frame·(1+0.65+0.35)/2 =
        // 0.3·frame → code 9 (level_9 = 0.30·frame, ≥ comparison).
        let cfg = DatcConfig::paper().with_frame_size(FrameSize::F100);
        let mut dtc = Dtc::new(cfg).unwrap();
        let mut last_code = 0;
        for k in 0..4000u32 {
            let bit = (k % 10) < 3; // 30 % duty
            let s = dtc.step(bit);
            if s.end_of_frame {
                last_code = s.set_vth;
            }
        }
        assert_eq!(last_code, 9, "30% duty should map to code 9");
    }

    #[test]
    fn in_reg_delays_by_one_cycle() {
        let mut dtc = Dtc::new(DatcConfig::paper()).unwrap();
        let s0 = dtc.step(true);
        assert!(!s0.d_out, "first cycle sees reset In_reg");
        let s1 = dtc.step(false);
        assert!(s1.d_out, "second cycle sees the 1 registered first");
    }

    #[test]
    fn events_fire_on_rising_edges_only() {
        let mut dtc = Dtc::new(DatcConfig::paper()).unwrap();
        let bits = [false, true, true, false, true, false, false, true];
        let mut events = 0;
        for &b in &bits {
            if dtc.step(b).event {
                events += 1;
            }
        }
        // separate rising edges in the bit stream: at indices 1, 4, 7 —
        // visible one cycle later through In_reg, last one not yet seen.
        assert_eq!(events, 2);
        // flush the last edge
        assert!(dtc.step(false).event);
    }

    #[test]
    fn history_shift_matches_listing_1() {
        // Frame counts 100, 0, 0, 0 with frame 100:
        // F1: AVR=(1·99)/2=49.5 → 15 (99 ones due to In_reg warm-up)
        // F2: AVR=(0.65·99)/2=32.2 → ≥30=level_9? level_10=33>32.2 → 9... compute:
        //   32.175 ≥ level_k·? levels: 30(k=9),33(k=10) → code 9, wait
        //   k such that 0.03·(k+1)·100 ≤ 32.175 → k+1 ≤ 10.7 → k=9.
        // F3: AVR=(0.35·99)/2=17.3 → k+1 ≤ 5.77 → k=4.
        // F4: AVR=0 → 1.
        let mut dtc = Dtc::new(DatcConfig::paper()).unwrap();
        let codes = run_frames(&mut dtc, &[(100, true), (300, false)]);
        assert_eq!(codes, vec![15, 9, 4, 1]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut dtc = Dtc::new(DatcConfig::paper()).unwrap();
        run_frames(&mut dtc, &[(500, true)]);
        assert_ne!(dtc.vth_code(), 1);
        dtc.reset();
        assert_eq!(dtc.vth_code(), 1);
        assert_eq!(dtc.ticks(), 0);
    }

    #[test]
    fn fixed_and_float_arithmetic_produce_similar_trajectories() {
        let mut fx = Dtc::new(DatcConfig::paper()).unwrap();
        let mut fl = Dtc::new(DatcConfig::paper().with_arithmetic(Arithmetic::Float)).unwrap();
        let mut max_diff = 0i16;
        for k in 0..20_000u32 {
            // pseudo-random duty cycle pattern
            let bit = (k.wrapping_mul(2654435761) >> 16) % 100 < (k / 200) % 50;
            let a = fx.step(bit);
            let b = fl.step(bit);
            if a.end_of_frame {
                max_diff = max_diff.max((i16::from(a.set_vth) - i16::from(b.set_vth)).abs());
            }
        }
        assert!(max_diff <= 1, "fixed vs float diverged by {max_diff} codes");
    }

    #[test]
    fn frame_count_advances() {
        let mut dtc = Dtc::new(DatcConfig::paper().with_frame_size(FrameSize::F200)).unwrap();
        for _ in 0..1000 {
            dtc.step(false);
        }
        assert_eq!(dtc.frames(), 5);
        assert_eq!(dtc.ticks(), 1000);
    }
}
