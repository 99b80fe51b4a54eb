//! # datc-rx — receiver-side reconstruction
//!
//! The paper's receiver collects asynchronous IR-UWB events on a laptop
//! and applies "low-complexity windowing … to recover the transmitted
//! force information". This crate implements that pipeline and scores it
//! with the paper's figure of merit (Pearson correlation, %):
//!
//! * [`windowing`] — sliding-window and EWMA event-rate estimation;
//! * [`online`] — one streaming reconstructor
//!   ([`AnyOnlineReconstructor`], built from an [`OnlineReconSelect`])
//!   that accepts events incrementally and emits force samples with
//!   bounded latency, bit-exact with the batch estimators on a lossless
//!   feed;
//! * [`reconstruct`] — four reconstructors: windowed **rate** (the ATC
//!   baseline), **threshold-track** (zero-order hold of the D-ATC
//!   threshold side information), **hybrid** (threshold + rate refinement,
//!   the default for the experiments) and a statistical **Rice-inversion**
//!   estimator that inverts the level-crossing-rate formula;
//! * [`metrics`] — correlation/RMSE evaluation against the ground-truth
//!   ARV envelope, with lag alignment;
//! * [`pipeline`] — the composable [`Link`] builder assembling any
//!   [`SpikeEncoder`](datc_core::SpikeEncoder) + channel + reconstructor
//!   into one encoder-to-force-estimate pipeline.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod metrics;
pub mod online;
pub mod pipeline;
pub mod reconstruct;
pub mod windowing;

pub use metrics::{evaluate, CorrelationReport};
pub use online::{AnyOnlineReconstructor, OnlineReconSelect, OnlineReconstructor, Rate0};
pub use pipeline::{Link, LinkBuilder, LinkRun};
pub use reconstruct::{
    HybridReconstructor, RateReconstructor, Reconstructor, RiceInversionReconstructor,
    ThresholdTrackReconstructor,
};
