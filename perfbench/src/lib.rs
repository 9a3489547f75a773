//! The PAROLE benchmark: three seeded workloads driven through the
//! program's defaults, with correctness gates, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! - [`market`] — `market_sustained`: the six-op marketplace mix through
//!   mempool → sequencer → OVM → state root at 10⁵ accounts.
//! - [`rollup`] — `rollup_signed`: signed traffic through the full ORSC
//!   lifecycle, with forged batches settled by interactive bisection.
//! - [`attack`] — `attack_windows`: GENTRANSEQ (paper Algorithm 1) on
//!   25-transaction windows.
//!
//! See `README.md` next to this crate for what each workload is for and
//! which end-to-end metric each per-layer metric should move.

pub mod attack;
pub mod calib;
pub mod gen;
pub mod market;
pub mod rollup;
pub mod spans;
pub mod stats;

use std::time::Instant;

/// How a workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seconds of timed work to accumulate before the run stops starting
    /// new passes (at least one pass always runs).
    pub seconds: f64,
    /// Split the program's composite calls into timed layer calls and
    /// report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// The end-to-end metrics every workload reports in its untraced result
/// line: `(name, unit)`. `block_p99_ms` is printed too but left out: on
/// `rollup_signed` and `attack_windows` it is a single slowest round or
/// window, whose spread between seeds is too wide to carry a regression
/// bound, and every workload's result line carries the same set.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("txs_per_s", "1/s"),
    ("block_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The OpSpec labels the workloads execute, in reporting order.
pub const OP_LABELS: [&str; 6] = ["mint", "list", "buy", "cancel_listing", "transfer", "burn"];

/// The per-layer metrics every traced run reports: `(name, unit)`. A
/// layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mempool.admit_us_per_tx", "us"),
    ("mempool.collect_ms_per_block", "ms"),
    ("mempool.pool_depth", "count"),
    ("mempool.heap_pops", "count"),
    ("mempool.rebuilds", "count"),
    ("ovm.execute_us.mint", "us"),
    ("ovm.execute_us.list", "us"),
    ("ovm.execute_us.buy", "us"),
    ("ovm.execute_us.cancel_listing", "us"),
    ("ovm.execute_us.transfer", "us"),
    ("ovm.execute_us.burn", "us"),
    ("ovm.txs.mint", "count"),
    ("ovm.txs.list", "count"),
    ("ovm.txs.buy", "count"),
    ("ovm.txs.cancel_listing", "count"),
    ("ovm.txs.transfer", "count"),
    ("ovm.txs.burn", "count"),
    ("crypto.verify_us_per_sig", "us"),
    ("state.root_ms_per_block", "ms"),
    ("state.root_share", "share"),
    ("state.keccak_per_root", "count"),
    ("rollup.build_batch_ms", "ms"),
    ("rollup.encode_compress_ms", "ms"),
    ("rollup.calldata_bytes_per_tx", "bytes"),
    ("rollup.posting_gas_per_tx", "gas"),
    ("rollup.validate_ms", "ms"),
    ("rollup.submit_ms", "ms"),
    ("rollup.finalize_ms", "ms"),
    ("rollup.challenge_ms", "ms"),
    ("rollup.bisection_rounds", "count"),
    ("rollup.reexecutions_per_tx", "count"),
    ("core.assess_us", "us"),
    ("mdp.step_us", "us"),
    ("mdp.steps_per_window", "count"),
    ("mdp.reset_us", "us"),
    ("drl.update_ms_per_window", "ms"),
    ("gentranseq.infer_ms", "ms"),
    ("gentranseq.profit_gwei_per_window", "gwei"),
    ("unattributed_share", "share"),
    ("trace_overhead", "ratio"),
];

/// The most block (window) wall-clock a traced run may leave unexplained
/// by its timed layer calls before the run fails reconciliation.
pub(crate) const UNATTRIBUTED_BOUND: f64 = 0.05;

/// Index of an OpSpec label in [`OP_LABELS`].
fn label_index(label: &str) -> usize {
    OP_LABELS
        .iter()
        .position(|&l| l == label)
        .unwrap_or_else(|| panic!("workloads never execute `{label}`"))
}

/// Per-label execution time and count, from timed `Ovm::execute` calls.
#[derive(Debug, Default, Clone)]
pub(crate) struct OpTimes {
    secs: [f64; 6],
    count: [u64; 6],
}

impl OpTimes {
    /// Records one execution of an operation labelled `label`.
    pub fn add(&mut self, label: &str, secs: f64) {
        let i = label_index(label);
        self.secs[i] += secs;
        self.count[i] += 1;
    }

    /// Total seconds across every label.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Emits `ovm.execute_us.<label>` (mean) and `ovm.txs.<label>` (per
    /// block, over `blocks`).
    pub fn report(&self, out: &mut stats::Outcome, blocks: usize) {
        for (i, label) in OP_LABELS.iter().enumerate() {
            let n = self.count[i];
            let us = if n == 0 {
                0.0
            } else {
                self.secs[i] * 1e6 / n as f64
            };
            out.metric(format!("ovm.execute_us.{label}"), us, "us");
            out.metric(
                format!("ovm.txs.{label}"),
                n as f64 / blocks.max(1) as f64,
                "count",
            );
        }
    }
}

/// Set-up seconds in reference seconds, as a median over repeated
/// set-ups. `samples` holds the per-pass set-ups (each already calibrated
/// on its own); further set-ups are timed one by one (each dropped outside
/// the clock) in batches of at least [`SETUP_BATCH_SECS`], each batch
/// followed by a calibration and reduced to its median set-up, until there
/// are at least [`SETUP_MIN_SAMPLES`] set-ups and [`SETUP_MIN_SECS`] of
/// batches. A set-up of a few microseconds is so repeated many thousands of
/// times. Medians, not minima: a minimum over thousands of repeats would
/// pick the batch whose calibration happened to run slowest.
pub(crate) fn setup_median<T>(mut samples: Vec<f64>, mut setup: impl FnMut() -> T) -> f64 {
    let mut count = samples.len();
    let mut timed = 0.0;
    while count < SETUP_MIN_SAMPLES || timed < SETUP_MIN_SECS {
        let mut batch = Vec::new();
        while batch.iter().sum::<f64>() < SETUP_BATCH_SECS {
            let t = Instant::now();
            let built = setup();
            let dt = t.elapsed().as_secs_f64();
            drop(built);
            batch.push(dt);
        }
        count += batch.len();
        let secs: f64 = batch.iter().sum();
        timed += secs;
        samples.push(calib::to_reference(
            stats::median(&batch),
            calib::calibrate(secs),
        ));
    }
    stats::median(&samples)
}

/// Fewest set-ups [`setup_median`] takes its median over.
const SETUP_MIN_SAMPLES: usize = 5;

/// Least set-up time [`setup_median`] repeats beyond the per-pass set-ups.
const SETUP_MIN_SECS: f64 = 1.0;

/// Least set-up time between two calibrations in [`setup_median`].
const SETUP_BATCH_SECS: f64 = 0.02;

/// Timed samples of a run: every pass replays the same inputs, so unit
/// `i` (a block, round or window) is timed once per pass. Each unit is
/// followed by a calibration ([`calib`]), and its time in reference seconds
/// divides by the mean of the calibrations just before and just after it.
#[derive(Debug, Default, Clone)]
pub(crate) struct Timings {
    /// `secs[i][p]`: seconds of unit `i` in pass `p`.
    secs: Vec<Vec<f64>>,
    /// `reference[i][p]`: the same, in reference seconds.
    reference: Vec<Vec<f64>>,
    /// Transactions unit `i` carries through the whole path.
    txs: Vec<usize>,
    /// Per pass: timed seconds not tied to one unit (a final drain).
    extra: Vec<f64>,
    /// The same, in reference seconds.
    extra_reference: Vec<f64>,
    /// Seconds per calibration slice measured last in this pass.
    last_slice: f64,
}

impl Timings {
    /// Starts a pass right after its set-up took `setup_secs`: calibrates
    /// (which also opens the pass's first unit) and returns the set-up in
    /// reference seconds.
    pub fn begin_pass(&mut self, setup_secs: f64) -> f64 {
        self.last_slice = calib::calibrate(setup_secs);
        calib::to_reference(setup_secs, self.last_slice)
    }

    /// Records unit `i` of the current pass, then calibrates.
    pub fn unit(&mut self, i: usize, secs: f64, txs: usize) {
        if i == self.secs.len() {
            self.secs.push(Vec::new());
            self.reference.push(Vec::new());
            self.txs.push(txs);
        }
        debug_assert_eq!(self.txs[i], txs, "passes replay identical inputs");
        debug_assert!(self.last_slice > 0.0, "begin_pass opens every pass");
        let before = self.last_slice;
        self.last_slice = calib::calibrate(secs);
        self.secs[i].push(secs);
        self.reference[i].push(calib::to_reference(secs, (before + self.last_slice) / 2.0));
    }

    /// Records the current pass's untied seconds, then calibrates; call
    /// once per pass.
    pub fn end_pass(&mut self, extra: f64) {
        let before = self.last_slice;
        self.last_slice = calib::calibrate(extra);
        self.extra.push(extra);
        self.extra_reference
            .push(calib::to_reference(extra, (before + self.last_slice) / 2.0));
        self.last_slice = 0.0;
    }

    /// Completed passes.
    pub fn passes(&self) -> usize {
        self.extra.len()
    }

    /// Timed units per pass.
    pub fn units(&self) -> usize {
        self.txs.len()
    }

    /// Every timed second of the run (wall-clock, not reference seconds).
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().flatten().sum::<f64>() + self.extra.iter().sum::<f64>()
    }

    /// Each unit's reference time as the minimum over its passes. Every
    /// pass replays identical work from a fresh set-up, so the fastest
    /// repeat is the one least disturbed by a passing burst of other load
    /// that the calibration beside it missed.
    pub fn unit_times(&self) -> Vec<f64> {
        fastest(&self.reference)
    }

    /// Transactions per reference second over the per-unit times (plus
    /// the fastest untied pass time).
    pub fn txs_per_s(&self) -> f64 {
        self.throughput(&self.unit_times(), &self.extra_reference)
    }

    /// Transactions per second over per-unit times `units` plus the
    /// fastest of the per-pass untied times `extra`.
    fn throughput(&self, units: &[f64], extra: &[f64]) -> f64 {
        let extra = extra.iter().copied().fold(f64::INFINITY, f64::min);
        self.txs.iter().sum::<usize>() as f64 / (units.iter().sum::<f64>() + extra)
    }

    /// Machine speed over the run: wall-clock over reference seconds of
    /// every timed unit (above 1 the machine ran slower than reference).
    pub fn slowdown(&self) -> f64 {
        let wall: f64 = self.secs.iter().flatten().sum();
        wall / self.reference.iter().flatten().sum::<f64>()
    }

    /// Appends the end-to-end metrics of an untraced run: set-up time,
    /// throughput, and p50/p99 over the per-unit times, all in reference
    /// seconds, and the machine's slowdown they were corrected for.
    pub fn report(&self, out: &mut stats::Outcome, setup_s: f64) {
        let units = self.unit_times();
        out.metric("setup_s", setup_s, "s");
        out.metric("txs_per_s", self.txs_per_s(), "1/s");
        out.metric("block_p50_ms", stats::median(&units) * 1e3, "ms");
        out.metric("block_p99_ms", stats::percentile(&units, 99.0) * 1e3, "ms");
        out.metric("machine_slowdown", self.slowdown(), "ratio");
        // The same two figures in wall-clock seconds, for reference only.
        let wall = fastest(&self.secs);
        out.metric("wall.txs_per_s", self.throughput(&wall, &self.extra), "1/s");
        out.metric("wall.block_p50_ms", stats::median(&wall) * 1e3, "ms");
    }
}

/// Per unit, the minimum over its passes.
fn fastest(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Whether a run should start another pass: at least [`MIN_PASSES`], then
/// until `seconds` of timed work.
pub(crate) fn more_passes(t: &Timings, seconds: f64) -> bool {
    t.passes() < MIN_PASSES || t.total_secs() < seconds
}

/// Passes every run makes, so each unit has at least three repeats.
const MIN_PASSES: usize = 3;

/// Share of `wall` seconds not covered by `layers` seconds.
pub(crate) fn unattributed(wall: f64, layers: f64) -> f64 {
    if wall <= 0.0 {
        0.0
    } else {
        (wall - layers) / wall
    }
}
