//! `market_sustained`: the marketplace mix through
//! `BedrockMempool::submit_all` → `Sequencer::seal_and_execute` →
//! `L2State::state_root` per block, over a 10⁵-account world carrying a
//! standing zero-tip backlog.
//!
//! A pass builds the world (set-up), seals one untimed warm-up block, then
//! times every further block of the seeded schedule. Passes repeat the same
//! schedule on a fresh world until the run's time budget is spent, and
//! every pass must land on the same receipts and final root.

use crate::gen::{market_backlog, market_schedule, MarketConfig};
use crate::spans::{SpanLog, SETUP, STEADY};
use crate::stats::{Fingerprint, Gates, Outcome};
use crate::{
    more_passes, setup_median, unattributed, OpTimes, RunOpts, Timings, UNATTRIBUTED_BOUND,
};
use parole_mempool::{BedrockMempool, Sequencer};
use parole_nft::CollectionConfig;
use parole_ovm::{Bloom, GasSchedule, NftTransaction, Ovm};
use parole_primitives::{Gas, Wei};
use parole_state::L2State;
use std::hint::black_box;
use std::time::Instant;

/// The program state a pass drives.
struct World {
    state: L2State,
    seq: Sequencer,
}

/// Set-up: the funded world on the default storage backend, its genesis
/// root, and a default sequencer holding the admitted backlog.
fn setup(cfg: &MarketConfig, backlog: &[NftTransaction]) -> World {
    let mut state = L2State::new();
    for i in 0..cfg.accounts {
        state.credit(cfg.account(i), Wei::from_eth(1_000));
    }
    for c in 0..cfg.collections {
        let config =
            CollectionConfig::limited_edition(&format!("M{c}"), cfg.tokens_per_collection, 1);
        state
            .deploy_collection_at(cfg.collection(c), config)
            .expect("collection addresses are distinct");
    }
    black_box(state.state_root());
    let pool = BedrockMempool::new(Wei::from_gwei(1));
    let mut seq = Sequencer::new(pool, Gas::new(cfg.txs_per_block as u64 * 250_000));
    seq.mempool_mut().submit_all(backlog.iter().copied());
    World { state, seq }
}

/// Per-layer totals of a traced run.
#[derive(Default)]
struct Layers {
    admit: f64,
    admitted: usize,
    collect: f64,
    depth: usize,
    ops: OpTimes,
    bloom: f64,
    root: f64,
    keccak: u64,
    heap_pops: u64,
    rebuilds: u64,
}

/// Runs `market_sustained`.
pub fn run(cfg: &MarketConfig, seed: u64, opts: RunOpts, spans: &mut SpanLog) -> Outcome {
    let schedule = market_schedule(cfg, seed);
    let backlog = market_backlog(cfg);
    let gas_schedule = GasSchedule::paper_calibrated();
    let gas_limits: Vec<Gas> = schedule
        .iter()
        .map(|b| b.iter().map(|t| gas_schedule.gas_for(&t.kind)).sum())
        .collect();
    let ovm = Ovm::new();

    let mut gates = Gates::default();
    let mut setups = Vec::new();
    let mut timings = Timings::default();
    let mut layers = Layers::default();
    let mut first: Option<Fingerprint> = None;
    let mut unit = 0u64;

    while more_passes(&timings, opts.seconds) {
        let t = Instant::now();
        let World { mut state, mut seq } = setup(cfg, &backlog);
        let dt = t.elapsed().as_secs_f64();
        setups.push(timings.begin_pass(dt));
        if opts.traced {
            spans.record("setup", SETUP, setups.len() as u64, t, dt);
        }
        let ops_before = seq.mempool_mut().op_stats();

        let mut print = Fingerprint::default();
        for (i, block) in schedule.iter().enumerate() {
            seq.set_gas_limit(gas_limits[i]);
            let t0 = Instant::now();
            let (sealed_len, receipts) = if opts.traced {
                let mut warm_up = Layers::default();
                let sink = if i == 0 { &mut warm_up } else { &mut layers };
                traced_block(&mut seq, &mut state, &ovm, block, sink, spans, unit)
            } else {
                seq.mempool_mut().submit_all(block.iter().copied());
                let (sealed, receipts) = seq.seal_and_execute(&mut state, None);
                black_box(state.state_root());
                (sealed.txs.len(), receipts)
            };
            let dt = t0.elapsed().as_secs_f64();
            if i > 0 {
                timings.unit(i - 1, dt, sealed_len);
                if opts.traced {
                    spans.record("block", STEADY, unit, t0, dt);
                }
                unit += 1;
            }
            gates.check(sealed_len == block.len(), || {
                format!("block {i} sealed {sealed_len} of {} txs", block.len())
            });
            for r in &receipts {
                gates.check(r.is_success(), || {
                    format!("block {i} reverted: {:?}", r.status)
                });
                print.receipt(r);
            }
        }
        timings.end_pass(0.0);
        let root = state.state_root();
        print.bytes(root.as_bytes());
        let ops = seq.mempool_mut().op_stats();
        layers.heap_pops += ops.heap_pops - ops_before.heap_pops;
        layers.rebuilds += ops.rebuilds - ops_before.rebuilds;
        match first {
            None => {
                gates.check(root == state.state_root_naive(), || {
                    "final root differs from state_root_naive()".into()
                });
                first = Some(print);
            }
            Some(f) => gates.check(f == print, || "passes diverged".into()),
        }
        gates.check(seq.pending() == cfg.backlog, || {
            format!(
                "pool holds {} entries, want the {} backlog",
                seq.pending(),
                cfg.backlog
            )
        });
    }

    let mut out = Outcome {
        gates,
        fingerprint: first.expect("at least one pass"),
        ..Outcome::default()
    };
    let wall = timings.total_secs();
    let blocks = timings.passes() * timings.units();
    if opts.traced {
        out.metric("txs_per_s", timings.txs_per_s(), "1/s");
        out.metric(
            "mempool.admit_us_per_tx",
            layers.admit * 1e6 / layers.admitted.max(1) as f64,
            "us",
        );
        out.metric(
            "mempool.collect_ms_per_block",
            layers.collect * 1e3 / blocks as f64,
            "ms",
        );
        out.metric(
            "mempool.pool_depth",
            layers.depth as f64 / blocks as f64,
            "count",
        );
        // Pool counters span every sealed block, warm-ups included.
        let sealed = (setups.len() * schedule.len()) as f64;
        out.metric(
            "mempool.heap_pops",
            layers.heap_pops as f64 / sealed,
            "count",
        );
        out.metric("mempool.rebuilds", layers.rebuilds as f64 / sealed, "count");
        layers.ops.report(&mut out, blocks);
        out.metric(
            "state.root_ms_per_block",
            layers.root * 1e3 / blocks as f64,
            "ms",
        );
        out.metric("state.root_share", layers.root / wall, "share");
        out.metric(
            "state.keccak_per_root",
            layers.keccak as f64 / blocks as f64,
            "count",
        );
        let attributed =
            layers.admit + layers.collect + layers.ops.total_secs() + layers.bloom + layers.root;
        let share = unattributed(wall, attributed);
        out.metric("unattributed_share", share, "share");
        out.gates.check(share <= UNATTRIBUTED_BOUND, || {
            format!("unattributed share {share:.4} exceeds {UNATTRIBUTED_BOUND}")
        });
    } else {
        timings.report(&mut out, setup_median(setups, || setup(cfg, &backlog)));
    }
    out
}

/// One block with `seal_and_execute` split into `seal_block` plus a timed
/// `Ovm::execute` per transaction (the serial path's exact steps), every
/// layer timed. Returns the sealed length and receipts.
fn traced_block(
    seq: &mut Sequencer,
    state: &mut L2State,
    ovm: &Ovm,
    block: &[NftTransaction],
    layers: &mut Layers,
    spans: &mut SpanLog,
    unit: u64,
) -> (usize, Vec<parole_ovm::Receipt>) {
    let t0 = Instant::now();
    seq.mempool_mut().submit_all(block.iter().copied());
    let t1 = Instant::now();
    let depth = seq.pending();
    let t2 = Instant::now();
    let sealed = seq.seal_block(state, None);
    let t3 = Instant::now();
    let mut receipts = Vec::with_capacity(sealed.txs.len());
    for tx in &sealed.txs {
        let a = Instant::now();
        let r = ovm.execute(state, tx);
        layers.ops.add(tx.kind.label(), a.elapsed().as_secs_f64());
        receipts.push(r);
    }
    let t4 = Instant::now();
    let mut bloom = Bloom::ZERO;
    for r in &receipts {
        bloom.accrue(&r.bloom);
    }
    black_box(bloom);
    let k0 = parole_telemetry::local_counter("crypto.keccak256");
    let t5 = Instant::now();
    black_box(state.state_root());
    let t6 = Instant::now();
    let k1 = parole_telemetry::local_counter("crypto.keccak256");

    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    layers.admit += s(t0, t1);
    layers.admitted += block.len();
    layers.depth += depth;
    layers.collect += s(t2, t3);
    layers.bloom += s(t4, t5);
    layers.root += s(t5, t6);
    layers.keccak += k1 - k0;
    spans.record("mempool.admit", STEADY, unit, t0, s(t0, t1));
    spans.record("mempool.collect", STEADY, unit, t2, s(t2, t3));
    spans.record("ovm.execute", STEADY, unit, t3, s(t3, t4));
    spans.record("state.root", STEADY, unit, t5, s(t5, t6));
    (sealed.txs.len(), receipts)
}
