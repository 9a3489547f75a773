//! `rollup_signed`: signed mint/transfer/burn traffic through the full
//! optimistic-rollup lifecycle. Each round:
//!
//! 1. mempool admission, then an aggregator window collect;
//! 2. `Aggregator::build_batch`, then `calldata::encode_batch` + `compress`;
//! 3. `Verifier::validate`, then `RollupContract::submit_batch`, then
//!    `advance_l1_block` (finalizing batches whose challenge period ended).
//!
//! Every `forge_every`-th round the aggregator instead posts a forged
//! batch: its claimed trace smuggles an unearned credit in after one
//! transaction, and the verifier settles it with `challenge_interactive`
//! (bisection to the forged step, then one-step settlement). The round's
//! transactions roll back with the batch.
//!
//! A pass deploys the contract (set-up), plays every round, then drains the
//! challenge window. Passes replay the same signed rounds on a fresh
//! deployment until the time budget is spent.

use crate::gen::{signed_rounds, signed_wallets, SignedConfig, SignedRound};
use crate::spans::{SpanLog, SETUP, STEADY};
use crate::stats::{Fingerprint, Gates, Outcome};
use crate::{
    more_passes, setup_median, unattributed, OpTimes, RunOpts, Timings, UNATTRIBUTED_BOUND,
};
use parole_mempool::BedrockMempool;
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, Receipt};
use parole_primitives::{Address, AggregatorId, VerifierId, Wei};
use parole_rollup::{
    calldata, Aggregator, Batch, ChallengeOutcome, DisputedStep, FeePriorityStrategy,
    OrderingStrategy, RollupConfig, RollupContract, StateCommitment, TracedExecution, Verifier,
};
use parole_state::L2State;
use std::hint::black_box;
use std::time::Instant;

const AGGREGATOR: AggregatorId = AggregatorId::new(0);
const VERIFIER: VerifierId = VerifierId::new(0);

/// The deployment a pass drives.
struct Chain {
    rollup: RollupContract,
    aggregator: Aggregator,
    verifier: Verifier,
}

/// Set-up: contract deploy with the collections and funded wallets, both
/// bonds posted, genesis root computed.
fn setup(cfg: &SignedConfig, wallets: &[Address]) -> Chain {
    let mut rollup = RollupContract::new(RollupConfig::default());
    let state = rollup.l2_state_for_setup();
    for c in 0..cfg.collections {
        let config = CollectionConfig::limited_edition(&format!("S{c}"), cfg.supply, 1);
        state
            .deploy_collection_at(cfg.collection(c), config)
            .expect("collection addresses are distinct");
    }
    for &w in wallets {
        state.credit(w, Wei::from_eth(1_000));
    }
    rollup.commit_setup();
    rollup.bond_aggregator(AGGREGATOR);
    rollup.bond_verifier(VERIFIER);
    black_box(rollup.l2_state().state_root());
    Chain {
        rollup,
        aggregator: Aggregator::honest(AGGREGATOR, Wei::from_eth(10)),
        verifier: Verifier::new(VERIFIER, Wei::from_eth(5)),
    }
}

/// Per-layer totals of a traced run.
#[derive(Default)]
struct Layers {
    admit: f64,
    collect: f64,
    depth: usize,
    heap_pops: u64,
    rebuilds: u64,
    verify: f64,
    verified: usize,
    build: f64,
    ops: OpTimes,
    encode: f64,
    calldata_bytes: usize,
    posting_gas: u64,
    posted_txs: usize,
    validate: f64,
    submit: f64,
    finalize: f64,
    challenge: f64,
    challenges: usize,
    bisection_rounds: u64,
    executions: u64,
}

/// What one round produced, for gates and the fingerprint.
struct RoundResult {
    /// Post-state root the posted batch committed to.
    committed: [u8; 32],
    /// Transactions that will finalize (0 for a forged round).
    carried: usize,
    /// The posted batch's receipts (none for a forged round).
    receipts: Vec<Receipt>,
}

/// Runs `rollup_signed`.
pub fn run(cfg: &SignedConfig, seed: u64, opts: RunOpts, spans: &mut SpanLog) -> Outcome {
    let wallets = signed_wallets(cfg, seed);
    let rounds = signed_rounds(cfg, &wallets, seed);
    let addresses: Vec<Address> = wallets.iter().map(|w| w.address()).collect();
    let ovm = Ovm::new();

    let mut gates = Gates::default();
    let mut setups = Vec::new();
    let mut timings = Timings::default();
    let mut layers = Layers::default();
    let mut first: Option<Fingerprint> = None;
    let mut unit = 0u64;

    while more_passes(&timings, opts.seconds) {
        let t = Instant::now();
        let mut chain = setup(cfg, &addresses);
        let dt = t.elapsed().as_secs_f64();
        setups.push(timings.begin_pass(dt));
        if opts.traced {
            spans.record("setup", SETUP, setups.len() as u64, t, dt);
        }
        let exec0 = parole_telemetry::local_counter("ovm.txs_executed");
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        let mut print = Fingerprint::default();
        for (r, round) in rounds.iter().enumerate() {
            if opts.traced {
                // Signature cost per call, probed before the round's clock
                // starts: the probe is extra work the untraced round does
                // not do (the round's own verifications run inside the
                // build, validate, submit and finalize calls).
                let probe = Instant::now();
                let all_valid = round.txs.iter().all(NftTransaction::verify_signature);
                layers.verify += probe.elapsed().as_secs_f64();
                layers.verified += round.txs.len();
                gates.check(all_valid, || "a generated signature does not verify".into());
            }
            let t0 = Instant::now();
            let result = if opts.traced {
                traced_round(
                    cfg,
                    &mut chain,
                    &mut pool,
                    &ovm,
                    round,
                    &mut gates,
                    &mut layers,
                    spans,
                    unit,
                )
            } else {
                play_round(cfg, &mut chain, &mut pool, &ovm, round, &mut gates)
            };
            let dt = t0.elapsed().as_secs_f64();
            timings.unit(r, dt, result.carried);
            print.bytes(&result.committed);
            for receipt in &result.receipts {
                print.receipt(receipt);
            }
            if opts.traced {
                let name = if round.forged_step.is_some() {
                    "forged round"
                } else {
                    "round"
                };
                spans.record(name, STEADY, unit, t0, dt);
            }
            unit += 1;
            gates.check(result.carried == 0 || result.carried == cfg.window, || {
                format!("round {r} carried {} txs", result.carried)
            });
        }
        // Drain the challenge window: the last batches finalize here.
        let t0 = Instant::now();
        chain.rollup.finalize_all();
        let dt = t0.elapsed().as_secs_f64();
        timings.end_pass(dt);
        if opts.traced {
            layers.finalize += dt;
            layers.executions += parole_telemetry::local_counter("ovm.txs_executed") - exec0;
            spans.record("drain", STEADY, unit, t0, dt);
        }

        let rollup = &chain.rollup;
        let root = rollup.finalized_state().state_root();
        print.bytes(root.as_bytes());
        gates.check(rollup.pending_batch_ids().is_empty(), || {
            "batches left pending".into()
        });
        gates.check(rollup.undetected_forgeries() == 0, || {
            "a forgery finalized".into()
        });
        gates.check(rollup.l1().verify_integrity(), || {
            "L1 chain integrity broken".into()
        });
        gates.check(root == rollup.l2_state().state_root(), || {
            "finalized and staged roots differ after the drain".into()
        });
        match first {
            None => {
                gates.check(root == rollup.finalized_state().state_root_naive(), || {
                    "final root differs from state_root_naive()".into()
                });
                first = Some(print);
            }
            Some(f) => gates.check(f == print, || "passes diverged".into()),
        }
    }

    let mut out = Outcome {
        gates,
        fingerprint: first.expect("at least one pass"),
        ..Outcome::default()
    };
    let timed = timings.total_secs();
    let rounds_run = (timings.passes() * timings.units()) as f64;
    if opts.traced {
        let l = &layers;
        let forged = l.challenges.max(1) as f64;
        out.metric("txs_per_s", timings.txs_per_s(), "1/s");
        out.metric(
            "mempool.admit_us_per_tx",
            l.admit * 1e6 / (rounds_run * cfg.window as f64),
            "us",
        );
        out.metric(
            "mempool.collect_ms_per_block",
            l.collect * 1e3 / rounds_run,
            "ms",
        );
        out.metric("mempool.pool_depth", l.depth as f64 / rounds_run, "count");
        out.metric(
            "mempool.heap_pops",
            l.heap_pops as f64 / rounds_run,
            "count",
        );
        out.metric("mempool.rebuilds", l.rebuilds as f64 / rounds_run, "count");
        l.ops.report(&mut out, rounds_run as usize);
        out.metric(
            "crypto.verify_us_per_sig",
            l.verify * 1e6 / l.verified.max(1) as f64,
            "us",
        );
        out.metric("rollup.build_batch_ms", l.build * 1e3 / rounds_run, "ms");
        out.metric(
            "rollup.encode_compress_ms",
            l.encode * 1e3 / rounds_run,
            "ms",
        );
        out.metric(
            "rollup.calldata_bytes_per_tx",
            l.calldata_bytes as f64 / l.posted_txs as f64,
            "bytes",
        );
        out.metric(
            "rollup.posting_gas_per_tx",
            l.posting_gas as f64 / l.posted_txs as f64,
            "gas",
        );
        out.metric("rollup.validate_ms", l.validate * 1e3 / rounds_run, "ms");
        out.metric("rollup.submit_ms", l.submit * 1e3 / rounds_run, "ms");
        out.metric("rollup.finalize_ms", l.finalize * 1e3 / rounds_run, "ms");
        out.metric("rollup.challenge_ms", l.challenge * 1e3 / forged, "ms");
        out.metric(
            "rollup.bisection_rounds",
            l.bisection_rounds as f64 / forged,
            "count",
        );
        out.metric(
            "rollup.reexecutions_per_tx",
            l.executions as f64 / l.posted_txs as f64,
            "count",
        );
        let attributed = l.admit
            + l.collect
            + l.build
            + l.encode
            + l.validate
            + l.submit
            + l.challenge
            + l.finalize;
        let share = unattributed(timed, attributed);
        out.metric("unattributed_share", share, "share");
        out.gates.check(share <= UNATTRIBUTED_BOUND, || {
            format!("unattributed share {share:.4} exceeds {UNATTRIBUTED_BOUND}")
        });
    } else {
        timings.report(&mut out, setup_median(setups, || setup(cfg, &addresses)));
    }
    out
}

/// The forging aggregator's side of a forged round: a trace that credits
/// the sender of transaction `step` one unearned ether right after it
/// executes, and the batch committing to that trace's post-state.
fn forge(
    ovm: &Ovm,
    pre: &L2State,
    txs: &[NftTransaction],
    step: usize,
) -> (TracedExecution, Batch) {
    let thief = txs[step].sender;
    let defender = TracedExecution::record_with(ovm, pre, txs, |i, state| {
        if i == step {
            state.credit(thief, Wei::from_eth(1));
        }
    });
    let mut post = defender.final_state().clone();
    post.advance_block();
    let batch = Batch {
        aggregator: AGGREGATOR,
        commitment: StateCommitment {
            pre_state_root: pre.state_root(),
            post_state_root: post.state_root(),
            tx_root: Batch::compute_tx_root(txs),
        },
        txs: txs.to_vec(),
        receipts: Vec::new(),
    };
    (defender, batch)
}

/// Settles a posted forged batch: the verifier records its honest trace
/// from the contract's pre-state snapshot and plays the bisection game.
/// Gates conviction at the forged step in exactly `log2(window)` rounds;
/// returns the bisection rounds played.
fn settle(
    chain: &mut Chain,
    ovm: &Ovm,
    id: parole_rollup::BatchId,
    defender: &TracedExecution,
    step: usize,
    gates: &mut Gates,
) -> u32 {
    let rollup = &mut chain.rollup;
    let snapshot = rollup
        .challenge_pre_state(id)
        .expect("the forged batch is pending")
        .clone();
    let txs = rollup.pending_batch(id).expect("pending").txs.clone();
    let challenger = TracedExecution::record(ovm, &snapshot, &txs);
    let report = rollup.challenge_interactive(chain.verifier.id(), id, defender, &challenger);
    let want_rounds = txs.len().trailing_zeros();
    match report {
        Ok(report) => {
            let convicted = matches!(report.outcome, ChallengeOutcome::FraudProven { .. });
            gates.check(
                convicted && report.step == Some(DisputedStep::Tx(step)) && report.rounds == want_rounds,
                || format!("forged batch not convicted at step {step} in {want_rounds} rounds: {report:?}"),
            );
            // The slashed aggregator re-posts its bond to keep submitting.
            rollup.bond_aggregator(AGGREGATOR);
            report.rounds
        }
        Err(e) => {
            gates.check(false, || format!("challenge refused: {e}"));
            0
        }
    }
}

/// One untraced round.
fn play_round(
    cfg: &SignedConfig,
    chain: &mut Chain,
    pool: &mut BedrockMempool,
    ovm: &Ovm,
    round: &SignedRound,
    gates: &mut Gates,
) -> RoundResult {
    pool.submit_all(round.txs.iter().copied());
    let window = pool.collect(cfg.window);
    let pre = chain.rollup.l2_state();
    let result = match round.forged_step {
        None => {
            let batch = chain.aggregator.build_batch(pre, window);
            black_box(calldata::compress(&calldata::encode_batch(&batch)));
            let valid = chain.verifier.validate(pre, &batch);
            let reverted = batch.receipts.iter().filter(|r| !r.is_success()).count();
            let committed = *batch.commitment.post_state_root.as_bytes();
            let receipts = batch.receipts.clone();
            let accepted = chain.rollup.submit_batch(batch).is_ok();
            gates.check(valid && accepted && reverted == 0, || {
                format!("honest batch: valid {valid}, accepted {accepted}, {reverted} reverts")
            });
            RoundResult {
                committed,
                carried: cfg.window,
                receipts,
            }
        }
        Some(step) => {
            let (defender, batch) = forge(ovm, pre, &window, step);
            black_box(calldata::compress(&calldata::encode_batch(&batch)));
            let valid = chain.verifier.validate(pre, &batch);
            gates.check(!valid, || "forged batch validated".into());
            let committed = *batch.commitment.post_state_root.as_bytes();
            match chain.rollup.submit_batch(batch) {
                Ok(id) => {
                    settle(chain, ovm, id, &defender, step, gates);
                }
                Err(e) => gates.check(false, || format!("forged batch refused: {e}")),
            }
            RoundResult {
                committed,
                carried: 0,
                receipts: Vec::new(),
            }
        }
    };
    chain.rollup.advance_l1_block();
    result
}

/// One traced round: the same calls as [`play_round`], each timed, with
/// `Aggregator::build_batch` split into its steps (fee-priority order, a
/// timed `Ovm::execute` per transaction on a fork, block advance,
/// commitment) so per-operation execution cost is visible.
#[allow(clippy::too_many_arguments)]
fn traced_round(
    cfg: &SignedConfig,
    chain: &mut Chain,
    pool: &mut BedrockMempool,
    ovm: &Ovm,
    round: &SignedRound,
    gates: &mut Gates,
    l: &mut Layers,
    spans: &mut SpanLog,
    unit: u64,
) -> RoundResult {
    let s = |a: Instant| a.elapsed().as_secs_f64();
    let ops0 = pool.op_stats();
    let t = Instant::now();
    pool.submit_all(round.txs.iter().copied());
    l.admit += s(t);
    spans.record("mempool.admit", STEADY, unit, t, s(t));
    l.depth += pool.len();
    let t = Instant::now();
    let window = pool.collect(cfg.window);
    l.collect += s(t);
    spans.record("mempool.collect", STEADY, unit, t, s(t));
    let ops1 = pool.op_stats();
    l.heap_pops += ops1.heap_pops - ops0.heap_pops;
    l.rebuilds += ops1.rebuilds - ops0.rebuilds;
    let pre = chain.rollup.l2_state();
    let t = Instant::now();
    let (batch, defender) = match round.forged_step {
        None => {
            let ordered = FeePriorityStrategy.order(pre, window);
            let mut post = pre.clone();
            let mut receipts = Vec::with_capacity(ordered.len());
            for tx in &ordered {
                let a = Instant::now();
                receipts.push(ovm.execute(&mut post, tx));
                l.ops.add(tx.kind.label(), s(a));
            }
            post.advance_block();
            let commitment = StateCommitment::derive(pre, &post, &ordered);
            let batch = Batch {
                aggregator: chain.aggregator.id(),
                txs: ordered,
                receipts,
                commitment,
            };
            (batch, None)
        }
        Some(step) => {
            let (defender, batch) = forge(ovm, pre, &window, step);
            (batch, Some(defender))
        }
    };
    l.build += s(t);
    spans.record("rollup.build_batch", STEADY, unit, t, s(t));
    let t = Instant::now();
    let posted = calldata::compress(&calldata::encode_batch(&batch));
    l.encode += s(t);
    spans.record("rollup.encode_compress", STEADY, unit, t, s(t));
    l.calldata_bytes += posted.len();
    l.posting_gas += calldata::calldata_gas(&posted).units();
    l.posted_txs += batch.len();
    let t = Instant::now();
    let valid = chain.verifier.validate(pre, &batch);
    l.validate += s(t);
    spans.record("rollup.validate", STEADY, unit, t, s(t));
    let reverted = batch.receipts.iter().filter(|r| !r.is_success()).count();
    let committed = *batch.commitment.post_state_root.as_bytes();
    let receipts = batch.receipts.clone();
    let t = Instant::now();
    let submitted = chain.rollup.submit_batch(batch);
    l.submit += s(t);
    spans.record("rollup.submit", STEADY, unit, t, s(t));

    let carried = match (round.forged_step, defender, submitted) {
        (None, _, submitted) => {
            let accepted = submitted.is_ok();
            gates.check(valid && accepted && reverted == 0, || {
                format!("honest batch: valid {valid}, accepted {accepted}, {reverted} reverts")
            });
            cfg.window
        }
        (Some(step), Some(defender), Ok(id)) => {
            gates.check(!valid, || "forged batch validated".into());
            let t = Instant::now();
            l.bisection_rounds += u64::from(settle(chain, ovm, id, &defender, step, gates));
            l.challenge += s(t);
            l.challenges += 1;
            spans.record("rollup.challenge", STEADY, unit, t, s(t));
            0
        }
        (Some(_), _, submitted) => {
            gates.check(false, || format!("forged batch refused: {submitted:?}"));
            0
        }
    };
    let t = Instant::now();
    chain.rollup.advance_l1_block();
    l.finalize += s(t);
    spans.record("rollup.finalize", STEADY, unit, t, s(t));
    RoundResult {
        committed,
        carried,
        receipts,
    }
}
