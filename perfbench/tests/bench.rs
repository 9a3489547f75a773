//! The benchmark's own tests: seeded inputs are reproducible and distinct,
//! generated schedules are valid by construction, the traced split is
//! faithful, and a tiny run of every workload passes every gate.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use parole_mempool::{BedrockMempool, Sequencer};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, TxKind};
use parole_primitives::{Gas, TokenId, Wei};
use parole_rollup::{bisect, DisputedStep, TracedExecution};
use parole_state::L2State;
use perfbench::attack::{self, AttackConfig};
use perfbench::gen::{
    market_backlog, market_schedule, signed_rounds, signed_wallets, MarketConfig, SignedConfig,
};
use perfbench::spans::SpanLog;
use perfbench::stats::Outcome;
use perfbench::{market, rollup, RunOpts, END_TO_END, PER_LAYER};
use std::collections::HashMap;

fn untraced() -> RunOpts {
    RunOpts {
        seconds: 1e-9,
        traced: false,
    }
}

fn traced() -> RunOpts {
    RunOpts {
        seconds: 1e-9,
        traced: true,
    }
}

fn assert_clean(name: &str, out: &Outcome) {
    assert!(out.gates.attempted > 0, "{name}: nothing was checked");
    assert_eq!(out.gates.failed, 0, "{name}: {:?}", out.gates.failures);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let market = MarketConfig::tiny();
    assert_eq!(market_schedule(&market, 7), market_schedule(&market, 7));
    assert_ne!(market_schedule(&market, 7), market_schedule(&market, 8));

    let signed = SignedConfig::tiny();
    let rounds = |seed| {
        let wallets = signed_wallets(&signed, seed);
        signed_rounds(&signed, &wallets, seed)
            .into_iter()
            .map(|r| (r.txs, r.forged_step))
            .collect::<Vec<_>>()
    };
    assert_eq!(rounds(7), rounds(7));
    assert_ne!(rounds(7), rounds(8));

    let attack = AttackConfig::tiny();
    assert_eq!(
        attack::first_window(&attack, 7),
        attack::first_window(&attack, 7)
    );
    assert_ne!(
        attack::first_window(&attack, 7),
        attack::first_window(&attack, 8)
    );
}

/// Every block executes with zero reverts in its generated order *and*
/// reversed (any fee-priority permutation is valid), and the listing book
/// never strands: buys and cancels hit listings opened in an earlier
/// block, and listed tokens are never moved.
#[test]
fn market_schedule_is_valid_by_construction() {
    let cfg = MarketConfig::tiny();
    let schedule = market_schedule(&cfg, 3);
    let mut labels: HashMap<&str, usize> = HashMap::new();
    let mut open = HashMap::new();
    for (b, block) in schedule.iter().enumerate() {
        for tx in block {
            *labels.entry(tx.kind.label()).or_default() += 1;
            let Some(token) = tx.kind.token() else {
                continue;
            };
            let key = (tx.kind.collection(), token);
            match tx.kind {
                TxKind::List { .. } => assert!(open.insert(key, b).is_none(), "double list"),
                TxKind::Buy { .. } | TxKind::CancelListing { .. } => {
                    let opened = open.remove(&key).expect("op on an unlisted token");
                    assert!(opened < b, "listing consumed in its own block");
                }
                TxKind::Transfer { .. } | TxKind::Burn { .. } => {
                    assert!(!open.contains_key(&key), "listed token moved")
                }
                _ => {}
            }
        }
    }
    for label in perfbench::OP_LABELS {
        assert!(
            labels.get(label).copied().unwrap_or(0) > 0,
            "mix lacks {label}: {labels:?}"
        );
    }

    let ovm = Ovm::new();
    for reversed in [false, true] {
        let mut state = L2State::new();
        for i in 0..cfg.accounts {
            state.credit(cfg.account(i), Wei::from_eth(1_000));
        }
        for c in 0..cfg.collections {
            let config = CollectionConfig::limited_edition("M", cfg.tokens_per_collection, 1);
            state
                .deploy_collection_at(cfg.collection(c), config)
                .unwrap();
        }
        for block in &schedule {
            let mut txs = block.clone();
            if reversed {
                txs.reverse();
            }
            for r in ovm.execute_sequence(&mut state, &txs) {
                assert!(
                    r.is_success(),
                    "reverted (reversed: {reversed}): {:?}",
                    r.status
                );
            }
        }
    }
}

/// The backlog is includable but always outranked, so a block gas limit
/// sized to the block's own demand never seals it.
#[test]
fn backlog_is_never_sealed() {
    let cfg = MarketConfig::tiny();
    let mut seq = Sequencer::new(BedrockMempool::new(Wei::from_gwei(1)), Gas::new(1));
    seq.mempool_mut().submit_all(market_backlog(&cfg));
    let block = &market_schedule(&cfg, 5)[0];
    let schedule = parole_ovm::GasSchedule::paper_calibrated();
    seq.set_gas_limit(block.iter().map(|t| schedule.gas_for(&t.kind)).sum());
    seq.mempool_mut().submit_all(block.iter().copied());
    let sealed = seq.seal_block(&L2State::new(), None);
    assert_eq!(sealed.txs.len(), block.len());
    assert_eq!(seq.pending(), cfg.backlog);
}

/// Signed rounds are full, power-of-two sized, correctly signed, touch
/// each token at most once, and every forged round is detectable: the
/// forged trace diverges exactly at its step, which bisection isolates in
/// `log2(window)` rounds.
#[test]
fn signed_rounds_are_valid_and_forgeries_detectable() {
    let cfg = SignedConfig::tiny();
    let wallets = signed_wallets(&cfg, 4);
    let rounds = signed_rounds(&cfg, &wallets, 4);
    let mut state = L2State::new();
    for c in 0..cfg.collections {
        let config = CollectionConfig::limited_edition("S", cfg.supply, 1);
        state
            .deploy_collection_at(cfg.collection(c), config)
            .unwrap();
    }
    for w in &wallets {
        state.credit(w.address(), Wei::from_eth(1_000));
    }
    let ovm = Ovm::new();
    let mut forged = 0;
    for round in &rounds {
        assert_eq!(round.txs.len(), cfg.window);
        assert!(round.txs.iter().all(NftTransaction::verify_signature));
        let mut tokens: Vec<(parole_primitives::Address, TokenId)> = round
            .txs
            .iter()
            .filter_map(|t| t.kind.token().map(|k| (t.kind.collection(), k)))
            .collect();
        tokens.sort();
        tokens.dedup();
        assert_eq!(
            tokens.len(),
            cfg.window,
            "a token is touched twice in one round"
        );
        let mut reversed = round.txs.clone();
        reversed.reverse();
        for order in [&round.txs, &reversed] {
            let (receipts, _) = ovm.simulate_sequence(&state, order);
            assert!(receipts.iter().all(|r| r.is_success()));
        }
        match round.forged_step {
            None => {
                ovm.execute_sequence(&mut state, &round.txs);
                state.advance_block();
            }
            Some(step) => {
                forged += 1;
                let thief = round.txs[step].sender;
                let honest = TracedExecution::record(&ovm, &state, &round.txs);
                let lie = TracedExecution::record_with(&ovm, &state, &round.txs, |i, s| {
                    if i == step {
                        s.credit(thief, Wei::from_eth(1));
                    }
                });
                let found = bisect(lie.trace(), honest.trace());
                assert_eq!(found.step, DisputedStep::Tx(step));
                assert_eq!(found.rounds, cfg.window.trailing_zeros());
            }
        }
    }
    assert!(forged > 0, "the tiny config posts forged rounds");
}

/// A tiny run of every workload passes every correctness gate untraced and
/// traced, and the traced split lands on the untraced run's exact outputs.
#[test]
fn tiny_runs_pass_every_gate_and_trace_faithfully() {
    let mut spans = SpanLog::default();
    type Run = fn(RunOpts, &mut SpanLog) -> Outcome;
    let runs: [(&str, Run); 3] = [
        ("market_sustained", |o, s| {
            market::run(&MarketConfig::tiny(), 11, o, s)
        }),
        ("rollup_signed", |o, s| {
            rollup::run(&SignedConfig::tiny(), 11, o, s)
        }),
        ("attack_windows", |o, s| {
            attack::run(&AttackConfig::tiny(), 11, o, s)
        }),
    ];
    for (name, run) in runs {
        let plain = run(untraced(), &mut spans);
        assert_clean(name, &plain);
        for &(metric, _) in END_TO_END.iter().filter(|(m, _)| *m != "peak_rss_mb") {
            let v = plain
                .value(metric)
                .unwrap_or_else(|| panic!("{name} lacks {metric}"));
            assert!(v > 0.0, "{name}: {metric} = {v}");
        }
        let split = run(traced(), &mut spans);
        assert_clean(name, &split);
        assert_eq!(
            plain.fingerprint, split.fingerprint,
            "{name}: traced split diverged"
        );
        assert!(split.value("unattributed_share").is_some(), "{name}");
    }
    assert!(!spans.is_empty());
}

/// `BENCHMARK.json` names exactly the metrics the binary prints.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(
        names,
        3 + END_TO_END.len() + PER_LAYER.len(),
        "unexpected extra entries"
    );
}
