//! `attack_windows`: the paper's Algorithm 1 on 25-transaction windows.
//!
//! Windows come from the fleet's `WorkloadGenerator` (IFU pairs ensured)
//! over the fleet-sweep economy; each goes through
//! `ParoleModule::process` (arbitrage assessment, then
//! `GentranseqModule::run` with the fleet-sweep profile), and the chain
//! advances by the executed order — the GENTRANSEQ order when it is
//! strictly more profitable, the collected order otherwise.
//!
//! Window generation depends on the chain state the previous window left,
//! so the first pass generates each window (outside the clock) and records
//! it; later passes replay the recorded windows from a fresh economy and
//! must reproduce the first pass's executed orders and receipts exactly.

use crate::spans::{SpanLog, SETUP, STEADY};
use crate::stats::{Fingerprint, Gates, Outcome};
use crate::{
    more_passes, setup_median, unattributed, OpTimes, RunOpts, Timings, UNATTRIBUTED_BOUND,
};
use parole::{
    assess, pair_count, ActionSpace, EvalConfig, GentranseqModule, ParoleModule, ReorderEnv,
    FEATURES_PER_TX,
};
use parole_drl::{DqnAgent, Environment, StepOutcome};
use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm};
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use std::time::Instant;

/// Dimensions of the `attack_windows` economy and windows.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Transactions per window.
    pub window: usize,
    /// Windows per pass.
    pub windows: usize,
    /// General user population.
    pub users: usize,
    /// Colluding IFUs.
    pub ifus: usize,
}

impl AttackConfig {
    /// The benchmark's size: the fleet sweep's 25-transaction windows.
    pub fn full() -> Self {
        AttackConfig {
            window: 25,
            windows: 64,
            users: 20,
            ifus: 1,
        }
    }

    /// Smoke-test size.
    pub fn tiny() -> Self {
        AttackConfig {
            window: 8,
            windows: 3,
            users: 10,
            ifus: 1,
        }
    }
}

/// The economy a pass drives.
struct Economy {
    state: L2State,
    collection: Address,
    users: Vec<Address>,
    ifus: Vec<Address>,
    module: ParoleModule,
}

/// Set-up: the fleet-sweep base state — one limited-edition collection,
/// funded users and IFUs, two tokens per IFU and eight bystander tokens —
/// plus the PAROLE module with the fleet-sweep GENTRANSEQ profile.
fn setup(cfg: &AttackConfig, seed: u64) -> Economy {
    let mut state = L2State::new();
    let supply = (cfg.window as u64 * 2).max(40);
    let collection =
        state.deploy_collection(CollectionConfig::limited_edition("FleetPT", supply, 500));
    let users: Vec<Address> = (1..=cfg.users as u64).map(Address::from_low_u64).collect();
    let ifus: Vec<Address> = (0..cfg.ifus as u64)
        .map(|i| Address::from_low_u64(10_000 + i))
        .collect();
    // Fleet sweeps fund 50 ETH and run a few rounds; a pass here runs 64
    // windows, and mints drain users toward the creator, so users are
    // funded deep enough that no pass ever exhausts the economy.
    for &who in users.iter().chain(&ifus) {
        state.credit(who, Wei::from_eth(250));
    }
    let holders = ifus
        .iter()
        .flat_map(|&i| [i, i])
        .chain(users.iter().copied().take(8));
    for (token, owner) in holders.enumerate() {
        state
            .nft_mint(collection, owner, TokenId::new(token as u64))
            .expect("collection just deployed")
            .expect("fresh token within supply");
    }
    let module = ParoleModule::new(GentranseqModule::fast().with_seed(seed));
    Economy {
        state,
        collection,
        users,
        ifus,
        module,
    }
}

/// The window generator for `seed`.
fn generator(seed: u64) -> WorkloadGenerator {
    let config = WorkloadConfig {
        ifu_participation: 0.35,
        ensure_ifu_pair: true,
        ..WorkloadConfig::default()
    };
    WorkloadGenerator::new(seed ^ 0x4154_544b, config)
}

/// The first window of a pass: the input every later window's generation
/// builds on.
pub fn first_window(cfg: &AttackConfig, seed: u64) -> Vec<NftTransaction> {
    let eco = setup(cfg, seed);
    generator(seed).generate(
        &eco.state,
        eco.collection,
        &eco.users,
        &eco.ifus,
        cfg.window,
    )
}

/// What one processed window produced.
struct Processed {
    /// The executed order.
    order: Vec<NftTransaction>,
    /// `(best balance, original balance)` when GENTRANSEQ found a strictly
    /// better order.
    gain: Option<(Wei, Wei)>,
}

/// Per-layer totals of a traced run.
#[derive(Default)]
struct Layers {
    assess: f64,
    env: EnvTimes,
    build_env: f64,
    train: f64,
    train_env: f64,
    infer: f64,
    ops: OpTimes,
    advance: f64,
}

/// Time and calls spent inside the environment.
#[derive(Default, Clone, Copy)]
struct EnvTimes {
    step: f64,
    steps: u64,
    reset: f64,
    resets: u64,
}

impl EnvTimes {
    fn total(&self) -> f64 {
        self.step + self.reset
    }
}

/// Times every `step` and `reset` of the wrapped environment.
struct TimedEnv {
    inner: ReorderEnv,
    times: EnvTimes,
}

impl Environment for TimedEnv {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn action_count(&self) -> usize {
        self.inner.action_count()
    }

    fn reset(&mut self) -> Vec<f64> {
        let t = Instant::now();
        let obs = self.inner.reset();
        self.times.reset += t.elapsed().as_secs_f64();
        self.times.resets += 1;
        obs
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let t = Instant::now();
        let out = self.inner.step(action);
        self.times.step += t.elapsed().as_secs_f64();
        self.times.steps += 1;
        out
    }
}

/// `ParoleModule::process` re-driven layer by layer: the assessment, then
/// `GentranseqModule::run`'s steps (environment, fresh agent, training,
/// greedy inference pass) with a timing wrapper around the environment.
fn traced_process(
    eco: &Economy,
    window: &[NftTransaction],
    l: &mut Layers,
    spans: &mut SpanLog,
    unit: u64,
) -> Processed {
    let s = |a: Instant| a.elapsed().as_secs_f64();
    let t = Instant::now();
    let opportunity = !window.is_empty() && assess(window, &eco.ifus).opportunity;
    l.assess += s(t);
    spans.record("core.assess", STEADY, unit, t, s(t));
    if !opportunity {
        return Processed {
            order: window.to_vec(),
            gain: None,
        };
    }
    let gentranseq = eco.module.gentranseq();
    let dqn = *gentranseq.dqn_config();
    let t = Instant::now();
    let inner = gentranseq.environment(&eco.state, window, &eco.ifus);
    l.build_env += s(t);
    spans.record("mdp.build_env", STEADY, unit, t, s(t));
    let mut env = TimedEnv {
        inner,
        times: EnvTimes::default(),
    };

    let t = Instant::now();
    let mut agent = DqnAgent::new(
        window.len() * FEATURES_PER_TX,
        pair_count(window.len()).max(1),
        dqn,
    );
    agent.train(&mut env);
    l.train += s(t);
    spans.record("gentranseq.train", STEADY, unit, t, s(t));
    l.train_env += env.times.total();

    let t = Instant::now();
    let mut obs = env.reset();
    for _ in 0..dqn.max_steps {
        let action = agent.act_greedy(&obs);
        obs = env.step(action).next_state;
    }
    l.infer += s(t);
    spans.record("gentranseq.infer", STEADY, unit, t, s(t));
    l.env.step += env.times.step;
    l.env.steps += env.times.steps;
    l.env.reset += env.times.reset;
    l.env.resets += env.times.resets;

    let original = env.inner.original_balance();
    let (best, balance) = env.inner.best_order();
    if balance > original {
        Processed {
            order: best,
            gain: Some((balance, original)),
        }
    } else {
        Processed {
            order: window.to_vec(),
            gain: None,
        }
    }
}

/// The correctness gates of one processed window: the executed order is a
/// permutation of the window, and an improved order re-evaluates to its
/// reported balance on the naive (clone-and-replay) evaluator.
fn check_window(
    eco: &Economy,
    pre: &L2State,
    window: &[NftTransaction],
    p: &Processed,
    gates: &mut Gates,
) {
    let key = |txs: &[NftTransaction]| {
        let mut hashes: Vec<[u8; 32]> = txs.iter().map(|t| *t.tx_hash().as_bytes()).collect();
        hashes.sort_unstable();
        hashes
    };
    gates.check(key(window) == key(&p.order), || {
        "executed order is not a permutation".into()
    });
    if let Some((best, _)) = p.gain {
        let naive = ReorderEnv::with_eval_config(
            pre.clone(),
            window.to_vec(),
            eco.ifus.clone(),
            *eco.module.gentranseq().reward_config(),
            ActionSpace::AllPairs,
            EvalConfig::naive(),
        );
        let replayed = naive.balance_of_order(&p.order);
        gates.check(replayed == Some(best), || {
            format!("best order re-evaluates to {replayed:?}, reported {best}")
        });
    }
}

/// Runs `attack_windows`.
pub fn run(cfg: &AttackConfig, seed: u64, opts: RunOpts, spans: &mut SpanLog) -> Outcome {
    let ovm = Ovm::new();
    let mut gen = generator(seed);
    let mut recorded: Vec<Vec<NftTransaction>> = Vec::new();

    let mut gates = Gates::default();
    let mut setups = Vec::new();
    let mut timings = Timings::default();
    let mut profit_gwei = 0i128;
    let mut layers = Layers::default();
    let mut first: Option<Fingerprint> = None;
    let mut unit = 0u64;

    while more_passes(&timings, opts.seconds) {
        let t = Instant::now();
        let mut eco = setup(cfg, seed);
        let dt = t.elapsed().as_secs_f64();
        setups.push(timings.begin_pass(dt));
        if opts.traced {
            spans.record("setup", SETUP, setups.len() as u64, t, dt);
        }
        let mut print = Fingerprint::default();
        for w in 0..cfg.windows {
            if first.is_none() {
                let window = gen.generate(
                    &eco.state,
                    eco.collection,
                    &eco.users,
                    &eco.ifus,
                    cfg.window,
                );
                gates.check(window.len() == cfg.window, || {
                    format!(
                        "window {w} generated {} of {} txs",
                        window.len(),
                        cfg.window
                    )
                });
                recorded.push(window);
            }
            let window = &recorded[w];
            // The first pass checks every window against its pre-state.
            let pre = first.is_none().then(|| eco.state.clone());

            let t0 = Instant::now();
            let (processed, receipts) = if opts.traced {
                let p = traced_process(&eco, window, &mut layers, spans, unit);
                let mut receipts = Vec::with_capacity(p.order.len());
                let advance = Instant::now();
                for tx in &p.order {
                    let a = Instant::now();
                    receipts.push(ovm.execute(&mut eco.state, tx));
                    layers.ops.add(tx.kind.label(), a.elapsed().as_secs_f64());
                }
                let a = Instant::now();
                eco.state.advance_block();
                layers.advance += a.elapsed().as_secs_f64();
                let dt = advance.elapsed().as_secs_f64();
                spans.record("chain.advance", STEADY, unit, advance, dt);
                (p, receipts)
            } else {
                let outcome = eco.module.process(&eco.ifus, &eco.state, window);
                let p = match outcome {
                    Some(o) => Processed {
                        gain: Some((o.best_balance, o.original_balance)),
                        order: o.best_order,
                    },
                    None => Processed {
                        order: window.clone(),
                        gain: None,
                    },
                };
                let receipts = ovm.execute_sequence(&mut eco.state, &p.order);
                eco.state.advance_block();
                (p, receipts)
            };
            let dt = t0.elapsed().as_secs_f64();
            timings.unit(w, dt, processed.order.len());
            if opts.traced {
                spans.record("window", STEADY, unit, t0, dt);
            }
            unit += 1;

            for r in &receipts {
                gates.check(r.is_success(), || {
                    format!("window {w} reverted: {:?}", r.status)
                });
                print.receipt(r);
            }
            if let Some(pre) = pre {
                check_window(&eco, &pre, window, &processed, &mut gates);
                if let Some((best, original)) = processed.gain {
                    profit_gwei += best.signed_sub(original).gwei();
                }
            }
        }
        timings.end_pass(0.0);
        print.bytes(eco.state.state_root().as_bytes());
        match first {
            None => first = Some(print),
            Some(f) => gates.check(f == print, || "passes diverged".into()),
        }
    }

    let mut out = Outcome {
        gates,
        fingerprint: first.expect("at least one pass"),
        ..Outcome::default()
    };
    let timed = timings.total_secs();
    let windows = timings.passes() * timings.units();
    let n = windows as f64;
    if opts.traced {
        let l = &layers;
        out.metric("txs_per_s", timings.txs_per_s(), "1/s");
        l.ops.report(&mut out, windows);
        out.metric("core.assess_us", l.assess * 1e6 / n, "us");
        out.metric(
            "mdp.step_us",
            l.env.step * 1e6 / l.env.steps.max(1) as f64,
            "us",
        );
        out.metric("mdp.steps_per_window", l.env.steps as f64 / n, "count");
        // Building the environment evaluates the collected order once,
        // which counts as the window's first reset.
        let resets = (l.env.resets as f64 + n).max(1.0);
        out.metric(
            "mdp.reset_us",
            (l.env.reset + l.build_env) * 1e6 / resets,
            "us",
        );
        out.metric(
            "drl.update_ms_per_window",
            (l.train - l.train_env) * 1e3 / n,
            "ms",
        );
        out.metric("gentranseq.infer_ms", l.infer * 1e3 / n, "ms");
        let attributed =
            l.assess + l.build_env + l.train + l.infer + l.ops.total_secs() + l.advance;
        let share = unattributed(timed, attributed);
        out.metric("unattributed_share", share, "share");
        out.gates.check(share <= UNATTRIBUTED_BOUND, || {
            format!("unattributed share {share:.4} exceeds {UNATTRIBUTED_BOUND}")
        });
    } else {
        timings.report(&mut out, setup_median(setups, || setup(cfg, seed)));
    }
    // Search quality, exact per seed: printed by the untraced run too, so a
    // faster but weaker search shows next to its throughput.
    out.metric(
        "gentranseq.profit_gwei_per_window",
        profit_gwei as f64 / cfg.windows as f64,
        "gwei",
    );
    out
}
