//! Seeded input generators. Every input the benchmark feeds the program is
//! a pure function of the workload configuration and `--seed`, and lives
//! here — edits to the repository's own traffic harnesses cannot change
//! what the benchmark measures.
//!
//! Both schedules are *order-independent within a block (round)*: every
//! `(collection, token)` is touched at most once per block, a token minted
//! or listed in block `b` is only used again from block `b + 1` on, and
//! listed tokens are never transferred or burned. Any fee-priority
//! permutation of a block therefore executes with zero reverts.

use parole_crypto::Wallet;
use parole_mempool::ZipfSampler;
use parole_ovm::{NftTransaction, TxKind};
use parole_primitives::{Address, FeeBundle, TokenId, TxNonce, Wei};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Dimensions of the `market_sustained` world and schedule.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Funded accounts.
    pub accounts: usize,
    /// Deployed collections.
    pub collections: usize,
    /// Max supply per collection.
    pub tokens_per_collection: u64,
    /// Blocks per pass, the first of which is an untimed warm-up.
    pub blocks: usize,
    /// Transactions generated per block (fewer when a roll finds nothing
    /// to act on).
    pub txs_per_block: usize,
    /// Zipf skew of the acting account.
    pub sender_alpha: f64,
    /// Zipf skew of the collection.
    pub collection_alpha: f64,
    /// Standing zero-tip transactions admitted at set-up and never sealed.
    pub backlog: usize,
}

impl MarketConfig {
    /// The benchmark's size: 10⁵ accounts, a 2·10⁴ standing backlog.
    pub fn full() -> Self {
        MarketConfig {
            accounts: 100_000,
            collections: 512,
            tokens_per_collection: 1_024,
            blocks: 1_001,
            txs_per_block: 200,
            sender_alpha: 1.1,
            collection_alpha: 1.1,
            backlog: 20_000,
        }
    }

    /// Smoke-test size.
    pub fn tiny() -> Self {
        MarketConfig {
            accounts: 400,
            collections: 8,
            tokens_per_collection: 64,
            blocks: 8,
            txs_per_block: 40,
            sender_alpha: 1.2,
            collection_alpha: 1.0,
            backlog: 300,
        }
    }

    /// Address of funded account `idx`.
    pub fn account(&self, idx: usize) -> Address {
        Address::from_low_u64(idx as u64 + 1)
    }

    /// Deterministic deployment address of collection `c`.
    pub fn collection(&self, c: usize) -> Address {
        Address::from_low_u64(0x5000_0000 + c as u64)
    }
}

/// The generator's view of one collection.
#[derive(Default)]
struct CollModel {
    next_token: u64,
    /// `(token, owner)` of every active unlisted token.
    active: Vec<(u64, usize)>,
    /// `(token, seller)` of every open listing.
    listed: Vec<(u64, usize)>,
}

/// Up to 8 random probes into `len` slots for a token not yet touched this
/// block; `token_of` maps a slot to its token id.
fn pick_untouched(
    rng: &mut StdRng,
    len: usize,
    c: usize,
    used: &HashSet<(usize, u64)>,
    token_of: impl Fn(usize) -> u64,
) -> Option<usize> {
    if len == 0 {
        return None;
    }
    (0..8)
        .map(|_| rng.gen_range(0..len))
        .find(|&slot| !used.contains(&(c, token_of(slot))))
}

/// The six-op marketplace schedule: mint 25%, list 20%, buy 25%,
/// cancel 10%, transfer 15%, burn 5% per roll, Zipf-skewed over accounts
/// and collections, unsigned, tips of 1–10 gwei.
pub fn market_schedule(cfg: &MarketConfig, seed: u64) -> Vec<Vec<NftTransaction>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d4b_5450);
    let senders = ZipfSampler::new(cfg.accounts, cfg.sender_alpha);
    let colls = ZipfSampler::new(cfg.collections, cfg.collection_alpha);
    let mut models: Vec<CollModel> = (0..cfg.collections).map(|_| CollModel::default()).collect();
    let other = |actor: usize, owner: usize| {
        if owner == actor {
            (actor + 1) % cfg.accounts
        } else {
            actor
        }
    };

    let mut blocks = Vec::with_capacity(cfg.blocks);
    for _ in 0..cfg.blocks {
        let mut txs = Vec::with_capacity(cfg.txs_per_block);
        let mut used: HashSet<(usize, u64)> = HashSet::new();
        // Role changes take effect from the next block on.
        let mut minted: Vec<(usize, u64, usize)> = Vec::new();
        let mut listed: Vec<(usize, u64, usize)> = Vec::new();
        let mut unlisted: Vec<(usize, u64, usize)> = Vec::new();
        for _ in 0..cfg.txs_per_block {
            let c = colls.sample(&mut rng);
            let actor = senders.sample(&mut rng);
            let fees = FeeBundle::from_gwei(10_000, rng.gen_range(1..=10));
            let roll = rng.gen_range(0u32..20);
            let collection = cfg.collection(c);
            let model = &mut models[c];
            let kind = if roll < 5 && model.next_token < cfg.tokens_per_collection {
                let token = model.next_token;
                model.next_token += 1;
                used.insert((c, token));
                minted.push((c, token, actor));
                Some((
                    actor,
                    TxKind::Mint {
                        collection,
                        token: TokenId::new(token),
                    },
                ))
            } else if roll < 9 {
                let active = &model.active;
                pick_untouched(&mut rng, active.len(), c, &used, |s| active[s].0).map(|slot| {
                    let (token, owner) = model.active.swap_remove(slot);
                    let price = Wei::from_milli_eth(rng.gen_range(10..=50u64));
                    used.insert((c, token));
                    listed.push((c, token, owner));
                    (
                        owner,
                        TxKind::List {
                            collection,
                            token: TokenId::new(token),
                            price,
                        },
                    )
                })
            } else if roll < 14 {
                let book = &model.listed;
                pick_untouched(&mut rng, book.len(), c, &used, |s| book[s].0).map(|slot| {
                    let (token, seller) = model.listed.swap_remove(slot);
                    let buyer = other(actor, seller);
                    used.insert((c, token));
                    unlisted.push((c, token, buyer));
                    (
                        buyer,
                        TxKind::Buy {
                            collection,
                            token: TokenId::new(token),
                        },
                    )
                })
            } else if roll < 16 {
                let book = &model.listed;
                pick_untouched(&mut rng, book.len(), c, &used, |s| book[s].0).map(|slot| {
                    let (token, seller) = model.listed.swap_remove(slot);
                    used.insert((c, token));
                    unlisted.push((c, token, seller));
                    (
                        seller,
                        TxKind::CancelListing {
                            collection,
                            token: TokenId::new(token),
                        },
                    )
                })
            } else if roll < 19 {
                let active = &model.active;
                pick_untouched(&mut rng, active.len(), c, &used, |s| active[s].0).map(|slot| {
                    let (token, owner) = model.active[slot];
                    let buyer = other(actor, owner);
                    used.insert((c, token));
                    model.active[slot].1 = buyer;
                    let to = cfg.account(buyer);
                    (
                        owner,
                        TxKind::Transfer {
                            collection,
                            token: TokenId::new(token),
                            to,
                        },
                    )
                })
            } else {
                let active = &model.active;
                pick_untouched(&mut rng, active.len(), c, &used, |s| active[s].0).map(|slot| {
                    let (token, owner) = model.active.swap_remove(slot);
                    used.insert((c, token));
                    (
                        owner,
                        TxKind::Burn {
                            collection,
                            token: TokenId::new(token),
                        },
                    )
                })
            };
            if let Some((sender, kind)) = kind {
                txs.push(NftTransaction::with_fees(cfg.account(sender), kind, fees));
            }
        }
        for (c, token, owner) in minted {
            models[c].active.push((token, owner));
        }
        for (c, token, seller) in listed {
            models[c].listed.push((token, seller));
        }
        for (c, token, owner) in unlisted {
            models[c].active.push((token, owner));
        }
        blocks.push(txs);
    }
    blocks
}

/// The standing backlog: includable zero-tip transfers from a reserved
/// sender range. Every scheduled transaction tips at least 1 gwei, so with
/// each block's gas limit sized to its own demand the backlog is carried
/// by the pool for the whole run and never sealed.
pub fn market_backlog(cfg: &MarketConfig) -> Vec<NftTransaction> {
    (0..cfg.backlog)
        .map(|i| {
            NftTransaction::with_fees(
                Address::from_low_u64(0x7000_0000 + i as u64),
                TxKind::Transfer {
                    collection: cfg.collection(i % cfg.collections),
                    token: TokenId::new(i as u64),
                    to: Address::from_low_u64(0x7100_0000 + i as u64),
                },
                FeeBundle::from_gwei(10_000, 0),
            )
        })
        .collect()
}

/// Dimensions of the `rollup_signed` world and rounds.
#[derive(Debug, Clone)]
pub struct SignedConfig {
    /// Signing wallets (each funded at set-up).
    pub wallets: usize,
    /// Deployed collections.
    pub collections: usize,
    /// Max supply per collection (large enough that a mint always fits).
    pub supply: u64,
    /// Transactions per round; a power of two, so a forged step is
    /// isolated in exactly `log2(window)` bisection rounds.
    pub window: usize,
    /// Rounds per pass.
    pub rounds: usize,
    /// Every `forge_every`-th round posts a forged batch.
    pub forge_every: usize,
}

impl SignedConfig {
    /// The benchmark's size.
    pub fn full() -> Self {
        SignedConfig {
            wallets: 256,
            collections: 4,
            supply: 100_000,
            window: 8,
            rounds: 24,
            forge_every: 4,
        }
    }

    /// Smoke-test size.
    pub fn tiny() -> Self {
        SignedConfig {
            wallets: 8,
            collections: 2,
            supply: 1_000,
            window: 4,
            rounds: 4,
            forge_every: 2,
        }
    }

    /// Deterministic deployment address of collection `c`.
    pub fn collection(&self, c: usize) -> Address {
        Address::from_low_u64(0x6000_0000 + c as u64)
    }
}

/// One round of signed traffic.
#[derive(Debug, Clone)]
pub struct SignedRound {
    /// Exactly `window` signed transactions.
    pub txs: Vec<NftTransaction>,
    /// For a forged round, the step after which the forging aggregator
    /// smuggles an unearned credit into its claimed trace.
    pub forged_step: Option<usize>,
}

/// The signing wallets for `seed`.
pub fn signed_wallets(cfg: &SignedConfig, seed: u64) -> Vec<Wallet> {
    let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..cfg.wallets as u64)
        .map(|i| Wallet::from_seed(base ^ (i + 1)))
        .collect()
}

/// Signed mint/transfer/burn rounds (40/45/15 per roll). A forged round's
/// transactions are rolled back by the fraud proof, so they are drawn from
/// a scratch copy of the model and never become part of later rounds'
/// history.
pub fn signed_rounds(cfg: &SignedConfig, wallets: &[Wallet], seed: u64) -> Vec<SignedRound> {
    assert!(
        cfg.window.is_power_of_two(),
        "window must be a power of two"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5349_474e);
    let mut nonces = vec![0u64; wallets.len()];
    let mut models: Vec<CollModel> = (0..cfg.collections).map(|_| CollModel::default()).collect();

    let mut rounds = Vec::with_capacity(cfg.rounds);
    for r in 0..cfg.rounds {
        let forged = (r + 1) % cfg.forge_every == 0;
        let mut scratch: Vec<CollModel>;
        let view: &mut Vec<CollModel> = if forged {
            scratch = models
                .iter()
                .map(|m| CollModel {
                    next_token: m.next_token,
                    active: m.active.clone(),
                    listed: Vec::new(),
                })
                .collect();
            &mut scratch
        } else {
            &mut models
        };
        let mut used: HashSet<(usize, u64)> = HashSet::new();
        let mut minted: Vec<(usize, u64, usize)> = Vec::new();
        let mut txs = Vec::with_capacity(cfg.window);
        while txs.len() < cfg.window {
            let c = rng.gen_range(0..cfg.collections);
            let actor = rng.gen_range(0..wallets.len());
            let fees = FeeBundle::from_gwei(100, rng.gen_range(1..=10));
            let roll = rng.gen_range(0u32..20);
            let collection = cfg.collection(c);
            let model = &mut view[c];
            let active = &model.active;
            let probe = pick_untouched(&mut rng, active.len(), c, &used, |s| active[s].0);
            let (signer, kind) = match probe {
                Some(slot) if (8..17).contains(&roll) => {
                    let (token, owner) = model.active[slot];
                    let buyer = if owner == actor {
                        (actor + 1) % wallets.len()
                    } else {
                        actor
                    };
                    model.active[slot].1 = buyer;
                    let to = wallets[buyer].address();
                    (
                        owner,
                        TxKind::Transfer {
                            collection,
                            token: TokenId::new(token),
                            to,
                        },
                    )
                }
                Some(slot) if roll >= 17 => {
                    let (token, owner) = model.active.swap_remove(slot);
                    (
                        owner,
                        TxKind::Burn {
                            collection,
                            token: TokenId::new(token),
                        },
                    )
                }
                // Mints (and rolls that found nothing to move) mint a fresh
                // token: the supply never runs out, so every round is full.
                _ => {
                    let token = model.next_token;
                    model.next_token += 1;
                    minted.push((c, token, actor));
                    (
                        actor,
                        TxKind::Mint {
                            collection,
                            token: TokenId::new(token),
                        },
                    )
                }
            };
            if let Some(token) = kind.token() {
                used.insert((c, token.value()));
            }
            let nonce = TxNonce::new(nonces[signer]);
            nonces[signer] += 1;
            txs.push(NftTransaction::signed(&wallets[signer], kind, fees, nonce));
        }
        for (c, token, owner) in minted {
            view[c].active.push((token, owner));
        }
        rounds.push(SignedRound {
            txs,
            forged_step: forged.then(|| rng.gen_range(0..cfg.window)),
        });
    }
    rounds
}
