//! Criterion micro-benchmarks of the reproduction's hot kernels: the
//! cryptographic substrate, OVM sequence execution, mempool ordering and the
//! DQN forward/backward passes.

use criterion::{criterion_group, BenchmarkId, Criterion};
use parole_bench::economy::Economy;
use parole_crypto::{keccak256, MerkleTree};
use parole_drl::Mlp;
use parole_mempool::BedrockMempool;
use parole_ovm::Ovm;
use parole_primitives::Wei;
use std::hint::black_box;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let payload = vec![0xA5u8; 256];
    group.bench_function("keccak256_256B", |b| {
        b.iter(|| keccak256(black_box(&payload)))
    });
    let leaves: Vec<_> = (0..256u64).map(|i| keccak256(&i.to_be_bytes())).collect();
    group.bench_function("merkle_256_leaves", |b| {
        b.iter(|| MerkleTree::from_leaves(black_box(leaves.clone())).root())
    });
    let tree = MerkleTree::from_leaves(leaves.clone());
    let proof = tree.prove(100).unwrap();
    group.bench_function("merkle_verify", |b| {
        b.iter(|| black_box(&proof).verify(leaves[100], tree.root()))
    });
    group.finish();
}

fn bench_ecdsa(c: &mut Criterion) {
    use parole_crypto::secp256k1::SecretKey;

    let mut group = c.benchmark_group("ecdsa");
    let sk = SecretKey::from_seed(7);
    let pk = sk.public_key();
    let digest = keccak256(b"kernel bench").into_bytes();
    let sig = sk.sign(&digest);
    group.bench_function("sign", |b| b.iter(|| sk.sign(black_box(&digest))));
    group.bench_function("verify", |b| {
        b.iter(|| assert!(pk.verify(black_box(&digest), black_box(&sig))))
    });
    group.finish();
}

fn bench_ovm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ovm");
    for n in [10usize, 50] {
        let economy = Economy::build(n, 1, 1);
        let window = economy.window(n, 1);
        let ovm = Ovm::new();
        group.bench_with_input(BenchmarkId::new("simulate_sequence", n), &n, |b, _| {
            b.iter(|| ovm.simulate_sequence(black_box(&economy.state), black_box(&window)))
        });
        group.bench_with_input(BenchmarkId::new("state_root", n), &n, |b, _| {
            b.iter(|| black_box(&economy.state).state_root())
        });
    }
    group.finish();
}

fn bench_state_root(c: &mut Criterion) {
    use parole_nft::CollectionConfig;
    use parole_primitives::{Address, TokenId};
    use parole_state::L2State;

    let mut group = c.benchmark_group("state_root");
    // Full rebuild vs the dirty-tracked incremental flush, across world
    // sizes (10^2..10^5 accounts) and dirty-set sizes (1 and 64 records).
    for n in [100usize, 1_000, 10_000, 100_000] {
        let mut state = L2State::new();
        for i in 0..n as u64 {
            state.credit(Address::from_low_u64(i + 1), Wei::from_gwei(i + 1));
        }
        for k in 0..16u64 {
            let coll = state.deploy_collection(CollectionConfig::limited_edition("BR", 64, 100));
            for t in 0..8u64 {
                state
                    .nft_mint(
                        coll,
                        Address::from_low_u64((k * 8 + t) % n as u64 + 1),
                        TokenId::new(t),
                    )
                    .unwrap()
                    .unwrap();
            }
        }

        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| black_box(&state).state_root_naive())
        });

        for dirty in [1usize, 64] {
            let mut warm = state.clone();
            let _ = warm.state_root(); // materialize the cache
            group.bench_with_input(
                BenchmarkId::new(format!("incremental_dirty{dirty}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        for d in 0..dirty as u64 {
                            warm.credit(Address::from_low_u64(d % n as u64 + 1), Wei::from_wei(1));
                        }
                        black_box(warm.state_root())
                    })
                },
            );
            report_keccak_per_flush(&mut warm, n, dirty);
        }
    }
    group.finish();
}

/// Telemetry-armed companion readout for the incremental state-root bench:
/// the distribution of keccak invocations each flush actually performs, the
/// quantity the wall-clock numbers above are a proxy for.
#[cfg(feature = "telemetry")]
fn report_keccak_per_flush(warm: &mut parole_state::L2State, n: usize, dirty: usize) {
    use parole_primitives::Address;
    use parole_telemetry as tel;

    tel::reset();
    for round in 0..50u64 {
        for d in 0..dirty as u64 {
            warm.credit(
                Address::from_low_u64((round * dirty as u64 + d) % n as u64 + 1),
                Wei::from_wei(1),
            );
        }
        black_box(warm.state_root());
    }
    let snap = tel::snapshot();
    if let Some(h) = snap.histogram("state.keccak_per_root") {
        println!(
            "state_root/incremental_dirty{dirty}/{n}: keccak per flush min {} max {} mean {:.1} over {} flushes",
            h.min,
            h.max,
            h.mean(),
            h.count
        );
    }
    tel::reset();
}

#[cfg(not(feature = "telemetry"))]
fn report_keccak_per_flush(_warm: &mut parole_state::L2State, _n: usize, _dirty: usize) {}

fn bench_nft_flush(c: &mut Criterion) {
    use parole_nft::CollectionConfig;
    use parole_primitives::{Address, TokenId};
    use parole_state::L2State;

    let mut group = c.benchmark_group("nft_flush");
    // Single token op in a collection with n active tokens: the retired
    // flat commitment re-absorbed the entire ownership list into one leaf
    // preimage (O(n) hashing per op); the hierarchical pipeline re-hashes
    // one 52-byte token leaf plus O(log n) sub-tree nodes and the 80-byte
    // collection header.
    for n in [1_000usize, 10_000, 100_000] {
        let mut state = L2State::new();
        for i in 0..64u64 {
            state.credit(Address::from_low_u64(i + 1), Wei::from_gwei(i + 1));
        }
        let coll_addr =
            state.deploy_collection(CollectionConfig::limited_edition("NF", n as u64, 100));
        for t in 0..n as u64 {
            state
                .nft_mint(
                    coll_addr,
                    Address::from_low_u64(t % 64 + 1),
                    TokenId::new(t),
                )
                .unwrap()
                .unwrap();
        }

        // Flat baseline, reimplemented locally: the pre-hierarchy
        // `coll_leaf` preimage ("coll" ‖ addr ‖ supplies ‖ (token ‖ owner)*)
        // every token op used to re-hash in full.
        let coll = state.collection(coll_addr).unwrap().clone();
        group.bench_with_input(BenchmarkId::new("flat_rehash", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = Vec::with_capacity(48 + coll.active_supply() as usize * 28);
                buf.extend_from_slice(b"coll");
                buf.extend_from_slice(coll_addr.as_bytes());
                buf.extend_from_slice(&coll.remaining_supply().to_be_bytes());
                buf.extend_from_slice(&coll.active_supply().to_be_bytes());
                for (token, owner) in coll.iter() {
                    buf.extend_from_slice(&token.value().to_be_bytes());
                    buf.extend_from_slice(owner.as_bytes());
                }
                black_box(keccak256(&buf))
            })
        });

        // Hierarchical path: one real transfer plus the incremental flush.
        let mut warm = state.clone();
        let _ = warm.state_root(); // materialize the two-level cache
        let mut t = 0u64;
        group.bench_with_input(BenchmarkId::new("hierarchical_token_op", n), &n, |b, _| {
            b.iter(|| {
                t = (t + 1) % n as u64;
                let token = TokenId::new(t);
                let owner = warm.collection(coll_addr).unwrap().owner_of(token).unwrap();
                let to = if owner == Address::from_low_u64(1) {
                    Address::from_low_u64(2)
                } else {
                    Address::from_low_u64(1)
                };
                warm.nft_transfer(coll_addr, owner, to, token)
                    .unwrap()
                    .unwrap();
                black_box(warm.state_root())
            })
        });
    }
    group.finish();
}

fn bench_mempool(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool");
    let economy = Economy::build(100, 1, 2);
    let txs = economy.window(100, 2);
    group.bench_function("collect_100_of_100", |b| {
        b.iter(|| {
            let mut pool = BedrockMempool::new(Wei::from_gwei(1));
            pool.submit_all(txs.iter().copied());
            black_box(pool.collect(100))
        })
    });
    group.finish();
}

fn bench_calldata(c: &mut Criterion) {
    use parole_primitives::{AggregatorId, Hash32};
    use parole_rollup::{calldata, Batch, StateCommitment};

    let economy = Economy::build(50, 1, 3);
    let txs = economy.window(50, 3);
    let batch = Batch {
        aggregator: AggregatorId::new(0),
        commitment: StateCommitment {
            pre_state_root: Hash32::ZERO,
            post_state_root: Hash32::ZERO,
            tx_root: Batch::compute_tx_root(&txs),
        },
        txs,
        receipts: vec![],
    };
    let mut group = c.benchmark_group("calldata");
    group.bench_function("encode_compress_50tx", |b| {
        b.iter(|| calldata::compress(&calldata::encode_batch(black_box(&batch))))
    });
    group.bench_function("posting_cost_50tx", |b| {
        b.iter(|| calldata::batch_posting_cost(black_box(&batch)))
    });
    group.finish();
}

fn bench_reorder_env(c: &mut Criterion) {
    use parole::{ActionSpace, EvalConfig, ReorderEnv, RewardConfig};
    use parole_drl::Environment;

    let mut group = c.benchmark_group("reorder_env");
    // The GENTRANSEQ training hot loop is step() — swap two positions,
    // re-evaluate the window. Naive evaluation clones the world and replays
    // all N slots; the prefix-cached path replays only the diverged suffix
    // and never copies state the window doesn't touch — hence the rich
    // background state.
    for n in [10usize, 20] {
        let economy = Economy::build(n, 1, 1).with_background(10_000, 16);
        let window = economy.window(n, 1);
        for (label, eval) in [
            ("step_naive", EvalConfig::naive()),
            ("step_cached", EvalConfig::default()),
        ] {
            let mut env = ReorderEnv::with_eval_config(
                economy.state.clone(),
                window.clone(),
                economy.ifus.clone(),
                RewardConfig::default(),
                ActionSpace::AllPairs,
                eval,
            );
            env.reset();
            let actions = env.action_count();
            let mut a = 0usize;
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    a = (a + 7) % actions;
                    black_box(env.step(a))
                })
            });
        }
    }
    group.finish();
}

fn bench_parallel_exec(c: &mut Criterion) {
    use parole_nft::CollectionConfig;
    use parole_ovm::{NftTransaction, ParallelExecutor, TxKind};
    use parole_primitives::{Address, TokenId};
    use parole_state::L2State;

    let mut group = c.benchmark_group("parallel_exec");
    // Conflict-sparse block: distinct senders, tokens and recipients, so
    // every speculation validates. Serial `execute_sequence` is the
    // baseline the OCC scheduler must stay bit-identical to.
    let n = 256usize;
    let mut base = L2State::new();
    let coll = base.deploy_collection(CollectionConfig::limited_edition("PE", 2 * n as u64, 100));
    let txs: Vec<NftTransaction> = (0..n as u64)
        .map(|i| {
            let sender = Address::from_low_u64(1 + i);
            let recipient = Address::from_low_u64(1_000_000 + i);
            base.credit(sender, Wei::from_eth(1));
            base.credit(recipient, Wei::from_eth(10));
            base.nft_mint(coll, sender, TokenId::new(i))
                .unwrap()
                .unwrap();
            NftTransaction::simple(
                sender,
                TxKind::Transfer {
                    collection: coll,
                    token: TokenId::new(i),
                    to: recipient,
                },
            )
        })
        .collect();

    let ovm = Ovm::new();
    group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
        b.iter(|| {
            let mut state = base.clone();
            black_box(ovm.execute_sequence(&mut state, black_box(&txs)))
        })
    });
    for threads in [1usize, 2, 4] {
        let executor = ParallelExecutor::with_threads(ovm.clone(), threads);
        group.bench_with_input(BenchmarkId::new("occ", threads), &threads, |b, _| {
            b.iter(|| {
                let mut state = base.clone();
                black_box(executor.execute_block(&mut state, black_box(&txs)))
            })
        });
    }
    group.finish();
}

fn bench_traffic(c: &mut Criterion) {
    use parole_bench::traffic::{generate_blocks, run_traffic, PoolVariant, TrafficConfig};
    use parole_mempool::ExecMode;
    use parole_primitives::StorageBackend;

    let mut group = c.benchmark_group("traffic");
    // One iteration is a whole (small) sustained-traffic run — world build,
    // standing backlog, warm-up block and timed blocks — so keep the
    // dimensions modest and the sample count low.
    group.sample_size(10);
    let mut cfg = TrafficConfig::fast();
    cfg.accounts = 2_000;
    cfg.blocks = 6;
    cfg.backlog = 2_000;
    let schedule = generate_blocks(&cfg);
    for (name, variant) in [
        ("arena_indexed", PoolVariant::Indexed),
        ("btree_legacy_sort", PoolVariant::LegacyFullSort),
    ] {
        let backend = match variant {
            PoolVariant::Indexed => StorageBackend::Arena,
            PoolVariant::LegacyFullSort => StorageBackend::BTree,
        };
        group.bench_with_input(
            BenchmarkId::new("seal_pipeline", name),
            &variant,
            |b, &v| {
                b.iter(|| {
                    let run = run_traffic(&cfg, &schedule, backend, v, ExecMode::Serial);
                    assert!(run.root_matches_naive);
                    black_box(run.blocks_per_sec)
                })
            },
        );
    }
    group.finish();
}

fn bench_dqn(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqn");
    // The paper-shaped network for a mempool of 50: 400 inputs, C(50,2)
    // outputs.
    let mut net = Mlp::new(&[400, 128, 128, 1225], 1);
    let obs = vec![0.3f64; 400];
    group.bench_function("forward_n50", |b| b.iter(|| net.forward(black_box(&obs))));
    let target = net.forward(&obs);
    group.bench_function("backward_n50", |b| {
        b.iter(|| net.backward(black_box(&obs), black_box(&target)))
    });
    group.finish();
}

criterion_group!(
    name = kernels;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_crypto, bench_ecdsa, bench_ovm, bench_state_root, bench_nft_flush, bench_mempool, bench_calldata, bench_reorder_env, bench_parallel_exec, bench_traffic, bench_dqn
);
// Hand-rolled `criterion_main!`: identical dispatch, plus the telemetry
// panic hook so an assertion inside a benchmark still dumps the armed
// metrics snapshot.
fn main() {
    parole_telemetry::install_panic_hook();
    kernels();
}
