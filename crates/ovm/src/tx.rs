//! The NFT transaction model.

use parole_crypto::secp256k1::{PublicKey, Signature};
use parole_crypto::{keccak256, Hash32, Wallet};
use parole_primitives::{Address, FeeBundle, TokenId, TxNonce, Wei};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The operation a transaction performs — the paper's three NFT transaction
/// types (`M_k^{i,t}`, `T_{k,j}^{i,t}`, `D_k^{i,t}`), the ERC-721 approval
/// operations, and the marketplace listing-book operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxKind {
    /// Mint `token` from `collection` to the sender, paying the current
    /// bonding-curve price to the collection creator.
    Mint {
        /// Collection contract address.
        collection: Address,
        /// Token identifier to mint.
        token: TokenId,
    },
    /// Sell `token` to `to`: ownership moves sender → `to`, and `to` pays the
    /// current bonding-curve price to the sender.
    Transfer {
        /// Collection contract address.
        collection: Address,
        /// Token identifier to transfer.
        token: TokenId,
        /// The buyer receiving the token and paying the price.
        to: Address,
    },
    /// Destroy `token`, returning one unit of mintable supply.
    Burn {
        /// Collection contract address.
        collection: Address,
        /// Token identifier to burn.
        token: TokenId,
    },
    /// Approve `operator` to move `token` (ERC-721 `approve`; a zero
    /// operator clears the approval).
    Approve {
        /// Collection contract address.
        collection: Address,
        /// Token identifier the approval covers.
        token: TokenId,
        /// The operator being approved ([`Address::ZERO`] clears).
        operator: Address,
    },
    /// Grant or revoke `operator`'s blanket right to move any of the
    /// sender's tokens in `collection` (ERC-721 `setApprovalForAll`).
    SetApprovalForAll {
        /// Collection contract address.
        collection: Address,
        /// The operator the grant applies to.
        operator: Address,
        /// `true` grants, `false` revokes.
        approved: bool,
    },
    /// Post `token` on the marketplace at an ask `price` (the sender must
    /// own the token). The listing rides in the token's state leaf.
    List {
        /// Collection contract address.
        collection: Address,
        /// Token identifier being listed.
        token: TokenId,
        /// Ask price in wei (must be non-zero).
        price: Wei,
    },
    /// Withdraw `token`'s marketplace listing (current owner only; a new
    /// owner may clear a stale listing left by the previous owner).
    CancelListing {
        /// Collection contract address.
        collection: Address,
        /// Token identifier whose listing is withdrawn.
        token: TokenId,
    },
    /// Take `token`'s fresh listing at its ask price: the sender pays the
    /// ask, which splits into the seller's cut plus the creator royalty
    /// stamped on the token at mint.
    Buy {
        /// Collection contract address.
        collection: Address,
        /// Token identifier being bought.
        token: TokenId,
    },
}

impl TxKind {
    /// The collection this operation touches.
    pub fn collection(&self) -> Address {
        match self {
            TxKind::Mint { collection, .. }
            | TxKind::Transfer { collection, .. }
            | TxKind::Burn { collection, .. }
            | TxKind::Approve { collection, .. }
            | TxKind::SetApprovalForAll { collection, .. }
            | TxKind::List { collection, .. }
            | TxKind::CancelListing { collection, .. }
            | TxKind::Buy { collection, .. } => *collection,
        }
    }

    /// The token this operation touches, if it names one (blanket operator
    /// approvals are per-owner, not per-token).
    pub fn token(&self) -> Option<TokenId> {
        match self {
            TxKind::Mint { token, .. }
            | TxKind::Transfer { token, .. }
            | TxKind::Burn { token, .. }
            | TxKind::Approve { token, .. }
            | TxKind::List { token, .. }
            | TxKind::CancelListing { token, .. }
            | TxKind::Buy { token, .. } => Some(*token),
            TxKind::SetApprovalForAll { .. } => None,
        }
    }

    /// The account this operation names as a transfer recipient, if any
    /// (the buyer of a plain transfer; a `Buy`'s counterparty — the seller
    /// — is state-dependent and not named in the transaction).
    pub fn recipient(&self) -> Option<Address> {
        match self {
            TxKind::Transfer { to, .. } => Some(*to),
            _ => None,
        }
    }

    /// Short label for displays and feature encodings (from the
    /// operation's [`crate::OpSpec`]).
    pub fn label(&self) -> &'static str {
        self.spec().label
    }

    /// Appends the operation's wire fields — collection address plus the
    /// per-kind payload — to `out`. The shared field codec: the signed tx
    /// encoding and the L1 calldata batch encoding both emit
    /// `spec().wire_tag` followed by exactly these bytes, and
    /// [`TxKind::decode_fields`] is its exact inverse.
    pub fn encode_fields(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.collection().as_bytes());
        match self {
            TxKind::Mint { token, .. }
            | TxKind::Burn { token, .. }
            | TxKind::CancelListing { token, .. }
            | TxKind::Buy { token, .. } => {
                out.extend_from_slice(&token.value().to_be_bytes());
            }
            TxKind::Transfer { token, to, .. } => {
                out.extend_from_slice(&token.value().to_be_bytes());
                out.extend_from_slice(to.as_bytes());
            }
            TxKind::Approve {
                token, operator, ..
            } => {
                out.extend_from_slice(&token.value().to_be_bytes());
                out.extend_from_slice(operator.as_bytes());
            }
            TxKind::SetApprovalForAll {
                operator, approved, ..
            } => {
                out.extend_from_slice(operator.as_bytes());
                out.push(*approved as u8);
            }
            TxKind::List { token, price, .. } => {
                out.extend_from_slice(&token.value().to_be_bytes());
                out.extend_from_slice(&price.wei().to_be_bytes());
            }
        }
    }

    /// Decodes the wire fields of an operation with the given `tag` from
    /// the front of `bytes`, returning the kind and the number of bytes
    /// consumed. `None` for unknown tags or truncated input.
    pub fn decode_fields(tag: u8, bytes: &[u8]) -> Option<(TxKind, usize)> {
        fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
            let slice = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(slice)
        }
        fn address(bytes: &[u8], pos: &mut usize) -> Option<Address> {
            let mut a = [0u8; 20];
            a.copy_from_slice(take(bytes, pos, 20)?);
            Some(Address::from_bytes(a))
        }
        fn token(bytes: &[u8], pos: &mut usize) -> Option<TokenId> {
            let mut t = [0u8; 8];
            t.copy_from_slice(take(bytes, pos, 8)?);
            Some(TokenId::new(u64::from_be_bytes(t)))
        }
        let mut pos = 0usize;
        let collection = address(bytes, &mut pos)?;
        let kind = match tag {
            0 => TxKind::Mint {
                collection,
                token: token(bytes, &mut pos)?,
            },
            1 => TxKind::Transfer {
                collection,
                token: token(bytes, &mut pos)?,
                to: address(bytes, &mut pos)?,
            },
            2 => TxKind::Burn {
                collection,
                token: token(bytes, &mut pos)?,
            },
            3 => TxKind::Approve {
                collection,
                token: token(bytes, &mut pos)?,
                operator: address(bytes, &mut pos)?,
            },
            4 => {
                let operator = address(bytes, &mut pos)?;
                let approved = match take(bytes, &mut pos, 1)? {
                    [0] => false,
                    [1] => true,
                    _ => return None,
                };
                TxKind::SetApprovalForAll {
                    collection,
                    operator,
                    approved,
                }
            }
            5 => {
                let tok = token(bytes, &mut pos)?;
                let mut p = [0u8; 16];
                p.copy_from_slice(take(bytes, &mut pos, 16)?);
                TxKind::List {
                    collection,
                    token: tok,
                    price: Wei::from_wei(u128::from_be_bytes(p)),
                }
            }
            6 => TxKind::CancelListing {
                collection,
                token: token(bytes, &mut pos)?,
            },
            7 => TxKind::Buy {
                collection,
                token: token(bytes, &mut pos)?,
            },
            _ => return None,
        };
        Some((kind, pos))
    }
}

/// Signature material attached to a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxAuth {
    /// The sender's public key (the simulated chain resolves addresses from
    /// keys directly rather than using signature recovery).
    pub public_key: PublicKey,
    /// ECDSA signature over [`NftTransaction::signing_digest`].
    pub signature: Signature,
}

/// A signed (or simulation-unsigned) NFT transaction.
///
/// Large-scale experiments construct unsigned transactions via
/// [`NftTransaction::simple`]: a signed transaction pays an ECDSA
/// verification, many times the cost of an unsigned execute, every time it
/// is executed (and verifiers re-execute it several times), without
/// changing any measured quantity. Protocol-level tests use
/// [`NftTransaction::signed`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NftTransaction {
    /// The submitting user (`U_k`).
    pub sender: Address,
    /// The operation.
    pub kind: TxKind,
    /// EIP-1559-style fee parameters (the mempool's only ordering key).
    pub fees: FeeBundle,
    /// Sender nonce (informational in the simulation; the OVM does not
    /// enforce nonce ordering because the attack's whole point is that the
    /// aggregator controls ordering).
    pub nonce: TxNonce,
    /// Optional signature material.
    pub auth: Option<TxAuth>,
}

impl NftTransaction {
    /// Builds an unsigned transaction with default fees.
    pub fn simple(sender: Address, kind: TxKind) -> Self {
        NftTransaction {
            sender,
            kind,
            fees: FeeBundle::from_gwei(30, 2),
            nonce: TxNonce::default(),
            auth: None,
        }
    }

    /// Builds an unsigned transaction with explicit fees.
    pub fn with_fees(sender: Address, kind: TxKind, fees: FeeBundle) -> Self {
        NftTransaction {
            sender,
            kind,
            fees,
            nonce: TxNonce::default(),
            auth: None,
        }
    }

    /// Builds and signs a transaction with `wallet` (whose address becomes
    /// the sender).
    pub fn signed(wallet: &Wallet, kind: TxKind, fees: FeeBundle, nonce: TxNonce) -> Self {
        let mut tx = NftTransaction {
            sender: wallet.address(),
            kind,
            fees,
            nonce,
            auth: None,
        };
        let digest = tx.signing_digest();
        tx.auth = Some(TxAuth {
            public_key: *wallet.public_key(),
            signature: wallet.sign(digest.as_bytes()),
        });
        tx
    }

    /// Deterministic byte encoding of the signed fields: sender, the
    /// operation's wire tag (from its [`crate::OpSpec`]) and field bytes
    /// ([`TxKind::encode_fields`]), then fees and nonce.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(112);
        out.extend_from_slice(self.sender.as_bytes());
        out.push(self.kind.spec().wire_tag);
        self.kind.encode_fields(&mut out);
        out.extend_from_slice(&self.fees.max_fee_per_gas.wei().to_be_bytes());
        out.extend_from_slice(&self.fees.max_priority_fee_per_gas.wei().to_be_bytes());
        out.extend_from_slice(&self.nonce.value().to_be_bytes());
        out
    }

    /// The digest a wallet signs.
    pub fn signing_digest(&self) -> Hash32 {
        keccak256(&self.encode())
    }

    /// The transaction hash (over the encoding; signatures are simulation
    /// metadata and excluded so signed and unsigned copies of the same
    /// logical transaction coincide).
    pub fn tx_hash(&self) -> Hash32 {
        self.signing_digest()
    }

    /// Verifies the attached signature, if any.
    ///
    /// Returns `false` when signature material is present but invalid or the
    /// key does not belong to the sender; `true` for unsigned transactions
    /// (the simulation's permissive mode) and valid signatures.
    pub fn verify_signature(&self) -> bool {
        match &self.auth {
            None => true,
            Some(auth) => {
                let wallet_addr = {
                    let digest = keccak256(&auth.public_key.to_bytes());
                    let mut a = [0u8; 20];
                    a.copy_from_slice(&digest.as_bytes()[12..]);
                    Address::from_bytes(a)
                };
                wallet_addr == self.sender
                    && auth
                        .public_key
                        .verify(self.signing_digest().as_bytes(), &auth.signature)
            }
        }
    }

    /// `true` when `who` is a party to this transaction (sender, or buyer of
    /// a transfer) — the IFU-involvement test of the arbitrage assessment.
    pub fn involves(&self, who: Address) -> bool {
        if self.sender == who {
            return true;
        }
        matches!(self.kind, TxKind::Transfer { to, .. } if to == who)
    }
}

impl fmt::Display for NftTransaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TxKind::Mint { token, .. } => write!(f, "Mint {} by {}", token, self.sender),
            TxKind::Transfer { token, to, .. } => {
                write!(f, "Transfer {}: {} -> {}", token, self.sender, to)
            }
            TxKind::Burn { token, .. } => write!(f, "Burn {} by {}", token, self.sender),
            TxKind::Approve {
                token, operator, ..
            } => write!(f, "Approve {}: {} -> {}", token, self.sender, operator),
            TxKind::SetApprovalForAll {
                operator, approved, ..
            } => {
                let verb = if approved { "grants" } else { "revokes" };
                write!(
                    f,
                    "SetApprovalForAll: {} {} {}",
                    self.sender, verb, operator
                )
            }
            TxKind::List { token, price, .. } => {
                write!(f, "List {} by {} at {}", token, self.sender, price)
            }
            TxKind::CancelListing { token, .. } => {
                write!(f, "CancelListing {} by {}", token, self.sender)
            }
            TxKind::Buy { token, .. } => write!(f, "Buy {} by {}", token, self.sender),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn kind() -> TxKind {
        TxKind::Mint {
            collection: addr(100),
            token: TokenId::new(3),
        }
    }

    #[test]
    fn encoding_distinguishes_kinds() {
        let c = addr(100);
        let t = TokenId::new(1);
        let mint = NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: c,
                token: t,
            },
        );
        let burn = NftTransaction::simple(
            addr(1),
            TxKind::Burn {
                collection: c,
                token: t,
            },
        );
        let xfer = NftTransaction::simple(
            addr(1),
            TxKind::Transfer {
                collection: c,
                token: t,
                to: addr(2),
            },
        );
        assert_ne!(mint.tx_hash(), burn.tx_hash());
        assert_ne!(mint.tx_hash(), xfer.tx_hash());
        assert_ne!(burn.tx_hash(), xfer.tx_hash());
    }

    #[test]
    fn unsigned_txs_verify_permissively() {
        assert!(NftTransaction::simple(addr(1), kind()).verify_signature());
    }

    #[test]
    fn signed_tx_verifies_and_binds_sender() {
        let wallet = Wallet::from_seed(42);
        let tx = NftTransaction::signed(
            &wallet,
            kind(),
            FeeBundle::from_gwei(30, 2),
            TxNonce::new(0),
        );
        assert_eq!(tx.sender, wallet.address());
        assert!(tx.verify_signature());

        // Tampering with the payload breaks verification.
        let mut forged = tx;
        forged.sender = addr(9);
        assert!(!forged.verify_signature());
        let mut bumped = tx;
        bumped.nonce = TxNonce::new(7);
        assert!(!bumped.verify_signature());
    }

    #[test]
    fn involvement_covers_buyer_side() {
        let seller = addr(1);
        let buyer = addr(2);
        let tx = NftTransaction::simple(
            seller,
            TxKind::Transfer {
                collection: addr(100),
                token: TokenId::new(0),
                to: buyer,
            },
        );
        assert!(tx.involves(seller));
        assert!(tx.involves(buyer));
        assert!(!tx.involves(addr(3)));
    }

    #[test]
    fn kind_accessors() {
        let k = kind();
        assert_eq!(k.collection(), addr(100));
        assert_eq!(k.token(), Some(TokenId::new(3)));
        assert_eq!(k.label(), "mint");

        let sfa = TxKind::SetApprovalForAll {
            collection: addr(100),
            operator: addr(9),
            approved: true,
        };
        assert_eq!(sfa.collection(), addr(100));
        assert_eq!(sfa.token(), None);
        assert_eq!(sfa.label(), "set_approval_for_all");
    }

    #[test]
    fn approval_encodings_are_distinct() {
        let c = addr(100);
        let approve = NftTransaction::simple(
            addr(1),
            TxKind::Approve {
                collection: c,
                token: TokenId::new(1),
                operator: addr(9),
            },
        );
        let grant = NftTransaction::simple(
            addr(1),
            TxKind::SetApprovalForAll {
                collection: c,
                operator: addr(9),
                approved: true,
            },
        );
        let revoke = NftTransaction::simple(
            addr(1),
            TxKind::SetApprovalForAll {
                collection: c,
                operator: addr(9),
                approved: false,
            },
        );
        assert_ne!(approve.tx_hash(), grant.tx_hash());
        assert_ne!(grant.tx_hash(), revoke.tx_hash());
    }

    #[test]
    fn display_shapes() {
        let tx = NftTransaction::simple(addr(1), kind());
        assert!(tx.to_string().starts_with("Mint token#3 by"));
        let list = NftTransaction::simple(
            addr(1),
            TxKind::List {
                collection: addr(100),
                token: TokenId::new(3),
                price: Wei::from_milli_eth(500),
            },
        );
        assert!(list.to_string().starts_with("List token#3 by"));
    }

    /// One kind per variant with distinctive field values, for codec tests.
    fn all_kinds() -> Vec<TxKind> {
        let c = addr(100);
        vec![
            TxKind::Mint {
                collection: c,
                token: TokenId::new(7),
            },
            TxKind::Transfer {
                collection: c,
                token: TokenId::new(7),
                to: addr(2),
            },
            TxKind::Burn {
                collection: c,
                token: TokenId::new(7),
            },
            TxKind::Approve {
                collection: c,
                token: TokenId::new(7),
                operator: addr(9),
            },
            TxKind::SetApprovalForAll {
                collection: c,
                operator: addr(9),
                approved: true,
            },
            TxKind::List {
                collection: c,
                token: TokenId::new(7),
                price: Wei::from_wei(123_456_789),
            },
            TxKind::CancelListing {
                collection: c,
                token: TokenId::new(7),
            },
            TxKind::Buy {
                collection: c,
                token: TokenId::new(7),
            },
        ]
    }

    #[test]
    fn field_codec_roundtrips_every_variant() {
        for kind in all_kinds() {
            let mut bytes = Vec::new();
            kind.encode_fields(&mut bytes);
            let (back, used) = TxKind::decode_fields(kind.spec().wire_tag, &bytes)
                .unwrap_or_else(|| panic!("{} must decode", kind.label()));
            assert_eq!(back, kind);
            assert_eq!(used, bytes.len(), "{}: whole payload consumed", kind.label());
            // Truncated input is rejected, not misparsed.
            assert!(TxKind::decode_fields(kind.spec().wire_tag, &bytes[..bytes.len() - 1]).is_none());
        }
        assert!(TxKind::decode_fields(99, &[0u8; 64]).is_none());
    }

    #[test]
    fn marketplace_encodings_are_distinct() {
        let c = addr(100);
        let t = TokenId::new(1);
        let list = NftTransaction::simple(
            addr(1),
            TxKind::List {
                collection: c,
                token: t,
                price: Wei::from_eth(1),
            },
        );
        let relist = NftTransaction::simple(
            addr(1),
            TxKind::List {
                collection: c,
                token: t,
                price: Wei::from_eth(2),
            },
        );
        let cancel = NftTransaction::simple(addr(1), TxKind::CancelListing { collection: c, token: t });
        let buy = NftTransaction::simple(addr(1), TxKind::Buy { collection: c, token: t });
        let burn = NftTransaction::simple(addr(1), TxKind::Burn { collection: c, token: t });
        let hashes = [
            list.tx_hash(),
            relist.tx_hash(),
            cancel.tx_hash(),
            buy.tx_hash(),
            burn.tx_hash(),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
