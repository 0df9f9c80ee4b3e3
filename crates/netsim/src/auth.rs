//! Toy public-key session handshake.
//!
//! The collection tunnel "is done using public-key authentication through
//! an OpenSSH tunnel" (§3.5). We model the *protocol flow* — key exchange,
//! challenge, proof, verification — with a Diffie–Hellman-shaped exchange
//! over a 61-bit Mersenne-prime field and MD5 as the proof MAC.
//!
//! **This is NOT cryptography.** The field is laughably small and MD5 is
//! broken; the module exists so the simulated collector performs the same
//! message round-trips (and failure modes: wrong key → rejected session) as
//! the real pipeline, with deterministic, dependency-free arithmetic.
//!
//! Each side derives the shared secret once per peer key and keeps it
//! (see [`KeyPair::shared_secret`]): a 20-minute collector would
//! otherwise pay two modular exponentiations per host per round for a
//! value that never changes. The nonce and the proof stay per session.

use std::collections::HashMap;

use frostlab_compress::md5::md5;
use frostlab_simkern::rng::Rng;

/// The field prime: 2⁶¹ − 1 (Mersenne).
pub const P: u64 = (1 << 61) - 1;
/// Generator.
pub const G: u64 = 5;

/// Modular multiplication via 128-bit intermediate.
fn mul_mod(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(P)) as u64
}

/// Modular exponentiation.
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= P;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// A host's identity keypair, with the shared secrets it has derived.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// Secret exponent.
    secret: u64,
    /// Public value `g^secret mod p`.
    pub public: u64,
    /// Shared secret per peer public key.
    shared: HashMap<u64, u64>,
}

impl KeyPair {
    /// Generate a keypair from a host's RNG stream.
    pub fn generate(rng: &mut Rng) -> KeyPair {
        let secret = rng.next_u64() % (P - 2) + 1;
        KeyPair {
            secret,
            public: pow_mod(G, secret),
            shared: HashMap::new(),
        }
    }

    /// Shared secret with a peer's public value, derived on first use and
    /// kept for later sessions with the same peer.
    pub fn shared_secret(&mut self, peer_public: u64) -> u64 {
        let secret = self.secret;
        *self
            .shared
            .entry(peer_public)
            .or_insert_with(|| pow_mod(peer_public, secret))
    }
}

/// The proof a client sends for a server challenge.
pub fn proof(shared_secret: u64, nonce: u64) -> [u8; 16] {
    let mut msg = [0u8; 16];
    msg[..8].copy_from_slice(&shared_secret.to_be_bytes());
    msg[8..].copy_from_slice(&nonce.to_be_bytes());
    md5(&msg)
}

/// Server-side session acceptor: knows the set of authorized public keys.
#[derive(Debug, Clone)]
pub struct Acceptor {
    authorized: Vec<u64>,
    keys: KeyPair,
    rng: Rng,
}

/// Outcome of a handshake attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeResult {
    /// Session established.
    Accepted,
    /// The presented public key is not in `authorized_keys`.
    UnknownKey,
    /// The proof did not verify (wrong secret).
    BadProof,
}

impl Acceptor {
    /// New acceptor with its own identity and an authorized-keys list.
    pub fn new(rng: &mut Rng, authorized: Vec<u64>) -> Self {
        Acceptor {
            authorized,
            keys: KeyPair::generate(rng),
            rng: rng.derive("acceptor"),
        }
    }

    /// The server's public key (sent in its hello).
    pub fn public(&self) -> u64 {
        self.keys.public
    }

    /// Issue a fresh challenge nonce.
    pub fn challenge(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Verify a client's handshake.
    pub fn verify(
        &mut self,
        client_public: u64,
        nonce: u64,
        client_proof: [u8; 16],
    ) -> HandshakeResult {
        if !self.authorized.contains(&client_public) {
            return HandshakeResult::UnknownKey;
        }
        let shared = self.keys.shared_secret(client_public);
        if proof(shared, nonce) == client_proof {
            HandshakeResult::Accepted
        } else {
            HandshakeResult::BadProof
        }
    }
}

/// Run the whole four-message handshake between a client keypair and an
/// acceptor, as the collector does before each transfer.
pub fn handshake(client: &mut KeyPair, server: &mut Acceptor) -> HandshakeResult {
    // 1. client hello: client's public key. 2. server hello + challenge.
    let nonce = server.challenge();
    // 3. client proof over the shared secret.
    let shared = client.shared_secret(server.public());
    let p = proof(shared, nonce);
    // 4. server verdict.
    server.verify(client.public, nonce, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dh_shared_secret_agrees() {
        let mut rng = Rng::new(11);
        let mut a = KeyPair::generate(&mut rng);
        let mut b = KeyPair::generate(&mut rng);
        let (a_pub, b_pub) = (a.public, b.public);
        assert_eq!(a.shared_secret(b_pub), b.shared_secret(a_pub));
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn authorized_client_accepted() {
        let mut rng = Rng::new(12);
        let mut client = KeyPair::generate(&mut rng);
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(
            handshake(&mut client, &mut server),
            HandshakeResult::Accepted
        );
    }

    #[test]
    fn unknown_key_rejected() {
        let mut rng = Rng::new(13);
        let client = KeyPair::generate(&mut rng);
        let mut stranger = KeyPair::generate(&mut rng);
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(
            handshake(&mut stranger, &mut server),
            HandshakeResult::UnknownKey
        );
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut rng = Rng::new(14);
        let client = KeyPair::generate(&mut rng);
        let mut imposter = KeyPair {
            secret: client.secret ^ 0xDEAD,
            public: client.public, // claims the same identity
            shared: HashMap::new(),
        };
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(
            handshake(&mut imposter, &mut server),
            HandshakeResult::BadProof
        );
    }

    #[test]
    fn cached_secrets_keep_every_verdict() {
        // Sessions after the first reuse both sides' derived secret; the
        // verdicts, and the rejection of an imposter presenting an
        // accepted key, stay what the first session gave.
        let mut rng = Rng::new(16);
        let mut client = KeyPair::generate(&mut rng);
        let mut stranger = KeyPair::generate(&mut rng);
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        let mut imposter = KeyPair {
            secret: client.secret ^ 0xBEEF,
            public: client.public,
            shared: HashMap::new(),
        };
        for _ in 0..3 {
            assert_eq!(
                handshake(&mut client, &mut server),
                HandshakeResult::Accepted
            );
            assert_eq!(
                handshake(&mut imposter, &mut server),
                HandshakeResult::BadProof
            );
            assert_eq!(
                handshake(&mut stranger, &mut server),
                HandshakeResult::UnknownKey
            );
        }
        // One derived secret per peer on each side; none for the unknown key.
        assert_eq!(client.shared.len(), 1);
        assert_eq!(server.keys.shared.len(), 1);
        assert_eq!(
            client.shared[&server.public()],
            pow_mod(server.public(), client.secret)
        );
    }

    #[test]
    fn pow_mod_basics() {
        assert_eq!(pow_mod(G, 0), 1);
        assert_eq!(pow_mod(G, 1), G);
        assert_eq!(pow_mod(2, 61) % P, pow_mod(2, 61)); // stays reduced
                                                        // Fermat: g^(p-1) ≡ 1.
        assert_eq!(pow_mod(G, P - 1), 1);
    }

    #[test]
    fn challenges_vary() {
        let mut rng = Rng::new(15);
        let mut server = Acceptor::new(&mut rng, vec![]);
        let a = server.challenge();
        let b = server.challenge();
        assert_ne!(a, b);
    }
}
