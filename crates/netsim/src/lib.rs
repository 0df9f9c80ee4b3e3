//! # frostlab-netsim
//!
//! The monitoring host's collection pipeline.
//!
//! §3.5: a monitoring host recovers all md5sums and sensor data every 20
//! minutes over an OpenSSH tunnel with public-key authentication, new files
//! transferred by rsync; §4.2.1: connectivity ran through two 8-port
//! switches from a whiny, defective batch, both of which died mid-campaign.
//! This crate models that pipeline at the granularity the campaign
//! observes — one collection attempt per host per round, which either
//! reaches the host or does not:
//!
//! * [`auth`] — a toy Diffie–Hellman-flavoured handshake modelling the
//!   OpenSSH public-key session setup (NOT cryptography; a protocol-flow
//!   model, clearly labelled); each side derives a peer's shared secret
//!   once and keeps it;
//! * [`rsyncp`] — the actual rsync algorithm: rolling weak checksum + MD5
//!   strong checksum signatures, delta computation and application, and
//!   [`rsyncp::CachedSync`], a mirror kept as signature state (block
//!   hashes, weak index, the bytes after the last full block) so a round
//!   costs O(bytes appended) and ships exactly what the stock algorithm
//!   ships;
//! * [`collector`] — the 20-minute collection round: authenticate, exchange
//!   signatures, ship deltas, mirror the fleet's logs, retire rotated logs
//!   to `(name, len)` on both sides once they are synced, and retry
//!   unreachable hosts with capped exponential backoff.
//!
//! Switch outages and link loss reach the collector as reachability: the
//! campaign's collection phase asks whether a host's path is up and
//! records an unreachable attempt when it is not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod collector;
pub mod rsyncp;
