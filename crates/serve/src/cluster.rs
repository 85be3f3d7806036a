//! The versioned shard map: which shard *process* owns which user.
//!
//! The in-process layer keeps its modulo map ([`crate::server::shard_of`]
//! — each shard process still sub-shards across its own workers), but the
//! cluster tier cannot: a modulo map reshuffles almost every user when
//! the shard count changes. Ownership here is **rendezvous (highest
//! random weight) hashing** over stable entry ids:
//!
//! ```text
//! owner(user) = argmax over live entries e of mix64(mix64(e.id ^ SALT) + mix64(user))
//! ```
//!
//! which gives the two properties a routed cluster needs (proptested in
//! `tests/router_map.rs`):
//!
//! * **total** — every user maps to exactly one live entry at every map
//!   version (ties broken by entry id, deterministically);
//! * **minimal movement** — removing an entry only moves the users it
//!   owned; adding one only moves the users it now wins. Everybody else
//!   keeps their owner across versions.
//!
//! A handoff (same shard, new process) keeps the entry **id** and changes
//! only its `addr`/`epoch`, so no user moves at all — the whole point of
//! identifying entries by id rather than by address.
//!
//! Every topology change bumps `version`; clients and the router compare
//! versions (and per-entry epochs) to tell a planned handoff from an
//! unplanned process death.

use std::net::SocketAddr;

use crate::protocol::{ShardEntryInfo, ShardMapInfo};
use geosocial_obs::mix64;

/// Salt folded into the entry-id hash so entry ids (small integers) and
/// user ids (small integers) never feed identical mixes.
const ENTRY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One shard slot: a stable identity plus the process currently serving
/// it.
#[derive(Debug, Clone)]
pub struct ShardEntry {
    /// Stable rendezvous identity; survives handoffs.
    pub id: u64,
    /// The process currently owning this slot.
    pub addr: SocketAddr,
    /// Whether the slot routes (false only mid-retirement).
    pub live: bool,
    /// Process incarnation, bumped on every handoff.
    pub epoch: u64,
}

/// The versioned map. Entries are append-only within a map's lifetime —
/// indices held by router links stay valid across handoffs, which mutate
/// an entry in place.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    version: u64,
    entries: Vec<ShardEntry>,
}

/// The rendezvous weight of `(entry, user)` — public so tests and future
/// clients can predict routing from a [`ShardMapInfo`] alone.
pub fn rendezvous_weight(entry_id: u64, user: u32) -> u64 {
    mix64(mix64(entry_id ^ ENTRY_SALT).wrapping_add(mix64(user as u64)))
}

impl ShardMap {
    /// A version-0 map with entries `0..addrs.len()` in id order.
    pub fn new(addrs: &[SocketAddr]) -> ShardMap {
        ShardMap {
            version: 0,
            entries: addrs
                .iter()
                .enumerate()
                .map(|(id, &addr)| ShardEntry { id: id as u64, addr, live: true, epoch: 0 })
                .collect(),
        }
    }

    /// Monotonic map version; bumped by every topology change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The entries, in creation order (stable indices).
    pub fn entries(&self) -> &[ShardEntry] {
        &self.entries
    }

    /// Index of the live entry owning `user`, or `None` on an empty map.
    /// Deterministic: max weight, ties broken by lowest entry id.
    pub fn owner(&self, user: u32) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (idx, e) in self.entries.iter().enumerate() {
            if !e.live {
                continue;
            }
            let w = rendezvous_weight(e.id, user);
            let candidate = (w, u64::MAX - e.id, idx);
            if best.is_none_or(|b| candidate > (b.0, b.1, b.2)) {
                best = Some(candidate);
            }
        }
        best.map(|(_, _, idx)| idx)
    }

    /// Add a shard slot with the next free id. Returns its index.
    pub fn add(&mut self, addr: SocketAddr) -> usize {
        let id = self.entries.iter().map(|e| e.id + 1).max().unwrap_or(0);
        self.entries.push(ShardEntry { id, addr, live: true, epoch: 0 });
        self.version += 1;
        self.entries.len() - 1
    }

    /// Stop routing to entry `id` (retirement without replacement — the
    /// remaining entries absorb its users). Returns false on unknown id.
    pub fn retire(&mut self, id: u64) -> bool {
        match self.entries.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.live = false;
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// Hand entry `id` off to a replacement process at `addr`: bump its
    /// epoch (links connected to the old process notice and reconnect)
    /// and the map version. Returns the entry index and the old address.
    pub fn handoff(&mut self, id: u64, addr: SocketAddr) -> Option<(usize, SocketAddr)> {
        let idx = self.entries.iter().position(|e| e.id == id)?;
        let e = &mut self.entries[idx];
        let old = e.addr;
        e.addr = addr;
        e.live = true;
        e.epoch += 1;
        self.version += 1;
        Some((idx, old))
    }

    /// The wire form ([`crate::protocol::ShardMapInfo`]).
    pub fn info(&self) -> ShardMapInfo {
        ShardMapInfo {
            version: self.version,
            entries: self
                .entries
                .iter()
                .map(|e| ShardEntryInfo {
                    id: e.id,
                    addr: e.addr.to_string(),
                    live: e.live,
                    epoch: e.epoch,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn owner_is_total_and_deterministic() {
        let map = ShardMap::new(&[addr(1), addr(2), addr(3)]);
        for user in 0..1000u32 {
            let a = map.owner(user).expect("total");
            let b = map.owner(user).expect("total");
            assert_eq!(a, b);
            assert!(a < 3);
        }
        // All three entries get some users (splitmix spreads well).
        let mut seen = [false; 3];
        for user in 0..1000u32 {
            seen[map.owner(user).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "one entry owns nothing across 1000 users: {seen:?}");
    }

    #[test]
    fn handoff_moves_no_user() {
        let mut map = ShardMap::new(&[addr(1), addr(2), addr(3), addr(4)]);
        let before: Vec<usize> = (0..2000u32).map(|u| map.owner(u).unwrap()).collect();
        let (idx, old) = map.handoff(2, addr(99)).expect("entry 2 exists");
        assert_eq!(idx, 2);
        assert_eq!(old, addr(1 + 2));
        assert_eq!(map.version(), 1);
        assert_eq!(map.entries()[2].epoch, 1);
        let after: Vec<usize> = (0..2000u32).map(|u| map.owner(u).unwrap()).collect();
        assert_eq!(before, after, "a handoff keeps the entry id, so no user may move");
    }

    #[test]
    fn retire_moves_only_the_retired_entrys_users() {
        let mut map = ShardMap::new(&[addr(1), addr(2), addr(3), addr(4)]);
        let before: Vec<usize> = (0..2000u32).map(|u| map.owner(u).unwrap()).collect();
        map.retire(1);
        for (user, &was) in before.iter().enumerate() {
            let now = map.owner(user as u32).unwrap();
            if was == 1 {
                assert_ne!(now, 1, "retired entry must not own user {user}");
            } else {
                assert_eq!(now, was, "user {user} moved although its owner stayed live");
            }
        }
    }
}
