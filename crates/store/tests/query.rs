//! Per-user read property tests: `EventStore::query(user, t0, t1)` must
//! return exactly what a brute-force filter over the whole log returns —
//! on the live store, after a reopen, and after a torn tail is truncated —
//! however users interleave, whatever the run lengths, with sentinel
//! records mixed in, segments small enough to roll often, and any sparse
//! index granularity.

use geosocial_store::{EventStore, StoreOptions, SENTINEL_USER};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Users the generated logs draw from; `USERS` itself is never written,
/// so it doubles as a user with no history.
const USERS: u32 = 5;

type Record = (u32, i64, Vec<u8>);

fn tmp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "geosocial-store-query-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Record generator: per-user clocks and a running record number carry
/// over between batches, so later batches keep per-user times
/// non-decreasing and payloads distinct.
#[derive(Default)]
struct Gen {
    clock: [i64; USERS as usize],
    next: u32,
}

impl Gen {
    /// Expand `(user, run length, time step, payload length)` runs into
    /// records. `user == USERS` writes a run of sentinels. A step of 0
    /// repeats the user's last time; every payload is distinct, so a
    /// wrong record cannot compare equal.
    fn records(&mut self, runs: &[(u32, usize, i64, usize)]) -> Vec<Record> {
        let mut out = Vec::new();
        for &(user, len, step, payload_len) in runs {
            for _ in 0..len {
                let payload: Vec<u8> =
                    self.next.to_le_bytes().iter().copied().cycle().take(4 + payload_len).collect();
                self.next += 1;
                if user == USERS {
                    out.push((SENTINEL_USER, 0, payload));
                } else {
                    self.clock[user as usize] += step;
                    out.push((user, self.clock[user as usize], payload));
                }
            }
        }
        out
    }
}

fn append_all(store: &mut EventStore, recs: &[Record]) {
    for (user, t, payload) in recs {
        store.append(*user, *t, payload).expect("append");
    }
}

fn brute_force(log: &[Record], user: u32, t0: i64, t1: i64) -> Vec<(i64, Vec<u8>)> {
    log.iter()
        .filter(|(u, t, _)| *u == user && (t0..=t1).contains(t))
        .map(|(_, t, p)| (*t, p.clone()))
        .collect()
}

/// Windows to ask every user for: everything, as-of reads, and inner
/// windows cut at times the log actually holds.
fn windows(log: &[Record], cuts: &[(usize, usize)]) -> Vec<(i64, i64)> {
    let mut out = vec![(i64::MIN, i64::MAX), (i64::MIN, -1), (i64::MIN, 0)];
    for &(a, b) in cuts {
        let ta = log[a % log.len()].1;
        let tb = log[b % log.len()].1;
        let (lo, hi) = (ta.min(tb), ta.max(tb));
        out.extend([(lo, hi), (i64::MIN, lo), (hi, i64::MAX), (lo + 1, hi), (lo, hi - 1)]);
    }
    out
}

fn check(
    store: &EventStore,
    log: &[Record],
    windows: &[(i64, i64)],
    stage: &str,
) -> Result<(), TestCaseError> {
    for user in 0..=USERS {
        for &(t0, t1) in windows {
            let got: Vec<(i64, Vec<u8>)> = store
                .query(user, t0, t1)
                .expect("query")
                .into_iter()
                .map(|r| {
                    assert_eq!(r.user, user);
                    (r.t, r.payload)
                })
                .collect();
            let want = brute_force(log, user, t0, t1);
            prop_assert_eq!(got, want, "{}: user {} window [{}, {}]", stage, user, t0, t1);
        }
    }
    Ok(())
}

/// The newest segment file: the only one a crash can tear.
fn last_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

type Runs = Vec<(u32, usize, i64, usize)>;

/// Write `runs`, then check every user's reads against the brute force on
/// the live store, after a reopen, after tearing the newest segment, and
/// after appending `more` to the repaired store.
fn check_case(
    runs: &Runs,
    more: &Runs,
    index_every: usize,
    segment_bytes: usize,
    cuts: &[(usize, usize)],
    tear: usize,
) -> Result<(), TestCaseError> {
    let opts = StoreOptions { segment_bytes, index_every, ..StoreOptions::default() };
    let dir = tmp_dir();
    let mut gen = Gen::default();
    let mut log = gen.records(runs);
    let windows = windows(&log, cuts);

    let mut store = EventStore::open(&dir, opts.clone()).expect("open");
    append_all(&mut store, &log);
    check(&store, &log, &windows, "live")?;

    // Make sure the newest segment file holds records, so there is a tail
    // to tear after the reopen check (an append that rolls leaves it empty).
    store.flush().expect("flush");
    while fs::metadata(last_segment(&dir)).expect("segment metadata").len() == 0 {
        let extra = (SENTINEL_USER, 0, b"tail".to_vec());
        append_all(&mut store, std::slice::from_ref(&extra));
        log.push(extra);
        store.flush().expect("flush");
    }
    drop(store);
    let store = EventStore::open(&dir, opts.clone()).expect("reopen");
    prop_assert_eq!(store.next_lsn(), log.len() as u64);
    check(&store, &log, &windows, "reopened")?;
    drop(store);

    // Tear the newest segment mid-record; open truncates it back to the
    // last whole record and the index must match the surviving prefix.
    let seg = last_segment(&dir);
    let len = fs::metadata(&seg).expect("segment metadata").len();
    let cut = (tear as u64).min(len);
    fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .and_then(|f| f.set_len(len - cut))
        .expect("tear segment");
    let mut store = EventStore::open(&dir, opts).expect("reopen torn");
    let kept = store.next_lsn() as usize;
    prop_assert!(kept < log.len(), "a torn tail loses at least one record");
    log.truncate(kept);
    check(&store, &log, &windows, "torn")?;

    // Appends after the repair extend the same index.
    let tail = gen.records(more);
    append_all(&mut store, &tail);
    log.extend(tail);
    check(&store, &log, &windows, "appended after repair")?;
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small records in segments small enough to roll every few records.
    #[test]
    fn query_equals_brute_force_live_reopened_and_torn(
        runs in prop::collection::vec((0u32..USERS + 1, 1usize..12, 0i64..4, 0usize..24), 1..48),
        more in prop::collection::vec((0u32..USERS + 1, 1usize..6, 0i64..4, 0usize..24), 1..8),
        every_pick in 0usize..3,
        segment_bytes in 96usize..1024,
        cuts in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..4),
        tear in 1usize..40,
    ) {
        check_case(&runs, &more, [1, 8, 64][every_pick], segment_bytes, &cuts, tear)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Records up to tens of KiB in segments of several read windows
    /// (16 KiB), so reads of sealed segments cross window ends mid-record
    /// and meet records larger than a window.
    #[test]
    fn query_equals_brute_force_across_read_windows(
        runs in prop::collection::vec((0u32..USERS + 1, 1usize..5, 0i64..4, 0usize..24_000), 1..12),
        more in prop::collection::vec((0u32..USERS + 1, 1usize..3, 0i64..4, 0usize..24_000), 1..3),
        every_pick in 0usize..3,
        segment_bytes in 32_768usize..98_304,
        cuts in prop::collection::vec((0usize..10_000, 0usize..10_000), 1..4),
        tear in 1usize..40,
    ) {
        check_case(&runs, &more, [1, 8, 64][every_pick], segment_bytes, &cuts, tear)?;
    }
}
