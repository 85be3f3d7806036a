//! Cached handles to the store's exported metrics. Handles are
//! process-global: every [`crate::EventStore`] in the process feeds the
//! same series, which the serving layer exposes over its live `Metrics`
//! request alongside the serve/stream series.

use geosocial_obs::{counter, gauge, histogram, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

macro_rules! cached {
    ($(#[$doc:meta])* $name:ident, $ctor:ident, $ty:ty, $series:expr) => {
        $(#[$doc])*
        pub(crate) fn $name() -> &'static $ty {
            static H: OnceLock<Arc<$ty>> = OnceLock::new();
            H.get_or_init(|| $ctor($series))
        }
    };
}

cached!(
    /// Records appended across all stores.
    appends, counter, Counter, "store.appends"
);
cached!(
    /// Segment files across all open stores (sealed + active).
    segments, gauge, Gauge, "store.segments"
);
cached!(
    /// Total log bytes across all open stores — the full queryable
    /// history; segments are never deleted.
    bytes_total, gauge, Gauge, "store.bytes.total"
);
cached!(
    /// Log bytes past the last durable snapshot — the recovery delta.
    bytes_live, gauge, Gauge, "store.bytes.live"
);
cached!(
    /// Durable snapshots written (each one compacts the recovery delta
    /// to zero and garbage-collects older snapshot files).
    compactions, counter, Counter, "store.compactions"
);
cached!(
    /// Snapshot file bytes written. Over `store.bytes.total` this is the
    /// snapshot write amplification.
    snapshot_bytes, counter, Counter, "store.snapshot.bytes"
);
cached!(
    /// Obsolete snapshot files garbage-collected.
    snapshots_gc, counter, Counter, "store.snapshots.gc"
);
cached!(
    /// Records replayed past the snapshot on open — the O(delta)
    /// recovery length.
    recovery_replayed, counter, Counter, "store.recovery.replayed"
);
cached!(
    /// Torn segment tails truncated away on open.
    torn_truncated, counter, Counter, "store.torn.truncated"
);
cached!(
    /// Injected short writes repaired by the flush path.
    fs_short_writes, counter, Counter, "store.fs.short_writes"
);
cached!(
    /// Injected flush failures surfaced to the caller.
    fs_flush_failures, counter, Counter, "store.fs.flush_failures"
);
cached!(
    /// Append latency (µs), log2 buckets.
    append_us, histogram, Histogram, "store.latency_us.append"
);
cached!(
    /// Flush latency (µs), log2 buckets.
    flush_us, histogram, Histogram, "store.latency_us.flush"
);
