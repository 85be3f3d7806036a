//! Cached handles to the store's exported metrics. Handles are
//! process-global: every [`crate::EventStore`] in the process feeds the
//! same series, which the serving layer exposes over its live `Metrics`
//! request alongside the serve/stream series.

geosocial_obs::cached_metrics! {
    /// Records appended across all stores.
    pub(crate) fn appends = counter("store.appends");
    /// Segment files across all open stores (sealed + active).
    pub(crate) fn segments = gauge("store.segments");
    /// Total log bytes across all open stores — the full queryable
    /// history; segments are never deleted.
    pub(crate) fn bytes_total = gauge("store.bytes.total");
    /// Log bytes past the last durable snapshot — the recovery delta.
    pub(crate) fn bytes_live = gauge("store.bytes.live");
    /// Durable snapshots written (each one compacts the recovery delta
    /// to zero and garbage-collects older snapshot files).
    pub(crate) fn compactions = counter("store.compactions");
    /// Snapshot file bytes written. Over `store.bytes.total` this is the
    /// snapshot write amplification.
    pub(crate) fn snapshot_bytes = counter("store.snapshot.bytes");
    /// Obsolete snapshot files garbage-collected.
    pub(crate) fn snapshots_gc = counter("store.snapshots.gc");
    /// Records replayed past the snapshot on open — the O(delta)
    /// recovery length.
    pub(crate) fn recovery_replayed = counter("store.recovery.replayed");
    /// Torn segment tails truncated away on open.
    pub(crate) fn torn_truncated = counter("store.torn.truncated");
    /// Injected short writes repaired by the flush path.
    pub(crate) fn fs_short_writes = counter("store.fs.short_writes");
    /// Injected flush failures surfaced to the caller.
    pub(crate) fn fs_flush_failures = counter("store.fs.flush_failures");
    /// Append latency (µs), log2 buckets.
    pub(crate) fn append_us = histogram("store.latency_us.append");
    /// Flush latency (µs), log2 buckets.
    pub(crate) fn flush_us = histogram("store.latency_us.flush");
}
