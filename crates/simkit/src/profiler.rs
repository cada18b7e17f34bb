//! Cost-attribution profiler: per-(subsystem × event-type) wall-time,
//! fan-out, and allocation accounting for the dispatch loop.
//!
//! BENCH_hotpath.json shows the ladder queue is 2.2–2.3× faster than the
//! heap in isolation while the whole engine only gained 1.11–1.14×: most
//! of the per-event budget is spent *outside* the queue, and nothing
//! attributed where. This module answers "where does the time go?" the
//! way the Grid2003 operators' monitoring stack answered "which site is
//! sick?": cheap always-on accounting at the dispatch boundary, rendered
//! as a ranked cost table (`figures -- heat`).
//!
//! Design constraints:
//!
//! * **No hashing, locking, or allocation on the hot path.** Every event
//!   type maps to a fixed *cost-center index* (the engine derives it
//!   from the event discriminant); recording is a handful of adds into a
//!   dense [`CenterStats`] array plus one increment of a fixed log2
//!   histogram bucket.
//! * **Bit-neutral.** The profiler reads the wall clock but never feeds
//!   anything back into simulation state, RNG streams, or the event
//!   queue: enabling it cannot move a single simulated byte. The golden
//!   hashes in `tests/determinism.rs` pin this.
//! * **Mergeable.** [`CostProfiler::merge`] folds per-run profiles into
//!   campaign-level aggregates; stats are plain sums, so merging is
//!   order-independent.
//!
//! Allocation counting needs a counting global allocator and therefore
//! hides behind the `count-allocs` cargo feature (the wrapper taxes
//! every allocation in the process with two relaxed atomic adds).
//! Without the feature, [`alloc_snapshot`] returns zeros and the
//! allocs/bytes columns read 0 — callers need no `cfg` of their own.

use std::fmt::Write as _;

/// Number of log2 latency buckets per cost center. Bucket 0 holds
/// zero-duration events; bucket `b ≥ 1` covers `[2^(b-1), 2^b)` ns;
/// the last bucket absorbs everything ≥ 2^30 ns (~1.07 s).
pub const LOG2_BUCKETS: usize = 32;

/// One attribution bucket: a `(subsystem, event-type)` pair. The engine
/// owns a static table of these, indexed by the event discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostCenter {
    /// Subsystem the router sends the event to.
    pub subsystem: &'static str,
    /// Event-type label (matches `EventLabel::label`).
    pub event: &'static str,
}

/// Accumulated statistics for one cost center. Serializable so a
/// campaign journal can persist a finished run's profile; pair the
/// stats back with the engine's static center table via
/// [`CostProfiler::from_stats`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CenterStats {
    /// Events dispatched to this center.
    pub events: u64,
    /// Total wall time spent in the handler, nanoseconds (self time:
    /// nested immediate dispatches time themselves).
    pub total_ns: u64,
    /// Immediate events emitted by the handler (fan-out).
    pub fanout: u64,
    /// Log2 latency histogram; see [`LOG2_BUCKETS`].
    pub hist: [u64; LOG2_BUCKETS],
    /// Heap allocations inside the handler (0 without `count-allocs`).
    pub allocs: u64,
    /// Bytes requested by those allocations (0 without `count-allocs`).
    pub alloc_bytes: u64,
}

impl Default for CenterStats {
    fn default() -> Self {
        CenterStats {
            events: 0,
            total_ns: 0,
            fanout: 0,
            hist: [0; LOG2_BUCKETS],
            allocs: 0,
            alloc_bytes: 0,
        }
    }
}

/// The log2 bucket for a duration: 0 for 0 ns, otherwise
/// `floor(log2(ns)) + 1` clamped to [`LOG2_BUCKETS`]` - 1`, so bucket
/// `b ≥ 1` covers `[2^(b-1), 2^b)`.
#[inline]
pub fn log2_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

/// One row of the rendered cost table: a center plus derived
/// per-event rates.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Attributed cost center.
    pub center: CostCenter,
    /// Events dispatched.
    pub events: u64,
    /// Total handler self time, nanoseconds.
    pub total_ns: u64,
    /// Mean self time per event, nanoseconds.
    pub ns_per_event: f64,
    /// Mean immediate fan-out per event.
    pub fanout_per_event: f64,
    /// Mean allocations per event (0 without `count-allocs`).
    pub allocs_per_event: f64,
    /// Mean allocated bytes per event (0 without `count-allocs`).
    pub bytes_per_event: f64,
    /// Share of the total attributed wall time, percent.
    pub share_pct: f64,
}

/// Dense per-cost-center accumulator owned by the engine. Indexed by
/// the event's cost-center id; recording is pure array arithmetic.
#[derive(Debug, Clone)]
pub struct CostProfiler {
    centers: &'static [CostCenter],
    stats: Vec<CenterStats>,
}

impl CostProfiler {
    /// A profiler over the given static cost-center table.
    pub fn new(centers: &'static [CostCenter]) -> Self {
        CostProfiler {
            stats: vec![CenterStats::default(); centers.len()],
            centers,
        }
    }

    /// Rehydrate a profiler from persisted per-center stats (e.g. a
    /// campaign journal record). Missing trailing centers read zero;
    /// extra persisted centers beyond the table are dropped — both only
    /// arise across engine builds with different center tables.
    pub fn from_stats(centers: &'static [CostCenter], stats: Vec<CenterStats>) -> Self {
        let mut padded = stats;
        padded.resize(centers.len(), CenterStats::default());
        padded.truncate(centers.len());
        CostProfiler {
            stats: padded,
            centers,
        }
    }

    /// The static center table this profiler attributes to.
    pub fn centers(&self) -> &'static [CostCenter] {
        self.centers
    }

    /// Per-center accumulated stats, index-aligned with
    /// [`CostProfiler::centers`].
    pub fn stats(&self) -> &[CenterStats] {
        &self.stats
    }

    /// Record one dispatched event: `ns` of handler self time, `fanout`
    /// immediates emitted, and the allocation delta across the handler.
    #[inline]
    pub fn record(&mut self, center: usize, ns: u64, fanout: u64, allocs: u64, alloc_bytes: u64) {
        let s = &mut self.stats[center];
        s.events += 1;
        s.total_ns += ns;
        s.fanout += fanout;
        s.hist[log2_bucket(ns)] += 1;
        s.allocs += allocs;
        s.alloc_bytes += alloc_bytes;
    }

    /// Fold another profile (over the same center table) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the center tables differ — profiles from different
    /// engine builds are not comparable.
    pub fn merge(&mut self, other: &CostProfiler) {
        assert!(
            std::ptr::eq(self.centers, other.centers) || self.centers == other.centers,
            "cannot merge profiles over different cost-center tables"
        );
        for (into, from) in self.stats.iter_mut().zip(other.stats.iter()) {
            into.events += from.events;
            into.total_ns += from.total_ns;
            into.fanout += from.fanout;
            for (a, b) in into.hist.iter_mut().zip(from.hist.iter()) {
                *a += *b;
            }
            into.allocs += from.allocs;
            into.alloc_bytes += from.alloc_bytes;
        }
    }

    /// Total events attributed.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().map(|s| s.events).sum()
    }

    /// Total attributed handler self time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.total_ns).sum()
    }

    /// The cost table, one row per center with ≥ 1 event, ranked by
    /// share of the attributed time (total self time) descending; ties
    /// break by label, so the order is deterministic for equal inputs.
    pub fn rows(&self) -> Vec<CostRow> {
        let total_ns = self.total_ns().max(1) as f64;
        let mut rows: Vec<CostRow> = self
            .centers
            .iter()
            .zip(self.stats.iter())
            .filter(|(_, s)| s.events > 0)
            .map(|(c, s)| {
                let n = s.events as f64;
                CostRow {
                    center: *c,
                    events: s.events,
                    total_ns: s.total_ns,
                    ns_per_event: s.total_ns as f64 / n,
                    fanout_per_event: s.fanout as f64 / n,
                    allocs_per_event: s.allocs as f64 / n,
                    bytes_per_event: s.alloc_bytes as f64 / n,
                    share_pct: 100.0 * s.total_ns as f64 / total_ns,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.center.subsystem.cmp(b.center.subsystem))
                .then(a.center.event.cmp(b.center.event))
        });
        rows
    }

    /// The profile as a JSON object string: per-center stats in center
    /// table order plus totals. Wall times are nondeterministic by
    /// nature; this export must never feed the report hashes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"centers\":[");
        let mut first = true;
        for (c, s) in self.centers.iter().zip(self.stats.iter()) {
            if s.events == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"subsystem\":\"{}\",\"event\":\"{}\",\"events\":{},\"total_ns\":{},\
                 \"fanout\":{},\"allocs\":{},\"alloc_bytes\":{},\"hist\":{:?}}}",
                c.subsystem,
                c.event,
                s.events,
                s.total_ns,
                s.fanout,
                s.allocs,
                s.alloc_bytes,
                s.hist
            );
        }
        let _ = write!(
            out,
            "],\"total_events\":{},\"total_ns\":{}}}",
            self.total_events(),
            self.total_ns()
        );
        out
    }
}

#[cfg(feature = "count-allocs")]
mod counting_alloc {
    //! A counting wrapper over the system allocator. Process-global:
    //! two relaxed atomic adds per allocation, which is why it hides
    //! behind the `count-allocs` feature.
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: defers entirely to `System` for memory management; the
    // counters are side accounting and never touch the returned blocks.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}

/// Running totals of heap allocation since process start:
/// `(allocations, bytes requested)`. Subtract two snapshots to charge
/// the delta to a cost center. Always `(0, 0)` unless the
/// `count-allocs` feature is enabled, so callers need no `cfg`.
#[inline]
pub fn alloc_snapshot() -> (u64, u64) {
    #[cfg(feature = "count-allocs")]
    {
        use std::sync::atomic::Ordering;
        (
            counting_alloc::ALLOCS.load(Ordering::Relaxed),
            counting_alloc::BYTES.load(Ordering::Relaxed),
        )
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CENTERS: [CostCenter; 3] = [
        CostCenter {
            subsystem: "execution",
            event: "try_dispatch",
        },
        CostCenter {
            subsystem: "execution",
            event: "execution_ends",
        },
        CostCenter {
            subsystem: "reporting",
            event: "monitor_tick",
        },
    ];

    #[test]
    fn log2_bucket_boundaries() {
        // Bucket 0 is exactly "zero duration".
        assert_eq!(log2_bucket(0), 0);
        // Bucket b covers [2^(b-1), 2^b): both edges land where claimed.
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(255), 8);
        assert_eq!(log2_bucket(256), 9);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        for b in 1..LOG2_BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(log2_bucket(lo), b, "lower edge of bucket {b}");
            assert_eq!(log2_bucket(hi), b, "upper edge of bucket {b}");
        }
        // Everything at or past 2^30 ns clamps into the last bucket.
        assert_eq!(log2_bucket(1 << 30), LOG2_BUCKETS - 1);
        assert_eq!(log2_bucket(1 << 40), LOG2_BUCKETS - 1);
        assert_eq!(log2_bucket(u64::MAX), LOG2_BUCKETS - 1);
    }

    #[test]
    fn record_accumulates_and_ranks() {
        let mut p = CostProfiler::new(&CENTERS);
        p.record(0, 100, 2, 1, 64);
        p.record(0, 300, 0, 0, 0);
        p.record(2, 1000, 1, 0, 0);
        assert_eq!(p.total_events(), 3);
        assert_eq!(p.total_ns(), 1400);
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        // monitor_tick: 1000 ns/event beats try_dispatch's 200.
        assert_eq!(rows[0].center.event, "monitor_tick");
        assert_eq!(rows[1].center.event, "try_dispatch");
        assert!((rows[1].ns_per_event - 200.0).abs() < 1e-9);
        assert!((rows[1].fanout_per_event - 1.0).abs() < 1e-9);
        assert!((rows[1].allocs_per_event - 0.5).abs() < 1e-9);
        assert!((rows[0].share_pct + rows[1].share_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rows_rank_by_share_not_ns_per_event() {
        let mut p = CostProfiler::new(&CENTERS);
        // execution_ends: many cheap events, the largest share.
        for _ in 0..10 {
            p.record(1, 100, 0, 0, 0);
        }
        // monitor_tick: one slow event, the highest ns/event.
        p.record(2, 600, 0, 0, 0);
        // try_dispatch: ties execution_ends' total; the label decides.
        p.record(0, 500, 0, 0, 0);
        p.record(0, 500, 0, 0, 0);
        let rows = p.rows();
        let order: Vec<&str> = rows.iter().map(|r| r.center.event).collect();
        assert_eq!(order, ["execution_ends", "try_dispatch", "monitor_tick"]);
        assert!(rows[2].ns_per_event > rows[0].ns_per_event);
        assert!(rows[0].share_pct > rows[2].share_pct);
    }

    #[test]
    fn merge_is_a_plain_sum() {
        let mut a = CostProfiler::new(&CENTERS);
        let mut b = CostProfiler::new(&CENTERS);
        a.record(0, 100, 1, 0, 0);
        b.record(0, 200, 3, 2, 128);
        b.record(1, 50, 0, 0, 0);
        a.merge(&b);
        assert_eq!(a.stats()[0].events, 2);
        assert_eq!(a.stats()[0].total_ns, 300);
        assert_eq!(a.stats()[0].fanout, 4);
        assert_eq!(a.stats()[0].allocs, 2);
        assert_eq!(a.stats()[0].alloc_bytes, 128);
        assert_eq!(a.stats()[1].events, 1);
        assert_eq!(
            a.stats()[0].hist[log2_bucket(100)] + a.stats()[0].hist[log2_bucket(200)],
            2
        );
    }

    #[test]
    fn json_export_is_wellformed() {
        let mut p = CostProfiler::new(&CENTERS);
        p.record(1, 40, 0, 0, 0);
        let json = p.to_json();
        assert!(json.starts_with("{\"centers\":["));
        assert!(json.contains("\"event\":\"execution_ends\""));
        assert!(!json.contains("try_dispatch"), "zero-event centers omitted");
        assert!(json.ends_with("\"total_events\":1,\"total_ns\":40}"));
    }

    #[test]
    fn alloc_snapshot_is_monotonic() {
        let (a0, b0) = alloc_snapshot();
        let v: Vec<u64> = (0..1024).collect();
        let (a1, b1) = alloc_snapshot();
        assert!(a1 >= a0);
        assert!(b1 >= b0);
        #[cfg(feature = "count-allocs")]
        {
            assert!(a1 > a0, "the Vec allocation must be counted");
            assert!(b1 - b0 >= 1024 * 8);
        }
        drop(v);
    }
}
