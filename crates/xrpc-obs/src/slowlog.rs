//! Always-on slow-query log: queries whose total latency reaches a
//! threshold (250 ms unless set) are appended as JSON-lines to a bounded,
//! rotating in-memory store, surfaced via `GET /slowlog`.
//!
//! The request path never blocks on the log: an entry is appended only
//! when the store's lock is free at once (`try_lock`), and is dropped and
//! counted (`dropped_total`) otherwise. Retention is size-capped segments
//! with rotate-and-drop-oldest, so a flood of slow queries can never grow
//! the store without bound.

use crate::profile::{json_escape, Phases};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Rotate the active segment once it holds this many bytes.
const SEGMENT_BYTES: usize = 64 * 1024;
/// Retained segments, the active one included; the oldest is dropped.
const MAX_SEGMENTS: usize = 8;

/// One slow-query record. Query text is stored only as an FNV-1a hash —
/// the log must not leak query contents into an admin surface.
#[derive(Clone, Debug)]
pub struct SlowLogEntry {
    /// Unix epoch milliseconds, stamped by the caller.
    pub ts_millis: u64,
    pub peer: String,
    /// FNV-1a hash of the normalized query text.
    pub query_hash: u64,
    pub trace_id: u128,
    pub total_micros: u64,
    /// Which engine ran it ("tree" or "rel").
    pub engine: &'static str,
    pub phases: Phases,
    /// Number of hops in the assembled profile (1 = purely local).
    pub hops: u32,
}

impl SlowLogEntry {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"tsMillis\":{},\"peer\":\"{}\",\"queryHash\":\"{:016x}\",\"traceId\":\"{:032x}\",\"totalMicros\":{},\"unattributedMicros\":{},\"cache\":\"{}\",\"engine\":\"{}\",\"hops\":{},\"phases\":{{",
            self.ts_millis,
            json_escape(&self.peer),
            self.query_hash,
            self.trace_id,
            self.total_micros,
            self.total_micros.saturating_sub(self.phases.total_micros()),
            json_escape(self.phases.cache),
            json_escape(self.engine),
            self.hops,
        );
        self.phases.write_json_members(&mut out);
        out.push_str("}}");
        out
    }
}

#[derive(Default)]
struct Segment {
    lines: Vec<String>,
    bytes: usize,
}

struct Store {
    /// Sealed segments, oldest first, plus the active segment at the back.
    segments: VecDeque<Segment>,
}

impl Store {
    fn append(&mut self, line: String) {
        let active = self.segments.back_mut().expect("active segment");
        active.bytes += line.len() + 1;
        active.lines.push(line);
        if active.bytes >= SEGMENT_BYTES {
            self.segments.push_back(Segment::default());
            while self.segments.len() > MAX_SEGMENTS {
                self.segments.pop_front();
            }
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for seg in &self.segments {
            for line in &seg.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// The slow-query log held by the peer.
pub struct SlowLog {
    store: Mutex<Store>,
    threshold_millis: AtomicU64,
    logged: AtomicU64,
    dropped: AtomicU64,
}

impl SlowLog {
    pub fn new() -> Arc<SlowLog> {
        Arc::new(SlowLog {
            store: Mutex::new(Store {
                segments: VecDeque::from([Segment::default()]),
            }),
            threshold_millis: AtomicU64::new(250),
            logged: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    pub fn threshold_millis(&self) -> u64 {
        self.threshold_millis.load(Ordering::Relaxed)
    }

    pub fn set_threshold_millis(&self, millis: u64) {
        self.threshold_millis.store(millis, Ordering::Relaxed);
    }

    /// Should a query of this latency be logged?
    pub fn is_slow(&self, total_micros: u64) -> bool {
        total_micros / 1000 >= self.threshold_millis()
    }

    /// Best-effort, never-blocking record: the line is formatted on the
    /// caller and appended only if the store is free; a busy store (a
    /// concurrent record or render) drops it.
    pub fn record(&self, entry: &SlowLogEntry) {
        let line = entry.to_json();
        match self.store.try_lock() {
            Ok(mut store) => {
                store.append(line);
                self.logged.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Render the retained entries as JSON-lines, oldest first.
    pub fn render(&self) -> String {
        self.store.lock().unwrap().render()
    }

    pub fn entries_logged(&self) -> u64 {
        self.logged.load(Ordering::Relaxed)
    }

    pub fn entries_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Phase;

    fn entry(hash: u64, micros: u64) -> SlowLogEntry {
        let mut phases = Phases {
            cache: "hit",
            ..Phases::default()
        };
        phases.micros[Phase::Execute as usize] = micros - 1_000;
        SlowLogEntry {
            ts_millis: 1,
            peer: "http://p/".into(),
            query_hash: hash,
            trace_id: 42,
            total_micros: micros,
            engine: "tree",
            phases,
            hops: 1,
        }
    }

    #[test]
    fn records_and_renders_json_lines() {
        let log = SlowLog::new();
        log.record(&entry(0xdead, 300_000));
        let r = log.render();
        assert_eq!(r.lines().count(), 1);
        assert!(r.contains("\"queryHash\":\"000000000000dead\""));
        assert!(r.contains("\"totalMicros\":300000,\"unattributedMicros\":1000,"));
        assert!(r.ends_with(
            "\"hops\":1,\"phases\":{\"parseMicros\":0,\"compileMicros\":0,\"executeMicros\":299000,\"networkMicros\":0,\"marshalMicros\":0,\"twopcMicros\":0,\"walMicros\":0}}\n"
        ));
        assert_eq!(log.entries_logged(), 1);
        assert_eq!(log.entries_dropped(), 0);
    }

    #[test]
    fn threshold_gates() {
        let log = SlowLog::new();
        assert!(!log.is_slow(249_000));
        assert!(log.is_slow(250_000));
        log.set_threshold_millis(100);
        assert!(!log.is_slow(99_000));
        assert!(log.is_slow(100_000));
        log.set_threshold_millis(1);
        assert!(log.is_slow(1_000));
    }

    #[test]
    fn rotation_drops_oldest() {
        // each entry is ~250 bytes: 4000 of them are twice what the
        // 8 × 64 KiB segments retain
        let log = SlowLog::new();
        for i in 0..4000 {
            log.record(&entry(i, 1_000));
        }
        assert_eq!((log.entries_logged(), log.entries_dropped()), (4000, 0));
        let r = log.render();
        let (n, bytes) = (r.lines().count(), r.len());
        assert!(
            bytes <= MAX_SEGMENTS * (SEGMENT_BYTES + 512),
            "rotation bounded the store: {n} lines, {bytes} bytes"
        );
        assert!(
            bytes >= (MAX_SEGMENTS - 1) * SEGMENT_BYTES,
            "the sealed segments are kept: {n} lines, {bytes} bytes"
        );
        // The newest entries are the survivors.
        assert!(r.contains(&format!("\"queryHash\":\"{:016x}\"", 3999)));
        assert!(!r.contains(&format!("\"queryHash\":\"{:016x}\"", 0u64)));
    }

    #[test]
    fn never_blocks_when_the_store_is_busy() {
        // Hold the store's lock: record() must return at once every time,
        // counting drops instead of blocking the request path.
        let log = SlowLog::new();
        {
            let _busy = log.store.lock().unwrap();
            for i in 0..10 {
                log.record(&entry(i, 500_000));
            }
        }
        assert_eq!((log.entries_logged(), log.entries_dropped()), (0, 10));
        assert!(log.render().is_empty());
    }
}
