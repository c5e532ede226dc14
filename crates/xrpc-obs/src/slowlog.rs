//! Always-on slow-query log: queries whose total latency exceeds a
//! configurable threshold are appended as JSON-lines to a bounded,
//! rotating in-memory store, surfaced via `GET /slowlog`.
//!
//! The request path never blocks on the log: entries go through a
//! best-effort bounded channel (`try_send`); when the writer falls behind,
//! entries are dropped and counted (`dropped_total`). Retention is
//! size-capped segments with rotate-and-drop-oldest, so a flood of slow
//! queries can never grow the store without bound.

use crate::profile::{json_escape, Phases};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

/// Tuning knobs for the slow-query log.
#[derive(Clone, Debug)]
pub struct SlowLogConfig {
    /// Queries at or above this total latency are logged.
    pub threshold_millis: u64,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: usize,
    /// Retained segments (including the active one); oldest is dropped.
    pub max_segments: usize,
    /// Bounded channel depth between the request path and the writer.
    pub queue_depth: usize,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig {
            threshold_millis: 250,
            segment_bytes: 64 * 1024,
            max_segments: 8,
            queue_depth: 256,
        }
    }
}

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
    /// Plan-cache disposition: "hit", "miss", or "off".
    pub cache: &'static str,
    /// Which engine ran it ("tree" or "rel").
    pub engine: &'static str,
    pub phases: Phases,
    /// Number of hops in the assembled profile (1 = purely local).
    pub hops: u32,
}

impl SlowLogEntry {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"tsMillis\":{},\"peer\":\"{}\",\"queryHash\":\"{:016x}\",\"traceId\":\"{:032x}\",\"totalMicros\":{},\"cache\":\"{}\",\"engine\":\"{}\",\"hops\":{},\"phases\":{{",
            self.ts_millis,
            json_escape(&self.peer),
            self.query_hash,
            self.trace_id,
            self.total_micros,
            json_escape(self.cache),
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
    segment_bytes: usize,
    max_segments: usize,
}

impl Store {
    fn append(&mut self, line: String) {
        let active = self.segments.back_mut().expect("active segment");
        active.bytes += line.len() + 1;
        active.lines.push(line);
        if active.bytes >= self.segment_bytes {
            self.segments.push_back(Segment::default());
            while self.segments.len() > self.max_segments {
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

/// The slow-query log handle held by the peer. Cloning is cheap; the
/// writer thread exits when the last sender is dropped.
pub struct SlowLog {
    tx: SyncSender<String>,
    store: Arc<Mutex<Store>>,
    threshold_millis: AtomicU64,
    logged: AtomicU64,
    dropped: AtomicU64,
}

impl SlowLog {
    pub fn new(config: SlowLogConfig) -> Arc<SlowLog> {
        let (tx, rx) = sync_channel::<String>(config.queue_depth.max(1));
        let store = Arc::new(Mutex::new(Store {
            segments: VecDeque::from([Segment::default()]),
            segment_bytes: config.segment_bytes.max(1),
            max_segments: config.max_segments.max(1),
        }));
        let writer_store = store.clone();
        std::thread::Builder::new()
            .name("xrpc-slowlog".into())
            .spawn(move || {
                while let Ok(line) = rx.recv() {
                    writer_store.lock().unwrap().append(line);
                }
            })
            .expect("spawn slowlog writer");
        Arc::new(SlowLog {
            tx,
            store,
            threshold_millis: AtomicU64::new(config.threshold_millis),
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

    /// Best-effort, never-blocking record. Serializes on the caller (cheap
    /// string formatting, no locks) and hands the line to the writer.
    pub fn record(&self, entry: &SlowLogEntry) {
        match self.tx.try_send(entry.to_json()) {
            Ok(()) => {
                self.logged.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
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

    fn entry(hash: u64, micros: u64) -> SlowLogEntry {
        SlowLogEntry {
            ts_millis: 1,
            peer: "http://p/".into(),
            query_hash: hash,
            trace_id: 42,
            total_micros: micros,
            cache: "hit",
            engine: "tree",
            phases: Phases {
                execute_micros: micros,
                ..Phases::default()
            },
            hops: 1,
        }
    }

    /// The writer thread is asynchronous: wait until the line of the entry
    /// with hash `last` is in the store. The channel is FIFO and the writer
    /// appends in order, so everything recorded before it has landed too.
    fn drain(log: &SlowLog, last: u64) -> String {
        let needle = format!("\"queryHash\":\"{last:016x}\"");
        for _ in 0..5000 {
            let r = log.render();
            if r.contains(&needle) {
                return r;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        panic!("the slowlog writer never wrote entry {last:#x}");
    }

    #[test]
    fn records_and_renders_json_lines() {
        let log = SlowLog::new(SlowLogConfig::default());
        log.record(&entry(0xdead, 300_000));
        let r = drain(&log, 0xdead);
        assert_eq!(r.lines().count(), 1);
        assert!(r.contains("\"queryHash\":\"000000000000dead\""));
        assert!(r.contains("\"totalMicros\":300000"));
        assert!(r.ends_with(
            "\"hops\":1,\"phases\":{\"parseMicros\":0,\"compileMicros\":0,\"marshalMicros\":0,\"networkMicros\":0,\"executeMicros\":300000,\"serializeMicros\":0,\"twopcMicros\":0,\"walMicros\":0}}\n"
        ));
        assert_eq!(log.entries_logged(), 1);
        assert_eq!(log.entries_dropped(), 0);
    }

    #[test]
    fn threshold_gates() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_millis: 100,
            ..SlowLogConfig::default()
        });
        assert!(!log.is_slow(99_000));
        assert!(log.is_slow(100_000));
        log.set_threshold_millis(1);
        assert!(log.is_slow(1_000));
    }

    #[test]
    fn rotation_drops_oldest() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_millis: 0,
            segment_bytes: 512,
            max_segments: 2,
            queue_depth: 1024,
        });
        for i in 0..200 {
            log.record(&entry(i, 1_000));
        }
        // All 200 fit in the queue, but retention is 2 segments of ~512
        // bytes — far fewer than 200 entries (each ~250 bytes) survive.
        assert_eq!((log.entries_logged(), log.entries_dropped()), (200, 0));
        let r = drain(&log, 199);
        let n = r.lines().count();
        assert!(n >= 2, "retained at least one sealed segment: {n}");
        assert!(n <= 10, "rotation bounded the store: {n} lines");
        // The newest entries are the survivors.
        assert!(r.contains(&format!("\"queryHash\":\"{:016x}\"", 199)));
        assert!(!r.contains(&format!("\"queryHash\":\"{:016x}\"", 0u64)));
    }

    #[test]
    fn never_blocks_when_queue_full() {
        // Stall the writer by holding the store lock, then flood a
        // depth-1 queue: record() must return immediately every time,
        // counting drops instead of blocking the request path.
        let log = SlowLog::new(SlowLogConfig {
            queue_depth: 1,
            ..SlowLogConfig::default()
        });
        {
            let _stall = log.store.lock().unwrap();
            for i in 0..10 {
                log.record(&entry(i, 500_000));
            }
        }
        assert_eq!(log.entries_logged() + log.entries_dropped(), 10);
        // Writer could take at most one in-flight line plus one queued.
        assert!(
            log.entries_dropped() >= 7,
            "dropped {}",
            log.entries_dropped()
        );
    }
}
