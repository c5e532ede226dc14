//! One benchmark run: three rounds, each on a fresh cluster — timed set-up
//! (with a fixed-count warm-up), then a measured closed-loop span cut into
//! 1 s windows.
//!
//! Clients work in bursts of about 20 ms; between bursts, while they are
//! parked, the coordinating thread runs the yardstick (`host.rs`). Every
//! burst thus knows how slow the host was around it, and all timing is kept
//! twice: as measured ("raw"), and with each burst's duration divided by its
//! slowdown ("normalised" — the time the burst would have taken on the
//! undisturbed host). Yardstick time itself is never counted.

use crate::cluster::counters;
use crate::host::Yardstick;
use crate::stats::{self, OpSpan};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Client, Cluster, SetupSplit, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub const ROUNDS: usize = 3;
/// Operation ids at or above this belong to a measured span; warm-up ids
/// stay below it.
pub const MEASURED: u64 = 1 << 40;
/// How long clients run between two yardstick samples (an operation in
/// flight is always finished), and the share of that the yardstick gets.
const BURST: Duration = Duration::from_millis(20);
const YARDSTICK_SHARE: f64 = 0.08;

/// Raw and normalised versions of one timing quantity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    pub raw: f64,
    pub norm: f64,
}

/// Everything one run measured, before it is turned into named metrics.
#[derive(Default)]
pub struct RunData {
    /// Per round: set-up time including the warm-up, s.
    pub setup_s: Vec<Timed>,
    pub warmup_s: Vec<f64>,
    pub splits: Vec<SetupSplit>,
    /// Per-window throughput, all rounds (windows of raw and of normalised
    /// time respectively).
    pub windows_raw: Vec<f64>,
    pub windows_norm: Vec<f64>,
    /// Latency of every measured operation that succeeded, ms, all rounds.
    pub lat_ms: Vec<Timed>,
    /// Host slowdown of every measured burst.
    pub slowdowns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Counter differences over the measured spans, summed over rounds.
    pub counters: BTreeMap<&'static str, f64>,
    pub cpu_ms: f64,
    pub input_hash: u64,
    pub spans: Vec<trace::Span>,
}

/// Process CPU time (user + system), ms.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux)
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}

/// What the coordinator tells the parked clients before releasing them.
#[derive(Clone, Copy)]
struct Plan {
    /// Clients stop starting operations at this instant …
    until: Instant,
    /// … or, in the warm-up, once they have done this many in the phase.
    quota: Option<u64>,
    base_op: u64,
    burst: usize,
    stop: bool,
}

/// One operation as its client saw it, kept small: rpc_small records
/// tens of thousands a second, and the benchmark's own memory is part of the
/// peak RSS it reports.
struct OpRecord {
    burst: u32,
    /// Microseconds from the start of the burst.
    start_us: f32,
    end_us: f32,
    /// Time inside `Peer::execute`, microseconds; negative when the
    /// operation failed (its error is in the client's error list).
    lat_us: f32,
}

/// Operation records in 64 KiB chunks: grows without ever copying, so peak
/// RSS rises with the operations run and not in the doubling steps of one
/// big vector (which moved `peak_rss_mib` by a fifth on rpc_small).
#[derive(Default)]
struct Records(Vec<Vec<OpRecord>>);

impl Records {
    const CHUNK: usize = 4096;

    fn push(&mut self, r: OpRecord) {
        match self.0.last_mut() {
            Some(chunk) if chunk.len() < Self::CHUNK => chunk.push(r),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(r);
                self.0.push(chunk);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &OpRecord> {
        self.0.iter().flatten()
    }
}

/// What one client thread hands back: its warm-up and measured operations,
/// and the errors of those that failed.
#[derive(Default)]
struct ClientLog {
    warm: Records,
    measured: Records,
    errors: Vec<String>,
}

struct Phase {
    /// Per burst: wall duration in seconds and host slowdown around it.
    bursts: Vec<(f64, f64)>,
    /// Per client, in order.
    ops: Vec<Records>,
}

/// Run the clients through the warm-up and the measured phase; also returns
/// the errors of the operations that failed, in either. `between` is called
/// between the two phases, with the clients parked.
fn drive(
    clients: &mut [Client],
    round: usize,
    warmup_per_client: u64,
    span: Duration,
    yard: &mut Yardstick,
    between: impl FnOnce(),
) -> (Phase, Phase, Vec<String>) {
    let n = clients.len();
    let (go, done) = (Barrier::new(n + 1), Barrier::new(n + 1));
    let plan = Mutex::new(Plan {
        until: Instant::now(),
        quota: None,
        base_op: 0,
        burst: 0,
        stop: false,
    });
    let done_in_phase: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (go, done, plan, done_in_phase) = (&go, &done, &plan, &done_in_phase);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        go.wait();
                        let p = *plan.lock().expect("plan poisoned");
                        if p.stop {
                            return log;
                        }
                        let t0 = Instant::now();
                        loop {
                            let k = done_in_phase[i].load(Ordering::Relaxed);
                            if p.quota.is_some_and(|q| k >= q) {
                                break;
                            }
                            let start_us = t0.elapsed().as_secs_f32() * 1e6;
                            let outcome = client(p.base_op + k * n as u64 + i as u64);
                            let end_us = t0.elapsed().as_secs_f32() * 1e6;
                            done_in_phase[i].store(k + 1, Ordering::Relaxed);
                            let lat_us = match outcome {
                                Ok(lat) => lat.as_secs_f32() * 1e6,
                                Err(e) => {
                                    log.errors.push(e);
                                    -1.0
                                }
                            };
                            let phase = if p.quota.is_some() {
                                &mut log.warm
                            } else {
                                &mut log.measured
                            };
                            phase.push(OpRecord {
                                burst: p.burst as u32,
                                start_us,
                                end_us,
                                lat_us,
                            });
                            if Instant::now() >= p.until {
                                break;
                            }
                        }
                        done.wait();
                    }
                })
            })
            .collect();

        // One phase: bursts until `finished` says so, a yardstick sample
        // after each; a burst's slowdown is the mean of its two neighbours.
        let phase = |quota: Option<u64>, base_op: u64, yard: &mut Yardstick| {
            for d in &done_in_phase {
                d.store(0, Ordering::Relaxed);
            }
            let mut bursts: Vec<(f64, f64)> = Vec::new();
            let mut before = yard.slowdown();
            let mut worked = Duration::ZERO;
            loop {
                let finished = match quota {
                    Some(q) => done_in_phase.iter().all(|d| d.load(Ordering::Relaxed) >= q),
                    None => worked >= span,
                };
                if finished {
                    return bursts;
                }
                let t0 = Instant::now();
                *plan.lock().expect("plan poisoned") = Plan {
                    until: t0 + BURST,
                    quota,
                    base_op,
                    burst: bursts.len(),
                    stop: false,
                };
                go.wait();
                done.wait();
                let took = t0.elapsed();
                worked += took;
                let after = yard.sample(took, YARDSTICK_SHARE);
                bursts.push((took.as_secs_f64(), (before + after) / 2.0));
                before = after;
            }
        };
        let warm_bursts = phase(Some(warmup_per_client), (round as u64) << 32, yard);
        between();
        let measured_bursts = phase(None, MEASURED | (round as u64) << 32, yard);
        plan.lock().expect("plan poisoned").stop = true;
        go.wait();
        let (mut warm, mut measured, mut errors) = (
            Phase {
                bursts: warm_bursts,
                ops: Vec::new(),
            },
            Phase {
                bursts: measured_bursts,
                ops: Vec::new(),
            },
            Vec::new(),
        );
        for h in handles {
            let log = h.join().expect("client thread panicked");
            warm.ops.push(log.warm);
            measured.ops.push(log.measured);
            errors.extend(log.errors);
        }
        (warm, measured, errors)
    })
}

impl Phase {
    /// Where each burst starts on the raw and on the normalised work clock.
    fn offsets(&self) -> Vec<Timed> {
        let mut at = Timed::default();
        self.bursts
            .iter()
            .map(|&(dur, slow)| {
                let here = at;
                at.raw += dur;
                at.norm += dur / slow;
                here
            })
            .collect()
    }

    fn total(&self) -> Timed {
        self.bursts
            .iter()
            .fold(Timed::default(), |t, &(dur, slow)| Timed {
                raw: t.raw + dur,
                norm: t.norm + dur / slow,
            })
    }
}

pub fn run(
    w: Workload,
    seed: u64,
    span: Duration,
    tracer: Option<&Arc<Tracer>>,
    out_dir: &Path,
    keep_last: bool,
) -> (RunData, Option<Cluster>) {
    let mut data = RunData::default();
    let mut last = None;
    let mut yard = Yardstick::new();
    for round in 0..ROUNDS {
        let before_build = yard.sample(Duration::from_millis(50), 1.0);
        let t_build = Instant::now();
        let mut cluster = workloads::build(w, seed, round, tracer, out_dir);
        let build_s = t_build.elapsed().as_secs_f64();
        let build_slow = (before_build + yard.sample(Duration::from_millis(50), 1.0)) / 2.0;
        data.splits.push(cluster.split);
        data.input_hash = cluster.input_hash;

        let n = cluster.clients.len() as u64;
        let mut clients = std::mem::take(&mut cluster.clients);
        let mut marks = None;
        let (warm, measured, errors) = drive(
            &mut clients,
            round,
            w.warmup_ops().div_ceil(n),
            span,
            &mut yard,
            || marks = Some((counters(&cluster.nodes), cpu_ms())),
        );
        cluster.clients = clients;
        let (before, cpu0) = marks.expect("phases ran");
        // the yardstick's own CPU time is part of the process's
        data.cpu_ms += (cpu_ms() - cpu0) / (1.0 + YARDSTICK_SHARE);
        for (k, v) in counters(&cluster.nodes) {
            *data.counters.entry(k).or_insert(0.0) += v - before.get(k).copied().unwrap_or(0.0);
        }

        let warm_total = warm.total();
        data.warmup_s.push(warm_total.raw);
        data.setup_s.push(Timed {
            raw: build_s + warm_total.raw,
            norm: build_s / build_slow + warm_total.norm,
        });

        let offsets = measured.offsets();
        let total = measured.total();
        let mut raw_windows = stats::Windows::new(total.raw);
        let mut norm_windows = stats::Windows::new(total.norm);
        let mut acked = Vec::new();
        data.lat_ms
            .reserve_exact(measured.ops.iter().map(|r| r.iter().count()).sum());
        for (ops, warm_ops) in measured.ops.iter().zip(&warm.ops) {
            let mut ok = warm_ops.iter().filter(|r| r.lat_us >= 0.0).count() as u64;
            for r in ops.iter() {
                data.attempted += 1;
                if r.lat_us < 0.0 {
                    data.failed += 1;
                    continue;
                }
                ok += 1;
                let (at, slow) = (
                    offsets[r.burst as usize],
                    measured.bursts[r.burst as usize].1,
                );
                let ms = f64::from(r.lat_us) / 1e3;
                data.lat_ms.push(Timed {
                    raw: ms,
                    norm: ms / slow,
                });
                let (start, end) = (f64::from(r.start_us) / 1e6, f64::from(r.end_us) / 1e6);
                raw_windows.add(OpSpan {
                    start: at.raw + start,
                    end: at.raw + end,
                });
                norm_windows.add(OpSpan {
                    start: at.norm + start / slow,
                    end: at.norm + end / slow,
                });
            }
            acked.push(ok);
        }
        // a failed warm-up operation makes the run incorrect just as a
        // measured one does
        data.errors.extend(errors);
        data.windows_raw.extend(raw_windows.rates());
        data.windows_norm.extend(norm_windows.rates());
        data.slowdowns
            .extend(measured.bursts.iter().map(|&(_, slow)| slow));
        if let Some(verify) = cluster.verify.take() {
            if let Err(e) = verify(&acked) {
                data.errors.push(format!("durability: {e}"));
            }
        }
        if keep_last && round + 1 == ROUNDS {
            last = Some(cluster);
        }
    }
    if let Some(t) = tracer {
        data.spans = t.take();
    }
    (data, last)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
