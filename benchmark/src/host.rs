//! What the benchmark does about the host it runs on (see README, "Host
//! noise"): it pins the whole process to one processor, and it measures how
//! fast that processor is right now with a yardstick of fixed work.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Pin this thread — and every thread spawned after it, which inherit the
/// mask — to the last processor the process may use. A closed loop with one
/// client keeps one thread busy at a time, so nothing is lost; what is gained
/// is that no wake-up crosses virtual processors, which on this hypervisor
/// costs 3–5x more and changes with thread placement from second to second.
/// Returns the processor chosen, or `None` when the mask could not be set.
pub fn pin_to_one_processor() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// CPU time this thread has used. Unlike wall time it does not count the
/// moments another thread of the pinned process held the processor.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let ok = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(ok, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Time one yardstick unit takes on this host when nothing disturbs it (the
/// fast regime of the 2-vCPU VM the benchmark was calibrated on). Only a
/// scale: the same on parent and change, so it cancels in every comparison.
const NOMINAL_UNIT: Duration = Duration::from_micros(1_850);

/// A fixed amount of work that shares no code with the program, built to
/// slow down when the program does: a quarter L1-resident sorting, half
/// allocation-heavy tag parsing and serializing (what the XML layers do), a
/// quarter dependent loads across 3 MiB (last-level cache). Its speed is the
/// host's speed right now; timing metrics are divided by it.
pub struct Yardstick {
    sort_buf: Vec<u64>,
    markup: String,
    out: String,
    chase: Vec<u32>,
    at: u32,
}

struct MiniNode {
    name: String,
    text: String,
    children: Vec<usize>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut markup = String::from("<r>");
        for i in 0..900 {
            markup.push_str(&format!(
                "<p><id>person{i}</id><n>Name {i}</n><e>mailto:p{i}@example.org</e></p>"
            ));
        }
        markup.push_str("</r>");
        // one cycle through 3 MiB in a fixed pseudo-random order
        let n = 3usize << 18;
        let mut chase: Vec<u32> = (0..n as u32).collect();
        let mut x = 88172645463325252u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Yardstick {
            sort_buf: vec![0; 4096],
            markup,
            out: String::new(),
            chase,
            at: 0,
        }
    }

    fn sort_part(&mut self) {
        let mut x = 88172645463325252u64;
        for _ in 0..6 {
            for v in self.sort_buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = x;
            }
            self.sort_buf.sort_unstable();
            std::hint::black_box(&self.sort_buf);
        }
    }

    fn markup_part(&mut self) {
        let src = self.markup.as_str();
        let mut arena = vec![MiniNode {
            name: String::new(),
            text: String::new(),
            children: Vec::new(),
        }];
        let mut stack = vec![0usize];
        let mut i = 0;
        while i < src.len() {
            let top = *stack.last().expect("balanced markup");
            if src.as_bytes()[i] == b'<' {
                let end = i + src[i..].find('>').expect("closed tag");
                if src.as_bytes()[i + 1] == b'/' {
                    stack.pop();
                } else {
                    arena.push(MiniNode {
                        name: src[i + 1..end].to_string(),
                        text: String::new(),
                        children: Vec::new(),
                    });
                    let id = arena.len() - 1;
                    arena[top].children.push(id);
                    stack.push(id);
                }
                i = end + 1;
            } else {
                let end = i + src[i..].find('<').unwrap_or(src.len() - i);
                arena[top].text.push_str(&src[i..end]);
                i = end;
            }
        }
        fn write(arena: &[MiniNode], id: usize, out: &mut String) {
            let n = &arena[id];
            out.push('<');
            out.push_str(&n.name);
            out.push('>');
            out.push_str(&n.text);
            for &c in &n.children {
                write(arena, c, out);
            }
            out.push_str("</");
            out.push_str(&n.name);
            out.push('>');
        }
        self.out.clear();
        for &c in &arena[0].children {
            write(&arena, c, &mut self.out);
        }
        std::hint::black_box(&self.out);
    }

    fn chase_part(&mut self) {
        for _ in 0..7_000 {
            self.at = self.chase[self.at as usize];
        }
        std::hint::black_box(self.at);
    }

    /// Run one unit; returns how many times slower than nominal the host is
    /// right now (1.0 = undisturbed).
    pub fn slowdown(&mut self) -> f64 {
        let t0 = thread_cpu_time();
        self.sort_part();
        self.markup_part();
        self.chase_part();
        let took = thread_cpu_time().saturating_sub(t0);
        took.as_secs_f64() / NOMINAL_UNIT.as_secs_f64()
    }

    /// Run units for about `share` of `of` (at least one); the mean slowdown.
    pub fn sample(&mut self, of: Duration, share: f64) -> f64 {
        let budget = of.mul_f64(share);
        let t0 = std::time::Instant::now();
        let (mut sum, mut n) = (0.0, 0u32);
        loop {
            sum += self.slowdown();
            n += 1;
            if t0.elapsed() >= budget {
                return sum / f64::from(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_does_the_same_work_every_time() {
        let mut y = Yardstick::new();
        y.markup_part();
        let first = y.out.clone();
        assert_eq!(first, y.markup, "parse then serialize is the identity");
        y.markup_part();
        assert_eq!(first, y.out);
        // the chase visits every slot exactly once before it returns to 0
        let mut seen = 0usize;
        let mut at = 0u32;
        loop {
            at = y.chase[at as usize];
            seen += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(seen, y.chase.len());
        let s = y.slowdown();
        assert!(s > 0.05 && s < 50.0, "slowdown {s}");
    }

    #[test]
    fn thread_clock_counts_work_not_sleep() {
        let t0 = thread_cpu_time();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread_cpu_time() - t0 < Duration::from_millis(20));
    }
}
