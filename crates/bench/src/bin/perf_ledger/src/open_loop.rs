//! The open loop: frames offered to `run_ingress` on a wall-clock
//! schedule by the benchmark's own paced [`FrameSource`], whatever the
//! service does with them. Two busy threads: the receiver (which calls
//! the source) and one shard consumer.
//!
//! A frame is released at its due time — everything already due is
//! handed over as one burst, the source spin-waits for the next due
//! frame, and nothing is ever released early. Frames are stamped with
//! their *schedule* `ts_us`, so what the pipeline decides does not depend
//! on the offered rate; each repeat of the schedule is shifted by
//! [`PASS_OFFSET_US`] so the previous pass's lanes have expired.

use crate::closed_loop::Tally;
use crate::fixtures::Frames;
use crate::stats::median;
use crate::trace::Recorder;
use splidt_core::engine::ShardedEngine;
use splidt_net::service::{run_ingress, IngressConfig};
use splidt_net::source::{FrameBurst, FrameSource};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::time::{Duration, Instant};

/// `ts_us` shift between consecutive passes over the schedule: far past
/// the schedule's ~2 s span and every lane timeout.
pub const PASS_OFFSET_US: u64 = 20_000_000;

/// The source is called up to a million times a second: it records the
/// spans of every `SPAN_SAMPLE`-th call and skips the rest.
const SPAN_SAMPLE: u64 = 64;

/// A step counts as sustained when it loses at most this share.
const SUSTAINED_LOSS: f64 = 0.001;

/// What the paced source saw of the receiver during one step, handed
/// back after the run.
#[derive(Debug)]
pub struct SourceLog {
    /// Time between a `next_burst` return and the next call, summed: the
    /// receiver's own work (steering peek, hash, ring push).
    pub busy_ns: u64,
    /// Frames handed over in bursts whose follow-up call was observed.
    pub busy_frames: u64,
    /// Per burst, how long after its due time the oldest frame was
    /// pulled (ns) — the generator-lateness figure.
    pub lag_ns: Vec<u32>,
    /// Spans: one `batch` per sampled `next_burst`, around
    /// `net.source.wait` and `net.source.handoff`.
    pub rec: Recorder,
}

impl SourceLog {
    /// An empty log recording spans into `rec`.
    pub fn new(rec: Recorder) -> Self {
        Self { busy_ns: 0, busy_frames: 0, lag_ns: Vec::new(), rec }
    }
}

/// Offers `total` frames at `rate_pps`, cycling over `frames`.
pub struct PacedSource<'a> {
    frames: &'a Frames,
    ns_per_frame: f64,
    total: u64,
    cursor: u64,
    /// When the first call arrived: the schedule's zero.
    started: Option<Instant>,
    last_return: Option<(Instant, u64)>,
    yield_in_wait: bool,
    log: &'a mut SourceLog,
}

impl<'a> PacedSource<'a> {
    /// A source that will offer `total` frames at `rate_pps`.
    pub fn new(frames: &'a Frames, rate_pps: f64, total: u64, log: &'a mut SourceLog) -> Self {
        assert!(frames.len() > 0 && rate_pps > 0.0);
        // With a single CPU the spin-wait would starve the consumer it
        // is waiting on; give the core away instead.
        let yield_in_wait = std::thread::available_parallelism().map_or(1, |n| n.get()) < 2;
        Self {
            frames,
            ns_per_frame: 1e9 / rate_pps,
            total,
            cursor: 0,
            started: None,
            last_return: None,
            yield_in_wait,
            log,
        }
    }

    /// Offset of frame `i`'s due time from the schedule's zero.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos((i as f64 * self.ns_per_frame) as u64)
    }

    /// Frame `i` of the endless replay: `(bytes, ts_us)` with the pass
    /// offset applied.
    fn frame(&self, i: u64) -> (&'a [u8], u64) {
        let n = self.frames.len() as u64;
        let (bytes, ts_us) = self.frames.get((i % n) as usize);
        (bytes, ts_us + (i / n) * PASS_OFFSET_US)
    }

    /// Blocks until frame `cursor` is due; returns the time it observed.
    fn wait_due(&mut self, start: Instant) -> Instant {
        let due = start + self.due(self.cursor);
        loop {
            let now = Instant::now();
            if now >= due {
                return now;
            }
            if self.yield_in_wait {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl FrameSource for PacedSource<'_> {
    fn next_frame(&mut self, buf: &mut [u8]) -> io::Result<Option<(usize, u64)>> {
        if self.cursor == self.total {
            return Ok(None);
        }
        let start = *self.started.get_or_insert_with(Instant::now);
        self.wait_due(start);
        let (frame, ts_us) = self.frame(self.cursor);
        self.cursor += 1;
        let n = frame.len().min(buf.len());
        buf[..n].copy_from_slice(&frame[..n]);
        Ok(Some((n, ts_us)))
    }

    /// Waits for the next due frame, then hands over every frame already
    /// due (up to the burst's capacity) in one call.
    fn next_burst(&mut self, burst: &mut FrameBurst) -> io::Result<bool> {
        let called = Instant::now();
        if let Some((returned, frames)) = self.last_return.take() {
            self.log.busy_ns += called.duration_since(returned).as_nanos() as u64;
            self.log.busy_frames += frames;
        }
        burst.clear();
        if self.cursor == self.total {
            return Ok(false);
        }
        let start = *self.started.get_or_insert(called);
        self.log.rec.sample((self.log.lag_ns.len() as u64).is_multiple_of(SPAN_SAMPLE));
        let root = self.log.rec.open("batch", None);
        let wait = self.log.rec.open("net.source.wait", Some(root));
        let now = self.wait_due(start);
        self.log.rec.close(wait);
        let handoff = self.log.rec.open("net.source.handoff", Some(root));
        let lag = now.duration_since(start + self.due(self.cursor)).as_nanos();
        self.log.lag_ns.push(u32::try_from(lag).unwrap_or(u32::MAX));
        while !burst.is_full() && self.cursor < self.total && start + self.due(self.cursor) <= now {
            let (frame, ts_us) = self.frame(self.cursor);
            let slot = burst.slot();
            let n = frame.len().min(slot.len());
            slot[..n].copy_from_slice(&frame[..n]);
            burst.commit(n, ts_us);
            self.cursor += 1;
        }
        self.log.rec.close(handoff);
        self.log.rec.close(root);
        self.last_return = Some((Instant::now(), burst.len() as u64));
        Ok(self.cursor < self.total)
    }
}

/// One offered-rate step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Row suffix (`r150k` …), empty for the overload step.
    pub label: &'static str,
    /// Offered rate (frames per second).
    pub rate_pps: f64,
    /// Whether the step is expected lossless: `goodput_share` is taken
    /// over the graded steps, and lateness is judged on them.
    pub graded: bool,
    /// Share of the run's `--seconds` the step may take.
    pub share: f64,
}

/// Graded 150K / 300K (expected lossless), 450K and the 600K knee
/// (diagnostic) and the 1.0M overload step, whose drops are the designed
/// refusal. The shares leave a quarter of the run to the closed-loop
/// slice that measures the engine alone on the same frames.
///
/// 450K is diagnostic, not graded: the ring holds 9 ms of it, and on a
/// shared two-vCPU host the consumer's 200 µs idle sleep overshoots by
/// more than that in about one run in four. 300K leaves 13.6 ms, which a
/// scheduler stall outlasted once in some 45 runs — so a graded loss
/// lowers `goodput_share` but is not a failed operation: `failed` must
/// not be a coin the host tosses.
pub const STEPS: [Step; 5] = [
    Step { label: "r150k", rate_pps: 150_000.0, graded: true, share: 0.15 },
    Step { label: "r300k", rate_pps: 300_000.0, graded: true, share: 0.08 },
    Step { label: "r450k", rate_pps: 450_000.0, graded: false, share: 0.06 },
    Step { label: "r600k", rate_pps: 600_000.0, graded: false, share: 0.06 },
    Step { label: "", rate_pps: 1_000_000.0, graded: false, share: 0.40 },
];

/// Seconds one session of the overload step offers frames for.
const OVERLOAD_SESSION_S: f64 = 1.0;

/// What one step delivered, summed over its `run_ingress` sessions.
#[derive(Debug)]
pub struct StepResult {
    /// The step.
    pub step: Step,
    /// Frames the receiver pulled off the source.
    pub offered: u64,
    /// Frames the consumer drained into the engine.
    pub consumed: u64,
    /// Frames consumed per wall second (drain included), per session.
    pub session_pps: Vec<f64>,
    /// What the source saw of the receiver.
    pub log: SourceLog,
}

impl StepResult {
    /// Share of the offered frames that never reached the engine.
    pub fn loss_share(&self) -> f64 {
        1.0 - self.consumed as f64 / self.offered as f64
    }

    /// Frames consumed per wall second: the median over the sessions.
    pub fn delivered_pps(&self) -> f64 {
        median(&self.session_pps)
    }
}

/// Frames each `run_ingress` session of a step offers. The paced steps
/// are one session of whole passes over the schedule (at least one), so
/// a per-pass verdict count exists to check. The overload step is sized
/// by time alone and cut into one-second sessions, so its rate is a
/// median like every other timing here.
fn sessions_for(step: &Step, seconds: f64, pass_frames: u64) -> Vec<u64> {
    let budget_s = step.share * seconds;
    if step.label.is_empty() {
        let n = (budget_s / OVERLOAD_SESSION_S).round().max(1.0) as usize;
        vec![(step.rate_pps * OVERLOAD_SESSION_S) as u64; n]
    } else {
        let passes = ((step.rate_pps * budget_s / pass_frames as f64) as u64).max(1);
        vec![passes * pass_frames]
    }
}

/// Runs every step of [`STEPS`] through `run_ingress` (1 shard, ring
/// 4096, batch 256, receive burst 32), resetting the engine before each
/// session. Gates, per session: ingress and lifecycle accounting
/// reconcile, the service received exactly what was offered, and every
/// complete pass of a lossless session classifies `expected_classified`
/// flows. With a `trace_epoch` the source records its spans against that
/// clock.
pub fn run_steps(
    engine: &mut ShardedEngine,
    frames: &Frames,
    seconds: f64,
    expected_classified: u64,
    tally: &mut Tally,
    trace_epoch: Option<Instant>,
) -> Vec<StepResult> {
    let cfg = IngressConfig { ring_capacity: 4096, max_frame: 2048, batch: 256, recv_burst: 32 };
    let pass_frames = frames.len() as u64;
    let (flow_idx, fp) = {
        let io = engine.engines()[0].io();
        (io.digest_flow_idx, io.digest_fp)
    };
    let mut out = Vec::new();
    for step in STEPS {
        let mut log = SourceLog::new(trace_epoch.map_or_else(Recorder::off, Recorder::new));
        let (mut offered, mut consumed, mut session_pps) = (0, 0, Vec::new());
        for total in sessions_for(&step, seconds, pass_frames) {
            engine.reset();
            let wall = Instant::now();
            let source = PacedSource::new(frames, step.rate_pps, total, &mut log);
            let outcome = run_ingress(engine, source, &cfg).expect("the paced source cannot fail");
            let wall_s = wall.elapsed().as_secs_f64();
            let stats = &outcome.stats;
            let drained: u64 = stats.shards.iter().map(|s| s.consumed).sum();
            tally.check(stats.reconciles(), || format!("{step:?}: ingress stats {stats:?}"));
            tally.check(stats.received == total && stats.dropped_malformed == 0, || {
                format!("{step:?}: offered {total}, received {stats:?}")
            });
            let lc = outcome.report.lifecycle;
            tally.check(lc.reconciles(), || format!("{step:?}: lifecycle {lc:?}"));
            if drained == stats.received {
                // Lossless, so every complete pass saw exactly the schedule.
                let mut per_pass: BTreeMap<u64, HashSet<(u64, u64)>> = BTreeMap::new();
                for d in &outcome.batch.digests {
                    let flow = (d.values[flow_idx], d.values[fp]);
                    per_pass.entry(d.ts_us / PASS_OFFSET_US).or_default().insert(flow);
                }
                for pass in 0..total / pass_frames {
                    let got = per_pass.get(&pass).map_or(0, |s| s.len() as u64);
                    tally.check(got == expected_classified, || {
                        format!(
                            "{step:?} pass {pass}: classified {got}, expected {expected_classified}"
                        )
                    });
                }
            }
            offered += stats.received;
            consumed += drained;
            session_pps.push(drained as f64 / wall_s);
        }
        out.push(StepResult { step, offered, consumed, session_pps, log });
    }
    out
}

/// The highest step rate that lost at most 0.1 % of its frames.
pub fn sustained_pps(steps: &[StepResult]) -> f64 {
    steps
        .iter()
        .filter(|s| s.loss_share() <= SUSTAINED_LOSS)
        .map(|s| s.step.rate_pps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_frames(n: usize) -> Frames {
        let mut frames = Frames::default();
        for i in 0..n {
            frames.push(&[i as u8; 60], 100 + 10 * i as u64);
        }
        frames
    }

    #[test]
    fn never_early_and_offsets_replayed() {
        let frames = tiny_frames(40);
        let mut log = SourceLog::new(Recorder::new(Instant::now()));
        let total = 3 * 40 + 7;
        let mut src = PacedSource::new(&frames, 50_000.0, total, &mut log);
        let mut burst = FrameBurst::new(8, 128);
        let mut seen = 0u64;
        loop {
            let more = src.next_burst(&mut burst).unwrap();
            let now = Instant::now();
            let start = src.started.expect("set by the first call");
            for k in 0..burst.len() {
                let (bytes, ts_us) = burst.get(k);
                let (idx, pass) = (seen % 40, seen / 40);
                assert!(now >= start + src.due(seen), "frame {seen} released before it was due");
                assert_eq!(ts_us, 100 + 10 * idx + pass * PASS_OFFSET_US);
                assert_eq!(bytes, &[idx as u8; 60][..]);
                seen += 1;
            }
            if !more {
                break;
            }
        }
        assert_eq!(seen, total);
        assert!(!src.next_burst(&mut burst).unwrap() && burst.is_empty());
        // 127 frames at 50K pps cannot take less than 126 gaps of 20 µs.
        assert!(src.started.unwrap().elapsed() >= Duration::from_micros(126 * 20));
        let totals = log.rec.totals();
        assert_eq!(totals["batch"].count, (log.lag_ns.len() as u64).div_ceil(SPAN_SAMPLE));
        assert_eq!(totals["net.source.wait"].count, totals["net.source.handoff"].count);
        assert!(log.busy_frames > 0 && log.busy_frames <= total);
    }

    #[test]
    fn late_receiver_gets_everything_due_in_one_burst() {
        // 1K pps: the 16 frames are due over 15 ms, so only a stall longer
        // than that inside the first call could hand them all over at once,
        // and the 50 ms sleep outlasts the whole schedule.
        let frames = tiny_frames(16);
        let mut log = SourceLog::new(Recorder::off());
        let mut src = PacedSource::new(&frames, 1_000.0, 16, &mut log);
        let mut burst = FrameBurst::new(32, 128);
        assert!(src.next_burst(&mut burst).unwrap());
        let first = burst.len();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!src.next_burst(&mut burst).unwrap());
        assert_eq!(first + burst.len(), 16, "every overdue frame is handed off at once");
        assert!(log.lag_ns[1] >= 30_000_000, "the late pull is recorded as lag");
    }

    #[test]
    fn step_sizing_and_sustained_rate() {
        let graded = STEPS[0];
        assert_eq!(sessions_for(&graded, 15.0, 327_123), [327_123]);
        assert_eq!(sessions_for(&graded, 30.0, 327_123), [2 * 327_123]);
        assert_eq!(sessions_for(&graded, 1.0, 327_123), [327_123], "never less than a pass");
        assert_eq!(sessions_for(&STEPS[4], 20.0, 327_123), [1_000_000; 8]);
        assert_eq!(sessions_for(&STEPS[4], 1.0, 327_123), [1_000_000]);
        assert!((STEPS.iter().map(|s| s.share).sum::<f64>() - 0.75).abs() < 1e-9);
        let result = |step: Step, consumed| StepResult {
            step,
            offered: 10_000,
            consumed,
            session_pps: vec![1.0, 9.0, 2.0],
            log: SourceLog::new(Recorder::off()),
        };
        let steps = [result(STEPS[0], 10_000), result(STEPS[1], 9_995), result(STEPS[2], 9_900)];
        assert_eq!(sustained_pps(&steps), 300_000.0);
        assert_eq!(sustained_pps(&steps[2..]), 0.0);
        assert_eq!(steps[0].delivered_pps(), 2.0, "the median session");
    }
}
