//! The load generator: a closed loop with a fixed window, and an open loop
//! that sends on a seeded Poisson schedule from one thread while a second
//! thread receives. Every reply is checked against the reference LLRs.

use crate::fixture::same_bits;
use crate::schedule::{poisson_schedule, Rng};
use crate::wire;
use lre_serve::ScoredUtt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sample rate of the rendered audio.
const SAMPLE_RATE: f64 = 8000.0;

/// One request's utterance: duration class and index into its pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Utt {
    pub class: usize,
    pub idx: usize,
}

/// The utterance pools and the generation-0 reference LLRs, both indexed
/// `[class][idx]`.
pub struct Inputs {
    pub pools: [Vec<Vec<f32>>; 3],
    pub refs: [Vec<Vec<f32>>; 3],
}

impl Inputs {
    pub fn samples(&self, u: Utt) -> &[f32] {
        &self.pools[u.class][u.idx]
    }

    pub fn audio_s(&self, u: Utt) -> f64 {
        self.samples(u).len() as f64 / SAMPLE_RATE
    }
}

/// What checking the replies found. A reply from a later model generation
/// cannot be checked against the generation-0 references; it waits in
/// `later` until that generation's bundle is loaded.
#[derive(Default)]
pub struct Checks {
    pub sent: u64,
    pub ok: u64,
    /// Shed, expired or failed by the server (a status instead of LLRs).
    pub refused: u64,
    pub mismatched: u64,
    /// Replies whose id matches no outstanding request.
    pub unmatched: u64,
    pub later: Vec<(u64, Utt, Vec<f32>)>,
}

impl Checks {
    /// Check one reply to a request for `utt`.
    pub fn check(&mut self, inputs: &Inputs, utt: Utt, reply: Result<ScoredUtt, u8>) {
        match reply {
            Err(_) => self.refused += 1,
            Ok(s) if s.generation != 0 => self.later.push((s.generation, utt, s.llrs)),
            Ok(s) if same_bits(&s.llrs, &inputs.refs[utt.class][utt.idx]) => self.ok += 1,
            Ok(_) => self.mismatched += 1,
        }
    }

    /// Requests without a verified scored reply so far.
    pub fn failed(&self) -> u64 {
        self.sent - self.ok - self.later.len() as u64
    }

    pub fn all_correct(&self) -> bool {
        self.mismatched == 0 && self.unmatched == 0 && self.later.is_empty()
    }
}

/// The measured replies of a run or of one rung.
#[derive(Default)]
pub struct Measured {
    pub latencies_ms: Vec<f64>,
    /// When each reply arrived, in seconds after measuring started.
    pub reply_s: Vec<f64>,
    /// Seconds of audio each reply scored.
    pub audio_s: Vec<f64>,
}

impl Measured {
    fn push(&mut self, latency_ms: f64, reply_s: f64, audio_s: f64) {
        self.latencies_ms.push(latency_ms);
        self.reply_s.push(reply_s);
        self.audio_s.push(audio_s);
    }
}

/// Keep `window` requests outstanding on one connection. The first
/// `warmup` requests are checked but not measured; measuring starts when
/// request `warmup` is sent and new requests stop after `seconds`.
/// `on_measured(n)` runs after the `n`-th measured completion.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    plan: &[Utt],
    window: usize,
    warmup: usize,
    seconds: f64,
    checks: &mut Checks,
    mut on_measured: impl FnMut(usize),
) -> Result<Measured, String> {
    let (mut tx, mut rx) = wire::connect(addr)?;
    let mut sent_at: Vec<Instant> = Vec::with_capacity(plan.len());
    let mut send = |sent_at: &mut Vec<Instant>, checks: &mut Checks| -> Result<(), String> {
        let id = sent_at.len();
        let utt = *plan.get(id).ok_or("the closed-loop plan ran out")?;
        sent_at.push(Instant::now());
        checks.sent += 1;
        tx.send(id as u64, inputs.samples(utt))
    };
    for _ in 0..window {
        send(&mut sent_at, checks)?;
    }
    let mut outstanding = window;
    let mut answered = vec![false; plan.len()];
    let mut measured = Measured::default();
    while outstanding > 0 {
        let (id, reply) = rx.recv()?;
        let now = Instant::now();
        outstanding -= 1;
        let id = id as usize;
        // A reply to no request sent, or a second reply to one, matches
        // nothing outstanding.
        if id >= sent_at.len() || std::mem::replace(&mut answered[id], true) {
            checks.unmatched += 1;
            continue;
        }
        let utt = plan[id];
        checks.check(inputs, utt, reply);
        if id >= warmup {
            measured.push(
                now.duration_since(sent_at[id]).as_secs_f64() * 1e3,
                now.duration_since(sent_at[warmup]).as_secs_f64(),
                inputs.audio_s(utt),
            );
            on_measured(measured.latencies_ms.len());
        }
        let measuring_for = sent_at
            .get(warmup)
            .map_or(0.0, |t0| now.duration_since(*t0).as_secs_f64());
        if measuring_for < seconds {
            send(&mut sent_at, checks)?;
            outstanding += 1;
        }
    }
    Ok(measured)
}

/// One rung of the open-loop ladder.
pub struct Step {
    pub rate: f64,
    /// In due-time order; latency runs from the due time, and reply times
    /// from the rung's first due time.
    pub measured: Measured,
    /// How late the generator sent each request.
    pub lag_ms: Vec<f64>,
    /// Requests of this rung without a verified scored reply.
    pub failed: u64,
}

/// Send the ladder's rungs back to back on one connection: rung `k` sends
/// `count` requests at seeded Poisson times at `rate`, and the next rung
/// starts once every reply is in and `after_rung(k)` has run. `plan`
/// holds the utterances of all rungs in order.
pub fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    plan: &[Utt],
    ladder: &[(f64, usize)],
    seed: u64,
    checks: &mut Checks,
    mut after_rung: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<Step>, String> {
    let total: usize = ladder.iter().map(|&(_, n)| n).sum();
    if plan.len() < total {
        return Err("the open-loop plan is shorter than the ladder".into());
    }
    let schedules: Vec<Vec<f64>> = ladder
        .iter()
        .enumerate()
        .map(|(k, &(rate, n))| poisson_schedule(&mut Rng::derive(seed, 100 + k as u64), rate, n))
        .collect();
    let (mut tx, mut rx) = wire::connect(addr)?;
    let received = AtomicUsize::new(0);
    let receiver_failed = AtomicBool::new(false);
    let mut due: Vec<Instant> = Vec::with_capacity(total);
    let mut lag_ms: Vec<f64> = Vec::with_capacity(total);

    let replies = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut replies: Vec<Option<(Instant, Result<ScoredUtt, u8>)>> = vec![None; total];
            let mut unmatched = 0u64;
            for _ in 0..total {
                match rx.recv() {
                    Ok((id, reply)) => {
                        let now = Instant::now();
                        match replies.get_mut(id as usize) {
                            Some(slot @ None) => *slot = Some((now, reply)),
                            _ => unmatched += 1,
                        }
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        receiver_failed.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                }
            }
            Ok((replies, unmatched))
        });
        let sent = (|| -> Result<(), String> {
            for (k, schedule) in schedules.iter().enumerate() {
                let base = Instant::now() + Duration::from_millis(2);
                for &offset in schedule {
                    let id = due.len();
                    let at = base + Duration::from_secs_f64(offset);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    lag_ms.push(Instant::now().duration_since(at).as_secs_f64() * 1e3);
                    due.push(at);
                    tx.send(id as u64, inputs.samples(plan[id]))?;
                }
                let drained_by = Instant::now() + Duration::from_secs(60);
                while received.load(Ordering::SeqCst) < due.len() {
                    if receiver_failed.load(Ordering::SeqCst) {
                        return Ok(()); // the receiver's error is reported
                    }
                    if Instant::now() > drained_by {
                        return Err("replies still outstanding 60 s after a rung".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                after_rung(k)?;
            }
            Ok(())
        })();
        if sent.is_err() {
            // Unblock the receiver: no more replies are coming.
            tx.shutdown();
        }
        let replies = receiver.join().expect("receiver thread panicked");
        sent.and(replies)
    })?;

    let (replies, unmatched) = replies;
    checks.unmatched += unmatched;
    let mut steps = Vec::with_capacity(ladder.len());
    let mut start = 0;
    for &(rate, n) in ladder {
        let ids = start..start + n;
        start += n;
        checks.sent += n as u64;
        let verified_before = checks.ok + checks.later.len() as u64;
        let mut measured = Measured::default();
        for id in ids.clone() {
            let Some((at, reply)) = replies[id].clone() else {
                continue;
            };
            checks.check(inputs, plan[id], reply);
            measured.push(
                at.duration_since(due[id]).as_secs_f64() * 1e3,
                at.duration_since(due[ids.start]).as_secs_f64(),
                inputs.audio_s(plan[id]),
            );
        }
        let verified = checks.ok + checks.later.len() as u64 - verified_before;
        steps.push(Step {
            rate,
            measured,
            lag_ms: lag_ms[ids].to_vec(),
            failed: n as u64 - verified,
        });
    }
    Ok(steps)
}
