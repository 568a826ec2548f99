//! The three workloads: their serving topologies, their load, and the
//! metrics each run reports.

use crate::drive::{closed_loop, open_loop, Checks, Inputs, Measured, Step, Utt};
use crate::fixture::{same_bits, score_all, system_from_bytes, Bins, Fixture};
use crate::layers::{codec_ms, trace, LayerTimes, Layers, STAGES};
use crate::procs::{Fleet, Proc};
use crate::schedule::{mixed_classes, pool_order, Rng, S10, S3, S30};
use crate::stats::{
    backlog_grows, chunk_percentiles, chunk_rates, mean, median, percentile, slo_rate, sorted,
    supported_percentile, StepVerdict,
};
use crate::wire;
use lre_obs::MetricValue;
use lre_serve::{AdaptReport, Client, ScoringSystem, ADAPT_PROMOTED};
use lre_wal::LineageStore;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::mpsc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LongDirect,
    ShortFleet,
    MixedAdapt,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "long_direct" => Some(Workload::LongDirect),
            "short_fleet" => Some(Workload::ShortFleet),
            "mixed_adapt" => Some(Workload::MixedAdapt),
            _ => None,
        }
    }

    /// Duration classes the workload sends.
    pub fn classes(self) -> &'static [usize] {
        match self {
            Workload::LongDirect => &[S30],
            Workload::ShortFleet => &[S3],
            Workload::MixedAdapt => &[S30, S10, S3],
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop window (requests outstanding on the one connection).
const WINDOW: usize = 2;
/// Closed-loop requests checked but not measured at the start.
const WARMUP: usize = 4;
/// `mixed_adapt` sends an adapt request after every this many completions.
const ADAPT_EVERY: usize = 100;
/// Open-loop rate ladder (requests per second) and each rung's share of
/// the run. The rungs below saturation (`GATED_RUNGS`) are the ones the
/// headline latencies and the generator-lag check look at.
const LADDER: [(f64, f64); 4] = [(50.0, 0.55), (90.0, 0.15), (130.0, 0.05), (170.0, 0.1)];
const GATED_RUNGS: usize = 2;
/// The open loop's headline latencies come from the lowest rung: at about
/// 40% load its latency is service time plus wire, batch window and router
/// hop. Higher rungs add queueing, which on a shared two-core host varies
/// too much from run to run to gate on (they are printed instead).
const HEADLINE_RUNG: usize = 0;
/// After the ladder, `short_fleet` measures its capacity with a closed
/// loop of this window through the router (two requests per replica, so
/// neither replica idles), for this share of the run.
const CAPACITY_WINDOW: usize = 4;
const CAPACITY_SHARE: f64 = 0.15;
/// Open-loop requests sent at 50/s before the ladder, not measured.
const OPEN_WARMUP: usize = 20;
/// Tail-latency limit of the open-loop SLO.
const SLO_LIMIT_MS: f64 = 60.0;
/// A run whose generator sent a gated rung's requests later than this
/// (median) fell behind its schedule and did not apply the load it
/// claims, and is invalid. The median, not the tail: a stall of the whole
/// host delays a few sends and every server alike, and the latencies
/// (timed from due time) already carry it.
const GEN_LAG_BOUND_MS: f64 = 2.0;
/// Share of a traced run spent driving load before the in-process layer
/// timing.
const TRACE_LOAD_SHARE: f64 = 0.5;
/// Share of a traced run spent timing layers in-process, besides the
/// probe utterances.
const LAYER_SHARE: f64 = 0.3;
/// Share of a traced run spent on window-1 probes.
const PROBE_SHARE: f64 = 0.1;
/// Fewest window-1 probes a traced run makes.
const MIN_PROBES: usize = 8;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Informational lines, printed before the result.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fold a run's reply checks into the result; an unusable reply makes
    /// the run incorrect, never merely slow.
    fn absorb(&mut self, checks: &Checks) {
        self.attempted += checks.sent;
        self.failed += checks.failed();
        self.correct &= checks.all_correct();
        self.note(format!(
            "replies: sent={} verified={} refused={} mismatched={} unmatched={}",
            checks.sent, checks.ok, checks.refused, checks.mismatched, checks.unmatched
        ));
    }
}

/// What a run is given.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub bins: &'a Bins,
    pub fixture: &'a Fixture,
    pub inputs: &'a Inputs,
    pub system: &'a ScoringSystem,
    pub bundle_bytes: &'a [u8],
    /// Scratch space for WAL directories, removed after the run.
    pub run_dir: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx<'_> {
    /// The seeded request sequence: enough utterances for any rate the
    /// servers could reach in the run.
    fn plan(&self, count: usize) -> Vec<Utt> {
        let order = |class: usize, stream: u64, n: usize| -> Vec<Utt> {
            let pool = self.inputs.pools[class].len();
            pool_order(&mut Rng::derive(self.seed, stream), pool, n)
                .into_iter()
                .map(|idx| Utt { class, idx })
                .collect()
        };
        match self.workload {
            Workload::LongDirect => order(S30, 1, count),
            Workload::ShortFleet => order(S3, 1, count),
            Workload::MixedAdapt => {
                let classes = mixed_classes(&mut Rng::derive(self.seed, 2), count);
                let mut per_class =
                    [S30, S10, S3].map(|c| order(c, 3 + c as u64, count).into_iter());
                classes
                    .into_iter()
                    .map(|c| per_class[c].next().expect("one pool order per request"))
                    .collect()
            }
        }
    }

    fn wal_dir(&self, k: usize) -> PathBuf {
        self.run_dir.join(format!("wal-{k}"))
    }

    /// Start the workload's topology (set-up number `k`).
    fn start_fleet(&self, k: usize) -> Result<Fleet, String> {
        let bundle = &self.fixture.bundle;
        let serve = |workers: &str| {
            let mut cmd = Command::new(&self.bins.serve);
            cmd.arg("--bundle").arg(bundle).args(["--workers", workers]);
            cmd
        };
        match self.workload {
            Workload::LongDirect => Ok(Fleet::new(
                vec![Proc::spawn("lre-serve", serve("2"))?],
                None,
            )),
            Workload::ShortFleet => {
                // Deep queues: above saturation the open loop measures the
                // backlog instead of counting shed requests.
                let replica = || {
                    let mut cmd = serve("1");
                    cmd.args(["--queue", "4096", "--max-inflight", "4096"]);
                    Proc::spawn("lre-serve replica", cmd)
                };
                let replicas = vec![replica()?, replica()?];
                let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr).collect();
                Ok(Fleet::new(replicas, Some(self.router(&addrs)?)))
            }
            Workload::MixedAdapt => {
                let mut cmd = Command::new(&self.bins.adaptd);
                cmd.arg("--bundle")
                    .arg(bundle)
                    .arg("--guard")
                    .arg(&self.fixture.guard)
                    .args(["--workers", "2"])
                    .arg("--wal-dir")
                    .arg(self.wal_dir(k));
                Ok(Fleet::new(vec![Proc::spawn("lre-adaptd", cmd)?], None))
            }
        }
    }

    /// An `lre-router` (least-inflight, deep queue) over `replicas`.
    fn router(&self, replicas: &[SocketAddr]) -> Result<Proc, String> {
        let mut cmd = Command::new(&self.bins.router);
        cmd.args(["--policy", "least-inflight", "--max-inflight", "4096"]);
        for r in replicas {
            cmd.arg("--replica").arg(r.to_string());
        }
        Proc::spawn("lre-router", cmd)
    }

    /// Send one utterance and check the reply bit for bit.
    fn first_reply(&self, addr: SocketAddr) -> Result<(), String> {
        let utt = Utt {
            class: self.workload.classes()[0],
            idx: 0,
        };
        let mut checks = Checks::default();
        closed_loop(addr, self.inputs, &[utt], 1, 0, 0.0, &mut checks, |_| {})?;
        if checks.ok != 1 {
            return Err("the first reply after set-up did not match the reference".into());
        }
        Ok(())
    }

    /// Start the topology `SETUPS` times, timing each start to its first
    /// verified reply; keep the last one running.
    fn set_up(&self, report: &mut Report) -> Result<Fleet, String> {
        let mut times = Vec::with_capacity(SETUPS);
        for k in 0..SETUPS {
            let started = Instant::now();
            let fleet = self.start_fleet(k)?;
            self.first_reply(fleet.entry)?;
            times.push(started.elapsed().as_secs_f64());
            if k + 1 == SETUPS {
                report.metric("setup_s", median(&times), "s");
                report.note(format!("setup_s samples: {times:?}"));
                return Ok(fleet);
            }
            fleet.shutdown()?;
        }
        unreachable!("SETUPS > 0")
    }

    /// Drive the workload's load for `seconds` against a running fleet.
    /// Also returns the fleet's peak resident memory in MiB; for the open
    /// loop it is read after the gated rungs, since above saturation the
    /// queues hold audio without bound.
    fn load(
        &self,
        fleet: &Fleet,
        seconds: f64,
        checks: &mut Checks,
    ) -> Result<(Load, f64), String> {
        let load = match self.workload {
            Workload::LongDirect => {
                let plan = self.plan(WARMUP + (seconds * 100.0) as usize + 100);
                let run = closed_loop(
                    fleet.entry,
                    self.inputs,
                    &plan,
                    WINDOW,
                    WARMUP,
                    seconds,
                    checks,
                    |_| {},
                )?;
                Load::Closed(run, Vec::new())
            }
            Workload::MixedAdapt => {
                let plan = self.plan(WARMUP + (seconds * 300.0) as usize + 100);
                let addr = fleet.entry;
                std::thread::scope(|s| -> Result<Load, String> {
                    let (tx, rx) = mpsc::channel::<()>();
                    let adapter = s.spawn(move || -> Result<Vec<(f64, AdaptReport)>, String> {
                        let mut client =
                            Client::connect(addr).map_err(|e| format!("adapt connection: {e}"))?;
                        let mut cycles = Vec::new();
                        for () in rx {
                            let t = Instant::now();
                            let r = client.adapt().map_err(|e| format!("adapt request: {e}"))?;
                            cycles.push((t.elapsed().as_secs_f64() * 1e3, r));
                        }
                        Ok(cycles)
                    });
                    let run = closed_loop(
                        addr,
                        self.inputs,
                        &plan,
                        WINDOW,
                        WARMUP,
                        seconds,
                        checks,
                        |n| {
                            if n % ADAPT_EVERY == 0 {
                                let _ = tx.send(());
                            }
                        },
                    );
                    drop(tx);
                    let cycles = adapter.join().expect("adapt thread panicked")?;
                    Ok(Load::Closed(run?, cycles))
                })?
            }
            Workload::ShortFleet => {
                let mut ladder = vec![(50.0, OPEN_WARMUP)];
                ladder.extend(LADDER.iter().map(|&(rate, share)| {
                    (rate, (rate * share * seconds).round().max(20.0) as usize)
                }));
                let plan = self.plan(ladder.iter().map(|&(_, n)| n).sum());
                let mut rss = None;
                let mut steps = open_loop(
                    fleet.entry,
                    self.inputs,
                    &plan,
                    &ladder,
                    self.seed,
                    checks,
                    |k| {
                        if k == GATED_RUNGS {
                            rss = Some(fleet.peak_rss_mb()?);
                        }
                        Ok(())
                    },
                )?;
                steps.remove(0); // the warm-up rung
                let plan = self.plan(WARMUP + (seconds * 400.0) as usize + 100);
                let capacity = closed_loop(
                    fleet.entry,
                    self.inputs,
                    &plan,
                    CAPACITY_WINDOW,
                    WARMUP,
                    seconds * CAPACITY_SHARE,
                    checks,
                    |_| {},
                )?;
                let rss = rss.expect("the ladder has its gated rungs");
                return Ok((Load::Open(steps, capacity), rss));
            }
        };
        Ok((load, fleet.peak_rss_mb()?))
    }

    /// Check replies from adapted generations against that generation's
    /// bundle, loaded from the run's lineage store.
    fn check_later_generations(&self, checks: &mut Checks, wal_dir: &Path) -> Result<(), String> {
        if checks.later.is_empty() {
            return Ok(());
        }
        let store = LineageStore::open(&wal_dir.join("lineage"))
            .map_err(|e| format!("opening the lineage: {e}"))?;
        let mut by_gen: BTreeMap<u64, Vec<(Utt, Vec<f32>)>> = BTreeMap::new();
        for (generation, utt, llrs) in checks.later.drain(..) {
            by_gen.entry(generation).or_default().push((utt, llrs));
        }
        for (generation, replies) in by_gen {
            let bytes = store
                .load(generation)
                .map_err(|e| format!("loading generation {generation}: {e}"))?;
            let system = system_from_bytes(&bytes)?;
            let mut utts: Vec<Utt> = replies.iter().map(|(u, _)| *u).collect();
            utts.sort_unstable();
            utts.dedup();
            let samples: Vec<&[f32]> = utts.iter().map(|&u| self.inputs.samples(u)).collect();
            let refs = score_all(&system, &samples)?;
            for (utt, llrs) in replies {
                let i = utts
                    .binary_search(&utt)
                    .expect("deduplicated from these replies");
                if same_bits(&llrs, &refs[i]) {
                    checks.ok += 1;
                } else {
                    checks.mismatched += 1;
                }
            }
        }
        Ok(())
    }

    /// Engine and WAL figures from every scoring server's telemetry.
    fn scrape(&self, fleet: &Fleet) -> Result<Scrape, String> {
        let mut out = Scrape::default();
        let (mut fill, mut batches, mut wait_us, mut waits) = (0.0, 0.0, 0.0, 0.0);
        for addr in fleet.servers() {
            let mut c = Client::connect(addr).map_err(|e| format!("metrics connection: {e}"))?;
            let entries = c
                .metrics()
                .map_err(|e| format!("metrics scrape: {e}"))?
                .ok_or("a server answered the metrics scrape as unsupported")?;
            for (name, value) in &entries {
                let MetricValue::Histogram(h) = value else {
                    continue;
                };
                let (sum, count) = (h.sum as f64, h.count as f64);
                match name.as_str() {
                    "engine.batch.fill" => (fill, batches) = (fill + sum, batches + count),
                    "engine.queue.wait_us" => (wait_us, waits) = (wait_us + sum, waits + count),
                    "wal.fsync_us" => out.wal_fsync_ms = sum / 1e3 / count.max(1.0),
                    _ => {}
                }
            }
            if self.workload == Workload::MixedAdapt {
                let status = c
                    .wal_status()
                    .map_err(|e| format!("wal status: {e}"))?
                    .ok_or("lre-adaptd answered wal-status as unsupported")?;
                let completed = c.stats_v2().map_err(|e| format!("stats: {e}"))?.completed;
                out.wal_appends = status.appended as f64;
                out.wal_fsyncs = status.fsyncs as f64;
                out.accepted_ratio = status.appended as f64 / completed.max(1) as f64;
            }
        }
        out.batch_fill = fill / batches.max(1.0);
        out.queue_wait_ms = wait_us / 1e3 / waits.max(1.0);
        Ok(out)
    }

    /// An untraced run: the end-to-end metrics.
    pub fn measure(&self) -> Result<Report, String> {
        let mut report = Report::new();
        let fleet = self.set_up(&mut report)?;
        let mut checks = Checks::default();
        let (load, rss) = self.load(&fleet, self.seconds, &mut checks)?;
        fleet.shutdown()?;
        self.check_later_generations(&mut checks, &self.wal_dir(SETUPS - 1))?;
        report.absorb(&checks);
        match load {
            Load::Closed(run, cycles) => {
                report.note(tail_note("closed loop", &sorted(&run.latencies_ms)));
                rates(&mut report, &run.reply_s, &run.audio_s, 0.0);
                latencies(&mut report, &run.latencies_ms);
                note_cycles(&mut report, &cycles);
            }
            Load::Open(steps, capacity) => {
                rates(&mut report, &capacity.reply_s, &capacity.audio_s, 0.0);
                latencies(&mut report, &steps[HEADLINE_RUNG].measured.latencies_ms);
                report.correct &= open_loop_notes(&mut report, &steps);
            }
        }
        report.metric("serve_rss_mb", rss, "MiB");
        Ok(report)
    }

    /// A traced run: the per-layer metrics.
    pub fn trace(&self) -> Result<Report, String> {
        let mut report = Report::new();
        let fleet = self.start_fleet(0)?;
        self.first_reply(fleet.entry)?;
        let mut checks = Checks::default();
        let (load, _) = self.load(&fleet, self.seconds * TRACE_LOAD_SHARE, &mut checks)?;

        let scrape = self.scrape(&fleet)?;
        report.metric("engine.batch_fill", scrape.batch_fill, "utts");
        report.metric("engine.queue_wait_ms", scrape.queue_wait_ms, "ms");

        // Window-1 probes: straight to a scoring server and through a
        // router — the fleet's own, or one started in front of the scoring
        // server for the probes, so every workload measures the hop.
        let probe_router = if fleet.routed {
            None
        } else {
            Some(self.router(&[fleet.direct])?)
        };
        let routed = probe_router.as_ref().map_or(fleet.entry, |r| r.addr);
        let targets = [fleet.direct, routed];
        let candidates = self.plan(1000);
        let probe_ms = window_one(
            &targets,
            self.inputs,
            &candidates,
            self.seconds * PROBE_SHARE,
            &mut checks,
        )?;
        let probes = &candidates[..probe_ms[0].len()];
        // Killed, not shut down: a router passes a shutdown on to its
        // replicas.
        drop(probe_router);
        fleet.shutdown()?;
        self.check_later_generations(&mut checks, &self.wal_dir(0))?;
        report.absorb(&checks);

        // In-process layer timing, on a quiet host: the probe utterances
        // first (their score time is the base of the wire overhead), then
        // the workload's sequence until the budget is spent.
        let layers = Layers::from_bytes(self.bundle_bytes)?;
        let mut times = LayerTimes::new(layers.keys.len());
        let probe_samples: Vec<&[f32]> = probes.iter().map(|&u| self.inputs.samples(u)).collect();
        trace(&layers, self.system, &probe_samples, &mut times)?;
        let probe_score_ms = times.score_ms_each.clone();
        let budget = self.seconds * LAYER_SHARE;
        let started = Instant::now();
        let rest = self.plan(probes.len() + 10_000);
        for chunk in rest[probes.len()..].chunks(4) {
            if started.elapsed().as_secs_f64() > budget {
                break;
            }
            let samples: Vec<&[f32]> = chunk.iter().map(|&u| self.inputs.samples(u)).collect();
            trace(&layers, self.system, &samples, &mut times)?;
        }
        if times.mismatched > 0 {
            report.correct = false;
        }
        let n = times.utts() as f64;
        for (q, key) in layers.keys.iter().enumerate() {
            for (s, stage) in STAGES.iter().enumerate() {
                report.metric(format!("{stage}.{key}"), times.stage_ms[q][s] / n, "ms");
            }
            report.metric(format!("frames.{key}"), times.frames[q] / n, "frames");
        }
        report.metric("backend.fusion_ms", times.fusion_ms / n, "ms");
        let unattributed = times.unattributed_ms();
        report.metric("scorer.unattributed_ms", unattributed, "ms");
        let share = unattributed.abs() / times.score_ms_per_utt();
        report.note(format!(
            "layer trace: {} utterances, try_score {:.3} ms/utt, layers {:.3} ms/utt, \
             unattributed {:.2}% (bound {:.0}%), composed == try_score: {}",
            times.utts(),
            times.score_ms_per_utt(),
            times.attributed_ms(),
            share * 100.0,
            UNATTRIBUTED_BOUND * 100.0,
            times.mismatched == 0
        ));
        if share > UNATTRIBUTED_BOUND {
            report.correct = false;
        }

        let codec: Vec<f64> = probes
            .iter()
            .map(|&u| {
                codec_ms(
                    self.inputs.samples(u),
                    &self.inputs.refs[u.class][u.idx],
                    20,
                )
            })
            .collect::<Result<_, _>>()?;
        report.metric("serve.codec_ms", mean(&codec), "ms");
        // Paired by utterance: the same probe in-process, direct, routed.
        report.metric(
            "serve.overhead_ms",
            median_gap(&probe_ms[0], &probe_score_ms),
            "ms",
        );
        report.metric(
            "router.hop_ms",
            median_gap(&probe_ms[1], &probe_ms[0]),
            "ms",
        );

        report.metric("votelog.accepted_ratio", scrape.accepted_ratio, "ratio");
        report.metric("wal.appends", scrape.wal_appends, "count");
        report.metric("wal.fsyncs", scrape.wal_fsyncs, "count");
        report.metric("wal.fsync_ms", scrape.wal_fsync_ms, "ms");
        let cycles = match &load {
            Load::Closed(_, cycles) => cycles.as_slice(),
            Load::Open(..) => &[],
        };
        let per_cycle = |f: &dyn Fn(&(f64, AdaptReport)) -> f64| {
            mean(&cycles.iter().map(f).collect::<Vec<_>>())
        };
        report.metric("adapt.cycle_ms", per_cycle(&|c| c.0), "ms");
        report.metric(
            "adapt.selected",
            per_cycle(&|c| f64::from(c.1.selected)),
            "utts",
        );
        report.metric(
            "adapt.outcome",
            per_cycle(&|c| f64::from(u8::from(c.1.outcome == ADAPT_PROMOTED))),
            "ratio",
        );
        note_cycles(&mut report, cycles);
        Ok(report)
    }
}

/// Largest share of in-process score time the layers may leave
/// unattributed.
const UNATTRIBUTED_BOUND: f64 = 0.05;

enum Load {
    Closed(Measured, Vec<(f64, AdaptReport)>),
    /// The ladder's rungs, and the closed-loop capacity run after them.
    Open(Vec<Step>, Measured),
}

/// Per-layer figures read from the servers' own telemetry. The WAL and
/// vote-log ones stay 0 on workloads without `lre-adaptd`.
#[derive(Default)]
struct Scrape {
    batch_fill: f64,
    queue_wait_ms: f64,
    accepted_ratio: f64,
    wal_appends: f64,
    wal_fsyncs: f64,
    wal_fsync_ms: f64,
}

/// Median of the pairwise differences `a[i] - b[i]`.
fn median_gap(a: &[f64], b: &[f64]) -> f64 {
    let gaps: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&gaps)
}

/// Window-1 latencies in milliseconds, `[target][probe]`: each utterance
/// of `utts` is sent alone to every target in turn, on one connection per
/// target, alternating which target goes first. Probing stops after
/// `budget_s` seconds, but not before `MIN_PROBES` utterances.
fn window_one(
    targets: &[SocketAddr],
    inputs: &Inputs,
    utts: &[Utt],
    budget_s: f64,
    checks: &mut Checks,
) -> Result<Vec<Vec<f64>>, String> {
    let mut conns = targets
        .iter()
        .map(|&a| wire::connect(a))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = vec![Vec::new(); targets.len()];
    let started = Instant::now();
    for (n, &utt) in utts.iter().enumerate() {
        if n >= MIN_PROBES && started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let mut order: Vec<usize> = (0..targets.len()).collect();
        if n % 2 == 1 {
            order.reverse();
        }
        for t in order {
            let (tx, rx) = &mut conns[t];
            let sent = Instant::now();
            checks.sent += 1;
            tx.send(n as u64, inputs.samples(utt))?;
            let (id, reply) = rx.recv()?;
            out[t].push(sent.elapsed().as_secs_f64() * 1e3);
            if id == n as u64 {
                checks.check(inputs, utt, reply);
            } else {
                checks.unmatched += 1;
            }
        }
    }
    Ok(out)
}

/// Throughput and real-time factor from reply times, each the median over
/// chunks of the run (see [`chunk_rates`]).
fn rates(report: &mut Report, reply_s: &[f64], audio_s: &[f64], origin: f64) {
    let qps = chunk_rates(reply_s, &vec![1.0; reply_s.len()], origin);
    let audio_rate = chunk_rates(reply_s, audio_s, origin);
    report.metric("qps", median(&qps), "1/s");
    report.metric("rtf", 1.0 / median(&audio_rate), "s/s");
    report.note(format!("qps per chunk: {}", fmt_list(&qps)));
}

/// The headline latencies, median and 90th percentile, each the median
/// over chunks of the run (see [`chunk_percentiles`]). On `mixed_adapt`
/// half the requests are 3 s utterances, so the p50 of one chunk can land
/// on either side of the gap to the 10 s ones; the median over chunks
/// settles it.
fn latencies(report: &mut Report, latencies_ms: &[f64]) {
    for (p, name) in [(50.0, "latency_p50_ms"), (90.0, "latency_p90_ms")] {
        let chunks = chunk_percentiles(latencies_ms, p);
        report.metric(name, median(&chunks), "ms");
        report.note(format!("{name} per chunk: {}", fmt_list(&chunks)));
    }
}

fn fmt_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(", "))
}

/// The sample count and the highest percentile it supports.
fn tail_note(what: &str, s: &[f64]) -> String {
    match supported_percentile(s.len()) {
        Some(p) => format!(
            "{what}: n={} p50={:.3} ms, highest supported p{p}={:.3} ms, max={:.3} ms",
            s.len(),
            percentile(s, 50.0),
            percentile(s, p),
            s[s.len() - 1]
        ),
        None => format!("{what}: n={} (too few samples for a tail)", s.len()),
    }
}

fn note_cycles(report: &mut Report, cycles: &[(f64, AdaptReport)]) {
    for (ms, r) in cycles {
        report.note(format!(
            "adapt cycle: {ms:.1} ms outcome={} generation={} selected={} drained={}",
            r.outcome, r.generation, r.selected, r.drained
        ));
    }
}

/// Per-rung notes and the open-loop verdicts; false when the generator
/// fell behind on a gated rung.
fn open_loop_notes(report: &mut Report, steps: &[Step]) -> bool {
    let mut valid = true;
    let mut verdicts = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        let s = sorted(&step.measured.latencies_ms);
        let lag = sorted(&step.lag_ms);
        let (lag_p50, lag_p99) = (percentile(&lag, 50.0), percentile(&lag, 99.0));
        let backlog = backlog_grows(&step.measured.latencies_ms);
        let tail = percentile(&s, 99.0);
        report.note(tail_note(&format!("rung r{}", step.rate), &s));
        report.note(format!(
            "rung r{}: sent={} failed={} p99={tail:.3} ms backlog={backlog} \
             gen_lag_ms p50={lag_p50:.3} p99={lag_p99:.3}",
            step.rate,
            step.lag_ms.len(),
            step.failed,
        ));
        if k < GATED_RUNGS && lag_p50 > GEN_LAG_BOUND_MS {
            report.note(format!(
                "invalid: median generator lag {lag_p50:.3} ms exceeds {GEN_LAG_BOUND_MS} ms"
            ));
            valid = false;
        }
        verdicts.push(StepVerdict {
            rate: step.rate,
            tail_ms: tail,
            failed: step.failed,
            backlog,
        });
    }
    report.note(format!(
        "slo_rate_qps={} (p99 <= {SLO_LIMIT_MS} ms, no failures, no growing backlog)",
        slo_rate(&verdicts, SLO_LIMIT_MS)
    ));
    valid
}
