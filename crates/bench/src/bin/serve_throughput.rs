//! Serving-throughput harness: single-inflight vs pipelined QPS.
//!
//! Spins up a real [`lre_serve::Server`] (TCP, global batch formation)
//! over a synthetic scorer with a fixed per-utterance compute cost, then
//! drives the same workload through a [`PipelinedClient`] twice: once
//! with a window of 1 (the v1-style one-at-a-time pattern) and once with
//! the full inflight window. The one-at-a-time client pays the
//! dispatcher's coalescing window on every request; the pipelined client
//! keeps the queue non-empty so batches fill instantly — that gap is the
//! speedup this harness pins. Results go to stdout and `BENCH_serve.json`:
//!
//! ```text
//! cargo run -p lre-bench --release --bin serve_throughput -- --require-speedup 2.0
//! ```
//!
//! The harness also times the pipelined workload with the full telemetry
//! bundle (stage histograms, sketches, flight recorder) on vs off, best
//! of three each; `--require-obs-overhead 0.03` turns the measured
//! relative overhead into a CI gate.
//!
//! A synthetic scorer keeps the run seconds-long and deterministic — the
//! bit-faithfulness of the *real* scorer across the wire is pinned by the
//! serve round-trip tests, not here.

use lre_serve::{
    EngineConfig, PipelinedClient, ScoreDetail, ScoreReply, Scorer, ScorerHandle, ServeObs, Server,
    ServerConfig, ServerHooks,
};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Languages in the synthetic reply vector (matches NIST LRE 2009).
const NUM_LANGS: usize = 23;

/// A scorer with a fixed, CPU-bound per-utterance cost and a reply that is
/// a pure function of the samples, so the bench can verify every byte that
/// came back without training an acoustic model.
struct SyntheticScorer {
    busy: Duration,
}

fn synthetic_llrs(samples: &[f32]) -> Vec<f32> {
    let sum: f32 = samples.iter().sum();
    (0..NUM_LANGS).map(|k| sum + k as f32).collect()
}

impl Scorer for SyntheticScorer {
    fn score_utt(
        &self,
        samples: &[f32],
        _scratch: &mut lre_lattice::DecodeScratch,
    ) -> Result<ScoreDetail, lre_artifact::ArtifactError> {
        // Busy-spin rather than sleep: workers should *occupy* their core
        // the way a Viterbi decode does, so worker-count scaling is real.
        let end = Instant::now() + self.busy;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
        Ok(ScoreDetail::from_fused(synthetic_llrs(samples)))
    }
}

struct Args {
    utts: usize,
    busy_us: u64,
    workers: usize,
    max_batch: usize,
    max_wait_ms: u64,
    inflight: usize,
    require_speedup: Option<f64>,
    require_obs_overhead: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            utts: 64,
            busy_us: 300,
            workers: 2,
            max_batch: 8,
            max_wait_ms: 20,
            inflight: 8,
            require_speedup: None,
            require_obs_overhead: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |what: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{what} needs a value"))
                    .parse::<f64>()
                    .unwrap_or_else(|e| panic!("bad value for {what}: {e}"))
            };
            match flag.as_str() {
                "--utts" => args.utts = val("--utts") as usize,
                "--busy-us" => args.busy_us = val("--busy-us") as u64,
                "--workers" => args.workers = val("--workers") as usize,
                "--max-batch" => args.max_batch = val("--max-batch") as usize,
                "--max-wait-ms" => args.max_wait_ms = val("--max-wait-ms") as u64,
                "--inflight" => args.inflight = val("--inflight") as usize,
                "--require-speedup" => args.require_speedup = Some(val("--require-speedup")),
                "--require-obs-overhead" => {
                    args.require_obs_overhead = Some(val("--require-obs-overhead"))
                }
                other => panic!("unknown flag {other} (see --help in source)"),
            }
        }
        args.utts = args.utts.max(1);
        args.inflight = args.inflight.max(2);
        args
    }
}

/// Time one full pass of the workload at the given window; panics if any
/// reply is not a bit-faithful score (the bench is also a correctness check).
fn timed_pass(client: &mut PipelinedClient, utts: &[Vec<f32>], window: usize) -> f64 {
    let t0 = Instant::now();
    let replies = client.score_all(utts, window, None).expect("score_all");
    let secs = t0.elapsed().as_secs_f64();
    for (i, r) in replies.iter().enumerate() {
        match r {
            ScoreReply::Scored(s) => {
                assert_eq!(
                    s.llrs,
                    synthetic_llrs(&utts[i]),
                    "utt {i} came back with wrong LLRs at window {window}"
                );
            }
            other => panic!("utt {i} not scored at window {window}: {other:?}"),
        }
    }
    secs
}

fn server_config(args: &Args) -> ServerConfig {
    ServerConfig {
        engine: EngineConfig {
            workers: args.workers,
            max_batch: args.max_batch,
            max_wait: Duration::from_millis(args.max_wait_ms),
            queue_capacity: (args.inflight * 4).max(64),
            fast_math: false,
            unknown_threshold: None,
        },
        max_inflight: args.inflight,
        max_global_inflight: 0,
    }
}

/// The telemetry-overhead leg: run the pipelined workload against a fresh
/// server with telemetry `obs_on` or off, best of `passes`, and return the
/// winning wall time. Fresh server + connection per leg so neither leg
/// inherits the other's warmed state.
fn obs_leg(args: &Args, utts: &[Vec<f32>], obs_on: bool, passes: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let obs = obs_on.then(|| ServeObs::new(256));
    let handle = Arc::new(ScorerHandle::new(
        Arc::new(SyntheticScorer {
            busy: Duration::from_micros(args.busy_us),
        }),
        0,
    ));
    let server = Server::start_adaptive(
        listener,
        handle,
        server_config(args),
        ServerHooks {
            obs: obs.clone(),
            ..ServerHooks::default()
        },
    )
    .expect("server start");
    let mut client = PipelinedClient::connect(server.local_addr()).expect("connect");
    let _ = timed_pass(&mut client, &utts[..utts.len().min(8)], 2); // warm up
    let best = (0..passes.max(1))
        .map(|_| timed_pass(&mut client, utts, args.inflight))
        .fold(f64::INFINITY, f64::min);
    client.shutdown().expect("shutdown");
    server.join();
    best
}

fn main() {
    let args = Args::parse();
    let utts: Vec<Vec<f32>> = (0..args.utts)
        .map(|i| {
            // Deterministic, distinct per-utterance payloads.
            (0..160)
                .map(|t| ((i * 31 + t) % 97) as f32 * 0.01)
                .collect()
        })
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::start(
        listener,
        Arc::new(SyntheticScorer {
            busy: Duration::from_micros(args.busy_us),
        }),
        server_config(&args),
    )
    .expect("server start");
    let addr = server.local_addr();
    eprintln!(
        "[serve_throughput] server on {addr}: workers={}, max_batch={}, max_wait={}ms, inflight={}",
        args.workers, args.max_batch, args.max_wait_ms, args.inflight
    );

    let mut client = PipelinedClient::connect(addr).expect("connect");
    // Warm up connections, threads and allocator before timing anything.
    let _ = timed_pass(&mut client, &utts[..args.utts.min(8)], 2);

    let single_s = timed_pass(&mut client, &utts, 1);
    let pipelined_s = timed_pass(&mut client, &utts, args.inflight);

    let single_qps = args.utts as f64 / single_s.max(1e-9);
    let pipelined_qps = args.utts as f64 / pipelined_s.max(1e-9);
    let speedup = pipelined_qps / single_qps.max(1e-9);

    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    server.join();
    assert_eq!(stats.rejected, 0, "bench must not trip its own window");
    assert_eq!(stats.expired + stats.failed, 0, "no deadlines or failures");

    println!(
        "{:<22} | {:>9} | {:>11} | {:>9}",
        "pass", "wall s", "QPS", "ms/utt"
    );
    for (name, secs, qps) in [
        ("single-inflight", single_s, single_qps),
        ("pipelined", pipelined_s, pipelined_qps),
    ] {
        println!(
            "{:<22} | {:>9.3} | {:>11.1} | {:>9.3}",
            name,
            secs,
            qps,
            1e3 * secs / args.utts as f64
        );
    }
    println!(
        "speedup: {speedup:.2}x (window {} vs 1), batches formed: {}, max queue depth: {}",
        args.inflight, stats.batches, stats.max_queue_depth
    );

    // Telemetry overhead: the same pipelined workload against a server
    // with the full telemetry bundle (histograms, sketches, stage timing)
    // vs one without, best of 3 each. The off leg is the exact code path
    // a telemetry-less engine ran before the obs wiring existed.
    let off_s = obs_leg(&args, &utts, false, 3);
    let on_s = obs_leg(&args, &utts, true, 3);
    let obs_overhead = (on_s - off_s) / off_s.max(1e-9);
    println!(
        "telemetry overhead: {:.2}% (off {:.3}s vs on {:.3}s, best of 3)",
        obs_overhead * 100.0,
        off_s,
        on_s
    );

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\"config\":{{\"utts\":{},\"busy_us\":{},\"workers\":{},",
            "\"max_batch\":{},\"max_wait_ms\":{},\"inflight\":{}}},",
            "\"single\":{{\"wall_s\":{:.6},\"qps\":{:.2}}},",
            "\"pipelined\":{{\"wall_s\":{:.6},\"qps\":{:.2}}},",
            "\"speedup\":{:.3},",
            "\"obs\":{{\"off_wall_s\":{:.6},\"on_wall_s\":{:.6},\"overhead\":{:.4}}},",
            "\"engine\":{{\"requests\":{},\"completed\":{},\"batches\":{},",
            "\"batched_utts\":{},\"max_queue_depth\":{}}}}}\n"
        ),
        args.utts,
        args.busy_us,
        args.workers,
        args.max_batch,
        args.max_wait_ms,
        args.inflight,
        single_s,
        single_qps,
        pipelined_s,
        pipelined_qps,
        speedup,
        off_s,
        on_s,
        obs_overhead,
        stats.requests,
        stats.completed,
        stats.batches,
        stats.batched_utts,
        stats.max_queue_depth,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    eprintln!("[serve_throughput] wrote BENCH_serve.json");

    if let Some(floor) = args.require_speedup {
        if speedup < floor {
            eprintln!("[serve_throughput] FAIL: speedup {speedup:.2}x < required {floor:.2}x");
            std::process::exit(1);
        }
        eprintln!("[serve_throughput] OK: speedup {speedup:.2}x >= {floor:.2}x");
    }
    if let Some(cap) = args.require_obs_overhead {
        if obs_overhead > cap {
            eprintln!(
                "[serve_throughput] FAIL: telemetry overhead {:.2}% > allowed {:.2}%",
                obs_overhead * 100.0,
                cap * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "[serve_throughput] OK: telemetry overhead {:.2}% <= {:.2}%",
            obs_overhead * 100.0,
            cap * 100.0
        );
    }
}
