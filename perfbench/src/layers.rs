//! The traced pipeline: one utterance scored by calling each layer's
//! public function in turn, timed from outside, and checked bit for bit
//! against `ScoringSystem::try_score` on the same model.

use crate::fixture::same_bits;
use lre_artifact::ArtifactRead;
use lre_backend::LdaMmiFusion;
use lre_dba::standard_subsystems;
use lre_dsp::FrameConfig;
use lre_eval::ScoreMatrix;
use lre_lattice::{decode_with_scratch, score_all_frames_into_mode, DecodeScratch};
use lre_serve::protocol::{
    decode_request, decode_score_reply_v2, encode_request, encode_score_ok_v2,
};
use lre_serve::system::duration_index_for;
use lre_serve::{Request, ScoredUtt, ScoringSystem, SubsystemBundle, SystemBundle};
use std::time::Instant;

/// Per-front-end stages, in pipeline order.
pub const STAGES: [&str; 7] = [
    "dsp.features_ms",
    "am.transform_ms",
    "am.frame_score_ms",
    "lattice.viterbi_ms",
    "vsm.build_ms",
    "vsm.tfllr_ms",
    "svm.score_ms",
];
const FRAME_SCORE: usize = 2;
const VITERBI: usize = 3;

/// Metric suffix of a front-end: `ANN-HMM HU` → `ann_hu`.
fn frontend_key(spec_index: u8) -> String {
    let name = standard_subsystems()[spec_index as usize].name;
    let family = name.split('-').next().unwrap_or(name);
    let set = name.rsplit(' ').next().unwrap_or(name);
    format!("{}_{}", family.to_lowercase(), set.to_lowercase())
}

/// The bundle's layers, held apart so each can be called on its own.
pub struct Layers {
    subs: Vec<SubsystemBundle>,
    fusions: Vec<LdaMmiFusion>,
    pub keys: Vec<String>,
}

impl Layers {
    pub fn from_bytes(bytes: &[u8]) -> Result<Layers, String> {
        let bundle = SystemBundle::from_artifact_bytes(bytes)
            .map_err(|e| format!("decoding bundle: {e}"))?;
        Ok(Layers {
            keys: bundle
                .subsystems
                .iter()
                .map(|s| frontend_key(s.spec_index))
                .collect(),
            subs: bundle.subsystems,
            fusions: bundle.fusions,
        })
    }
}

/// Accumulated layer times over the traced utterances.
pub struct LayerTimes {
    /// `[front-end][stage]`, milliseconds summed over utterances.
    pub stage_ms: Vec<[f64; STAGES.len()]>,
    /// Frames each front-end scored, summed over utterances.
    pub frames: Vec<f64>,
    pub fusion_ms: f64,
    /// `try_score` wall time of each utterance.
    pub score_ms_each: Vec<f64>,
    /// Utterances whose composed LLRs differ from `try_score`'s.
    pub mismatched: usize,
}

impl LayerTimes {
    pub fn new(frontends: usize) -> LayerTimes {
        LayerTimes {
            stage_ms: vec![[0.0; STAGES.len()]; frontends],
            frames: vec![0.0; frontends],
            fusion_ms: 0.0,
            score_ms_each: Vec::new(),
            mismatched: 0,
        }
    }

    /// Milliseconds per utterance the layers account for. The Viterbi
    /// figure is the decode minus the frame scoring, so frame scoring and
    /// Viterbi together are the decode.
    pub fn attributed_ms(&self) -> f64 {
        let stages: f64 = self.stage_ms.iter().flatten().sum();
        (stages + self.fusion_ms) / self.utts() as f64
    }

    pub fn utts(&self) -> usize {
        self.score_ms_each.len()
    }

    pub fn score_ms_per_utt(&self) -> f64 {
        self.score_ms_each.iter().sum::<f64>() / self.utts() as f64
    }

    /// In-process score time no layer accounts for, per utterance.
    pub fn unattributed_ms(&self) -> f64 {
        self.score_ms_per_utt() - self.attributed_ms()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Score `samples` through the layers one call at a time, adding each
/// call's time to `times`, and return the fused LLRs. Frame scoring is
/// timed by a call of its own, before the decode when `frames_first` and
/// after it otherwise: whichever runs second finds the caches warm, so
/// callers alternate.
fn composed(
    layers: &Layers,
    samples: &[f32],
    scratch: &mut DecodeScratch,
    frame_scores: &mut Vec<f32>,
    frames_first: bool,
    times: &mut LayerTimes,
) -> Vec<f32> {
    let mut mats = Vec::with_capacity(layers.subs.len());
    for (q, sub) in layers.subs.iter().enumerate() {
        let st = &mut times.stage_ms[q];
        let t = Instant::now();
        let mut feats = lre_am::extract_features(samples, sub.am.feature);
        st[0] += ms_since(t);
        let t = Instant::now();
        sub.am.feature_transform.apply(&mut feats);
        st[1] += ms_since(t);
        let mut score_frames = || {
            let t = Instant::now();
            score_all_frames_into_mode(&sub.am, &feats, sub.decoder.scoring, frame_scores);
            ms_since(t)
        };
        let frame_ms = if frames_first { score_frames() } else { 0.0 };
        let t = Instant::now();
        let out = decode_with_scratch(&sub.am, &feats, &sub.decoder, scratch);
        let decode_ms = ms_since(t);
        let frame_ms = if frames_first {
            frame_ms
        } else {
            score_frames()
        };
        st[FRAME_SCORE] += frame_ms;
        st[VITERBI] += decode_ms - frame_ms;
        let t = Instant::now();
        let sv = sub.builder.build(&out.network);
        st[4] += ms_since(t);
        let t = Instant::now();
        let scaled = sub.scaler.transformed(&sv);
        st[5] += ms_since(t);
        let t = Instant::now();
        let mut m = ScoreMatrix::new(sub.vsm.num_classes());
        m.push_row(&sub.vsm.scores(&scaled));
        st[6] += ms_since(t);
        times.frames[q] += feats.num_frames() as f64;
        mats.push(m);
    }
    let di = duration_index_for(FrameConfig::default().num_frames(samples.len()));
    let t = Instant::now();
    let refs: Vec<&ScoreMatrix> = mats.iter().collect();
    let fused = layers.fusions[di].apply(&refs).row(0).to_vec();
    times.fusion_ms += ms_since(t);
    fused
}

/// Trace `utts` through the layers and through `try_score`, alternating
/// which runs first (and where frame scoring is timed) so that no call
/// always finds the caches warm.
pub fn trace(
    layers: &Layers,
    system: &ScoringSystem,
    utts: &[&[f32]],
    times: &mut LayerTimes,
) -> Result<(), String> {
    let mut scratch = DecodeScratch::new();
    let mut frame_scores = Vec::new();
    for (n, samples) in utts.iter().enumerate() {
        let whole = |scratch: &mut DecodeScratch| -> Result<(Vec<f32>, f64), String> {
            let t = Instant::now();
            let llrs = system
                .try_score(samples, scratch)
                .map_err(|e| format!("in-process score: {e}"))?;
            Ok((llrs, ms_since(t)))
        };
        let frames_first = n % 4 < 2;
        let (reference, score_ms, mine) = if n % 2 == 0 {
            let (r, ms) = whole(&mut scratch)?;
            let mine = composed(
                layers,
                samples,
                &mut scratch,
                &mut frame_scores,
                frames_first,
                times,
            );
            (r, ms, mine)
        } else {
            let mine = composed(
                layers,
                samples,
                &mut scratch,
                &mut frame_scores,
                frames_first,
                times,
            );
            let (r, ms) = whole(&mut scratch)?;
            (r, ms, mine)
        };
        times.score_ms_each.push(score_ms);
        if !same_bits(&reference, &mine) {
            times.mismatched += 1;
        }
    }
    Ok(())
}

/// Milliseconds per request to encode a score request, decode it as the
/// server does, encode the reply and decode it as the client does — with
/// the public protocol functions the servers use.
pub fn codec_ms(samples: &[f32], llrs: &[f32], reps: usize) -> Result<f64, String> {
    let started = Instant::now();
    for id in 0..reps as u64 {
        let req = encode_request(&Request::ScoreV2 {
            id,
            deadline_ms: 0,
            samples: samples.to_vec(),
        });
        let Ok(Request::ScoreV2 { samples: got, .. }) = decode_request(&req) else {
            return Err("a score request did not decode as one".into());
        };
        let reply = encode_score_ok_v2(
            id,
            &ScoredUtt {
                llrs: llrs.to_vec(),
                decision: lre_serve::decision(llrs),
                batch_size: 1,
                generation: 0,
                span: None,
                unknown: false,
            },
        );
        let (back, scored) = decode_score_reply_v2(&reply).map_err(|e| format!("{e}"))?;
        if back != id
            || got.len() != samples.len()
            || scored.map(|s| s.llrs.len()) != Ok(llrs.len())
        {
            return Err("a score reply did not round-trip".into());
        }
    }
    Ok(ms_since(started) / reps as f64)
}
