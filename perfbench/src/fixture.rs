//! Everything a run needs before it measures: the server binaries, the
//! cached model fixture, the rendered utterance pools and their reference
//! LLRs.

use lre_artifact::ArtifactRead;
use lre_corpus::{render_utterance, Dataset, DatasetConfig, Duration, Scale};
use lre_lattice::DecodeScratch;
use lre_phone::UniversalInventory;
use lre_serve::{ScoringSystem, SystemBundle};
use std::fs;
use std::os::fd::AsFd;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Corpus scale and seed of the model fixture and of the utterance pools
/// (the smoke test split: 138 utterances per duration class).
const SCALE: Scale = Scale::Smoke;
const CORPUS_SEED: u64 = 42;

/// Paths of the real serving binaries, built from the checkout.
pub struct Bins {
    pub serve: PathBuf,
    pub router: PathBuf,
    pub adaptd: PathBuf,
    pub train: PathBuf,
}

/// A child's standard output, sent to ours for errors (our standard output
/// carries only the report).
fn stdout_to_stderr() -> Result<Stdio, String> {
    let fd = std::io::stderr()
        .as_fd()
        .try_clone_to_owned()
        .map_err(|e| format!("duplicating stderr: {e}"))?;
    Ok(Stdio::from(fd))
}

/// Build the workspace's serving binaries (a no-op when they are fresh).
pub fn build_servers(root: &Path) -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bins"])
        .args(["-p", "lre-serve", "-p", "lre-router", "-p", "lre-adapt"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(stdout_to_stderr()?)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the serving binaries failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = |name: &str| target.join("release").join(name);
    Ok(Bins {
        serve: bin("lre-serve"),
        router: bin("lre-router"),
        adaptd: bin("lre-adaptd"),
        train: bin("lre-train-bundle"),
    })
}

/// 64-bit FNV-1a of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn file_hash(path: &Path) -> Result<u64, String> {
    fs::read(path)
        .map(|b| fnv64(&b))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The trained smoke bundle and its guard set.
pub struct Fixture {
    pub bundle: PathBuf,
    pub guard: PathBuf,
    /// Wall seconds the training took (when it ran, or when the cached
    /// copy was made).
    pub train_s: f64,
    pub reused: bool,
}

/// Train the smoke bundle and guard set once, and reuse them afterwards.
/// The cache key is the hash of the training binary itself, so a bundle
/// trained by different training code is never reused.
pub fn fixture(cache: &Path, train_bin: &Path) -> Result<Fixture, String> {
    let key = file_hash(train_bin)?;
    let dir = cache.join(format!("bundle-{key:016x}"));
    let bundle = dir.join("smoke.bundle");
    let guard = dir.join("smoke.guard");
    let stamp = dir.join("train_s");
    if let Ok(text) = fs::read_to_string(&stamp) {
        if let Ok(train_s) = text.trim().parse() {
            return Ok(Fixture {
                bundle,
                guard,
                train_s,
                reused: true,
            });
        }
    }
    let tmp = cache.join(format!("training-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let started = Instant::now();
    let status = Command::new(train_bin)
        .args(["--scale", SCALE.name(), "--seed", &CORPUS_SEED.to_string()])
        .arg("--out")
        .arg(tmp.join("smoke.bundle"))
        .arg("--guard-out")
        .arg(tmp.join("smoke.guard"))
        .stdin(Stdio::null())
        .stdout(stdout_to_stderr()?)
        .status()
        .map_err(|e| format!("running {}: {e}", train_bin.display()))?;
    let train_s = started.elapsed().as_secs_f64();
    if !status.success() {
        let _ = fs::remove_dir_all(&tmp);
        return Err(format!("training the fixture failed ({status})"));
    }
    fs::write(tmp.join("train_s"), format!("{train_s}\n"))
        .and_then(|()| {
            let _ = fs::remove_dir_all(&dir);
            fs::rename(&tmp, &dir)
        })
        .map_err(|e| format!("storing the fixture: {e}"))?;
    Ok(Fixture {
        bundle,
        guard,
        train_s,
        reused: false,
    })
}

/// Load a sealed bundle into an eager in-process scorer.
pub fn system_from_bytes(bytes: &[u8]) -> Result<ScoringSystem, String> {
    SystemBundle::from_artifact_bytes(bytes)
        .and_then(ScoringSystem::from_bundle)
        .map_err(|e| format!("decoding bundle: {e}"))
}

/// The rendered test utterances of each duration class the workload
/// sends, indexed like `Duration::all()`; classes it does not send are
/// empty.
pub fn render_pools(classes: &[usize]) -> [Vec<Vec<f32>>; 3] {
    let ds = Dataset::generate(DatasetConfig::new(SCALE, CORPUS_SEED));
    let inv = UniversalInventory::new();
    let mut pools: [Vec<Vec<f32>>; 3] = Default::default();
    for &c in classes {
        pools[c] = ds
            .test_set(Duration::all()[c])
            .iter()
            .map(|spec| render_utterance(spec, ds.language(spec.language), &inv).samples)
            .collect();
    }
    pools
}

/// Score `utts` in-process on two threads (the host has two cores).
pub fn score_all(system: &ScoringSystem, utts: &[&[f32]]) -> Result<Vec<Vec<f32>>, String> {
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); utts.len()];
    std::thread::scope(|s| {
        let (even, odd): (Vec<_>, Vec<_>) =
            out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
        let workers: Vec<_> = [even, odd]
            .into_iter()
            .map(|part| {
                s.spawn(move || -> Result<(), String> {
                    let mut scratch = DecodeScratch::new();
                    for (i, slot) in part {
                        *slot = system
                            .try_score(utts[i], &mut scratch)
                            .map_err(|e| format!("in-process score: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("reference scorer panicked"))
    })?;
    Ok(out)
}

/// Reference LLRs of one pool under one model, cached on disk. The key
/// holds the hash of this executable (which links the scoring code) and
/// the bundle checksum, so a cached reference is always what this build's
/// in-process `ScoringSystem` computes for that model.
pub fn references(
    cache: &Path,
    exe_hash: u64,
    bundle_crc: u32,
    class: usize,
    system: &ScoringSystem,
    pool: &[Vec<f32>],
) -> Result<Vec<Vec<f32>>, String> {
    let path = cache.join(format!(
        "refs-{exe_hash:016x}-{bundle_crc:08x}-{}.bin",
        Duration::all()[class].name()
    ));
    if let Ok(bytes) = fs::read(&path) {
        if let Some(refs) = decode_refs(&bytes, pool.len()) {
            return Ok(refs);
        }
    }
    let utts: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
    let refs = score_all(system, &utts)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    fs::write(&tmp, encode_refs(&refs))
        .and_then(|()| fs::rename(&tmp, &path))
        .map_err(|e| format!("caching references: {e}"))?;
    Ok(refs)
}

fn encode_refs(refs: &[Vec<f32>]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in refs {
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for x in row {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    out
}

fn decode_refs(bytes: &[u8], rows: usize) -> Option<Vec<Vec<f32>>> {
    let mut words = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = words.next()? as usize;
        let row: Vec<f32> = words.by_ref().take(len).map(f32::from_bits).collect();
        if row.len() != len {
            return None;
        }
        out.push(row);
    }
    (words.next().is_none() && bytes.len().is_multiple_of(4)).then_some(out)
}

/// Bit-for-bit equality of two LLR rows.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_cache_round_trips_bits() {
        let refs = vec![vec![1.5f32, -0.0, f32::MIN_POSITIVE], vec![], vec![3.25]];
        let back = decode_refs(&encode_refs(&refs), 3).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in refs.iter().zip(&back) {
            assert!(same_bits(a, b));
        }
        assert!(decode_refs(&encode_refs(&refs), 2).is_none());
        assert!(decode_refs(&encode_refs(&refs)[..9], 3).is_none());
        assert!(!same_bits(&[0.0], &[-0.0]));
    }
}
