//! The on-disk evaluation cache: a `ResultStore`-style JSONL append log
//! keyed by design fingerprint.
//!
//! Every score's floats are stored as exact bit patterns (`f64::to_bits`
//! hex) alongside a human-readable rendering, so a cached search replays
//! **byte-identically**: the trace a resumed search writes is
//! indistinguishable from the original's. The log is read through
//! `eend_campaign::json::LogReader`, so torn tails, blank lines and
//! damaged lines mean what they mean in the campaign stores (DESIGN.md,
//! "Append-only logs" under "Store codec").

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::fingerprint::{design_fingerprint_with, ProblemFingerprints};
use crate::oracle::{EvalOracle, Score};
use eend_campaign::json::{self, bad_data};
use eend_core::design::Design;
use eend_core::problem::DesignProblem;

const EVALS_FILE: &str = "evals.jsonl";
const MANIFEST_FILE: &str = "manifest.json";

/// A persistent fingerprint → [`Score`] map.
#[derive(Debug)]
pub struct EvalCache {
    dir: PathBuf,
    file: File,
    map: HashMap<u64, Score>,
}

/// Reads one cache line with the workspace's JSON reader. The score
/// comes from the hex bit patterns; the human-readable `enetwork_j` is
/// not read back.
fn parse_line(line: &str) -> io::Result<(u64, Score)> {
    let v = json::parse_json(line)?;
    let text = |key: &str| v.get(key)?.str();
    let hex = |key: &str| {
        let s = text(key)?;
        u64::from_str_radix(s, 16).map_err(|_| bad_data(format!("{key}: bad hex {s:?}")))
    };
    let fp = hex("fp")?;
    let enetwork_j = f64::from_bits(hex("enetwork_b")?);
    let delivered_bits = f64::from_bits(hex("delivered_b")?);
    let ttfd_s = f64::from_bits(hex("ttfd_b")?);
    let overloaded = match text("overloaded")? {
        "t" => true,
        "f" => false,
        other => {
            return Err(bad_data(format!("overloaded: expected \"t\" or \"f\", got {other:?}")))
        }
    };
    let unrouted = text("unrouted")?;
    let unrouted =
        unrouted.parse().map_err(|_| bad_data(format!("unrouted: bad count {unrouted:?}")))?;
    Ok((fp, Score { enetwork_j, delivered_bits, ttfd_s, overloaded, unrouted }))
}

/// One cache line, newline included. `enetwork_j` is written with
/// [`json::write_num`]: a finite value in Rust's shortest round-trip
/// form, a non-finite one as `null`.
fn render_line(fp: u64, s: &Score) -> String {
    let mut line = format!(
        concat!(
            "{{\"fp\":\"{:016x}\",\"enetwork_b\":\"{:016x}\",\"delivered_b\":\"{:016x}\",",
            "\"ttfd_b\":\"{:016x}\",\"overloaded\":\"{}\",\"unrouted\":\"{}\",",
            "\"enetwork_j\":"
        ),
        fp,
        s.enetwork_j.to_bits(),
        s.delivered_bits.to_bits(),
        s.ttfd_s.to_bits(),
        if s.overloaded { "t" } else { "f" },
        s.unrouted,
    );
    json::write_num(&mut line, s.enetwork_j);
    line.push_str("}\n");
    line
}

impl EvalCache {
    /// Opens (or creates) the cache under `dir` for the oracle identified
    /// by `oracle_label`. A directory previously used with a different
    /// oracle or problem is refused — scores are only comparable within
    /// one (oracle, problem) pair, which the manifest pins.
    ///
    /// # Errors
    ///
    /// I/O failures, a manifest mismatch, or a corrupt line in the eval
    /// log, named by its number (a torn final line is truncated away).
    pub fn open(dir: &Path, oracle_label: &str, problem_fp: u64) -> io::Result<EvalCache> {
        fs::create_dir_all(dir)?;
        let manifest =
            format!("{{\"oracle\":\"{oracle_label}\",\"problem_fp\":\"{problem_fp:016x}\"}}\n");
        let manifest_path = dir.join(MANIFEST_FILE);
        match fs::read_to_string(&manifest_path) {
            Ok(existing) => {
                if existing != manifest {
                    return Err(bad_data(format!(
                        "cache at {} belongs to a different oracle/problem:\n  have {}\n  want {}",
                        dir.display(),
                        existing.trim_end(),
                        manifest.trim_end()
                    )));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                eend_campaign::store::write_atomic(&manifest_path, manifest.as_bytes())?;
            }
            Err(e) => return Err(e),
        }

        let evals_path = dir.join(EVALS_FILE);
        let mut map = HashMap::new();
        let mut log = json::LogReader::open(&evals_path)?;
        while let Some((fp, score)) = log.next_decoded(parse_line)? {
            map.insert(fp, score);
        }
        log.repair()?;
        let file = OpenOptions::new().create(true).append(true).open(&evals_path)?;
        Ok(EvalCache { dir: dir.to_path_buf(), file, map })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The cached score for `fp`, if any.
    pub fn get(&self, fp: u64) -> Option<Score> {
        self.map.get(&fp).copied()
    }

    /// Appends a score (no-op if the fingerprint is already present).
    ///
    /// # Errors
    ///
    /// I/O failure on append or flush.
    pub fn insert(&mut self, fp: u64, score: Score) -> io::Result<()> {
        if self.map.contains_key(&fp) {
            return Ok(());
        }
        self.file.write_all(render_line(fp, &score).as_bytes())?;
        self.file.flush()?;
        self.map.insert(fp, score);
        Ok(())
    }
}

/// Memoizes an inner oracle, in memory and (optionally) on disk. The
/// inner oracle's `calls()` only advances on a miss, so
/// `oracle.calls() == 0` after a fully-cached search is the asserted
/// "re-run does zero work" guarantee.
#[derive(Debug)]
pub struct CachedOracle<O> {
    inner: O,
    mem: HashMap<u64, Score>,
    disk: Option<EvalCache>,
    hits: u64,
    problem_fps: ProblemFingerprints,
}

impl<O: EvalOracle> CachedOracle<O> {
    /// Memory-only memoization (one process, no persistence).
    pub fn in_memory(inner: O) -> CachedOracle<O> {
        CachedOracle::with_store(inner, None)
    }

    fn with_store(inner: O, disk: Option<EvalCache>) -> CachedOracle<O> {
        CachedOracle {
            inner,
            mem: HashMap::new(),
            disk,
            hits: 0,
            problem_fps: ProblemFingerprints::default(),
        }
    }

    /// Disk-backed memoization under `dir`, keyed by the inner oracle's
    /// label and the problem fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalCache::open`] failures.
    pub fn on_disk(inner: O, dir: &Path, problem_fp: u64) -> io::Result<CachedOracle<O>> {
        let disk = EvalCache::open(dir, &inner.label(), problem_fp)?;
        Ok(CachedOracle::with_store(inner, Some(disk)))
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The inner oracle (e.g. to read its call counter).
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: EvalOracle> EvalOracle for CachedOracle<O> {
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score {
        let fp = design_fingerprint_with(self.problem_fps.get(problem), design);
        let cached = match &self.disk {
            Some(c) => c.get(fp),
            None => self.mem.get(&fp).copied(),
        };
        if let Some(score) = cached {
            self.hits += 1;
            return score;
        }
        let score = self.inner.evaluate(problem, design);
        match &mut self.disk {
            Some(c) => c.insert(fp, score).expect("eval cache append failed"),
            None => {
                self.mem.insert(fp, score);
            }
        }
        score
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::problem_fingerprint;
    use crate::oracle::FluidOracle;
    use eend_core::design::{Designer, Heuristic};
    use eend_core::problem::{Demand, DesignProblem, WirelessInstance};
    use eend_radio::cards;

    fn problem() -> DesignProblem {
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], cards::cabletron());
        DesignProblem::new(inst, vec![Demand::new(0, 2, 8_000.0)])
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eend-opt-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_scores_bit_exactly() {
        let dir = tempdir("roundtrip");
        let score = Score {
            enetwork_j: 1.0 / 3.0,
            delivered_bits: 8.1e6,
            ttfd_s: f64::INFINITY,
            overloaded: true,
            unrouted: 2,
        };
        {
            let mut c = EvalCache::open(&dir, "test-oracle", 42).unwrap();
            c.insert(7, score).unwrap();
            assert_eq!(c.len(), 1);
        }
        let c = EvalCache::open(&dir, "test-oracle", 42).unwrap();
        let back = c.get(7).unwrap();
        assert_eq!(back.enetwork_j.to_bits(), score.enetwork_j.to_bits());
        assert_eq!(back.delivered_bits.to_bits(), score.delivered_bits.to_bits());
        assert_eq!(back.ttfd_s.to_bits(), score.ttfd_s.to_bits());
        assert_eq!(back.overloaded, score.overloaded);
        assert_eq!(back.unrouted, score.unrouted);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refuses_foreign_manifest() {
        let dir = tempdir("manifest");
        drop(EvalCache::open(&dir, "oracle-a", 1).unwrap());
        assert!(EvalCache::open(&dir, "oracle-b", 1).is_err(), "different oracle");
        assert!(EvalCache::open(&dir, "oracle-a", 2).is_err(), "different problem");
        assert!(EvalCache::open(&dir, "oracle-a", 1).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tolerates_torn_tail_only() {
        let dir = tempdir("torn");
        let score = Score {
            enetwork_j: 2.5,
            delivered_bits: 100.0,
            ttfd_s: 10.0,
            overloaded: false,
            unrouted: 0,
        };
        {
            let mut c = EvalCache::open(&dir, "o", 1).unwrap();
            c.insert(1, score).unwrap();
            c.insert(2, score).unwrap();
        }
        let path = dir.join(EVALS_FILE);
        // Tear the last line mid-record.
        let body = fs::read_to_string(&path).unwrap();
        fs::write(&path, &body[..body.len() - 10]).unwrap();
        let c = EvalCache::open(&dir, "o", 1).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.get(1).is_some() && c.get(2).is_none());
        // Interior corruption is an error.
        fs::write(&path, format!("garbage\n{}", render_line(3, &score))).unwrap();
        assert!(EvalCache::open(&dir, "o", 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_trips_non_finite_scores_as_json() {
        let dir = tempdir("nonfinite");
        let scores = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0].map(|e| Score {
            enetwork_j: e,
            delivered_bits: f64::NAN,
            ttfd_s: f64::INFINITY,
            overloaded: false,
            unrouted: 1,
        });
        {
            let mut c = EvalCache::open(&dir, "o", 1).unwrap();
            for (fp, &score) in scores.iter().enumerate() {
                c.insert(fp as u64, score).unwrap();
            }
        }
        let body = fs::read_to_string(dir.join(EVALS_FILE)).unwrap();
        for line in body.lines() {
            assert!(json::parse_json(line).is_ok(), "not JSON: {line}");
        }
        let c = EvalCache::open(&dir, "o", 1).unwrap();
        for (fp, score) in scores.iter().enumerate() {
            let back = c.get(fp as u64).unwrap();
            assert_eq!(back.enetwork_j.to_bits(), score.enetwork_j.to_bits());
            assert_eq!(back.delivered_bits.to_bits(), score.delivered_bits.to_bits());
            assert_eq!(back.ttfd_s.to_bits(), score.ttfd_s.to_bits());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every truncation of a small log loads exactly its complete lines
    /// (a cut just before a newline leaves a complete line, which is kept
    /// and gets its newline back), and every single-byte flip either
    /// fails naming the flipped line or
    /// loads a map that differs from the original in that line's entry
    /// only. Nothing panics.
    #[test]
    fn corruption_sweep_over_a_small_log() {
        let dir = tempdir("sweep");
        // Fingerprints differ in every hex digit, so no flip of one digit
        // turns one line's key into another's.
        let entries: Vec<(u64, Score)> = [
            (0x0123_4567_89ab_cdef, 1.0 / 3.0, false, 0),
            (0xfedc_ba98_7654_3210, 19_830.103_199_999_998, true, 2),
            (0x5a5a_5a5a_5a5a_5a5a, f64::INFINITY, false, 7),
        ]
        .into_iter()
        .map(|(fp, e, overloaded, unrouted)| {
            (fp, Score { enetwork_j: e, delivered_bits: 8.1e6, ttfd_s: 42.5, overloaded, unrouted })
        })
        .collect();
        let mut log = String::new();
        let mut line_ends = Vec::new();
        for (fp, score) in &entries {
            log.push_str(&render_line(*fp, score));
            line_ends.push(log.len());
        }
        let key = |s: &Score| {
            let bits = (s.enetwork_j.to_bits(), s.delivered_bits.to_bits(), s.ttfd_s.to_bits());
            (bits, s.overloaded, s.unrouted)
        };
        drop(EvalCache::open(&dir, "o", 1).unwrap());
        let path = dir.join(EVALS_FILE);
        let load = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            EvalCache::open(&dir, "o", 1)
                .map(|c| c.map.iter().map(|(&fp, s)| (fp, key(s))).collect::<HashMap<_, _>>())
        };
        let full: HashMap<_, _> = entries.iter().map(|(fp, s)| (*fp, key(s))).collect();
        assert_eq!(load(log.as_bytes()).unwrap(), full);

        for cut in 0..=log.len() {
            let complete = line_ends.iter().filter(|&&end| end <= cut + 1).count();
            let want: HashMap<_, _> =
                entries[..complete].iter().map(|(fp, s)| (*fp, key(s))).collect();
            assert_eq!(load(&log.as_bytes()[..cut]).unwrap(), want, "cut at {cut}");
            let kept = line_ends[..complete].last().copied().unwrap_or(0);
            assert_eq!(fs::metadata(&path).unwrap().len(), kept as u64, "cut at {cut}");
        }

        for at in 0..log.len() {
            let line = line_ends.iter().position(|&end| at < end).unwrap();
            for flip in [0x01u8, 0x02, 0x08, 0x20, 0x80] {
                let mut bytes = log.clone().into_bytes();
                bytes[at] ^= flip;
                match load(&bytes) {
                    Err(e) => assert!(
                        e.to_string().contains(&format!("corrupt line {} in ", line + 1)),
                        "flip {flip:#x} at {at}: {e}"
                    ),
                    Ok(map) => {
                        // Only the flipped line's entry may change: its own
                        // key may lose or change its score, or give way to
                        // one key the log never held.
                        let own = entries[line].0;
                        let changed: Vec<u64> = map
                            .keys()
                            .chain(full.keys())
                            .filter(|&&fp| fp != own && map.get(&fp) != full.get(&fp))
                            .copied()
                            .collect();
                        assert!(
                            changed.len() <= 1 && changed.iter().all(|fp| !full.contains_key(fp)),
                            "flip {flip:#x} at {at} changed {changed:x?}"
                        );
                    }
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_oracle_serves_hits_without_inner_calls() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let dir = tempdir("oracle");
        let fp = problem_fingerprint(&p);
        let first = {
            let mut o = CachedOracle::on_disk(FluidOracle::standard(100.0), &dir, fp).unwrap();
            let s1 = o.evaluate(&p, &d);
            let s2 = o.evaluate(&p, &d);
            assert_eq!(s1, s2);
            assert_eq!(o.calls(), 1, "second evaluate must hit memory");
            assert_eq!(o.hits(), 1);
            s1
        };
        // A fresh process (fresh oracle) answers entirely from disk.
        let mut o = CachedOracle::on_disk(FluidOracle::standard(100.0), &dir, fp).unwrap();
        let s = o.evaluate(&p, &d);
        assert_eq!(o.calls(), 0, "disk hit must not execute the oracle");
        assert_eq!(s.enetwork_j.to_bits(), first.enetwork_j.to_bits());
        fs::remove_dir_all(&dir).unwrap();
    }
}
