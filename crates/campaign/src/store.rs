//! Resumable on-disk result store and multi-machine shard merging.
//!
//! A [`ResultStore`] is a directory holding one campaign's (or one
//! campaign *shard's*) results durably:
//!
//! - `manifest.json` — campaign name, a deterministic **fingerprint**
//!   of the expanded job list, the total job count, which shard of how
//!   many this store holds, and (for CLI-launched campaigns) the spec
//!   axes, so `eend-cli campaign merge` can re-expand the grid without
//!   re-stating it;
//! - `records.jsonl` — one appended JSON line per finished job, keyed
//!   by the job's global expansion index and carrying the **full**
//!   [`RunMetrics`], written through the streaming executor in job
//!   order and flushed per record.
//!
//! Because every line is self-delimiting and flushed, a killed process
//! loses at most one partial trailing line — which
//! [`ResultStore::open`] detects and ignores. Re-opening the store
//! against the same spec (the fingerprint check refuses a different
//! one) and calling [`ResultStore::run`] again simulates **only the
//! missing jobs**: an interrupted-then-resumed campaign reassembles to
//! the byte-identical [`CampaignResult`] a one-shot run produces.
//!
//! Sharding composes with this: `CampaignSpec::shard(i, n)` slices the
//! job list round-robin, each machine runs its slice into its own
//! store, and [`merge_stores`] reassembles the shards into one result,
//! verifying the fingerprints agree and every job is covered exactly
//! once. [`merge_stores_streaming`] does the same merge straight into a
//! [`RecordSink`], holding one record per store instead of the whole
//! grid — the path `eend-cli campaign merge --csv` runs on.

use crate::executor::{FailurePolicy, JobFailure, JobScheduler};
use crate::json::{bad_data, parse_json, parse_shallow, write_num, write_str, JVal, LogReader};
use crate::report::{json_num, json_str, CampaignResult, Record};
use crate::sink::RecordSink;
use crate::spec::{BaseScenario, CampaignSpec, FailurePlan, Job};
use eend_radio::EnergyReport;
use eend_sim::hash::Fnv1a;
use eend_sim::SimDuration;
use eend_wireless::{stacks, RunMetrics};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Manifest file name inside a store directory.
pub(crate) const MANIFEST_FILE: &str = "manifest.json";
/// Record shard file name inside a store directory.
pub(crate) const RECORDS_FILE: &str = "records.jsonl";
/// Contained-job-failure log inside a store directory.
pub(crate) const FAILURES_FILE: &str = "failures.jsonl";

/// Writes `bytes` to `path` atomically: a unique temp sibling, flushed
/// and synced, then renamed over the destination, followed by a
/// best-effort fsync of the containing directory so the rename itself
/// survives a crash. Readers never observe a half-written file — they
/// see the old content or the new, so a kill mid-write can no longer
/// strand a torn `manifest.json` (or bench record) on disk.
///
/// Failpoints: `fs.write` (before the temp file is written) and
/// `fs.rename` (after the temp file is durable, before the rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| bad_data(format!("cannot atomically write to {}", path.display())))?;
    let tmp = dir.join(format!(".{}.tmp-{}", file_name.to_string_lossy(), std::process::id()));
    let res = (|| {
        eend_fail::io_guard("fs.write")?;
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        eend_fail::io_guard("fs.rename")?;
        std::fs::rename(&tmp, path)?;
        // Not every platform allows opening a directory for sync; the
        // rename is already atomic, this only hardens against power loss.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

// ---------------------------------------------------------------------
// Fingerprinting.

/// A deterministic fingerprint of an expanded campaign: FNV-1a over the
/// campaign name and every job's grid coordinates, seed, and duration.
/// Two machines that expand the same spec compute the same fingerprint;
/// any change to an axis, a seed range, or the horizon changes it —
/// which is how a store refuses to resume under a different spec.
pub fn fingerprint(campaign: &str, jobs: &[Job]) -> u64 {
    let mut h = Fnv1a::default();
    hash_str(&mut h, campaign);
    h.write_u64(jobs.len() as u64);
    for j in jobs {
        h.write_u64(j.index as u64);
        hash_str(&mut h, &j.point.stack.name);
        h.write_u64(j.point.rate_kbps.to_bits());
        h.write_u64(j.point.nodes as u64);
        h.write_u64(j.point.speed_mps.to_bits());
        // The traffic label carries the model's parameters
        // (`TrafficModel::label`) and the radio label names a fixed
        // registry profile, so hashing the labels pins both axes.
        hash_str(&mut h, &j.point.traffic);
        hash_str(&mut h, &j.point.radio);
        hash_str(&mut h, &j.point.failure);
        h.write_u64(j.point.seed);
        h.write_u64(j.scenario.duration.as_nanos());
        // The failure *label* above is free text — hash the actual kill
        // schedule too, or two plans with the same label would collide
        // and a store would resume under different failure injections.
        h.write_u64(j.scenario.node_failures.len() as u64);
        for &(at, node) in &j.scenario.node_failures {
            h.write_u64(at.as_nanos());
            h.write_u64(node as u64);
        }
        // Likewise the radio label: every unnamed builder-supplied mix
        // is spelled "custom", so hash the actual base card and
        // per-node assignment or two different hardware mixes would
        // resume into one store.
        hash_card(&mut h, &j.scenario.card);
        match &j.scenario.card_assignment {
            eend_wireless::CardAssignment::Uniform => h.write_u64(0),
            eend_wireless::CardAssignment::Alternating(cards) => {
                h.write_u64(1 + cards.len() as u64);
                for c in cards {
                    hash_card(&mut h, c);
                }
            }
        }
    }
    h.finish()
}

/// Hashes a radio card's identity: name plus every power-model
/// parameter, so even two cards sharing a name cannot collide.
fn hash_card(h: &mut Fnv1a, c: &eend_radio::RadioCard) {
    hash_str(h, c.name);
    for v in [
        c.p_idle_mw,
        c.p_rx_mw,
        c.p_sleep_mw,
        c.p_base_mw,
        c.alpha2,
        c.path_loss_n,
        c.nominal_range_m,
        c.switch_energy_mj,
    ] {
        h.write_u64(v.to_bits());
    }
}

/// Hashes a string as its length, then its bytes, so adjacent strings
/// cannot trade bytes.
fn hash_str(h: &mut Fnv1a, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

// ---------------------------------------------------------------------
// Spec axes (the CLI-expressible subset of a CampaignSpec).

/// The axes of a CLI-launched campaign, as stored in a manifest so that
/// `merge` (and a resume on another machine) can rebuild the spec
/// without the user re-stating it. Stacks, traffic models and radio
/// profiles are stored by name/label and resolved through their
/// registries ([`eend_wireless::stacks::by_name`],
/// [`eend_wireless::TrafficModel::parse`],
/// [`eend_wireless::radio_profiles::by_name`]); failure plans serialize
/// in full (label + kill schedule). Campaigns whose stacks or profiles
/// are not registry members — typically custom
/// [`crate::spec::CampaignSpec::expand_with`] builders — cannot be
/// represented here and use the job-list APIs directly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecAxes {
    /// Preset family ([`BaseScenario::name`] spelling).
    pub preset: String,
    /// Stack names, in sweep order.
    pub stacks: Vec<String>,
    /// Rate axis (Kbit/s); empty = preset default.
    pub rates: Vec<f64>,
    /// Node-count axis (density preset only).
    pub node_counts: Vec<usize>,
    /// Mobility-speed axis (m/s).
    pub speeds: Vec<f64>,
    /// Traffic-model axis ([`eend_wireless::TrafficModel::label`]
    /// spellings); empty = CBR only.
    pub traffic: Vec<String>,
    /// Radio-profile axis (registry names); empty = uniform only.
    pub radio: Vec<String>,
    /// Failure-plan axis (full plans, not just labels); empty = none.
    pub failures: Vec<FailurePlan>,
    /// Seeded runs per cell.
    pub seeds: u64,
    /// Seed offset.
    pub seed_base: u64,
    /// Duration override in seconds.
    pub secs: Option<u64>,
}

impl SpecAxes {
    /// Captures the axes of `spec` (stacks, traffic models and radio
    /// profiles by name; failure plans in full). Returns `None` when a
    /// stack or radio profile is not a registry member — such a spec
    /// cannot be rebuilt from names alone.
    pub fn of(spec: &CampaignSpec) -> Option<SpecAxes> {
        for s in &spec.stacks {
            if stacks::by_name(&s.name).as_ref() != Some(s) {
                return None;
            }
        }
        for p in &spec.radio_profiles {
            if eend_wireless::radio_profiles::by_name(p.name).as_ref() != Some(p) {
                return None;
            }
        }
        Some(SpecAxes {
            preset: spec.base.name().to_owned(),
            stacks: spec.stacks.iter().map(|s| s.name.clone()).collect(),
            rates: spec.rates_kbps.clone(),
            node_counts: spec.node_counts.clone(),
            speeds: spec.speeds_mps.clone(),
            traffic: spec.traffic_models.iter().map(|m| m.label()).collect(),
            radio: spec.radio_profiles.iter().map(|p| p.name.to_owned()).collect(),
            failures: spec.failures.clone(),
            seeds: spec.seed_count,
            seed_base: spec.seed_base,
            secs: spec.secs,
        })
    }

    /// Rebuilds the [`CampaignSpec`] these axes describe. A failure plan
    /// whose kill time is not a finite, non-negative number of seconds is
    /// refused here, naming the plan and the kill, since expanding it
    /// would panic; kills of nodes beyond the network are caught per job
    /// by [`crate::spec::Job::check_failures`].
    pub fn to_spec(&self, campaign: &str) -> io::Result<CampaignSpec> {
        let base = BaseScenario::parse(&self.preset)
            .ok_or_else(|| bad_data(format!("manifest names unknown preset {:?}", self.preset)))?;
        let mut stack_list = Vec::with_capacity(self.stacks.len());
        for name in &self.stacks {
            stack_list.push(
                stacks::by_name(name)
                    .ok_or_else(|| bad_data(format!("manifest names unknown stack {name:?}")))?,
            );
        }
        let mut traffic = Vec::with_capacity(self.traffic.len());
        for label in &self.traffic {
            traffic.push(eend_wireless::TrafficModel::parse(label).ok_or_else(|| {
                bad_data(format!("manifest names unknown traffic model {label:?}"))
            })?);
        }
        let mut radio = Vec::with_capacity(self.radio.len());
        for name in &self.radio {
            radio.push(eend_wireless::radio_profiles::by_name(name).ok_or_else(|| {
                bad_data(format!("manifest names unknown radio profile {name:?}"))
            })?);
        }
        for plan in &self.failures {
            for &(at, node) in &plan.kills {
                if eend_sim::SimTime::try_from_secs_f64(at).is_none() {
                    return Err(bad_data(format!(
                        "failure plan {:?} kills node {node} at {at} s: a kill time must be \
                         a finite, non-negative number of seconds",
                        plan.label
                    )));
                }
            }
        }
        let mut spec = CampaignSpec::new(campaign, base)
            .stacks(stack_list)
            .rates(self.rates.clone())
            .node_counts(self.node_counts.clone())
            .speeds(self.speeds.clone())
            .traffic(traffic)
            .radio_profiles(radio)
            .failures(self.failures.clone())
            .seeds(self.seeds)
            .seed_base(self.seed_base);
        if let Some(secs) = self.secs {
            spec = spec.secs(secs);
        }
        Ok(spec)
    }

    /// Renders these axes as a JSON object — the `"axes"` value of
    /// `manifest.json`, and the schema `eend-serve`'s submit endpoint
    /// accepts, so a spec submitted over the wire is exactly a `--out`
    /// campaign.
    pub fn to_json(&self) -> String {
        let failures = self
            .failures
            .iter()
            .map(|p| {
                let kills = p
                    .kills
                    .iter()
                    .map(|&(at, node)| format!("[{},{node}]", json_num(at)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{\"label\":{},\"kills\":[{kills}]}}", json_str(&p.label))
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"preset\":{},\"stacks\":[{}],\"rates\":[{}],\
             \"node_counts\":[{}],\"speeds\":[{}],\"traffic\":[{}],\
             \"radio\":[{}],\"failures\":[{failures}],\"seeds\":{},\
             \"seed_base\":{},\"secs\":{}}}",
            json_str(&self.preset),
            self.stacks.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(","),
            self.rates.iter().map(|r| json_num(*r)).collect::<Vec<_>>().join(","),
            self.node_counts.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(","),
            self.speeds.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(","),
            self.traffic.iter().map(|t| json_str(t)).collect::<Vec<_>>().join(","),
            self.radio.iter().map(|r| json_str(r)).collect::<Vec<_>>().join(","),
            self.seeds,
            self.seed_base,
            match self.secs {
                Some(v) => v.to_string(),
                None => "null".to_owned(),
            }
        );
        s
    }

    /// Parses the JSON object form produced by [`SpecAxes::to_json`].
    pub fn from_json(text: &str) -> io::Result<SpecAxes> {
        SpecAxes::from_jval(&parse_json(text)?)
    }

    /// Parses an already-parsed axes object (shared by the manifest
    /// reader and the serve submit endpoint).
    pub(crate) fn from_jval(a: &JVal) -> io::Result<SpecAxes> {
        Ok(SpecAxes {
            preset: a.get("preset")?.str()?.to_owned(),
            stacks: a
                .get("stacks")?
                .arr()?
                .iter()
                .map(|s| s.str().map(str::to_owned))
                .collect::<io::Result<_>>()?,
            rates: a.get("rates")?.arr()?.iter().map(|x| x.f64()).collect::<io::Result<_>>()?,
            node_counts: a
                .get("node_counts")?
                .arr()?
                .iter()
                .map(|x| x.usize())
                .collect::<io::Result<_>>()?,
            speeds: a.get("speeds")?.arr()?.iter().map(|x| x.f64()).collect::<io::Result<_>>()?,
            traffic: a
                .get("traffic")?
                .arr()?
                .iter()
                .map(|t| t.str().map(str::to_owned))
                .collect::<io::Result<_>>()?,
            radio: a
                .get("radio")?
                .arr()?
                .iter()
                .map(|r| r.str().map(str::to_owned))
                .collect::<io::Result<_>>()?,
            failures: a
                .get("failures")?
                .arr()?
                .iter()
                .map(|p| {
                    Ok(FailurePlan {
                        label: p.get("label")?.str()?.to_owned(),
                        kills: p
                            .get("kills")?
                            .arr()?
                            .iter()
                            .map(|k| {
                                let k = k.arr()?;
                                if k.len() != 2 {
                                    return Err(bad_data("kill needs [secs, node]"));
                                }
                                Ok((k[0].f64()?, k[1].usize()?))
                            })
                            .collect::<io::Result<_>>()?,
                    })
                })
                .collect::<io::Result<_>>()?,
            seeds: a.get("seeds")?.u64()?,
            seed_base: a.get("seed_base")?.u64()?,
            secs: match a.get("secs")? {
                JVal::Null => None,
                x => Some(x.u64()?),
            },
        })
    }
}

// ---------------------------------------------------------------------
// Manifest.

/// The identity of a store: which campaign, which expansion (by
/// fingerprint), and which shard of it this directory holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name.
    pub campaign: String,
    /// [`fingerprint`] of the **full** expanded job list (all shards).
    pub fingerprint: u64,
    /// Job count of the full expansion.
    pub total_jobs: usize,
    /// Which shard this store holds (0-based).
    pub shard_index: usize,
    /// Of how many shards (1 = unsharded).
    pub shard_count: usize,
    /// CLI-expressible axes, when the campaign has them.
    pub axes: Option<SpecAxes>,
    /// The [`FailurePolicy`] label this store runs under (`None` =
    /// abort, the default). Stored beside the axes so a *resumed*
    /// campaign keeps the policy it was launched with; not part of the
    /// store's identity, so re-opening with a different policy updates
    /// the manifest instead of refusing.
    pub on_failure: Option<String>,
}

impl Manifest {
    /// The manifest of shard `index`/`count` of `spec` (use `(0, 1)`
    /// for an unsharded store). Captures the axes when expressible.
    pub fn for_spec(spec: &CampaignSpec, index: usize, count: usize) -> Manifest {
        assert!(count > 0 && index < count, "bad shard {index}/{count}");
        let jobs = spec.expand();
        Manifest {
            campaign: spec.name.clone(),
            fingerprint: fingerprint(&spec.name, &jobs),
            total_jobs: jobs.len(),
            shard_index: index,
            shard_count: count,
            axes: SpecAxes::of(spec),
            on_failure: None,
        }
    }

    /// The failure policy this manifest records (absent or unparsable
    /// labels mean the default, [`FailurePolicy::Abort`]).
    pub fn policy(&self) -> FailurePolicy {
        self.on_failure.as_deref().and_then(FailurePolicy::parse).unwrap_or(FailurePolicy::Abort)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"version\":2,\"campaign\":{},\"fingerprint\":\"{:016x}\",\
             \"total_jobs\":{},\"shard_index\":{},\"shard_count\":{}",
            json_str(&self.campaign),
            self.fingerprint,
            self.total_jobs,
            self.shard_index,
            self.shard_count
        );
        match &self.on_failure {
            None => s.push_str(",\"on_failure\":null"),
            Some(p) => {
                let _ = write!(s, ",\"on_failure\":{}", json_str(p));
            }
        }
        match &self.axes {
            None => s.push_str(",\"axes\":null"),
            Some(a) => {
                let _ = write!(s, ",\"axes\":{}", a.to_json());
            }
        }
        s.push_str("}\n");
        s
    }

    fn from_json(text: &str) -> io::Result<Manifest> {
        let v = parse_json(text)?;
        // Version 2 added the traffic/radio/failure axes (and axis
        // identity on record lines); older stores cannot be resumed by
        // this build — say so instead of failing on a missing key.
        let version = v.get("version")?.u64()?;
        if version != 2 {
            return Err(bad_data(format!(
                "store manifest version {version} is not supported by this build \
                 (expected 2); re-run the campaign into a fresh store or merge it \
                 with the binary that wrote it"
            )));
        }
        let fp_hex = v.get("fingerprint")?.str()?;
        let fingerprint = u64::from_str_radix(fp_hex, 16)
            .map_err(|_| bad_data(format!("bad fingerprint {fp_hex:?}")))?;
        let axes = match v.get("axes")? {
            JVal::Null => None,
            a => Some(SpecAxes::from_jval(a)?),
        };
        // Optional: version-2 manifests written before failure policies
        // existed simply lack the key, which means abort (the default).
        let on_failure = match v.get_opt("on_failure")? {
            None | Some(JVal::Null) => None,
            Some(p) => Some(p.str()?.to_owned()),
        };
        Ok(Manifest {
            campaign: v.get("campaign")?.str()?.to_owned(),
            fingerprint,
            total_jobs: v.get("total_jobs")?.usize()?,
            shard_index: v.get("shard_index")?.usize()?,
            shard_count: v.get("shard_count")?.usize()?,
            axes,
            on_failure,
        })
    }
}

// ---------------------------------------------------------------------
// The store.

/// One campaign shard's durable results. See the [module docs](self).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    manifest: Manifest,
    completed: BTreeSet<usize>,
    failures: BTreeMap<usize, JobFailure>,
}

impl ResultStore {
    /// Opens (or creates) the store at `dir` for the campaign `manifest`
    /// describes.
    ///
    /// A fresh directory is initialised with the manifest. An existing
    /// one must carry the **same** manifest — same fingerprint, shard,
    /// and job count — otherwise the store refuses with
    /// [`io::ErrorKind::InvalidData`]: resuming a campaign under a
    /// different spec would silently mix incompatible records.
    /// Completed job ids are recovered from `records.jsonl`; a partial
    /// trailing line (the footprint of a killed process) is ignored.
    pub fn open(dir: impl AsRef<Path>, mut manifest: Manifest) -> io::Result<ResultStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            let existing = read_manifest(&manifest_path)?;
            if existing.fingerprint != manifest.fingerprint
                || existing.total_jobs != manifest.total_jobs
                || existing.shard_index != manifest.shard_index
                || existing.shard_count != manifest.shard_count
                || existing.campaign != manifest.campaign
            {
                return Err(bad_data(format!(
                    "store at {} belongs to campaign {:?} (fingerprint {:016x}, \
                     {} jobs, shard {}/{}) — refusing to resume campaign {:?} \
                     (fingerprint {:016x}, {} jobs, shard {}/{})",
                    dir.display(),
                    existing.campaign,
                    existing.fingerprint,
                    existing.total_jobs,
                    existing.shard_index,
                    existing.shard_count,
                    manifest.campaign,
                    manifest.fingerprint,
                    manifest.total_jobs,
                    manifest.shard_index,
                    manifest.shard_count,
                )));
            }
            // The failure policy is *state*, not identity: an explicit
            // policy on this open wins (and is persisted for the next
            // resume); `None` inherits whatever the store already runs
            // under.
            let effective = manifest.on_failure.clone().or_else(|| existing.on_failure.clone());
            manifest.on_failure = effective;
            if manifest.on_failure != existing.on_failure {
                write_atomic(&manifest_path, manifest.to_json().as_bytes())?;
            }
        } else {
            write_atomic(&manifest_path, manifest.to_json().as_bytes())?;
        }
        let mut store =
            ResultStore { dir, manifest, completed: BTreeSet::new(), failures: BTreeMap::new() };
        store.scan_completed()?;
        store.scan_failures()?;
        Ok(store)
    }

    /// Opens a store that already exists, trusting its on-disk manifest
    /// (the entry point for `merge`, which learns the campaign *from*
    /// the stores). Prefer [`ResultStore::open`] when the expected spec
    /// is known — it cross-checks the fingerprint.
    pub fn open_existing(dir: impl AsRef<Path>) -> io::Result<ResultStore> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = read_manifest(&dir.join(MANIFEST_FILE))?;
        let mut store =
            ResultStore { dir, manifest, completed: BTreeSet::new(), failures: BTreeMap::new() };
        store.scan_completed()?;
        store.scan_failures()?;
        Ok(store)
    }

    /// The manifest this store was opened with.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Global job ids with durable records.
    pub fn completed(&self) -> &BTreeSet<usize> {
        &self.completed
    }

    /// Contained job failures recorded in `failures.jsonl`, keyed by
    /// global job id. A failed job has no record, so it stays
    /// [`ResultStore::pending`] — resuming re-attempts exactly these;
    /// entries whose job has since completed are pruned on open.
    pub fn failures(&self) -> &BTreeMap<usize, JobFailure> {
        &self.failures
    }

    /// The failure policy this store runs under (from its manifest;
    /// absent means [`FailurePolicy::Abort`]).
    pub fn policy(&self) -> FailurePolicy {
        self.manifest.policy()
    }

    /// Re-scans `records.jsonl` for completed job ids, through
    /// [`LogReader`]: a torn final line (a killed writer's append) is
    /// truncated away so the job re-runs, and interior corruption is an
    /// error. A job id outside the campaign or recorded twice is refused.
    fn scan_completed(&mut self) -> io::Result<()> {
        self.completed.clear();
        let mut log = LogReader::open(self.dir.join(RECORDS_FILE))?;
        // Only the id is needed here: check the whole line, keep only its
        // top level.
        while let Some(id) = log.next_decoded(|line| parse_shallow(line)?.get("job")?.usize())? {
            if id >= self.manifest.total_jobs {
                return Err(log.line_error(format!(
                    "record for job {id} out of range ({} total)",
                    self.manifest.total_jobs
                )));
            }
            if !self.completed.insert(id) {
                return Err(log.line_error(format!(
                    "job {id} has more than one record — the store has been corrupted or \
                     merged with itself"
                )));
            }
        }
        log.repair()
    }

    /// Re-scans `failures.jsonl` for contained job failures. The file
    /// is an append-only log read through [`LogReader`] like the record
    /// scan: a job may appear several times across interrupted runs (the
    /// last entry wins), and entries for jobs that have since completed
    /// are stale and dropped.
    fn scan_failures(&mut self) -> io::Result<()> {
        self.failures.clear();
        let mut log = LogReader::open(self.dir.join(FAILURES_FILE))?;
        while let Some(f) = log.next_decoded(|line| {
            let v = parse_json(line)?;
            let attempts = v.get("attempts")?.u64()?;
            Ok(JobFailure {
                job_id: v.get("job")?.usize()?,
                attempts: u32::try_from(attempts)
                    .map_err(|_| bad_data(format!("attempts {attempts} out of range")))?,
                cause: v.get("cause")?.str()?.to_owned(),
            })
        })? {
            self.failures.insert(f.job_id, f);
        }
        log.repair()?;
        let completed = &self.completed;
        self.failures.retain(|id, _| !completed.contains(id));
        Ok(())
    }

    /// This shard's jobs that still lack a durable record, in job order.
    pub fn pending(&self, shard_jobs: &[Job]) -> Vec<Job> {
        shard_jobs.iter().filter(|j| !self.completed.contains(&j.index)).cloned().collect()
    }

    /// `true` when every job of `shard_jobs` has a durable record.
    pub fn is_complete(&self, shard_jobs: &[Job]) -> bool {
        shard_jobs.iter().all(|j| self.completed.contains(&j.index))
    }

    /// Simulates every *missing* job of this shard on `scheduler` (a
    /// private [`crate::Executor`] or the shared [`crate::WorkerPool`]),
    /// appending each record durably (flushed per record) as it streams
    /// out in job order, and returns how many jobs actually ran.
    /// Already-completed jobs are skipped — calling this after an
    /// interruption finishes exactly the remainder. `limit` caps how
    /// many pending jobs run (used by the resume smoke test to simulate
    /// an interruption deterministically).
    ///
    /// `shard_jobs` must be this store's shard slice of the campaign
    /// (`CampaignSpec::shard(shard_index, shard_count)`).
    pub fn run<S: JobScheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        shard_jobs: &[Job],
        limit: Option<usize>,
    ) -> io::Result<usize> {
        let opts = RunOptions { limit, policy: self.policy(), cancel: None };
        let outcome = self.run_with(scheduler, shard_jobs, &opts, |_| {})?;
        Ok(outcome.ran + outcome.failed)
    }

    /// The policy-aware run path under [`ResultStore::run`]: simulates
    /// this shard's missing jobs under `opts.policy`, appending each
    /// record durably in job order, logging contained failures to
    /// `failures.jsonl`, and honouring a cooperative cancel flag — when
    /// `opts.cancel` goes high, the in-flight durable record is
    /// finished, no further jobs are claimed, and the call returns
    /// cleanly with [`RunOutcome::cancelled`] set (resuming later runs
    /// exactly the remainder).
    ///
    /// `observe((id, record))` fires on the calling thread right after
    /// job `id`'s record is durable (written and flushed), in job order,
    /// with the in-memory record that was written. The serve daemon
    /// computes each record's metric row there, so its readers never
    /// parse `records.jsonl` back.
    ///
    /// A run that re-attempts an earlier session's recorded failures
    /// appends their records out of id order; it compacts
    /// `records.jsonl` back to ascending ids before returning, so the
    /// streaming merge's order invariant holds for every finished run.
    ///
    /// Failpoints: `store.flush` (per record append, hit-counted),
    /// `store.bookkeep` (between a record's durable append and its
    /// in-memory bookkeeping, matched on the job id).
    pub fn run_with<S: JobScheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        shard_jobs: &[Job],
        opts: &RunOptions<'_>,
        mut observe: impl FnMut((usize, &Record)),
    ) -> io::Result<RunOutcome> {
        let (idx, cnt) = (self.manifest.shard_index, self.manifest.shard_count);
        for j in shard_jobs {
            if j.index % cnt != idx {
                return Err(bad_data(format!(
                    "job {} does not belong to shard {idx}/{cnt}",
                    j.index
                )));
            }
        }
        let mut todo = self.pending(shard_jobs);
        if let Some(limit) = opts.limit {
            todo.truncate(limit);
        }
        if todo.is_empty() {
            return Ok(RunOutcome { ran: 0, failed: 0, cancelled: false });
        }
        // Re-attempting a job that a *previous* session recorded as
        // failed appends its record after later jobs' records. The
        // streaming merge relies on ascending ids, so such a run
        // compacts the file back into id order afterwards.
        let fills_gap = self
            .completed
            .iter()
            .next_back()
            .is_some_and(|max| todo.first().is_some_and(|j| j.index < *max));
        let mut file =
            OpenOptions::new().create(true).append(true).open(self.dir.join(RECORDS_FILE))?;
        // The last byte offset known to end on a complete record: a
        // failed append truncates back here before any retry, so a
        // partial write can never corrupt an interior line.
        let mut good_len = file.metadata()?.len();
        let failures_path = self.dir.join(FAILURES_FILE);
        // Opened lazily: a fault-free campaign never creates the file.
        let mut failures_file: Option<File> = None;
        let completed = &mut self.completed;
        let failures = &mut self.failures;
        let mut line = String::new();
        let mut ran = 0usize;
        let mut failed = 0usize;
        let cancelled = std::cell::Cell::new(false);
        let cancel_after = |cancelled: &std::cell::Cell<bool>| -> io::Result<()> {
            if opts.cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                cancelled.set(true);
                return Err(io::Error::new(io::ErrorKind::Interrupted, "shutdown requested"));
            }
            Ok(())
        };
        let mut on_record = |i: usize, record: &Record| {
            let id = todo[i].index;
            line.clear();
            record_line_into(&mut line, id, record);
            append_durable(&mut file, &mut good_len, line.as_bytes(), &opts.policy)?;
            // Chaos hook: a kill landing *between* the durable
            // record and the bookkeeping that follows it.
            eend_fail::io_guard_at("store.bookkeep", id as u64)?;
            completed.insert(id);
            ran += 1;
            observe((id, record));
            cancel_after(&cancelled)
        };
        let mut on_failure = |f: &JobFailure| {
            let fw = match failures_file.as_mut() {
                Some(fw) => fw,
                None => failures_file
                    .insert(OpenOptions::new().create(true).append(true).open(&failures_path)?),
            };
            // Failures are rare: a fresh buffer beats sharing the
            // record buffer across both closures.
            let mut fl = String::new();
            let _ = writeln!(
                fl,
                "{{\"job\":{},\"attempts\":{},\"cause\":{}}}",
                f.job_id,
                f.attempts,
                json_str(&f.cause)
            );
            fw.write_all(fl.as_bytes())?;
            failures.insert(f.job_id, f.clone());
            failed += 1;
            cancel_after(&cancelled)
        };
        let result = scheduler.run_jobs_streaming(
            &todo,
            scheduler.default_window(),
            &opts.policy,
            &mut on_record,
            &mut on_failure,
        );
        // A job that failed in an earlier session and succeeded in this
        // one leaves a stale failure entry; prune as open() would.
        let completed = &self.completed;
        self.failures.retain(|id, _| !completed.contains(id));
        drop(file);
        if fills_gap && ran > 0 && (result.is_ok() || cancelled.get()) {
            self.compact_records()?;
        }
        match result {
            Ok(()) => Ok(RunOutcome { ran, failed, cancelled: false }),
            Err(_) if cancelled.get() => Ok(RunOutcome { ran, failed, cancelled: true }),
            Err(e) => Err(e),
        }
    }

    /// Rewrites `records.jsonl` in ascending job-id order (atomically,
    /// temp + rename). Only needed after a run that filled a gap left
    /// by an earlier session's contained failure; fault-free stores are
    /// always appended in order and never pay this.
    fn compact_records(&self) -> io::Result<()> {
        let path = self.dir.join(RECORDS_FILE);
        let mut log = LogReader::open(&path)?;
        let mut entries: Vec<(usize, String)> = Vec::new();
        while let Some(entry) = log
            .next_decoded(|line| Ok((parse_shallow(line)?.get("job")?.usize()?, line.to_owned())))?
        {
            entries.push(entry);
        }
        entries.sort_by_key(|(id, _)| *id);
        let mut out = String::with_capacity(entries.iter().map(|(_, l)| l.len() + 1).sum());
        for (_, line) in entries {
            out.push_str(&line);
            out.push('\n');
        }
        write_atomic(&path, out.as_bytes())
    }

    /// Loads every durable record's metrics, keyed by global job id: a
    /// collector over [`ResultStore::visit_metrics`], which documents
    /// what is accepted and refused.
    pub fn load_metrics(
        &self,
        verify_against: Option<&[Job]>,
    ) -> io::Result<BTreeMap<usize, RunMetrics>> {
        let mut out = BTreeMap::new();
        self.visit_metrics(verify_against, |id, m| {
            out.insert(id, m);
        })?;
        Ok(out)
    }

    /// Hands every durable record's metrics to `visit` as `(global job
    /// id, metrics)`, in file order, reading `records.jsonl` one line at
    /// a time: only the current record is held decoded. When
    /// `verify_against` is given (the full expansion), each record's
    /// stored stack name and seed are cross-checked against the job it
    /// claims to be.
    ///
    /// The file is read through [`LogReader`]: a torn final line reads as
    /// end-of-file, and corruption anywhere else is an error naming the
    /// line, since silently skipping an interior line would drop a
    /// completed job, and a subsequent resume would re-run it and append
    /// a duplicate. A record whose identity or metrics do not decode, and
    /// a duplicate job id, are refused naming their line too: last-wins
    /// would silently hide whichever record lost. On an error, records
    /// visited before it have been handed over already; callers discard
    /// what they collected.
    pub fn visit_metrics(
        &self,
        verify_against: Option<&[Job]>,
        mut visit: impl FnMut(usize, RunMetrics),
    ) -> io::Result<()> {
        let mut log = LogReader::open(self.dir.join(RECORDS_FILE))?;
        let mut seen = BTreeSet::new();
        while let Some(record) = log.next_decoded(StoredRecord::decode)? {
            let id = record.id;
            let job = match verify_against {
                None => None,
                Some(jobs) => Some(jobs.get(id).ok_or_else(|| {
                    log.line_error(format!(
                        "record for job {id} out of range ({} jobs)",
                        jobs.len()
                    ))
                })?),
            };
            let metrics = record.into_metrics(job).map_err(|e| log.line_error(e))?;
            if !seen.insert(id) {
                return Err(log.line_error(format!("job {id} has more than one record")));
            }
            visit(id, metrics);
        }
        Ok(())
    }

    /// Reassembles this (unsharded) store into a [`CampaignResult`] —
    /// shorthand for [`merge_stores`] over one store. `jobs` must be the
    /// full expansion the store was created from.
    pub fn assemble(&self, jobs: &[Job]) -> io::Result<CampaignResult> {
        merge_stores(&[self], jobs)
    }
}

/// Options for [`ResultStore::run_with`].
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    /// Cap on how many pending jobs run (used by the resume smoke test
    /// to simulate an interruption deterministically).
    pub limit: Option<usize>,
    /// What a panicking job does to the run (and how many attempts a
    /// failing record append gets).
    pub policy: FailurePolicy,
    /// Cooperative cancellation: checked after every durable record, so
    /// a graceful shutdown finishes the in-flight record and stops.
    pub cancel: Option<&'a AtomicBool>,
}

/// What a [`ResultStore::run_with`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Jobs whose records were appended durably.
    pub ran: usize,
    /// Jobs whose panics the policy contained (logged to
    /// `failures.jsonl`; still pending for the next resume).
    pub failed: usize,
    /// The run stopped early because the cancel flag went high.
    pub cancelled: bool,
}

/// Reads and parses a store manifest, labelling unreadable content as
/// the probably-torn artefact it is rather than a bare parse error.
/// (New manifests are written via [`write_atomic`], so a torn manifest
/// means an older writer or a non-atomic filesystem was involved.)
pub(crate) fn read_manifest(path: &Path) -> io::Result<Manifest> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        io::Error::new(e.kind(), format!("no store manifest at {}: {e}", path.display()))
    })?;
    Manifest::from_json(&text).map_err(|e| {
        bad_data(format!(
            "store manifest at {} is unreadable: {e} — if this store was written by an \
             older build the manifest may be a torn write from a killed process; \
             re-create the store or restore the manifest from its shard peers",
            path.display()
        ))
    })
}

/// Appends one pre-rendered record line, retrying transient write
/// errors when `policy` allows and truncating the file back to
/// `good_len` before every retry so a partial append never corrupts an
/// interior line (the resume scan refuses interior corruption).
/// Failpoint: `store.flush`, hit-counted per append attempt.
fn append_durable(
    file: &mut File,
    good_len: &mut u64,
    bytes: &[u8],
    policy: &FailurePolicy,
) -> io::Result<()> {
    let attempts = policy.attempts();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let res = eend_fail::io_guard("store.flush").and_then(|()| file.write_all(bytes));
        match res {
            Ok(()) => {
                *good_len += bytes.len() as u64;
                return Ok(());
            }
            Err(e) => {
                // Roll back whatever partial bytes the failed attempt
                // may have landed.
                file.set_len(*good_len)?;
                if attempt >= attempts {
                    return Err(e);
                }
                let delay = policy.backoff_delay(attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// Merges shard stores back into one in-order [`CampaignResult`].
///
/// All stores must carry the same fingerprint and job count as `jobs`
/// (the full expansion), and together they must cover every job exactly
/// once. Each record's stored stack name and seed are cross-checked
/// against the job list as defence in depth.
///
/// This is [`merge_stores_streaming`] into a [`crate::MemorySink`]; use
/// the streaming form directly when the merged records only need to be
/// rendered or aggregated, so the full result never materializes.
pub fn merge_stores(stores: &[&ResultStore], jobs: &[Job]) -> io::Result<CampaignResult> {
    let first = stores.first().ok_or_else(|| bad_data("no stores to merge"))?;
    let campaign = first.manifest.campaign.clone();
    let mut sink = crate::sink::MemorySink::new();
    merge_stores_streaming(stores, jobs, &mut sink)?;
    Ok(CampaignResult { campaign, records: sink.into_records() })
}

/// Streams the union of shard stores' records, in job order, into a
/// [`RecordSink`] — the engine under [`merge_stores`] and `eend-cli
/// campaign merge --csv`.
/// Unlike materializing a [`CampaignResult`], at most one parsed record
/// per store is held at a time (plus whatever the sink retains), so
/// grids larger than RAM still merge.
///
/// The integrity contract of [`merge_stores`] applies: every store must
/// carry the merged expansion's fingerprint and job count, every job
/// must be covered exactly once across the stores, and each record's
/// stored identity is cross-checked against the job it claims to be.
/// The single-pass merge additionally relies on — and enforces — the
/// order [`ResultStore::run`] writes: record ids strictly ascend within
/// each store, so a duplicated or reordered line is refused.
pub fn merge_stores_streaming(
    stores: &[&ResultStore],
    jobs: &[Job],
    sink: &mut dyn RecordSink,
) -> io::Result<()> {
    let first = stores.first().ok_or_else(|| bad_data("no stores to merge"))?;
    let campaign = first.manifest.campaign.clone();
    let fp = fingerprint(&campaign, jobs);
    for s in stores {
        let (dir, m) = (&s.dir, &s.manifest);
        if m.fingerprint != fp || m.total_jobs != jobs.len() || m.campaign != campaign {
            return Err(bad_data(format!(
                "store at {} (campaign {:?}, fingerprint {:016x}, {} jobs) does not \
                 match the expansion being merged (campaign {:?}, fingerprint {fp:016x}, \
                 {} jobs)",
                dir.display(),
                m.campaign,
                m.fingerprint,
                m.total_jobs,
                campaign,
                jobs.len(),
            )));
        }
    }
    let mut cursors = Vec::with_capacity(stores.len());
    for s in stores {
        let mut c = RecordCursor::open(&s.dir)?;
        c.advance()?;
        cursors.push(c);
    }
    for job in jobs {
        let mut found: Option<usize> = None;
        for (ci, c) in cursors.iter().enumerate() {
            if c.head_id() == Some(job.index) {
                if found.is_some() {
                    return Err(bad_data(format!(
                        "job {} appears in more than one store",
                        job.index
                    )));
                }
                found = Some(ci);
            }
        }
        let Some(ci) = found else {
            return Err(bad_data(format!(
                "job {} ({}, seed {}) has no record in any store — campaign incomplete",
                job.index, job.point.stack.name, job.point.seed
            )));
        };
        let cursor = &mut cursors[ci];
        let head = cursor.head.take().expect("head id matched above");
        sink.accept(&head.claim(job)?)?;
        cursor.advance()?;
    }
    // Ascending order means any record the job loop never claimed is
    // still parked at some cursor's head: an out-of-range id.
    for c in &cursors {
        if let Some(id) = c.head_id() {
            return Err(c.log.line_error(format!(
                "record for job {id} is outside the merged expansion ({} jobs)",
                jobs.len()
            )));
        }
    }
    sink.finish()
}

/// A sequential, constant-memory reader over one store's record lines
/// ([`LogReader`] under the hood): holds only the current record,
/// decoded, enforcing strictly ascending job ids (the order
/// [`ResultStore::run`] appends).
struct RecordCursor {
    log: LogReader,
    last_id: Option<usize>,
    head: Option<StoredRecord>,
}

/// A record line decoded once, when a reader reaches it. The line's
/// identity and metrics are decoded eagerly, but their errors surface
/// only when the record is claimed, in the order a claim checks them.
struct StoredRecord {
    id: usize,
    identity: io::Result<(String, u64, String, String)>,
    metrics: io::Result<RunMetrics>,
}

impl StoredRecord {
    /// Decodes a record line; only a line that is not JSON or has no job
    /// id fails here.
    fn decode(line: &str) -> io::Result<StoredRecord> {
        let v = parse_json(line)?;
        let id = v.get("job")?.usize()?;
        let identity = line_identity(&v)
            .map(|(s, seed, t, r)| (s.to_owned(), seed, t.to_owned(), r.to_owned()));
        let metrics = v.get("metrics").and_then(metrics_from_json);
        Ok(StoredRecord { id, identity, metrics })
    }

    /// The metrics, once the stored identity has been checked against
    /// `job` (when given).
    fn into_metrics(self, job: Option<&Job>) -> io::Result<RunMetrics> {
        if let Some(job) = job {
            let (stack, seed, traffic, radio) = self.identity?;
            check_identity((&stack, seed, &traffic, &radio), job)?;
        }
        self.metrics
    }

    /// The record for `job`, whose index is this record's id.
    fn claim(self, job: &Job) -> io::Result<Record> {
        Ok(Record { point: job.point.clone(), metrics: self.into_metrics(Some(job))? })
    }
}

impl RecordCursor {
    fn open(dir: &Path) -> io::Result<RecordCursor> {
        Ok(RecordCursor {
            log: LogReader::open(dir.join(RECORDS_FILE))?,
            last_id: None,
            head: None,
        })
    }

    fn head_id(&self) -> Option<usize> {
        self.head.as_ref().map(|h| h.id)
    }

    /// Reads the next record line into `head`, or leaves it `None` at
    /// end-of-file.
    fn advance(&mut self) -> io::Result<()> {
        self.head = self.log.next_decoded(StoredRecord::decode)?;
        let Some(id) = self.head_id() else { return Ok(()) };
        if let Some(last) = self.last_id.filter(|&last| id <= last) {
            return Err(self.log.line_error(format!(
                "job {id} follows job {last} — records must strictly ascend within a store, \
                 so this line is a duplicate or the file has been reordered"
            )));
        }
        self.last_id = Some(id);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Record (de)serialization.

fn energy_report_into(out: &mut String, r: &EnergyReport) {
    out.push('[');
    let mj = [
        r.idle_mj,
        r.sleep_mj,
        r.switch_mj,
        r.tx_data_mj,
        r.tx_ctrl_mj,
        r.rx_data_mj,
        r.rx_ctrl_mj,
    ];
    for x in mj {
        write_num(out, x);
        out.push(',');
    }
    let _ = write!(
        out,
        "{},{},{},{},{}]",
        r.time_tx.as_nanos(),
        r.time_rx.as_nanos(),
        r.time_idle.as_nanos(),
        r.time_sleep.as_nanos(),
        r.wakeups
    );
}

fn energy_report_from(v: &JVal) -> io::Result<EnergyReport> {
    let a = v.arr()?;
    if a.len() != 12 {
        return Err(bad_data(format!("energy report needs 12 fields, got {}", a.len())));
    }
    Ok(EnergyReport {
        idle_mj: a[0].f64()?,
        sleep_mj: a[1].f64()?,
        switch_mj: a[2].f64()?,
        tx_data_mj: a[3].f64()?,
        tx_ctrl_mj: a[4].f64()?,
        rx_data_mj: a[5].f64()?,
        rx_ctrl_mj: a[6].f64()?,
        time_tx: SimDuration::from_nanos(a[7].u64()?),
        time_rx: SimDuration::from_nanos(a[8].u64()?),
        time_idle: SimDuration::from_nanos(a[9].u64()?),
        time_sleep: SimDuration::from_nanos(a[10].u64()?),
        wakeups: a[11].u64()?,
    })
}

/// Renders one store line: global job id, the point's identity
/// (cross-checked on merge), and the complete metrics. All f64s use
/// Rust's shortest-round-trip formatting, so parsing restores the exact
/// bit pattern and the reassembled result is byte-identical to an
/// in-memory run.
pub(crate) fn record_line_into(out: &mut String, id: usize, record: &Record) {
    let p = &record.point;
    let m = &record.metrics;
    let _ = write!(out, "{{\"job\":{id},\"stack\":");
    write_str(out, &p.stack.name);
    let _ = write!(out, ",\"seed\":{},\"traffic\":", p.seed);
    write_str(out, &p.traffic);
    out.push_str(",\"radio\":");
    write_str(out, &p.radio);
    let _ = write!(
        out,
        ",\"metrics\":{{\"data_sent\":{},\"data_delivered\":{},\"delivered_bits\":",
        m.data_sent, m.data_delivered
    );
    write_num(out, m.delivered_bits);
    let _ = write!(
        out,
        ",\"drops_no_route\":{},\"drops_link_failure\":{},\"drops_buffer\":{},\
         \"drops_ifq\":{},\"rreq_tx\":{},\"rrep_tx\":{},\"rerr_tx\":{},\
         \"dsdv_update_tx\":{},\"atim_tx\":{},\"broadcast_collisions\":{},\
         \"rts_collisions\":{},\"link_failures\":{},\"data_forwarders\":{},\
         \"duration_s\":",
        m.drops_no_route,
        m.drops_link_failure,
        m.drops_buffer,
        m.drops_ifq,
        m.rreq_tx,
        m.rrep_tx,
        m.rerr_tx,
        m.dsdv_update_tx,
        m.atim_tx,
        m.broadcast_collisions,
        m.rts_collisions,
        m.link_failures,
        m.data_forwarders,
    );
    write_num(out, m.duration_s);
    out.push_str(",\"energy_total\":");
    energy_report_into(out, &m.energy_total);
    out.push_str(",\"per_node_energy\":[");
    for (i, r) in m.per_node_energy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        energy_report_into(out, r);
    }
    out.push_str("],\"routes\":[");
    for (i, route) in m.routes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match route {
            None => out.push_str("null"),
            Some(hops) => {
                out.push('[');
                for (k, h) in hops.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{h}");
                }
                out.push(']');
            }
        }
    }
    out.push_str("]}}\n");
}

pub(crate) fn metrics_from_json(v: &JVal) -> io::Result<RunMetrics> {
    Ok(RunMetrics {
        data_sent: v.get("data_sent")?.u64()?,
        data_delivered: v.get("data_delivered")?.u64()?,
        delivered_bits: v.get("delivered_bits")?.f64()?,
        drops_no_route: v.get("drops_no_route")?.u64()?,
        drops_link_failure: v.get("drops_link_failure")?.u64()?,
        drops_buffer: v.get("drops_buffer")?.u64()?,
        drops_ifq: v.get("drops_ifq")?.u64()?,
        rreq_tx: v.get("rreq_tx")?.u64()?,
        rrep_tx: v.get("rrep_tx")?.u64()?,
        rerr_tx: v.get("rerr_tx")?.u64()?,
        dsdv_update_tx: v.get("dsdv_update_tx")?.u64()?,
        atim_tx: v.get("atim_tx")?.u64()?,
        broadcast_collisions: v.get("broadcast_collisions")?.u64()?,
        rts_collisions: v.get("rts_collisions")?.u64()?,
        link_failures: v.get("link_failures")?.u64()?,
        per_node_energy: v
            .get("per_node_energy")?
            .arr()?
            .iter()
            .map(energy_report_from)
            .collect::<io::Result<_>>()?,
        energy_total: energy_report_from(v.get("energy_total")?)?,
        data_forwarders: v.get("data_forwarders")?.usize()?,
        routes: v
            .get("routes")?
            .arr()?
            .iter()
            .map(|r| match r {
                JVal::Null => Ok(None),
                _ => Ok(Some(r.arr()?.iter().map(|h| h.usize()).collect::<io::Result<_>>()?)),
            })
            .collect::<io::Result<_>>()?,
        duration_s: v.get("duration_s")?.f64()?,
    })
}

/// The grid point a record line claims to be: stack name, seed,
/// traffic label and radio label.
type LineIdentity<'v> = (&'v str, u64, &'v str, &'v str);

fn line_identity<'v>(v: &'v JVal) -> io::Result<LineIdentity<'v>> {
    Ok((
        v.get("stack")?.str()?,
        v.get("seed")?.u64()?,
        v.get("traffic")?.str()?,
        v.get("radio")?.str()?,
    ))
}

fn check_identity((stack, seed, traffic, radio): LineIdentity<'_>, job: &Job) -> io::Result<()> {
    let p = &job.point;
    if stack != p.stack.name || seed != p.seed || traffic != p.traffic || radio != p.radio {
        return Err(bad_data(format!(
            "record for job {} claims ({stack:?}, seed {seed}, traffic {traffic:?}, \
             radio {radio:?}) but the spec expands to ({:?}, seed {}, traffic {:?}, radio {:?})",
            job.index, p.stack.name, p.seed, p.traffic, p.radio
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fingerprint_is_sensitive_to_every_axis() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let base = CampaignSpec::new("fp", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![2.0, 4.0])
            .seeds(2)
            .secs(30);
        let fp = |s: &CampaignSpec| fingerprint(&s.name, &s.expand());
        let reference = fp(&base);
        assert_eq!(reference, fp(&base.clone()), "deterministic");
        assert_ne!(reference, fp(&base.clone().rates(vec![2.0, 5.0])));
        assert_ne!(reference, fp(&base.clone().seeds(3)));
        assert_ne!(reference, fp(&base.clone().seed_base(7)));
        assert_ne!(reference, fp(&base.clone().secs(31)));
        assert_ne!(reference, fp(&base.clone().stacks(vec![stacks::dsr_active()])));
        assert_ne!(
            reference,
            fp(&base.clone().traffic(vec![eend_wireless::TrafficModel::Poisson])),
            "traffic axis must change the fingerprint"
        );
        assert_ne!(
            fp(&base.clone().traffic(vec![eend_wireless::TrafficModel::OnOffBurst {
                mean_on_s: 5.0,
                mean_off_s: 5.0
            }])),
            fp(&base.clone().traffic(vec![eend_wireless::TrafficModel::OnOffBurst {
                mean_on_s: 5.0,
                mean_off_s: 9.0
            }])),
            "on/off parameters must not collide"
        );
        assert_ne!(
            reference,
            fp(&base.clone().radio_profiles(vec![eend_wireless::radio_profiles::mixed_hypo()])),
            "radio axis must change the fingerprint"
        );
        // Same failure label, different kill schedule: must differ too.
        let plan =
            |node| crate::FailurePlan { label: "kill".to_owned(), kills: vec![(10.0, node)] };
        assert_ne!(
            fp(&base.clone().failures(vec![plan(3)])),
            fp(&base.clone().failures(vec![plan(5)])),
            "kill schedules with identical labels must not collide"
        );
    }

    #[test]
    fn fingerprint_distinguishes_unnamed_card_mixes() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::{presets, stacks, CardAssignment};
        // Two expand_with builders whose card mixes differ but share the
        // "custom" label: the fingerprint must still tell them apart.
        let spec = CampaignSpec::new("fp", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![4.0])
            .secs(20);
        let with_mix = |cards: Vec<eend_radio::RadioCard>| {
            spec.expand_with(move |p| {
                presets::small_network(p.stack.clone(), p.rate_kbps, p.seed)
                    .with_card_assignment(CardAssignment::Alternating(cards.clone()))
            })
        };
        let a = with_mix(vec![
            eend_radio::cards::cabletron(),
            eend_radio::cards::cabletron(),
            eend_radio::cards::cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
        ]);
        let b = with_mix(vec![
            eend_radio::cards::cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
        ]);
        assert_eq!(a[0].point.radio, "custom");
        assert_eq!(b[0].point.radio, "custom");
        assert_ne!(
            fingerprint("fp", &a),
            fingerprint("fp", &b),
            "identically-labelled card mixes must not collide"
        );
    }

    #[test]
    fn manifest_round_trips_with_and_without_axes() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("mrt", BaseScenario::Density)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_odpm_pc()])
            .node_counts(vec![300, 400])
            .traffic(vec![
                eend_wireless::TrafficModel::Cbr,
                eend_wireless::TrafficModel::OnOffBurst { mean_on_s: 2.5, mean_off_s: 7.5 },
            ])
            .radio_profiles(vec![
                eend_wireless::radio_profiles::uniform(),
                eend_wireless::radio_profiles::sparse_hypo(),
            ])
            .failures(vec![
                crate::FailurePlan::none(),
                crate::FailurePlan::kill("kill-relay", 60.5, 3),
            ])
            .seeds(2)
            .seed_base(10)
            .secs(45);
        let m = Manifest::for_spec(&spec, 1, 3);
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        let axes = back.axes.unwrap();
        let rebuilt = axes.to_spec("mrt").unwrap();
        assert_eq!(rebuilt, spec, "axes must rebuild the exact spec");

        let mut no_axes = Manifest::for_spec(&spec, 0, 1);
        no_axes.axes = None;
        assert_eq!(Manifest::from_json(&no_axes.to_json()).unwrap(), no_axes);

        let mut with_policy = Manifest::for_spec(&spec, 0, 1);
        with_policy.on_failure = Some("retry=3".to_owned());
        let back = Manifest::from_json(&with_policy.to_json()).unwrap();
        assert_eq!(back, with_policy);
        assert_eq!(back.policy(), FailurePolicy::retry(3));
    }

    #[test]
    fn manifests_without_a_policy_key_read_as_abort() {
        // Version-2 manifests written before PR 8 lack "on_failure":
        // they must still load, defaulting to the abort policy.
        let pre_pr8 = r#"{"version":2,"campaign":"old","fingerprint":"00000000000000aa",
            "total_jobs":4,"shard_index":0,"shard_count":1,"axes":null}"#;
        let m = Manifest::from_json(pre_pr8).unwrap();
        assert_eq!(m.on_failure, None);
        assert_eq!(m.policy(), FailurePolicy::Abort);
    }

    #[test]
    fn pre_axis_manifests_are_refused_with_a_version_message() {
        // A version-1 manifest (written before the traffic/radio/failure
        // axes existed) must fail with a version diagnosis, not an
        // opaque missing-key parse error.
        let v1 = r#"{"version":1,"campaign":"old","fingerprint":"00000000000000aa",
            "total_jobs":4,"shard_index":0,"shard_count":1,"axes":null}"#;
        let err = Manifest::from_json(v1).unwrap_err();
        assert!(err.to_string().contains("version 1"), "got: {err}");
        assert!(err.to_string().contains("not supported"), "got: {err}");
    }

    #[test]
    fn record_lines_round_trip_metrics_exactly() {
        use crate::{BaseScenario, CampaignSpec, Executor};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("rt", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![4.0])
            .seeds(1)
            .secs(20);
        let jobs = spec.expand();
        let records = Executor::with_workers(1).run_jobs(&jobs);
        let mut line = String::new();
        record_line_into(&mut line, jobs[0].index, &records[0]);
        let back = StoredRecord::decode(line.trim_end()).unwrap().into_metrics(Some(&jobs[0]));
        let back = back.unwrap();
        assert_eq!(back, records[0].metrics, "full RunMetrics must round-trip bit-exactly");
    }

    #[test]
    fn a_failure_log_line_with_a_mebibyte_cause_loads_promptly() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("big-cause", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![4.0])
            .seeds(2)
            .secs(20);
        let dir = std::env::temp_dir().join(format!("eend-store-big-cause-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap());
        let cause = "panic: ".to_owned() + &"é".repeat(1 << 19);
        let mut line = String::from("{\"job\":1,\"attempts\":3,\"cause\":");
        crate::json::write_str(&mut line, &cause);
        line.push_str("}\n");
        std::fs::write(dir.join(FAILURES_FILE), &line).unwrap();
        let started = std::time::Instant::now();
        let store = ResultStore::open_existing(&dir).unwrap();
        assert!(started.elapsed().as_secs() < 5, "took {:?}", started.elapsed());
        assert_eq!(store.failures()[&1].cause, cause);
        assert_eq!(store.failures()[&1].attempts, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failure_log_line_with_attempts_beyond_u32_is_refused() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        let spec = CampaignSpec::new("wide-attempts", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![4.0])
            .seeds(2)
            .secs(20);
        let dir = std::env::temp_dir().join(format!("eend-store-attempts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap());
        let lines = "{\"job\":0,\"attempts\":4294967295,\"cause\":\"x\"}\n\
                     {\"job\":1,\"attempts\":4294967298,\"cause\":\"y\"}\n";
        std::fs::write(dir.join(FAILURES_FILE), lines).unwrap();
        let err = ResultStore::open_existing(&dir).unwrap_err().to_string();
        assert!(err.contains("corrupt line 2 in "), "got: {err}");
        assert!(err.contains("attempts 4294967298 out of range"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a store directory loads as: completed ids, each record's
    /// metrics, and the failure log's entries.
    type Loaded = (BTreeSet<usize>, BTreeMap<usize, RunMetrics>, BTreeMap<usize, JobFailure>);

    /// Every truncation of a small store's `records.jsonl` or
    /// `failures.jsonl` loads exactly the lines the log policy keeps and
    /// leaves the file at the kept length, and every single-byte flip
    /// either fails naming the flipped line or changes that line's entry
    /// only. Nothing panics.
    #[test]
    fn corruption_sweep_over_a_small_store() {
        use crate::{BaseScenario, CampaignSpec};
        let spec = CampaignSpec::new("sweep", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(3)
            .secs(20);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 12, "every id one flip can reach is in range");
        let dir = std::env::temp_dir().join(format!("eend-store-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap());

        // Ids no flip of one digit turns into another's: records 0, 5, 6
        // and failures 3, 9, in the order the writers append them.
        let mut records = String::new();
        let mut record_ends = Vec::new();
        let mut full_metrics = BTreeMap::new();
        for (k, id) in [0usize, 5, 6].into_iter().enumerate() {
            let node =
                |x: f64| EnergyReport { idle_mj: x, tx_data_mj: x / 3.0, ..Default::default() };
            let metrics = RunMetrics {
                data_sent: 10 + k as u64,
                data_delivered: 7,
                delivered_bits: 512.5 * k as f64,
                drops_no_route: 1,
                drops_link_failure: 0,
                drops_buffer: 2,
                drops_ifq: 0,
                rreq_tx: 3,
                rrep_tx: 4,
                rerr_tx: 0,
                dsdv_update_tx: 0,
                atim_tx: 0,
                broadcast_collisions: 5,
                rts_collisions: 0,
                link_failures: 0,
                per_node_energy: vec![node(1.5 + k as f64), node(0.1)],
                energy_total: node(1.6 + k as f64),
                data_forwarders: 1,
                routes: vec![Some(vec![0, 1]), None],
                duration_s: 20.0,
            };
            let record = Record { point: jobs[id].point.clone(), metrics: metrics.clone() };
            record_line_into(&mut records, id, &record);
            record_ends.push((records.len(), id));
            full_metrics.insert(id, metrics);
        }
        let mut failures = String::new();
        let mut failure_ends = Vec::new();
        let mut full_failures = BTreeMap::new();
        for (id, cause) in [(3usize, "boom — x"), (9, "café")] {
            let f = JobFailure { job_id: id, attempts: 2, cause: cause.to_owned() };
            let _ = write!(failures, "{{\"job\":{id},\"attempts\":2,\"cause\":");
            write_str(&mut failures, cause);
            failures.push_str("}\n");
            failure_ends.push((failures.len(), id));
            full_failures.insert(id, f);
        }

        let load = |records: &[u8], failures: &[u8]| -> io::Result<Loaded> {
            std::fs::write(dir.join(RECORDS_FILE), records).unwrap();
            std::fs::write(dir.join(FAILURES_FILE), failures).unwrap();
            let store = ResultStore::open_existing(&dir)?;
            let metrics = store.load_metrics(Some(&jobs))?;
            Ok((store.completed().clone(), metrics, store.failures().clone()))
        };
        let full_ids: BTreeSet<usize> = full_metrics.keys().copied().collect();
        let full = (full_ids, full_metrics, full_failures);
        assert_eq!(load(records.as_bytes(), failures.as_bytes()).unwrap(), full);

        // Cuts: a line is kept when at most its newline is missing.
        let kept_at = |ends: &[(usize, usize)], cut: usize| -> (usize, BTreeSet<usize>) {
            let kept: Vec<_> = ends.iter().filter(|&&(end, _)| end <= cut + 1).collect();
            (kept.last().map_or(0, |&&(end, _)| end), kept.iter().map(|&&(_, id)| id).collect())
        };
        for cut in 0..=records.len() {
            let (len, ids) = kept_at(&record_ends, cut);
            let got = load(&records.as_bytes()[..cut], failures.as_bytes()).unwrap();
            let want_metrics = full.1.clone().into_iter().filter(|(id, _)| ids.contains(id));
            assert_eq!(got, (ids.clone(), want_metrics.collect(), full.2.clone()), "cut at {cut}");
            let on_disk = std::fs::metadata(dir.join(RECORDS_FILE)).unwrap().len();
            assert_eq!(on_disk, len as u64, "records cut at {cut}");
        }
        for cut in 0..=failures.len() {
            let (len, ids) = kept_at(&failure_ends, cut);
            let got = load(records.as_bytes(), &failures.as_bytes()[..cut]).unwrap();
            let want_failures = full.2.clone().into_iter().filter(|(id, _)| ids.contains(id));
            assert_eq!(
                got,
                (full.0.clone(), full.1.clone(), want_failures.collect()),
                "cut at {cut}"
            );
            let on_disk = std::fs::metadata(dir.join(FAILURES_FILE)).unwrap().len();
            assert_eq!(on_disk, len as u64, "failures cut at {cut}");
        }

        // Flips: an error names the flipped line; a load differs from the
        // full one only in the flipped line's own entry, which may vanish,
        // change, or move to one id the file never held.
        fn only_own_entry_changed<V: PartialEq>(
            got: &BTreeMap<usize, V>,
            full: &BTreeMap<usize, V>,
            own: usize,
        ) -> bool {
            let changed: Vec<usize> = got
                .keys()
                .chain(full.keys())
                .filter(|&&id| id != own && got.get(&id) != full.get(&id))
                .copied()
                .collect();
            changed.len() <= 1 && changed.iter().all(|id| !full.contains_key(id))
        }
        for records_flipped in [true, false] {
            let (text, ends) =
                if records_flipped { (&records, &record_ends) } else { (&failures, &failure_ends) };
            for at in 0..text.len() {
                let line = ends.iter().position(|&(end, _)| at < end).unwrap();
                let own = ends[line].1;
                for flip in [0x01u8, 0x02, 0x08, 0x20, 0x80] {
                    let mut bytes = text.clone().into_bytes();
                    bytes[at] ^= flip;
                    let got = if records_flipped {
                        load(&bytes, failures.as_bytes())
                    } else {
                        load(records.as_bytes(), &bytes)
                    };
                    let ok = match &got {
                        Err(e) => e.to_string().contains(&format!("corrupt line {} in ", line + 1)),
                        Ok((_, metrics, fails)) if records_flipped => {
                            fails == &full.2 && only_own_entry_changed(metrics, &full.1, own)
                        }
                        Ok((ids, metrics, fails)) => {
                            ids == &full.0
                                && metrics == &full.1
                                && only_own_entry_changed(fails, &full.2, own)
                        }
                    };
                    assert!(ok, "flip {flip:#x} at {at} (records: {records_flipped}): {got:?}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Characters drawn axis names are spelled from: JSON's escapes,
    /// control bytes and non-ASCII beside plain letters.
    const NAME_CHARS: &str = "aZ0 -(,\"\\/\n\t\u{1}\u{7f}\u{e9}\u{20ac}\u{1d11e}";

    /// Finite floats a uniform draw would miss: zeros, extremes,
    /// subnormals and values whose shortest form has an exponent.
    const EDGE_F64: &[f64] =
        &[0.0, -0.0, 0.1, 1e-300, 5e-324, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 1e21, 2.5e-7];

    /// Axes drawn from `seed`: every field set, names that need escaping,
    /// finite floats and integers up to their type's maximum.
    fn drawn_axes(seed: u64) -> SpecAxes {
        let mut rng = eend_sim::SimRng::new(seed);
        let chars: Vec<char> = NAME_CHARS.chars().collect();
        let name = |rng: &mut eend_sim::SimRng| -> String {
            (0..rng.range_usize(0, 7)).map(|_| *rng.choose(&chars).unwrap()).collect()
        };
        let float = |rng: &mut eend_sim::SimRng| -> f64 {
            if rng.chance(0.3) {
                *rng.choose(EDGE_F64).unwrap()
            } else {
                rng.range_f64(-1e6, 1e6)
            }
        };
        let int = |rng: &mut eend_sim::SimRng| -> u64 {
            if rng.chance(0.2) {
                u64::MAX - rng.below(2)
            } else {
                rng.below(1000)
            }
        };
        let names = |rng: &mut eend_sim::SimRng| -> Vec<String> {
            (0..rng.range_usize(0, 4)).map(|_| name(rng)).collect()
        };
        let floats = |rng: &mut eend_sim::SimRng| -> Vec<f64> {
            (0..rng.range_usize(0, 4)).map(|_| float(rng)).collect()
        };
        SpecAxes {
            preset: name(&mut rng),
            stacks: names(&mut rng),
            rates: floats(&mut rng),
            node_counts: (0..rng.range_usize(0, 4)).map(|_| int(&mut rng) as usize).collect(),
            speeds: floats(&mut rng),
            traffic: names(&mut rng),
            radio: names(&mut rng),
            failures: (0..rng.range_usize(0, 3))
                .map(|_| FailurePlan {
                    label: name(&mut rng),
                    kills: (0..rng.range_usize(0, 3))
                        .map(|_| (float(&mut rng), int(&mut rng) as usize))
                        .collect(),
                })
                .collect(),
            seeds: int(&mut rng),
            seed_base: int(&mut rng),
            secs: rng.chance(0.5).then(|| int(&mut rng)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any axes survive `to_json` → `from_json` unchanged, and every
        /// strict prefix of their JSON is refused with an error.
        #[test]
        fn spec_axes_round_trip_and_refuse_truncations(seed in 0u64..u64::MAX) {
            let axes = drawn_axes(seed);
            let json = axes.to_json();
            prop_assert_eq!(SpecAxes::from_json(&json).ok(), Some(axes), "{}", json);
            for cut in 0..json.len() {
                let prefix = String::from_utf8_lossy(&json.as_bytes()[..cut]);
                prop_assert!(SpecAxes::from_json(&prefix).is_err(), "accepted {:?}", prefix);
            }
        }

        /// Flipped and arbitrary bytes give axes or an error, never a
        /// panic; whatever parses round-trips.
        #[test]
        fn spec_axes_from_json_never_panics(
            seed in 0u64..u64::MAX,
            edits in proptest::collection::vec((0usize..4096, 0u16..256), 0..6),
            noise in proptest::collection::vec(0u16..256, 0..64),
        ) {
            let mut bytes = drawn_axes(seed).to_json().into_bytes();
            for (at, byte) in edits {
                let at = at % bytes.len();
                bytes[at] = byte as u8;
            }
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            for input in [&bytes, &noise] {
                let text = String::from_utf8_lossy(input);
                if let Ok(axes) = SpecAxes::from_json(&text) {
                    prop_assert_eq!(SpecAxes::from_json(&axes.to_json()).ok(), Some(axes));
                }
            }
        }
    }
}
