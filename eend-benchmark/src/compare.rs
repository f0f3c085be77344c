//! `eend-benchmark compare --base A.json.. --head B.json..`: the rule of
//! the choosing-metrics guide applied to two sets of result files.
//!
//! Files are paired in the order given (base[i] with head[i]), so they
//! should come from alternating runs. A metric *improved* when at least
//! ten pairs ran, the head wins at least nine tenths of them (ties count
//! for neither side) and the medians differ by more than the base runs'
//! interquartile range. It *regressed* when the head median is worse
//! than the base median by more than the metric's bound in
//! `BENCHMARK.json`. It is *unresolved* when the base runs spread wider
//! than the bound, unless every head run beats every base run.

use crate::json::{self, Json};
use crate::{metrics, stats};
use std::collections::BTreeMap;

/// Minimum pairs before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;
/// Share of pairs the head must win to claim a gain.
pub const MIN_WIN_FRACTION: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs the head wins, then the verdict. `bound` is `None`
/// for per-layer metrics, which can only be found improved.
pub fn verdict(
    base: &[f64],
    head: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> (f64, Verdict) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(h, b))
        .count();
    let win = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (q1, base_med, q3) = stats::quartiles(base);
    let head_med = stats::median(head);
    if pairs >= MIN_PAIRS
        && win >= MIN_WIN_FRACTION
        && better(head_med, base_med)
        && (head_med - base_med).abs() > q3 - q1
    {
        return (win, Verdict::Improved);
    }
    let Some(bound) = bound else {
        return (win, Verdict::Unresolved);
    };
    let every_head_better = base.iter().all(|&b| head.iter().all(|&h| better(h, b)));
    if stats::spread(base) > bound && !every_head_better {
        return (win, Verdict::Unresolved);
    }
    let worse_by = if base_med == 0.0 {
        0.0
    } else if higher_is_better {
        (base_med - head_med) / base_med.abs()
    } else {
        (head_med - base_med) / base_med.abs()
    };
    (
        win,
        if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        },
    )
}

/// Per (workload, metric): one value per file, plus failed-op totals.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: f64,
}

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .ok_or_else(|| format!("{path}: not a result file (no \"workloads\")"))?;
        for (workload, result) in workloads.obj() {
            side.failed += result.get("failed").and_then(Json::num).unwrap_or(0.0);
            for (metric, m) in result.get("metrics").map(Json::obj).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(Json::num) {
                    side.values
                        .entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(side)
}

/// The bound of every end-to-end metric declared in `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> BTreeMap<String, f64> {
    benchmark
        .get("end_to_end")
        .map(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_owned(), m.get("bound")?.num()?)))
        .collect()
}

fn usage() -> i32 {
    eprintln!(
        "usage: eend-benchmark compare --base A.json [A2.json ..] --head B.json [B2.json ..]\n\
         \u{20}                            [--benchmark BENCHMARK.json]\n\
         \u{20}  result files are the --out files of benchmark runs, paired in order"
    );
    2
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (mut base, mut head, mut benchmark) = (Vec::new(), Vec::new(), "BENCHMARK.json".to_owned());
    let mut target: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--base" => target = Some(&mut base),
            "--head" => target = Some(&mut head),
            "--benchmark" => match it.next() {
                Some(p) => benchmark = p.clone(),
                None => return usage(),
            },
            "-h" | "--help" => return usage(),
            file if !file.starts_with("--") => match target.as_mut() {
                Some(list) => list.push(file.to_owned()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if base.is_empty() || head.is_empty() {
        return usage();
    }
    let run = || -> Result<i32, String> {
        let bench = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
        let bounds = bounds(&json::parse(&bench).map_err(|e| format!("{benchmark}: {e}"))?);
        let (b, h) = (load(&base)?, load(&head)?);
        println!(
            "{:<12} {:<36} {:>14} {:>25} {:>14} {:>25} {:>5} verdict",
            "workload", "metric", "base median", "base q1..q3", "head median", "head q1..q3", "win"
        );
        let mut regressed = false;
        for ((workload, metric), bv) in &b.values {
            let Some(hv) = h.values.get(&(workload.clone(), metric.clone())) else {
                continue;
            };
            let higher = metrics::decl(metric).is_some_and(|d| d.better == "higher");
            let (win, v) = verdict(bv, hv, higher, bounds.get(metric).copied());
            regressed |= v == Verdict::Regressed;
            let (bq1, bq2, bq3) = stats::quartiles(bv);
            let (hq1, hq2, hq3) = stats::quartiles(hv);
            println!(
                "{workload:<12} {metric:<36} {bq2:>14.6} {:>25} {hq2:>14.6} {:>25} {:>4.0}% {}",
                format!("{bq1:.6}..{bq3:.6}"),
                format!("{hq1:.6}..{hq3:.6}"),
                win * 100.0,
                v.name()
            );
        }
        println!("failed ops: base {} head {}", b.failed, h.failed);
        if h.failed > b.failed {
            println!("more ops failed at head than at base: no gain counts");
        }
        Ok(i32::from(regressed))
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clear_consistent_gain_is_improved() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let head: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(
            verdict(&base, &head, false, Some(0.1)),
            (1.0, Verdict::Improved)
        );
        // The same gain from nine pairs is not enough to claim.
        assert_eq!(
            verdict(&base[..9], &head[..9], false, Some(0.1)).1,
            Verdict::Unchanged
        );
    }

    #[test]
    fn worsening_beyond_the_bound_regresses() {
        let base = vec![10.0; 10];
        let head = vec![12.0; 10];
        assert_eq!(
            verdict(&base, &head, false, Some(0.1)).1,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &head, false, Some(0.25)).1,
            Verdict::Unchanged
        );
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&head, &base, true, Some(0.1)).1, Verdict::Regressed);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let base = vec![5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        let head = vec![10.0; 10];
        assert_eq!(
            verdict(&base, &head, false, Some(0.1)).1,
            Verdict::Unresolved
        );
        // Unless every head run beats every base run.
        let head = vec![4.0; 10];
        assert_eq!(
            verdict(&base, &head, false, Some(0.1)).1,
            Verdict::Unchanged
        );
        // Per-layer metrics carry no bound.
        assert_eq!(verdict(&base, &base, false, None).1, Verdict::Unresolved);
    }
}
