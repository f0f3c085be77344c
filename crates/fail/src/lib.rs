//! Deterministic failpoints for chaos-testing the campaign stack.
//!
//! A *failpoint* is a named site in production code (`"store.flush"`,
//! `"job.run"`, `"serve.conn"`, …) that normally does nothing. A test — or an
//! operator via the `EEND_FAILPOINTS` environment variable — can arm a site
//! with an [`FailAction`] and a trigger point, and the site then fails in a
//! fully reproducible way: panic, return an I/O error, or drop a connection.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The fast path is a single relaxed atomic
//!    load of a process-global flag; no site is even looked up unless at
//!    least one failpoint has ever been armed.
//! 2. **Deterministic under parallelism.** Two trigger modes exist. *Value*
//!    triggers ([`hit_at`]) match a caller-supplied number — e.g. the global
//!    job index — so they fire on the same logical operation no matter how
//!    work is scheduled across worker threads. *Hit-count* triggers ([`hit`])
//!    fire on the Nth invocation of the site; they are deterministic only
//!    for sites executed on a single thread in a fixed order (the campaign
//!    consumer thread qualifies: records are emitted in job order).
//! 3. **One-shot by default.** A triggered site disarms itself, so a retry
//!    of the same operation succeeds — which is exactly what retry-policy
//!    tests need. Append `+` in the env syntax (or pass `sticky = true`) for
//!    a site that keeps failing.
//!
//! Env syntax (parsed once, on first use):
//!
//! ```text
//! EEND_FAILPOINTS="job.run=panic@2;store.flush=ioerr@3;serve.conn=disconnect"
//! ```
//!
//! Each clause is `site=action[@N][+]`: `action` is `panic`, `ioerr`, or
//! `disconnect`; `@N` is the 1-based trigger point (default 1); a trailing
//! `+` makes the site sticky. Whether `N` counts hits or matches a value is
//! a property of the *site* (each call site picks [`hit`] or [`hit_at`]),
//! documented alongside the site in `DESIGN.md` ("Failure containment and
//! fault injection").

#![warn(missing_docs)]

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// What a triggered failpoint does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site — models a crashing job or a killed process.
    Panic,
    /// Surface `io::ErrorKind::Other` from the site — models a transient
    /// I/O fault (full disk, flaky NFS, torn write).
    IoErr,
    /// Abandon the stream / drop the connection at the site.
    Disconnect,
}

impl FailAction {
    fn parse(s: &str) -> Result<FailAction, String> {
        match s {
            "panic" => Ok(FailAction::Panic),
            "ioerr" => Ok(FailAction::IoErr),
            "disconnect" => Ok(FailAction::Disconnect),
            other => {
                Err(format!("unknown failpoint action `{other}` (expected panic|ioerr|disconnect)"))
            }
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FailAction::Panic => "panic",
            FailAction::IoErr => "ioerr",
            FailAction::Disconnect => "disconnect",
        }
    }
}

struct Site {
    action: FailAction,
    /// 1-based trigger point: hit ordinal for [`hit`], matched value for
    /// [`hit_at`].
    at: u64,
    /// Sticky sites keep firing once reached; one-shot sites disarm after
    /// the first trigger.
    sticky: bool,
    hits: AtomicU64,
    fired: AtomicBool,
}

impl Site {
    fn trigger_on(&self, n: u64) -> bool {
        if self.sticky {
            return n >= self.at;
        }
        n == self.at && !self.fired.swap(true, Ordering::SeqCst)
    }
}

/// Fast-path gate: false until the first site is armed, so un-instrumented
/// processes pay one relaxed load per site visit and nothing else.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REG: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn env_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("EEND_FAILPOINTS") {
            if !spec.trim().is_empty() {
                match configure(&spec) {
                    Ok(n) => eprintln!("eend_fail: armed {n} failpoint(s) from EEND_FAILPOINTS"),
                    Err(e) => eprintln!("eend_fail: ignoring bad EEND_FAILPOINTS: {e}"),
                }
            }
        }
    });
}

/// Arm failpoints from a spec string (the `EEND_FAILPOINTS` syntax).
///
/// Returns the number of sites armed, or a description of the first parse
/// error. Sites already armed keep their counters unless re-specified.
pub fn configure(spec: &str) -> Result<usize, String> {
    let mut armed = 0;
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, rhs) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause `{clause}` is missing `=`"))?;
        let (rhs, sticky) = match rhs.strip_suffix('+') {
            Some(r) => (r, true),
            None => (rhs, false),
        };
        let (action, at) = match rhs.split_once('@') {
            Some((a, n)) => {
                let at: u64 =
                    n.parse().map_err(|_| format!("failpoint trigger `@{n}` is not a number"))?;
                if at == 0 {
                    return Err("failpoint trigger points are 1-based; @0 never fires".into());
                }
                (FailAction::parse(a)?, at)
            }
            None => (FailAction::parse(rhs)?, 1),
        };
        set(site, action, at, sticky);
        armed += 1;
    }
    Ok(armed)
}

/// Arm a single failpoint programmatically (the test-facing API).
///
/// `at` is the 1-based trigger point; `sticky` keeps the site firing once
/// reached instead of disarming after the first trigger.
pub fn set(site: &str, action: FailAction, at: u64, sticky: bool) {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.insert(
        site.to_string(),
        Site {
            action,
            at: at.max(1),
            sticky,
            hits: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        },
    );
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Disarm every failpoint and reset the fast-path gate. Tests call this
/// between cases; the env spec is *not* re-applied afterwards.
pub fn clear() {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.clear();
    ACTIVE.store(false, Ordering::SeqCst);
}

/// True if any failpoint is currently armed (after applying the env spec).
pub fn active() -> bool {
    env_init();
    ACTIVE.load(Ordering::Relaxed)
}

/// Visit a hit-count failpoint site: the Nth call triggers.
///
/// Returns the action to perform, or `None` (the overwhelmingly common
/// case). Only deterministic for sites visited from a single thread in a
/// fixed order.
#[inline]
pub fn hit(site: &str) -> Option<FailAction> {
    if !active() {
        return None;
    }
    hit_slow(site, None)
}

/// Visit a value-matched failpoint site: triggers when `value` equals the
/// armed trigger point (or exceeds it, for sticky sites).
///
/// Deterministic under any parallel schedule as long as `value` identifies
/// the logical operation (e.g. a global job index).
#[inline]
pub fn hit_at(site: &str, value: u64) -> Option<FailAction> {
    if !active() {
        return None;
    }
    hit_slow(site, Some(value))
}

#[cold]
fn hit_slow(site: &str, value: Option<u64>) -> Option<FailAction> {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let s = reg.get(site)?;
    let n = match value {
        Some(v) => v,
        None => s.hits.fetch_add(1, Ordering::SeqCst) + 1,
    };
    if s.trigger_on(n) {
        eprintln!("eend_fail: failpoint {site} fired ({} at {n})", s.action.name());
        Some(s.action)
    } else {
        None
    }
}

fn to_io_err(site: &str, action: FailAction) -> io::Error {
    match action {
        FailAction::Panic => panic!("failpoint {site} fired (injected panic)"),
        FailAction::IoErr => {
            io::Error::other(format!("failpoint {site} fired (injected I/O error)"))
        }
        FailAction::Disconnect => io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("failpoint {site} fired (injected disconnect)"),
        ),
    }
}

/// Visit a hit-count site from I/O code: panics for [`FailAction::Panic`],
/// otherwise converts the action into an `io::Error`.
#[inline]
pub fn io_guard(site: &str) -> io::Result<()> {
    match hit(site) {
        None => Ok(()),
        Some(a) => Err(to_io_err(site, a)),
    }
}

/// Visit a value-matched site from I/O code; see [`io_guard`] and [`hit_at`].
#[inline]
pub fn io_guard_at(site: &str, value: u64) -> io::Result<()> {
    match hit_at(site, value) {
        None => Ok(()),
        Some(a) => Err(to_io_err(site, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The registry is process-global; serialize the tests that touch it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_sites_return_none_and_cost_one_atomic_load() {
        let _g = guard();
        clear();
        assert_eq!(hit("nowhere"), None);
        assert_eq!(hit_at("nowhere", 7), None);
        assert!(io_guard("nowhere").is_ok());
    }

    #[test]
    fn hit_count_sites_fire_on_the_nth_visit_then_disarm() {
        let _g = guard();
        clear();
        set("t.count", FailAction::IoErr, 3, false);
        assert_eq!(hit("t.count"), None);
        assert_eq!(hit("t.count"), None);
        assert_eq!(hit("t.count"), Some(FailAction::IoErr));
        // One-shot: the 4th and later visits succeed again.
        assert_eq!(hit("t.count"), None);
        clear();
    }

    #[test]
    fn value_sites_match_the_operation_not_the_visit_order() {
        let _g = guard();
        clear();
        set("t.value", FailAction::Panic, 5, false);
        assert_eq!(hit_at("t.value", 9), None);
        assert_eq!(hit_at("t.value", 5), Some(FailAction::Panic));
        // One-shot: a retry of operation 5 passes.
        assert_eq!(hit_at("t.value", 5), None);
        clear();
    }

    #[test]
    fn sticky_sites_keep_firing_once_reached() {
        let _g = guard();
        clear();
        set("t.sticky", FailAction::Disconnect, 2, true);
        assert_eq!(hit("t.sticky"), None);
        assert_eq!(hit("t.sticky"), Some(FailAction::Disconnect));
        assert_eq!(hit("t.sticky"), Some(FailAction::Disconnect));
        clear();
    }

    #[test]
    fn configure_parses_the_env_syntax() {
        let _g = guard();
        clear();
        let n = configure("a.b=panic@2; c.d=ioerr ;e.f=disconnect@4+").unwrap();
        assert_eq!(n, 3);
        assert_eq!(hit_at("a.b", 2), Some(FailAction::Panic));
        assert_eq!(hit("c.d"), Some(FailAction::IoErr));
        assert_eq!(hit_at("e.f", 9), Some(FailAction::Disconnect));
        assert!(configure("oops").is_err());
        assert!(configure("a=panic@zero").is_err());
        assert!(configure("a=panic@0").is_err());
        assert!(configure("a=explode").is_err());
        clear();
    }

    #[test]
    fn io_guard_converts_actions_into_errors() {
        let _g = guard();
        clear();
        set("t.io", FailAction::IoErr, 1, false);
        let e = io_guard("t.io").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Other);
        set("t.conn", FailAction::Disconnect, 1, false);
        let e = io_guard("t.conn").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionAborted);
        clear();
    }
}
