//! Properties of the `EEND_FAILPOINTS` grammar: [`configure`] answers any
//! input with `Ok` or `Err` and never panics, and a spec rendered from
//! sites, actions, trigger points and stickiness arms exactly those sites.

use eend_fail::{clear, configure, hit_at, FailAction};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

// The failpoint registry is process-global; serialise the tests using it.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    clear();
    g
}

/// Fragments arbitrary specs are spliced from: the grammar's own tokens,
/// near-misses of them, numbers at and past `u64`'s edge, whitespace and
/// multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "job.run",
    "store.flush",
    "s",
    "=",
    "==",
    "@",
    "@@",
    "+",
    "++",
    ";",
    ";;",
    " ",
    "\t",
    "\n",
    "panic",
    "ioerr",
    "disconnect",
    "Panic",
    "panic ",
    "0",
    "1",
    "7",
    "-1",
    "+1",
    "1.5",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "é",
    "💥",
    "\u{0}",
    "@0",
    "=panic",
    "@1+",
    "x=",
    "=@",
];

const ACTIONS: [(FailAction, &str); 3] = [
    (FailAction::Panic, "panic"),
    (FailAction::IoErr, "ioerr"),
    (FailAction::Disconnect, "disconnect"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn configure_answers_any_input_without_panicking(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..24),
    ) {
        let _g = guard();
        let spec: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let clauses = spec.split(';').filter(|c| !c.trim().is_empty()).count();
        match configure(&spec) {
            Ok(armed) => prop_assert_eq!(armed, clauses, "spec {:?}", spec),
            Err(e) => prop_assert!(!e.is_empty(), "empty error for {:?}", spec),
        }
        clear();
    }

    #[test]
    fn rendered_specs_arm_exactly_what_they_say(
        sites in proptest::collection::vec(
            (0..ACTIONS.len(), proptest::option::of(1u64..u64::MAX), 0u8..2),
            1..6,
        ),
        padding in 0usize..3,
    ) {
        let _g = guard();
        let pad = [""," ", " \t"][padding];
        let mut spec = String::new();
        for (i, &(action, at, sticky)) in sites.iter().enumerate() {
            spec.push_str(&format!("{pad}site{i}.op={}", ACTIONS[action].1));
            if let Some(at) = at {
                spec.push_str(&format!("@{at}"));
            }
            if sticky == 1 {
                spec.push('+');
            }
            spec.push_str(pad);
            spec.push(';');
        }
        prop_assert_eq!(configure(&spec), Ok(sites.len()), "spec {:?}", spec);
        for (i, &(action, at, sticky)) in sites.iter().enumerate() {
            let site = format!("site{i}.op");
            let at = at.unwrap_or(1);
            let want = Some(ACTIONS[action].0);
            if at > 1 {
                prop_assert_eq!(hit_at(&site, at - 1), None, "{} fired early in {:?}", site, spec);
            }
            prop_assert_eq!(hit_at(&site, at), want, "{} did not fire at {} in {:?}", site, at, spec);
            let again = if sticky == 1 { want } else { None };
            prop_assert_eq!(hit_at(&site, at), again, "{} stickiness in {:?}", site, spec);
        }
        clear();
    }
}
