//! The store's JSON reader as it stood before the borrowed-token
//! rewrite, kept verbatim as a test reference: the property tests below
//! require that the live reader in `json.rs` accepts and rejects exactly
//! what this one does, with the same error messages, and decodes
//! accepted input to equal values. This reader is quadratic in string
//! length and recurses without a depth limit, so the generated inputs
//! stay short and shallow.

use super::{parse_json as live_parse, parse_shallow, JVal as LiveVal};
use eend_sim::SimRng;
use proptest::prelude::*;
use std::io;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------
// Minimal JSON.

/// A parsed JSON value. Numbers keep their raw token so u64s round-trip
/// without an f64 detour and f64s restore their exact bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JVal {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<JVal>),
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    fn type_name(&self) -> &'static str {
        match self {
            JVal::Null => "null",
            JVal::Bool(_) => "bool",
            JVal::Num(_) => "number",
            JVal::Str(_) => "string",
            JVal::Arr(_) => "array",
            JVal::Obj(_) => "object",
        }
    }

    pub(crate) fn get(&self, key: &str) -> io::Result<&JVal> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!(
                "expected object with {key:?}, got {}",
                self.type_name()
            )));
        };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| bad_data(format!("missing key {key:?}")))
    }

    /// Like [`JVal::get`], but a missing key reads as `None` (for keys
    /// added after files in the wild were written).
    pub(crate) fn get_opt(&self, key: &str) -> io::Result<Option<&JVal>> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!(
                "expected object with {key:?}, got {}",
                self.type_name()
            )));
        };
        Ok(pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    pub(crate) fn str(&self) -> io::Result<&str> {
        match self {
            JVal::Str(s) => Ok(s),
            other => Err(bad_data(format!(
                "expected string, got {}",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn arr(&self) -> io::Result<&[JVal]> {
        match self {
            JVal::Arr(a) => Ok(a),
            other => Err(bad_data(format!(
                "expected array, got {}",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn u64(&self) -> io::Result<u64> {
        match self {
            JVal::Num(raw) => raw
                .parse()
                .map_err(|_| bad_data(format!("expected u64, got {raw:?}"))),
            other => Err(bad_data(format!(
                "expected number, got {}",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn usize(&self) -> io::Result<usize> {
        self.u64().map(|v| v as usize)
    }

    pub(crate) fn f64(&self) -> io::Result<f64> {
        match self {
            JVal::Num(raw) => raw
                .parse()
                .map_err(|_| bad_data(format!("expected f64, got {raw:?}"))),
            other => Err(bad_data(format!(
                "expected number, got {}",
                other.type_name()
            ))),
        }
    }
}

/// Parses one complete JSON document (with nothing but whitespace
/// after it).
pub(crate) fn parse_json(text: &str) -> io::Result<JVal> {
    let mut p = JsonParser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(bad_data(format!("trailing garbage at byte {}", p.i)));
    }
    Ok(v)
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> io::Result<u8> {
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| bad_data("unexpected end of JSON"))
    }

    fn eat(&mut self, b: u8) -> io::Result<()> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(bad_data(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.i,
                self.peek()? as char
            )))
        }
    }

    fn lit(&mut self, word: &str, v: JVal) -> io::Result<JVal> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(bad_data(format!("bad literal at byte {}", self.i)))
        }
    }

    fn value(&mut self) -> io::Result<JVal> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", JVal::Null),
            b't' => self.lit("true", JVal::Bool(true)),
            b'f' => self.lit("false", JVal::Bool(false)),
            b'"' => Ok(JVal::Str(self.string()?)),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(JVal::Arr(items));
                        }
                        c => return Err(bad_data(format!("bad array separator {:?}", c as char))),
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(JVal::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(JVal::Obj(pairs));
                        }
                        c => return Err(bad_data(format!("bad object separator {:?}", c as char))),
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                let raw = std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|_| bad_data("non-UTF8 number"))?;
                // Validate now so accessors can't hit un-number tokens.
                raw.parse::<f64>()
                    .map_err(|_| bad_data(format!("bad number {raw:?}")))?;
                Ok(JVal::Num(raw.to_owned()))
            }
            c => Err(bad_data(format!(
                "unexpected {:?} at byte {}",
                c as char, self.i
            ))),
        }
    }

    fn string(&mut self) -> io::Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = self.peek()?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek()?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.s.len() {
                                return Err(bad_data("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                .map_err(|_| bad_data("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| bad_data("bad \\u escape"))?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| bad_data("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(bad_data(format!("bad escape \\{}", e as char))),
                    }
                }
                _ => {
                    // Re-sync on UTF-8: walk back and take the full char.
                    let rest = std::str::from_utf8(&self.s[self.i - 1..])
                        .map_err(|_| bad_data("non-UTF8 string"))?;
                    let ch = rest.chars().next().ok_or_else(|| bad_data("empty char"))?;
                    self.i = self.i - 1 + ch.len_utf8();
                    out.push(ch);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Live reader == reference reader.

/// The live tree in the reference's owned representation.
fn owned(v: &LiveVal) -> JVal {
    match v {
        LiveVal::Null => JVal::Null,
        LiveVal::Bool(b) => JVal::Bool(*b),
        LiveVal::Num(raw) => JVal::Num((*raw).to_owned()),
        LiveVal::Str(s) => JVal::Str(s.to_string()),
        LiveVal::Arr(a) => JVal::Arr(a.iter().map(owned).collect()),
        LiveVal::Obj(p) => JVal::Obj(p.iter().map(|(k, v)| (k.to_string(), owned(v))).collect()),
    }
}

/// The reference tree cut to what [`parse_shallow`] keeps.
fn top_level(v: &JVal) -> JVal {
    let hollow = |v: &JVal| match v {
        JVal::Arr(_) => JVal::Arr(Vec::new()),
        JVal::Obj(_) => JVal::Obj(Vec::new()),
        scalar => scalar.clone(),
    };
    match v {
        JVal::Arr(a) => JVal::Arr(a.iter().map(hollow).collect()),
        JVal::Obj(p) => JVal::Obj(p.iter().map(|(k, v)| (k.clone(), hollow(v))).collect()),
        scalar => scalar.clone(),
    }
}

fn outcome<T>(r: io::Result<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Every accessor answers alike, value or error message, at every node
/// of two trees already known to be equal.
fn check_accessors(r: &JVal, l: &LiveVal) -> Result<(), TestCaseError> {
    prop_assert_eq!(outcome(r.u64()), outcome(l.u64()));
    prop_assert_eq!(outcome(r.usize()), outcome(l.usize()));
    prop_assert_eq!(
        outcome(r.f64()).map(f64::to_bits),
        outcome(l.f64()).map(f64::to_bits)
    );
    prop_assert_eq!(outcome(r.str()), outcome(l.str()));
    prop_assert_eq!(
        outcome(r.arr()).map(<[JVal]>::len),
        outcome(l.arr()).map(<[LiveVal]>::len)
    );
    for key in ["job", "a", "missing"] {
        prop_assert_eq!(outcome(r.get(key)).cloned(), outcome(l.get(key)).map(owned));
        prop_assert_eq!(
            outcome(r.get_opt(key)).map(|v| v.cloned()),
            outcome(l.get_opt(key)).map(|v| v.map(owned))
        );
    }
    match (r, l) {
        (JVal::Arr(ra), LiveVal::Arr(la)) => {
            for (rv, lv) in ra.iter().zip(la) {
                check_accessors(rv, lv)?;
            }
        }
        (JVal::Obj(rp), LiveVal::Obj(lp)) => {
            for ((rk, rv), (lk, lv)) in rp.iter().zip(lp) {
                prop_assert_eq!(outcome(r.get(rk)).cloned(), outcome(l.get(lk)).map(owned));
                check_accessors(rv, lv)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// The live reader agrees with the reference on `doc`: both accept it
/// with equal values and accessors, or both reject it with the same
/// message; the shallow parse rejects alike and keeps the same top
/// level. Neither may panic.
fn check(doc: &str) -> Result<(), TestCaseError> {
    let reference = outcome(parse_json(doc));
    let live = outcome(live_parse(doc));
    match (&reference, &live) {
        (Ok(r), Ok(l)) => {
            prop_assert_eq!(r, &owned(l), "{doc:?}");
            check_accessors(r, l)?;
        }
        (Err(r), Err(l)) => prop_assert_eq!(r, l, "{doc:?}"),
        _ => prop_assert!(false, "{doc:?}: reference {reference:?}, live {live:?}"),
    }
    let shallow = outcome(parse_shallow(doc));
    match (&reference, &shallow) {
        (Ok(r), Ok(s)) => prop_assert_eq!(top_level(r), owned(s), "{doc:?}"),
        (Err(r), Err(s)) => prop_assert_eq!(r, s, "{doc:?}"),
        _ => prop_assert!(
            false,
            "{doc:?}: reference {reference:?}, shallow {shallow:?}"
        ),
    }
    Ok(())
}

fn pick(rng: &mut SimRng, items: &[&'static str]) -> &'static str {
    items[rng.below(items.len() as u64) as usize]
}

/// Number tokens: exact integers up to `u64::MAX`, shortest-round-trip
/// and exponent-form f64s, and the lenient or broken spellings the
/// number scanner can meet.
fn number(rng: &mut SimRng, out: &mut String) {
    use std::fmt::Write as _;
    match rng.below(6) {
        0 => out.push_str(&u64::MAX.to_string()),
        1 => {
            let _ = write!(out, "{}", rng.next_u64() >> rng.below(64));
        }
        2 | 3 => {
            let x = f64::from_bits(rng.next_u64());
            let x = if x.is_finite() {
                x
            } else {
                rng.next_f64() * 1e6 - 5e5
            };
            let _ = if rng.chance(0.5) {
                write!(out, "{x}")
            } else {
                write!(out, "{x:e}")
            };
        }
        4 => {
            let _ = write!(
                out,
                "-{}.{}e{}",
                rng.below(100),
                rng.below(1000),
                rng.below(40)
            );
        }
        _ => out.push_str(pick(
            rng,
            &[
                "01", "1.", "-.5", "1e+5", "1E-0", "-0", "1e", "--1", "1.2.3", "1-2", "-", "1e5.",
                "2e+", "9.e9", "0.5E+07",
            ],
        )),
    }
}

/// String bodies: plain and non-ASCII text, raw control bytes, every
/// escape including well-formed, surrogate, short and signed `\u`
/// forms, and the occasional bad escape.
fn string(rng: &mut SimRng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(12) {
        out.push_str(pick(
            rng,
            &[
                "a", "job", "Z9", " ", "é", "中", "😀", "\u{1}", "\u{1f}", "\t", "\n", "\\\"",
                "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\u4e2d",
                "\\uD83D", "\\udfff", "\\u+041", "\\u12", "\\u00é", "\\x", "\\'", "\\u-001",
            ],
        ));
    }
    out.push('"');
}

fn ws(rng: &mut SimRng, out: &mut String) {
    if rng.chance(0.2) {
        out.push_str(pick(rng, &[" ", "\n", "\t ", "\r\n"]));
    }
}

/// A random document of nested arrays and objects, mostly well-formed,
/// with rare structural damage (bad literals, separators, stray bytes).
fn value(rng: &mut SimRng, depth: u32, out: &mut String) {
    ws(rng, out);
    if rng.chance(0.01) {
        out.push_str(pick(
            rng,
            &["nul", "tru", "x", ":", "]", "}", ",", "", "'", "+1"],
        ));
        return;
    }
    // Mostly containers at the top, only scalars at the bottom.
    let kind = match depth {
        0 if rng.chance(0.9) => 5 + rng.below(2),
        0..=3 => rng.below(7),
        _ => rng.below(5),
    };
    match kind {
        0 => out.push_str(pick(rng, &["null", "true", "false"])),
        1 | 2 => number(rng, out),
        3 | 4 => string(rng, out),
        5 => {
            out.push('[');
            for i in 0..rng.below(5) {
                if i > 0 {
                    out.push(if rng.chance(0.01) { ';' } else { ',' });
                }
                value(rng, depth + 1, out);
            }
            ws(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(5) {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                if rng.chance(0.3) {
                    out.push_str(pick(rng, &["\"job\"", "\"a\"", "\"a\""]));
                } else {
                    string(rng, out);
                }
                ws(rng, out);
                out.push(if rng.chance(0.01) { '=' } else { ':' });
                value(rng, depth + 1, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn live_reader_equals_reference_on_generated_documents(seed in 0u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        let mut doc = String::new();
        value(&mut rng, 0, &mut doc);
        if rng.chance(0.05) {
            doc.push_str(pick(&mut rng, &[" x", "{}", "1", "\u{0}"]));
        }
        check(&doc)?;
    }
}

/// A real record line, from a one-job campaign written by the store's
/// own writer.
fn record_line(keep_nodes: usize) -> String {
    use crate::{BaseScenario, CampaignSpec, Executor};
    let spec = CampaignSpec::new("ref", BaseScenario::Small)
        .stacks(vec![eend_wireless::stacks::dsr_odpm_pc()])
        .rates(vec![4.0])
        .seeds(1)
        .secs(20);
    let jobs = spec.expand();
    let mut records = Executor::with_workers(1).run_jobs(&jobs);
    records[0].metrics.per_node_energy.truncate(keep_nodes);
    let mut line = String::new();
    crate::store::record_line_into(&mut line, jobs[0].index, &records[0]);
    line.truncate(line.trim_end().len());
    line
}

#[test]
fn live_reader_equals_reference_on_record_lines_and_their_damage() {
    let full = record_line(usize::MAX);
    check(&full).unwrap();
    // The same record with 4 nodes keeps every field of the line shape
    // while keeping the exhaustive damage sweep below quick.
    let line = record_line(4);
    assert!(
        line.len() > 700,
        "the short line still holds a whole record: {line}"
    );
    assert!(
        line.is_ascii(),
        "a record line is ASCII, so every prefix is a &str"
    );
    for cut in 0..line.len() {
        check(&line[..cut]).unwrap();
    }
    let mut flipped = line.clone().into_bytes();
    let mut checked = 0usize;
    for i in 0..flipped.len() {
        let original = flipped[i];
        for bit in 0..8 {
            flipped[i] = original ^ (1 << bit);
            // Flipping the top bit of an ASCII byte leaves a lone UTF-8
            // continuation byte, which no `&str` can hold.
            if let Ok(doc) = std::str::from_utf8(&flipped) {
                check(doc).unwrap();
                checked += 1;
            }
        }
        flipped[i] = original;
    }
    assert_eq!(checked, line.len() * 7);
}
