//! The workspace's JSON reader and writers, with no dependency.
//!
//! [`parse_json`] reads one complete document into a [`JVal`] tree that
//! borrows from the input: numbers keep their raw token (so u64s never
//! take an f64 detour and f64s restore their exact bit pattern), and
//! strings and object keys borrow their bytes unless they contain an
//! escape. The reader is linear in the input: a string is scanned in
//! runs of plain bytes up to the next `"` or `\`, and each run is pushed
//! as one slice. [`parse_shallow`] checks a whole document exactly as
//! [`parse_json`] does, with the same errors, but collects only the
//! top-level container's members, for callers that need one field of a
//! large line.
//!
//! The accepted language is pinned to the reader this one replaced by a
//! reference property test (`json/reference.rs`). It is JSON with three
//! leniencies kept for compatibility with files already on disk: raw
//! control bytes inside strings, any number token that Rust's `f64`
//! parser accepts (`01`, `1.`, `.5` after a minus, `1e+5`), and `\u`
//! escapes read by `u32::from_str_radix` (so `\u+41` is `A`). Surrogate
//! `\u` escapes are rejected. Containers nest at most [`MAX_DEPTH`]
//! deep, so hostile input cannot exhaust the stack.
//!
//! [`write_str`] and [`write_num`] are the matching writers: they append
//! a string literal or a number to a buffer without allocating.
//!
//! [`LogReader`] reads the append-only JSONL logs (a store's
//! `records.jsonl` and `failures.jsonl`, the eval cache's `evals.jsonl`)
//! one line at a time, and alone decides what a killed writer's leftovers
//! and a damaged line mean.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::PathBuf;

/// How deep arrays and objects may nest before a document is refused.
pub const MAX_DEPTH: usize = 256;

/// An [`io::ErrorKind::InvalidData`] error: the workspace's one way to
/// refuse damaged or malformed input.
pub fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A pull reader over one append-only JSONL log, holding one line at a
/// time in a reused byte buffer. The log policy lives here and nowhere
/// else:
///
/// - lines end at `\n`; whitespace-only lines are skipped;
/// - a final line without its `\n` is kept when the caller's decoder
///   accepts it, and is otherwise the torn tail of a killed writer, which
///   reads as end-of-file;
/// - any other line that is not UTF-8 or that the decoder refuses is an
///   error naming the file and the 1-based line.
///
/// A caller that owns the file calls [`LogReader::repair`] at
/// end-of-file, so the next append starts on a fresh line. A missing
/// file reads as empty.
#[derive(Debug)]
pub struct LogReader {
    path: PathBuf,
    reader: Option<BufReader<File>>,
    buf: Vec<u8>,
    line_no: usize,
    /// Bytes of the lines read and kept so far (blank ones included).
    kept: u64,
    tail: Tail,
}

/// What the end of a log needs once it has been read.
#[derive(Debug)]
enum Tail {
    /// Empty, or ends with a newline.
    Clean,
    /// The final line was kept but lacks its newline.
    Unterminated,
    /// The final line is torn: everything past `kept` goes.
    Torn,
}

impl LogReader {
    /// Opens the log at `path`; a missing file reads as empty.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<LogReader> {
        let path = path.into();
        let reader = match File::open(&path) {
            Ok(f) => Some(BufReader::new(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(LogReader { path, reader, buf: Vec::new(), line_no: 0, kept: 0, tail: Tail::Clean })
    }

    /// The next non-blank line as `decode` reads it (the line comes
    /// without its newline), or `None` at end-of-file, which a torn final
    /// line also is. A complete line that is not UTF-8 or that `decode`
    /// refuses is an error naming the file and the line.
    pub fn next_decoded<T>(
        &mut self,
        mut decode: impl FnMut(&str) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        loop {
            let Some(reader) = self.reader.as_mut() else { return Ok(None) };
            self.buf.clear();
            let n = reader.read_until(b'\n', &mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let line = self.buf.strip_suffix(b"\n");
            let terminated = line.is_some();
            let decoded = match std::str::from_utf8(line.unwrap_or(&self.buf)) {
                Ok(text) if text.trim().is_empty() => None,
                Ok(text) => Some(decode(text)),
                Err(e) => Some(Err(bad_data(e.to_string()))),
            };
            if let Some(Err(e)) = decoded {
                if terminated {
                    return Err(self.line_error(e));
                }
                self.tail = Tail::Torn;
                return Ok(None);
            }
            self.kept += n as u64;
            if !terminated {
                self.tail = Tail::Unterminated;
            }
            if let Some(value) = decoded {
                return value.map(Some);
            }
        }
    }

    /// The error for the line last read: `corrupt line N in PATH: why`.
    /// Callers raise their own refusals (a duplicate, an id out of
    /// order) through it too.
    pub(crate) fn line_error(&self, why: impl fmt::Display) -> io::Error {
        bad_data(format!("corrupt line {} in {}: {why}", self.line_no, self.path.display()))
    }

    /// For the log's owner, once [`LogReader::next_decoded`] has returned
    /// `None`: restores a kept final line's missing newline, or truncates
    /// a torn tail to the last kept byte.
    pub fn repair(&self) -> io::Result<()> {
        match self.tail {
            Tail::Clean => Ok(()),
            Tail::Unterminated => {
                OpenOptions::new().append(true).open(&self.path)?.write_all(b"\n")
            }
            Tail::Torn => OpenOptions::new().write(true).open(&self.path)?.set_len(self.kept),
        }
    }
}

/// A parsed JSON value borrowing from the text it was read from.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number's raw token, checked to be a valid `f64` literal.
    Num(&'a str),
    /// A string, borrowed unless it held an escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JVal<'a>>),
    /// An object's members in document order (duplicate keys are kept;
    /// lookups find the first).
    Obj(Vec<(Cow<'a, str>, JVal<'a>)>),
}

impl<'a> JVal<'a> {
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

    /// The value of the first member named `key`; an error when this is
    /// not an object or has no such member.
    pub fn get(&self, key: &str) -> io::Result<&JVal<'a>> {
        self.get_opt(key)?.ok_or_else(|| bad_data(format!("missing key {key:?}")))
    }

    /// Like [`JVal::get`], but a missing key reads as `None` (for keys
    /// added after files in the wild were written).
    pub fn get_opt(&self, key: &str) -> io::Result<Option<&JVal<'a>>> {
        let JVal::Obj(pairs) = self else {
            return Err(bad_data(format!(
                "expected object with {key:?}, got {}",
                self.type_name()
            )));
        };
        Ok(pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// This string's text.
    pub fn str(&self) -> io::Result<&str> {
        match self {
            JVal::Str(s) => Ok(s),
            other => Err(bad_data(format!("expected string, got {}", other.type_name()))),
        }
    }

    /// This array's items.
    pub fn arr(&self) -> io::Result<&[JVal<'a>]> {
        match self {
            JVal::Arr(a) => Ok(a),
            other => Err(bad_data(format!("expected array, got {}", other.type_name()))),
        }
    }

    /// This number as a u64 (its token must be a plain decimal integer).
    pub fn u64(&self) -> io::Result<u64> {
        match self {
            JVal::Num(raw) => {
                raw.parse().map_err(|_| bad_data(format!("expected u64, got {raw:?}")))
            }
            other => Err(bad_data(format!("expected number, got {}", other.type_name()))),
        }
    }

    /// [`JVal::u64`] cast to usize.
    pub fn usize(&self) -> io::Result<usize> {
        self.u64().map(|v| v as usize)
    }

    /// This number as the f64 its token rounds to.
    pub fn f64(&self) -> io::Result<f64> {
        match self {
            JVal::Num(raw) => {
                raw.parse().map_err(|_| bad_data(format!("expected f64, got {raw:?}")))
            }
            other => Err(bad_data(format!("expected number, got {}", other.type_name()))),
        }
    }
}

/// Parses one complete JSON document (with nothing but whitespace
/// after it).
pub fn parse_json(text: &str) -> io::Result<JVal<'_>> {
    Parser::new(text, usize::MAX).document()
}

/// Checks one complete document exactly as [`parse_json`] does, failing
/// with the same error on the same input, but keeps only the top level:
/// an array or object comes back with its members, and each member that
/// is itself an array or object comes back empty.
pub fn parse_shallow(text: &str) -> io::Result<JVal<'_>> {
    Parser::new(text, 1).document()
}

struct Parser<'a> {
    text: &'a str,
    s: &'a [u8],
    i: usize,
    /// Containers at a nesting level below this collect their members;
    /// deeper ones are checked and dropped.
    keep_below: usize,
    /// Members of the arrays and objects being read, innermost last:
    /// each container's members move out in one exact-size allocation
    /// when it closes, instead of growing a vector of its own.
    items: Vec<JVal<'a>>,
    pairs: Vec<(Cow<'a, str>, JVal<'a>)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, keep_below: usize) -> Parser<'a> {
        Parser { text, s: text.as_bytes(), i: 0, keep_below, items: Vec::new(), pairs: Vec::new() }
    }

    fn document(mut self) -> io::Result<JVal<'a>> {
        let v = self.value(0)?;
        self.skip_ws();
        if self.i != self.s.len() {
            return Err(bad_data(format!("trailing garbage at byte {}", self.i)));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> io::Result<u8> {
        self.s.get(self.i).copied().ok_or_else(|| bad_data("unexpected end of JSON"))
    }

    fn eat(&mut self, b: u8) -> io::Result<()> {
        let c = self.peek()?;
        if c == b {
            self.i += 1;
            Ok(())
        } else {
            Err(bad_data(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char, self.i, c as char
            )))
        }
    }

    fn lit(&mut self, word: &str, v: JVal<'a>) -> io::Result<JVal<'a>> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(bad_data(format!("bad literal at byte {}", self.i)))
        }
    }

    /// Parses the value starting here; `level` is how many containers
    /// enclose it.
    fn value(&mut self, level: usize) -> io::Result<JVal<'a>> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", JVal::Null),
            b't' => self.lit("true", JVal::Bool(true)),
            b'f' => self.lit("false", JVal::Bool(false)),
            b'"' => Ok(JVal::Str(self.string()?)),
            b'[' => {
                self.enter(level)?;
                let keep = level < self.keep_below;
                let base = self.items.len();
                self.skip_ws();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(JVal::Arr(Vec::new()));
                }
                loop {
                    let v = self.value(level + 1)?;
                    if keep {
                        self.items.push(v);
                    }
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(JVal::Arr(self.items.split_off(base)));
                        }
                        c => return Err(bad_data(format!("bad array separator {:?}", c as char))),
                    }
                }
            }
            b'{' => {
                self.enter(level)?;
                let keep = level < self.keep_below;
                let base = self.pairs.len();
                self.skip_ws();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(JVal::Obj(Vec::new()));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    let v = self.value(level + 1)?;
                    if keep {
                        self.pairs.push((key, v));
                    }
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(JVal::Obj(self.pairs.split_off(base)));
                        }
                        c => return Err(bad_data(format!("bad object separator {:?}", c as char))),
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                // ASCII bytes only, so the slice sits on char boundaries.
                let raw = &self.text[start..self.i];
                if !is_f64_literal(raw.as_bytes()) {
                    return Err(bad_data(format!("bad number {raw:?}")));
                }
                Ok(JVal::Num(raw))
            }
            c => Err(bad_data(format!("unexpected {:?} at byte {}", c as char, self.i))),
        }
    }

    /// Steps past the opening bracket of a container at `level`.
    fn enter(&mut self, level: usize) -> io::Result<()> {
        if level >= MAX_DEPTH {
            return Err(bad_data(format!(
                "containers nest deeper than {MAX_DEPTH} at byte {}",
                self.i
            )));
        }
        self.i += 1;
        Ok(())
    }

    fn string(&mut self) -> io::Result<Cow<'a, str>> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // A run of plain bytes: everything up to the next quote or
            // backslash, multi-byte characters included. Both delimiters
            // are ASCII, so the run ends on a char boundary.
            let run = self.i;
            while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                self.i += 1;
            }
            let plain = &self.text[run..self.i];
            let c = self.peek()?;
            self.i += 1;
            if c == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(plain);
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
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| bad_data("bad \\u escape"))?;
                    self.i += 4;
                    out.push(char::from_u32(code).ok_or_else(|| bad_data("surrogate \\u escape"))?);
                }
                _ => return Err(bad_data(format!("bad escape \\{}", e as char))),
            }
        }
    }
}

/// Whether `b`, a run of `[0-9+-.eE]` starting with `-` or a digit, is
/// a literal Rust's `f64` parser accepts: an optional sign, digits with
/// at most one point and at least one digit, then an optional exponent
/// of `e`/`E`, an optional sign and at least one digit. (The spelled-out
/// `inf`/`nan` forms cannot occur in such a run.)
fn is_f64_literal(b: &[u8]) -> bool {
    let mut i = usize::from(matches!(b.first(), Some(b'-' | b'+')));
    let digits = |i: &mut usize| {
        let start = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i - start
    };
    let mut mantissa = digits(&mut i);
    if b.get(i) == Some(&b'.') {
        i += 1;
        mantissa += digits(&mut i);
    }
    if mantissa == 0 {
        return false;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'-' | b'+')) {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return false;
        }
    }
    i == b.len()
}

/// Appends `s` as a JSON string literal: `"`, `\`, newline, carriage
/// return and tab get their short escapes, other control characters
/// `\u00XX`, and everything else is copied.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `x` in Rust's shortest round-trip form, or `null` when it is
/// not finite (JSON has no Infinity or NaN).
pub fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
#[path = "json/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_writers() {
        let v = parse_json(r#"{"a":1,"b":[1.5,null,"x\"y\n"],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().u64().unwrap(), 1);
        let b = v.get("b").unwrap().arr().unwrap();
        assert_eq!(b[0].f64().unwrap(), 1.5);
        assert_eq!(b[1], JVal::Null);
        assert_eq!(b[2].str().unwrap(), "x\"y\n");
        assert!(matches!(v.get("c").unwrap().get("d").unwrap(), JVal::Bool(true)));
        assert!(parse_json("{\"a\":1} junk").is_err());
        assert!(parse_json("{").is_err());
    }

    #[test]
    fn json_numbers_keep_exact_tokens() {
        // u64 beyond 2^53 and a shortest-round-trip f64 both survive.
        let v = parse_json("[18446744073709551615,0.1,-2.5e-3]").unwrap();
        let a = v.arr().unwrap();
        assert_eq!(a[0].u64().unwrap(), u64::MAX);
        assert_eq!(a[1].f64().unwrap(), 0.1);
        assert_eq!(a[2].f64().unwrap(), -2.5e-3);
    }

    #[test]
    fn plain_strings_borrow_and_escaped_ones_own() {
        let v = parse_json(r#"{"plain":"héllo","esc":"a\tb","kA":1}"#).unwrap();
        assert!(matches!(v.get("plain").unwrap(), JVal::Str(Cow::Borrowed("héllo"))));
        assert!(matches!(v.get("esc").unwrap(), JVal::Str(Cow::Owned(s)) if s == "a\tb"));
        assert_eq!(v.get("kA").unwrap().u64().unwrap(), 1, "escaped keys are decoded");
    }

    #[test]
    fn number_check_matches_rusts_f64_parser_exhaustively() {
        // Every token of up to six bytes the number scanner can produce.
        const ALPHABET: &[u8] = b"01-+.eE";
        let mut tokens: Vec<Vec<u8>> = vec![b"-".to_vec(), b"0".to_vec(), b"1".to_vec()];
        let mut frontier = tokens.clone();
        for _ in 1..6 {
            let mut next = Vec::new();
            for t in &frontier {
                for &c in ALPHABET {
                    let mut u = t.clone();
                    u.push(c);
                    next.push(u);
                }
            }
            tokens.extend(next.iter().cloned());
            frontier = next;
        }
        assert!(tokens.len() > 50_000);
        for t in &tokens {
            let s = std::str::from_utf8(t).unwrap();
            assert_eq!(is_f64_literal(t), s.parse::<f64>().is_ok(), "token {s:?}");
        }
    }

    #[test]
    fn shallow_parse_keeps_the_top_level_and_checks_everything() {
        let line = r#"{"job":7,"tags":["a",{"b":[1]}],"metrics":{"x":1.5}}"#;
        let v = parse_shallow(line).unwrap();
        assert_eq!(v.get("job").unwrap().usize().unwrap(), 7);
        assert_eq!(v.get("tags").unwrap(), &JVal::Arr(Vec::new()));
        assert_eq!(v.get("metrics").unwrap(), &JVal::Obj(Vec::new()));
        let bad = r#"{"job":7,"metrics":{"x":1.5.5}}"#;
        assert_eq!(
            parse_shallow(bad).unwrap_err().to_string(),
            parse_json(bad).unwrap_err().to_string()
        );
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // The reader this one replaced re-validated the rest of the
        // document per character: ~50 s of CPU for this input.
        let body = "x".repeat(1 << 20);
        let doc = format!("{{\"campaign\":\"{body}\",\"n\":1}}");
        let t = std::time::Instant::now();
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("campaign").unwrap().str().unwrap().len(), 1 << 20);
        let mut escaped = String::new();
        write_str(&mut escaped, &format!("{body}\"\n"));
        let v = parse_json(&escaped).unwrap();
        assert_eq!(v.str().unwrap().len(), (1 << 20) + 2);
        assert!(t.elapsed().as_secs() < 5, "took {:?}", t.elapsed());
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let deep = "[".repeat(1 << 20);
        let err = parse_json(&deep).unwrap_err().to_string();
        assert!(err.contains("nest deeper than 256"), "got: {err}");
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse_shallow(&deep_obj).unwrap_err().to_string().contains("nest deeper"));
    }

    /// Reads `bytes` as a log of JSON numbers, repairs it, and returns
    /// what was read (or the error) and the file's bytes afterwards.
    fn read_log(tag: &str, bytes: &[u8]) -> (io::Result<Vec<u64>>, Vec<u8>) {
        let path = std::env::temp_dir().join(format!("eend-log-{tag}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let mut log = LogReader::open(&path).unwrap();
        let mut read = Vec::new();
        let got = loop {
            match log.next_decoded(|line| parse_json(line)?.u64()) {
                Ok(Some(v)) => read.push(v),
                Ok(None) => break log.repair().map(|()| read),
                Err(e) => break Err(e),
            }
        };
        let after = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (got, after)
    }

    #[test]
    fn log_reader_keeps_blank_and_unterminated_lines_and_drops_a_torn_tail() {
        let (got, after) = read_log("blank", b"1\n \n\n2\n  ");
        assert_eq!((got.unwrap(), after), (vec![1, 2], b"1\n \n\n2\n  \n".to_vec()));
        let (got, after) = read_log("noeol", b"1\n2");
        assert_eq!((got.unwrap(), after), (vec![1, 2], b"1\n2\n".to_vec()));
        let (got, after) = read_log("torn", b"1\n\n2x");
        assert_eq!((got.unwrap(), after), (vec![1], b"1\n\n".to_vec()));
        let (got, after) = read_log("utf8", "1\n\"é".as_bytes().split_last().unwrap().1);
        assert_eq!((got.unwrap(), after), (vec![1], b"1\n".to_vec()));
        let missing = std::env::temp_dir().join(format!("eend-log-none-{}", std::process::id()));
        let mut log = LogReader::open(&missing).unwrap();
        assert!(log.next_decoded(|_| Ok(())).unwrap().is_none());
        log.repair().unwrap();
        assert!(!missing.exists(), "repairing a missing log creates nothing");
    }

    #[test]
    fn log_reader_names_the_file_and_line_of_interior_damage() {
        for (tag, bytes) in [("json", &b"1\n\n2x\n3\n"[..]), ("bytes", &b"1\n\n\xff\n3\n"[..])] {
            let (got, after) = read_log(tag, bytes);
            let err = got.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let want = format!("corrupt line 3 in {}", std::env::temp_dir().display());
            assert!(err.to_string().starts_with(&want), "{tag}: {err}");
            assert_eq!(after, bytes, "{tag}: a damaged log is left alone");
        }
    }

    #[test]
    fn writers_match_format_based_rendering() {
        for x in [0.0, -0.0, 1.5, 0.1, 1e300, -2.5e-3, 5e-324, f64::MAX] {
            let mut out = String::new();
            write_num(&mut out, x);
            assert_eq!(out, format!("{x}"));
            assert_eq!(parse_json(&out).unwrap().f64().unwrap().to_bits(), x.to_bits());
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut out = String::new();
            write_num(&mut out, x);
            assert_eq!(out, "null");
        }
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\n\r\t\u{1}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001é\"");
        assert_eq!(parse_json(&out).unwrap().str().unwrap(), "a\"b\\c\n\r\t\u{1}é");
    }
}
