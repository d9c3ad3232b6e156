//! Incremental lint cache: `target/lamolint-cache.json`.
//!
//! Linting is pure per file — the diagnostics for a file depend only on
//! its bytes, the rule set, and `lamolint.toml`. So the cache is a map
//! from workspace-relative path to (content hash, lint outcome), guarded
//! by a single fingerprint that folds in the cache format version, the
//! registered rule names, and the config fingerprint. Any mismatch —
//! unreadable file, wrong version, edited config, new rule — degrades to
//! a cold run; a stale hit is impossible because the key *is* the
//! content.
//!
//! The on-disk format is JSON written and read by hand (the build is
//! offline; no serde). The reader is total: it returns `None` on any
//! malformed input and the driver treats that as an empty cache.

use crate::config::LintConfig;
use crate::diag::{Diagnostic, Rule, ALL_RULES};
use crate::rules::FaultSite;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Bump when the entry layout or a rule's matching changes; old caches
/// then read as cold.
pub const CACHE_VERSION: u32 = 2;

/// FNV-1a, 64-bit. The workspace's one hash for content keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cached outcome of linting one file at one content hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileEntry {
    /// `fnv1a64` of the file bytes this entry was computed from.
    pub hash: u64,
    /// Findings silenced by justified suppressions.
    pub suppressed: usize,
    /// Surviving findings, in the per-file sorted order.
    pub diags: Vec<Diagnostic>,
    /// Well-formed fault sites, for the cross-file uniqueness pass.
    pub sites: Vec<FaultSite>,
}

/// The whole cache: one fingerprint, one entry per file.
#[derive(Debug, PartialEq, Eq)]
pub struct Cache {
    /// Folds [`CACHE_VERSION`], the rule catalog, and the config
    /// fingerprint; entries under a different fingerprint never hit.
    pub fingerprint: u64,
    pub files: BTreeMap<String, FileEntry>,
}

impl Cache {
    /// Fingerprint for the current rule catalog + config.
    pub fn current_fingerprint(config: &LintConfig) -> u64 {
        let mut repr = format!("v{CACHE_VERSION}\n");
        for rule in ALL_RULES {
            repr.push_str(rule.name());
            repr.push('\n');
        }
        repr.push_str(&format!("cfg:{:016x}\n", config.fingerprint()));
        fnv1a64(repr.as_bytes())
    }

    pub fn empty(fingerprint: u64) -> Self {
        Cache {
            fingerprint,
            files: BTreeMap::new(),
        }
    }

    /// Read the cache at `path`; any failure or fingerprint mismatch
    /// yields an empty (cold) cache under the current fingerprint.
    pub fn load(path: &Path, fingerprint: u64) -> Self {
        fs::read_to_string(path)
            .ok()
            .and_then(|text| parse_cache(&text))
            .filter(|c| c.fingerprint == fingerprint)
            .unwrap_or_else(|| Cache::empty(fingerprint))
    }

    /// Entry for `rel` iff it was computed from exactly these bytes.
    pub fn lookup(&self, rel: &str, hash: u64) -> Option<&FileEntry> {
        self.files.get(rel).filter(|e| e.hash == hash)
    }

    /// Write the cache; the parent directory is created on demand.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json())
    }

    pub fn to_json(&self) -> String {
        let files: Vec<String> = self
            .files
            .iter()
            .map(|(rel, e)| format!("{}: {}", crate::json_str(rel), entry_json(e)))
            .collect();
        format!(
            "{{\"version\": {CACHE_VERSION}, \"fingerprint\": \"{:016x}\", \
             \"files\": {{{}}}}}",
            self.fingerprint,
            files.join(", ")
        )
    }
}

fn entry_json(e: &FileEntry) -> String {
    let diags: Vec<String> = e
        .diags
        .iter()
        .map(|d| {
            format!(
                "{{\"path\": {}, \"line\": {}, \"col\": {}, \"offset\": {}, \
                 \"rule\": {}, \"message\": {}}}",
                crate::json_str(&d.path),
                d.line,
                d.col,
                d.offset,
                crate::json_str(d.rule.name()),
                crate::json_str(&d.message)
            )
        })
        .collect();
    let sites: Vec<String> = e
        .sites
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"line\": {}, \"col\": {}}}",
                crate::json_str(&s.name),
                s.line,
                s.col
            )
        })
        .collect();
    format!(
        "{{\"hash\": \"{:016x}\", \"suppressed\": {}, \"diags\": [{}], \
         \"sites\": [{}]}}",
        e.hash,
        e.suppressed,
        diags.join(", "),
        sites.join(", ")
    )
}

// ---------------------------------------------------------------- reader

/// Minimal JSON value — exactly the shapes the cache writes.
enum Json {
    Str(String),
    Num(u64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn parse_cache(text: &str) -> Option<Cache> {
    let root = JsonReader::new(text).parse()?;
    if root.get("version")?.num()? != u64::from(CACHE_VERSION) {
        return None;
    }
    let fingerprint = hex64(root.get("fingerprint")?.str()?)?;
    let mut files = BTreeMap::new();
    let Json::Obj(entries) = root.get("files")? else {
        return None;
    };
    for (rel, v) in entries {
        files.insert(rel.clone(), parse_entry(v)?);
    }
    Some(Cache { fingerprint, files })
}

fn parse_entry(v: &Json) -> Option<FileEntry> {
    let hash = hex64(v.get("hash")?.str()?)?;
    let suppressed = usize::try_from(v.get("suppressed")?.num()?).ok()?;
    let Json::Arr(diags_json) = v.get("diags")? else {
        return None;
    };
    let mut diags = Vec::with_capacity(diags_json.len());
    for d in diags_json {
        let rule = Rule::from_name(d.get("rule")?.str()?)?;
        diags.push(parse_diag(d, rule)?);
    }
    let Json::Arr(sites_json) = v.get("sites")? else {
        return None;
    };
    let mut sites = Vec::with_capacity(sites_json.len());
    for s in sites_json {
        sites.push(FaultSite {
            name: s.get("name")?.str()?.to_string(),
            line: u32::try_from(s.get("line")?.num()?).ok()?,
            col: u32::try_from(s.get("col")?.num()?).ok()?,
        });
    }
    Some(FileEntry {
        hash,
        suppressed,
        diags,
        sites,
    })
}

fn parse_diag(d: &Json, rule: Rule) -> Option<Diagnostic> {
    let mut diag = Diagnostic::new(
        d.get("path")?.str()?,
        u32::try_from(d.get("line")?.num()?).ok()?,
        u32::try_from(d.get("col")?.num()?).ok()?,
        rule,
        d.get("message")?.str()?,
    );
    diag.offset = u32::try_from(d.get("offset")?.num()?).ok()?;
    Some(diag)
}

fn hex64(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
}

/// Recursive-descent reader over the cache subset of JSON: objects,
/// arrays, strings with the escapes [`crate::json_str`] emits, and
/// non-negative integers.
struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn new(text: &'a str) -> Self {
        JsonReader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Option<Json> {
        let v = self.value()?;
        self.skip_ws();
        (self.pos == self.bytes.len()).then_some(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        (self.bytes.get(self.pos) == Some(&b)).then(|| self.pos += 1)
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Some(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(pairs));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let len = utf8_len(b)?;
                    let chunk = self.bytes.get(self.pos..self.pos + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_digit)
        {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
            .map(Json::Num)
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    fn sample_cache() -> Cache {
        let mut diag = Diagnostic::new(
            "crates/core/src/x.rs",
            3,
            9,
            Rule::LibUnwrap,
            "message with \"quotes\"\nand a newline",
        );
        diag.offset = 41;
        let mut files = BTreeMap::new();
        files.insert(
            "crates/core/src/x.rs".to_string(),
            FileEntry {
                hash: fnv1a64(b"fn f() {}"),
                suppressed: 2,
                diags: vec![diag],
                sites: vec![FaultSite {
                    name: "nemo.seed_worker".into(),
                    line: 7,
                    col: 5,
                }],
            },
        );
        files.insert(
            "src/main.rs".to_string(),
            FileEntry {
                hash: 0,
                suppressed: 0,
                diags: vec![],
                sites: vec![],
            },
        );
        Cache {
            fingerprint: Cache::current_fingerprint(&LintConfig::default()),
            files,
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let cache = sample_cache();
        let json = cache.to_json();
        let back = parse_cache(&json).expect("own output must parse");
        assert_eq!(back, cache);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn lookup_requires_matching_hash() {
        let cache = sample_cache();
        let hash = fnv1a64(b"fn f() {}");
        assert!(cache.lookup("crates/core/src/x.rs", hash).is_some());
        assert!(cache.lookup("crates/core/src/x.rs", hash ^ 1).is_none());
        assert!(cache.lookup("crates/core/src/y.rs", hash).is_none());
    }

    #[test]
    fn malformed_and_mismatched_inputs_read_as_cold() {
        let fp = Cache::current_fingerprint(&LintConfig::default());
        for bad in [
            "",
            "not json",
            "{\"version\": 99}",
            "{\"version\": 1, \"fingerprint\": \"zz\", \"files\": {}}",
            "{\"version\": 1, \"fingerprint\": \"0000000000000000\", \"files\": []}",
        ] {
            assert_eq!(
                parse_cache(bad).filter(|c| c.fingerprint == fp),
                None,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_config() {
        let a = Cache::current_fingerprint(&LintConfig::default());
        let b = Cache::current_fingerprint(&LintConfig::parse(
            "[hot-path]\nitems = [\"predict_into\"]\n",
        ));
        assert_ne!(a, b);
    }

    #[test]
    fn load_store_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("lamolint-cache-test");
        let path = dir.join("cache.json");
        let cache = sample_cache();
        cache.store(&path).expect("temp dir is writable");
        assert_eq!(Cache::load(&path, cache.fingerprint), cache);
        // Wrong fingerprint degrades to cold.
        let cold = Cache::load(&path, cache.fingerprint ^ 1);
        assert!(cold.files.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
