//! Workspace-level lint configuration (`lamolint.toml`).
//!
//! Some rules need a scope carve-out that per-line suppressions express
//! badly: the realtime deadline adapter in `par-util` is *entirely*
//! wall-clock code by design, and annotating every `Instant` use would
//! drown the one real signal. A `lamolint.toml` at the workspace root
//! lists whole-file exemptions instead, reviewed like any other code:
//!
//! ```toml
//! [wall-clock]
//! exempt = [
//!     "crates/par-util/src/realtime.rs",
//! ]
//!
//! [hot-path]
//! # Functions held to the alloc-in-hot-loop invariant, in addition to
//! # anything carrying #[lamolint::kernel]. An entry names a function
//! # (`predict_into`), a type (every method of `DenseEsuWalker`), or a
//! # qualified method (`StPlane::build`).
//! items = [
//!     "DenseEsuWalker",
//!     "StPlane::build",
//! ]
//! ```
//!
//! The parser is deliberately minimal (the build is offline; no `toml`
//! crate): section headers in brackets, one array-valued key per section
//! (`exempt` / `items`) holding double-quoted strings, `#` comments.
//! Unknown sections and keys are ignored so the format can grow without
//! breaking older binaries.

use std::fs;
use std::path::Path;

/// Parsed `lamolint.toml`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Workspace-relative files (forward slashes) exempt from the
    /// `wall-clock` rule.
    pub wall_clock_exempt: Vec<String>,
    /// `[hot-path] items`: functions/types/`Type::method` entries that
    /// the `alloc-in-hot-loop` rule treats as kernel code.
    pub hot_path: Vec<String>,
}

impl LintConfig {
    /// Load `<root>/lamolint.toml`, or the default (no exemptions) when
    /// the file does not exist or cannot be read.
    pub fn load(root: &Path) -> LintConfig {
        match fs::read_to_string(root.join("lamolint.toml")) {
            Ok(text) => LintConfig::parse(&text),
            Err(_) => LintConfig::default(),
        }
    }

    /// Parse the configuration text. Total: malformed input degrades to
    /// fewer exemptions, never an error — a lint must not be silenced by
    /// feeding it a broken config.
    pub fn parse(text: &str) -> LintConfig {
        let mut config = LintConfig::default();
        let mut section = String::new();
        // Array values may span lines; remember the open (section, key)
        // until the brackets balance.
        let mut open_key: Option<String> = None;
        for raw in text.lines() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if open_key.is_none() && line.starts_with('[') && line.ends_with(']') {
                section = line[1..line.len() - 1].trim().to_string();
                continue;
            }
            let (key, body) = if let Some(k) = &open_key {
                (k.clone(), line.as_str())
            } else if let Some((key, value)) = line.split_once('=') {
                (key.trim().to_string(), value.trim())
            } else {
                continue;
            };
            let dest: Option<&mut Vec<String>> = match (section.as_str(), key.as_str()) {
                ("wall-clock", "exempt") => Some(&mut config.wall_clock_exempt),
                ("hot-path", "items") => Some(&mut config.hot_path),
                _ => None,
            };
            if let Some(dest) = dest {
                dest.extend(quoted_strings(body));
            }
            let opens = body.matches('[').count();
            let closes = body.matches(']').count();
            let still_open = if open_key.is_some() {
                closes <= opens
            } else {
                opens > closes
            };
            open_key = still_open.then_some(key);
        }
        config
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Every complete double-quoted string in `s`, quotes stripped.
fn quoted_strings(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut parts = s.split('"');
    // Alternating outside/inside segments; odd indices are contents.
    parts.next();
    while let (Some(inside), rest) = (parts.next(), parts.next()) {
        out.push(inside.to_string());
        if rest.is_none() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_line_array() {
        let cfg = LintConfig::parse("[wall-clock]\nexempt = [\"a/b.rs\", \"c/d.rs\"]\n");
        assert_eq!(cfg.wall_clock_exempt, vec!["a/b.rs", "c/d.rs"]);
    }

    #[test]
    fn parses_multi_line_array_with_comments() {
        let text = "# top comment\n\
                    [wall-clock]\n\
                    exempt = [\n\
                    \u{20}   \"crates/par-util/src/realtime.rs\", # the deadline adapter\n\
                    ]\n";
        let cfg = LintConfig::parse(text);
        assert_eq!(cfg.wall_clock_exempt, vec!["crates/par-util/src/realtime.rs"]);
    }

    #[test]
    fn parses_hot_path_items() {
        let text = "[hot-path]\n\
                    items = [\n\
                    \u{20}   \"DenseEsuWalker\",\n\
                    \u{20}   \"StPlane::build\",\n\
                    ]\n\
                    [wall-clock]\n\
                    exempt = [\"a.rs\"]\n";
        let cfg = LintConfig::parse(text);
        assert_eq!(cfg.hot_path, vec!["DenseEsuWalker", "StPlane::build"]);
        assert_eq!(cfg.wall_clock_exempt, vec!["a.rs"]);
    }

    #[test]
    fn unknown_sections_and_keys_ignored() {
        let text = "[future-rule]\nexempt = [\"x.rs\"]\n[wall-clock]\nother = 3\n";
        assert_eq!(LintConfig::parse(text), LintConfig::default());
    }

    #[test]
    fn malformed_input_degrades_to_default() {
        for bad in ["[wall-clock", "exempt = [", "\"", "= = ="] {
            let cfg = LintConfig::parse(bad);
            assert!(cfg.wall_clock_exempt.is_empty(), "input {bad:?}");
        }
    }

    #[test]
    fn load_missing_file_is_default() {
        let cfg = LintConfig::load(Path::new("/nonexistent/dir"));
        assert_eq!(cfg, LintConfig::default());
    }
}
