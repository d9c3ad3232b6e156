//! Diagnostic types and the rule catalog.

use crate::lexer::Token;
use std::fmt;

/// The rules lamolint enforces. See DESIGN.md §12 for the catalog with
/// rationale and examples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over a `HashMap`/`HashSet` whose items flow into a
    /// returned/collected/extended collection without a sort.
    NondetIteration,
    /// `Instant`/`SystemTime`/thread-id use outside `crates/bench`.
    WallClock,
    /// RNG construction that is not from an explicit seed.
    UnseededRng,
    /// A `Mutex`/`RwLock` guard binding held across `spawn`, a channel
    /// `send`, or a call into a `ShardedCache` shard.
    GuardAcrossSpawn,
    /// A call, while a lock guard is live, into a same-file helper
    /// function whose body spawns, sends, or takes another shard lock —
    /// the one-call-deep extension of `guard-across-spawn`.
    InterprocGuard,
    /// `unwrap`/`expect`/`panic!` in non-test library code (documented
    /// `expect("<invariant>")` messages are allowed).
    LibUnwrap,
    /// A library crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// A `lamolint::allow(...)` suppression without a justification.
    BadSuppression,
    /// A `faultpoint!` site outside library code, with a non-literal
    /// name, or with a name another site already uses.
    FaultpointHygiene,
    /// A lock type or lock acquisition inside `crates/lamo-serve/src`
    /// library code — the serving read path is lock-free by contract.
    ServeReadLock,
    /// Heap allocation (`Vec::new`, `vec!`, `push` into a function-local
    /// buffer, `collect`, `to_vec`, `Box::new`, `format!`, …) inside a
    /// loop of a hot-path function (`#[lamolint::kernel]` or a
    /// `lamolint.toml` `[hot-path]` entry).
    AllocInHotLoop,
    /// A floating-point `+=`/`sum()`/`fold` reduction fed by an
    /// unordered (hash) iteration source — a bitwise-parity hazard for
    /// the Eq. 1/4 accumulators.
    FpAccumOrder,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 12] = [
    Rule::NondetIteration,
    Rule::WallClock,
    Rule::UnseededRng,
    Rule::GuardAcrossSpawn,
    Rule::InterprocGuard,
    Rule::LibUnwrap,
    Rule::ForbidUnsafe,
    Rule::BadSuppression,
    Rule::FaultpointHygiene,
    Rule::ServeReadLock,
    Rule::AllocInHotLoop,
    Rule::FpAccumOrder,
];

impl Rule {
    /// Stable kebab-case name used in output and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIteration => "nondet-iteration",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::GuardAcrossSpawn => "guard-across-spawn",
            Rule::InterprocGuard => "interproc-guard",
            Rule::LibUnwrap => "lib-unwrap",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::BadSuppression => "bad-suppression",
            Rule::FaultpointHygiene => "faultpoint-hygiene",
            Rule::ServeReadLock => "serve-read-lock",
            Rule::AllocInHotLoop => "alloc-in-hot-loop",
            Rule::FpAccumOrder => "fp-accum-order",
        }
    }

    /// Parse a rule name as written in a suppression comment.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `lamolint rules` and the docs.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NondetIteration => {
                "HashMap/HashSet iteration order must not reach returned or \
                 collected output without an intervening sort (or a BTree \
                 collection)"
            }
            Rule::WallClock => {
                "Instant/SystemTime/thread-id reads are confined to \
                 crates/bench; pipeline code must be time-independent"
            }
            Rule::UnseededRng => {
                "every RNG must be constructed from an explicit seed \
                 (seed_from_u64/from_seed); entropy sources break replay"
            }
            Rule::GuardAcrossSpawn => {
                "a Mutex/RwLock guard may not stay live across scope.spawn, \
                 a channel send, or a ShardedCache shard call (deadlock shape)"
            }
            Rule::InterprocGuard => {
                "a lock guard may not stay live across a call to a same-file \
                 helper whose body spawns, sends, or takes a shard lock — \
                 wrapping the hazard in a function does not discharge it"
            }
            Rule::LibUnwrap => {
                "library code may not unwrap/expect/panic! outside tests \
                 unless the expect message documents the invariant"
            }
            Rule::ForbidUnsafe => {
                "every crate root (src/lib.rs) must carry \
                 #![forbid(unsafe_code)]"
            }
            Rule::BadSuppression => {
                "lamolint::allow(rule) comments must carry a written \
                 justification after a colon"
            }
            Rule::FaultpointHygiene => {
                "faultpoint! sites live in library code only, take a \
                 string-literal name, and each name is declared exactly \
                 once across the workspace"
            }
            Rule::ServeReadLock => {
                "crates/lamo-serve library code may not name Mutex/RwLock/\
                 Condvar or call .lock/.read/.write/.try_lock — the serve \
                 read path is lock-free; coordinate via par_util::batch"
            }
            Rule::AllocInHotLoop => {
                "hot-path functions (#[lamolint::kernel] or lamolint.toml \
                 [hot-path]) may not heap-allocate inside loops; reuse a \
                 caller-owned *Scratch buffer instead"
            }
            Rule::FpAccumOrder => {
                "floating-point += / sum() / fold reductions may not be fed \
                 by hash-iteration order; accumulate over an ordered source \
                 so parallel output stays bitwise-stable"
            }
        }
    }
}

/// One finding, anchored to a file position.
///
/// The derived ordering sorts by `(path, line, col, offset, rule,
/// message)`; because `offset` increases exactly with `(line, col)` this
/// is the `(path, offset, rule)` report order, and it never interleaves
/// findings from different files.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// Byte offset of the anchoring token (0 for file-level findings).
    pub offset: u32,
    pub rule: Rule,
    pub message: String,
}

impl Diagnostic {
    pub fn new(path: &str, line: u32, col: u32, rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            path: path.to_string(),
            line,
            col,
            offset: 0,
            rule,
            message: message.into(),
        }
    }

    /// A finding anchored to a lexed token (the common case): position
    /// and byte offset come from the token.
    pub fn at_tok(path: &str, tok: &Token, rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            offset: tok.offset,
            rule,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn display_format() {
        let d = Diagnostic::new("crates/x/src/a.rs", 3, 7, Rule::LibUnwrap, "msg");
        assert_eq!(d.to_string(), "crates/x/src/a.rs:3:7: [lib-unwrap] msg");
    }

    #[test]
    fn ordering_is_path_then_offset() {
        let early = Diagnostic {
            path: "a.rs".into(),
            line: 1,
            col: 2,
            offset: 1,
            rule: Rule::WallClock,
            message: "m".into(),
        };
        let late = Diagnostic {
            path: "a.rs".into(),
            line: 3,
            col: 1,
            offset: 40,
            rule: Rule::LibUnwrap,
            message: "m".into(),
        };
        let other_file = Diagnostic {
            path: "b.rs".into(),
            line: 1,
            col: 1,
            offset: 0,
            rule: Rule::LibUnwrap,
            message: "m".into(),
        };
        let mut v = vec![other_file.clone(), late.clone(), early.clone()];
        v.sort();
        assert_eq!(v, vec![early, late, other_file]);
    }
}
