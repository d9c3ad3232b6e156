//! Lock-safety rules: `guard-across-spawn`, `interproc-guard`, and
//! `serve-read-lock`.
//!
//! The sharded memo caches (par-util's `ShardedCache`) hand out RAII
//! guards from per-shard `RwLock`s. The deadlock shape they invite: hold
//! a shard guard, then block — on `scope.spawn` joining, on a channel
//! `send` against a bounded peer, or on *another* shard's lock via a
//! nested `get_or_insert_with`. This rule finds `let g = ….lock()/.read()
//! /.write()` bindings and flags any blocking operation while the guard
//! is live (until `drop(g)` or end of scope).
//!
//! Guards consumed as temporaries (`m.read().get(..)`) never cross a
//! statement and are not flagged.

use crate::diag::{Diagnostic, Rule};
use crate::items::{ItemGraph, ItemKind};
use crate::lexer::TokKind;
use crate::model::FileModel;

const ACQUIRE: [&str; 3] = ["lock", "read", "write"];
/// Methods that may follow an acquisition in the same chain without
/// changing what is bound (std poisoning unwraps, including the
/// recover-through-poison `unwrap_or_else(PoisonError::into_inner)`).
const PASSTHROUGH: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

pub fn guard_across_spawn(path: &str, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for i in 0..model.code.len() {
        if !model.is_ident(i, "let") {
            continue;
        }
        let Some((name, name_idx)) = binding_name(model, i) else {
            continue;
        };
        let stmt_end = model.statement_end(i);
        if !model.is_punct(stmt_end, ';') {
            continue; // let-else or malformed; skip
        }
        let Some(eq) = (name_idx..stmt_end)
            .find(|&j| model.is_punct(j, '=') && model.code[j].depth == model.code[i].depth)
        else {
            continue;
        };
        if !rhs_acquires_guard(model, eq + 1, stmt_end) {
            continue;
        }
        let live_end = liveness_end(model, i, stmt_end, &name);
        for k in stmt_end..live_end {
            if let Some(hazard) = hazard_at(model, k) {
                let t = &model.code[k].tok;
                out.push(Diagnostic::at_tok(
                    path,
                    t,
                    Rule::GuardAcrossSpawn,
                    format!(
                        "lock guard `{name}` is still live across `{hazard}`; \
                         drop it first (narrow the scope or call drop({name}))"
                    ),
                ));
            }
        }
    }
}

/// `interproc-guard`: the one-call-deep extension of
/// `guard-across-spawn`, enabled by the item graph. Wrapping a hazard in
/// a same-file helper used to make it invisible to the flat scanner:
///
/// ```text
/// fn notify(tx: &Sender<u32>) { tx.send(1).ok(); }
/// fn f() { let g = m.lock(); notify(&tx); }   // deadlock shape, unseen
/// ```
///
/// This rule collects every `fn` item in the file whose body contains a
/// hazard (`spawn` / `.send` / `.get_or_insert_with`), then flags any
/// call to such a function while a lock guard is live. One call level
/// only — the contract is "a helper does not launder a hazard", not a
/// full interprocedural analysis.
pub fn interproc_guard(
    path: &str,
    model: &FileModel,
    items: &ItemGraph,
    out: &mut Vec<Diagnostic>,
) {
    // Same-file functions whose bodies contain a hazard, by name. The
    // item graph gives exact body extents, so a hazard in a *sibling*
    // function never taints this one.
    let mut hazardous: Vec<(&str, &'static str)> = Vec::new();
    for item in items.items() {
        if item.kind != ItemKind::Fn {
            continue;
        }
        let Some((open, close)) = item.body else { continue };
        let hazard = (open + 1..close.min(model.code.len())).find_map(|k| hazard_at(model, k));
        if let Some(h) = hazard {
            hazardous.push((item.name.as_str(), h));
        }
    }
    if hazardous.is_empty() {
        return;
    }
    for i in 0..model.code.len() {
        if !model.is_ident(i, "let") {
            continue;
        }
        let Some((name, name_idx)) = binding_name(model, i) else {
            continue;
        };
        let stmt_end = model.statement_end(i);
        if !model.is_punct(stmt_end, ';') {
            continue;
        }
        let Some(eq) = (name_idx..stmt_end)
            .find(|&j| model.is_punct(j, '=') && model.code[j].depth == model.code[i].depth)
        else {
            continue;
        };
        if !rhs_acquires_guard(model, eq + 1, stmt_end) {
            continue;
        }
        let live_end = liveness_end(model, i, stmt_end, &name);
        for k in stmt_end..live_end.min(model.code.len()) {
            // A call site `helper(…)` or `self.helper(…)` / `x.helper(…)`.
            let Some(t) = model.tok(k) else { continue };
            if t.kind != TokKind::Ident || !model.is_punct(k + 1, '(') {
                continue;
            }
            let Some(&(_, hazard)) = hazardous.iter().find(|(n, _)| *n == t.text) else {
                continue;
            };
            // Direct hazards at the call site itself belong to
            // guard-across-spawn; this rule reports the laundered form.
            if hazard_at(model, k).is_some() {
                continue;
            }
            let callee = t.text.clone();
            out.push(Diagnostic::at_tok(
                path,
                t,
                Rule::InterprocGuard,
                format!(
                    "lock guard `{name}` is still live across the call to \
                     `{callee}`, whose body reaches `{hazard}`; drop the guard \
                     first — wrapping the hazard in a helper does not \
                     discharge it"
                ),
            ));
        }
    }
}

/// `let [mut] NAME` or `let PAT(NAME)` — returns the bound display name.
fn binding_name(model: &FileModel, let_idx: usize) -> Option<(String, usize)> {
    let mut j = let_idx + 1;
    if model.is_ident(j, "mut") {
        j += 1;
    }
    let t = model.tok(j)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    // Pattern binding like `Some(g)` / `Ok(g)`: use the inner name.
    if model.is_punct(j + 1, '(') {
        let close = model.close_of(j + 1);
        let inner = (j + 2..close).find_map(|k| {
            let t = model.tok(k)?;
            (t.kind == TokKind::Ident && t.text != "mut").then(|| (t.text.clone(), k))
        });
        return inner;
    }
    Some((t.text.clone(), j))
}

/// Whether the chain in `(start..end)` ends by acquiring a lock guard:
/// its last top-level method call is `lock`/`read`/`write`, optionally
/// followed by `unwrap`/`expect`/`unwrap_or_else`.
fn rhs_acquires_guard(model: &FileModel, start: usize, end: usize) -> bool {
    let base = model.code.get(start).map(|c| c.depth);
    let Some(base) = base else { return false };
    let mut calls: Vec<String> = Vec::new();
    for j in start..end.min(model.code.len()) {
        if model.code[j].depth != base {
            continue;
        }
        if model.is_punct(j, '.') {
            if let Some(t) = model.tok(j + 1) {
                if t.kind == TokKind::Ident && model.is_punct(j + 2, '(') {
                    calls.push(t.text.clone());
                }
            }
        }
    }
    match calls.last() {
        Some(last) if ACQUIRE.contains(&last.as_str()) => true,
        Some(last) if PASSTHROUGH.contains(&last.as_str()) => calls
            .len()
            .checked_sub(2)
            .map(|i| ACQUIRE.contains(&calls[i].as_str()))
            .unwrap_or(false),
        _ => false,
    }
}

/// Guard liveness: from the end of the `let` statement to `drop(name)`
/// or the end of the enclosing block.
fn liveness_end(model: &FileModel, let_idx: usize, stmt_end: usize, name: &str) -> usize {
    let scope_end = model.enclosing_block_end(let_idx);
    for k in stmt_end..scope_end.min(model.code.len()) {
        if model.is_ident(k, "drop")
            && model.is_punct(k + 1, '(')
            && model.is_ident(k + 2, name)
            && model.is_punct(k + 3, ')')
        {
            return k;
        }
    }
    scope_end
}

/// Lock-acquisition method names the serving read path may not call.
const SERVE_ACQUIRE: [&str; 4] = ["lock", "read", "write", "try_lock"];
/// Lock type names the serving crate may not even mention.
const SERVE_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// `serve-read-lock`: `crates/lamo-serve` library code is the lock-free
/// read path of the serving layer (DESIGN.md §16) — any lock *type*
/// (`Mutex`/`RwLock`/`Condvar`) or acquisition call
/// (`.lock()`/`.read()`/`.write()`/`.try_lock()`) there is a finding.
/// Coordination that genuinely needs blocking lives in
/// `par_util::batch`, where the guard rules above still police it. Test
/// spans are exempt (tests may build adversarial states).
pub fn serve_read_lock(path: &str, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for i in 0..model.code.len() {
        if model.in_test_code(i) {
            continue;
        }
        let Some(t) = model.tok(i) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        if SERVE_TYPES.contains(&t.text.as_str()) {
            out.push(Diagnostic::at_tok(
                path,
                t,
                Rule::ServeReadLock,
                format!(
                    "lock type `{}` in the lamo-serve read path; share immutable \
                     state via Arc and put coordination in par_util::batch",
                    t.text
                ),
            ));
        } else if SERVE_ACQUIRE.contains(&t.text.as_str())
            && i >= 1
            && model.is_punct(i - 1, '.')
            && model.is_punct(i + 1, '(')
        {
            out.push(Diagnostic::at_tok(
                path,
                t,
                Rule::ServeReadLock,
                format!(
                    "`.{}()` acquisition in the lamo-serve read path; the serving \
                     layer reads lock-free from an immutable artifact",
                    t.text
                ),
            ));
        }
    }
}

/// A blocking operation at `k`: `spawn(…)`, `.send(…)`, or a
/// `ShardedCache` shard call `.get_or_insert_with(…)`.
fn hazard_at(model: &FileModel, k: usize) -> Option<&'static str> {
    if model.is_ident(k, "spawn") && model.is_punct(k + 1, '(') {
        return Some("spawn");
    }
    if k >= 1 && model.is_punct(k - 1, '.') && model.is_punct(k + 1, '(') {
        if model.is_ident(k, "send") {
            return Some("send");
        }
        if model.is_ident(k, "get_or_insert_with") {
            return Some("get_or_insert_with (another shard's lock)");
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run(src: &str) -> Vec<Diagnostic> {
        let model = FileModel::build(src);
        let mut out = Vec::new();
        guard_across_spawn("f.rs", &model, &mut out);
        out
    }

    #[test]
    fn guard_across_spawn_is_flagged() {
        let src = "fn f() { let g = m.lock();\n\
                   scope.spawn(|| work(&g)); }";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`g`"));
        assert!(diags[0].message.contains("spawn"));
    }

    #[test]
    fn poison_recovering_guard_is_flagged() {
        let src = "fn f() { let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   scope.spawn(|| work(&g)); }";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`g`"));
    }

    #[test]
    fn guard_across_send_and_shard_call() {
        let src = "fn f() { let stats = shared.write();\n\
                   tx.send(1);\n\
                   cache.get_or_insert_with(k, || 0); }";
        let diags = run(src);
        assert_eq!(diags.len(), 2);
    }

    #[test]
    fn dropped_guard_is_clean() {
        let src = "fn f() { let g = m.lock(); use_it(&g); drop(g);\n\
                   scope.spawn(|| work()); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scoped_guard_is_clean() {
        let src = "fn f() { { let g = m.lock(); use_it(&g); }\n\
                   scope.spawn(|| work()); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporary_guard_is_clean() {
        let src = "fn f() { let v = m.read().get(&k).copied();\n\
                   scope.spawn(|| work()); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn std_poisoning_unwrap_still_a_guard() {
        let src = "fn f() { let g = m.lock().unwrap();\n\
                   scope.spawn(|| work(&g)); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn pattern_binding_uses_inner_name() {
        let src = "fn f() { let Ok(g) = m.lock();\n\
                   tx.send(g.x); }";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`g`"));
    }

    fn run_interproc(src: &str) -> Vec<Diagnostic> {
        let model = FileModel::build(src);
        let items = ItemGraph::build(&model);
        let mut out = Vec::new();
        interproc_guard("f.rs", &model, &items, &mut out);
        out
    }

    #[test]
    fn helper_wrapped_send_is_flagged() {
        let src = "fn notify(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
                   fn f(m: &M, tx: &Sender<u32>) { let g = m.lock();\n\
                   notify(tx); }";
        let diags = run_interproc(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::InterprocGuard);
        assert!(diags[0].message.contains("`notify`"));
        assert!(diags[0].message.contains("send"));
    }

    #[test]
    fn helper_wrapped_spawn_via_method_call() {
        let src = "impl W { fn fan_out(&self) { scope.spawn(|| work()); }\n\
                   fn f(&self, m: &M) { let g = m.lock(); self.fan_out(); } }";
        let diags = run_interproc(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("`fan_out`"));
    }

    #[test]
    fn dropped_guard_before_helper_is_clean() {
        let src = "fn notify(tx: &Sender<u32>) { tx.send(1).ok(); }\n\
                   fn f(m: &M, tx: &Sender<u32>) { let g = m.lock(); use_it(&g); drop(g);\n\
                   notify(tx); }";
        assert!(run_interproc(src).is_empty());
    }

    #[test]
    fn clean_helper_is_not_a_hazard() {
        let src = "fn tally(n: u32) -> u32 { n + 1 }\n\
                   fn f(m: &M) { let g = m.lock(); tally(*g); }";
        assert!(run_interproc(src).is_empty());
    }

    #[test]
    fn direct_hazard_left_to_base_rule() {
        // `spawn` both defined in-file *and* a hazard token at the call
        // site: interproc-guard stays silent, guard-across-spawn owns it.
        let src = "fn spawn(f: F) { scope.spawn(f); }\n\
                   fn f(m: &M) { let g = m.lock(); spawn(|| work()); }";
        assert!(run_interproc(src).is_empty());
    }

    fn run_serve(src: &str) -> Vec<Diagnostic> {
        let model = FileModel::build(src);
        let mut out = Vec::new();
        serve_read_lock("crates/lamo-serve/src/x.rs", &model, &mut out);
        out
    }

    #[test]
    fn serve_rule_flags_lock_types_and_acquisitions() {
        let src = "use parking_lot::Mutex;\n\
                   pub fn f(m: &Mutex<u32>, l: &RwLock<u32>) {\n\
                   let a = m.lock();\n\
                   let b = l.read();\n\
                   let c = l.write();\n\
                   let d = m.try_lock();\n\
                   }";
        let diags = run_serve(src);
        // 3 type mentions (Mutex ×2, RwLock — the use and the params)
        // + 4 acquisitions.
        assert_eq!(diags.len(), 7);
        assert!(diags.iter().all(|d| d.rule == Rule::ServeReadLock));
    }

    #[test]
    fn serve_rule_ignores_lookalikes_and_tests() {
        let src = "pub fn f() { let data = std::fs::read(path); write!(out, \"x\"); }\n\
                   #[cfg(test)]\nmod tests {\n#[test]\nfn t() { let g = m.lock(); g; }\n}";
        assert!(run_serve(src).is_empty());
    }

    #[test]
    fn unrelated_read_method_not_a_guard() {
        // `.read()` on a file-like object then fully consumed: the RHS's
        // last call is `to_vec`, not an acquisition.
        let src = "fn f() { let data = file.read().to_vec();\n\
                   scope.spawn(|| work()); }";
        assert!(run(src).is_empty());
    }
}
