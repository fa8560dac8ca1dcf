//! The `cargo xtask lint` workspace pass: concurrency-hygiene rules the
//! compiler cannot express, enforced over `crates/*/src`.
//!
//! | Rule | Enforces |
//! |------|----------|
//! | `MRL-L001` | every atomic `Ordering::` use carries an `// ordering:` justification (same or preceding line) |
//! | `MRL-L002` | `Instant::now` and `SystemTime::now` only inside `mrl-obs`'s timer module — everything else must go through `ScopedTimer` (or the journal clock) so disabled metrics stay zero-cost |
//! | `MRL-L003` | `thread::spawn` and `.unwrap()` on channel/join results only inside `mrl-parallel` — thread lifecycle errors must propagate as `ShardedError`, not panics |
//! | `MRL-L004` | `sort_unstable` only in seal/collapse/output modules of the streaming crates — ingestion is sort-free by design |
//! | `MRL-L005` | no `panic!`/`.expect(`/`unreachable!`/`todo!`/`unimplemented!` in library crates' non-test code (pre-existing sites are pinned in the baseline ratchet) |
//!
//! Test code (`#[cfg(test)]` modules) is skipped; string literals and
//! comments are lexed out so patterns inside them never match.
//!
//! Every finding carries a **fingerprint**: a 64-bit FNV-1a hash of
//! `(rule, path, whitespace-normalised snippet, occurrence index)`. The
//! fingerprint is independent of line numbers, so unrelated edits above a
//! finding do not churn CI diffs, while a *new* occurrence of an already
//! known snippet still gets a fresh fingerprint. The committed baseline
//! (`crates/xtask/lint-baseline.txt`) grandfathers pre-existing findings;
//! `cargo xtask lint` fails only on fingerprints not in the baseline, and
//! `--update-baseline` re-pins it.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod sarif;
pub mod validate;

/// One source line split into its code and comment parts, with string
/// literal contents blanked out of the code.
#[derive(Debug, Default, Clone)]
pub struct SourceLine {
    /// Code with comments removed and string/char contents replaced by
    /// spaces (delimiters kept), so lint patterns never match text.
    pub code: String,
    /// The comment text of this line (line and block comments merged).
    pub comment: String,
    /// True if this line sits inside a `#[cfg(test)]` module block.
    pub in_test: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum LexState {
    Normal,
    Block(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Lex `src` into per-line code/comment splits. The lexer understands
/// line/block (nested) comments, string, raw-string and char literals,
/// and lifetimes; it is deliberately approximate beyond that — good
/// enough for pattern rules, not a parser.
pub fn lex(src: &str) -> Vec<SourceLine> {
    let mut lines: Vec<SourceLine> = Vec::new();
    let mut cur = SourceLine::default();
    let mut state = LexState::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            if state == LexState::Str {
                cur.code.push(' '); // keep multi-line strings blanked
            }
            i += 1;
            continue;
        }
        match state {
            LexState::Normal => match c {
                '/' if next == Some('/') => {
                    // Line comment: consume to end of line into `comment`.
                    while i < chars.len() && chars[i] != '\n' {
                        cur.comment.push(chars[i]);
                        i += 1;
                    }
                    continue;
                }
                '/' if next == Some('*') => {
                    state = LexState::Block(1);
                    i += 2;
                    continue;
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        cur.code.push('r');
                        cur.code.push('"');
                        state = LexState::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    cur.code.push(c);
                    i += 1;
                    continue;
                }
                '"' => {
                    cur.code.push('"');
                    state = LexState::Str;
                    i += 1;
                    continue;
                }
                '\'' => {
                    // Char literal if it closes within a couple of chars
                    // (`'a'`, `'\n'`, `'\u{..}'`); otherwise a lifetime.
                    let is_char =
                        next == Some('\\') || (next.is_some() && chars.get(i + 2) == Some(&'\''));
                    cur.code.push('\'');
                    if is_char {
                        state = LexState::Char;
                    }
                    i += 1;
                    continue;
                }
                _ => {
                    cur.code.push(c);
                    i += 1;
                    continue;
                }
            },
            LexState::Block(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        LexState::Normal
                    } else {
                        LexState::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = LexState::Block(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
                continue;
            }
            LexState::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    if next.is_some() {
                        cur.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = LexState::Normal;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
                continue;
            }
            LexState::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        state = LexState::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                cur.code.push(' ');
                i += 1;
                continue;
            }
            LexState::Char => {
                if c == '\\' && next.is_some() {
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = LexState::Normal;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
                continue;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    mark_test_blocks(&mut lines);
    lines
}

/// Flag every line inside a `#[cfg(test)] mod … { … }` block (attributes
/// between the cfg and the mod are tolerated) as test code.
fn mark_test_blocks(lines: &mut [SourceLine]) {
    let mut i = 0;
    while i < lines.len() {
        let code = lines[i].code.trim().to_string();
        if code.starts_with("#[cfg(") && code.contains("test") {
            // Find the mod opening within the next few lines.
            let mut j = i;
            let mut depth: i64 = 0;
            let mut opened = false;
            while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// A lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id, e.g. `MRL-L001`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Whitespace-normalised offending code.
    pub snippet: String,
    /// Stable id: FNV-1a of (rule, path, snippet, occurrence index).
    pub fingerprint: String,
    /// Human explanation of what the rule wants.
    pub message: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}:{} {} [{}]",
            self.fingerprint, self.rule, self.path, self.line, self.snippet, self.message
        )
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn normalise(code: &str) -> String {
    code.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Files allowed to break a rule, with the justification shown on demand.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "MRL-L002",
        "crates/obs/src/timer.rs",
        "the one sanctioned wall-clock read; everything else uses ScopedTimer",
    ),
    (
        "MRL-L004",
        "crates/framework/src/buffer.rs",
        "buffer sealing: the §3 sorted-buffer invariant is established here",
    ),
    (
        "MRL-L004",
        "crates/framework/src/engine.rs",
        "seal/collapse/output paths of the engine itself",
    ),
    (
        "MRL-L004",
        "crates/framework/src/snapshot.rs",
        "query snapshots seal the partial buffer copy",
    ),
    (
        "MRL-L004",
        "crates/framework/src/policy.rs",
        "collapse policies order the collapse set",
    ),
    (
        "MRL-L004",
        "crates/framework/src/cdf.rs",
        "output assembly sorts the weighted sample once at finish",
    ),
    (
        "MRL-L004",
        "crates/framework/src/spine.rs",
        "query-spine rebuild sorts the weighted view once per ingest epoch",
    ),
    (
        "MRL-L004",
        "crates/parallel/src/coordinator.rs",
        "cross-shard shipment merge is a collapse",
    ),
    (
        "MRL-L004",
        "crates/sampling/src/reservoir.rs",
        "reservoir output assembly sorts its final sample",
    ),
];

/// Crates whose `src` is scanned. `cli` and `bench` are binaries and
/// exempt from the library-only rules; `xtask` lints itself out.
const LIB_CRATES: &[&str] = &[
    "analysis",
    "baselines",
    "core",
    "datagen",
    "exact",
    "framework",
    "io",
    "obs",
    "parallel",
    "sampling",
];

/// Crates on the streaming hot path, where MRL-L004 (sort confinement)
/// applies; baseline/offline crates sort as part of their algorithms.
const STREAMING_CRATES: &[&str] = &["core", "framework", "io", "obs", "parallel", "sampling"];

fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

fn allowlisted(rule: &str, path: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(r, p, _)| *r == rule && path.starts_with(p))
}

/// Lint one file's contents. `path` must be workspace-relative with
/// forward slashes.
pub fn lint_file(path: &str, src: &str) -> Vec<Violation> {
    let lines = lex(src);
    let mut raw: Vec<(&'static str, usize, String, &'static str)> = Vec::new();
    let in_lib = crate_of(path).is_some_and(|c| LIB_CRATES.contains(&c));
    let in_streaming = crate_of(path).is_some_and(|c| STREAMING_CRATES.contains(&c));
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        // A justification tag counts on the same line or anywhere in the
        // contiguous comment block immediately above the statement.
        let justified = |tag: &str| {
            if line.comment.contains(tag) {
                return true;
            }
            let mut j = idx;
            while j > 0 {
                j -= 1;
                let prev = &lines[j];
                if !prev.code.trim().is_empty() || prev.comment.is_empty() {
                    return false;
                }
                if prev.comment.contains(tag) {
                    return true;
                }
            }
            false
        };
        if code.contains("Ordering::") && !justified("ordering:") && !allowlisted("MRL-L001", path)
        {
            raw.push((
                "MRL-L001",
                idx,
                code.clone(),
                "atomic ordering needs an `// ordering:` justification on this or the preceding line",
            ));
        }
        if (code.contains("Instant::now") || code.contains("SystemTime::now"))
            && !allowlisted("MRL-L002", path)
        {
            raw.push((
                "MRL-L002",
                idx,
                code.clone(),
                "wall-clock reads are confined to mrl-obs::timer; use ScopedTimer or the journal clock",
            ));
        }
        if !path.starts_with("crates/parallel/") && !allowlisted("MRL-L003", path) {
            let spawns = code.contains("thread::spawn");
            let channel_unwrap = code.contains(".unwrap()")
                && (code.contains(".recv(")
                    || code.contains(".try_recv(")
                    || code.contains(".send(")
                    || code.contains(".try_send(")
                    || code.contains(".join()"));
            if spawns || channel_unwrap {
                raw.push((
                    "MRL-L003",
                    idx,
                    code.clone(),
                    "thread lifecycle belongs to mrl-parallel; propagate errors (ShardedError), don't spawn or unwrap channels here",
                ));
            }
        }
        if in_streaming && code.contains("sort_unstable") && !allowlisted("MRL-L004", path) {
            raw.push((
                "MRL-L004",
                idx,
                code.clone(),
                "streaming-path sorting is confined to seal/collapse/output modules (ingestion is sort-free)",
            ));
        }
        if in_lib
            && (code.contains("panic!(")
                || code.contains(".expect(")
                || code.contains("unreachable!(")
                || code.contains("todo!(")
                || code.contains("unimplemented!("))
            && !allowlisted("MRL-L005", path)
        {
            raw.push((
                "MRL-L005",
                idx,
                code.clone(),
                "library code must not panic!/expect/unreachable!/todo!/unimplemented! outside tests (grandfathered sites live in the baseline)",
            ));
        }
    }
    // Assign occurrence indices per (rule, normalised snippet) so moving a
    // finding does not change its fingerprint but duplicating it does.
    let mut out = Vec::with_capacity(raw.len());
    for (i, (rule, idx, code, message)) in raw.iter().enumerate() {
        let snippet = normalise(code);
        let occurrence = raw[..i]
            .iter()
            .filter(|(r, _, c, _)| r == rule && normalise(c) == snippet)
            .count();
        let fp = fnv1a64(format!("{rule}\0{path}\0{snippet}\0{occurrence}").as_bytes());
        out.push(Violation {
            rule,
            path: path.to_string(),
            line: idx + 1,
            snippet,
            fingerprint: format!("{fp:016x}"),
            message,
        });
    }
    out
}

fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return files;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        // Skip the tooling crates: their sources are full of rule
        // pattern strings and comparator code that would read as
        // findings of the very rules they implement.
        if name == "xtask" || name == "analyzer" {
            continue;
        }
        walk(&entry.path().join("src"), &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Count `// alloc:` justification tags across `crates/*/src` (tooling
/// crates excluded — the same file set the lint pass covers). Each tag
/// admits one allocation site on the per-element ingest path (MRL-A003),
/// so the total is the workspace's hot-path allocation budget; `cargo
/// xtask analyze` ratchets it against `crates/xtask/alloc-budget.txt`.
/// Returns the total plus per-file counts for reporting.
pub fn count_alloc_tags(root: &Path) -> std::io::Result<(usize, Vec<(String, usize)>)> {
    let mut per_file = Vec::new();
    let mut total = 0usize;
    for file in collect_sources(root) {
        let src = std::fs::read_to_string(&file)?;
        let count = src
            .lines()
            .filter(|l| l.trim_start().starts_with("// alloc:"))
            .count();
        if count > 0 {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            per_file.push((rel, count));
            total += count;
        }
    }
    per_file.sort();
    Ok((total, per_file))
}

/// Parse an alloc-budget file: the first non-comment line is the pinned
/// tag count.
pub fn parse_alloc_budget(contents: &str) -> Option<usize> {
    contents
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .and_then(|l| l.parse().ok())
}

/// Tighten-only re-pin decision for `cargo xtask analyze --prune`:
/// pruning may keep or shrink the alloc-tag budget in the same pass that
/// drops stale baseline entries, but never grow it — a higher live count
/// is a deliberate `--update-baseline` decision, not a prune side
/// effect. Returns the count to pin, or `Err` with the committed budget
/// the live count exceeds. A missing budget pins fresh.
pub fn prune_alloc_budget(count: usize, budget: Option<usize>) -> Result<usize, usize> {
    match budget {
        Some(b) if count > b => Err(b),
        _ => Ok(count),
    }
}

/// Render the alloc-budget file for a pinned tag count.
pub fn render_alloc_budget(count: usize) -> String {
    format!(
        "# MRL-A003 alloc-tag budget: the number of `// alloc:` justification\n\
         # tags across crates/*/src (tooling crates excluded). `cargo xtask\n\
         # analyze` fails when the live count exceeds this (the hot path gained\n\
         # an allocation site) and when it drops below (re-pin the tighter count\n\
         # with `cargo xtask analyze --prune`). The goal is for this number to\n\
         # shrink, never grow.\n\
         {count}\n"
    )
}

/// Lint every `crates/*/src` file under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for file in collect_sources(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        violations.extend(lint_file(&rel, &src));
    }
    violations.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Ok(violations)
}

/// Parse a baseline file: first whitespace-separated token of each
/// non-comment line is a fingerprint.
pub fn parse_baseline(contents: &str) -> Vec<String> {
    contents
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// Render violations in the committed baseline format.
pub fn render_baseline(violations: &[Violation]) -> String {
    let mut out = String::from(
        "# cargo xtask lint baseline: grandfathered findings by fingerprint.\n\
         # Regenerate with `cargo xtask lint --update-baseline`; the goal is\n\
         # for this file to shrink, never grow.\n",
    );
    for v in violations {
        out.push_str(&format!(
            "{} {} {} {}\n",
            v.fingerprint, v.rule, v.path, v.snippet
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::ALLOWLIST;
    use std::path::Path;

    /// An exemption for a deleted file would stay silent forever, and a
    /// new file at that path would inherit it unreviewed.
    #[test]
    fn allowlist_entries_name_live_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (rule, path, _) in ALLOWLIST {
            assert!(
                root.join(path).exists(),
                "{rule} allowlists `{path}`, which does not exist"
            );
        }
    }
}
