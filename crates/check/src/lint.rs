//! Repo-invariant lint driver.
//!
//! The compiler and clippy enforce every contract they can state
//! (DESIGN.md §13): no `unwrap`/`expect` in library code, and no raw
//! `std::fs` in the store or sparse crates, are clippy lints; the metric
//! and error-code taxonomies are the tier-1 test `tests/taxonomy.rs`. This
//! module keeps the three *workspace contracts* no compiler can say:
//!
//! 1. **kernel-cancel-token** — every public kernel entry point in
//!    `sparse`/`core`/`cluster`/`store` (SpGEMM, symmetrizations,
//!    clusterers, PageRank, Lanczos, cached-kernel wrappers) must
//!    accept a `CancelToken`, or be on the allowlist of deliberate
//!    convenience wrappers whose cancellable sibling exists.
//! 2. **cache-key-purity** — cache-key/fingerprint code must stay
//!    deterministic: no wall-clock read and no machine-parallelism probe
//!    may flow into `fingerprint.rs`, `cache.rs`, or any `*cache_params*`
//!    / `chain_key` / `stage_key` / `symmetrize_key` / `cluster_key`
//!    function body, in the engine or the store (whose on-disk content
//!    addresses are derived from the same keys). The kernel tuning
//!    (threads, panel plan) needs no token here: it lives in
//!    one `Tuning` value that no spec type or key function holds
//!    (DESIGN.md §12, "Tuning").
//! 3. **atomic-ordering** — every `Ordering::Relaxed` in non-test
//!    library code must carry a reason-carrying [`ALLOW_RELAXED`] entry
//!    naming the atomic and why relaxed ordering is sound there
//!    (DESIGN.md §18). An unexplained Relaxed on an atomic used for
//!    cross-thread handoff is exactly where lost-wakeup and stale-flag
//!    races hide; the audit makes each one a deliberate, documented
//!    decision.
//!
//! The scanner is line-based over comment/string-stripped source (no
//! syntax tree, zero dependencies): the rules only need signatures and
//! brace depth, and a small scanner that CI builds in two seconds beats a
//! proc-macro stack. The stripping itself is done by the token-stream
//! lexer in [`crate::lexer`], so comments, raw strings, char literals,
//! and lifetimes are classified once, correctly, for every rule. Every
//! allowlist entry is checked for staleness — an entry that matches
//! nothing is itself a lint error, so the lists cannot rot.

use crate::lexer;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (see module docs).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The rules this driver enforces, with one-line summaries (for
/// `symclust-check list-rules`).
pub const RULES: &[(&str, &str)] = &[
    (
        "kernel-cancel-token",
        "public kernels in sparse/core/cluster accept a CancelToken (or are allowlisted wrappers)",
    ),
    (
        "cache-key-purity",
        "no wall-clock or parallelism probe in engine/store cache-key/fingerprint code",
    ),
    (
        "atomic-ordering",
        "every Ordering::Relaxed in library code carries a reason-carrying allowlist entry",
    ),
];

/// Public kernels allowed to omit `CancelToken`, with the reason. Every
/// entry must still match a scanned function (staleness check).
const ALLOW_NO_TOKEN: &[(&str, &str)] = &[
    (
        "spgemm_flops",
        "O(nnz) FLOP estimator, not a kernel; used to size degraded mode",
    ),
    (
        "pagerank",
        "convenience wrapper; pagerank_cancellable is the kernel entry",
    ),
    (
        "lanczos_smallest",
        "convenience wrapper; lanczos_smallest_cancellable is the kernel entry",
    ),
    (
        "cluster_of",
        "assignment lookup on a finished Clustering, not a kernel",
    ),
    (
        "cluster_digraph",
        "BestWCut baseline entry; dominated by pagerank, which bounds its own iterations",
    ),
    (
        "symmetrize_key",
        "pure key derivation over the graph fingerprint; no kernel work",
    ),
    (
        "cluster_key",
        "pure key derivation over the symmetrize key; no kernel work",
    ),
];

/// Tokens banned from cache-key/fingerprint code, with the reason shown in
/// the violation.
const CACHE_KEY_BANNED: &[(&str, &str)] = &[
    (
        "Instant::now",
        "wall clock would make keys differ across runs",
    ),
    (
        "SystemTime",
        "wall clock would make keys differ across runs",
    ),
    (
        "available_parallelism",
        "thread count is machine-dependent and excluded from keys by design",
    ),
];

/// Name fragments that mark a `pub fn` as a kernel entry point for the
/// cancel-token rule.
const KERNEL_NAME_PATTERNS: &[&str] = &[
    "spgemm",
    "symmetrize",
    "cluster_",
    "pagerank",
    "lanczos",
    "mcl_",
];

/// The `Ordering::Relaxed` audit: `(path suffix, needle, reason)`.
///
/// Every `Ordering::Relaxed` in non-test library code must be covered by
/// an entry whose needle appears in a small window of code ending at the
/// occurrence (the window absorbs multi-line `compare_exchange` calls
/// whose ordering arguments sit on their own lines). The reason must say
/// why relaxed ordering is sound — which is always some variant of "this
/// atomic publishes no cross-thread data; only its own value matters".
/// Anything that *does* publish data (flags gating reads of other memory,
/// queue handoffs) must use Acquire/Release and never lands here. Entries
/// that match nothing fail the lint, so the audit cannot rot.
const ALLOW_RELAXED: &[(&str, &str, &str)] = &[
    (
        "obs/src/metric.rs",
        "self.value",
        "counter cell: monotonic word read only for reporting, publishes nothing",
    ),
    (
        "obs/src/metric.rs",
        "self.bits",
        "gauge cell: single f64-bits word, last-writer-wins by design, publishes nothing",
    ),
    (
        "obs/src/metric.rs",
        "compare_exchange_weak",
        "max/sum CAS retry loop on one independent cell; failure path only re-reads the same word",
    ),
    (
        "obs/src/metric.rs",
        "buckets",
        "histogram bucket counters: independent monotonic words, snapshot tolerance is documented",
    ),
    (
        "obs/src/metric.rs",
        "self.count",
        "histogram count: monotonic word, snapshots may tear vs sum by design",
    ),
    (
        "obs/src/metric.rs",
        "sum_bits",
        "histogram sum: f64-bits word updated via its own CAS loop, publishes nothing",
    ),
    (
        "engine/src/cache.rs",
        "hits",
        "cache-hit statistic: monotonic counter read only for reporting",
    ),
    (
        "engine/src/cache.rs",
        "misses",
        "cache-miss statistic: monotonic counter read only for reporting",
    ),
    (
        "engine/src/cache.rs",
        "dedups",
        "dedup statistic: monotonic counter read only for reporting",
    ),
    (
        "cli/src/server.rs",
        "queue_depth",
        "advisory depth gauge for health/overload reporting; admission correctness rides on the channel, not this counter",
    ),
    (
        "sparse/src/spill.rs",
        "SPILL_DIR_SEQ",
        "process-unique scratch-dir suffix: atomicity gives uniqueness, ordering is irrelevant",
    ),
    (
        "sparse/src/cancel.rs",
        "polls",
        "deadline-poll throttle counter; cancellation itself is published with Release and observed with Acquire",
    ),
    (
        "store/src/disk.rs",
        "next_seq",
        "LRU recency sequence: atomicity gives unique ticks, ordering is irrelevant",
    ),
    (
        "store/src/disk.rs",
        "degraded",
        "sticky degraded-mode flag and its probe counter carry no payload; observers need only eventual visibility",
    ),
    (
        "store/src/disk.rs",
        "hits",
        "store-hit statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "misses",
        "store-miss statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "puts",
        "store-put statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "evictions",
        "eviction statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "quarantined",
        "quarantine statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "put_errors",
        "put-error statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "stats_persist_errors",
        "stats-persist-error statistic: monotonic counter read only for stats reporting",
    ),
    (
        "store/src/disk.rs",
        "unpersisted",
        "events since the sidecar was last rewritten: only decides when to rewrite it; a racing tick is persisted one interval later, nothing is read through it",
    ),
];

/// How many code lines (ending at the occurrence) an [`ALLOW_RELAXED`]
/// needle may appear in. Absorbs multi-line atomic calls whose
/// `Ordering::Relaxed` arguments sit on their own lines (the widest in
/// tree: `compare_exchange_weak` with one argument per line, where the
/// failure ordering is four lines below the receiver).
const RELAXED_WINDOW: usize = 5;

/// Runs every rule over the workspace rooted at `root`. Returns the sorted
/// violation list (empty = clean).
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    let sources = collect_sources(root)?;
    let mut violations = Vec::new();
    violations.extend(rule_kernel_cancel_token(&sources));
    violations.extend(rule_cache_key_purity(&sources));
    violations.extend(rule_atomic_ordering(&sources));
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(violations)
}

/// Locates the workspace root by walking up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// One scanned source file: comment/string-stripped text (same line
/// layout as the raw file, contents blanked), and the line index where the
/// trailing `#[cfg(test)] mod tests` region starts (`usize::MAX` if none).
struct SourceFile {
    rel_path: String,
    code_lines: Vec<String>,
    test_start: usize,
}

impl SourceFile {
    fn crate_name(&self) -> &str {
        // "crates/<name>/src/..."
        self.rel_path.split('/').nth(1).unwrap_or("")
    }

    /// Lines of non-test library code, `(line_no_1based, code)`.
    fn lib_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code_lines
            .iter()
            .enumerate()
            .take(self.test_start)
            .map(|(i, code)| (i + 1, code.as_str()))
    }
}

fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for path in files {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let code_lines: Vec<String> = lexer::strip(&text).lines().map(str::to_string).collect();
        let test_start = code_lines
            .iter()
            .enumerate()
            .position(|(i, l)| {
                // `#[cfg(test)]` marks the trailing tests region. The
                // feature-gated variant `#[cfg(all(test, feature = …))]`
                // counts only when it gates a `mod` — the same attribute
                // on a single item (e.g. a shared test lock) is followed
                // by more library code that must stay scanned.
                l.contains("#[cfg(test)]")
                    || (l.contains("#[cfg(all(test")
                        && code_lines
                            .get(i + 1)
                            .is_some_and(|next| next.trim_start().starts_with("mod ")))
            })
            .unwrap_or(usize::MAX);
        sources.push(SourceFile {
            rel_path,
            code_lines,
            test_start,
        });
    }
    sources.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(sources)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- rule 1

/// A `pub fn` signature joined onto one line.
struct PubFn {
    name: String,
    signature: String,
    line: usize,
}

fn collect_pub_fns(file: &SourceFile) -> Vec<PubFn> {
    let mut fns = Vec::new();
    let lines: Vec<&str> = file
        .code_lines
        .iter()
        .take(file.test_start)
        .map(String::as_str)
        .collect();
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("pub fn ") {
            continue;
        }
        let name: String = trimmed["pub fn ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // Join lines until the signature's opening brace or trailing `;`.
        let mut signature = String::new();
        for joined in lines.iter().skip(i).take(24) {
            signature.push_str(joined.trim());
            signature.push(' ');
            if joined.contains('{') || joined.trim_end().ends_with(';') {
                break;
            }
        }
        fns.push(PubFn {
            name,
            signature,
            line: i + 1,
        });
    }
    fns
}

fn rule_kernel_cancel_token(sources: &[SourceFile]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut allow_hits = vec![false; ALLOW_NO_TOKEN.len()];
    for file in sources {
        if !matches!(file.crate_name(), "sparse" | "core" | "cluster" | "store") {
            continue;
        }
        for f in collect_pub_fns(file) {
            let is_kernel = KERNEL_NAME_PATTERNS.iter().any(|p| f.name.contains(p));
            if !is_kernel {
                continue;
            }
            if f.signature.contains("CancelToken") {
                continue;
            }
            if let Some(pos) = ALLOW_NO_TOKEN.iter().position(|(n, _)| *n == f.name) {
                allow_hits[pos] = true;
                continue;
            }
            violations.push(Violation {
                rule: "kernel-cancel-token",
                file: file.rel_path.clone(),
                line: f.line,
                message: format!(
                    "public kernel `{}` does not accept a CancelToken; add one \
                     (or allowlist it in crates/check with the reason a \
                     cancellable sibling exists)",
                    f.name
                ),
            });
        }
    }
    for (hit, (name, _)) in allow_hits.iter().zip(ALLOW_NO_TOKEN) {
        if !hit {
            violations.push(Violation {
                rule: "kernel-cancel-token",
                file: "crates/check/src/lint.rs".into(),
                line: 0,
                message: format!("stale allowlist entry `{name}` matches no public kernel"),
            });
        }
    }
    violations
}

// ---------------------------------------------------------------- rule 2

/// Whether this (file, fn) pair is cache-key code: the two key modules in
/// full, plus any key-derivation function body anywhere in the engine or
/// the store (which derives on-disk content addresses from the same keys).
fn rule_cache_key_purity(sources: &[SourceFile]) -> Vec<Violation> {
    const KEY_FNS: &[&str] = &[
        "cache_params",
        "cache_params_with_budget",
        "chain_key",
        "stage_key",
        "graph_fingerprint",
        "matrix_fingerprint",
        "symmetrize_key",
        "cluster_key",
    ];
    let mut violations = Vec::new();
    for file in sources {
        // The store derives the on-disk content addresses from the same
        // key functions, so its key-derivation code is held to the same
        // purity contract as the engine's.
        if !matches!(file.crate_name(), "engine" | "store") {
            continue;
        }
        let whole_file = file.rel_path.ends_with("engine/src/fingerprint.rs")
            || file.rel_path.ends_with("engine/src/cache.rs");
        // Mark lines inside key-derivation fn bodies via brace tracking.
        let lines: Vec<&str> = file
            .code_lines
            .iter()
            .take(file.test_start)
            .map(String::as_str)
            .collect();
        let mut in_key_fn = vec![false; lines.len()];
        let mut i = 0;
        while i < lines.len() {
            let t = lines[i].trim_start();
            let is_key_fn = ["pub fn ", "fn ", "pub(crate) fn "].iter().any(|prefix| {
                t.strip_prefix(prefix).is_some_and(|rest| {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    KEY_FNS.contains(&name.as_str())
                })
            });
            if !is_key_fn {
                i += 1;
                continue;
            }
            let mut depth = 0isize;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                in_key_fn[j] = true;
                depth += lines[j].matches('{').count() as isize;
                depth -= lines[j].matches('}').count() as isize;
                if lines[j].contains('{') {
                    opened = true;
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        }
        for (idx, line) in lines.iter().enumerate() {
            if !(whole_file || in_key_fn[idx]) {
                continue;
            }
            for (token, why) in CACHE_KEY_BANNED {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "cache-key-purity",
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!("`{token}` in cache-key/fingerprint code: {why}"),
                    });
                }
            }
        }
    }
    violations
}

// ---------------------------------------------------------------- rule 3

/// Every `Ordering::Relaxed` in non-test library code must be covered by a
/// reason-carrying [`ALLOW_RELAXED`] entry (DESIGN.md §18). Relaxed is the
/// one ordering that silently breaks cross-thread handoff: a flag stored
/// Relaxed can be observed before the data it guards. The audit forces each
/// site to state why no data rides on the atomic; stale entries fail.
fn rule_atomic_ordering(sources: &[SourceFile]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut allow_hits = vec![false; ALLOW_RELAXED.len()];
    for file in sources {
        for (lineno, code) in file.lib_lines() {
            if !code.contains("Ordering::Relaxed") {
                continue;
            }
            // Window of code lines ending at the occurrence, so the needle
            // can name the atomic even when the ordering argument of a
            // multi-line call sits on its own line.
            let lo = lineno.saturating_sub(RELAXED_WINDOW);
            let window = file.code_lines[lo..lineno].join("\n");
            let mut covered = false;
            for (pos, (path, needle, _)) in ALLOW_RELAXED.iter().enumerate() {
                if file.rel_path.ends_with(path) && window.contains(needle) {
                    allow_hits[pos] = true;
                    covered = true;
                }
            }
            if !covered {
                violations.push(Violation {
                    rule: "atomic-ordering",
                    file: file.rel_path.clone(),
                    line: lineno,
                    message: "`Ordering::Relaxed` without an ordering-audit entry; if no \
                              cross-thread data rides on this atomic, add a (path, needle, \
                              reason) entry to ALLOW_RELAXED in crates/check/src/lint.rs — \
                              otherwise use Acquire/Release"
                        .into(),
                });
            }
        }
    }
    for (hit, (path, needle, _)) in allow_hits.iter().zip(ALLOW_RELAXED) {
        if !hit {
            violations.push(Violation {
                rule: "atomic-ordering",
                file: "crates/check/src/lint.rs".into(),
                line: 0,
                message: format!("stale ALLOW_RELAXED entry ({path}, {needle:?}) matches nothing"),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripping_blanks_comments_and_strings_but_keeps_layout() {
        let src = "let x = \"unwrap() inside\"; // .unwrap() comment\nlet y = 1; /* multi\nline */ z();\n";
        let out = lexer::strip(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert!(!out.contains("unwrap"));
        assert!(out.contains("let x = \""));
        assert!(out.contains("z();"));
    }

    #[test]
    fn this_repository_is_lint_clean() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let violations = run(&root).expect("lint run succeeds");
        assert!(
            violations.is_empty(),
            "lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    fn one_file(rel_path: &str, lines: &[&str]) -> SourceFile {
        SourceFile {
            rel_path: rel_path.into(),
            code_lines: lines.iter().map(|l| l.to_string()).collect(),
            test_start: usize::MAX,
        }
    }

    #[test]
    fn pub_fn_collection_joins_multiline_signatures() {
        let file = one_file(
            "crates/sparse/src/x.rs",
            &[
                "pub fn spgemm_fancy(",
                "    a: &CsrMatrix,",
                "    token: &CancelToken,",
                ") -> Result<CsrMatrix> {",
            ],
        );
        let fns = collect_pub_fns(&file);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "spgemm_fancy");
        assert!(fns[0].signature.contains("CancelToken"));
    }

    #[test]
    fn missing_token_on_kernel_is_flagged() {
        let file = one_file(
            "crates/sparse/src/x.rs",
            &["pub fn spgemm_rogue(a: &CsrMatrix) -> CsrMatrix {"],
        );
        let violations = rule_kernel_cancel_token(std::slice::from_ref(&file));
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("spgemm_rogue")),
            "{violations:?}"
        );
    }
}
