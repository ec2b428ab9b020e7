//! `mips-lint`: the repo-invariant lint pass.
//!
//! A zero-dependency, line/token-level checker for invariants `rustc` and
//! `clippy` cannot express because they are *repository* conventions, not
//! language rules:
//!
//! * **`unsafe-outside-simd`** — `unsafe` code is confined to
//!   `crates/linalg/src/simd/`; every other crate root carries
//!   `#![forbid(unsafe_code)]` (checked by `missing-forbid-unsafe`). The
//!   one blessed exception is the `poll(2)` call in
//!   `crates/net/src/poll.rs`: the allow list names that file (and
//!   `mips-net`'s root, which `deny`s instead of `forbid`ding so the one
//!   module can opt back in); any other file of that crate is still
//!   caught, which the self-test checks *through* the allow list.
//! * **`missing-safety-comment`** — every `unsafe` occurrence, blessed or
//!   not, is annotated: a `// SAFETY:` (or `// SAFETY contract:`) comment
//!   in the contiguous comment/attribute block above it.
//! * **`nan-comparator`** — no `partial_cmp(..).unwrap()` /
//!   `partial_cmp(..).expect(..)` comparators; `f64::total_cmp` is total
//!   and NaN-safe, a panicking comparator inside `sort_by` aborts mid-sort
//!   on the first NaN a model sneaks in.
//! * **`std-sync-outside-facade`** — `mips-core` code never names
//!   `std::sync` / `std::thread` directly; everything goes through the
//!   `crate::sync` facade so `--cfg mips_model_check` can substitute the
//!   model-checked primitives. (Doc comments and integration tests are
//!   exempt: they run outside the model.)
//! * **`as-f32-narrowing`** — no `as f32` demotions outside the blessed
//!   mixed-precision sites listed in `crates/lint/allow.txt`; a stray
//!   narrowing silently forfeits the exactness contract.
//! * **`as-i8-narrowing`** — same discipline for the int8 screen tier: no
//!   `as i8` casts outside the blessed quantization sites. Quantizing is
//!   only exact-safe where the symmetric scale/clamp/envelope analysis
//!   applies; an unblessed cast is either a truncation bug or a screen
//!   site missing its error budget.
//! * **`loop-thread-panic`** — the front door's event loop runs the code of
//!   `crates/net/src/{lib,conn,http,json}.rs` on its one thread, and a
//!   panic there takes every connection down with it. Outside their
//!   `#[cfg(test)]` modules those files call no `.unwrap()`, `.expect(`,
//!   `panic!`, `unreachable!`, `todo!` or `unimplemented!`, and index or
//!   slice nothing with `[…]` (`get`, `split_at_checked` and iterators do
//!   not panic), unless `crates/lint/allow.txt` names the file with the
//!   reason.
//!
//! Comments and string literals are stripped before token checks, so prose
//! about `unsafe` or examples inside doc comments never trip the lint.
//!
//! Usage: `cargo run -p mips-lint` (CI runs it from the workspace root);
//! `--root <dir>` overrides the workspace root; `--self-test` runs the
//! checker against seeded violations and fails unless every one is caught.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation at a file:line.
struct Finding {
    rule: &'static str,
    path: String,
    line: usize,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Carry-over lexer state between lines: inside a `/* */` comment, or
/// inside a multi-line string literal (with its closing delimiter).
#[derive(Clone, PartialEq)]
enum LexState {
    Code,
    BlockComment(u32),
    Str,
    RawStr(usize),
}

/// Strips comments and string-literal *contents* from one source line,
/// returning the code-only text (stripped spans become spaces so token
/// boundaries survive). Tracks block comments and multi-line strings
/// across lines via `state`.
fn strip_line(line: &str, state: &mut LexState) -> String {
    let bytes = line.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0usize;
    while i < bytes.len() {
        match state.clone() {
            LexState::BlockComment(depth) => {
                if bytes[i..].starts_with(b"*/") {
                    *state = if depth > 1 {
                        LexState::BlockComment(depth - 1)
                    } else {
                        LexState::Code
                    };
                    i += 2;
                } else if bytes[i..].starts_with(b"/*") {
                    *state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            LexState::Str => {
                if bytes[i] == b'\\' {
                    i += 2;
                } else if bytes[i] == b'"' {
                    *state = LexState::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if bytes[i] == b'"'
                    && bytes[i + 1..].len() >= hashes
                    && bytes[i + 1..i + 1 + hashes].iter().all(|&b| b == b'#')
                {
                    *state = LexState::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            LexState::Code => {
                if bytes[i..].starts_with(b"//") {
                    break; // rest of the line is a comment
                } else if bytes[i..].starts_with(b"/*") {
                    *state = LexState::BlockComment(1);
                    i += 2;
                } else if bytes[i] == b'"' {
                    *state = LexState::Str;
                    i += 1;
                } else if bytes[i] == b'r'
                    && (i == 0 || !is_word(bytes[i - 1]))
                    && bytes[i + 1..]
                        .iter()
                        .take_while(|&&b| b == b'#')
                        .count()
                        .checked_add(i + 1)
                        .is_some_and(|j| bytes.get(j) == Some(&b'"'))
                {
                    let hashes = bytes[i + 1..].iter().take_while(|&&b| b == b'#').count();
                    *state = LexState::RawStr(hashes);
                    i += 2 + hashes;
                } else if bytes[i] == b'\'' {
                    // Char literal or lifetime. `'x'` / `'\n'` are
                    // literals; `'a` (no closing quote nearby) is a
                    // lifetime — copy it through as code.
                    let close = if bytes.get(i + 1) == Some(&b'\\') {
                        bytes[i + 2..]
                            .iter()
                            .position(|&b| b == b'\'')
                            .map(|p| p + i + 3)
                    } else if bytes.get(i + 2) == Some(&b'\'') {
                        Some(i + 3)
                    } else {
                        None
                    };
                    match close {
                        Some(end) => i = end,
                        None => {
                            out[i] = bytes[i];
                            i += 1;
                        }
                    }
                } else {
                    out[i] = bytes[i];
                    i += 1;
                }
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `needle` occurs in `code` as a whole token (word boundaries on
/// both sides; interior spaces in the needle match literal spaces).
fn has_token(code: &str, needle: &str) -> bool {
    token_at(code, needle).is_some()
}

fn token_at(code: &str, needle: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_word(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_word(bytes[end]);
        if left_ok && right_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// The files whose code runs on the front door's event-loop thread.
const LOOP_THREAD_FILES: [&str; 4] = [
    "crates/net/src/lib.rs",
    "crates/net/src/conn.rs",
    "crates/net/src/http.rs",
    "crates/net/src/json.rs",
];

/// The calls that panic on the caller's thread: method calls matched as
/// text, macros as whole tokens.
const PANICKING_CALLS: [&str; 2] = [".unwrap()", ".expect("];
const PANICKING_MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Whether `line` indexes or slices with `[…]`: a bracket glued to the
/// expression before it (`xs[i]`, `f()[0]`, `m[r][c]`). Array types and
/// literals, attributes and `vec![…]` follow a space, `&`, `<`, `(`, `#`
/// or `!` instead.
fn indexes(line: &str) -> bool {
    let bytes = line.as_bytes();
    (1..bytes.len()).any(|i| {
        let before = bytes[i - 1];
        bytes[i] == b'[' && (is_word(before) || before == b')' || before == b']')
    })
}

/// The per-file rule pass over pre-stripped code lines. `path` uses `/`
/// separators relative to the workspace root.
fn lint_lines(path: &str, raw: &[&str], code: &[String], findings: &mut Vec<Finding>) {
    let in_simd = path.contains("crates/linalg/src/simd/");
    let in_core_src = path.starts_with("crates/core/src/");
    let is_facade = path == "crates/core/src/sync.rs";
    // Loop-thread code ends where the file's test module begins; an
    // item-level `#[cfg(test)]` (on a fn or an impl) ends nothing.
    let loop_code_end = if LOOP_THREAD_FILES.contains(&path) {
        (0..raw.len())
            .find(|&i| raw[i].trim_start().starts_with("#[cfg(test)]") && opens_mod(&code[i + 1..]))
            .unwrap_or(raw.len())
    } else {
        0
    };

    for (idx, code_line) in code.iter().enumerate() {
        let line_no = idx + 1;

        // Rule: unsafe confined to the simd directory (the allow list
        // blesses the one site outside it); every occurrence, wherever it
        // is, is annotated with a SAFETY comment.
        if has_token(code_line, "unsafe") {
            if !in_simd {
                findings.push(Finding {
                    rule: "unsafe-outside-simd",
                    path: path.to_string(),
                    line: line_no,
                    message: "`unsafe` outside crates/linalg/src/simd/ — the repo confines \
                              unsafe code to the SIMD kernels"
                        .to_string(),
                });
            }
            if !safety_annotated(raw, idx) {
                findings.push(Finding {
                    rule: "missing-safety-comment",
                    path: path.to_string(),
                    line: line_no,
                    message: "`unsafe` without a `// SAFETY:` comment in the attribute/comment \
                              block above it"
                        .to_string(),
                });
            }
        }

        // Rule: no partial_cmp(..).unwrap()/.expect(..) comparators. The
        // unwrap may land on the next line (rustfmt chains), so check a
        // two-line window after the call.
        if let Some(pos) = token_at(code_line, "partial_cmp") {
            let mut tail = code_line[pos..].to_string();
            if let Some(next) = code.get(idx + 1) {
                tail.push_str(next);
            }
            if tail.contains(".unwrap") || tail.contains(".expect") {
                findings.push(Finding {
                    rule: "nan-comparator",
                    path: path.to_string(),
                    line: line_no,
                    message: "partial_cmp(..).unwrap()/.expect(..) comparator — use \
                              `total_cmp`, which is total and NaN-safe"
                        .to_string(),
                });
            }
        }

        // Rule: mips-core library code reaches synchronization only
        // through the crate::sync facade.
        if in_core_src && !is_facade {
            for needle in ["std::sync", "std::thread"] {
                if has_token(code_line, needle) {
                    findings.push(Finding {
                        rule: "std-sync-outside-facade",
                        path: path.to_string(),
                        line: line_no,
                        message: format!(
                            "direct `{needle}` in mips-core — import through `crate::sync` so \
                             the model-check cfg can substitute instrumented primitives"
                        ),
                    });
                }
            }
        }

        // Rule: no f32 demotion outside blessed sites.
        if has_token(code_line, "as f32") {
            findings.push(Finding {
                rule: "as-f32-narrowing",
                path: path.to_string(),
                line: line_no,
                message: "`as f32` narrowing outside the blessed mixed-precision sites — exact \
                          scores must come from the f64 path (see crates/lint/allow.txt)"
                    .to_string(),
            });
        }

        // Rule: nothing on the event-loop thread panics.
        if idx < loop_code_end {
            let call = PANICKING_CALLS.iter().find(|c| code_line.contains(*c));
            let mac = PANICKING_MACROS.iter().find(|m| has_token(code_line, m));
            let index = indexes(code_line).then_some(&"[…]");
            if let Some(what) = call.or(mac).or(index) {
                findings.push(Finding {
                    rule: "loop-thread-panic",
                    path: path.to_string(),
                    line: line_no,
                    message: format!(
                        "`{what}` on the event-loop thread — one panic there drops every \
                         connection; return a typed error (or bless the file in \
                         crates/lint/allow.txt with the reason)"
                    ),
                });
            }
        }

        // Rule: no i8 quantization casts outside blessed sites.
        if has_token(code_line, "as i8") {
            findings.push(Finding {
                rule: "as-i8-narrowing",
                path: path.to_string(),
                line: line_no,
                message: "`as i8` cast outside the blessed quantization sites — int8 codes are \
                          only exact-safe under the symmetric scale/clamp/envelope analysis \
                          (see crates/lint/allow.txt)"
                    .to_string(),
            });
        }
    }
}

/// Whether the first item in `code`, past blank, comment and attribute
/// lines, is a `mod` (of any visibility).
fn opens_mod(code: &[String]) -> bool {
    code.iter()
        .map(|l| l.trim())
        .find(|t| !t.is_empty() && !t.starts_with("#["))
        .and_then(|t| t.split_whitespace().find(|w| !w.starts_with("pub")))
        == Some("mod")
}

/// Whether the `unsafe` at `raw[idx]` is annotated: a comment containing
/// `SAFETY` on the same line, or anywhere in the contiguous block of
/// comment/attribute/blank lines directly above it.
fn safety_annotated(raw: &[&str], idx: usize) -> bool {
    if raw[idx].contains("SAFETY") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = raw[j].trim_start();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") || t.is_empty() {
            if t.contains("SAFETY") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Lints one file's content (entry point shared by the tree walk and the
/// self-test's seeded sources).
fn lint_content(path: &str, content: &str, findings: &mut Vec<Finding>) {
    let raw: Vec<&str> = content.lines().collect();
    let mut state = LexState::Code;
    let code: Vec<String> = raw.iter().map(|l| strip_line(l, &mut state)).collect();
    lint_lines(path, &raw, &code, findings);
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`. `mips-linalg`
/// is the one exemption: its simd module opts back in, under the SAFETY
/// rules above.
fn lint_forbid_unsafe(root: &Path, findings: &mut Vec<Finding>) {
    for dir in ["crates", "shims"] {
        let Ok(entries) = fs::read_dir(root.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            let lib = entry.path().join("src").join("lib.rs");
            let rel = format!("{dir}/{}/src/lib.rs", entry.file_name().to_string_lossy());
            if rel.contains("linalg") {
                continue;
            }
            let Ok(content) = fs::read_to_string(&lib) else {
                continue; // bin-only crate (mips-lint itself)
            };
            if !content.contains("#![forbid(unsafe_code)]") {
                findings.push(Finding {
                    rule: "missing-forbid-unsafe",
                    path: rel,
                    line: 1,
                    message: "crate root lacks `#![forbid(unsafe_code)]` — every crate except \
                              mips-linalg forbids unsafe outright"
                        .to_string(),
                });
            }
        }
    }
}

/// `(rule, path-fragment)` suppressions from `crates/lint/allow.txt`.
fn load_allow_list(root: &Path) -> Vec<(String, String)> {
    let path = root.join("crates").join("lint").join("allow.txt");
    let Ok(content) = fs::read_to_string(path) else {
        return Vec::new();
    };
    content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (rule, frag) = l.split_once(char::is_whitespace)?;
            Some((rule.to_string(), frag.trim().to_string()))
        })
        .collect()
}

fn is_allowed(finding: &Finding, allow: &[(String, String)]) -> bool {
    allow
        .iter()
        .any(|(rule, frag)| rule == finding.rule && finding.path.contains(frag))
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace under `root`. Returns the surviving
/// (non-allow-listed) findings.
fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(content) = fs::read_to_string(file) else {
            continue;
        };
        lint_content(&rel, &content, &mut findings);
    }
    lint_forbid_unsafe(root, &mut findings);

    let allow = load_allow_list(root);
    findings.retain(|f| !is_allowed(f, &allow));
    findings
}

/// Seeded-violation self-test: every rule must fire on a planted bad
/// source and stay silent on a clean one. Exits nonzero if the checker
/// misses any seed — a lint that cannot fail its own seeds proves
/// nothing.
fn self_test(root: &Path) -> ExitCode {
    // (rule that must fire, path it is seeded at, source). A seed counts
    // as caught only if its finding also survives the repo's allow list —
    // so an allow entry that is too broad (say `crates/net/src/` instead
    // of the one blessed file) fails the self-test.
    let allow = load_allow_list(root);
    let seeds: &[(&str, &str, &str)] = &[
        (
            "unsafe-outside-simd",
            "crates/core/src/seeded.rs",
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        ),
        (
            "unsafe-outside-simd",
            "crates/net/src/conn.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: seeded.\n    unsafe { *p }\n}\n",
        ),
        (
            "missing-safety-comment",
            "crates/linalg/src/simd/seeded.rs",
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        ),
        (
            "missing-safety-comment",
            "crates/net/src/poll.rs",
            "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        ),
        (
            "nan-comparator",
            "crates/data/src/seeded.rs",
            "pub fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        ),
        (
            "nan-comparator",
            "crates/data/src/seeded_split.rs",
            "pub fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b)\n        .expect(\"finite\"));\n}\n",
        ),
        (
            "std-sync-outside-facade",
            "crates/core/src/seeded_sync.rs",
            "use std::sync::Mutex;\npub static M: Mutex<u32> = Mutex::new(0);\n",
        ),
        (
            "std-sync-outside-facade",
            "crates/core/src/seeded_thread.rs",
            "pub fn f() {\n    std::thread::yield_now();\n}\n",
        ),
        (
            "as-f32-narrowing",
            "crates/topk/src/seeded.rs",
            "pub fn f(x: f64) -> f32 {\n    x as f32\n}\n",
        ),
        (
            "as-i8-narrowing",
            "crates/topk/src/seeded_i8.rs",
            "pub fn f(x: f64) -> i8 {\n    x as i8\n}\n",
        ),
        (
            "loop-thread-panic",
            "crates/net/src/conn.rs",
            "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        ),
        (
            // An item-level `#[cfg(test)]` part-way through a file does
            // not exempt the loop-thread code after it.
            "loop-thread-panic",
            "crates/net/src/lib.rs",
            "#[cfg(test)]\nfn probe() {}\npub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        ),
        (
            // Slice indexing panics out of bounds like an unwrap.
            "loop-thread-panic",
            "crates/net/src/http.rs",
            "pub fn f(xs: &[u8], n: usize) -> &[u8] {\n    &xs[..n]\n}\n",
        ),
    ];

    // Sources the lint must NOT flag: the conventions done right, plus
    // prose/doc-example mentions that only a token-level check survives.
    let clean: &[(&str, &str)] = &[
        (
            // The blessed site outside simd: allow-listed, and annotated.
            "crates/net/src/poll.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        ),
        (
            "crates/linalg/src/simd/seeded_good.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        ),
        (
            "crates/core/src/seeded_good.rs",
            "//! Doc prose may say unsafe, std::sync::Mutex, x as f32, and\n//! partial_cmp(a).unwrap() without tripping the lint.\nuse crate::sync::Mutex;\npub fn f(xs: &mut [f64]) {\n    let s = \"unsafe { std::sync::x as f32 }\";\n    let _ = s;\n    xs.sort_by(|a, b| a.total_cmp(b));\n}\n",
        ),
        (
            "crates/topk/src/seeded_good.rs",
            "pub fn f(x: f32) -> f64 {\n    f64::from(x) // widening is always fine\n}\n",
        ),
        (
            "crates/topk/src/seeded_good_i8.rs",
            "//! Doc prose may mention v as i8 without tripping the lint.\npub fn f(x: i8) -> i32 {\n    i32::from(x) // widening an i8 code is always fine\n}\n",
        ),
        (
            // Loop-thread code may say `.unwrap()` in prose and call
            // `unwrap_or`; its test module may unwrap.
            "crates/net/src/json.rs",
            "/// Never `.unwrap()`, `panic!` or `xs[i]` here.\n#[inline]\npub fn f(x: Option<u8>, xs: &[u8; 2]) -> u8 {\n    let [a, _] = *xs;\n    let _ = vec![0u8; 2];\n    x.unwrap_or(a)\n}\n#[cfg(test)]\nmod tests {\n    fn g() {\n        super::f(None).checked_add(1).unwrap();\n    }\n}\n",
        ),
        (
            // Off the loop thread (the blocking client) the rule is silent.
            "crates/net/src/client.rs",
            "pub fn f(x: Option<u8>) -> u8 {\n    x.expect(\"present\")\n}\n",
        ),
    ];

    let mut failed = false;
    for (rule, path, src) in seeds {
        let mut findings = Vec::new();
        lint_content(path, src, &mut findings);
        if findings
            .iter()
            .any(|f| f.rule == *rule && !is_allowed(f, &allow))
        {
            println!("self-test: [{rule}] caught at {path}");
        } else {
            println!("self-test: FAIL — seeded [{rule}] at {path} was not caught");
            failed = true;
        }
    }
    for (path, src) in clean {
        let mut findings = Vec::new();
        lint_content(path, src, &mut findings);
        for f in findings.iter().filter(|f| !is_allowed(f, &allow)) {
            println!("self-test: FAIL — false positive on clean source: {f}");
            failed = true;
        }
    }

    if failed {
        println!("self-test: FAILED");
        ExitCode::FAILURE
    } else {
        println!(
            "self-test: ok ({} seeds caught, {} clean files silent)",
            seeds.len(),
            clean.len()
        );
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.iter().position(|a| a == "--root") {
        Some(i) => PathBuf::from(args.get(i + 1).expect("--root needs a path")),
        // The workspace root, from the lint crate's own manifest dir —
        // correct no matter where cargo is invoked from.
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint has a workspace root")
            .to_path_buf(),
    };
    if args.iter().any(|a| a == "--self-test") {
        return self_test(&root);
    }

    let findings = lint_workspace(&root);
    if findings.is_empty() {
        println!("mips-lint: clean");
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            println!("{finding}");
        }
        println!("mips-lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}
