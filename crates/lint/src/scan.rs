//! Token-stream structure recovery: brace-tracked blocks, `fn`/`mod`
//! items, `#[test]` / `#[cfg(test)]` regions, and `flexcore-lint:`
//! comment markers.
//!
//! The scanner is deliberately not a parser — it recovers exactly the
//! structure the lints consume:
//!
//! * which lines belong to test-only code (so discipline lints skip
//!   them),
//! * every `fn` item with its body span (for lane-twin checks and
//!   marker attachment),
//! * marker regions: `hot-path` / `bit-identity` markers extend from the
//!   marker to the close of the innermost enclosing brace block, or to
//!   end-of-file when written at the top level (a module-scope marker),
//! * `allow(FLxxx, reason = "…")` escapes, attached to the marker's own
//!   line when code shares it, otherwise to the next code line,
//! * `scalar-twin = name` declarations, attached to the enclosing `fn`.
//!
//! Malformed markers are surfaced as [`MarkerError`]s and reported by
//! the driver under the FL000 code — a marker that silently failed to
//! parse would otherwise silently stop enforcing a discipline.

use crate::lexer::{lex, TokKind, Token};

/// Marker-region kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// `// flexcore-lint: hot-path` — FL001 territory.
    HotPath,
    /// `// flexcore-lint: bit-identity` — FL002 territory.
    BitIdentity,
}

/// A marked source region, inclusive line span.
#[derive(Clone, Debug)]
pub struct Region {
    pub kind: RegionKind,
    pub start_line: u32,
    pub end_line: u32,
    /// True when the marker sat at brace depth zero: the region covers
    /// the rest of the module (file) and counts as module-scope coverage
    /// for the hot-path module inventory.
    pub module_scope: bool,
}

/// An `allow` escape marker.
#[derive(Clone, Debug)]
pub struct Allow {
    pub codes: Vec<String>,
    pub reason: String,
    /// Line the marker comment starts on.
    pub line: u32,
    /// Line whose findings this allow suppresses.
    pub target_line: u32,
}

/// A `fn` item recovered from the stream.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Body span (brace block), if the item has one.
    pub body: Option<(u32, u32)>,
    /// Carried a `#[test]`-like attribute or sits inside a test region.
    pub is_test: bool,
    /// `scalar-twin = name` declaration found in the body, if any.
    pub twin: Option<String>,
}

/// A malformed `flexcore-lint:` marker.
#[derive(Clone, Debug)]
pub struct MarkerError {
    pub line: u32,
    pub message: String,
}

/// Everything the lints need to know about one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Non-comment tokens, in order.
    pub code: Vec<Token>,
    pub regions: Vec<Region>,
    /// Inclusive line spans of test-only code.
    pub test_spans: Vec<(u32, u32)>,
    pub fns: Vec<FnItem>,
    pub allows: Vec<Allow>,
    pub marker_errors: Vec<MarkerError>,
    /// Code lines directly below a `// SAFETY:` comment (FL006).
    pub safety_lines: Vec<u32>,
}

impl FileScan {
    /// True when `line` falls in any test-only span.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// True when `line` falls in a region of `kind`.
    pub fn in_region(&self, kind: RegionKind, line: u32) -> bool {
        self.regions
            .iter()
            .any(|r| r.kind == kind && r.start_line <= line && line <= r.end_line)
    }

    /// True when an allow marker for `code` targets `line`.
    pub fn allowed(&self, code: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.target_line == line && a.codes.iter().any(|c| c == code))
    }

    /// True when a `// SAFETY:` comment sits directly above `line`.
    pub fn safety_documented(&self, line: u32) -> bool {
        self.safety_lines.contains(&line)
    }

    /// Size of this file's non-test code: `(code lines, pub items)`. A
    /// code line carries at least one code token — comments, blank lines
    /// and attribute-only lines do not count. A `pub` item is a bare
    /// `pub` followed by an item keyword; `pub(crate)`-style restricted
    /// items and struct fields are not public surface.
    pub fn surface(&self) -> (usize, usize) {
        let code = || self.code.iter().filter(|t| !self.in_test(t.line));
        let mut lines: Vec<u32> = code().map(|t| t.line).collect();
        lines.dedup();
        let pub_items = code()
            .zip(code().skip(1))
            .filter(|(t, next)| {
                t.ident() == Some("pub")
                    && next.ident().is_some_and(|kw| ITEM_KEYWORDS.contains(&kw))
            })
            .count();
        (lines.len(), pub_items)
    }

    /// True when any module-scope hot-path marker covers this file.
    pub fn has_module_hot_path(&self) -> bool {
        self.regions
            .iter()
            .any(|r| r.kind == RegionKind::HotPath && r.module_scope)
    }
}

/// Keywords that open an item after `pub` (see [`FileScan::surface`]).
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "unsafe", "async",
    "extern",
];

/// What one marker comment asks for.
enum MarkerAction {
    Region(RegionKind),
    Allow(Vec<String>, String),
    Twin(String),
    Error(String),
    /// Not a marker at all.
    None,
}

struct Block {
    is_test: bool,
    fn_idx: Option<usize>,
    /// Index into `FileScan::test_spans` opened by this block.
    test_span_idx: Option<usize>,
    /// Indices into `FileScan::regions` to close with this block.
    open_regions: Vec<usize>,
}

/// Scans one file's source text.
pub fn scan(src: &str) -> FileScan {
    let tokens = lex(src);
    let mut out = FileScan::default();
    let mut stack: Vec<Block> = Vec::new();
    // Region indices opened at the top level (closed at EOF).
    let mut file_regions: Vec<usize> = Vec::new();
    // Twin markers awaiting attachment: (line, twin name).
    let mut twin_markers: Vec<(u32, String)> = Vec::new();
    let mut pending_attr_test = false;
    // (name, line, had test attr) of a `fn` awaiting its body brace.
    let mut pending_fn: Option<(String, u32, bool)> = None;
    // Test flag of a `mod` awaiting its body brace.
    let mut pending_mod_test: Option<bool> = None;
    // Combined `(`/`[` nesting: a `;` only terminates an item at depth
    // zero (`-> [f64; LANES]` must not clear a pending fn).
    let mut group_depth = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match &t.kind {
            TokKind::Comment(text) => {
                if text
                    .trim_start_matches('/')
                    .trim_start()
                    .starts_with("SAFETY:")
                {
                    out.safety_lines.push(t.line); // patched in resolve_comment_targets
                }
                match parse_marker(text) {
                    MarkerAction::Region(kind) => {
                        let idx = out.regions.len();
                        out.regions.push(Region {
                            kind,
                            start_line: t.line,
                            end_line: t.line, // patched on close
                            module_scope: stack.is_empty(),
                        });
                        match stack.last_mut() {
                            Some(block) => block.open_regions.push(idx),
                            None => file_regions.push(idx),
                        }
                    }
                    MarkerAction::Allow(codes, reason) => out.allows.push(Allow {
                        codes,
                        reason,
                        line: t.line,
                        target_line: t.line, // patched in resolve_comment_targets
                    }),
                    MarkerAction::Twin(name) => twin_markers.push((t.line, name)),
                    MarkerAction::Error(message) => out.marker_errors.push(MarkerError {
                        line: t.line,
                        message,
                    }),
                    MarkerAction::None => {}
                }
                i += 1;
                continue;
            }
            TokKind::Punct('#')
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokKind::Punct('['))
                ) =>
            {
                let (is_test, next) = scan_attr(&tokens, i + 1);
                pending_attr_test |= is_test;
                i = next;
                continue;
            }
            TokKind::Punct('(' | '[') => group_depth += 1,
            TokKind::Punct(')' | ']') => group_depth = group_depth.saturating_sub(1),
            TokKind::Punct(';') if group_depth == 0 => {
                pending_fn = None;
                pending_mod_test = None;
            }
            TokKind::Punct('{') => {
                let parent_test = stack.last().is_some_and(|b| b.is_test);
                let mut is_test = parent_test;
                let mut fn_idx = None;
                if let Some((name, line, test_attr)) = pending_fn.take() {
                    is_test |= test_attr;
                    fn_idx = Some(out.fns.len());
                    out.fns.push(FnItem {
                        name,
                        line,
                        body: Some((t.line, t.line)), // end patched on close
                        is_test,
                        twin: None,
                    });
                } else if let Some(mod_test) = pending_mod_test.take() {
                    is_test |= mod_test;
                }
                let test_span_idx = if is_test && !parent_test {
                    out.test_spans.push((t.line, t.line)); // end patched on close
                    Some(out.test_spans.len() - 1)
                } else {
                    None
                };
                stack.push(Block {
                    is_test,
                    fn_idx,
                    test_span_idx,
                    open_regions: Vec::new(),
                });
            }
            TokKind::Punct('}') => {
                if let Some(block) = stack.pop() {
                    for ridx in block.open_regions {
                        if let Some(r) = out.regions.get_mut(ridx) {
                            r.end_line = t.line;
                        }
                    }
                    if let Some(si) = block.test_span_idx {
                        if let Some(span) = out.test_spans.get_mut(si) {
                            span.1 = t.line;
                        }
                    }
                    if let Some(fi) = block.fn_idx {
                        if let Some(b) = out.fns.get_mut(fi).and_then(|f| f.body.as_mut()) {
                            b.1 = t.line;
                        }
                    }
                }
            }
            TokKind::Ident(kw) if kw == "fn" => {
                if let Some(TokKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) {
                    pending_fn = Some((name.clone(), t.line, pending_attr_test));
                    pending_attr_test = false;
                    out.code.push(t.clone());
                    out.code.push(tokens[i + 1].clone());
                    i += 2;
                    continue;
                }
            }
            TokKind::Ident(kw) if kw == "mod" => {
                if matches!(tokens.get(i + 1).map(|t| &t.kind), Some(TokKind::Ident(_))) {
                    pending_mod_test = Some(pending_attr_test);
                    pending_attr_test = false;
                    out.code.push(t.clone());
                    out.code.push(tokens[i + 1].clone());
                    i += 2;
                    continue;
                }
            }
            _ => {}
        }
        out.code.push(t.clone());
        i += 1;
    }

    // Close anything still open at EOF.
    let eof_line = tokens.last().map_or(1, |t| t.line);
    for ridx in file_regions {
        if let Some(r) = out.regions.get_mut(ridx) {
            r.end_line = eof_line;
        }
    }
    for block in stack {
        for ridx in block.open_regions {
            if let Some(r) = out.regions.get_mut(ridx) {
                r.end_line = eof_line;
            }
        }
        if let Some(si) = block.test_span_idx {
            if let Some(span) = out.test_spans.get_mut(si) {
                span.1 = eof_line;
            }
        }
        if let Some(fi) = block.fn_idx {
            if let Some(b) = out.fns.get_mut(fi).and_then(|f| f.body.as_mut()) {
                b.1 = eof_line;
            }
        }
    }

    resolve_comment_targets(&mut out);
    attach_twins(&mut out, twin_markers);
    out
}

/// Consumes an attribute starting at the `[` token index; returns
/// (is-test-like, index just past the closing `]`).
fn scan_attr(tokens: &[Token], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut j = open;
    let mut body: Vec<&Token> = Vec::new();
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct('[') => {
                depth += 1;
                if depth > 1 {
                    body.push(&tokens[j]);
                }
            }
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
                body.push(&tokens[j]);
            }
            TokKind::Comment(_) => {}
            _ => body.push(&tokens[j]),
        }
        j += 1;
    }
    (attr_is_test(&body), j)
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(doctest)]`, and `cfg(all(test, …))`
/// style combinations count as test attributes — but `cfg(not(test))`
/// does not: `test`/`doctest` under a `not(…)` group is production code.
fn attr_is_test(body: &[&Token]) -> bool {
    match body.first().and_then(|t| t.ident()) {
        Some("test") if body.len() == 1 => true,
        Some("cfg") => {
            let mut not_depth = 0usize;
            let mut paren_stack: Vec<bool> = Vec::new(); // true = a not(…) group
            let mut k = 1;
            while k < body.len() {
                match &body[k].kind {
                    TokKind::Ident(id)
                        if id == "not" && body.get(k + 1).is_some_and(|t| t.is_punct('(')) =>
                    {
                        paren_stack.push(true);
                        not_depth += 1;
                        k += 2;
                        continue;
                    }
                    TokKind::Ident(id) if (id == "test" || id == "doctest") && not_depth == 0 => {
                        return true;
                    }
                    TokKind::Punct('(') => paren_stack.push(false),
                    TokKind::Punct(')') if paren_stack.pop() == Some(true) => {
                        not_depth = not_depth.saturating_sub(1);
                    }
                    _ => {}
                }
                k += 1;
            }
            false
        }
        _ => false,
    }
}

/// Strips comment leaders and returns the marker directive text, if the
/// comment *starts* with `flexcore-lint:` (mid-sentence mentions in
/// documentation are not markers).
fn marker_text(comment: &str) -> Option<&str> {
    let mut s = comment.trim_start();
    for lead in ["//", "/*"] {
        if let Some(rest) = s.strip_prefix(lead) {
            s = rest;
            break;
        }
    }
    // Doc-comment variants: a third slash or a bang.
    s = s.trim_start_matches(['/', '!']).trim_start();
    let directive = s.strip_prefix("flexcore-lint:")?;
    Some(directive.trim().trim_end_matches("*/").trim_end())
}

fn parse_marker(comment: &str) -> MarkerAction {
    let Some(directive) = marker_text(comment) else {
        return MarkerAction::None;
    };
    match directive {
        "hot-path" => return MarkerAction::Region(RegionKind::HotPath),
        "bit-identity" => return MarkerAction::Region(RegionKind::BitIdentity),
        _ => {}
    }
    if let Some(rest) = directive.strip_prefix("allow") {
        return match parse_allow(rest) {
            Ok((codes, reason)) => MarkerAction::Allow(codes, reason),
            Err(msg) => MarkerAction::Error(msg),
        };
    }
    if let Some(rest) = directive.strip_prefix("scalar-twin") {
        let name = rest
            .trim_start_matches(['=', '(', ' '])
            .trim_end_matches([')', ' '])
            .trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return MarkerAction::Error(format!(
                "scalar-twin marker needs a function name, got `{rest}`"
            ));
        }
        return MarkerAction::Twin(name.to_string());
    }
    MarkerAction::Error(format!("unknown flexcore-lint directive `{directive}`"))
}

/// Parses `(FL001, FL004, reason = "…")`.
fn parse_allow(rest: &str) -> Result<(Vec<String>, String), String> {
    let inner = rest
        .trim()
        .strip_prefix('(')
        .and_then(|s| s.rfind(')').map(|e| &s[..e]))
        .ok_or_else(|| "allow marker needs the form allow(FLxxx, reason = \"…\")".to_string())?;
    let mut codes = Vec::new();
    let mut reason = None;
    // Split on commas outside the reason string.
    let mut parts: Vec<String> = Vec::new();
    let mut in_quote = false;
    let mut cur = String::new();
    for c in inner.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            ',' if !in_quote => {
                parts.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    for part in parts {
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start().strip_prefix('=').unwrap_or(r).trim();
            let r = r.trim_matches('"').trim();
            if r.is_empty() {
                return Err("allow marker has an empty reason".to_string());
            }
            reason = Some(r.to_string());
        } else if part.starts_with("FL")
            && part.len() == 5
            && part[2..].chars().all(|c| c.is_ascii_digit())
        {
            codes.push(part);
        } else {
            return Err(format!("allow marker has an unrecognised element `{part}`"));
        }
    }
    if codes.is_empty() {
        return Err("allow marker names no FL codes".to_string());
    }
    match reason {
        Some(r) => Ok((codes, r)),
        None => Err("allow marker is missing reason = \"…\"".to_string()),
    }
}

/// Allows written on their own line suppress the next code line; allows
/// trailing code on the same line suppress that line. A `// SAFETY:`
/// comment documents the next code line.
fn resolve_comment_targets(out: &mut FileScan) {
    let code_lines: Vec<u32> = out.code.iter().map(|t| t.line).collect();
    let next_code_line = |line: u32| code_lines.iter().copied().find(|&l| l > line);
    for a in &mut out.allows {
        if code_lines.contains(&a.line) {
            a.target_line = a.line;
        } else if let Some(next) = next_code_line(a.line) {
            a.target_line = next;
        }
    }
    for line in &mut out.safety_lines {
        *line = next_code_line(*line).unwrap_or(*line);
    }
}

/// Attaches `scalar-twin` markers to the innermost fn whose body
/// contains them.
fn attach_twins(out: &mut FileScan, twin_markers: Vec<(u32, String)>) {
    for (line, name) in twin_markers {
        let mut best: Option<(u32, usize)> = None;
        for (i, f) in out.fns.iter().enumerate() {
            if let Some((s, e)) = f.body {
                if s <= line && line <= e {
                    let width = e - s;
                    if best.is_none_or(|(w, _)| width < w) {
                        best = Some((width, i));
                    }
                }
            }
        }
        match best {
            Some((_, i)) => out.fns[i].twin = Some(name),
            None => out.marker_errors.push(MarkerError {
                line,
                message: "scalar-twin marker is not inside a fn body".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_and_bodies() {
        let s = scan("fn alpha() { body(); }\nfn beta(x: usize) -> usize {\n    x\n}\n");
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "alpha");
        assert_eq!(s.fns[0].body, Some((1, 1)));
        assert_eq!(s.fns[1].name, "beta");
        assert_eq!(s.fns[1].body, Some((2, 4)));
        assert!(!s.fns[0].is_test);
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let s = scan(src);
        assert_eq!(s.test_spans.len(), 1);
        let (a, b) = s.test_spans[0];
        assert!(a <= 3 && b >= 6, "span {a}..{b}");
        assert!(s.in_test(5));
        assert!(!s.in_test(1));
    }

    #[test]
    fn test_attr_fn_outside_mod() {
        let s = scan("#[test]\nfn t() {\n    boom();\n}\nfn lib() {}\n");
        assert!(s.in_test(3));
        assert!(!s.in_test(5));
        assert!(s
            .fns
            .iter()
            .find(|f| f.name == "t")
            .is_some_and(|f| f.is_test));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let s = scan("#[cfg(not(test))]\nmod real {\n    fn f() {}\n}\n");
        assert!(s.test_spans.is_empty());
        // …and cfg(all(test, feature)) IS one.
        let s = scan("#[cfg(all(test, feature = \"x\"))]\nmod t {\n    fn f() {}\n}\n");
        assert_eq!(s.test_spans.len(), 1);
    }

    #[test]
    fn region_scopes_to_enclosing_block() {
        let src =
            "fn hot() {\n    // flexcore-lint: hot-path\n    a();\n}\nfn cold() {\n    b();\n}\n";
        let s = scan(src);
        assert_eq!(s.regions.len(), 1);
        assert!(s.in_region(RegionKind::HotPath, 3));
        assert!(!s.in_region(RegionKind::HotPath, 6));
        assert!(!s.regions[0].module_scope);
    }

    #[test]
    fn top_level_region_runs_to_eof() {
        let src = "// flexcore-lint: hot-path\nfn a() {}\nfn b() {\n    x();\n}\n";
        let s = scan(src);
        assert!(s.regions[0].module_scope);
        assert!(s.in_region(RegionKind::HotPath, 4));
        assert!(s.has_module_hot_path());
    }

    #[test]
    fn allow_targets_same_or_next_line() {
        let src = "fn f() {\n    a(); // flexcore-lint: allow(FL004, reason = \"trailing\")\n    // flexcore-lint: allow(FL001, reason = \"next line\")\n    b();\n}\n";
        let s = scan(src);
        assert_eq!(s.allows.len(), 2);
        assert!(s.allowed("FL004", 2));
        assert!(s.allowed("FL001", 4));
        assert!(!s.allowed("FL001", 2));
    }

    #[test]
    fn allow_requires_reason_and_codes() {
        let s = scan("// flexcore-lint: allow(FL004)\nfn f() {}\n");
        assert_eq!(s.marker_errors.len(), 1);
        let s = scan("// flexcore-lint: allow(FL004, reason = \"\")\nfn f() {}\n");
        assert_eq!(s.marker_errors.len(), 1);
        let s = scan("// flexcore-lint: allow(reason = \"no codes\")\nfn f() {}\n");
        assert_eq!(s.marker_errors.len(), 1);
        let s = scan(
            "// flexcore-lint: allow(FL001, FL004, reason = \"both, with comma\")\nfn f() {}\n",
        );
        assert!(s.marker_errors.is_empty());
        assert_eq!(s.allows[0].codes, ["FL001", "FL004"]);
        assert_eq!(s.allows[0].reason, "both, with comma");
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let s = scan("// flexcore-lint: hot-pathz\nfn f() {}\n");
        assert_eq!(s.marker_errors.len(), 1);
    }

    #[test]
    fn mid_sentence_mention_is_not_a_marker() {
        let s = scan("// marked with `// flexcore-lint: hot-path` in docs\nfn f() {}\n");
        assert!(s.regions.is_empty());
        assert!(s.marker_errors.is_empty());
    }

    #[test]
    fn scalar_twin_attaches_to_enclosing_fn() {
        let src =
            "fn run_block() {\n    // flexcore-lint: scalar-twin = run_scalar\n    work();\n}\n";
        let s = scan(src);
        assert_eq!(s.fns[0].twin.as_deref(), Some("run_scalar"));
    }

    #[test]
    fn scalar_twin_outside_fn_is_an_error() {
        let s = scan("// flexcore-lint: scalar-twin = nope\nfn f() {}\n");
        assert_eq!(s.marker_errors.len(), 1);
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let s = scan("fn real(cb: fn(usize) -> usize) -> usize {\n    cb(1)\n}\n");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn array_type_semicolons_do_not_kill_the_item() {
        let s = scan(
            "fn kern(x: [f64; 4], n: usize) -> [f64; 4] {\n    // flexcore-lint: scalar-twin = kern_scalar\n    x\n}\n",
        );
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "kern");
        assert_eq!(s.fns[0].twin.as_deref(), Some("kern_scalar"));
    }

    #[test]
    fn trait_method_decl_without_body() {
        let s = scan("trait T {\n    fn decl(&self);\n    fn with_default(&self) {\n        x();\n    }\n}\n");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "with_default");
    }
}
