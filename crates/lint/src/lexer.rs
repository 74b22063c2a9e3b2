//! A minimal Rust lexer for the lint pass.
//!
//! Produces identifier / string-literal / punctuation tokens with line
//! numbers, discarding comments, char literals, lifetimes, and numeric
//! literals. This is deliberately not a full Rust grammar — it is just
//! enough to make the lock model in [`crate::model`] reliable:
//!
//! * text inside comments and string literals can never produce an
//!   identifier token (so `".lock()"` in a message is not a hit);
//! * raw strings (`r#"…"#`), byte strings, and raw identifiers
//!   (`r#fn`) are disambiguated;
//! * tuple-index chains keep their dots (`self.0.lock()` still yields
//!   `.` `lock` `(`);
//! * lifetimes (`'a`) are not confused with char literals (`'a'`).

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`Instant`, `unwrap`, `fn`, …).
    Ident(String),
    /// A string literal's *content* (quotes and raw-string hashes
    /// stripped, escape sequences left as written).
    StrLit(String),
    /// Any single punctuation character (`.`, `:`, `(`, `#`, …).
    Punct(char),
}

/// One token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokKind,
    /// 1-based line number.
    pub line: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `source` into code tokens, in order.
pub fn lex(source: &str) -> Vec<Token> {
    let cs: Vec<char> = source.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && cs.get(i + 1) == Some(&'/') {
            while i < cs.len() && cs[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && cs.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < cs.len() && depth > 0 {
                if cs[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if cs[j] == '/' && cs.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if cs[j] == '*' && cs.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            let start_line = line;
            let (j, text) = lex_plain_string(&cs, i + 1, &mut line);
            out.push(Token {
                kind: TokKind::StrLit(text),
                line: start_line,
            });
            i = j;
        } else if c == '\'' {
            i = lex_char_or_lifetime(&cs, i);
        } else if c.is_ascii_digit() {
            i = lex_number(&cs, i);
        } else if is_ident_start(c) {
            let mut j = i;
            while j < cs.len() && is_ident_continue(cs[j]) {
                j += 1;
            }
            let word: String = cs[i..j].iter().collect();
            i = ident_or_literal(&cs, j, word, &mut line, &mut out);
        } else {
            out.push(Token {
                kind: TokKind::Punct(c),
                line,
            });
            i += 1;
        }
    }
    out
}

/// After reading an identifier, decide whether it is really the prefix
/// of a byte/C string (`b"…"`, `c"…"`), raw string (`r"…"`, `r#"…"#`,
/// `br#"…"#`, `cr#"…"#`), or raw identifier (`r#fn`). Returns the index
/// to resume lexing at.
fn ident_or_literal(
    cs: &[char],
    end: usize,
    word: String,
    line: &mut u32,
    out: &mut Vec<Token>,
) -> usize {
    let next = cs.get(end).copied();
    if (word == "b" || word == "c") && next == Some('"') {
        let start_line = *line;
        let (j, text) = lex_plain_string(cs, end + 1, line);
        out.push(Token {
            kind: TokKind::StrLit(text),
            line: start_line,
        });
        return j;
    }
    if word == "b" && next == Some('\'') {
        return lex_char_or_lifetime(cs, end);
    }
    if (word == "r" || word == "br" || word == "cr") && (next == Some('"') || next == Some('#')) {
        let mut hashes = 0usize;
        let mut j = end;
        while cs.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if cs.get(j) == Some(&'"') {
            let start_line = *line;
            let (j, text) = lex_raw_string(cs, j + 1, hashes, line);
            out.push(Token {
                kind: TokKind::StrLit(text),
                line: start_line,
            });
            return j;
        }
        if word == "r" && hashes == 1 && cs.get(j).copied().is_some_and(is_ident_start) {
            let mut k = j;
            while k < cs.len() && is_ident_continue(cs[k]) {
                k += 1;
            }
            out.push(Token {
                kind: TokKind::Ident(cs[j..k].iter().collect()),
                line: *line,
            });
            return k;
        }
    }
    out.push(Token {
        kind: TokKind::Ident(word),
        line: *line,
    });
    end
}

/// Lex a non-raw string body starting just after the opening quote.
/// Returns (index after closing quote, content).
fn lex_plain_string(cs: &[char], mut j: usize, line: &mut u32) -> (usize, String) {
    let mut text = String::new();
    while j < cs.len() {
        match cs[j] {
            '\\' => {
                text.push('\\');
                if let Some(&esc) = cs.get(j + 1) {
                    if esc == '\n' {
                        *line += 1;
                    }
                    text.push(esc);
                }
                j += 2;
            }
            '"' => return (j + 1, text),
            c => {
                if c == '\n' {
                    *line += 1;
                }
                text.push(c);
                j += 1;
            }
        }
    }
    (j, text)
}

/// Lex a raw string body (no escapes) terminated by `"` plus `hashes`
/// `#` characters.
fn lex_raw_string(cs: &[char], mut j: usize, hashes: usize, line: &mut u32) -> (usize, String) {
    let mut text = String::new();
    while j < cs.len() {
        if cs[j] == '"' {
            let mut k = 0usize;
            while k < hashes && cs.get(j + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                return (j + 1 + hashes, text);
            }
        }
        if cs[j] == '\n' {
            *line += 1;
        }
        text.push(cs[j]);
        j += 1;
    }
    (j, text)
}

/// Skip a char literal (`'x'`, `'\\n'`, `b'\x00'`) or a lifetime
/// (`'a`). Starts at the opening quote; returns the resume index.
fn lex_char_or_lifetime(cs: &[char], i: usize) -> usize {
    match cs.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: skip backslash + escaped char, then
            // scan to the closing quote ('\u{…}' spans several chars).
            let mut j = i + 3;
            while j < cs.len() && cs[j] != '\'' {
                j += 1;
            }
            j + 1
        }
        Some(&c) if cs.get(i + 2) == Some(&'\'') && c != '\'' => i + 3,
        Some(&c) if is_ident_start(c) => {
            // Lifetime: consume the label, no closing quote.
            let mut j = i + 1;
            while j < cs.len() && is_ident_continue(cs[j]) {
                j += 1;
            }
            j
        }
        _ => i + 1,
    }
}

/// Skip a numeric literal. Consumes digits, `_`, suffix letters, a `.`
/// only when followed by a digit (so `x.0.unwrap()` keeps its method
/// dot), and an exponent sign directly after `e`/`E`.
fn lex_number(cs: &[char], i: usize) -> usize {
    let mut j = i + 1;
    while j < cs.len() {
        let c = cs[j];
        if c.is_alphanumeric() || c == '_' {
            j += 1;
        } else if c == '.' && cs.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
            j += 2;
        } else if (c == '+' || c == '-') && matches!(cs[j - 1], 'e' | 'E') {
            j += 1;
        } else {
            break;
        }
    }
    j
}

/// Remove `#[cfg(test)]` / `#[test]` items from a token stream, so the
/// rules only see code that ships in the production build. All other
/// attributes are dropped from the stream but their items are kept. A
/// top-level `#![cfg(test)]` inner attribute marks the *whole file* as
/// test-only, so it strips to nothing.
pub fn strip_tests(toks: &[Token]) -> Vec<Token> {
    let mut out: Vec<Token> = Vec::with_capacity(toks.len());
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks, i, '#') {
            if is_punct(toks, i + 1, '!') {
                // Inner attribute `#![…]`: no item follows. At file scope
                // a test-marking one exempts the entire file; otherwise
                // the attribute itself is dropped from the stream.
                let end = skip_balanced(toks, i + 2, '[', ']');
                let body = toks.get(i + 3..end.saturating_sub(1)).unwrap_or(&[]);
                if depth == 0 && is_test_attr(body) {
                    return Vec::new();
                }
                i = end;
                continue;
            }
            if is_punct(toks, i + 1, '[') {
                // A run of outer attributes, then the item they decorate.
                let mut j = i;
                let mut testish = false;
                while is_punct(toks, j, '#') && is_punct(toks, j + 1, '[') {
                    let end = skip_balanced(toks, j + 1, '[', ']');
                    let body = toks.get(j + 2..end.saturating_sub(1)).unwrap_or(&[]);
                    if is_test_attr(body) {
                        testish = true;
                    }
                    j = end;
                }
                i = if testish { skip_item(toks, j) } else { j };
                continue;
            }
        }
        match toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth -= 1,
            _ => {}
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// Does this attribute body mark test-only code? True for `test`,
/// `cfg(test)`, and cfg trees that mention `test` without `not`.
fn is_test_attr(body: &[Token]) -> bool {
    let idents: Vec<&str> = body
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// Skip a balanced `open…close` group; `i` points at `open`. Returns
/// the index just past the matching `close`.
fn skip_balanced(toks: &[Token], i: usize, open: char, close: char) -> usize {
    if !is_punct(toks, i, open) {
        return i + 1;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if is_punct(toks, j, open) {
            depth += 1;
        } else if is_punct(toks, j, close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Skip one item starting at `i`: everything up to a top-level `;` or
/// through the item's balanced `{…}` body.
fn skip_item(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // Instant::now in a comment
            /* SystemTime::now in /* a nested */ block */
            let s = "Instant::now";
            let r = r#"SystemTime::now"#;
            let b = b"thread_rng";
            let real = elapsed;
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "Instant" || s == "SystemTime"));
        assert!(!ids.iter().any(|s| s == "thread_rng"));
        assert!(ids.iter().any(|s| s == "elapsed"));
    }

    #[test]
    fn tuple_index_keeps_the_method_dot() {
        let out = lex("x.0.unwrap()");
        let kinds: Vec<&TokKind> = out.iter().map(|t| &t.kind).collect();
        assert!(kinds
            .windows(2)
            .any(|w| w[0] == &TokKind::Punct('.') && w[1] == &TokKind::Ident("unwrap".into())));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; x }");
        assert!(ids.iter().any(|s| s == "str"));
        // 'x' char literal does not swallow the rest of the file.
        assert!(ids.iter().any(|s| s == "x"));
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        let ids = idents("let r#fn = 1; let y = r#fn;");
        assert!(ids.iter().any(|s| s == "fn"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\n/* b\nc */\nlet z = 9;";
        let out = lex(src);
        let z = out
            .iter()
            .find(|t| t.kind == TokKind::Ident("z".into()))
            .map(|t| t.line);
        assert_eq!(z, Some(5));
    }

    #[test]
    fn raw_strings_with_hashes_do_not_swallow_code() {
        // The `"#` inside the body must not close the r##-string early,
        // and the code after the literal must keep lexing.
        let src = "let s = r##\"quote \"# inside\"##;\nlet after = Instant;\n";
        let out = lex(src);
        let after = out
            .iter()
            .find(|t| t.kind == TokKind::Ident("after".into()));
        assert!(after.is_some(), "lexer desynced after raw string");
        assert_eq!(after.map(|t| t.line), Some(2));
        assert!(matches!(
            &out.iter().find(|t| matches!(t.kind, TokKind::StrLit(_))).map(|t| &t.kind),
            Some(TokKind::StrLit(s)) if s.contains("\"#")
        ));
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers() {
        let src = "let s = r#\"line one\nline two\nline three\"#;\nlet z = 1;";
        let out = lex(src);
        let z = out
            .iter()
            .find(|t| t.kind == TokKind::Ident("z".into()))
            .map(|t| t.line);
        assert_eq!(z, Some(4));
    }

    #[test]
    fn c_string_literals_lex_as_strings() {
        // `c"…"` and `cr#"…"#` prefixes must be treated as literals, not
        // as an identifier followed by a desynced quote.
        let src = "let a = c\"thread_rng\";\nlet b = cr#\"OsRng\"#;\nlet real = elapsed;";
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "thread_rng" || s == "OsRng"));
        assert!(ids.iter().any(|s| s == "elapsed"));
        let strs = lex(src)
            .into_iter()
            .filter(|t| matches!(t.kind, TokKind::StrLit(_)))
            .count();
        assert_eq!(strs, 2);
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let src =
            "/* outer /* inner */ still a comment */ let real = 1; /* /*a*/ /*b*/ */ let more = 2;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "real", "let", "more"]);
        // Line counting survives newlines inside nested comments.
        let src2 = "/* a\n/* b\n*/\nc */\nlet z = 1;";
        let z = lex(src2)
            .iter()
            .find(|t| t.kind == TokKind::Ident("z".into()))
            .map(|t| t.line);
        assert_eq!(z, Some(5));
    }

    #[test]
    fn multiline_cfg_test_attribute_is_stripped() {
        // The attribute spans three lines; the decorated item must still
        // be recognised as test-only and removed.
        let src = "
            fn keep() {}
            #[cfg(
                test
            )]
            mod tests { fn gone() { let _ = Instant::now(); } }
        ";
        let out = strip_tests(&lex(src));
        let ids: Vec<String> = out
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"keep".to_string()));
        assert!(!ids.contains(&"gone".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
    }

    #[test]
    fn file_level_cfg_test_exempts_the_whole_file() {
        let src = "#![cfg(test)]\nfn helper() { let _ = Instant::now(); }";
        assert!(strip_tests(&lex(src)).is_empty());
        // A non-test inner attribute keeps the file.
        let src2 = "#![allow(dead_code)]\nfn helper() {}";
        assert!(!strip_tests(&lex(src2)).is_empty());
        // A *module-level* inner cfg(test) does not exempt the file.
        let src3 = "mod m { #![cfg(test)] }\nfn keep() {}";
        let ids: Vec<String> = strip_tests(&lex(src3))
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"keep".to_string()));
    }

    #[test]
    fn strip_tests_removes_test_items_only() {
        let src = "
            fn keep() {}
            #[test]
            fn gone() { panic!() }
            #[cfg(test)]
            mod tests { fn also_gone() {} }
            #[cfg(not(test))]
            fn kept_too() {}
            #[derive(Debug)]
            struct Kept;
        ";
        let out = strip_tests(&lex(src));
        let ids: Vec<String> = out
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(ids.contains(&"keep".to_string()));
        assert!(ids.contains(&"kept_too".to_string()));
        assert!(ids.contains(&"Kept".to_string()));
        assert!(!ids.contains(&"gone".to_string()));
        assert!(!ids.contains(&"also_gone".to_string()));
    }
}
