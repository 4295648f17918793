//! A small Rust token-stream lexer for the lint driver.
//!
//! The lint rules scan source for tokens like `Ordering::Relaxed` or
//! `Instant::now` and must not trip over prose: the same spelling inside
//! a comment, a string literal, or a doc example is not a violation. The
//! original implementation was a single byte-scan inside `lint.rs`; this
//! module replaces it with an explicit token stream that comment
//! stripping, and through it every rule, shares.
//!
//! This is a *classifier*, not a parser: it splits source into runs of
//! [`TokenKind::Code`] and the non-code islands (line comments, nested
//! block comments, string/raw-string/char literals, lifetimes). Within
//! `Code` the text is left untokenized — the rules operate on lines.
//!
//! Guarantees the property tests in `crates/check/tests` pin down:
//!
//! * concatenating every token's text reproduces the input byte-for-byte;
//! * token boundaries never split a `\n`, so line numbers derived from
//!   the stream agree with the raw source;
//! * raw strings (`r"…"`, `r#"…"#`, any hash depth), escaped chars
//!   (`'\u{1F600}'`), lifetimes (`'a`, `'_`, `'static`) and nested block
//!   comments all classify correctly.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Ordinary source text (identifiers, punctuation, whitespace).
    Code,
    /// `// …` up to (not including) the newline. Covers `///` and `//!`.
    LineComment,
    /// `/* … */`, nested; unterminated comments run to end of input.
    BlockComment,
    /// `"…"` or `b"…"`, escapes handled; unterminated runs to end.
    Str,
    /// `r"…"`, `r#"…"#`, `br"…"` at any hash depth.
    RawStr,
    /// `'x'`, `b'x'`, `'\n'`, `'\u{…}'`.
    Char,
    /// `'ident` — a lifetime (or loop label), kept distinct from chars.
    Lifetime,
}

/// One token: its kind, exact source text, and 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Classification.
    pub kind: TokenKind,
    /// The token's text, a slice of the input.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// End of a `//` comment starting at `i`: up to, not including, the
/// newline (which stays in the surrounding code stream).
fn line_comment_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    while j < bytes.len() && bytes[j] != b'\n' {
        j += 1;
    }
    j
}

/// End of a (nested) `/* … */` comment starting at `i`.
fn block_comment_end(bytes: &[u8], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < bytes.len() {
        if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
            depth += 1;
            j += 2;
        } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
            depth -= 1;
            j += 2;
            if depth == 0 {
                return j;
            }
        } else {
            j += 1;
        }
    }
    bytes.len()
}

/// End of a `"…"` literal whose opening quote is at `open`: one past the
/// closing quote, skipping escapes.
fn str_end(bytes: &[u8], open: usize) -> usize {
    let mut j = open + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// For an `r` / `br` at `i` (not preceded by an identifier byte): the end
/// of the raw string, if this really is one.
fn raw_str_end(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if bytes.get(i) == Some(&b'b') {
        if bytes.get(j) != Some(&b'r') {
            return None;
        }
        j += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    while j < bytes.len() {
        if bytes[j] == b'"' && bytes[j + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(bytes.len())
}

/// For a `'` at `i`: a char literal, a lifetime, or neither (a stray
/// quote stays in the code stream).
fn char_or_lifetime(src: &str, i: usize) -> Option<(TokenKind, usize)> {
    let bytes = src.as_bytes();
    let rest = &src[i + 1..];
    let mut chars = rest.chars();
    let first = chars.next()?;
    if first == '\\' {
        // Escaped char literal `'\X…'`: the backslash and its escaped
        // character are consumed together (so `'\''` and `'\\'` don't end
        // early), then everything up to the closing quote (covers
        // `'\u{…}'`). A valid literal has no further backslashes.
        let mut j = i + 3;
        while j < bytes.len() {
            if bytes[j] == b'\'' {
                return Some((TokenKind::Char, j + 1));
            }
            j += 1;
        }
        return Some((TokenKind::Char, bytes.len()));
    }
    if first == '\'' {
        // `''` is not a literal; leave the quote as code.
        return None;
    }
    if chars.next() == Some('\'') {
        // 'x' with any single (possibly multi-byte) character.
        return Some((TokenKind::Char, i + 1 + first.len_utf8() + 1));
    }
    if first == '_' || first.is_alphabetic() {
        // Lifetime or loop label: quote + identifier.
        let mut end = i + 1;
        for c in rest.chars() {
            if c == '_' || c.is_alphanumeric() {
                end += c.len_utf8();
            } else {
                break;
            }
        }
        return Some((TokenKind::Lifetime, end));
    }
    None
}

/// Tokenizes `src`. The concatenation of the returned tokens' `text` is
/// exactly `src`.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut code_start = 0usize;
    let mut code_line = 1usize;
    while i < bytes.len() {
        let island: Option<(TokenKind, usize)> = match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                Some((TokenKind::LineComment, line_comment_end(bytes, i)))
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                Some((TokenKind::BlockComment, block_comment_end(bytes, i)))
            }
            b'"' => Some((TokenKind::Str, str_end(bytes, i))),
            b'b' if !(i > 0 && is_ident(bytes[i - 1])) && bytes.get(i + 1) == Some(&b'"') => {
                Some((TokenKind::Str, str_end(bytes, i + 1)))
            }
            b'b' if !(i > 0 && is_ident(bytes[i - 1])) && bytes.get(i + 1) == Some(&b'\'') => {
                char_or_lifetime(src, i + 1).filter(|(kind, _)| *kind == TokenKind::Char)
            }
            b'r' | b'b' if !(i > 0 && is_ident(bytes[i - 1])) => {
                raw_str_end(bytes, i).map(|end| (TokenKind::RawStr, end))
            }
            b'\'' => char_or_lifetime(src, i),
            _ => None,
        };
        match island {
            Some((kind, end)) => {
                if i > code_start {
                    tokens.push(Token {
                        kind: TokenKind::Code,
                        text: &src[code_start..i],
                        line: code_line,
                    });
                }
                tokens.push(Token {
                    kind,
                    text: &src[i..end],
                    line,
                });
                line += bytes[i..end].iter().filter(|&&b| b == b'\n').count();
                i = end;
                code_start = i;
                code_line = line;
            }
            None => {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
            }
        }
    }
    if bytes.len() > code_start {
        tokens.push(Token {
            kind: TokenKind::Code,
            text: &src[code_start..],
            line: code_line,
        });
    }
    tokens
}

/// Replaces the contents of comments and string/char literals with
/// spaces, preserving newlines, delimiters, and byte-for-byte line
/// layout, so line-based rule scans can match tokens without tripping
/// over prose. The lexer-backed successor of the old byte-scan.
pub fn strip(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for tok in lex(src) {
        match tok.kind {
            TokenKind::Code | TokenKind::Lifetime => out.push_str(tok.text),
            TokenKind::LineComment | TokenKind::BlockComment => {
                blank_interior(&mut out, tok.text, 0, 0);
            }
            TokenKind::Str | TokenKind::RawStr | TokenKind::Char => {
                // Keep the opening delimiter (incl. any `b`/`r#` prefix)
                // and the closing delimiter; blank what's between.
                let b = tok.text.as_bytes();
                let open = tok.text.find(['"', '\'']).map_or(tok.text.len(), |p| p + 1);
                let close_len = match tok.kind {
                    TokenKind::RawStr => {
                        let hashes = b.iter().rev().take_while(|&&c| c == b'#').count();
                        let quoted = b.len() > open + hashes && b[b.len() - 1 - hashes] == b'"';
                        if quoted {
                            hashes + 1
                        } else {
                            0 // unterminated: no closer to keep
                        }
                    }
                    TokenKind::Str => usize::from(b.len() > open && b[b.len() - 1] == b'"'),
                    _ => usize::from(b.len() > open && b[b.len() - 1] == b'\''),
                };
                blank_interior(&mut out, tok.text, open, close_len);
            }
        }
    }
    out
}

/// Pushes `text` with its first `head` and last `tail` bytes verbatim and
/// everything between replaced by spaces (newlines preserved).
fn blank_interior(out: &mut String, text: &str, head: usize, tail: usize) {
    out.push_str(&text[..head]);
    for c in text[head..text.len() - tail].chars() {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }
    out.push_str(&text[text.len() - tail..]);
}
