//! Property tests for the lint driver's token-stream lexer.
//!
//! The lexer underpins every lint rule (rules scan *stripped* source), so
//! its contract is pinned here generatively rather than by examples alone:
//!
//! * concatenating the lexed tokens reproduces the input byte-for-byte;
//! * token line numbers agree with a straight newline count;
//! * generated comment/string/char islands classify as their planted kind,
//!   in order — raw strings at any hash depth, nested block comments,
//!   escaped char literals, lifetimes;
//! * `strip` preserves the char count and every newline position (so
//!   line-based rules see the raw file's geometry) and blanks exactly the
//!   non-code islands.
//!
//! Failing inputs persist in `proptest-regressions/` as replay seeds.

use proptest::prelude::*;
use symclust_check::lexer::{lex, strip, Token, TokenKind};

/// Marker planted inside fragments; must survive `strip` only when it sits
/// in ordinary code.
const MARK: &str = "ZZMARKZZ";

/// One generated source fragment: its text and the island kind it must
/// lex as (`None` for plain code).
#[derive(Debug, Clone)]
struct Frag {
    text: String,
    kind: Option<TokenKind>,
}

/// Escape-capable string-interior pieces.
const STR_PIECES: &[&str] = &["a", "é", " ", MARK, "\\\"", "\\\\", "\\n"];

/// Builds one fragment from drawn randomness. `sel` weights the fragment
/// families (the vendored proptest stub has no `prop_oneof`, so selection
/// is explicit); `aux`/`b1`/`b2`/`b3` parameterize within a family and
/// `pieces` indexes into [`STR_PIECES`] for string interiors.
fn build_frag(sel: usize, aux: usize, b1: bool, b2: bool, b3: bool, pieces: &[usize]) -> Frag {
    match sel {
        // Plain code. Every entry ends in a non-identifier byte so a
        // following `b"…"`/`r"…"` fragment keeps its prefix, and none
        // contains a quote or comment opener.
        0..=2 => {
            let pool = [
                "let x = 1; ".to_string(),
                format!("let {MARK}_code = 2; "),
                "fn f(a: u8) -> u8 { a + 1 } ".to_string(),
                "x.y::<T>(q) % 3 ; ".to_string(),
            ];
            let text = if b1 {
                "\n    ".to_string()
            } else {
                pool[aux % pool.len()].clone()
            };
            Frag { text, kind: None }
        }
        // `"…"` / `b"…"` string literals with escapes.
        3 | 4 => {
            let interior: String = pieces.iter().map(|&i| STR_PIECES[i]).collect();
            let prefix = if b1 { "b" } else { "" };
            Frag {
                text: format!("{prefix}\"{interior}\""),
                kind: Some(TokenKind::Str),
            }
        }
        // Raw strings, hash depth 0–2. Quotes are only planted at
        // depth >= 1 (at depth 0 they would close the literal), and a
        // trailing safe char keeps an interior quote off the closer.
        5 | 6 => {
            let hashes = aux % 3;
            let mut interior = String::from(MARK);
            if b2 && hashes >= 1 {
                interior.push_str(" \"inner\" ");
            }
            if b3 {
                interior.push('\n');
            }
            interior.push('z');
            let h = "#".repeat(hashes);
            let prefix = if b1 { "br" } else { "r" };
            Frag {
                text: format!("{prefix}{h}\"{interior}\"{h}"),
                kind: Some(TokenKind::RawStr),
            }
        }
        // `// …` comments. The trailing newline is part of the fragment
        // but not of the comment token (it stays in the code stream).
        7 => {
            let pool = [
                format!("// {MARK} plain\n"),
                format!("/// {MARK} \"doc\" with 'quotes'\n"),
                format!("//! {MARK} inner\n"),
            ];
            Frag {
                text: pool[aux % pool.len()].clone(),
                kind: Some(TokenKind::LineComment),
            }
        }
        // Nested `/* … */` comments, depth 1–3, optionally multi-line.
        8 => {
            let depth = 1 + aux % 3;
            let mut text = String::new();
            for _ in 0..depth {
                text.push_str("/* ");
            }
            text.push_str(MARK);
            text.push_str(" \"not a string\" ");
            if b1 {
                text.push('\n');
            }
            for _ in 0..depth {
                text.push_str(" */");
            }
            Frag {
                text,
                kind: Some(TokenKind::BlockComment),
            }
        }
        // Char literals, escapes and multi-byte chars included.
        9 => {
            let pool = [
                "'x'",
                "'é'",
                "'\\n'",
                "'\\''",
                "'\\\\'",
                "'\\u{1F600}'",
                "'\"'",
                "b'q'",
            ];
            Frag {
                text: pool[(aux + 4 * usize::from(b1)) % pool.len()].to_string(),
                kind: Some(TokenKind::Char),
            }
        }
        // Lifetimes / loop labels; the space ends the identifier scan.
        _ => {
            let pool = ["'a ", "'static ", "'_ "];
            Frag {
                text: pool[aux % pool.len()].to_string(),
                kind: Some(TokenKind::Lifetime),
            }
        }
    }
}

/// A soup of fragments whose concatenation is valid enough to lex with a
/// known expected token structure.
fn soup() -> impl Strategy<Value = Vec<Frag>> {
    proptest::collection::vec(
        (
            0usize..11,
            0usize..4,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec(0usize..STR_PIECES.len(), 0..6),
        )
            .prop_map(|(sel, aux, b1, b2, b3, pieces)| build_frag(sel, aux, b1, b2, b3, &pieces)),
        0..12,
    )
}

/// Arbitrary delimiter-heavy text: every property that must hold on *any*
/// input (totality, concat, geometry) is also exercised on this, where
/// tokens routinely end up unterminated.
fn hostile_text() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &['"', '\'', '\\', '/', '*', '#', 'r', 'b', '\n', 'a', 'é'];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..48)
        .prop_map(|v| v.into_iter().map(|i| ALPHABET[i]).collect())
}

fn join(frags: &[Frag]) -> String {
    frags.iter().map(|f| f.text.as_str()).collect()
}

fn assert_concat_and_lines(src: &str) {
    let tokens: Vec<Token> = lex(src);
    let rejoined: String = tokens.iter().map(|t| t.text).collect();
    assert_eq!(
        rejoined, src,
        "token concatenation must reproduce the input"
    );
    let mut pos = 0usize;
    for t in &tokens {
        let expected = 1 + src[..pos].matches('\n').count();
        assert_eq!(t.line, expected, "line number drifted at byte {pos}");
        pos += t.text.len();
    }
}

fn newline_positions(s: &str) -> Vec<usize> {
    s.chars()
        .enumerate()
        .filter(|(_, c)| *c == '\n')
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #[test]
    fn lex_concat_reproduces_input(frags in soup()) {
        assert_concat_and_lines(&join(&frags));
    }

    #[test]
    fn lex_is_total_on_hostile_text(src in hostile_text()) {
        assert_concat_and_lines(&src);
    }

    #[test]
    fn island_kinds_classify_in_order(frags in soup()) {
        let src = join(&frags);
        let expected: Vec<TokenKind> = frags.iter().filter_map(|f| f.kind).collect();
        let got: Vec<TokenKind> = lex(&src)
            .iter()
            .filter(|t| t.kind != TokenKind::Code)
            .map(|t| t.kind)
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn strip_preserves_char_count_and_newline_positions(frags in soup()) {
        let src = join(&frags);
        let out = strip(&src);
        prop_assert_eq!(out.chars().count(), src.chars().count());
        prop_assert_eq!(newline_positions(&out), newline_positions(&src));
        prop_assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn strip_preserves_geometry_on_hostile_text(src in hostile_text()) {
        let out = strip(&src);
        prop_assert_eq!(out.chars().count(), src.chars().count());
        prop_assert_eq!(newline_positions(&out), newline_positions(&src));
    }

    #[test]
    fn strip_blanks_exactly_the_non_code_islands(frags in soup()) {
        let src = join(&frags);
        let out = strip(&src);
        let in_code = frags
            .iter()
            .filter(|f| f.kind.is_none() && f.text.contains(MARK))
            .count();
        prop_assert_eq!(out.matches(MARK).count(), in_code);
    }
}

// ------------------------------------------------------- pinned edge cases

#[test]
fn nested_block_comment_is_one_token() {
    let src = "a(); /* one /* two /* three */ */ */ b();";
    let kinds: Vec<TokenKind> = lex(src).iter().map(|t| t.kind).collect();
    assert_eq!(
        kinds,
        vec![TokenKind::Code, TokenKind::BlockComment, TokenKind::Code]
    );
    let out = strip(src);
    assert!(out.contains("a();") && out.contains("b();"));
    assert!(!out.contains("two"));
}

#[test]
fn raw_string_swallows_quotes_and_comment_openers() {
    let src = r##"let s = r#"with "quotes" and // not a comment"#; t();"##;
    let toks = lex(src);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::RawStr && t.text.contains("not a comment")));
    assert!(strip(src).contains("t();"));
}

#[test]
fn char_holding_a_quote_does_not_open_a_string() {
    let src = "let c = '\"'; let s = \"x\";";
    let islands: Vec<(TokenKind, &str)> = lex(src)
        .iter()
        .filter(|t| t.kind != TokenKind::Code)
        .map(|t| (t.kind, t.text))
        .collect();
    assert_eq!(
        islands,
        vec![(TokenKind::Char, "'\"'"), (TokenKind::Str, "\"x\"")]
    );
}

#[test]
fn identifier_prefix_suppresses_raw_and_byte_interpretation() {
    // The `r` in `integer` and the `b` in `grab` are identifier tails, so
    // the following quotes open plain strings.
    let src = "integer\"s\" grab\"bag\"";
    let kinds: Vec<TokenKind> = lex(src)
        .iter()
        .filter(|t| t.kind != TokenKind::Code)
        .map(|t| t.kind)
        .collect();
    assert_eq!(kinds, vec![TokenKind::Str, TokenKind::Str]);
}

#[test]
fn adjacent_single_quotes_stay_code() {
    let src = "let v = vec![]; v.windows('' as usize);";
    assert!(lex(src).iter().all(|t| t.kind != TokenKind::Char));
}

#[test]
fn unterminated_tokens_run_to_end_of_input_and_keep_geometry() {
    for src in [
        "/* open\nnever closed",
        "\"open\nstring",
        "r#\"open raw",
        "'\\",
    ] {
        let out = strip(src);
        assert_eq!(out.chars().count(), src.chars().count(), "{src:?}");
        assert_eq!(out.lines().count(), src.lines().count(), "{src:?}");
        let rejoined: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(rejoined, src);
    }
}

#[test]
fn line_count_is_preserved_on_a_realistic_file() {
    let src = include_str!("../src/lexer.rs");
    let out = strip(src);
    assert_eq!(out.lines().count(), src.lines().count());
    assert_eq!(newline_positions(&out), newline_positions(src));
}
