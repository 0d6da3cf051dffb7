//! SQL tokenizer.

use payless_types::{PaylessError, Result};

/// A lexical token with its byte position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the source text.
    pub pos: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (kept verbatim; keyword matching is
    /// case-insensitive at the parser level).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `?` parameter placeholder.
    Param,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>` or `!=`
    Ne,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// `true` if this is the identifier `kw` (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize `sql`. Comments (`-- …\n`) are skipped.
pub fn lex(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let pos = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    pos,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    pos,
                });
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    pos,
                });
                i += 1;
            }
            b'?' => {
                tokens.push(Token {
                    kind: TokenKind::Param,
                    pos,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    pos,
                });
                i += 1;
            }
            b'<' => {
                let kind = match bytes.get(i + 1) {
                    Some(b'=') => {
                        i += 2;
                        TokenKind::Le
                    }
                    Some(b'>') => {
                        i += 2;
                        TokenKind::Ne
                    }
                    _ => {
                        i += 1;
                        TokenKind::Lt
                    }
                };
                tokens.push(Token { kind, pos });
            }
            b'>' => {
                let kind = if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    TokenKind::Ge
                } else {
                    i += 1;
                    TokenKind::Gt
                };
                tokens.push(Token { kind, pos });
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token {
                    kind: TokenKind::Ne,
                    pos,
                });
                i += 2;
            }
            b'\'' => {
                // Copy the literal in `&str` runs between quotes: `'` is
                // ASCII, so it never matches inside a multi-byte character.
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(run) = sql[i..].find('\'') else {
                        return Err(PaylessError::Parse {
                            position: pos,
                            message: "unterminated string literal".into(),
                        });
                    };
                    s.push_str(&sql[i..i + run]);
                    i += run + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    pos,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &sql[start..i];
                let v: i64 = text.parse().map_err(|_| PaylessError::Parse {
                    position: pos,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                tokens.push(Token {
                    kind: TokenKind::Int(v),
                    pos,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(sql[start..i].to_string()),
                    pos,
                });
            }
            _ => {
                // Every arm above consumes whole characters, so `i` sits on
                // a char boundary: name the character, not its first byte.
                let c = sql[i..].chars().next().unwrap_or_default();
                return Err(PaylessError::Parse {
                    position: pos,
                    message: format!("unexpected character `{c}`"),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        pos: bytes.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        lex(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_symbols_and_idents() {
        use TokenKind::*;
        assert_eq!(
            kinds("SELECT a, b.c FROM t WHERE x >= 10"),
            vec![
                Ident("SELECT".into()),
                Ident("a".into()),
                Comma,
                Ident("b".into()),
                Dot,
                Ident("c".into()),
                Ident("FROM".into()),
                Ident("t".into()),
                Ident("WHERE".into()),
                Ident("x".into()),
                Ge,
                Int(10),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("= < <= > >= <> != * ? ( )"),
            vec![Eq, Lt, Le, Gt, Ge, Ne, Ne, Star, Param, LParen, RParen, Eof]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds("'Seattle' 'O''Hare'"),
            vec![
                TokenKind::Str("Seattle".into()),
                TokenKind::Str("O'Hare".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_non_ascii_strings_verbatim() {
        assert_eq!(
            kinds("'Zürich' 'It''s ü' '𝄞'"),
            vec![
                TokenKind::Str("Zürich".into()),
                TokenKind::Str("It's ü".into()),
                TokenKind::Str("𝄞".into()),
                TokenKind::Eof
            ]
        );
        assert!(matches!(
            lex("'Zürich"),
            Err(PaylessError::Parse { position: 0, .. })
        ));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(
            lex("'oops"),
            Err(PaylessError::Parse { position: 0, .. })
        ));
    }

    #[test]
    fn skips_comments_and_whitespace() {
        assert_eq!(
            kinds("a -- comment here\n  b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn unexpected_character_errors_with_position() {
        match lex("a @ b") {
            Err(PaylessError::Parse { position, .. }) => assert_eq!(position, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unexpected_non_ascii_character_is_named_whole() {
        let sql = "SELECT * FROM Städte";
        match lex(sql) {
            Err(PaylessError::Parse { position, message }) => {
                assert_eq!(position, 16);
                assert!(sql.is_char_boundary(position));
                assert_eq!(message, "unexpected character `ä`");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        match lex("a 𝄞") {
            Err(PaylessError::Parse { position, message }) => {
                assert_eq!(
                    (position, message.as_str()),
                    (2, "unexpected character `𝄞`")
                );
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn keyword_check_is_case_insensitive() {
        let toks = lex("select").unwrap();
        assert!(toks[0].kind.is_kw("SELECT"));
        assert!(toks[0].kind.is_kw("select"));
        assert!(!toks[0].kind.is_kw("FROM"));
    }
}
