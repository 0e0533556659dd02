//! A concrete syntax for lineage queries — the paper's own notation.
//!
//! ```text
//! lin(⟨P:Y[1,2]⟩, {A, B})        fine-grained, focused
//! lin(<P:Y[]>, {})               ASCII brackets accepted
//! lin(<wf:out[0]>)               focus defaults to the empty set
//! impact(<wf:in[1]>, {wf})       forward queries use the same shape
//! ```
//!
//! The grammar, informally:
//!
//! ```text
//! query   := kind '(' binding (',' focus)? ')'
//! kind    := 'lin' | 'impact'
//! binding := ('⟨'|'<') IDENT ':' IDENT index ('⟩'|'>')
//! index   := '[' (NUM (',' NUM)*)? ']'
//! focus   := '{' (IDENT (',' IDENT)*)? '}'
//! ```
//!
//! Identifiers may contain any characters except the structural ones
//! (`:[]{}<>⟨⟩,()`), so qualified nested names like `sub/T1` and names
//! like `2TO1_FINAL` parse fine.

use prov_model::{Index, PortRef, ProcessorName};

use crate::{FocusSet, ImpactQuery, LineageQuery};

/// A parsed query of either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedQuery {
    /// A backward lineage query.
    Lineage(LineageQuery),
    /// A forward impact query.
    Impact(ImpactQuery),
}

impl std::fmt::Display for ParsedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParsedQuery::Lineage(q) => q.fmt(f),
            ParsedQuery::Impact(q) => q.fmt(f),
        }
    }
}

/// A parse failure, with a human-oriented message and the byte offset at
/// which parsing stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses the paper-notation query syntax.
pub fn parse_query(input: &str) -> Result<ParsedQuery, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let kind = p.ident("query kind")?;
    p.expect('(')?;
    let (target, index) = p.binding()?;
    p.skip_ws();
    let focus = if p.peek() == Some(',') {
        p.expect(',')?;
        p.focus_set()?
    } else {
        FocusSet::empty()
    };
    p.expect(')')?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("trailing input after query"));
    }
    match kind.as_str() {
        "lin" => Ok(ParsedQuery::Lineage(LineageQuery { target, index, focus })),
        "impact" => Ok(ParsedQuery::Impact(ImpactQuery { source: target, index, focus })),
        other => Err(ParseError {
            message: format!("unknown query kind {other:?} (expected lin or impact)"),
            at: 0,
        }),
    }
}

/// Convenience: parses and requires a lineage query.
pub fn parse_lineage(input: &str) -> Result<LineageQuery, ParseError> {
    match parse_query(input)? {
        ParsedQuery::Lineage(q) => Ok(q),
        ParsedQuery::Impact(_) => {
            Err(ParseError { message: "expected a lin(...) query, got impact(...)".into(), at: 0 })
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

const STRUCTURAL: &[char] = &[':', '[', ']', '{', '}', '<', '>', '⟨', '⟩', ',', '(', ')'];

impl Parser<'_> {
    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.bump();
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), at: self.pos }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(got) if got == c => {
                self.bump();
                Ok(())
            }
            got => Err(self.error(format!("expected {c:?}, found {got:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_whitespace() || STRUCTURAL.contains(&c) {
                break;
            }
            self.bump();
        }
        if self.pos == start {
            return Err(self.error(format!("expected {what}")));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn binding(&mut self) -> Result<(PortRef, Index), ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('⟨') | Some('<') => {
                self.bump();
            }
            got => return Err(self.error(format!("expected ⟨ or <, found {got:?}"))),
        }
        let processor = self.ident("processor name")?;
        self.expect(':')?;
        let port = self.ident("port name")?;
        let index = self.index()?;
        self.skip_ws();
        match self.peek() {
            Some('⟩') | Some('>') => {
                self.bump();
            }
            got => return Err(self.error(format!("expected ⟩ or >, found {got:?}"))),
        }
        Ok((PortRef::new(processor.as_str(), &port), index))
    }

    fn index(&mut self) -> Result<Index, ParseError> {
        self.expect('[')?;
        let mut components = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(']') {
                self.bump();
                break;
            }
            if !components.is_empty() {
                self.expect(',')?;
                self.skip_ws();
            }
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            if self.pos == start {
                return Err(self.error("expected an index component (number)"));
            }
            let n: u32 = self.input[start..self.pos]
                .parse()
                .map_err(|e| self.error(format!("index component: {e}")))?;
            components.push(n);
        }
        Ok(Index::from(components))
    }

    fn focus_set(&mut self) -> Result<FocusSet, ParseError> {
        self.expect('{')?;
        let mut names: Vec<ProcessorName> = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.bump();
                break;
            }
            if !names.is_empty() {
                self.expect(',')?;
            }
            let name = self.ident("processor name")?;
            names.push(ProcessorName::from(name.as_str()));
        }
        Ok(FocusSet::from_names(names))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_notation_exactly() {
        let q = parse_lineage("lin(⟨2TO1_FINAL:Y[1,2]⟩, {LISTGEN_1})").unwrap();
        assert_eq!(q.target, PortRef::new("2TO1_FINAL", "Y"));
        assert_eq!(q.index, Index::from_slice(&[1, 2]));
        assert!(q.focus.contains(&"LISTGEN_1".into()));
        // Round-trip: Display produces the same notation.
        assert_eq!(q.to_string(), "lin(⟨2TO1_FINAL:Y[1,2]⟩, {LISTGEN_1})");
        assert_eq!(parse_lineage(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn parses_ascii_brackets() {
        let q = parse_lineage("lin(<P:Y[0]>, {A, B})").unwrap();
        assert_eq!(q.target, PortRef::new("P", "Y"));
        assert_eq!(q.focus.len(), 2);
    }

    #[test]
    fn empty_index_and_focus() {
        let q = parse_lineage("lin(<P:Y[]>, {})").unwrap();
        assert!(q.index.is_empty());
        assert!(q.focus.is_empty());
        let q = parse_lineage("lin(<P:Y[]>)").unwrap();
        assert!(q.focus.is_empty());
    }

    #[test]
    fn parses_qualified_nested_names() {
        let q = parse_lineage("lin(<outer:ys[2]>, {sub/T1, sub})").unwrap();
        assert!(q.focus.contains(&"sub/T1".into()));
        assert!(q.focus.contains(&"sub".into()));
    }

    #[test]
    fn parses_impact_queries() {
        match parse_query("impact(<wf:in[1]>, {wf})").unwrap() {
            ParsedQuery::Impact(q) => {
                assert_eq!(q.source, PortRef::new("wf", "in"));
                assert_eq!(q.index, Index::single(1));
            }
            other => panic!("expected impact, got {other:?}"),
        }
    }

    #[test]
    fn tolerates_whitespace() {
        let q = parse_lineage("  lin ( < P : Y [ 1 , 2 ] > , { A , B } )  ").unwrap();
        assert_eq!(q.index, Index::from_slice(&[1, 2]));
        assert_eq!(q.focus.len(), 2);
    }

    #[test]
    fn rejects_malformed_input_with_positions() {
        for bad in [
            "lin(P:Y[1])",        // missing binding brackets
            "lin(<P Y[1]>)",      // missing colon
            "lin(<P:Y[1)>",       // unclosed index
            "lin(<P:Y[x]>)",      // non-numeric component
            "lineage(<P:Y[]>)",   // unknown kind
            "lin(<P:Y[]>) extra", // trailing input
            "lin(<P:Y[]>, {A)",   // unclosed focus
        ] {
            let err = parse_query(bad);
            assert!(err.is_err(), "should reject {bad:?}");
        }
        let err = parse_query("lin(<P:Y[x]>)").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn requires_lineage_when_asked() {
        assert!(parse_lineage("impact(<a:b[]>)").is_err());
    }
}
