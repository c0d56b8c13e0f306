//! # vcal-lang — a miniature imperative front-end for V-cal
//!
//! The paper's Fig. 1 shows the translation of an imperative loop into a
//! V-cal expression; its Booster front-end is cited but external. This
//! crate is the stand-in: a small Pascal-flavoured language with exactly
//! the constructs the paper translates —
//!
//! ```text
//! for i := 1 to 9 do
//!   if A[i] > 0 then A[i] := B[i+1]; fi;
//! od;
//! ```
//!
//! * [`lex`] / [`parse`](mod@parse) — tokens and recursive-descent parsing;
//! * [`ast`] — loops, guards, assignments, and subscript expressions
//!   covering the paper's function classes (`c`, `a*i+c`, `mod`, `div`,
//!   squaring);
//! * [`translate`](mod@translate) — AST → [`vcal_core::Clause`] with
//!   symbolic access functions and inferred `•` / `//` ordering;
//! * [`pretty`] — rendering clauses in the paper's V-cal notation and
//!   back to imperative form.
#![warn(missing_docs)]

pub mod ast;
pub mod decl;
pub mod lex;
pub mod parse;
pub mod pretty;
pub mod translate;

pub use ast::{ARef, IdxExpr, RelOp, Stmt, ValExpr};
pub use decl::{parse_spec, DeclError, DecompSpec};
pub use parse::{parse, ParseError};
pub use pretty::{to_imperative, to_vcal};
pub use translate::{idx_to_fn1, translate, translate_program, TranslateError};

/// End-to-end helper: source text → clauses.
pub fn compile(src: &str) -> Result<Vec<vcal_core::Clause>, CompileError> {
    let stmts = parse(src)?;
    Ok(translate_program(&stmts)?)
}

/// Combined front-end error.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Parsing failed.
    Parse(ParseError),
    /// Translation failed.
    Translate(TranslateError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Translate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> Self {
        CompileError::Translate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_end_to_end() {
        let clauses = compile(
            "for i := 0 to 7 do A[i] := B[i] + 1; od; for j := 0 to 7 do C[j] := A[j]; od;",
        )
        .unwrap();
        assert_eq!(clauses.len(), 2);
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(matches!(compile("for i :="), Err(CompileError::Parse(_))));
        assert!(matches!(
            compile("for i := 0 to 9 do A[q] := 1; od;"),
            Err(CompileError::Translate(_))
        ));
    }
}
