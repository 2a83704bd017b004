"""Tokenizer for the spatial-aggregation SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SqlError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "INSIDE", "AS",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "WITHIN", "EXPLAIN", "ANALYZE",
}

_PUNCT = {"(", ")", ",", ".", "*"}
_OPERATOR_CHARS = {"<", ">", "=", "!"}
_OPERATORS = {"<", ">", "=", "<=", ">=", "!=", "<>"}


@dataclass(frozen=True)
class Token:
    """One lexical token: kind in {KEYWORD, IDENT, NUMBER, OP, PUNCT, EOF}."""

    kind: str
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}@{self.position})"


def tokenize(text: str) -> list[Token]:
    """Split a statement into tokens; raises :class:`SqlError` on junk."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, i))
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            two = text[i:i + 2]
            if two in _OPERATORS:
                tokens.append(Token("OP", "!=" if two == "<>" else two, i))
                i += 2
            elif ch in _OPERATORS:
                tokens.append(Token("OP", ch, i))
                i += 1
            else:
                raise SqlError(f"bad operator at {i}: {text[i:i+2]!r}")
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (text[i].isdigit() or text[i] in ".eE+-"):
                # Stop a numeric literal at +/- unless it follows an exponent.
                if text[i] in "+-" and text[i - 1] not in "eE":
                    break
                i += 1
            literal = text[start:i]
            try:
                float(literal)
            except ValueError:
                raise SqlError(f"bad number at {start}: {literal!r}") from None
            tokens.append(Token("NUMBER", literal, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "KEYWORD" if word.upper() in KEYWORDS else "IDENT"
            value = word.upper() if kind == "KEYWORD" else word
            tokens.append(Token(kind, value, start))
            continue
        raise SqlError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("EOF", "", n))
    return tokens
