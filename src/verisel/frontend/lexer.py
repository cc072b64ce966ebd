"""Lexer for the supported C subset.

Whitespace, comments, and preprocessor line markers are dropped; every other
character must form a token or lexing fails with a position-carrying error.

One compiled pattern does the work. It is an alternation of named groups,
tried in order at each position: whitespace and comments (skipped; a ``#``
line marker counts as one when it starts a line), an unterminated ``/*``,
identifiers, floats, ints (hex included), char and string literals, then the
operators longest first and the punctuation. ``tokenize`` walks the matches
of one ``finditer`` scan over the file; each must start where the previous
one ended. A gap before a match, an unterminated ``/*`` match, or text left
after the last match is an unterminated literal or an illegal character at
that position. A token's column is its offset from the last newline seen.
Tokens are named tuples.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class FrontendError(Exception):
    """Base class for frontend failures."""


class LexError(FrontendError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


KEYWORDS = frozenset({
    "int", "char", "long", "short", "unsigned", "signed", "void", "float",
    "double", "if", "else", "while", "for", "switch", "case", "default",
    "break", "continue", "return", "typedef", "const", "volatile", "static",
    "extern",
    # recognized so the parser can reject them as unsupported constructs
    "goto", "do", "struct", "union", "enum", "sizeof",
})

# longest first so maximal munch falls out of the scan order
OPERATORS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", "?", ":",
)

PUNCTUATION = ("(", ")", "{", "}", "[", "]", ";", ",", ".")


class Token(NamedTuple):
    kind: str  # kw | ident | int | float | char | string | op | punct
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text}"


_PATTERN = re.compile("|".join(f"(?P<{kind}>{rx})" for kind, rx in (
    ("skip", r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|(?<![^\n])#[^\n]*)+"),
    ("unclosed", r"/\*"),
    ("ident", r"[^\W\d]\w*"),
    ("float", r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[uUlLfF]*|\d+[eE][+-]?\d+[uUlLfF]*"),
    ("int", r"(?:0[xX][0-9a-fA-F]*|\d+)[uUlLfF]*"),
    ("char", r"'(?:[^'\\]|\\.)*'"),
    ("string", r'"(?:[^"\\]|\\.)*"'),
    ("op", "|".join(map(re.escape, OPERATORS))),
    ("punct", "|".join(map(re.escape, PUNCTUATION))),
)), re.DOTALL)

# what an error at this first character means ("/" only starts an unclosed /*)
_UNTERMINATED = {
    "/": "unterminated comment",
    "'": "unterminated char literal",
    '"': "unterminated string literal",
}


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens, or raise :class:`LexError` with position."""
    tokens: list[Token] = []
    append = tokens.append
    pos, line, last_newline = 0, 1, -1
    for match in _PATTERN.finditer(source):
        kind, start = match.lastgroup, match.start()
        if start != pos or kind == "unclosed":
            break
        text = match.group()
        pos = match.end()
        if kind != "skip":
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            append(Token(kind, text, line, start - last_newline))
        if "\n" in text:
            line += text.count("\n")
            last_newline = start + text.rfind("\n")
    if pos < len(source):
        ch = source[pos]
        message = _UNTERMINATED.get(ch, f"illegal character {ch!r}")
        raise LexError(message, line, pos - last_newline)
    return tokens
