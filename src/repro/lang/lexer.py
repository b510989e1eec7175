"""Hand-written lexer for the mini-Fortran language.

The language is line-oriented: statements end at a newline (or ``;``).
Comments run from ``!`` (or a leading ``c `` in column 1, Fortran-style)
to end of line.  Keywords and identifiers are case-insensitive and are
normalized to lower case.  Identifiers starting with ``__`` are
reserved for the analysis's own names (region dimensions ``__d<k>``,
generated ``__t…``) and rejected.
"""

from __future__ import annotations

from typing import List

from repro.lang.errors import LexError, ParseError
from repro.lang.tokens import KEYWORDS, LOGICAL_WORDS, OPERATORS, TokKind, Token


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, producing a NEWLINE-separated stream ending in EOF.

    Consecutive newlines collapse; logical operators may be written
    ``and``/``.and.`` etc. — both normalize to the bare word.
    """
    tokens: List[Token] = []
    line = 1
    i = 0
    n = len(source)

    def emit(kind: TokKind, value) -> None:
        tokens.append(Token(kind, value, line))

    while i < n:
        ch = source[i]

        # line continuation: '&' at end of line joins lines
        if ch == "&":
            j = i + 1
            while j < n and source[j] in " \t":
                j += 1
            if j < n and source[j] == "\n":
                line += 1
                i = j + 1
                continue
            raise LexError("stray '&' not at end of line", line)

        if ch == "\n" or ch == ";":
            if tokens and tokens[-1].kind is not TokKind.NEWLINE:
                emit(TokKind.NEWLINE, "\\n")
            if ch == "\n":
                line += 1
            i += 1
            continue

        if ch in " \t\r":
            i += 1
            continue

        if ch == "!":
            if i + 1 < n and source[i + 1] == "=":
                emit(TokKind.OP, "!=")
                i += 2
                continue
            while i < n and source[i] != "\n":
                i += 1
            continue

        if ch == "'" or ch == '"':
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise LexError("unterminated string literal", line)
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line)
            emit(TokKind.STRING, source[i + 1 : j])
            i = j + 1
            continue

        if ch.isdigit() or (
            ch == "." and i + 1 < n and source[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # don't swallow '.and.' style tokens: require a digit next
                    if j + 1 >= n or not source[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            text = source[i:j]
            if seen_dot:
                emit(TokKind.REAL, float(text))
            else:
                emit(TokKind.INT, int(text))
            i = j
            continue

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j].lower()
            if word.startswith("__"):
                raise ParseError(
                    f"identifier {word!r} uses the reserved prefix '__'", line
                )
            if word in KEYWORDS:
                emit(TokKind.KEYWORD, word)
            elif word in LOGICAL_WORDS:
                emit(TokKind.OP, word)
            else:
                emit(TokKind.NAME, word)
            i = j
            continue

        if ch == ".":
            # .and. / .or. / .not. / .le. style Fortran operators
            for word, op in (
                ("and", "and"),
                ("or", "or"),
                ("not", "not"),
                ("le", "<="),
                ("lt", "<"),
                ("ge", ">="),
                ("gt", ">"),
                ("eq", "=="),
                ("ne", "!="),
            ):
                marker = f".{word}."
                if source[i : i + len(marker)].lower() == marker:
                    emit(TokKind.OP, op)
                    i += len(marker)
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", line)
            continue

        if ch == "(":
            emit(TokKind.LPAREN, "(")
            i += 1
            continue
        if ch == ")":
            emit(TokKind.RPAREN, ")")
            i += 1
            continue
        if ch == ",":
            emit(TokKind.COMMA, ",")
            i += 1
            continue

        for op in OPERATORS:
            if source.startswith(op, i):
                value = "!=" if op == "/=" else op
                emit(TokKind.OP, value)
                i += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line)

    if tokens and tokens[-1].kind is not TokKind.NEWLINE:
        emit(TokKind.NEWLINE, "\\n")
    emit(TokKind.EOF, "")
    return tokens
