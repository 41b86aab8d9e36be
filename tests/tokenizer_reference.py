"""The character-by-character tokenizer that the parser used before its
single compiled regex, kept as the reference the equivalence property in
`test_poly.py` compares `lieschouten.poly._tokenize` with.

It steps through the text with `str.isspace`, `str.isdigit`, `str.isalpha`
and `str.isalnum`, which agree with the ASCII character classes on ASCII
input; beyond ASCII they also accept superscripts and other scripts'
digits, which the regex tokenizer rejects on purpose.
"""

from lieschouten.poly import _GREEK_INPUT, ParseError


class ReferenceTokenizer:
    def __init__(self, text: str):
        for src, dst in _GREEK_INPUT.items():
            text = text.replace(src, dst)
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next(self) -> tuple[str, object, int]:
        """Return (kind, value, position); kind 'end' at end of input."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        start = self.pos
        ch = self.text[start]
        if ch.isdigit():
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return ("int", int(self.text[start : self.pos]), start)
        if ch.isalpha() or ch == "_":
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            return ("ident", self.text[start : self.pos], start)
        if ch in "+-*^()/":
            self.pos += 1
            return (ch, ch, start)
        raise ParseError(f"unexpected character {ch!r}", start)


def reference_tokens(text: str) -> list[tuple[str, object, int]]:
    """Every token of `text`, the final 'end' token included."""
    tok = ReferenceTokenizer(text)
    tokens = [tok.next()]
    while tokens[-1][0] != "end":
        tokens.append(tok.next())
    return tokens
