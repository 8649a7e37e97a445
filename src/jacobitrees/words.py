"""Freely reduced words in a free group on named generators.

Text form: whitespace-separated generators with optional integer exponents,
e.g. "x1 x2 x1^-1 x2^-1" or "a^3 b^-2".  The canonical form compresses runs
of equal letters into one exponent and never contains adjacent inverse
pairs.  The empty string (or "1") is the identity.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import _set, _Value

#: A word is stored letter by letter, so a parsed exponent costs its size
#: in memory; "a^99999999" must be refused, not expanded.
MAX_EXPONENT = 10_000

DIGITS = "0123456789"


def is_generator_name(name: str) -> bool:
    """Whether name is ASCII letters, digits and _, not led by a digit."""
    return name.isascii() and name.isidentifier()


class WordError(ValueError):
    """Domain error for free-group words."""


def read_integer(text: str, what: str = "integer") -> int:
    """The integer text spells: at most one sign, then the digits 0-9 (int()
    alone also takes spaces, "_" and other scripts' digits).  Raises
    ValueError naming what on anything else or on more digits than int()
    converts."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not digits or digits.strip(DIGITS):
        raise ValueError(f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} has too many digits") from None


def _reduce(letters: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    stack: list[tuple[str, int]] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise WordError(f"letters must carry exponent ±1, got {exp}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


class Word(_Value):
    """A freely reduced word; letters are (generator, ±1) pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...] = ()):
        _set(self, "letters", letters)

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def generator(name: str) -> "Word":
        if not is_generator_name(name):
            raise WordError(f"bad generator name {name!r}")
        return Word(((name, 1),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def commutator(self, other: "Word") -> "Word":
        return self * other * self.inverse() * other.inverse()

    def generators(self) -> set[str]:
        return {g for g, _ in self.letters}

    def __str__(self) -> str:
        if not self.letters:
            return ""
        chunks: list[str] = []
        run_gen, run_exp = self.letters[0]
        run_len = run_exp
        for gen, exp in self.letters[1:]:
            if gen == run_gen and (exp > 0) == (run_len > 0):
                run_len += exp
            else:
                chunks.append(run_gen if run_len == 1 else f"{run_gen}^{run_len}")
                run_gen, run_len = gen, exp
        chunks.append(run_gen if run_len == 1 else f"{run_gen}^{run_len}")
        return " ".join(chunks)


def parse_word(text: str) -> Word:
    """Parse the word grammar; '' and '1' mean the identity."""
    text = text.strip()
    if text in ("", "1"):
        return Word.identity()
    letters: list[tuple[str, int]] = []
    for token in text.split():
        name, caret, exp_s = token.partition("^")
        if not is_generator_name(name):
            raise WordError(f"bad generator name {name!r}")
        if caret:
            try:
                exp = read_integer(exp_s, "exponent")
            except ValueError as exc:
                raise WordError(f"{exc} on {name!r}") from exc
            if abs(exp) > MAX_EXPONENT:
                raise WordError(f"exponent {exp} on {name!r} beyond {MAX_EXPONENT}")
        else:
            exp = 1
        sign = 1 if exp > 0 else -1
        letters.extend((name, sign) for _ in range(abs(exp)))
    return Word(_reduce(letters))
