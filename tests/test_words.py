import re

import pytest
from hypothesis import example, given, strategies as st

from jacobitrees.words import (
    MAX_EXPONENT,
    Word,
    WordError,
    is_generator_name,
    parse_word,
    read_integer,
)


def test_parse_and_format():
    w = parse_word("x1 x2 x1^-1 x2^-1")
    assert str(w) == "x1 x2 x1^-1 x2^-1"
    assert parse_word("a^3 b^-2").letters == (
        ("a", 1), ("a", 1), ("a", 1), ("b", -1), ("b", -1)
    )
    assert str(parse_word("a^2 b^-1")) == "a^2 b^-1"


def test_identity_forms():
    assert parse_word("") == Word.identity()
    assert parse_word("1") == Word.identity()
    assert parse_word("a a^-1") == Word.identity()


def test_reduction():
    w = parse_word("a b b^-1 a^-1 c")
    assert str(w) == "c"


def test_inverse_and_commutator():
    a, b = Word.generator("a"), Word.generator("b")
    assert a * a.inverse() == Word.identity()
    assert str(a.commutator(b)) == "a b a^-1 b^-1"


def test_exponent_sum():
    # a^k is k letters a; a commutator keeps one letter of each sign
    assert parse_word("a^3 b") == parse_word("a a a b")
    w = parse_word("a b a^-1 b^-1")
    assert w.letters == (("a", 1), ("b", 1), ("a", -1), ("b", -1))


def test_bad_tokens():
    with pytest.raises(WordError):
        parse_word("3x")
    with pytest.raises(WordError):
        parse_word("a^x")


@example("a\n")
@example("é")
@example("x_1")
@given(st.text(max_size=6))
def test_generator_names_are_ascii_identifiers(name):
    # the grammar [A-Za-z_][A-Za-z_0-9]*, matched to the end: a trailing
    # newline, which the regex "^...$" let through, is refused too
    assert is_generator_name(name) == (re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name) is not None)
    if not is_generator_name(name):
        with pytest.raises(WordError, match="bad generator name"):
            Word.generator(name)


@example("")
@example("+")
@example("+-1")
@example(" 3")
@example("3\n")
@example("0_3")
@example("٣")
@example("²")
@example("-0")
@given(st.text(max_size=6) | st.text("+-0123456789_ ٣²", max_size=6))
def test_read_integer_takes_one_sign_then_ascii_digits(text):
    # int() alone also takes spaces, "_" and other scripts' digits
    if re.fullmatch(r"[+-]?[0-9]+", text):
        assert read_integer(text) == int(text)
    else:
        with pytest.raises(ValueError, match="bad integer"):
            read_integer(text)


def test_exponent_bound():
    assert parse_word(f"a^-{MAX_EXPONENT}").letters == (("a", -1),) * MAX_EXPONENT
    with pytest.raises(WordError, match="beyond"):
        parse_word(f"a^{MAX_EXPONENT + 1}")


_words = st.lists(
    st.sampled_from(("a", "b", "c", "a^-1", "b^-1", "c^-1")), max_size=12
).map(" ".join).map(parse_word)


@given(_words)
def test_reduced_invariant(w):
    for (g1, e1), (g2, e2) in zip(w.letters, w.letters[1:]):
        assert not (g1 == g2 and e1 == -e2)


@given(_words)
def test_mul_inverse_is_identity(w):
    assert w * w.inverse() == Word.identity()
    assert w.inverse() * w == Word.identity()


@given(_words)
def test_roundtrip(w):
    assert parse_word(str(w)) == w


@given(_words, _words)
def test_mul_associative_with_reduction(u, v):
    assert u * v == parse_word(f"{u} {v}")
