import pytest
from hypothesis import given, strategies as st

from jacobitrees.words import MAX_EXPONENT, Word, WordError, parse_word


def test_parse_and_format():
    w = parse_word("x1 x2 x1^-1 x2^-1")
    assert str(w) == "x1 x2 x1^-1 x2^-1"
    assert parse_word("a^3 b^-2").letters == (
        ("a", 1), ("a", 1), ("a", 1), ("b", -1), ("b", -1)
    )
    assert str(parse_word("a^2 b^-1")) == "a^2 b^-1"


def test_identity_forms():
    assert parse_word("").is_identity
    assert parse_word("1").is_identity
    assert parse_word("a a^-1").is_identity


def test_reduction():
    w = parse_word("a b b^-1 a^-1 c")
    assert str(w) == "c"


def test_inverse_and_commutator():
    a, b = Word.generator("a"), Word.generator("b")
    assert (a * a.inverse()).is_identity
    assert str(a.commutator(b)) == "a b a^-1 b^-1"


def test_exponent_sum():
    w = parse_word("a b a^-1 b^-1")
    assert w.exponent_sum("a") == 0
    assert parse_word("a^3 b").exponent_sum("a") == 3


def test_bad_tokens():
    with pytest.raises(WordError):
        parse_word("3x")
    with pytest.raises(WordError):
        parse_word("a^x")


def test_exponent_bound():
    assert parse_word(f"a^-{MAX_EXPONENT}").exponent_sum("a") == -MAX_EXPONENT
    with pytest.raises(WordError, match="beyond"):
        parse_word(f"a^{MAX_EXPONENT + 1}")


_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=12
).map(Word.from_letters)


@given(_words)
def test_reduced_invariant(w):
    for (g1, e1), (g2, e2) in zip(w.letters, w.letters[1:]):
        assert not (g1 == g2 and e1 == -e2)


@given(_words)
def test_mul_inverse_is_identity(w):
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


@given(_words)
def test_roundtrip(w):
    assert parse_word(str(w)) == w


@given(_words, _words)
def test_mul_associative_with_reduction(u, v):
    assert (u * v).letters == Word.from_letters(u.letters + v.letters).letters
