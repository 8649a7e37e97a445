"""Structural identities of the bracket calculus behind the stu2 families."""

import hashlib
import os
import weakref

import pytest

from jacobitrees import braidlie
from jacobitrees.lie import expand, to_lyndon_coordinates
from jacobitrees.trees import TreeVector, enumerate_trees, parse_tree

from conftest import lyndon_basis, normalize

PARITIES = (True, False)  # odd, even


def test_yang_baxter_annihilation_in_coordinates():
    # [p(a,b), p(z,a) + p(z,b)] = 0 for every third point z, in both parities
    n = 2
    for odd in PARITIES:
        calc = braidlie.BraidCalculus(odd)
        for (a, b, z) in [(2, 1, 3), (3, 1, 2), (3, 2, 1)]:
            gab, s0 = braidlie.gen(a, b, odd)
            gza, s1 = braidlie.gen(z, a, odd)
            gzb, s2 = braidlie.gen(z, b, odd)
            acc = {}
            for m, c in normalize(calc, ("b", gab, gza)).items():
                acc[m] = acc.get(m, 0) + s0 * s1 * c
            for m, c in normalize(calc, ("b", gab, gzb)).items():
                acc[m] = acc.get(m, 0) + s0 * s2 * c
            v = braidlie.top_layer_vector(acc, n, odd)
            coords = to_lyndon_coordinates(v, n) if not v.is_zero else [0]
            assert not any(coords), (odd, a, b, z)


@pytest.mark.parametrize("n", [3, 4, 5, 6, pytest.param(7, marks=pytest.mark.skipif(
    not os.environ.get("JACOBITREES_ACCEPT_N8"),
    reason="n = 7 takes ~2 s; set JACOBITREES_ACCEPT_N8=1",
))])
def test_parities_agree_mod_2(n):
    # the odd and even doubling images of each source word have the same
    # support and the same |coefficients|, so the two parities' relation
    # rows agree mod 2
    for w in braidlie.source_words(n):
        odd, even = (braidlie.doubling_image(w, n, o) for o in PARITIES)
        assert {t: abs(c) for t, c in odd.terms} == {t: abs(c) for t, c in even.terms}, w


def _images_sha256(degrees):
    h = hashlib.sha256()
    for n in degrees:
        for odd in PARITIES:
            for w in braidlie.source_words(n):
                v = braidlie.doubling_image(w, n, odd)
                h.update(f"{n} {int(odd)} {''.join(map(str, w))} {v.serialize()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("degrees, digest", [
    (range(3, 7), "43de2ad4e63e35745f912e0304551d225c6165117a6352d9535cfa895f8cfe4f"),
    pytest.param((7,), "c2b28fc39b4bd5c79c7a75f722ddf427f33a6e8286aeafec89e9cf8c2aa3b12d",
                 marks=pytest.mark.skipif(
                     not os.environ.get("JACOBITREES_ACCEPT_N8"),
                     reason="n = 7 takes ~1 s; set JACOBITREES_ACCEPT_N8=1")),
], ids=("3-6", "7"))
def test_doubling_images_pinned(degrees, digest):
    # every source word's image in both parities, terms and coefficients
    assert _images_sha256(degrees) == digest


def test_reversed_source_words_give_the_same_images():
    # the family's memos fill in another order on a fresh calculus
    for odd in PARITIES:
        for n in (5, 6):
            words = braidlie.source_words(n)
            braidlie._calculus.cache_clear()
            forward = [braidlie.doubling_image(w, n, odd) for w in words]
            braidlie._calculus.cache_clear()
            backward = [braidlie.doubling_image(w, n, odd) for w in reversed(words)]
            assert [v.terms for v in forward] == [v.terms for v in reversed(backward)]


def test_a_family_builds_one_object_per_monomial():
    # every word reachable from the calculus' table, pair cache and walk
    # memo, subwords included, is the one object of its value
    for odd in PARITIES:
        for w in braidlie.source_words(6):
            braidlie.doubling_image(w, 6, odd)
        calc = braidlie._calculus(odd, 6)
        first, visited = {}, set()

        def visit(m):
            if id(m) in visited:
                return
            visited.add(id(m))
            assert first.setdefault(m, m) is m, m
            if m[0] == "b":
                visit(m[1])
                visit(m[2])

        for m, same in calc._monos.items():
            assert same is m
            visit(m)
        for (a, b), items in calc._pair_cache.items():
            for m in (a, b, *(m for m, _ in items)):
                visit(m)
        for m in calc._walks:
            visit(m)
        assert len(first) == len(calc._monos) and calc._walks and calc._pair_cache


def test_the_next_family_frees_the_last_calculus():
    # _calculus keeps one family's calculus; a dict takes no weak reference,
    # so a probe that only the table or the memo holds stands for each
    class Probe:
        pass

    braidlie.doubling_image((1, 1, 2), 3, True)
    calc = braidlie._calculus(True, 3)
    in_table, in_memo = Probe(), Probe()
    calc._monos[in_table] = in_table
    calc._walks[in_memo] = None
    refs = [weakref.ref(x) for x in (calc, in_table, in_memo)]
    del calc, in_table, in_memo
    assert all(r() is not None for r in refs)
    braidlie.doubling_image((1, 1, 2), 3, False)
    assert [r() for r in refs] == [None, None, None]


def test_top_layer_vector_reads_multilinear_top_words():
    # n = 3: only words pure in layer 4 with distinct targets become trees,
    # and odd dimension signs each tree by its leaf-target parity
    def word(m1, t1, m2, t2, m3, t3):
        return ("b", ("b", ("g", m1, t1), ("g", m2, t2)), ("g", m3, t3))

    in_layer_n = word(3, 1, 3, 2, 3, 1)
    mixed_movers = word(4, 2, 3, 1, 4, 3)
    repeated = word(4, 1, 4, 2, 4, 1)
    leaf_order_213 = word(4, 2, 4, 1, 4, 3)
    dropped = {in_layer_n: 3, mixed_movers: 11, repeated: 7}
    for odd, sign in ((True, -1), (False, 1)):
        none = braidlie.top_layer_vector(dropped, 3, odd)
        assert none.is_zero and none.degree == 3
        got = braidlie.top_layer_vector({**dropped, leaf_order_213: 5}, 3, odd)
        assert got == TreeVector.from_dict({parse_tree("[[2,1],3]"): 5 * sign})


def _word_sign(w):
    s = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                s = -s
    return s


def test_koszul_sign_bridge():
    # twisting each word of the odd-graded expansion by its permutation sign
    # gives the plain expansion times the leaf-order sign of the tree; this
    # is the identity that lets odd-dimension monomials be read as trees
    for n in (2, 3, 4):
        for t in enumerate_trees(n):
            graded = expand(t, odd=True)
            twisted = {w: _word_sign(w) * c for w, c in graded.items()}
            seq = []

            def leaves(node):
                if node.is_leaf:
                    seq.append(node.label)
                else:
                    leaves(node.left)
                    leaves(node.right)

            leaves(t)
            psi = _word_sign(tuple(seq))
            plain = {w: psi * c for w, c in expand(t).items()}
            assert twisted == plain


def test_disjoint_generators_commute():
    for odd in PARITIES:
        calc = braidlie.BraidCalculus(odd)
        g1, _ = braidlie.gen(4, 3, odd)
        g2, _ = braidlie.gen(2, 1, odd)
        assert normalize(calc, ("b", g1, g2)) == {}


def test_doubling_image_degree_and_mode():
    for odd in PARITIES:
        for w in braidlie.source_words(4):
            v = braidlie.doubling_image(w, 4, odd)
            if v.is_zero:
                continue
            assert v.degree == 4 and not v.decorated


def test_bracket_returns_pure_words(monkeypatch):
    # layer reads the mover of the leftmost leaf, exact on pure words only.
    # The doubling brackets generators and earlier bracket results, so if
    # every word the bracket returns is pure, so is every word it is given
    original = braidlie.BraidCalculus.bracket
    words = set()

    def recorded(self, left, right):
        out = original(self, left, right)
        words.update(out)
        return out

    monkeypatch.setattr(braidlie.BraidCalculus, "bracket", recorded)
    for odd in PARITIES:
        for n in range(3, 7):
            for w in braidlie.source_words(n):
                braidlie.doubling_image(w, n, odd)
    assert words
    for m in words:
        movers = _leaf_movers(m)
        assert len(movers) == 1 and braidlie.layer(m) == max(movers), m


def _random_bracket(rng, letters, mover):
    if len(letters) == 1:
        return ("g", mover, letters[0])
    k = rng.randint(1, len(letters) - 1)
    sh = letters[:]
    rng.shuffle(sh)
    return ("b", _random_bracket(rng, sh[:k], mover), _random_bracket(rng, sh[k:], mover))


def test_arbitrary_bracketings_stay_in_lattice(rng):
    # the Lyndon source words are a basis, so by linearity the image of any
    # bracketing of the source letters lies in the lattice they span; this
    # exercises the target-copy substitution end to end
    import math

    from jacobitrees.intlinalg import IntLattice
    from jacobitrees.lie import straighten_vector

    n = 4
    for odd in PARITIES:
        index = {w: i for i, (w, _) in enumerate(lyndon_basis(n))}
        lat = IntLattice(math.factorial(n - 1))
        for w in braidlie.source_words(n):
            v = braidlie.doubling_image(w, n, odd)
            if not v.is_zero:
                lat.add({index[k]: c for k, c in straighten_vector(v, {}).items()})
        for _ in range(25):
            doubled = rng.randint(1, n - 1)
            letters = sorted(list(range(1, n)) + [doubled])
            b = _random_bracket(rng, letters, n)
            v = braidlie.bracket_doubling_image(b, doubled, n, odd)
            if v.is_zero:
                continue
            row = {index[k]: c for k, c in straighten_vector(v, {}).items()}
            assert not lat.reduce(row)


# ---------------------------------------------------------------------------
# brute-force oracle for both doublings: the two positional assignments of
# the target copies {t, t+1} to the two t-leaves, and all 2^n assignments of
# leaves to the mover copies {n, n+1}, then normalise monomial by monomial


def _substitute(m, mapping):
    """All ways to substitute each generator leaf by the mapped options.

    mapping sends ("g", a, b) to a list of ((mono, sign), ...) options;
    returns the expansion with one option chosen per leaf occurrence.
    """
    if m[0] == "g":
        return [(mono, sign) for mono, sign in mapping[m]]
    out = []
    for lm, ls in _substitute(m[1], mapping):
        for rm, rs in _substitute(m[2], mapping):
            out.append((("b", lm, rm), ls * rs))
    return out


def _leaf_movers(m):
    if m[0] == "g":
        return {m[1]}
    return _leaf_movers(m[1]) | _leaf_movers(m[2])


def _expand_positional(m, t, first, second, rho, n, odd):
    """Substitute targets for the t-doubling, tracking leaf positions.

    The two occurrences of target t get the copies (first, second) in leaf
    order; other targets relabel through rho; the mover becomes n+1.
    """

    def go(node, seen):
        if node[0] == "g":
            b = node[2]
            if b == t:
                copy = first if seen == 0 else second
                g, s = braidlie.gen(n + 1, copy, odd)
                return [(g, s, seen + 1)]
            g, s = braidlie.gen(n + 1, rho(b), odd)
            return [(g, s, seen)]
        results = []
        for lm, ls, seen1 in go(node[1], seen):
            for rm, rs, seen2 in go(node[2], seen1):
                results.append((("b", lm, rm), ls * rs, seen2))
        return results

    return [(mono, sign) for mono, sign, _ in go(m, 0)]


def brute_force_doubling_image(bracket, t, n, odd, calc):
    acc = {}

    def add(mono, c):
        acc[mono] = acc.get(mono, 0) + c

    def rho(j):
        return j if j < t else j + 1

    for first, second in ((t, t + 1), (t + 1, t)):
        for mono, sign in _expand_positional(bracket, t, first, second, rho, n, odd):
            add(mono, sign * (-1) ** t)
    options = {
        ("g", n, x): [(("g", n, x), 1), (("g", n + 1, x), 1)] for x in range(1, n)
    }
    for mono, sign in _substitute(bracket, options):
        if _leaf_movers(mono) != {n, n + 1}:
            continue  # one copy unused: misses a point
        add(mono, sign * (-1) ** n)
    normalized = {}
    for mono, c in acc.items():
        for mm, cc in normalize(calc, mono).items():
            normalized[mm] = normalized.get(mm, 0) + c * cc
    return braidlie.top_layer_vector(normalized, n, odd)


def test_doubling_image_matches_brute_force(rng):
    # the bilinear evaluation on the sums g(n, x) + g(n+1, x) equals the
    # expansion over all leaf assignments, for the Lyndon source words and
    # for random non-standard bracketings of the same letters
    for odd in PARITIES:
        calc = braidlie.BraidCalculus(odd)
        for n in range(3, 7):
            cases = [
                (braidlie._word_bracket(w, n), next(c for c in w if w.count(c) == 2))
                for w in braidlie.source_words(n)
            ]
            for _ in range(10):
                t = rng.randint(1, n - 1)
                letters = sorted(list(range(1, n)) + [t])
                cases.append((_random_bracket(rng, letters, n), t))
            for bracket, t in cases:
                got = braidlie.bracket_doubling_image(bracket, t, n, odd)
                want = brute_force_doubling_image(bracket, t, n, odd, calc)
                assert got.terms == want.terms, (odd, n, bracket)
