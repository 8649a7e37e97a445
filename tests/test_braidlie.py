"""Structural identities of the bracket calculus behind the stu2 families."""

from jacobitrees import braidlie
from jacobitrees.lie import GradedConfig, expand, to_lyndon_coordinates
from jacobitrees.trees import TreeVector, enumerate_trees

from conftest import normalize

MODELS = (braidlie.MODEL_ODD_DIM, braidlie.MODEL_EVEN_DIM)


def element_to_tree_vector(elem, n, model):
    """Multilinear top-layer part as a tree vector (with the odd-model
    leaf-permutation sign), mirroring the extraction in doubling_image."""
    terms = {}
    for mono, c in elem.items():
        if braidlie.layer(mono) != n + 1 or not braidlie._is_pure(mono, n + 1):
            continue
        targets = braidlie._leaf_targets(mono)
        if sorted(targets) != list(range(1, n + 1)):
            continue
        sign = braidlie._leaf_order_sign(mono) if model.gamma else 1
        t = braidlie._mono_to_tree(mono)
        terms[t] = terms.get(t, 0) + sign * c
    terms = {k: v for k, v in terms.items() if v}
    return TreeVector.from_dict(terms) if terms else TreeVector.zero(n)


def test_yang_baxter_annihilation_in_coordinates():
    # [p(a,b), p(z,a) + p(z,b)] = 0 for every third point z, in both models
    n = 2
    for model in MODELS:
        calc = braidlie.BraidCalculus(model)
        for (a, b, z) in [(2, 1, 3), (3, 1, 2), (3, 2, 1)]:
            gab, s0 = braidlie.gen(a, b, model)
            gza, s1 = braidlie.gen(z, a, model)
            gzb, s2 = braidlie.gen(z, b, model)
            acc = {}
            for m, c in normalize(calc, ("b", gab, gza)).items():
                acc[m] = acc.get(m, 0) + s0 * s1 * c
            for m, c in normalize(calc, ("b", gab, gzb)).items():
                acc[m] = acc.get(m, 0) + s0 * s2 * c
            v = element_to_tree_vector({m: c for m, c in acc.items() if c}, n, model)
            coords = to_lyndon_coordinates(v, n) if not v.is_zero else [0]
            assert not any(coords), (model, a, b, z)


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
    # is the identity that lets odd-model monomials be read as trees
    cfg = GradedConfig(generator_degree=1)
    for n in (2, 3, 4):
        for t in enumerate_trees(n):
            graded = expand(t, cfg=cfg).copy_terms()
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
            plain = {w: psi * c for w, c in expand(t).copy_terms().items()}
            assert twisted == plain


def test_disjoint_generators_commute():
    for model in MODELS:
        calc = braidlie.BraidCalculus(model)
        g1, _ = braidlie.gen(4, 3, model)
        g2, _ = braidlie.gen(2, 1, model)
        assert normalize(calc, ("b", g1, g2)) == {}


def test_doubling_image_degree_and_mode():
    for model, parity in ((braidlie.MODEL_ODD_DIM, "odd"), (braidlie.MODEL_EVEN_DIM, "even")):
        for w in braidlie.source_words(4):
            v = braidlie.doubling_image(w, 4, model)
            if v.is_zero:
                continue
            assert v.degree == 4 and not v.decorated


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
    from jacobitrees.lie import lyndon_basis, straighten_vector

    n = 4
    for model in MODELS:
        index = {w: i for i, (w, _) in enumerate(lyndon_basis(n))}
        lat = IntLattice(math.factorial(n - 1))
        for w in braidlie.source_words(n):
            v = braidlie.doubling_image(w, n, model)
            if not v.is_zero:
                lat.add({index[k]: c for k, c in straighten_vector(v).items()})
        for _ in range(25):
            doubled = rng.randint(1, n - 1)
            letters = sorted(list(range(1, n)) + [doubled])
            b = _random_bracket(rng, letters, n)
            v = braidlie.bracket_doubling_image(b, doubled, n, model)
            if v.is_zero:
                continue
            row = {index[k]: c for k, c in straighten_vector(v).items()}
            assert lat.contains(row)


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


def _expand_positional(m, t, first, second, rho, n, model):
    """Substitute targets for the t-doubling, tracking leaf positions.

    The two occurrences of target t get the copies (first, second) in leaf
    order; other targets relabel through rho; the mover becomes n+1.
    """

    def go(node, seen):
        if node[0] == "g":
            b = node[2]
            if b == t:
                copy = first if seen == 0 else second
                g, s = braidlie.gen(n + 1, copy, model)
                return [(g, s, seen + 1)]
            g, s = braidlie.gen(n + 1, rho(b), model)
            return [(g, s, seen)]
        results = []
        for lm, ls, seen1 in go(node[1], seen):
            for rm, rs, seen2 in go(node[2], seen1):
                results.append((("b", lm, rm), ls * rs, seen2))
        return results

    return [(mono, sign) for mono, sign, _ in go(m, 0)]


def brute_force_doubling_image(bracket, t, n, model, calc):
    acc = {}

    def add(mono, c):
        acc[mono] = acc.get(mono, 0) + c

    def rho(j):
        return j if j < t else j + 1

    for first, second in ((t, t + 1), (t + 1, t)):
        for mono, sign in _expand_positional(bracket, t, first, second, rho, n, model):
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
    return element_to_tree_vector(
        {m: c for m, c in normalized.items() if c}, n, model
    )


def test_doubling_image_matches_brute_force(rng):
    # the bilinear evaluation on the sums g(n, x) + g(n+1, x) equals the
    # expansion over all leaf assignments, for the Lyndon source words and
    # for random non-standard bracketings of the same letters
    for model in MODELS:
        calc = braidlie.BraidCalculus(model)
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
                got = braidlie.bracket_doubling_image(bracket, t, n, model)
                want = brute_force_doubling_image(bracket, t, n, model, calc)
                assert got.as_dict() == want.as_dict(), (model, n, bracket)
