import hashlib
import math

import pytest

from jacobitrees import braidlie
from jacobitrees.intlinalg import cokernel, snf_from_rows
from jacobitrees.lie import expand, to_lyndon_coordinates
from jacobitrees.relations import (
    RelationKind,
    as_relations,
    build_relation_sets,
    ihx_relations,
    relation_union,
    stu2_relations,
)
from jacobitrees.trees import TreeVector, parse_tree, tree_count, tree_list
from jacobitrees.words import Word, parse_word

from conftest import decorate_relations, normalize


def test_as_counts():
    assert list(as_relations(1).vectors()) == []
    assert len(list(as_relations(2).vectors())) == 2
    assert len(list(as_relations(3).vectors())) == 24  # 12 trees * 2 vertices


def test_as_degree2_pattern():
    vecs = list(as_relations(2).vectors())
    expected = TreeVector.single(parse_tree("[1,2]")) + TreeVector.single(
        parse_tree("[2,1]")
    )
    for v in vecs:
        assert v.as_dict() == expected.as_dict()


def test_as_vectors_shape():
    # a planar swap never fixes a tree, so every vector has two +1 terms
    for v in as_relations(3).vectors():
        assert sorted(c for _, c in v.terms) == [1, 1]


def test_ihx_empty_below_degree3():
    assert list(ihx_relations(1).vectors()) == []
    assert list(ihx_relations(2).vectors()) == []


def test_ihx_term_shape():
    vecs = list(ihx_relations(3).vectors())
    assert len(vecs) == 12  # one internal edge per degree-3 tree
    for v in vecs:
        coeffs = sorted(c for _, c in v.terms)
        assert coeffs == [-1, -1, 1]


def test_ihx_displayed_degree3_identity():
    # the three displayed degree-3 trees satisfy T_I - T_H - T_X = 0
    t_i = parse_tree("[3,[2,1]]")
    t_h = parse_tree("[[3,2],1]")
    t_x = parse_tree("[2,[3,1]]")
    v = (
        TreeVector.single(t_i)
        + TreeVector.single(t_h, -1)
        + TreeVector.single(t_x, -1)
    )
    assert expand(v).is_zero
    assert not any(to_lyndon_coordinates(v, 3))


@pytest.mark.parametrize("n", [3, 4])
def test_as_ihx_expand_to_zero(n):
    for rs in (as_relations(n), ihx_relations(n)):
        for v in rs.vectors():
            assert expand(v).is_zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_completeness(n):
    # AS+IHX spans the full kernel of expansion: quotient is free of rank
    # (n-1)!, so the lattice rank is |Tree(n)| - (n-1)!
    res = cokernel(
        relation_union([as_relations(n), ihx_relations(n)]), tree_list(n)
    )
    assert res.rank == tree_count(n) - math.factorial(n - 1)
    assert not res.torsion


def test_stu2_empty_small_degrees():
    for parity in ("odd", "even"):
        assert list(stu2_relations(1, parity).vectors()) == []
        assert list(stu2_relations(2, parity).vectors()) == []


def test_stu2_bad_parity():
    with pytest.raises(ValueError):
        stu2_relations(3, "both")


def test_stu2_degree3_instances():
    # frozen audited instances of the minimal embedding
    odd = {v.serialize() for v in stu2_relations(3, "odd").vectors()}
    assert "-1*[1,[2,3]] -1*[2,[3,1]] +1*[[1,2],3] -1*[[1,3],2]" in odd
    even = {v.serialize() for v in stu2_relations(3, "even").vectors()}
    assert "+1*[1,[2,3]] -1*[2,[3,1]] +1*[[1,2],3] +1*[[1,3],2]" in even


def _quotient(n, parity):
    rows = []
    for v in stu2_relations(n, parity).vectors():
        coords = to_lyndon_coordinates(v, n)
        row = {j: c for j, c in enumerate(coords) if c}
        if row:
            rows.append(row)
    return snf_from_rows(rows, math.factorial(n - 1))


def test_stu2_degree3_quotient_rank1():
    res = _quotient(3, "odd")
    assert res.free_rank == 1 and not res.torsion


def test_stu2_degree4_quotients():
    odd = _quotient(4, "odd")
    assert odd.free_rank == 2 and not odd.torsion
    even = _quotient(4, "even")
    assert even.free_rank == 0


def test_stu2_vectors_live_in_kernel_of_nothing():
    # stu2 vectors are generally nonzero in Lie(n), unlike AS/IHX
    nonzero = [
        v
        for v in stu2_relations(3, "odd").vectors()
        if any(to_lyndon_coordinates(v, 3))
    ]
    assert nonzero


def test_source_words():
    assert braidlie.source_words(2) == []
    assert braidlie.source_words(3) == [(1, 1, 2), (1, 2, 2)]
    assert len(braidlie.source_words(4)) == 9
    for w in braidlie.source_words(5):
        assert len(w) == 5 and set(w) == {1, 2, 3, 4}


def test_braid_model_consistency():
    with pytest.raises(ValueError):
        braidlie.BraidModel(sigma=1, gamma=1)
    with pytest.raises(ValueError):
        braidlie.BraidModel(sigma=-1, gamma=0)


def test_braid_jacobi_consistency():
    # normalising both associativity arrangements of the same element agrees
    for model in (braidlie.MODEL_ODD_DIM, braidlie.MODEL_EVEN_DIM):
        calc = braidlie.BraidCalculus(model)
        a = ("g", 4, 1)
        b = ("g", 3, 1)
        c = ("g", 3, 2)
        gamma = model.gamma
        left = normalize(calc, ("b", a, ("b", b, c)))
        rhs1 = normalize(calc, ("b", ("b", a, b), c))
        rhs2 = normalize(calc, ("b", b, ("b", a, c)))
        sign = (-1) ** (gamma * gamma)
        combined = dict(rhs1)
        for m, v in rhs2.items():
            combined[m] = combined.get(m, 0) + sign * v
        combined = {m: v for m, v in combined.items() if v}
        assert left == combined


def test_decorate_relations_degree2():
    g1, g2 = parse_word("a"), parse_word("b")
    rs = decorate_relations(as_relations(2), [(g1, g2)])
    vecs = list(rs.vectors())
    assert len(vecs) == 2
    for v in vecs:
        assert v.decorated
        for t, c in v.terms:
            assert c == 1
            deco = t.decoration_map()
            assert deco[1] == g1 and deco[2] == g2


def test_decorate_relations_empty_tuple_list():
    rs = decorate_relations(as_relations(2), [])
    assert list(rs.vectors()) == []


def test_decorate_relations_identity_matches_forgetful():
    ident = (Word.identity(), Word.identity())
    decorated = list(decorate_relations(as_relations(2), [ident]).vectors())
    plain = list(as_relations(2).vectors())
    assert len(decorated) == len(plain)
    for dv, pv in zip(decorated, plain):
        forgetful = {t.tree: c for t, c in dv.terms}
        assert forgetful == pv.as_dict()


def test_decorate_relations_arity_error():
    with pytest.raises(ValueError):
        decorate_relations(as_relations(2), [(parse_word("a"),)])


def test_build_relation_sets():
    sets = build_relation_sets(3, ("as", "ihx", "stu2"), parity="odd")
    kinds = [rs.kind for rs in sets]
    assert kinds == [RelationKind.AS, RelationKind.IHX, RelationKind.STU2_ODD]
    with pytest.raises(ValueError):
        build_relation_sets(3, ("stu2",))
    with pytest.raises(ValueError):
        build_relation_sets(3, ("nope",))


def test_dump_format():
    lines = list(as_relations(2).dump())
    assert lines == ["+1*[1,2] +1*[2,1]", "+1*[1,2] +1*[2,1]"]


def _stream_sha256(vectors):
    h = hashlib.sha256()
    for v in vectors:
        h.update((v.serialize() + "\n").encode())
    return h.hexdigest()


def test_as_ihx_streams_pinned():
    # every vector, in stream order: AS then IHX for each degree
    def stream():
        for n in range(1, 6):
            yield from as_relations(n).vectors()
            yield from ihx_relations(n).vectors()

    assert _stream_sha256(stream()) == (
        "150cb78b73ae2e348d70577581eee1e27457c551b61231590b4c0e7f52be2a59"
    )


@pytest.mark.parametrize(
    "parity, digest",
    [
        ("odd", "4e5bba867d979959d005d68070813dc8ec6b0a4e038ab60be6f1888ec71a2026"),
        ("even", "969520b94ac42b7f03dc9e45d38f92543db3019a493ddf5d6933490fb47241a9"),
    ],
)
def test_stu2_streams_pinned(parity, digest):
    vectors = (v for n in range(3, 7) for v in stu2_relations(n, parity).vectors())
    assert _stream_sha256(vectors) == digest
