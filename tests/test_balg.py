"""Finite boolean algebras, filters, homomorphisms, Stone duality."""

import pytest

from bvmsheaf.balg import (AlgebraError, BAHom, Filter, antichains,
                           dual_map, left_adjoint, mk_powerset, quotient,
                           stone_space, ultrafilters)

from util import (all_homs, brute_force_left_adjoint,
                  brute_force_ultrafilters)

B2 = mk_powerset(["a1"])
B4 = mk_powerset(["a1", "a2"])
B8 = mk_powerset(["a1", "a2", "a3"])


def test_powerset_sizes():
    assert len(B2) == 2
    assert len(B4) == 4
    assert len(B8) == 8


def test_powerset_construction_errors():
    with pytest.raises(AlgebraError):
        mk_powerset([])
    with pytest.raises(AlgebraError):
        mk_powerset(["a", "a"])


def test_axioms_hold_on_construction():
    # the constructor checks only the labels: the boolean-algebra laws hold
    # by construction and are checked below
    mk_powerset(["a", "b", "c", "d"])


def test_boolean_algebra_laws_on_one_to_four_atoms():
    """Complement, commutativity, absorption, distributivity and
    associativity of &, | and ~ on Elem, over every element (pair, triple)
    of the powerset algebras on 1 to 4 atoms."""
    for n in range(1, 5):
        alg = mk_powerset([f"a{i}" for i in range(n)])
        elems = list(alg.elements())
        top, bot = alg.top, alg.bottom
        for a in elems:
            assert a & ~a == bot and a | ~a == top
            for b in elems:
                assert a & b == b & a and a | b == b | a
                assert a & (a | b) == a and a | (a & b) == a
                for c in elems:
                    assert a & (b | c) == (a & b) | (a & c)
                    assert a & (b & c) == (a & b) & c
                    assert a | (b | c) == (a | b) | c


def test_atoms_join_prime():
    for alg in (B4, B8):
        for a in alg.atom_elems():
            for b in alg.elements():
                for c in alg.elements():
                    if a <= b | c:
                        assert a <= b or a <= c


def test_cross_algebra_comparison_is_error():
    other = mk_powerset(["a1", "x2"])
    with pytest.raises(AlgebraError):
        B4.top == other.top  # noqa: B015


def test_ultrafilters_against_brute_force():
    assert [u.gen.label for u in ultrafilters(B2)] == ["a1"]
    for alg in (B2, B4, B8):
        expected = brute_force_ultrafilters(alg)
        got = [frozenset(e.bits for e in u.members()) for u in ultrafilters(alg)]
        assert sorted(got, key=sorted) == sorted(expected, key=sorted)
    assert len(ultrafilters(B8)) == 3


def test_filters_are_principal_and_membership():
    f = Filter(B4, B4.atom("a1"))
    assert f.is_ultrafilter
    assert B4.atom("a1") in f and B4.top in f
    assert B4.atom("a2") not in f and B4.bottom not in f
    with pytest.raises(AlgebraError):
        Filter(B4, B4.bottom)


def test_stone_space_b2_b4():
    st2 = stone_space(B2)
    assert len(st2.space.points) == 1
    assert st2.clopen(B2.top) == frozenset(st2.space.points)
    st4 = stone_space(B4)
    assert st4.space.is_discrete and len(st4.space.points) == 2
    assert st4.clopen(B4.atom("a1")) == frozenset({"a1"})


def test_stone_space_b8_clop_is_everything():
    st = stone_space(B8)
    clopens = {st.clopen(e) for e in B8.elements()}
    assert clopens == set(st.space.opens)
    assert len(clopens) == 8


def test_clopen_map_is_isomorphism_exhaustive():
    for alg in (B2, B4, B8):
        st = stone_space(alg)
        seen = set()
        for a in alg.elements():
            na = st.clopen(a)
            assert st.elem_of(na) == a
            seen.add(na)
            for b in alg.elements():
                assert st.clopen(a & b) == na & st.clopen(b)
                assert st.clopen(a | b) == na | st.clopen(b)
            assert st.clopen(~a) == frozenset(st.space.points) - na
        assert len(seen) == len(alg)


def test_quotient_by_trivial_filter_is_identity():
    q, proj = quotient(B4, Filter(B4, B4.top))
    assert q == B4
    for e in B4.elements():
        assert proj(e) == e


def test_quotient_by_ultrafilter_is_two_element():
    q, proj = quotient(B4, Filter(B4, B4.atom("a1")))
    assert len(q) == 2
    assert proj(B4.atom("a2")).is_bottom
    assert proj(B4.atom("a1")).is_top


def test_quotient_b8_by_principal():
    gen = B8.from_labels(["a1", "a2"])
    q, proj = quotient(B8, Filter(B8, gen))
    assert len(q) == 4 and set(q.atoms) == {"a1", "a2"}
    # projection is a surjective homomorphism with kernel filter F
    f = Filter(B8, gen)
    for a in B8.elements():
        for b in B8.elements():
            assert proj(a & b) == proj(a) & proj(b)
            assert proj(a | b) == proj(a) | proj(b)
        assert proj(~a) == ~proj(a)
        assert proj(a).is_top == (a in f)
    assert {proj(a) for a in B8.elements()} == set(q.elements())


def _hom_b2_to_b4():
    return BAHom.from_dict(B2, B4, {"a1": "a1", "a2": "a1"})


def _hom_b4_to_b8():
    return BAHom.from_dict(B4, B8, {"a1": "a1", "a2": "a1", "a3": "a2"})


def test_left_adjoint_examples():
    i = _hom_b2_to_b4()
    pi = left_adjoint(i)
    assert pi(B4.atom("a1")) == B2.top
    assert pi(B4.bottom) == B2.bottom
    ident = BAHom.identity(B4)
    for e in B4.elements():
        assert left_adjoint(ident)(e) == e
    j = _hom_b4_to_b8()
    pj = left_adjoint(j)
    assert pj(B8.from_labels(["a1", "a2"])) == B4.atom("a1")
    assert pj(B8.atom("a3")) == B4.atom("a2")


def test_left_adjoint_matches_brute_force_and_galois():
    algebras = [B2, B4, B8]
    for src in algebras:
        for tgt in algebras:
            for i in all_homs(src, tgt):
                pi = left_adjoint(i)
                for c in tgt.elements():
                    assert pi(c) == brute_force_left_adjoint(i, c)
                    for b in src.elements():
                        assert (c <= i(b)) == (pi(c) <= b)


def test_left_adjoint_unique_by_function_enumeration():
    # small enough to scan every function Elem(B4) -> Elem(B2)
    from itertools import product as iproduct
    i = _hom_b2_to_b4()
    pi = left_adjoint(i)
    elems4, elems2 = list(B4.elements()), list(B2.elements())
    adjoints = []
    for images in iproduct(elems2, repeat=len(elems4)):
        cand = dict(zip(elems4, images))
        if all((c <= i(b)) == (cand[c] <= b)
               for c in elems4 for b in elems2):
            adjoints.append(cand)
    assert len(adjoints) == 1
    assert all(adjoints[0][c] == pi(c) for c in elems4)


def test_dual_map_examples():
    ident = BAHom.identity(B4)
    for u in ultrafilters(B4):
        assert dual_map(ident)(u) == u
    j = _hom_b4_to_b8()
    g_a2 = Filter(B8, B8.atom("a2"))
    assert dual_map(j)(g_a2) == Filter(B4, B4.atom("a1"))
    i = _hom_b2_to_b4()
    assert i.is_injective
    images = {dual_map(i)(u) for u in ultrafilters(B4)}
    assert images == set(ultrafilters(B2))


def test_dual_map_injective_iff_surjective_and_reconstruction():
    algebras = [B2, B4, B8]
    for src in algebras:
        for tgt in algebras:
            for i in all_homs(src, tgt):
                duals = [i.dual(u) for u in ultrafilters(tgt)]
                assert i.is_injective == (set(duals) == set(ultrafilters(src)))
                # i = k_{pi*_i}: rebuild i from preimages of clopens
                for b in src.elements():
                    rebuilt = tgt.from_labels(
                        d.gen.label
                        for d, du in zip(ultrafilters(tgt), duals)
                        if b in du
                    )
                    assert rebuilt == i(b)


def test_antichains_enumerated_ascending():
    chains = list(antichains(B8))
    sizes = [len(c) for c in chains]
    assert sizes == sorted(sizes)
    for chain in chains:
        for a in chain:
            assert not a.is_bottom
        for a, b in zip(chain, chain[1:]):
            assert (a & b).is_bottom or a == b
    # oracle: every pairwise-disjoint nonzero combination appears
    from itertools import combinations as icombs
    nonzero = [e for e in B8.elements() if not e.is_bottom]
    expected = sum(
        1 for size in range(1, 4)
        for combo in icombs(nonzero, size)
        if all((x & y).is_bottom for x, y in icombs(combo, 2))
    )
    assert len(chains) == expected


def test_stone_space_is_extremally_disconnected():
    # Fact: B complete iff CLOP(St(B)) = RO(St(B)); finite algebras always
    from bvmsheaf.topo import is_extremally_disconnected
    for alg in (B2, B4, B8):
        assert is_extremally_disconnected(stone_space(alg).space)


def test_hom_composition():
    i = BAHom.from_dict(B2, B4, {"a1": "a1", "a2": "a1"})
    j = BAHom.from_dict(B4, B8, {"a1": "a1", "a2": "a1", "a3": "a2"})
    k = j.compose(i)
    for b in B2.elements():
        assert k(b) == j(i(b))
    with pytest.raises(AlgebraError):
        i.compose(j)


def test_antichain_cap_must_be_positive():
    with pytest.raises(AlgebraError):
        list(antichains(B4, 0))
