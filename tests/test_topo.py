"""Finite spaces: regularization, RO/CLOP, completions, induced homs."""

import pytest

from bvmsheaf.topo import (ContMap, FinPoset, FinTop, NotOpenMapError,
                           TopologyError, boolean_completion, clop_algebra,
                           down_topology, induced_ro_hom,
                           is_extremally_disconnected, opens_poset,
                           ro_algebra, subset_label)

from util import (all_continuous_maps, all_posets, all_topologies,
                  generate_topology, regularize_pointwise, ro_joins_match)

SIER = FinTop(("0", "1"),
              frozenset({frozenset(), frozenset({"1"}), frozenset({"0", "1"})}))
DISC2 = FinTop(("x", "y"),
               frozenset({frozenset(), frozenset({"x"}), frozenset({"y"}),
                          frozenset({"x", "y"})}))
PV = FinPoset.from_pairs(("p", "q", "r"), [("q", "p"), ("r", "p")])


def test_fintop_validation():
    with pytest.raises(TopologyError):
        FinTop((), frozenset({frozenset()}))
    with pytest.raises(TopologyError):  # missing full set
        FinTop(("a",), frozenset({frozenset()}))
    with pytest.raises(TopologyError):  # not closed under union
        FinTop(("a", "b", "c"), frozenset({
            frozenset(), frozenset({"a"}), frozenset({"b"}),
            frozenset({"a", "b", "c"})}))


def test_regularize_sierpinski():
    assert SIER.closure({"1"}) == {"0", "1"}
    assert SIER.regularize({"1"}) == {"0", "1"}


def test_subset_argument_errors():
    for op in (SIER.interior, SIER.closure, SIER.regularize):
        with pytest.raises(TopologyError):
            op({"z"})
    with pytest.raises(TopologyError):
        SIER.is_dense_in({"1"}, {"nope"})


@pytest.mark.parametrize("op, arg, label", [
    ("is_closed", {"zz"}, "{zz}"),
    ("is_closed", {"0", "zz"}, "{0,zz}"),
    ("is_open", {"zz"}, "{zz}"),
    ("is_open", {"1", "zz"}, "{1,zz}"),
    ("interior", {"zz"}, "{zz}"),
    ("closure", {"0", "zz"}, "{0,zz}"),
])
def test_open_and_closed_tests_reject_points_outside_the_space(op, arg, label):
    with pytest.raises(TopologyError, match=f"^{label} is not a subset of the space$"):
        getattr(SIER, op)(arg)


def test_open_and_closed_tests_on_the_sierpinski_space():
    table = [(frozenset(), True, True), ({"1"}, True, False),
             ({"0"}, False, True), ({"0", "1"}, True, True)]
    for a, is_open, is_closed in table:
        assert SIER.is_open(a) is is_open
        assert SIER.is_closed(a) is is_closed


def _literal_interior(x, a):
    return frozenset().union(*(u for u in x.opens if u <= a))


def _literal_closure(x, a):
    return x.full - _literal_interior(x, x.full - a)


def _literal_regularize(x, a):
    return _literal_interior(x, _literal_closure(x, a))


def test_mask_kernel_matches_literal_definitions():
    """Every topology on at most 4 points and every subset: the mask kernel
    agrees with the frozenset formulas it replaced, and Reg with its local
    characterization."""
    def by_size(u):
        return (len(u), sorted(u))

    for n in range(1, 5):
        for x in all_topologies(("p", "q", "r", "s")[:n]):
            subsets = [frozenset(p for i, p in enumerate(x.points) if m >> i & 1)
                       for m in range(1 << n)]
            for a in subsets:
                reg = _literal_regularize(x, a)
                assert x.interior(a) == _literal_interior(x, a)
                assert x.closure(a) == _literal_closure(x, a)
                assert x.regularize(a) == reg
                assert regularize_pointwise(x, a) == reg
                assert x.is_open(a) == (a in x.opens)
                assert x.is_closed(a) == (x.full - a in x.opens)
                assert x.is_regular_open(a) == (a in x.opens and reg == a)
                assert x.is_dense(a) == (_literal_closure(x, a) == x.full)
                assert x.is_nowhere_dense(a) == (not _literal_regularize(x, a))
                for u in subsets:
                    assert x.is_dense_in(a, u) == all(
                        v & a for v in x.opens if v and v <= u)
            opens = sorted(x.opens, key=by_size)
            assert x.regular_opens() == [
                u for u in opens if u and _literal_regularize(x, u) == u]
            assert x.clopens() == [u for u in opens if x.full - u in x.opens]
            for s in subsets[1:]:
                assert x.subspace(s).opens == frozenset(u & s for u in x.opens)


def test_regularize_trivial_cases():
    for x in (SIER, DISC2):
        assert x.regularize(frozenset()) == frozenset()
        assert x.regularize(x.full) == x.full
    assert DISC2.regularize({"x"}) == {"x"}


def test_regularize_matches_local_characterization():
    for x in all_topologies(("p", "q", "r")):
        for mask in range(8):
            a = frozenset(p for i, p in enumerate(x.points) if mask >> i & 1)
            assert x.regularize(a) == regularize_pointwise(x, a)


def test_regularize_monotone_idempotent_inflationary():
    for x in all_topologies(("p", "q", "r")):
        subsets = [frozenset(p for i, p in enumerate(x.points) if m >> i & 1)
                   for m in range(8)]
        for a in subsets:
            ra = x.regularize(a)
            assert x.regularize(ra) == ra
            for b in subsets:
                if a <= b:
                    assert ra <= x.regularize(b)
        for u in x.opens:
            assert u <= x.regularize(u)


def test_ro_algebra_sierpinski_is_b2():
    ro = ro_algebra(SIER)
    assert len(ro.alg) == 2
    assert list(ro.atom_subsets.values()) == [frozenset({"0", "1"})]


def test_ro_algebra_discrete_is_powerset():
    for pts in (("x", "y"), ("x", "y", "z")):
        full = frozenset(frozenset(c) for m in range(2 ** len(pts))
                         for c in [[p for i, p in enumerate(pts) if m >> i & 1]])
        x = FinTop(pts, full)
        ro = ro_algebra(x)
        assert len(ro.alg) == 2 ** len(pts)
        assert all(len(s) == 1 for s in ro.atom_subsets.values())


def test_ro_algebra_subset_dictionary_roundtrip():
    for x in all_topologies(("p", "q", "r")):
        ro = ro_algebra(x)
        for u in x.regular_opens():
            assert ro.to_subset(ro.from_subset(u)) == u
        for e in ro.alg.elements():
            assert ro.from_subset(ro.to_subset(e)) == e


def test_ro_algebra_is_complete_with_reg_of_union_joins():
    """For every subfamily of regular opens of every topology on at most 4
    points, to_subset of the join is Reg of the union."""
    for n in range(1, 5):
        for x in all_topologies(("p", "q", "r", "s")[:n]):
            assert ro_joins_match(x, ro_algebra(x))


def test_ro_completeness_check_catches_corrupted_atoms():
    for x in all_topologies(("p", "q", "r")):
        for label in ro_algebra(x).atom_subsets:
            ro = ro_algebra(x)
            ro.atom_subsets[label] = frozenset()  # drop the atom's points
            assert not ro_joins_match(x, ro)


def test_clop_and_extremally_disconnected():
    assert clop_algebra(SIER).alg.atom_count == 1
    assert is_extremally_disconnected(SIER)
    assert is_extremally_disconnected(DISC2)
    x = generate_topology(("0", "1", "2"), [{"0"}, {"1"}])
    clop = {u for u in x.opens if x.is_closed(u)}
    ro = {u for u in x.opens if x.regularize(u) == u}
    assert len(clop) == 2          # only {} and X
    assert len(ro) == 4            # {}, {0}, {1}, X
    assert clop < ro
    assert not is_extremally_disconnected(x)
    assert x.closure({"0"}) == {"0", "2"}  # closure of an open not open


def test_down_topology_examples():
    anti = FinPoset.from_pairs(("a", "b"), [])
    assert len(down_topology(anti).opens) == 4
    chain = FinPoset.from_pairs(("a", "b"), [("a", "b")])
    assert down_topology(chain).opens == frozenset({
        frozenset(), frozenset({"a"}), frozenset({"a", "b"})})
    pv_opens = down_topology(PV).opens
    assert pv_opens == frozenset({
        frozenset(), frozenset({"q"}), frozenset({"r"}),
        frozenset({"q", "r"}), frozenset({"p", "q", "r"})})


def test_boolean_completion_antichain():
    anti = FinPoset.from_pairs(("a", "b"), [])
    ro, e = boolean_completion(anti)
    assert len(ro.alg) == 4
    assert ro.to_subset(e["a"]) == frozenset({"a"})
    assert ro.to_subset(e["b"]) == frozenset({"b"})


def test_boolean_completion_pv():
    ro, e = boolean_completion(PV)
    assert len(ro.alg) == 4
    assert set(ro.atom_subsets.values()) == {frozenset({"q"}), frozenset({"r"})}
    assert e["p"].is_top          # Reg(down p) is the whole space
    assert ro.to_subset(e["q"]) == frozenset({"q"})
    assert ro.to_subset(e["r"]) == frozenset({"r"})


def test_boolean_completion_of_complete_algebra_positive_part():
    from bvmsheaf.balg import mk_powerset
    from bvmsheaf.sheaf import alg_poset
    b4 = mk_powerset(["a1", "a2"])
    ro, e = boolean_completion(alg_poset(b4))
    assert len(ro.alg) == len(b4)
    # e embeds atoms to atoms and the top to the top
    assert e["a1"].is_atom and e["a2"].is_atom and e["a1∨a2"].is_top


def test_boolean_completion_dense_embedding_small_posets():
    for poset in all_posets(("a", "b", "c")):
        ro, e = boolean_completion(poset)  # raises if not a dense embedding
        for a in poset.elements:
            assert not e[a].is_bottom


def test_induced_ro_hom_identity_and_constant():
    ident = ContMap.from_dict(SIER, SIER, {"0": "0", "1": "1"})
    h = induced_ro_hom(ident)
    assert h.source.atom_count == 1 and h.target.atom_count == 1
    point = FinTop(("z",), frozenset({frozenset(), frozenset({"z"})}))
    const = ContMap.from_dict(DISC2, point, {"x": "z", "y": "z"})
    h2 = induced_ro_hom(const)
    assert h2(h2.source.top) == h2.target.top
    assert h2.source.atom_count == 1 and h2.target.atom_count == 2


def test_induced_ro_hom_swap_is_atom_swap():
    swap = ContMap.from_dict(DISC2, DISC2, {"x": "y", "y": "x"})
    h = induced_ro_hom(swap)
    assert h.mapping == {subset_label({"x"}): subset_label({"y"}),
                         subset_label({"y"}): subset_label({"x"})}


def test_induced_ro_hom_rejects_non_open_with_witness():
    f = ContMap.from_dict(DISC2, SIER, {"x": "0", "y": "1"})
    assert f.open_witness() == frozenset({"x"})
    with pytest.raises(NotOpenMapError) as err:
        induced_ro_hom(f)
    assert err.value.witness == frozenset({"x"})


def test_non_open_map_breaks_reg_exchange():
    # recorded counterexample: Reg(f^-1[U]) != f^-1[Reg U] for a non-open map
    f = ContMap.from_dict(DISC2, SIER, {"x": "0", "y": "1"})
    u = frozenset({"1"})
    assert DISC2.regularize(f.preimage(u)) == {"y"}
    assert f.preimage(SIER.regularize(u)) == {"x", "y"}


def test_reg_exchange_for_all_open_maps_three_points():
    spaces = all_topologies(("p", "q"))
    for x in spaces:
        for y in spaces:
            for f in all_continuous_maps(x, y):
                if not f.is_open:
                    continue
                for u in y.opens:
                    assert x.regularize(f.preimage(u)) == \
                        f.preimage(y.regularize(u))
                induced_ro_hom(f)  # also validates atom-induced structure


def test_continuity_validated():
    with pytest.raises(TopologyError):
        ContMap.from_dict(SIER, DISC2, {"0": "x", "1": "y"})


def test_density_predicates():
    assert SIER.is_dense({"1"}) and not SIER.is_nowhere_dense({"1"})
    assert SIER.is_dense(SIER.full) and not SIER.is_nowhere_dense(SIER.full)
    assert not DISC2.is_dense({"x"}) and not DISC2.is_nowhere_dense({"x"})
    assert DISC2.is_dense_in({"x"}, {"x", "y"}) is False
    assert SIER.is_dense_in(frozenset(), {"1"}) is False


def test_poset_predense_and_sup():
    assert PV.is_predense_below(["q", "r"], "p")
    assert not PV.is_predense_below(["q"], "p")
    assert PV.sup(["q", "r"]) == "p"
    assert PV.sup(["q"]) == "q"


def test_poset_validation():
    with pytest.raises(TopologyError):
        FinPoset(("a", "b"), frozenset({("a", "a"), ("b", "b"),
                                        ("a", "b"), ("b", "a")}))
    with pytest.raises(TopologyError):  # antisymmetry violated via closure
        FinPoset.from_pairs(("a", "b"), [("a", "b"), ("b", "a")])
    chain = FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert chain.le("a", "c")  # transitive closure computed


def test_poset_lookups_match_definitions_from_le():
    for n in range(5):
        labels = tuple("abcd"[:n])
        for po in all_posets(labels):
            for a in labels:
                assert po.down(a) == frozenset(b for b in labels if po.le(b, a))
                for b in labels:
                    common = [s for s in labels if po.le(s, a) and po.le(s, b)]
                    assert po.refinements(a, b) == common
                    assert po.compatible(a, b) == bool(common)


def test_opens_poset_labels():
    po = opens_poset(SIER)
    assert set(po.elements) == {"{1}", "{0,1}"}
    assert po.le("{1}", "{0,1}")


def test_duality_round_trips_at_finite_scale():
    # stone_space(ro_algebra(discrete X)) is homeomorphic to X (same size,
    # both discrete); ro_algebra(stone_space(B)) is isomorphic to B (same
    # atom count between powerset algebras)
    from bvmsheaf.balg import mk_powerset, stone_space
    for pts in (("x",), ("x", "y"), ("x", "y", "z")):
        full = frozenset(frozenset(c) for m in range(2 ** len(pts))
                         for c in [[p for i, p in enumerate(pts) if m >> i & 1]])
        x = FinTop(pts, full)
        st = stone_space(ro_algebra(x).alg)
        assert st.space.is_discrete
        assert len(st.space.points) == len(x.points)
    for n in (1, 2, 3):
        alg = mk_powerset([f"a{i+1}" for i in range(n)])
        ro = ro_algebra(stone_space(alg).space)
        assert ro.alg.atom_count == alg.atom_count


def test_induced_hom_left_adjoint_is_reg_of_image():
    spaces = all_topologies(("p", "q")) + all_topologies(("p", "q", "r"))[:12]
    for x in spaces:
        for y in spaces:
            for f in all_continuous_maps(x, y):
                if not f.is_open:
                    continue
                h = induced_ro_hom(f)
                ro_src, ro_tgt = ro_algebra(f.source), ro_algebra(f.target)
                for v in f.source.regular_opens():
                    pi_v = h.left_adjoint(ro_src.from_subset(v))
                    assert ro_tgt.to_subset(pi_v) == \
                        f.target.regularize(f.image(v))
