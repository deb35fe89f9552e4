"""Finite spaces: regularization, RO/CLOP, completions, induced homs."""

import pytest

from bvmsheaf.topo import (ContMap, FinPoset, FinTop, NotOpenMapError,
                           TopologyError, boolean_completion, clop_algebra,
                           down_topology, induced_ro_hom,
                           is_extremally_disconnected, opens_poset,
                           ro_algebra, subset_label)

from util import (all_continuous_maps, all_posets, all_topologies,
                  check_down_topology, check_space_against_scans,
                  clop_from_subset, clop_to_subset, closure_scan, clopens,
                  completion_failures, downset_scan, from_pairs_fixpoint,
                  generate_topology, inclusion_scan, interior_scan,
                  is_dense_in, is_nowhere_dense, is_predense_below,
                  is_topology_pairwise, poset_sup, preorder_topologies,
                  regular_opens, regularize_pointwise, regularize_scan,
                  ro_from_subset, ro_joins_match, ro_to_subset, subspace)

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


def _families(points, required):
    """Every family of subsets of points that holds the required sets."""
    subsets = [frozenset(p for i, p in enumerate(points) if m >> i & 1)
               for m in range(1 << len(points))]
    free = [u for u in subsets if u not in required]
    for mask in range(1 << len(free)):
        yield required | {u for i, u in enumerate(free) if mask >> i & 1}


def test_fintop_verdict_matches_the_pairwise_scan():
    """FinTop decides by the unions of the minimal neighbourhoods U_p; the
    pairwise union and meet scan it replaced is the oracle, on every family
    of subsets of at most 3 points and on every family of subsets of 4
    points that holds the empty and the full set.  A rejection names a
    missing set in one line."""
    counts = []
    for n in range(1, 5):
        points = ("p", "q", "r", "s")[:n]
        required = ({frozenset(), frozenset(points)} if n == 4 else set())
        topologies = families = 0
        for fam in _families(points, frozenset(required)):
            families += 1
            want = is_topology_pairwise(points, fam)
            try:
                FinTop(points, frozenset(fam))
                assert want
                topologies += 1
            except TopologyError as err:
                assert not want
                text = str(err)
                assert "\n" not in text
                if text.startswith("opens not closed"):
                    label = text.split(": ")[1].removesuffix(" missing")
                    missing = frozenset(label.strip("{}").split(",")) - {""}
                    assert missing not in fam
        counts.append((families, topologies))
    assert counts == [(4, 1), (16, 4), (256, 29), (16384, 355)]


def test_clop_atoms_partition_the_space():
    """The ClopAlgebra atoms, nonempty and pairwise disjoint, cover the
    space, which the constructor leaves unchecked, on all 389 topologies of
    at most 4 points."""
    checked = 0
    for n in range(1, 5):
        for x in all_topologies(("p", "q", "r", "s")[:n]):
            atoms = list(clop_algebra(x).atom_subsets.values())
            assert all(atoms) and frozenset().union(*atoms) == x.full
            assert sum(map(len, atoms)) == len(x.points)
            checked += 1
    assert checked == 389


def test_clop_algebra_subset_dictionary_roundtrip():
    """On all 389 topologies of at most 4 points, every CLOP element is the
    union of its atoms' point sets, a clopen, and from_subset inverts it."""
    for n in range(1, 5):
        for x in all_topologies(("p", "q", "r", "s")[:n]):
            clop = clop_algebra(x)
            for e in clop.alg.elements():
                u = clop_to_subset(clop, e)
                assert u == frozenset().union(
                    *(s for a, s in clop.atom_subsets.items() if a in e.atom_labels()))
                assert x.is_open(u) and x.is_closed(u)
                assert clop_from_subset(clop, u) == e


def test_regularize_sierpinski():
    assert SIER.closure({"1"}) == {"0", "1"}
    assert SIER.regularize({"1"}) == {"0", "1"}


def test_subset_argument_errors():
    for op in (SIER.interior, SIER.closure, SIER.regularize):
        with pytest.raises(TopologyError):
            op({"z"})
    with pytest.raises(TopologyError):
        is_dense_in(SIER, {"1"}, {"nope"})


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
             ({"0"}, False, True), ({"0", "1"}, True, True),
             (["1", "1"], True, False), (("0", "0"), False, True)]
    for a, is_open, is_closed in table:
        assert SIER.is_open(a) is is_open
        assert SIER.is_closed(a) is is_closed
    assert SIER.interior(["0", "0"]) == frozenset()


def test_mask_kernel_matches_literal_definitions():
    """Every topology on at most 4 points and every subset: the mask kernel
    (the interior as the OR of the U_p inside a mask) agrees with the
    frozenset scans it replaced, and Reg with its local characterization;
    the RO and CLOP atoms, in their order, and extremal disconnectedness
    agree with the scans (see check_space_against_scans)."""
    def by_size(u):
        return (len(u), sorted(u))

    extremally_disconnected = []
    for n in range(1, 5):
        for x in all_topologies(("p", "q", "r", "s")[:n]):
            extremally_disconnected.append(check_space_against_scans(x))
            subsets = [frozenset(p for i, p in enumerate(x.points) if m >> i & 1)
                       for m in range(1 << n)]
            for a in subsets:
                reg = regularize_scan(x, a)
                assert regularize_pointwise(x, a) == reg
                assert x.is_open(a) == (a in x.opens)
                assert x.is_closed(a) == (x.full - a in x.opens)
                assert x.is_regular_open(a) == (a in x.opens and reg == a)
                assert x.is_dense(a) == (closure_scan(x, a) == x.full)
                assert is_nowhere_dense(x, a) == (not reg)
                for u in subsets:
                    assert is_dense_in(x, a, u) == all(
                        v & a for v in x.opens if v and v <= u)
            opens = sorted(x.opens, key=by_size)
            assert regular_opens(x) == [
                u for u in opens if u and regularize_scan(x, u) == u]
            assert clopens(x) == [u for u in opens if x.full - u in x.opens]
            for s in subsets[1:]:
                assert subspace(x, s).opens == frozenset(u & s for u in x.opens)
    assert len(extremally_disconnected) == 389
    assert sum(extremally_disconnected) == 1 + 4 + 26 + 255


def test_down_topology_passes_the_checked_constructor():
    """down_topology skips FinTop's check; on all 242 posets of at most 4
    elements the check accepts its opens and the checked space has the
    same interiors."""
    posets = [p for n in range(1, 5) for p in all_posets("abcd"[:n])]
    assert len(posets) == 242
    for p in posets:
        check_down_topology(p)
    with pytest.raises(TopologyError, match="^a space needs at least one point$"):
        down_topology(FinPoset((), frozenset()))


def test_preorder_enumerator_matches_all_topologies():
    """The 5-point sweep enumerates topologies as the down-set families of
    preorders; at 1 to 4 points they are the families all_topologies finds
    by filtering (1, 4, 29 and 355 of them)."""
    for n, count in zip(range(1, 5), (1, 4, 29, 355)):
        points = ("p", "q", "r", "s")[:n]
        families = [x.opens for x in preorder_topologies(points)]
        assert len(families) == len(set(families)) == count
        assert set(families) == {x.opens for x in all_topologies(points)}


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
        for u in regular_opens(x):
            assert ro_to_subset(ro, ro_from_subset(ro, u)) == u
        for e in ro.alg.elements():
            assert ro_from_subset(ro, ro_to_subset(ro, e)) == e


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
            ro._atoms[ro.alg.atom_index(label)] = 0  # drop the atom's points
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


def test_down_topology_matches_the_subset_scan():
    """The unions of the principal down sets are exactly the down-closed
    subsets, on all 242 posets of at most 4 elements."""
    posets = [p for n in range(1, 5) for p in all_posets("abcd"[:n])]
    assert len(posets) == 242
    for p in posets:
        assert down_topology(p).opens == downset_scan(p)


def test_boolean_completion_antichain():
    anti = FinPoset.from_pairs(("a", "b"), [])
    ro, e = boolean_completion(anti)
    assert len(ro.alg) == 4
    assert ro_to_subset(ro, e["a"]) == frozenset({"a"})
    assert ro_to_subset(ro, e["b"]) == frozenset({"b"})


def test_boolean_completion_pv():
    ro, e = boolean_completion(PV)
    assert len(ro.alg) == 4
    assert set(ro.atom_subsets.values()) == {frozenset({"q"}), frozenset({"r"})}
    assert e["p"].is_top          # Reg(down p) is the whole space
    assert ro_to_subset(ro, e["q"]) == frozenset({"q"})
    assert ro_to_subset(ro, e["r"]) == frozenset({"r"})


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
        ro, e = boolean_completion(poset)
        assert completion_failures(poset, ro, e) == []
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
    assert SIER.is_dense({"1"}) and not is_nowhere_dense(SIER, {"1"})
    assert SIER.is_dense(SIER.full) and not is_nowhere_dense(SIER, SIER.full)
    assert not DISC2.is_dense({"x"}) and not is_nowhere_dense(DISC2, {"x"})
    assert is_nowhere_dense(SIER, {"0"}) and is_nowhere_dense(SIER, frozenset())
    assert is_dense_in(DISC2, {"x"}, {"x", "y"}) is False
    assert is_dense_in(SIER, frozenset(), {"1"}) is False


def test_poset_predense_and_sup():
    assert is_predense_below(PV, ["q", "r"], "p")
    assert not is_predense_below(PV, ["q"], "p")
    assert poset_sup(PV, ["q", "r"]) == "p"
    assert poset_sup(PV, ["q"]) == "q"


def test_poset_validation():
    with pytest.raises(TopologyError):
        FinPoset(("a", "b"), frozenset({("a", "a"), ("b", "b"),
                                        ("a", "b"), ("b", "a")}))
    with pytest.raises(TopologyError):  # antisymmetry violated via closure
        FinPoset.from_pairs(("a", "b"), [("a", "b"), ("b", "a")])
    chain = FinPoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert chain.le("a", "c")  # transitive closure computed


def test_from_pairs_matches_the_fixpoint():
    """from_pairs closes on down masks (Warshall); the label-pair fixpoint
    is the oracle on every generating relation on at most 3 elements, with
    and without a label outside the carrier: the same leq, or a rejection
    of the same kind.  A label outside is named at its first pair."""
    def outcome(build):
        try:
            return build().leq
        except TopologyError as err:
            return str(err).split(" at ")[0].split(" (")[0]

    kinds = set()
    for n in range(4):
        labels = tuple("abc"[:n])
        pairs = [(a, b) for a in labels for b in labels]
        for bits in range(1 << len(pairs)):
            gen = [p for i, p in enumerate(pairs) if bits >> i & 1]
            for extra in ([], [("z", labels[0])] if labels else []):
                got = outcome(lambda: FinPoset.from_pairs(labels, gen + extra))
                want = outcome(lambda: FinPoset(
                    labels, from_pairs_fixpoint(labels, gen + extra)))
                assert got == want
                kinds.add(got if isinstance(got, str) else "order")
    assert kinds == {"order", "not antisymmetric", "relation pair"}
    with pytest.raises(TopologyError, match=r"^relation pair \(z,a\) outside the carrier$"):
        FinPoset.from_pairs("ab", [("a", "b"), ("z", "a"), ("b", "y")])


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


def test_poset_checks_match_their_definitions():
    """Every relation on at most 3 labels (512 on 3): FinPoset accepts it iff
    it is reflexive, antisymmetric and transitive, and each rejection names
    a property that fails at the elements it names."""
    named = set()
    for n in range(4):
        labels = tuple("abc"[:n])
        pairs = [(a, b) for a in labels for b in labels]
        for bits in range(1 << len(pairs)):
            rel = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            order = (all((a, a) in rel for a in labels)
                     and all(a == b or (b, a) not in rel for a, b in rel)
                     and all((a, d) in rel
                             for a, b in rel for c, d in rel if b == c))
            try:
                po = FinPoset(labels, rel)
            except TopologyError as err:
                assert not order
                prop, at = str(err).split(" at ")
                named.add(prop)
                at = tuple(at.split(","))
                if prop == "not reflexive":
                    (a,) = at
                    assert (a, a) not in rel
                elif prop == "not antisymmetric":
                    a, b = at
                    assert a != b and (a, b) in rel and (b, a) in rel
                else:
                    assert prop == "not transitive"
                    a, b, c = at
                    assert (a, b) in rel and (b, c) in rel and (a, c) not in rel
            else:
                assert order and po.leq == rel
    assert named == {"not reflexive", "not antisymmetric", "not transitive"}


def test_opens_poset_labels():
    po = opens_poset(SIER)
    assert set(po.elements) == {"{1}", "{0,1}"}
    assert po.le("{1}", "{0,1}")


def test_inclusion_posets_match_the_pairwise_scan():
    """alg_poset and opens_poset walk each member's submasks; the pairwise
    scan of every two members gives the same order, and the elements keep
    their order, on B+ at 1 to 6 atoms and on O(X)+ for every topology of
    at most 4 points."""
    from bvmsheaf.balg import mk_powerset
    from bvmsheaf.sheaf import alg_poset
    families = []
    for n in range(1, 7):
        alg = mk_powerset([f"a{i + 1}" for i in range(n)])
        families.append((alg_poset(alg), {
            e.label: frozenset(e.atom_labels())
            for e in alg.elements() if not e.is_bottom}))
    for n in range(1, 5):
        for x in all_topologies(("p", "q", "r", "s")[:n]):
            families.append((opens_poset(x), {
                subset_label(u): u for u in x.nonempty_opens()}))
    assert len(families) == 6 + 389
    for po, members in families:
        assert po.elements == tuple(members)
        assert po.leq == inclusion_scan(members)


def test_inclusion_posets_satisfy_the_order_axioms():
    """alg_poset and opens_poset skip FinPoset's axiom check, inclusion of
    masks being an order by construction.  The checked constructor accepts
    their elements and order, and gives the same down sets and down masks,
    on B+ at 1 to 5 atoms and on O(X)+ for every topology of at most 4
    points."""
    from bvmsheaf.balg import mk_powerset
    from bvmsheaf.sheaf import alg_poset
    posets = [alg_poset(mk_powerset([f"a{i + 1}" for i in range(n)]))
              for n in range(1, 6)]
    posets += [opens_poset(x) for n in range(1, 5)
               for x in all_topologies(("p", "q", "r", "s")[:n])]
    assert len(posets) == 5 + 389
    for po in posets:
        checked = FinPoset(po.elements, po.leq)
        assert checked == po
        assert checked._mask == po._mask
        assert {a: checked.down(a) for a in po.elements} == \
            {a: po.down(a) for a in po.elements}


def test_mask_posets_answer_as_their_checked_twins():
    """alg_poset and opens_poset keep one mask per element, and le, down,
    compatible and refinements read the masks; leq is built when read.  The
    checked constructor, given their elements and leq, accepts them, equals
    them and answers every query alike, also on a label that is no element
    (False, or empty), on B+ at 1 to 4 atoms and on O(X)+ for every
    topology of at most 3 points."""
    from bvmsheaf.balg import mk_powerset
    from bvmsheaf.sheaf import alg_poset
    posets = [alg_poset(mk_powerset([f"a{i + 1}" for i in range(n)]))
              for n in range(1, 5)]
    posets += [opens_poset(x) for n in range(1, 4)
               for x in all_topologies(("p", "q", "r")[:n])]
    for po in posets:
        twin = FinPoset(po.elements, po.leq)
        assert po == twin
        labels = po.elements + ("bogus",)
        for a in labels:
            assert po.down(a) == twin.down(a)
            for b in labels:
                assert po.le(a, b) == twin.le(a, b)
                assert po.compatible(a, b) == twin.compatible(a, b)
                assert po.refinements(a, b) == twin.refinements(a, b)
    assert not po.le("bogus", "bogus") and po.down("bogus") == frozenset()


def test_opens_poset_of_a_long_chain_matches_the_pairwise_scan():
    """A chain topology on 27 points has 28 opens; opens_poset scans its
    family for each open rather than walking its 2^27 submasks, so it
    returns at once and agrees with the pairwise scan.  A walk of every
    member's submasks takes tens of seconds here and fails the bound."""
    import time
    points = tuple(f"p{k:02d}" for k in range(27))
    x = FinTop(points, frozenset(frozenset(points[:k]) for k in range(28)))
    start = time.perf_counter()
    po = opens_poset(x)
    assert time.perf_counter() - start < 1.0
    members = {subset_label(u): u for u in x.nonempty_opens()}
    assert po.elements == tuple(members)
    assert po.leq == inclusion_scan(members)


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
                for v in regular_opens(f.source):
                    pi_v = h.left_adjoint(ro_from_subset(ro_src, v))
                    assert ro_to_subset(ro_tgt, pi_v) == \
                        f.target.regularize(f.image(v))
