"""The two-way bridge between boolean valued models and presheaves on B+:
the functors L and R, the adjunction witness data, mixing <-> sheaf,
the canonical mixification, and the formula bundles characterizing fullness.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import or_

from .balg import BAHom, BoolAlg, Elem, stone_space
from .bvm import (BVModel, BVMorphism, ModelError, _atom_tables, _class_reps,
                  _families, check_morphism, has_mixing)
from .logic import Formula, Signature, free_vars
from .record import Record, field
from .sheaf import (NotSeparatedError, Presheaf, PresheafMorphism, SheafError,
                    _along, _choices, _section_id, alg_poset,
                    check_presheaf_morphism, is_separated, is_stonean_sheaf)
from .topo import opens_poset, subset_label


class StructuredPresheaf(Presheaf):
    """A presheaf of quotient-model domains: levels carry which relation
    instances hold with top truth value, enough to rebuild the model."""

    sig: Signature | None = None
    rel_top: dict = field(default_factory=dict)   # (level, sym, tuple) -> bool
    const_top: dict = field(default_factory=dict)  # const -> top-level section


def L(m: BVModel) -> StructuredPresheaf:
    """The separated presheaf of quotients F_M(b) = M/F_b on B+, with
    restriction maps collapsing classes downward.  Built once per model and
    kept on it, as the model's evaluator is, so the model's tables may be
    changed only before the first call; the result is shared, not copied."""
    lm = m.__dict__.get("_lm")
    if lm is None:
        lm = m._lm = _L(m)
    return lm


def _L(m: BVModel) -> StructuredPresheaf:
    """L(m), read off the evaluator's int tables.

    tau and sigma are one class of M/F_b iff b <= [tau=sigma], since F_b is
    the up-set of b; the representative is the least id of the class, from
    _class_reps as in every quotient.  A relation instance over
    representatives is top in M/F_b iff b <= its value, since the projection
    c |-> c /\\ b sends the value to b exactly then; the instances of level
    b are the tuples of its representatives.  m must be a valid model: for
    q <= p, classes coarsen from p to q as equality is transitive, so the
    rule sending each representative at p to its representative at q
    composes, unchecked.  It is separated by construction (two
    representatives at p differ at some atom below p), so R skips that check."""
    poset, ev = alg_poset(m.alg), m._evaluator
    rels = [(sym, table, m.sig.rel_arity[sym]) for sym, table in ev.rels.items()]
    sections, rel_top, reps_at = {}, {}, {}
    for b, label in enumerate(poset.elements, 1):  # element k of B+ is mask k+1
        rep = reps_at[label] = _class_reps(m, b)
        secs = sections[label] = tuple(r for r in m.domain if rep[r] == r)
        for sym, table, arity in rels:
            for tup in product(secs, repeat=arity):
                rel_top[label, sym, tup] = table[tup] & b == b
    const_top = {c: reps_at[m.alg.top.label][t] for c, t in m.consts.items()}
    return StructuredPresheaf.by_rule(
        lambda q, p, f: reps_at[q][f], poset, sections, m.alg, sig=m.sig,
        rel_top=rel_top, const_top=const_top, _separated=True)


def R(f: Presheaf) -> BVModel:
    """The boolean valued model on F(1) with [f=g] the join of the levels
    where the restrictions agree.  Requires a separated presheaf on B+,
    checked unless separated by construction as L(M) is; relation tables
    are rebuilt when F carries model structure, otherwise the result
    interprets equality only.  Built once per presheaf and kept on it, so
    F's tables may be changed only before the first call; a call that
    raises keeps nothing."""
    rf = f.__dict__.get("_r")
    if rf is None:
        rf = f._r = _R(f)
    return rf


def _R(f: Presheaf) -> BVModel:
    """R(f), read off F(1) one atom at a time.

    The joins run over the atoms: for separated F, s|b = t|b iff s|a = t|a
    for every atom a <= b (F(b) -> prod F(a) over the atoms below b is
    injective), so [s=t] is the join of the atoms where s and t agree.  Each
    relation value is likewise the join of the atoms where rel_top holds,
    which assumes rel_top is atom-determined (top at b iff top at every atom
    below b).  L gives that (b <= val), and so does the Gamma1 presheaf of
    the test suite's mixify oracle (a conjunction over the level's points).
    Both are built by _atom_tables, grouping F(1) by the restriction s|a."""
    if f.alg is None:
        raise SheafError("R needs a presheaf on an algebra base")
    if not f._separated and not (rep := is_separated(f)).passed:
        raise NotSeparatedError(f"presheaf is not separated: {rep.failures[:1]}")
    alg, top_label = f.alg, f.alg.top.label
    domain = f.sections[top_label]
    structured = isinstance(f, StructuredPresheaf) and f.sig is not None
    sig = f.sig if structured else Signature.make({}, ())
    rel_top = f.rel_top if structured else {}
    atoms = ((1 << k, {s: f.res(a, top_label, s) for s in domain},
              lambda sym, key, a=a: rel_top.get((a, sym, key), False))
             for k, a in enumerate(alg.atoms))
    eq, rels = _atom_tables(alg, domain, sig.rel_arity, atoms)
    return BVModel(alg, sig, tuple(domain), eq, rels,
                   dict(f.const_top) if structured else {})


# -- adjunction ---------------------------------------------------------------

class AdjunctionWitness(Record, frozen=False):
    unit: BVMorphism               # eta_M : M -> R(L(M))
    counit: PresheafMorphism       # eps_F : L(R(F)) -> F
    triangle_r_ok: bool            # Id_R = R(eps) o eta R
    triangle_l_ok: bool            # Id_L = eps L o L(eta)
    unit_is_iso: bool
    counit_is_iso: bool


def _unit(m: BVModel, rlm: BVModel) -> BVMorphism:
    rep1 = _class_reps(m, m.alg.top.bits)
    return BVMorphism(m, rlm, BAHom.identity(m.alg), dict(rep1))


def _counit(f: Presheaf, rf: BVModel) -> PresheafMorphism:
    lrf = L(rf)
    top_label = f.alg.top.label
    theta = {label: {cls: f.res(label, top_label, cls)
                     for cls in lrf.sections[label]}
             for label in f.base.elements}
    return PresheafMorphism(BAHom.identity(f.alg), theta, lrf, f)


def adjunction_witness(m: BVModel, f: Presheaf | None = None) -> AdjunctionWitness:
    """Builds the unit at M and the counit at F (default F = L(M)), checks
    the counit's naturality squares, and verifies both triangle identities
    componentwise.  L(M), R(L(M)) and L(R(L(M))) are built once each; with
    the default F the counit at F is the counit at L(M)."""
    lm = L(m)
    rlm = R(lm)
    unit = _unit(m, rlm)
    eps_lm = _counit(lm, rlm)
    if f is None:
        f, rf, counit = lm, rlm, eps_lm
    else:
        rf = R(f)
        counit = _counit(f, rf)
    if (bad_square := check_presheaf_morphism(counit)) is not None:
        raise SheafError(f"counit naturality fails at {bad_square}")

    # Id_L at M: eps_{L(M)} o L(eta_M) is the identity on each level of L(M).
    lrlm = eps_lm.source  # L(R(L(M)))
    rep1 = unit.phi       # eta: tau -> its class rep at F_1
    top_label = m.alg.top.label
    # L(eta)_b sends [tau]_b to the class of eta(tau) at level b.
    triangle_l_ok = all(
        eps_lm.theta[label][lrlm.res(label, top_label, rep1[sec])] == sec
        for label in lm.base.elements for sec in lm.sections[label])

    # Id_R at F: R(eps_F) o eta_{R(F)} is the identity on R(F).
    rep1_rf, f_top = _class_reps(rf, rf.alg.top.bits), f.alg.top.label
    triangle_r_ok = all(counit.theta[f_top][rep1_rf[tau]] == tau for tau in rf.domain)

    unit_is_iso = check_morphism(unit).is_isomorphism
    counit_is_iso = all(len(set(counit.theta[label].values())) == len(f.sections[label])
                        for label in f.base.elements)
    return AdjunctionWitness(unit, counit, triangle_r_ok, triangle_l_ok,
                             unit_is_iso, counit_is_iso)


# -- mixing <-> sheaf ----------------------------------------------------------

def ext_to_stone(f: Presheaf) -> Presheaf:
    """ext: transport a presheaf on B+ to O(St(B))+ along N_b; on the
    discrete finite Stone space Reg is the identity, so the level at a
    nonempty point set W is F at the join of W's atoms.  The points are the
    atoms in algebra order, so W's point mask is that join's bits: O(St(B))+
    is B+ relabelled, and F's rule is read along the relabelling."""
    if f.alg is None:
        raise SheafError("ext needs a presheaf on an algebra base")
    base, labels = opens_poset(stone_space(f.alg).space), alg_poset(f.alg).elements
    return _along(f, base, {w: labels[m - 1] for w, m in base._bits.items()})


class MixSheafReport(Record):
    mixing: bool
    sheaf: bool
    sections_all_induced: bool
    witness: tuple | None

    @property
    def equivalent(self) -> bool:
        return self.mixing == self.sheaf == self.sections_all_induced


def mixing_iff_sheaf(m: BVModel) -> MixSheafReport:
    """Three computations compared: has_mixing (the stalk product on the
    equality bits), the sheaf predicate on L(M), and the global sections of
    Lambda0 of ext(L(M)) over St(B) being exactly the induced ones.  The
    sheaf leg is the dense (minimal level) test: on B+ a family below p is
    predense below p iff its join is p, so the dense and the sup coverings
    are the same sets.  The sections leg is read off L(M): St(B) is
    discrete, so the stalk at the atom a is L(M)'s sections at a, each r the
    germ a:{a}:r, a top section s induces a |-> s|a, and Gamma0 over all of
    St(B) is the stalk product.  The test suite builds Lambda0 and Gamma0,
    as the oracle this is compared with."""
    lm, top = L(m), m.alg.top.label
    atoms = sorted(m.alg.atoms)
    induced = {tuple(lm.res(a, top, s) for a in atoms) for s in lm.sections[top]}
    missing = min((_section_id({a: f"{a}:{{{a}}}:{r}" for a, r in zip(atoms, c)})
                   for c in product(*(sorted(lm.sections[a]) for a in atoms))
                   if c not in induced), default=None)
    witness = None if missing is None else (missing,)
    return MixSheafReport(has_mixing(m).passed, is_stonean_sheaf(lm).passed,
                          witness is None, witness)


# -- mixification --------------------------------------------------------------

def mixify(m: BVModel) -> tuple[BVModel, BVMorphism]:
    """The canonical elementary extension with the mixing property,
    R o Gamma1 o Lambda1 o L, paired with the embedding sigma |-> sigma-dot
    over the atom identification {a} |-> a; m must be a valid model.

    It is read off the stalk product.  At finite scale a stonean sheaf F on
    B+ is fixed by its atom stalks, F(b) = prod_{a <= b} F(a) (Mac Lane and
    Moerdijk, Sheaves in Geometry and Logic, ch. III).  St(B) is discrete,
    so Lambda1 of ext(L(M)) has at the point {a} the stalk D/~_a, each class
    the germ {a}:{a}:r of its least id r, and the global sections of Gamma1
    are the tuples of classes, one per atom, named by their _section_id.
    [s=t] is the join of the atoms where s and t agree, a relation value the
    join of the atoms a where M's int value at the tuple's a-components has
    a's bit (the tuple holds in M/G_a), both built by _atom_tables grouping
    the domain by the ~_a class; sigma-dot is the tuple of sigma's
    classes.  The test suite builds the functor chain itself, as the oracle
    this is compared with."""
    n = m.alg.atom_count
    points = [subset_label((a,)) for a in m.alg.atoms]
    order = sorted(range(n), key=points.__getitem__)  # atom k of alg is m's order[k]
    alg = BoolAlg(tuple(points[i] for i in order))
    reps = [_class_reps(m, 1 << i) for i in order]
    sid = {c: _section_id({g: f"{g}:{g}:{r}" for g, r in zip(alg.atoms, c)})
           for c in product(*(sorted(set(r.values())) for r in reps))}
    domain = tuple(sorted(sid.values()))
    tables = m._evaluator.rels
    atoms = ((1 << k, {s: c[k] for c, s in sid.items()},
              lambda sym, key, a=1 << order[k]: tables[sym][key] & a)
             for k in range(n))
    eq, rels = _atom_tables(alg, domain, m.sig.rel_arity, atoms)
    phi = {d: sid[tuple(r[d] for r in reps)] for d in m.domain}
    mx = BVModel(alg, m.sig, domain, eq, rels,
                 {c: phi[t] for c, t in m.consts.items()})
    i = BAHom.from_dict(m.alg, alg, dict(zip(points, m.alg.atoms)))
    return mx, BVMorphism(m, mx, i, phi)


# -- formula bundles and the fullness characterization --------------------------

class PhiBundle(Record, frozen=False):
    """The etale space E^phi over N_{b_phi}: stalks are the tuples of classes
    where phi holds along the ultrafilter."""

    formula: Formula
    free: tuple
    b_phi: Elem
    a_phi: frozenset           # the stone points covered by some witness
    n_b_phi: frozenset         # the stone points of N_{b_phi}
    stalks: dict               # stone point -> tuple of class-tuples
    values: dict               # witness tuple -> truth value

    @property
    def total(self) -> list:
        return [(pt, cls) for pt, stalk in self.stalks.items() for cls in stalk]

    def clauses(self, with_product_clause: bool) -> "FullnessClauses":
        """The four (five under mixing) equivalent fullness clauses, read off
        the tuple values' bits by _clause_row."""
        return _clause_row(self.formula,
                           [v.bits for v in self.values.values()],
                           with_product_clause)


def phi_bundle(m: BVModel, f: Formula) -> PhiBundle:
    """E^phi, with class representatives at the points of N_{b_phi} only.
    b_phi = [E free. phi] is by definition the join of the tuple values,
    and G_pt holds a value iff the value has pt's atom bit.  So A_phi =
    N_{b_phi} at finite scale, dense by construction: some tuple value has
    each atom bit of b_phi.  The test suite asserts the equality."""
    free = tuple(sorted(free_vars(f)))
    if not free:
        raise ModelError("phi_bundle needs a formula with free variables")
    bits = dict(zip(product(m.domain, repeat=len(free)),
                    m._evaluator.tuples(f, free)))
    b_phi = Elem(m.alg, reduce(or_, bits.values(), 0))
    n_b = frozenset(b_phi.atom_labels())
    stalks = {}
    for pt in sorted(n_b):
        atom = 1 << m.alg.atom_index(pt)
        rep = _class_reps(m, atom)
        stalks[pt] = tuple(sorted({tuple(rep[t] for t in tup)
                                   for tup, val in bits.items() if val & atom}))
    a_phi = frozenset(pt for pt, stalk in stalks.items() if stalk)
    values = {tup: Elem(m.alg, val) for tup, val in bits.items()}
    return PhiBundle(f, free, b_phi, a_phi, n_b, stalks, values)


def _clause_row(f: Formula, values: list,
                with_product_clause: bool) -> "FullnessClauses":
    """phi's fullness clauses, read off its tuple values, a list of
    bitmasks in any order.  Four hold by construction at finite scale:
    (1) b_phi is by definition the join of finitely many tuple values, so
        those values cover it;
    (2) the stalk over a point of N_{b_phi} is nonempty iff some value has
        the point's atom bit, so A_phi = N_{b_phi};
    (3) St(B) of a finite algebra is discrete, so A_phi is closed;
    (4) the stalks are then all nonempty, so their product, the global
        sections, is nonempty.
    Only the product clause is computed: some single value equals b_phi.
    The test suite compares each row with the clauses computed on the
    bundle."""
    b = reduce(or_, values, 0)
    product_section = b in values if with_product_clause else None
    return FullnessClauses(f, True, True, True, True, product_section)


def global_sections_of_bundle(pb: PhiBundle) -> list[dict]:
    """Continuous right inverses of the projection over all of N_{b_phi}
    (at finite scale: stalkwise choices, none if a stalk is empty, and the
    empty choice over an empty N_{b_phi})."""
    return _choices(pb.stalks, pb.n_b_phi)


class FullnessClauses(Record):
    """phi's fullness clauses: (1) finitely many tuple values cover b_phi,
    (2) A_phi = N_{b_phi}, (3) A_phi is closed, (4) E^phi has a global
    section, and under mixing (5) one tuple value is b_phi.  At finite scale
    (1)-(4) hold by construction, as _clause_row says; (5) is computed."""

    formula: Formula
    finite_cover: bool
    a_phi_full: bool
    a_phi_closed: bool
    has_global_section: bool
    product_section: bool | None

    @property
    def agree(self) -> bool:
        base = {self.finite_cover, self.a_phi_full, self.a_phi_closed,
                self.has_global_section}
        return len(base) == 1 and self.product_section in (None, *base)


class FullnessSectionsReport(Record):
    clauses: tuple
    all_agree: bool
    mixing_checked: bool


def fullness_via_sections(m: BVModel, depth: int = 2) -> FullnessSectionsReport:
    """Run the clause comparison over the canonical open-formula pool: the
    quantifier-free one-variable formulas, and from depth 2 on the x, y
    atoms and a sample of deeper closed formulas made open.  Each row is
    read off the formula's tuple values by _clause_row, with no bundle
    built: the table the key's plan keeps on the model's evaluator."""
    mixing, ev = has_mixing(m).passed, m._evaluator
    rows = tuple(_clause_row(f, ev.table(f), mixing)
                 for f in _families(m.sig, m.domain).sections(depth))
    return FullnessSectionsReport(rows, all(c.agree for c in rows), mixing)
