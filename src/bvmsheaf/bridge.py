"""The two-way bridge between boolean valued models and presheaves on B+:
the functors L and R, the adjunction witness data, mixing <-> sheaf,
the canonical mixification, and the formula bundles characterizing fullness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from operator import or_

from .balg import BAHom, BoolAlg, Elem, Filter, stone_space
from .bvm import (BVModel, BVMorphism, ModelError, _class_reps, _smallest_cover,
                  closed_pool, generalize, has_mixing, open_pool,
                  tarski_quotient)
from .logic import Eq, Formula, Rel, Signature, Var, free_vars
from .sheaf import (Bundle, EtaleSpace, NotSeparatedError, Presheaf,
                    PresheafMorphism, SheafError, _section_id, alg_poset,
                    elem_from_label, gamma0, gamma1, is_separated,
                    is_stonean_sheaf, lambda0, lambda1)
from .topo import FinPoset, FinTop, subset_label


@dataclass
class StructuredPresheaf(Presheaf):
    """A presheaf of quotient-model domains: levels carry which relation
    instances hold with top truth value, enough to rebuild the model."""

    sig: Signature | None = None
    rel_top: dict = field(default_factory=dict)   # (level, sym, tuple) -> bool
    const_top: dict = field(default_factory=dict)  # const -> top-level section


def L(m: BVModel) -> StructuredPresheaf:
    """The separated presheaf of quotients F_M(b) = M/F_b on B+, with
    restriction maps collapsing classes downward, read off the bits.

    tau and sigma are one class of M/F_b iff b <= [tau=sigma], since F_b is
    the up-set of b; the representative is the least id of the class, as in
    quotient_model.  A relation instance over representatives is top in
    M/F_b iff b <= its value, since the projection c |-> c /\\ b sends the
    value to b exactly then."""
    poset = alg_poset(m.alg)
    eq = {pair: v.bits for pair, v in m.eq.items()}
    sections, restrict, rel_top, reps_at = {}, {}, {}, {}
    for label in poset.elements:
        bb = elem_from_label(m.alg, label).bits
        rep = reps_at[label] = {
            a: min(b for b in m.domain if eq[b, a] & bb == bb) for a in m.domain}
        sections[label] = tuple(r for r in m.domain if rep[r] == r)
        for sym, table in m.rels.items():
            for tup, val in table.items():
                if all(rep[t] == t for t in tup):
                    rel_top[label, sym, tup] = val.bits & bb == bb
    for la in poset.elements:
        for lb in poset.elements:
            if poset.le(la, lb) and la != lb:
                restrict[la, lb] = {r: reps_at[la][r] for r in sections[lb]}
    top_label = m.alg.top.label
    const_top = {c: reps_at[top_label][t] for c, t in m.consts.items()}
    ps = Presheaf.make(poset, sections, restrict, alg=m.alg)
    return StructuredPresheaf(ps.base, ps.sections, ps.restrict, m.alg,
                              m.sig, rel_top, const_top)


def R(f: Presheaf) -> BVModel:
    """The boolean valued model on F(1) with [f=g] the join of the levels
    where the restrictions agree.  Requires a separated presheaf on B+;
    relation tables are rebuilt when the presheaf carries model structure,
    otherwise the result interprets equality only.

    The joins run over the atoms: for separated F, s|b = t|b iff s|a = t|a
    for every atom a <= b (F(b) -> prod F(a) over the atoms below b is
    injective), so [s=t] is the join of the atoms where s and t agree.  Each
    relation value is likewise the join of the atoms where rel_top holds,
    which assumes rel_top is atom-determined (top at b iff top at every atom
    below b).  Both producers give that: L (b <= val) and _gamma1_structured
    (a conjunction over the points of the level)."""
    if f.alg is None:
        raise SheafError("R needs a presheaf on an algebra base")
    rep = is_separated(f)
    if not rep.passed:
        raise NotSeparatedError(
            f"presheaf is not separated: {rep.failures[:1]}")
    alg = f.alg
    top_label = alg.top.label
    domain = f.sections[top_label]
    atoms = [(a.label, a.bits) for a in alg.atom_elems()]
    res = {(a, s): f.res(a, top_label, s) for a, _ in atoms for s in domain}

    def join(holds) -> Elem:
        return Elem(alg, sum(bit for a, bit in atoms if holds(a)))

    eq = {(s, t): join(lambda a: res[a, s] == res[a, t])
          for s in domain for t in domain}
    structured = isinstance(f, StructuredPresheaf) and f.sig is not None
    if structured:
        sig = f.sig
        rels = {sym: {tup: join(lambda a: f.rel_top.get(
                          (a, sym, tuple(res[a, t] for t in tup)), False))
                      for tup in product(domain, repeat=arity)}
                for sym, arity in sig.rel_arity.items()}
        consts = dict(f.const_top)
    else:
        sig = Signature.make({}, ())
        rels, consts = {}, {}
    return BVModel(alg, sig, tuple(domain), eq, rels, consts)


# -- adjunction ---------------------------------------------------------------

@dataclass
class AdjunctionWitness:
    unit: BVMorphism               # eta_M : M -> R(L(M))
    counit: PresheafMorphism       # eps_F : L(R(F)) -> F
    triangle_r_ok: bool            # Id_R = R(eps) o eta R
    triangle_l_ok: bool            # Id_L = eps L o L(eta)
    unit_is_iso: bool
    counit_is_iso: bool


def _unit(m: BVModel, rlm: BVModel) -> BVMorphism:
    rep1 = _class_reps(m, Filter(m.alg, m.alg.top))
    return BVMorphism(m, rlm, BAHom.identity(m.alg), dict(rep1))


def _counit(f: Presheaf, rf: BVModel) -> PresheafMorphism:
    lrf = L(rf)
    top_label = f.alg.top.label
    theta = {}
    for label in f.base.elements:
        theta[label] = {
            cls: f.res(label, top_label, cls)
            for cls in lrf.sections[label]
        }
    return PresheafMorphism(BAHom.identity(f.alg), theta, lrf, f)


def adjunction_witness(m: BVModel, f: Presheaf | None = None) -> AdjunctionWitness:
    """Builds the unit at M and the counit at F (default F = L(M)), checks
    the counit's naturality squares, and verifies both triangle identities
    componentwise.  L(M), R(L(M)) and L(R(L(M))) are built once each; with
    the default F the counit at F is the counit at L(M)."""
    from .bvm import check_morphism
    from .sheaf import check_presheaf_morphism

    lm = L(m)
    rlm = R(lm)
    unit = _unit(m, rlm)
    eps_lm = _counit(lm, rlm)
    if f is None:
        f, rf, counit = lm, rlm, eps_lm
    else:
        rf = R(f)
        counit = _counit(f, rf)
    bad_square = check_presheaf_morphism(counit)
    if bad_square is not None:
        raise SheafError(f"counit naturality fails at {bad_square}")

    # Id_L at M: eps_{L(M)} o L(eta_M) is the identity on each level of L(M).
    lrlm = eps_lm.source  # L(R(L(M)))
    rep1 = unit.phi       # eta: tau -> its class rep at F_1
    top_label = m.alg.top.label
    triangle_l_ok = True
    for label in lm.base.elements:
        for sec in lm.sections[label]:
            # L(eta)_b sends [tau]_b to the class of eta(tau) at level b.
            image = lrlm.res(label, top_label, rep1[sec])
            if eps_lm.theta[label][image] != sec:
                triangle_l_ok = False

    # Id_R at F: R(eps_F) o eta_{R(F)} is the identity on R(F).
    rep1_rf = _class_reps(rf, Filter(rf.alg, rf.alg.top))
    f_top = f.alg.top.label
    triangle_r_ok = all(
        counit.theta[f_top][rep1_rf[tau]] == tau for tau in rf.domain
    )

    unit_is_iso = check_morphism(unit).is_isomorphism
    counit_is_iso = all(
        len(set(counit.theta[label].values())) == len(f.sections[label])
        for label in f.base.elements
    )
    return AdjunctionWitness(unit, counit, triangle_r_ok, triangle_l_ok,
                             unit_is_iso, counit_is_iso)


# -- mixing <-> sheaf ----------------------------------------------------------

def ext_to_stone(f: Presheaf) -> Presheaf:
    """ext: transport a presheaf on B+ to O(St(B))+ along N_b; on the
    discrete finite Stone space Reg is the identity, so the level at a
    nonempty point set W is F at the join of W's atoms."""
    if f.alg is None:
        raise SheafError("ext needs a presheaf on an algebra base")
    alg = f.alg
    atoms = list(alg.atoms)
    subsets = [frozenset(c) for r in range(1, len(atoms) + 1)
               for c in combinations(sorted(atoms), r)]
    elem_of = {subset_label(w): alg.from_labels(w) for w in subsets}
    levels = [subset_label(w) for w in subsets]
    sections = {lw: f.sections[elem_of[lw].label] for lw in levels}
    restrict = {}
    for lw in levels:
        for lv in levels:
            w, v = elem_of[lw], elem_of[lv]
            if w <= v and lw != lv:
                restrict[lw, lv] = {
                    s: f.res(w.label, v.label, s)
                    for s in sections[lv]
                }
    poset = FinPoset(tuple(levels), frozenset(
        (lw, lv) for lw in levels for lv in levels
        if elem_of[lw] <= elem_of[lv]))
    return Presheaf.make(poset, sections, restrict)


@dataclass(frozen=True)
class MixSheafReport:
    mixing: bool
    sheaf: bool
    sections_all_induced: bool
    witness: tuple | None

    @property
    def equivalent(self) -> bool:
        return self.mixing == self.sheaf == self.sections_all_induced


def mixing_iff_sheaf(m: BVModel) -> MixSheafReport:
    """Three independent computations compared: the antichain mixing search,
    the sheaf predicate on L(M), and the global sections of the etale space
    being exactly the induced ones.  The sheaf leg is the dense (minimal
    level) test: on B+ a family below p is predense below p iff its join is
    p, so the dense and the sup coverings are the same sets."""
    mix = has_mixing(m)
    lm = L(m)
    sheaf_rep = is_stonean_sheaf(lm)
    stone = stone_space(m.alg)
    ext = ext_to_stone(lm)
    e0 = lambda0(ext, stone.space)
    full = frozenset(stone.space.points)
    sections = gamma0(e0, full)
    top_stone = subset_label(full)
    induced = [
        {pt: e0.germ_of[top_stone, sigma, pt] for pt in full}
        for sigma in lm.sections[m.alg.top.label]
    ]
    all_induced = all(s in induced for s in sections)
    witness = None
    if not all_induced:
        witness = tuple(sorted(
            _section_id(s) for s in sections if s not in induced))[:1]
    return MixSheafReport(mix.passed, sheaf_rep.passed, all_induced, witness)


# -- mixification --------------------------------------------------------------

def _stone_etale(m: BVModel):
    """lambda1 of ext(L(M)) over St(B), with the stalk Tarski models and the
    germ -> class dictionary needed to transport relation structure."""
    lm = L(m)
    stone = stone_space(m.alg)
    ext = ext_to_stone(lm)
    e1 = lambda1(ext, stone.space)
    from .topo import ro_algebra
    ro = ro_algebra(stone.space)
    point_of = {label: next(iter(sub)) for label, sub in ro.atom_subsets.items()}
    top_stone = subset_label(frozenset(stone.space.points))
    tarski = {}
    germ_class = {}
    for g_label, stone_pt in point_of.items():
        filt = stone.ultrafilter(stone_pt)
        tarski[g_label] = tarski_quotient(m, filt)
        rep_g = _class_reps(m, filt)
        for sigma in lm.sections[m.alg.top.label]:
            germ = e1.germ_of[top_stone, sigma, g_label]
            germ_class[germ] = rep_g[sigma]
    return lm, stone, e1, point_of, tarski, germ_class


def _gamma1_structured(m: BVModel, e1: EtaleSpace, point_of: dict,
                       tarski: dict, germ_class: dict) -> StructuredPresheaf:
    """Assemble Gamma1 of the bundle as a presheaf on the powerset algebra of
    the stalk points, carrying the relation structure read off stalkwise."""
    bundle = Bundle(e1)
    alg = BoolAlg(tuple(sorted(e1.base.points)))
    poset = alg_poset(alg)
    pts = sorted(e1.base.points)
    level_secs = {}
    sections, restrict, rel_top = {}, {}, {}
    for label in poset.elements:
        w = elem_from_label(alg, label)
        wpts = sorted(w.atom_labels())
        secs = {_section_id(s): s for s in gamma1(bundle, frozenset(wpts))}
        level_secs[label] = secs
        sections[label] = tuple(sorted(secs))
        for sym, arity in m.sig.rel_arity.items():
            for tup in product(sorted(secs), repeat=arity):
                rel_top[label, sym, tup] = all(
                    tuple(germ_class[secs[t][g]] for t in tup)
                    in tarski[g].rels.get(sym, frozenset())
                    for g in wpts
                )
    for la in poset.elements:
        for lb in poset.elements:
            if poset.le(la, lb) and la != lb:
                wa = elem_from_label(alg, la).atom_labels()
                restrict[la, lb] = {
                    sid: _section_id({g: s[g] for g in wa})
                    for sid, s in level_secs[lb].items()
                }
    top_label = alg.top.label
    rep1 = _class_reps(m, Filter(m.alg, m.alg.top))
    top_stone = subset_label(frozenset(pt for pt in point_of.values()))
    const_top = {}
    for c, t in m.consts.items():
        choice = {g: e1.germ_of[top_stone, rep1[t], g] for g in pts}
        const_top[c] = _section_id(choice)
    ps = Presheaf.make(poset, sections, restrict, alg=alg)
    return StructuredPresheaf(ps.base, ps.sections, ps.restrict, alg,
                              m.sig, rel_top, const_top)


def mixify(m: BVModel) -> tuple[BVModel, BVMorphism]:
    """R o Gamma1 o Lambda1 o L: the canonical elementary extension with the
    mixing property, paired with the embedding sigma |-> sigma-dot over the
    atom identification b |-> N_b."""
    lm, stone, e1, point_of, tarski, germ_class = _stone_etale(m)
    g1 = _gamma1_structured(m, e1, point_of, tarski, germ_class)
    mx = R(g1)
    rep1 = _class_reps(m, Filter(m.alg, m.alg.top))
    pts = sorted(e1.base.points)
    top_stone = subset_label(frozenset(stone.space.points))
    phi = {}
    for sigma in m.domain:
        choice = {g: e1.germ_of[top_stone, rep1[sigma], g] for g in pts}
        phi[sigma] = _section_id(choice)
    i = BAHom.from_dict(m.alg, mx.alg,
                        {g: point_of[g] for g in mx.alg.atoms})
    return mx, BVMorphism(m, mx, i, phi)


# -- formula bundles and the fullness characterization --------------------------

@dataclass
class PhiBundle:
    """The etale space E^phi over N_{b_phi}: stalks are the tuples of classes
    where phi holds along the ultrafilter."""

    formula: Formula
    free: tuple
    b_phi: Elem
    a_phi: frozenset           # the stone points covered by some witness
    n_b_phi: frozenset         # the stone points of N_{b_phi}
    stalks: dict               # stone point -> tuple of class-tuples
    values: dict               # witness tuple -> truth value
    space: FinTop | None       # the subspace on N_{b_phi}; None when empty

    @property
    def total(self) -> list:
        return [(pt, cls) for pt, stalk in self.stalks.items() for cls in stalk]

    def basic_opens(self, m: BVModel) -> dict:
        """The generating basis: for each witness tuple and each nonzero
        c <= b_phi, the tuple's germs over the points of N_c where the
        tuple's truth value lies in the ultrafilter."""
        out = {}
        for tup in sorted(self.values):
            for c in m.alg.elements():
                if c.is_bottom or not c <= self.b_phi:
                    continue
                germs = []
                for pt in sorted(c.atom_labels()):
                    g = Filter(m.alg, m.alg.atom(pt))
                    if self.values[tup] in g:
                        rep_g = _class_reps(m, g)
                        germs.append((pt, tuple(rep_g[t] for t in tup)))
                if germs:
                    out[tup, c.label] = frozenset(germs)
        return out

    def clauses(self, with_product_clause: bool) -> "FullnessClauses":
        """The four (five under mixing) equivalent fullness clauses, each by
        its own computation."""
        # a smallest tuple set whose values join to b_phi (all of them always do)
        finite_cover = _smallest_cover(
            {t: self.values[t].bits for t in sorted(self.values)},
            self.b_phi.bits) is not None
        a_phi_full = self.a_phi == self.n_b_phi
        a_phi_closed = self.space is None or self.space.is_closed(self.a_phi)
        product_section = ((not self.n_b_phi) or any(
            self.b_phi <= val for val in self.values.values())
            if with_product_clause else None)
        has_section = bool(global_sections_of_bundle(self))
        return FullnessClauses(self.formula, finite_cover, a_phi_full,
                               a_phi_closed, has_section, product_section)


def _stone_data(m: BVModel) -> tuple:
    """The Stone space, the class representatives at each of its points, and
    an empty memo of its subspaces keyed by point set."""
    stone = stone_space(m.alg)
    reps = {pt: _class_reps(m, stone.ultrafilter(pt)) for pt in stone.points}
    return stone, reps, {}


def phi_bundle(m: BVModel, f: Formula) -> PhiBundle:
    return _phi_bundle(m, f, *_stone_data(m))


def _phi_bundle(m: BVModel, f: Formula, stone, reps: dict,
                subspaces: dict) -> PhiBundle:
    """phi_bundle on shared Stone data.  phi is evaluated once per tuple, and
    b_phi = [E free. phi] is by definition the join of the tuple values, and
    G_pt holds a value iff the value has pt's atom bit."""
    free = tuple(sorted(free_vars(f)))
    if not free:
        raise ModelError("phi_bundle needs a formula with free variables")
    bits = {tup: m._evaluator.bits(f, dict(zip(free, tup)))
            for tup in product(m.domain, repeat=len(free))}
    b_phi = Elem(m.alg, reduce(or_, bits.values(), 0))
    n_b = frozenset(b_phi.atom_labels())
    stalks, a_phi = {}, set()
    for pt in sorted(n_b):
        atom = 1 << m.alg.atom_index(pt)
        classes = sorted({tuple(reps[pt][t] for t in tup)
                          for tup, val in bits.items() if val & atom})
        stalks[pt] = tuple(classes)
        if classes:
            a_phi.add(pt)
    values = {tup: Elem(m.alg, val) for tup, val in bits.items()}
    if n_b and n_b not in subspaces:
        subspaces[n_b] = stone.space.subspace(n_b)
    space = subspaces.get(n_b)
    pb = PhiBundle(f, free, b_phi, frozenset(a_phi), n_b, stalks, values, space)
    if space is not None and not space.is_dense_in(pb.a_phi, n_b):
        raise ModelError("A_phi is not dense in N_{b_phi}")
    return pb


def global_sections_of_bundle(pb: PhiBundle) -> list[dict]:
    """Continuous right inverses of the projection over all of N_{b_phi}
    (at finite scale: stalkwise choices, if every stalk is inhabited)."""
    if not pb.n_b_phi:
        return [{}]
    if any(not pb.stalks[pt] for pt in pb.n_b_phi):
        return []
    points = sorted(pb.n_b_phi)
    return [dict(zip(points, combo))
            for combo in product(*(pb.stalks[pt] for pt in points))]


@dataclass(frozen=True)
class FullnessClauses:
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
        if len(base) != 1:
            return False
        if self.product_section is not None:
            return self.product_section in base
        return True


def fullness_clauses(m: BVModel, f: Formula,
                     with_product_clause: bool) -> FullnessClauses:
    """The fullness clauses of one formula's bundle (PhiBundle.clauses)."""
    return phi_bundle(m, f).clauses(with_product_clause)


@dataclass(frozen=True)
class FullnessSectionsReport:
    clauses: tuple
    all_agree: bool
    mixing_checked: bool


def fullness_via_sections(m: BVModel, depth: int = 2) -> FullnessSectionsReport:
    """Run the clause comparison over the canonical open-formula pool:
    quantifier-free one-variable formulas, and from depth 2 on also
    two-free-variable atoms and quantified one-variable formulas obtained by
    re-generalizing a strided sample of the closed pool."""
    mixing = has_mixing(m).passed
    pool: list[Formula] = list(open_pool(m.sig, m.domain, "x"))
    if depth >= 2:
        two_var = [Eq(Var("x"), Var("y"))]
        for sym, arity in m.sig.rel_arity.items():
            if arity == 2:
                two_var.append(Rel(sym, (Var("x"), Var("y"))))
        pool.extend(two_var)
        deep = []
        for f in closed_pool(m.sig, m.domain, depth - 1)[::29]:
            g = generalize(f, f"c_{m.domain[0]}", "x")
            if "x" in free_vars(g):
                deep.append(g)
        pool.extend(deep[:10])
    stone_data = _stone_data(m)
    clauses = tuple(
        _phi_bundle(m, f, *stone_data).clauses(mixing) for f in pool
    )
    return FullnessSectionsReport(clauses, all(c.agree for c in clauses), mixing)
