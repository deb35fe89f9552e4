"""The four workloads: how each builds its seeded inputs and runs one item.

An item is one input carried through every step of the workload's pipeline
plus its oracle check; run_item returns False (or raises) when an output
disagrees with the oracle.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import gen
import oracles

ROOT = Path(__file__).resolve().parent.parent
# Model workloads draw a fresh stratified round per pass (the first one warms
# up), so no input repeats within a run of the default length (a pass takes
# 7 to 10 s).
FRESH_PASSES = 6


# Scaled times read as if python_yardstick had taken this long: about its
# median on the 2-vCPU Xeon (Sapphire Rapids) host the benchmark was written on.
PYTHON_YARDSTICK_REF_S = 0.001


def python_yardstick() -> float:
    """Time of a fixed piece of pure-Python code from the benchmark's own
    generator (dicts, tuples and small ints, as in the library).  No change
    to the library can change it, so it samples how fast the host runs
    such code at that moment."""
    start = time.perf_counter()
    gen.model_spec(random.Random(0), 3, 4, (2,), False)
    gen.preorders(3)
    return time.perf_counter() - start


class Workload:
    name: str
    yardstick_ref_s = PYTHON_YARDSTICK_REF_S

    def yardstick(self) -> float:
        """Time of a fixed piece of the workload's kind of work without the
        library, timed after every item; scaled latencies read as if it had
        taken yardstick_ref_s."""
        return python_yardstick()

    def inputs(self, seed: int) -> list[list]:
        """Passes of plain-data inputs.  A run measures whole passes, cycling
        through the list, so every run sees the same mix of items."""
        raise NotImplementedError

    def run_item(self, lib, item) -> bool:
        raise NotImplementedError


# -- models -------------------------------------------------------------------

def build_model(lib, spec: dict):
    """Hand a generated model to the library through its public constructors."""
    atoms = spec["atoms"]
    alg = lib.balg.mk_powerset(atoms)
    elems = [alg.from_labels([atoms[i] for i in gen.bits(mask)])
             for mask in range(1 << len(atoms))]
    eq = {pair: elems[v] for pair, v in spec["eq"].items()}
    rels = {sym: {tup: elems[v] for tup, v in table.items()}
            for sym, table in spec["rels"].items()}
    sig = lib.logic.Signature.make(spec["arities"], spec["consts"].keys())
    return lib.bvm.BVModel.make(alg, spec["domain"], eq=eq, rels=rels,
                                consts=spec["consts"], sig=sig)


class Models(Workload):
    """Criteria 6-9 and 12 traffic: formula evaluation and Elem operations."""

    name = "models"

    def inputs(self, seed):
        rng = random.Random(f"models:{seed}")
        return [gen.model_round(rng, (1, 2, 3), (2, 3, 4)) for _ in range(FRESH_PASSES)]

    def run_item(self, lib, spec):
        bvm = lib.bvm
        n = len(spec["atoms"])
        m = build_model(lib, spec)
        report = bvm.validate(m)
        pool = bvm.closed_pool(m.sig, m.domain, 2)
        values = [bvm.eval_formula(m, f) for f in pool]
        full = bvm.is_full(m, 2)
        mix = bvm.has_mixing(m)
        validities = [bvm.eval_formula(m, f) for f in bvm.standard_validities(m)]
        sections = lib.bridge.fullness_via_sections(m, 2)
        top = (1 << n) - 1
        extensional = not any(spec["eq"][s, t] == top
                              for s in spec["domain"] for t in spec["domain"] if s != t)
        return (report.ok and report.extensional == extensional
                and len(values) == len(pool) > 0
                and full.full and full.procedures_agree
                and mix.passed == oracles.mixing(n, spec["domain"], spec["eq"])
                and all(v.is_top for v in validities)
                and sections.all_agree)


class Bridge(Workload):
    """Criteria 9-11 traffic at 3 atoms: algebra construction, covering
    scans, lambda1 and the RO completeness check."""

    name = "bridge"

    def inputs(self, seed):
        rng = random.Random(f"bridge:{seed}")
        return [gen.model_round(rng, (3,), (2, 3, 4)) for _ in range(FRESH_PASSES)]

    def run_item(self, lib, spec):
        br = lib.bridge
        n, dom, eq = len(spec["atoms"]), spec["domain"], spec["eq"]
        top = (1 << n) - 1
        m = build_model(lib, spec)
        rlm = br.R(br.L(m))
        adj = br.adjunction_witness(m)
        mis = br.mixing_iff_sheaf(m)
        mx, emb = br.mixify(m)
        mor = lib.bvm.check_morphism(emb)
        reps = oracles.top_classes(dom, eq, top)
        rlm_eq = oracles.eq_masks(rlm)
        mx_eq = oracles.eq_masks(mx)
        return (list(rlm.domain) == reps
                and all(rlm_eq[s, t] == eq[s, t] for s in reps for t in reps)
                and adj.triangle_l_ok and adj.triangle_r_ok
                and mis.equivalent and mis.mixing == oracles.mixing(n, dom, eq)
                and len(mx.domain) == oracles.stalk_product_size(n, dom, eq)
                and oracles.mixing(mx.alg.atom_count, mx.domain, mx_eq)
                and mor.is_embedding)


# -- spaces -------------------------------------------------------------------

def build_space(lib, spec: dict):
    pts = spec["points"]
    return lib.topo.FinTop(pts, frozenset(
        frozenset(pts[i] for i in gen.bits(u)) for u in spec["opens"]))


def _topology_item(lib, spec) -> bool:
    pts, opens = spec["points"], spec["opens"]
    full = (1 << len(pts)) - 1
    x = build_space(lib, spec)
    for a in range(full + 1):
        reg = x.regularize(frozenset(pts[i] for i in gen.bits(a)))
        if oracles.mask_of(pts, reg) != oracles.regularize(opens, full, a):
            return False
        if x.regularize(reg) != reg:
            return False
    ro = lib.topo.ro_algebra(x)
    clop = lib.topo.clop_algebra(x)
    return ({oracles.mask_of(pts, u) for u in ro.atom_subsets.values()}
            == oracles.regular_open_atoms(opens, full)
            and {oracles.mask_of(pts, u) for u in clop.atom_subsets.values()}
            == oracles.clopen_atoms(opens, full))


def _poset_item(lib, down) -> bool:
    elems = tuple(f"e{i}" for i in range(len(down)))
    leq = frozenset((elems[a], elems[b]) for b in range(len(down)) for a in gen.bits(down[b]))
    ro, e = lib.topo.boolean_completion(lib.topo.FinPoset(elems, leq))
    images = [oracles.label_mask(ro.alg.atoms, e[x].atom_labels()) for x in elems]
    return oracles.preserves_order_and_incompatibility(down, images)


def _map_item(lib, spec) -> bool:
    src, tgt, fn = spec["source"], spec["target"], spec["fn"]
    x, y = build_space(lib, src), build_space(lib, tgt)
    f = lib.topo.ContMap.from_dict(
        x, y, {p: tgt["points"][j] for p, j in zip(src["points"], fn)})
    hom = lib.topo.induced_ro_hom(f)
    src_full = (1 << len(src["points"])) - 1
    tgt_full = (1 << len(tgt["points"])) - 1

    def mask(points, label):
        return oracles.mask_of(points, oracles.parse_subset_label(label))

    if {mask(src["points"], a) for a in hom.target.atoms} != \
            oracles.regular_open_atoms(src["opens"], src_full):
        return False
    if {mask(tgt["points"], a) for a in hom.source.atoms} != \
            oracles.regular_open_atoms(tgt["opens"], tgt_full):
        return False
    image_of = dict(hom.atom_map)
    for v in hom.source.atoms:
        union = 0
        for c in hom.target.atoms:
            if image_of[c] == v:
                union |= mask(src["points"], c)
        pre = oracles.preimage(fn, mask(tgt["points"], v))
        if oracles.regularize(src["opens"], src_full, union) != pre:
            return False
    return True


def _presheaf_item(lib, spec) -> bool:
    topo = lib.topo
    pts = spec["space"]["points"]
    x = build_space(lib, spec["space"])

    def label(u):
        return topo.subset_label(frozenset(pts[i] for i in gen.bits(u)))

    sections = {label(u): secs for u, secs in spec["sections"].items()}
    restrict = {(label(v), label(u)): table for (v, u), table in spec["restrict"].items()}
    ps = lib.sheaf.Presheaf.make(topo.opens_poset(x), sections, restrict)
    sh, unit = lib.sheaf.sheafify(ps, x)
    return (set(unit.theta) == set(sections)
            and oracles.is_finite_sheaf(sh.base.elements, sh.base.leq,
                                        sh.sections, sh.restrict))


# A regular open algebra with 4 atoms takes about 9 s to build (its axiom
# check on 16 elements), a third of a run, so the two inputs that need one
# are left out: the discrete 4-point space and the 4-element antichain.
MAX_RO_ATOMS = 3


def _ro_atoms(opens, n: int) -> int:
    return len(oracles.regular_open_atoms(opens, (1 << n) - 1))


_SPACE_ITEMS = {"topology": _topology_item, "poset": _poset_item,
                "map": _map_item, "presheaf": _presheaf_item}


class Spaces(Workload):
    """Criteria 2-4 and 11 traffic: topo and the sheafification path, no
    boolean valued model at all.  An item is a batch of BATCH consecutive
    inputs of the interleaved pass."""

    name = "spaces"
    # One input takes 0.5 to 5 ms, and contention on a shared host can double
    # such short latencies in phases, so a median over single inputs jumps
    # between two modes; a batch of about 100 ms averages over them.
    BATCH = 16

    def inputs(self, seed):
        rng = random.Random(f"spaces:{seed}")
        fixed = random.Random("spaces")  # one order for the enumerated sets
        top3 = [gen.space_spec("p", 3, o) for o in gen.topologies(3)]
        # Sampled in proportion to the regular open atom count, which sets an
        # input's cost, so that every seed's pass costs about the same.
        top4 = gen.stratified_sample(
            rng, [o for o in gen.topologies(4) if _ro_atoms(o, 4) <= MAX_RO_ATOMS],
            lambda o: _ro_atoms(o, 4), 120)
        top4 = [gen.space_spec("p", 4, o) for o in top4]
        posets = [d for n in range(1, 5) for d in gen.posets(n)
                  if _ro_atoms(gen.downset_family(d), n) <= MAX_RO_ATOMS]
        small = [gen.space_spec("p", n, o) for n in (1, 2, 3) for o in gen.topologies(n)]
        maps = gen.open_maps(rng, 40, small)
        bases = [gen.space_spec("p", 2, (0, 1, 2, 3)),
                 gen.space_spec("p", 3, tuple(range(8))),
                 gen.space_spec("p", 2, (0, 2, 3))]  # discrete 2, discrete 3, Sierpinski
        # Every stalk size vector (1 or 2 values per point) on every base,
        # three seeded presheaves each.
        presheaves = [gen.presheaf_spec(rng, base, stalk)
                      for base in bases
                      for stalk in product((1, 2), repeat=len(base["points"]))
                      for _ in range(3)]
        fixed.shuffle(top3)
        fixed.shuffle(posets)
        mixed = gen.interleave([
            [("topology", s) for s in top3 + top4],
            [("poset", d) for d in posets],
            [("map", s) for s in maps],
            [("presheaf", s) for s in presheaves],
        ])
        return [[mixed[i:i + self.BATCH] for i in range(0, len(mixed), self.BATCH)]]

    def run_item(self, lib, batch):
        return all(_SPACE_ITEMS[kind](lib, spec) for kind, spec in batch)


# -- cli ----------------------------------------------------------------------

FIXTURE = "fixtures/core.json"

# The README commands, with the exit code and a line of output it documents.
CLI_COMMANDS = (
    (("validate", "M_R"), 0, "model M_R: valid"),
    (("eval", "M_R", "E x. R(x)"), 0, "a1∨a2 = 1"),
    (("quotient", "M_R", "a1"), 0, "quotient by F(a1)"),
    (("check-mixing", "MNM"), 1, "witness antichain {a1, a2}"),
    (("check-full", "M_R", "--depth", "2"), 0, "full: pass; procedures agree: True"),
    (("sheafify", "sierpinski_F"), 0, "stonean sheaf: True"),
    (("mixify", "MNM"), 0, "has mixing: True; embedding: True"),
    (("duality-check", "B8"), 0, "duality-check B8 [algebra]: pass"),
    (("adjunction-check", "MNM"), 0, "triangle identities: L True, R True"),
    (("phi-bundle", "M_R", "R(x)"), 0, "clauses agree: True"),
)


def child_env() -> dict:
    """Environment of a cli child: the checkout's sources, and bytecode
    cached inside the checkout as an installed package would have it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_cache" / "pycache")
    return env


class Cli(Workload):
    """The only path through jsonio, paying process start-up per request."""

    name = "cli"
    trace_dir: Path | None = None  # set in traced runs: children dump spans here
    yardstick_ref_s = 0.1  # about the median of this yardstick on that host

    def __init__(self):
        self.env = child_env()
        self.fixture_text = (ROOT / FIXTURE).read_text()
        self.calls = 0

    def inputs(self, seed):
        rng = random.Random(f"cli:{seed}")
        order = list(range(len(CLI_COMMANDS)))
        rng.shuffle(order)
        return [[(CLI_COMMANDS[i], self.fixture_text) for i in order]]

    def yardstick(self) -> float:
        """Start-up of a bare interpreter with the same environment: the
        part of a command the library takes no part in, which follows the
        host's speed at starting processes."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env, check=True)
        return time.perf_counter() - start

    def run_item(self, lib, item):
        (args, code, line), _ = item
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "bvmsheaf.cli"]
        else:
            self.calls += 1
            dump = self.trace_dir / f"child-{self.calls}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(dump)]
        proc = subprocess.run([*cmd, *args, "-f", FIXTURE], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode == code and line in proc.stdout


WORKLOADS = {w.name: w for w in (Models, Bridge, Spaces, Cli)}
