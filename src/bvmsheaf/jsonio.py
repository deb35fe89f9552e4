"""JSON wire formats and the named workspace registry.

Schemas:
  algebra   {"atoms": ["a1", ...]}
  element   sorted atom-label array, e.g. ["a1", "a2"]
  hom       {"source": <algebra|name>, "target": <algebra|name>,
             "atom_map": {"target-atom": "source-atom", ...}}
  topology  {"points": [...], "opens": [[...], ...]}
  poset     {"elements": [...], "leq": [["a","b"], ...]}   (closure computed)
  model     {"algebra": <algebra|name>, "domain": [...],
             "eq": {"s,t": element, ...},        (symmetric/reflexive defaults)
             "relations": {"R": {"s,t": element, ...}},   (missing -> bottom)
             "constants": {"c": "s"}}
  presheaf  {"base": {"topology": name} | {"poset": name} | {"algebra": name},
             "sections": {"level": ["f1", ...]},
             "restrictions": {"q<=p": {"f": "g", ...}}}

A workspace file carries named registries for any of these kinds:
  {"algebras": {...}, "topologies": {...}, "posets": {...},
   "models": {...}, "presheaves": {...}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .balg import BAHom, BoolAlg, Elem
from .bvm import BVModel
from .logic import Signature
from .sheaf import Presheaf, alg_poset
from .topo import FinPoset, FinTop, opens_poset


class InputError(ValueError):
    """Malformed file or unresolved reference; maps to CLI exit code 2."""


def algebra_from_json(data) -> BoolAlg:
    try:
        return BoolAlg(tuple(data["atoms"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad algebra object: {exc}") from exc


def algebra_to_json(alg: BoolAlg) -> dict:
    return {"atoms": list(alg.atoms)}


def elem_from_json(alg: BoolAlg, data) -> Elem:
    if not isinstance(data, list):
        raise InputError(f"an element must be an atom array, got {data!r}")
    try:
        return alg.from_labels(data)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def elem_to_json(e: Elem) -> list:
    return sorted(e.atom_labels())


def hom_from_json(ws: "Workspace", data) -> BAHom:
    src = ws.resolve_algebra(data.get("source"))
    tgt = ws.resolve_algebra(data.get("target"))
    try:
        return BAHom.from_dict(src, tgt, dict(data["atom_map"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad homomorphism object: {exc}") from exc


def topology_from_json(data) -> FinTop:
    try:
        return FinTop(tuple(data["points"]),
                      frozenset(frozenset(u) for u in data["opens"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad topology object: {exc}") from exc


def poset_from_json(data) -> FinPoset:
    try:
        return FinPoset.from_pairs(tuple(data["elements"]),
                                   [tuple(p) for p in data["leq"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad poset object: {exc}") from exc


def _split_key(key: str, arity: int) -> tuple:
    parts = tuple(key.split(",")) if key else ()
    if len(parts) != arity:
        raise InputError(f"table key {key!r} does not have arity {arity}")
    return parts


def model_from_json(ws: "Workspace", data) -> BVModel:
    alg = ws.resolve_algebra(data.get("algebra"))
    try:
        domain = data["domain"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad model object: {exc}") from exc
    if not isinstance(domain, list) or not all(isinstance(e, str) for e in domain):
        raise InputError(f"a model domain must be an array of ids, got {domain!r}")
    domain = tuple(domain)
    eq = {}
    for key, val in (data.get("eq") or {}).items():
        parts = _split_key(key, 2)
        eq[parts] = elem_from_json(alg, val)
    rels = {}
    arities = {}
    for sym, table in (data.get("relations") or {}).items():
        if not table:
            raise InputError(
                f"relation {sym!r} has an empty table; its arity cannot be inferred")
        arity = len(next(iter(table)).split(","))
        arities[sym] = arity
        rels[sym] = {
            _split_key(key, arity): elem_from_json(alg, val)
            for key, val in table.items()
        }
    consts = dict(data.get("constants") or {})
    for key in eq:
        for e in key:
            if e not in domain:
                raise InputError(f"eq table mentions unknown element {e!r}")
    for sym, table in rels.items():
        for tup in table:
            for e in tup:
                if e not in domain:
                    raise InputError(
                        f"relation {sym} mentions unknown element {e!r}")
    try:
        sig = Signature.make(arities, consts.keys())
        return BVModel.make(alg, domain, eq=eq, rels=rels, consts=consts, sig=sig)
    except ValueError as exc:
        raise InputError(f"bad model object: {exc}") from exc


def model_to_json(m: BVModel) -> dict:
    return {
        "algebra": algebra_to_json(m.alg),
        "domain": list(m.domain),
        "eq": {f"{a},{b}": elem_to_json(v) for (a, b), v in sorted(m.eq.items())
               if not v.is_bottom and a <= b and (a != b or not v.is_top)},
        "relations": {
            sym: {",".join(tup): elem_to_json(v)
                  for tup, v in sorted(table.items()) if not v.is_bottom}
            or {",".join(sorted(table)[0]): []}
            for sym, table in m.rels.items()
        },
        "constants": dict(m.consts),
    }


def presheaf_from_json(ws: "Workspace", data) -> Presheaf:
    base_ref = data.get("base")
    if not isinstance(base_ref, dict) or len(base_ref) != 1:
        raise InputError('presheaf "base" must be {"topology"|"poset"|"algebra": ref}')
    kind, ref = next(iter(base_ref.items()))
    alg = None
    if kind == "topology":
        base = opens_poset(ws.resolve_topology(ref))
    elif kind == "poset":
        base = ws.resolve_poset(ref)
    elif kind == "algebra":
        alg = ws.resolve_algebra(ref)
        base = alg_poset(alg)
    else:
        raise InputError(f"unknown presheaf base kind {kind!r}")
    sections = {}
    for level, secs in (data.get("sections") or {}).items():
        if level not in base.elements:
            raise InputError(f"section level {level!r} is not in the base")
        sections[level] = tuple(secs)
    restrict = {}
    for key, table in (data.get("restrictions") or {}).items():
        if "<=" not in key:
            raise InputError(f'restriction key {key!r} is not "q<=p"')
        q, p = key.split("<=", 1)
        restrict[q, p] = dict(table)
    try:
        return Presheaf.make(base, sections, restrict, alg=alg)
    except ValueError as exc:
        raise InputError(f"bad presheaf: {exc}") from exc


@dataclass
class Workspace:
    """Named registry of loaded fixtures; cross-references resolve by name."""

    algebras: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)
    posets: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)

    def _resolve(self, registry: dict, ref, loader, what: str):
        if isinstance(ref, str):
            if ref not in registry:
                raise InputError(f"unknown {what} {ref!r}")
            return registry[ref]
        if isinstance(ref, dict):
            return loader(ref)
        raise InputError(f"bad {what} reference: {ref!r}")

    def resolve_algebra(self, ref) -> BoolAlg:
        return self._resolve(self.algebras, ref, algebra_from_json, "algebra")

    def resolve_topology(self, ref) -> FinTop:
        return self._resolve(self.topologies, ref, topology_from_json, "topology")

    def resolve_poset(self, ref) -> FinPoset:
        return self._resolve(self.posets, ref, poset_from_json, "poset")

    def model(self, name: str) -> BVModel:
        if name not in self.models:
            raise InputError(f"unknown model {name!r}")
        return self.models[name]

    def presheaf(self, name: str) -> Presheaf:
        if name not in self.presheaves:
            raise InputError(f"unknown presheaf {name!r}")
        return self.presheaves[name]


def load_workspace(paths) -> Workspace:
    ws = Workspace()
    raw_models, raw_presheaves = {}, {}
    for path in paths:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"{path}: workspace file must be a JSON object")
        for kind, registry in (("algebras", ws.algebras),
                               ("topologies", ws.topologies),
                               ("posets", ws.posets)):
            for name, obj in (data.get(kind) or {}).items():
                if name in registry:
                    raise InputError(f"duplicate {kind} name {name!r}")
                loader = {"algebras": algebra_from_json,
                          "topologies": topology_from_json,
                          "posets": poset_from_json}[kind]
                registry[name] = loader(obj)
        for name, obj in (data.get("models") or {}).items():
            if name in raw_models:
                raise InputError(f"duplicate model name {name!r}")
            raw_models[name] = obj
        for name, obj in (data.get("presheaves") or {}).items():
            if name in raw_presheaves:
                raise InputError(f"duplicate presheaf name {name!r}")
            raw_presheaves[name] = obj
    for name, obj in raw_models.items():
        ws.models[name] = model_from_json(ws, obj)
    for name, obj in raw_presheaves.items():
        ws.presheaves[name] = presheaf_from_json(ws, obj)
    return ws
