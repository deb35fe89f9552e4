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

from .balg import BAHom, BoolAlg, Elem
from .bvm import BVModel
from .logic import Signature
from .record import Record, field
from .sheaf import Presheaf, alg_poset
from .topo import FinPoset, FinTop, opens_poset


class InputError(ValueError):
    """Malformed file or unresolved reference; maps to CLI exit code 2."""


def _object(data, what: str) -> dict:
    if data is not None and not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {data!r}")
    return data or {}


def _ids(data, what: str) -> tuple:
    if not isinstance(data, list) or not all(isinstance(e, str) for e in data):
        raise InputError(f"{what} must be an array of ids, got {data!r}")
    return tuple(data)


def algebra_from_json(data) -> BoolAlg:
    try:
        return BoolAlg(_ids(data["atoms"], "algebra atoms"))
    except (KeyError, TypeError, ValueError) as exc:
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
        return FinTop(_ids(data["points"], "topology points"), frozenset(
            frozenset(_ids(u, "an open")) for u in data["opens"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad topology object: {exc}") from exc


def poset_from_json(data) -> FinPoset:
    try:
        return FinPoset.from_pairs(_ids(data["elements"], "poset elements"),
                                   [_ids(p, "a leq pair") for p in data["leq"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad poset object: {exc}") from exc


def _split_key(key: str, arity: int) -> tuple:
    parts = tuple(key.split(",")) if key else ()
    if len(parts) != arity:
        raise InputError(f"table key {key!r} does not have arity {arity}")
    return parts


def model_from_json(ws: "Workspace", data) -> BVModel:
    alg = ws.resolve_algebra(_object(data, "a model").get("algebra"))
    try:
        domain = _ids(data["domain"], "a model domain")
    except KeyError as exc:
        raise InputError(f"bad model object: {exc}") from exc
    eq = {}
    for key, val in _object(data.get("eq"), "an eq table").items():
        parts = _split_key(key, 2)
        eq[parts] = elem_from_json(alg, val)
    rels = {}
    arities = {}
    for sym, table in _object(data.get("relations"), "relations").items():
        if not _object(table, f"relation {sym!r}"):
            raise InputError(
                f"relation {sym!r} has an empty table; its arity cannot be inferred")
        arity = len(next(iter(table)).split(","))
        arities[sym] = arity
        rels[sym] = {
            _split_key(key, arity): elem_from_json(alg, val)
            for key, val in table.items()
        }
    consts = dict(_object(data.get("constants"), "constants"))
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
    base_ref = _object(data, "a presheaf").get("base")
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
    for level, secs in _object(data.get("sections"), "sections").items():
        if level not in base.elements:
            raise InputError(f"section level {level!r} is not in the base")
        sections[level] = _ids(secs, f"the sections at {level}")
    restrict = {}
    for key, table in _object(data.get("restrictions"), "restrictions").items():
        if "<=" not in key:
            raise InputError(f'restriction key {key!r} is not "q<=p"')
        q, p = key.split("<=", 1)
        restrict[q, p] = dict(_object(table, f"restriction {key}"))
    try:
        return Presheaf.make(base, sections, restrict, alg=alg)
    except ValueError as exc:
        raise InputError(f"bad presheaf: {exc}") from exc


class Workspace(Record, frozen=False):
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
            for name, obj in _object(data.get(kind), f'"{kind}"').items():
                if name in registry:
                    raise InputError(f"duplicate {kind} name {name!r}")
                loader = {"algebras": algebra_from_json,
                          "topologies": topology_from_json,
                          "posets": poset_from_json}[kind]
                registry[name] = loader(obj)
        for name, obj in _object(data.get("models"), '"models"').items():
            if name in raw_models:
                raise InputError(f"duplicate model name {name!r}")
            raw_models[name] = obj
        for name, obj in _object(data.get("presheaves"), '"presheaves"').items():
            if name in raw_presheaves:
                raise InputError(f"duplicate presheaf name {name!r}")
            raw_presheaves[name] = obj
    for name, obj in raw_models.items():
        ws.models[name] = model_from_json(ws, obj)
    for name, obj in raw_presheaves.items():
        ws.presheaves[name] = presheaf_from_json(ws, obj)
    return ws
