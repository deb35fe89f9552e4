"""Batch front door: load JSON fixtures, run checks, emit reports.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
carries the witness), 2 input error (unknown name, malformed file, grammar
error).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import balg, bridge, bvm, sheaf, topo
from .jsonio import (InputError, Workspace, elem_to_json, load_workspace,
                     model_to_json)
from .logic import ParseError, free_vars, parse, print_formula


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-f", "--file", action="append", default=[],
                        help="workspace JSON file (repeatable)")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")
    common.add_argument("--depth", type=int, default=2,
                        help="quantifier depth for formula suites (default 2)")
    common.add_argument("--max-antichain", type=int, default=None,
                        help="cap the antichain size searched by mixing checks")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvmsheaf",
        description="boolean valued models, Stone duality, stonean sheaves")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common()

    def cmd(name, *args, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        for a in args:
            p.add_argument(a)
        return p

    cmd("validate", "model", help="check the model axioms")
    cmd("eval", "model", "formula", help="boolean value of a closed formula")
    cmd("quotient", "model", "filter_elem",
        help="quotient by the filter generated by the element (atoms comma-joined, or 1)")
    cmd("check-mixing", "model", help="antichain mixing search")
    cmd("check-full", "model", help="Los / witness-cover fullness procedures")
    cmd("sheafify", "presheaf", help="stonean sheafification of a topological presheaf")
    cmd("mixify", "model", help="canonical mixing extension R.Gamma1.Lambda1.L")
    cmd("duality-check", "name", help="Stone duality round trips for an algebra or topology")
    cmd("adjunction-check", "model", help="triangle identities for L -| R at the model")
    cmd("phi-bundle", "model", "formula", help="the etale bundle E^phi and fullness clauses")
    return parser


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _value_str(e) -> str:
    if e.is_top:
        return f"{e.label} = 1"
    return e.label


def _parse_filter_elem(m, text: str):
    if text.strip() == "1":
        return m.alg.top
    try:
        return m.alg.from_labels(x.strip() for x in text.split(","))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_options(args) -> None:
    if args.depth < 0:
        raise InputError(f"--depth must be at least 0, got {args.depth}")
    if args.max_antichain is not None and args.max_antichain < 1:
        raise InputError(
            f"--max-antichain must be at least 1, got {args.max_antichain}")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        ws = load_workspace(args.file)
        return _dispatch(args, ws)
    except (InputError, bvm.ModelError) as exc:
        # every model comes from the input, so a ModelError (a free variable
        # or an unknown constant in a formula argument) is an input error
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return 2


def _valid_model(ws: Workspace, name: str):
    """The named model, rejected as input unless it satisfies the axioms
    that the model commands (L first of all) assume."""
    m = ws.model(name)
    rep = bvm.validate(m)
    if not rep.ok:
        raise InputError(f"model {name!r} is invalid: {rep.violations[0]}")
    return m


def _dispatch(args, ws: Workspace) -> int:
    cmd = args.command

    if cmd == "validate":
        m = ws.model(args.model)  # the one model command that takes any model
        rep = bvm.validate(m)
        _emit({"ok": rep.ok, "extensional": rep.extensional,
               "violations": list(rep.violations)},
              args.as_json,
              [f"model {args.model}: {'valid' if rep.ok else 'INVALID'}"
               + (f", extensional" if rep.extensional else "")]
              + [f"  violation: {v}" for v in rep.violations])
        return 0 if rep.ok else 1

    if cmd == "eval":
        m = _valid_model(ws, args.model)
        f = parse(m.sig, args.formula)
        val = bvm.eval_formula(m, f)
        _emit({"formula": print_formula(f), "value": elem_to_json(val),
               "is_top": val.is_top, "is_bottom": val.is_bottom},
              args.as_json, [_value_str(val)])
        return 0

    if cmd == "quotient":
        m = _valid_model(ws, args.model)
        gen = _parse_filter_elem(m, args.filter_elem)
        if gen.is_bottom:
            raise InputError("a filter generator must be nonzero")
        q = bvm.quotient_model(m, balg.Filter(m.alg, gen))
        rep = bvm.validate(q)
        _emit({"model": model_to_json(q), "valid": rep.ok},
              args.as_json,
              [f"quotient by F({gen.label}): algebra atoms "
               f"{list(q.alg.atoms)}, domain {list(q.domain)}",
               f"valid: {rep.ok}"])
        return 0 if rep.ok else 1

    if cmd == "check-mixing":
        m = _valid_model(ws, args.model)
        rep = bvm.has_mixing(m, args.max_antichain)
        out = {"passed": rep.passed, "antichains_checked": rep.antichains_checked}
        lines = [f"mixing: {'pass' if rep.passed else 'FAIL'} "
                 f"({rep.antichains_checked} antichains checked)"]
        if rep.witness:
            chain, assign = rep.witness
            out["witness"] = {"antichain": list(chain), "assignment": assign}
            lines.append(f"  witness antichain {{{', '.join(chain)}}} "
                         f"with assignment {assign}")
        _emit(out, args.as_json, lines)
        return 0 if rep.passed else 1

    if cmd == "check-full":
        m = _valid_model(ws, args.model)
        rep = bvm.is_full(m, args.depth)
        out = {"full": rep.full, "procedures_agree": rep.procedures_agree,
               "formulas_checked": rep.formulas_checked,
               "witness_covers": [
                   {"formula": print_formula(f), "cover": list(c or ())}
                   for f, c in rep.witness_covers[:20]
               ]}
        lines = [f"full: {'pass' if rep.full else 'FAIL'}; procedures agree: "
                 f"{rep.procedures_agree}; {rep.formulas_checked} formulas"]
        lines += [f"  mismatch at {g}: {print_formula(f)}"
                  for g, f in rep.los_mismatches[:5]]
        _emit(out, args.as_json, lines)
        return 0 if rep.full and rep.procedures_agree else 1

    if cmd == "sheafify":
        ps = ws.presheaf(args.presheaf)
        x = _topology_of_presheaf(ws, args.presheaf)
        try:
            sh, unit = sheaf.sheafify(ps, x)
        except sheaf.SheafError as exc:  # an empty stalk: no dense image
            raise InputError(
                f"cannot sheafify presheaf {args.presheaf!r}: {exc}") from exc
        stonean = sheaf.is_stonean_sheaf(sh)
        out = {"levels": {p: list(sh.sections[p]) for p in sh.base.elements},
               "unit": {lev: dict(mapping) for lev, mapping in unit.theta.items()},
               "is_stonean_sheaf": stonean.passed}
        lines = [f"sheafified presheaf on {len(sh.base.elements)} levels; "
                 f"stonean sheaf: {stonean.passed}"]
        lines += [f"  {p}: {len(sh.sections[p])} sections"
                  for p in sh.base.elements]
        _emit(out, args.as_json, lines)
        return 0 if stonean.passed else 1

    if cmd == "mixify":
        m = _valid_model(ws, args.model)
        mx, emb = bridge.mixify(m)
        mix = bvm.has_mixing(mx, args.max_antichain)
        mor = bvm.check_morphism(emb)
        elem = bvm.is_elementary(emb, args.depth)
        out = {"model": model_to_json(mx), "has_mixing": mix.passed,
               "embedding": mor.is_embedding, "elementary": elem}
        lines = [f"mixified model: {len(mx.domain)} elements over "
                 f"{mx.alg.atom_count} atoms",
                 f"has mixing: {mix.passed}; embedding: {mor.is_embedding}; "
                 f"elementary to depth {args.depth}: {elem}"]
        _emit(out, args.as_json, lines)
        return 0 if mix.passed and mor.is_embedding and elem else 1

    if cmd == "duality-check":
        return _duality_check(args, ws)

    if cmd == "adjunction-check":
        m = _valid_model(ws, args.model)
        aw = bridge.adjunction_witness(m)
        ok = aw.triangle_l_ok and aw.triangle_r_ok
        out = {"triangle_L": aw.triangle_l_ok, "triangle_R": aw.triangle_r_ok,
               "unit_is_iso": aw.unit_is_iso, "counit_is_iso": aw.counit_is_iso}
        _emit(out, args.as_json,
              [f"triangle identities: L {aw.triangle_l_ok}, R {aw.triangle_r_ok}",
               f"unit iso: {aw.unit_is_iso} (extensional: {m.is_extensional}); "
               f"counit iso: {aw.counit_is_iso}"])
        return 0 if ok else 1

    if cmd == "phi-bundle":
        m = _valid_model(ws, args.model)
        f = parse(m.sig, args.formula)
        if not free_vars(f):
            raise InputError("phi-bundle needs a formula with free variables")
        pb = bridge.phi_bundle(m, f)
        clauses = pb.clauses(bvm.has_mixing(m, args.max_antichain).passed)
        sections = bridge.global_sections_of_bundle(pb)
        out = {"b_phi": elem_to_json(pb.b_phi),
               "A_phi": sorted(pb.a_phi), "N_b_phi": sorted(pb.n_b_phi),
               "stalks": {pt: [list(c) for c in st]
                          for pt, st in pb.stalks.items()},
               "global_sections": len(sections),
               "clauses": {"finite_cover": clauses.finite_cover,
                           "A_phi_full": clauses.a_phi_full,
                           "A_phi_closed": clauses.a_phi_closed,
                           "has_global_section": clauses.has_global_section,
                           "product_section": clauses.product_section},
               "clauses_agree": clauses.agree}
        lines = [f"b_phi = {_value_str(pb.b_phi)}",
                 f"A_phi = {{{', '.join(sorted(pb.a_phi))}}} on "
                 f"N_b_phi = {{{', '.join(sorted(pb.n_b_phi))}}}",
                 f"stalk sizes: { {pt: len(st) for pt, st in sorted(pb.stalks.items())} }",
                 f"global sections: {len(sections)}",
                 f"clauses agree: {clauses.agree}"]
        _emit(out, args.as_json, lines)
        return 0 if clauses.agree else 1


def _topology_of_presheaf(ws: Workspace, name: str):
    """Recover the base topology for a named topological presheaf."""
    ps = ws.presheaf(name)
    for x in ws.topologies.values():
        po = topo.opens_poset(x)
        if po.elements == ps.base.elements and po.leq == ps.base.leq:
            return x
    raise InputError(
        f"presheaf {name!r} is not based on a loaded topology; "
        f"sheafify needs a topological presheaf")


def _duality_check(args, ws: Workspace) -> int:
    name = args.name
    failures = []
    if name in ws.algebras:
        alg = ws.algebras[name]
        st = balg.stone_space(alg)
        uf = balg.ultrafilters(alg)
        if len(uf) != alg.atom_count:
            failures.append("ultrafilter count != atom count")
        elems = list(alg.elements())
        clopens = {st.clopen(e) for e in elems}
        if len(clopens) != len(elems):
            failures.append("clopen map not injective")
        if clopens != set(st.space.opens):
            failures.append("clopen map not onto CLOP(St(B))")
        for a in elems:
            for b in elems:
                if st.clopen(a & b) != st.clopen(a) & st.clopen(b):
                    failures.append(f"meet not preserved at {a.label},{b.label}")
                if st.clopen(a | b) != st.clopen(a) | st.clopen(b):
                    failures.append(f"join not preserved at {a.label},{b.label}")
        if not topo.is_extremally_disconnected(st.space):
            failures.append("Stone space of a finite algebra must be ED")
        kind = "algebra"
    elif name in ws.topologies:
        x = ws.topologies[name]
        ro = topo.ro_algebra(x)
        ed = topo.is_extremally_disconnected(x)
        clop = topo.clop_algebra(x)
        if ed and set(clop.atom_subsets.values()) != set(ro.atom_subsets.values()):
            failures.append("ED space where CLOP and RO atoms differ")
        st = balg.stone_space(ro.alg)
        if len(st.space.points) != ro.alg.atom_count:
            failures.append("St(RO(X)) point count mismatch")
        kind = f"topology (extremally disconnected: {ed})"
    else:
        raise InputError(f"unknown algebra or topology {name!r}")
    _emit({"ok": not failures, "failures": failures},
          args.as_json,
          [f"duality-check {name} [{kind}]: {'pass' if not failures else 'FAIL'}"]
          + [f"  {f}" for f in failures])
    return 0 if not failures else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
