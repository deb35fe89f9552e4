"""The batch front door: commands, exit codes, JSON round trips."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bvmsheaf
from bvmsheaf.cli import run
from bvmsheaf.jsonio import (InputError, load_workspace, model_from_json,
                             model_to_json)

FIXTURES = ["fixtures/core.json"]


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _runj(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None, err


def fx(*argv):
    return list(argv) + ["-f", FIXTURES[0]]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: no site hook can load either module before the package does
    probe = ("import sys, bvmsheaf.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(bvmsheaf.__file__).parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_validate_ok_and_exit_zero(capsys):
    code, out, _ = _run(capsys, *fx("validate", "M_R"))
    assert code == 0 and "valid" in out


def test_validate_violation_exit_one(tmp_path, capsys):
    bad = {
        "algebras": {"B4": {"atoms": ["a1", "a2"]}},
        "models": {"bad": {
            "algebra": "B4", "domain": ["s", "t"],
            "eq": {"s,s": ["a1"]}, "relations": {}}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = _run(capsys, "validate", "bad", "-f", str(path))
    assert code == 1
    assert "reflexivity" in out and "s" in out


def test_eval_prints_join_form(capsys):
    code, out, _ = _run(capsys, *fx("eval", "M_R", "E x. R(x)"))
    assert code == 0
    assert out.strip() == "a1∨a2 = 1"


def test_eval_json_roundtrip(capsys):
    code, data, _ = _runj(capsys, *fx("eval", "M_R", "R(c_s)"))
    assert code == 0
    assert data["value"] == ["a1"] and data["is_top"] is False


def test_check_mixing_witness_and_exit(capsys):
    code, out, _ = _run(capsys, *fx("check-mixing", "MNM"))
    assert code == 1
    assert "a1" in out and "a2" in out
    code, data, _ = _runj(capsys, *fx("check-mixing", "MNM"))
    assert code == 1
    assert set(data["witness"]["antichain"]) == {"a1", "a2"}


def test_check_full_pass(capsys):
    code, out, _ = _run(capsys, *fx("check-full", "MNM", "--depth", "2"))
    assert code == 0 and "pass" in out


def test_quotient_json_roundtrips_through_schema(tmp_path, capsys):
    code, data, _ = _runj(capsys, *fx("quotient", "M_R", "a1"))
    assert code == 0
    ws = load_workspace(FIXTURES)
    rebuilt = model_from_json(ws, data["model"])
    assert rebuilt.alg.atoms == ("a1",)
    assert model_to_json(rebuilt) == data["model"]


def test_mixify_json_roundtrips(capsys):
    code, data, _ = _runj(capsys, *fx("mixify", "MNM"))
    assert code == 0
    assert data["has_mixing"] and data["embedding"] and data["elementary"]
    ws = load_workspace(FIXTURES)
    rebuilt = model_from_json(ws, data["model"])
    assert len(rebuilt.domain) == 4
    assert model_to_json(rebuilt) == data["model"]


def test_sheafify_command(capsys):
    code, out, _ = _run(capsys, *fx("sheafify", "sierpinski_F"))
    assert code == 0
    assert "stonean sheaf: True" in out


def test_duality_check_algebra_and_topology(capsys):
    for name in ("B2", "B4", "B8", "sierpinski", "discrete2"):
        code, out, _ = _run(capsys, *fx("duality-check", name))
        assert code == 0, out


def test_adjunction_check(capsys):
    code, out, _ = _run(capsys, *fx("adjunction-check", "MNM"))
    assert code == 0
    assert "L True" in out and "R True" in out


def test_phi_bundle_command(capsys):
    code, data, _ = _runj(capsys, *fx("phi-bundle", "M_R", "R(x)"))
    assert code == 0
    assert data["b_phi"] == ["a1", "a2"]
    assert data["global_sections"] == 1
    assert data["clauses_agree"] is True


def test_phi_bundle_command_builds_one_bundle(capsys, monkeypatch):
    from bvmsheaf import bridge
    calls = []

    def counted(*args, _fn=bridge.phi_bundle):
        calls.append(args)
        return _fn(*args)
    monkeypatch.setattr(bridge, "phi_bundle", counted)
    code, _, _ = _run(capsys, *fx("phi-bundle", "M_R", "R(x)"))
    assert code == 0
    assert len(calls) == 1


def test_unknown_name_exit_two(capsys):
    code, _, err = _run(capsys, *fx("validate", "nope"))
    assert code == 2 and "unknown model" in err


def test_unknown_command_exits_two_before_dispatch(capsys):
    # argparse's required subcommand rejects it; _dispatch never sees it
    with pytest.raises(SystemExit) as exc:
        run(["nosuch"])
    assert exc.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def _space_ws(points, opens):
    return {"topologies": {"T": {"points": points, "opens": opens}}}


def _poset_ws(elements, leq):
    return {"posets": {"P": {"elements": elements, "leq": leq}}}


@pytest.mark.parametrize("workspace, message", [
    # {a} and {b} are open, their union {a,b} is not
    pytest.param(_space_ws(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]]),
                 "bad topology object: opens not closed under union and "
                 "intersection: {a,b} missing", id="union-missing"),
    pytest.param(_space_ws([1, 2], [[], [1], [1, 2]]),
                 "bad topology object: topology points must be an array of "
                 "ids, got [1, 2]", id="number-points"),
    pytest.param(_space_ws("pq", [[], "pq"]),
                 "bad topology object: topology points must be an array of "
                 "ids, got 'pq'", id="string-points"),
    pytest.param(_space_ws(["p", "q"], [[], "pq"]),
                 "bad topology object: an open must be an array of ids, "
                 "got 'pq'", id="string-open"),
    pytest.param(_poset_ws("ab", []),
                 "bad poset object: poset elements must be an array of ids, "
                 "got 'ab'", id="string-elements"),
    pytest.param(_poset_ws(["a", "b"], ["ab"]),
                 "bad poset object: a leq pair must be an array of ids, "
                 "got 'ab'", id="string-pair"),
])
def test_malformed_topology_exit_two_with_one_line(tmp_path, capsys,
                                                   workspace, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(workspace))
    with pytest.raises(InputError, match=re.escape(message)):
        load_workspace([str(path)])
    code, out, err = _run(capsys, "duality-check", "T", "-f", str(path))
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def test_grammar_error_exit_two_with_position(capsys):
    code, _, err = _run(capsys, *fx("eval", "M_R", "R(x"))
    assert code == 2 and "position" in err


@pytest.mark.parametrize("argv, message", [
    (("eval", "M_R", "R(x)"), "free variable 'x'"),
    (("eval", "M_R", "R(c_zz)"), "unknown constant 'c_zz'"),
    (("check-mixing", "MNM", "--max-antichain", "0"), "--max-antichain"),
    (("check-full", "M_R", "--depth", "-3"), "--depth"),
])
def test_bad_arguments_exit_two_with_one_line(capsys, argv, message):
    code, out, err = _run(capsys, *fx(*argv))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and message in err
    assert err.count("\n") == 1


def _model_ws(**model):
    return {"models": {"m": {"algebra": "B", **model}}}


@pytest.mark.parametrize("workspace, message", [
    pytest.param(_model_ws(domain="st"), "array of ids", id="string"),
    pytest.param(_model_ws(domain=[]), "nonempty domain", id="empty"),
    pytest.param(_model_ws(domain=["s", "s"]), "duplicate domain ids",
                 id="duplicate-ids"),
    pytest.param({"models": {"m": ["x"]}}, "a model must be a JSON object",
                 id="model-array"),
    pytest.param({"algebras": ["B"]}, '"algebras" must be a JSON object',
                 id="algebras-array"),
    pytest.param(_model_ws(domain=["s"], eq=[["s"]]),
                 "an eq table must be a JSON object", id="eq-array"),
    pytest.param(_model_ws(domain=["s"], relations=[]),
                 "relations must be a JSON object", id="empty-relations-array"),
    pytest.param({"algebras": {"B": {"atoms": [1, 2]}}},
                 "algebra atoms must be an array of ids", id="atoms-not-ids"),
])
def test_malformed_domain_exit_two_with_one_line(tmp_path, capsys, workspace,
                                                 message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"algebras": {"B": {"atoms": ["a"]}},
                                **workspace}))
    with pytest.raises(InputError, match=message):
        load_workspace([str(path)])
    code, out, err = _run(capsys, "validate", "m", "-f", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("sections, restrictions, message", [
    pytest.param({"{0,1}": ["s", "s"], "{1}": ["t"]},
                 {"{1}<={0,1}": {"s": "t"}},
                 "duplicate section ids at level {0,1}", id="duplicate-ids"),
    pytest.param({"{0,1}": ["s"], "{1}": ["t"]},
                 {"{1}<={0,1}": {"s": "t"}, "{0,1}<={1}": {"t": "s"}},
                 "{0,1} <= {1} is not a pair", id="reversed-key"),
    pytest.param({"{0,1}": ["s"], "{1}": ["t"]},
                 {"{1}<={0,1}": {"s": "t"}, "{9}<={1}": {"t": "t"}},
                 "{9} <= {1} is not a pair", id="foreign-level"),
    pytest.param({"{0,1}": ["s"], "{1}": ["t"]},
                 {"{1}<={0,1}": {"s": "t", "junk": "zz"}},
                 "{1} <= {0,1} defined on a non-section",
                 id="key-off-sections"),
    pytest.param({"{0,1}": 5, "{1}": ["t"]}, {},
                 "the sections at {0,1} must be an array of ids",
                 id="sections-number"),
    pytest.param({"{0,1}": [["x"]], "{1}": ["t"]}, {},
                 "the sections at {0,1} must be an array of ids",
                 id="sections-unhashable"),
])
def test_malformed_presheaf_exit_two_with_one_line(tmp_path, capsys, sections,
                                                   restrictions, message):
    path = tmp_path / "ps.json"
    path.write_text(json.dumps({
        "topologies": {"sier": {"points": ["0", "1"],
                                "opens": [[], ["1"], ["0", "1"]]}},
        "presheaves": {"F": {"base": {"topology": "sier"},
                             "sections": sections,
                             "restrictions": restrictions}}}))
    with pytest.raises(InputError, match=re.escape(message)):
        load_workspace([str(path)])
    code, out, err = _run(capsys, "sheafify", "F", "-f", str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and message in err
    assert err.count("\n") == 1


# [s=t] = [t=u] = 1 but [s=u] = 0: equality is not transitive
NON_TRANSITIVE = {
    "algebras": {"B": {"atoms": ["a1", "a2"]}},
    "models": {"M": {"algebra": "B", "domain": ["s", "t", "u"],
                     "eq": {"s,t": ["a1", "a2"], "t,u": ["a1", "a2"]},
                     "relations": {"R": {"s": ["a1"]}}}}}


@pytest.mark.parametrize("argv", [
    ("eval", "M", "E x. R(x)"), ("quotient", "M", "a1"),
    ("check-mixing", "M"), ("check-full", "M"), ("mixify", "M"),
    ("adjunction-check", "M"), ("phi-bundle", "M", "R(x)"), ("validate", "M"),
], ids=lambda argv: argv[0])
def test_invalid_model_is_an_input_error_except_to_validate(tmp_path, capsys,
                                                            argv):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(NON_TRANSITIVE))
    code, out, err = _run(capsys, *argv, "-f", str(path))
    if argv[0] == "validate":
        assert code == 1 and err == ""
        assert "violation: transitivity fails at (s,t,u)" in out
        return
    assert code == 2 and out == ""
    assert err == ("input error: model 'M' is invalid: "
                   "transitivity fails at (s,t,u)\n")


def test_malformed_file_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "validate", "x", "-f", str(path))
    assert code == 2 and "invalid JSON" in err


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"algebras": {"B4": {"atoms": ["a1"]}}}))
    with pytest.raises(InputError):
        load_workspace([FIXTURES[0], str(path), str(path)])


def test_empty_relation_table_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "algebras": {"B": {"atoms": ["a"]}},
        "models": {"m": {"algebra": "B", "domain": ["s"],
                         "relations": {"R": {}}}}}))
    with pytest.raises(InputError):
        load_workspace([str(path)])


def test_workspace_model_defaults():
    ws = load_workspace(FIXTURES)
    m = ws.model("MNM")
    assert m.eq["s", "t"].is_bottom and m.eq["t", "s"].is_bottom
    assert m.eq["s", "s"].is_top
    mr = ws.model("M_R")
    assert mr.rels["R"][("s",)].atom_labels() == ("a1",)


def test_deterministic_output(capsys):
    a = _run(capsys, *fx("check-full", "M_R"))
    b = _run(capsys, *fx("check-full", "M_R"))
    assert a == b


def test_hom_json_schema():
    from bvmsheaf.jsonio import hom_from_json
    ws = load_workspace(FIXTURES)
    hom = hom_from_json(ws, {
        "source": "B4", "target": "B8",
        "atom_map": {"a1": "a1", "a2": "a1", "a3": "a2"}})
    assert hom.source.atom_count == 2 and hom.target.atom_count == 3
    b8 = ws.resolve_algebra("B8")
    assert hom.left_adjoint(b8.from_labels(["a1", "a2"])).label == "a1"
    with pytest.raises(InputError):
        hom_from_json(ws, {"source": "B4", "target": "B8", "atom_map": {}})


def test_algebra_based_presheaf_from_json(tmp_path):
    path = tmp_path / "ps.json"
    path.write_text(json.dumps({
        "algebras": {"B4": {"atoms": ["a1", "a2"]}},
        "presheaves": {"F": {
            "base": {"algebra": "B4"},
            "sections": {"a1": ["x"], "a2": ["y"],
                          "a1\u2228a2": ["f", "g"]},
            "restrictions": {
                "a1<=a1\u2228a2": {"f": "x", "g": "x"},
                "a2<=a1\u2228a2": {"f": "y", "g": "y"}}}}}))
    ws = load_workspace([str(path)])
    ps = ws.presheaf("F")
    assert ps.alg is not None and ps.alg.atom_count == 2
    from bvmsheaf.bridge import R
    from bvmsheaf.sheaf import NotSeparatedError
    with pytest.raises(NotSeparatedError):
        R(ps)  # f and g agree on the dense covering {a1, a2}


def test_sheafify_empty_level_exit_two_with_one_line(tmp_path, capsys):
    # a well-formed presheaf whose empty level leaves a stalk of Lambda1
    # empty, so the projection image is not dense and there is no Gamma1
    path = tmp_path / "ps.json"
    path.write_text(json.dumps({
        "topologies": {"sier": {"points": ["0", "1"],
                                "opens": [[], ["1"], ["0", "1"]]}},
        "presheaves": {"F": {"base": {"topology": "sier"},
                             "sections": {"{0,1}": [], "{1}": []},
                             "restrictions": {"{1}<={0,1}": {}}}}}))
    code, out, err = _run(capsys, "sheafify", "F", "-f", str(path))
    assert code == 2 and out == ""
    assert err == ("input error: cannot sheafify presheaf 'F': projection "
                   "image is not dense in the base\n")


def test_sheafify_rejects_non_topological_presheaf(tmp_path, capsys):
    path = tmp_path / "ps.json"
    path.write_text(json.dumps({
        "algebras": {"B2": {"atoms": ["a1"]}},
        "presheaves": {"F": {
            "base": {"algebra": "B2"},
            "sections": {"a1": ["x"]},
            "restrictions": {}}}}))
    code = run(["sheafify", "F", "-f", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "topological" in err
