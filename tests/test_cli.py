"""The batch front door: commands, exit codes, JSON round trips."""

import json
import re

import pytest

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
    calls = {"_phi_bundle": 0, "_stone_data": 0}
    for name in calls:
        def counted(*args, _fn=getattr(bridge, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bridge, name, counted)
    code, _, _ = _run(capsys, *fx("phi-bundle", "M_R", "R(x)"))
    assert code == 0
    assert calls == {"_phi_bundle": 1, "_stone_data": 1}


def test_unknown_name_exit_two(capsys):
    code, _, err = _run(capsys, *fx("validate", "nope"))
    assert code == 2 and "unknown model" in err


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


@pytest.mark.parametrize("domain, message", [
    pytest.param("st", "array of ids", id="string"),
    pytest.param([], "nonempty domain", id="empty"),
    pytest.param(["s", "s"], "duplicate domain ids", id="duplicate-ids"),
])
def test_malformed_domain_exit_two_with_one_line(tmp_path, capsys, domain,
                                                 message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "algebras": {"B": {"atoms": ["a"]}},
        "models": {"m": {"algebra": "B", "domain": domain}}}))
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
