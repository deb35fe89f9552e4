"""The README's quick session runs and shows what its comments promise."""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from bvmsheaf.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"


def _session_values():
    """Run the README's python block; return its namespace and the value of
    each bare expression line, in order."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no python block"
    namespace, values = {}, []
    for node in ast.parse(block.group(1)).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return namespace, values


def test_readme_session():
    namespace, values = _session_values()
    label, witness, elementary = values
    assert label == "a1∨a2"
    assert witness == (("a1", "a2"), {"a1": "s", "a2": "t"})
    assert len(namespace["Mx"].domain) == 4
    assert elementary is True


def _cli_commands():
    """The README's CLI block: (argv, comment) for each command line."""
    block = re.search(r"## CLI\n.*?```\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no CLI block"
    out = []
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "bvmsheaf"
        out.append((argv[1:], comment.strip()))
    return out


def test_readme_cli_block(capsys, monkeypatch):
    """Each README command exits as its comment says (0 unless it names an
    exit code), and the eval line prints the value its comment shows."""
    monkeypatch.chdir(README.parent)
    commands = _cli_commands()
    assert len(commands) == 10
    for argv, comment in commands:
        exit_note = re.match(r"exit (\d)", comment)
        code = run(argv)
        out = capsys.readouterr().out
        assert code == (int(exit_note.group(1)) if exit_note else 0), argv
        if argv[0] == "eval":
            assert out.strip() == comment == "a1∨a2 = 1"


def _golden_runs() -> list:
    """Each README command, without and with --json, run as a fresh
    `python -m bvmsheaf.cli` process from the repository root with its src/
    on PYTHONPATH: the argv, exit code, stdout and stderr of each."""
    root = README.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = []
    for argv, _ in _cli_commands():
        for extra in ([], ["--json"]):
            done = subprocess.run(
                [sys.executable, "-m", "bvmsheaf.cli", *argv, *extra],
                cwd=root, env=env, capture_output=True, check=False)
            runs.append({"argv": argv + extra, "exit": done.returncode,
                         "stdout": done.stdout.decode(),
                         "stderr": done.stderr.decode()})
    return runs


def test_cli_output_matches_the_golden_file():
    """The twenty runs give byte for byte the stdout, stderr and exit code
    recorded in golden_cli.json; CI runs this under two hash seeds, so
    output that depends on set order fails it.  To record a deliberate
    change of output: python tests/test_readme.py (with src/ importable)."""
    runs = _golden_runs()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in runs] == [g["argv"] for g in golden]
    for run_, expected in zip(runs, golden):
        assert run_ == expected, run_["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden_runs(), indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
