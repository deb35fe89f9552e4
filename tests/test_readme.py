"""The README's quick session runs and shows what its comments promise."""

import ast
import re
import shlex
from pathlib import Path

from bvmsheaf.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


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
