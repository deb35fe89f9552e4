"""The README's quick session runs and shows what its comments promise."""

import ast
import re
from pathlib import Path

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
