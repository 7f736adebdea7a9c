"""Every function and method defined in fk3hh has a use in fk3hh.

A name counts as used when src/fk3hh references it (as a name or an
attribute) or when perfbench/tracer.py wraps it by name.  Code that only the
tests call belongs in tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fk3hh"
TRACER = ROOT / "perfbench" / "tracer.py"


def traced_names():
    """The attribute names that tracer.py's patch_method and patch_function
    calls replace: their second argument."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("patch_method", "patch_function")):
            attr = node.args[1]
            assert isinstance(attr, ast.Constant), ast.dump(attr)
            names.add(attr.value)
    return names


def test_every_function_in_src_is_used():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {name: where for name, where in defined.items()
            if name not in used | traced_names()}
    assert not dead, f"defined in src/fk3hh but used nowhere there: {dead}"
