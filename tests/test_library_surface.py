"""Every public function and class of ``src/dqwalk`` is used by the package.

A name that only the tests call is an oracle in the library's clothing: it
tends to reuse the production code it is meant to check.  Each public
top-level function or class must be referenced in ``src/dqwalk`` outside
its own definition, as a name, an attribute or a string constant (as in
``cli.SCALAR_OBSERVABLES`` and ``__all__``), or be listed below with its
reason.
"""

import ast
from pathlib import Path

import dqwalk

SRC = Path(dqwalk.__file__).resolve().parent

ALLOWED = {
    "core.density_element": "the elementwise series oracle of the ring in the "
                            "tests, and the density-matrix element README lists",
    "wigner.min_wigner_over_time": "kept until r_D^c becomes the global "
                                   "threshold over all times",
}


def _references(node):
    """Names, attributes and string constants anywhere in ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found.add(child.value)
    return found


def unused_public_names():
    """``module.name`` of each public top-level function or class that no
    other top-level statement of the package references."""
    statements = [(path.stem, node, _references(node))
                  for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body]
    return sorted(
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in refs for _, other, refs in statements if other is not node)
    )


def test_every_public_name_is_used_by_the_package():
    assert unused_public_names() == sorted(ALLOWED)
