"""Every name the package exports is used outside its own definition.

A use is a reference in a package module other than ``__init__``, in a
benchmark script, or in the README; tests do not count.  An export with no
such use is API that nothing calls, and should be deleted with its tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kirchhoff_spectral"
# the plain Sobolev norm is the r = 0 reference that gevrey_norm must equal
# exactly; it is kept for readers and tests although no module calls it
KEPT_UNUSED = {"sobolev_norm"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names(path):
    """Names and attributes a module reads; a def or class line is not a read."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_export_has_a_use():
    scripts = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    scripts += (ROOT / "benchmarks").glob("*.py")
    used = set().union(*map(referenced_names, scripts))
    # the README's code blocks and inline code, not its prose
    readme = (ROOT / "README.md").read_text()
    readme = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    unused = {name for name in exported_names() - used
              if not re.search(rf"\b{name}\b", readme)}
    assert sorted(unused - KEPT_UNUSED) == []
