"""Each demo script runs to completion against the package in ``src/``, and
the README's Python examples compile and import only names that exist."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# each fenced ``python`` block of the README, by the line its code starts on
README_BLOCKS = {
    README.count("\n", 0, match.start(1)) + 1: match.group(1)
    for match in re.finditer(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("line", list(README_BLOCKS), ids=[f"README.md:{n}" for n in README_BLOCKS])
def test_readme_example_compiles_and_its_imports_resolve(line):
    code = compile(README_BLOCKS[line], f"README.md:{line}", "exec", ast.PyCF_ONLY_AST)
    missing = []
    for node in ast.walk(code):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "disctag":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names if not hasattr(module, alias.name)]
    assert missing == []
