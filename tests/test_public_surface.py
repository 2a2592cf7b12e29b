"""The package's public names and the README's library quickstart."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import conformal_hdc

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["conformal_hdc"] + [
    f"conformal_hdc.{m.name}" for m in pkgutil.iter_modules(conformal_hdc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale export of a deleted name would fail only on ``import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name} exports names it does not define: {missing}"


def test_readme_quickstart_prints_what_its_comments_state():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quickstart (library)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # the value a comment states is the text before any "->" gloss
    stated = [
        re.search(r"#\s*(.*?)\s*(->.*)?$", line).group(1)
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert stated == ["[0]", "0", "[1]", "[1 0]"]
    assert out.getvalue().splitlines() == stated
