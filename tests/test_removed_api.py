"""The one-field wrappers README lists as removed from the public API stay
removed: the README still names each, and neither `mvcode` nor any
`mvcode.*` module defines it."""

import importlib
from pathlib import Path

import pytest

import mvcode

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(f"mvcode.{path.stem}" for path in (ROOT / "src" / "mvcode").glob("*.py")
                 if path.name != "__init__.py")
REMOVED = ["Allocation", "MdsSpec", "Granularity", "ServerStore", "OracleBudget"]


def removed_paragraph() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("Removed from the public API")
    return text[start:text.index("\n\n", start)]


@pytest.mark.parametrize("name", REMOVED)
def test_readme_lists_it_as_removed(name):
    assert f"`{name}`" in removed_paragraph()


@pytest.mark.parametrize("name", REMOVED)
def test_no_module_defines_it(name):
    with pytest.raises(AttributeError):
        getattr(mvcode, name)
    assert [module for module in MODULES
            if hasattr(importlib.import_module(module), name)] == []
