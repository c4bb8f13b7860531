"""The package exports what the README documents, and nothing else."""

import importlib
import pkgutil
from pathlib import Path

import sqtotient

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_export_is_an_attribute():
    for name in sqtotient.__all__:
        assert hasattr(sqtotient, name), name


def test_every_module_export_is_defined():
    # a name left in a module's __all__ after its definition went fails here
    names = [f"sqtotient.{info.name}" for info in pkgutil.iter_modules(sqtotient.__path__)]
    assert "sqtotient.core_arith" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        assert missing == [], name


def test_every_export_is_documented():
    # named as code in the README's Library section
    undocumented = [name for name in sqtotient.__all__ if f"`{name}`" not in LIBRARY]
    assert undocumented == []

