"""The package exports what the README documents, and nothing else."""

from pathlib import Path

import sqtotient

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_export_is_an_attribute():
    for name in sqtotient.__all__:
        assert hasattr(sqtotient, name), name


def test_every_export_is_documented():
    # named as code in the README's Library section
    undocumented = [name for name in sqtotient.__all__ if f"`{name}`" not in LIBRARY]
    assert undocumented == []

