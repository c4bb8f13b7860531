"""The package exports what the README documents, and nothing else."""

import importlib
import pkgutil
import re
from pathlib import Path

import click

import sqtotient
from sqtotient.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
CLI = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _commands(command, path=("sqtotient",)):
    # (invocation, command) for the group and every subcommand below it
    yield " ".join(path), command
    for name, sub in getattr(command, "commands", {}).items():
        yield from _commands(sub, (*path, name))


def _named(flag: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", CLI) is not None


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



def test_every_cli_option_in_the_readme_exists():
    flags = {flag for _, command in _commands(main) for param in command.params for flag in param.opts}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", CLI))
    assert named - flags == set()


def test_the_readme_names_every_command_choice_and_option():
    # each subcommand and each choice of a command's argument (report kinds,
    # verify suites) in an example invocation, each option by one of its flags
    missing = []
    for invocation, command in _commands(main):
        if not _named(invocation):
            missing.append(invocation)
        for param in command.params:
            if isinstance(param, click.Argument) and isinstance(param.type, click.Choice):
                missing += [f"{invocation} {choice}" for choice in param.type.choices if not _named(f"{invocation} {choice}")]
            elif isinstance(param, click.Option) and not any(_named(flag) for flag in param.opts):
                missing.append(f"{invocation} {param.opts[0]}")
    assert missing == []
