"""Documentation snippets stay runnable.

Extracts every ```python fenced block from README.md and executes them in
one shared namespace (top to bottom), so the documented API never drifts
from the implementation; and checks every ``repro <subcommand> --flag``
the docs name against the CLI's parser.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.smallgroup import SmallGroupConfig

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"
API = ROOT / "docs" / "api.md"

FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks() -> list[str]:
    text = README.read_text()
    return FENCE.findall(text)


def test_readme_has_python_snippets():
    assert python_blocks(), "README lost its code examples"


def test_readme_snippets_execute():
    namespace: dict = {}
    for block in python_blocks():
        exec(compile(block, str(README), "exec"), namespace)  # noqa: S102
    # The quickstart block defines these:
    assert "answer" in namespace
    assert namespace["answer"].n_groups > 0
    assert "exact" in namespace


@pytest.mark.parametrize(
    "path",
    [
        Path(__file__).parent.parent / "DESIGN.md",
        Path(__file__).parent.parent / "EXPERIMENTS.md",
        Path(__file__).parent.parent / "docs" / "internals.md",
        Path(__file__).parent.parent / "docs" / "api.md",
    ],
    ids=lambda p: p.name,
)
def test_docs_reference_real_modules(path):
    """Dotted `repro...` paths mentioned in the docs actually resolve
    (as a module, or as an attribute of their parent module)."""
    import importlib

    for match in set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", path.read_text())):
        try:
            importlib.import_module(match)
        except ImportError:
            parent, _, attribute = match.rpartition(".")
            module = importlib.import_module(parent)
            assert hasattr(module, attribute), match


def test_api_lists_exactly_the_small_group_knobs():
    """The "`SmallGroupConfig` knobs:" paragraph names every field once."""
    text = API.read_text()
    start = text.index("`SmallGroupConfig` knobs:")
    paragraph = text[start:text.index("\n\n", start)]
    documented = re.findall(r"`([a-z_]+)`", paragraph)
    fields = [field.name for field in dataclasses.fields(SmallGroupConfig)]
    assert sorted(documented) == sorted(fields)


#: A command line the docs show (after ``python -m``, a ``$`` prompt or
#: an opening backquote): its subcommand, and the rest of its line or
#: code span, backslash-continued lines included.
COMMAND = re.compile(r"(?:python -m |\$ |`)repro ([a-z]+)((?:\\\n|[^`\n])*)")


def test_documented_cli_flags_exist():
    """Every ``repro <subcommand> --flag`` the docs name is in the parser."""
    (subcommands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    named = 0
    for path in (README, ROOT / "DESIGN.md", API, ROOT / "docs" / "serving.md"):
        for command, rest in COMMAND.findall(path.read_text()):
            assert command in subcommands, f"{path.name}: repro {command}"
            options = subcommands[command]._option_string_actions
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", rest.split(" #")[0]):
                assert flag in options, f"{path.name}: repro {command} {flag}"
                named += 1
    assert named, "the docs name no CLI flag"
