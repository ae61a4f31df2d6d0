"""Source rules, as plain AST walks over ``src/repro``.

Each check returns the offending lines of one module and must find
nothing anywhere in the package.  Each also runs on snippets it must
flag (so none passes vacuously) and on snippets it must let through.
"""

import ast
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def dotted(node: ast.AST) -> str:
    """``a.b.c`` for a name/attribute chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def no_assert(path: str, tree: ast.AST) -> list[str]:
    """``assert`` vanishes under ``python -O``: raise a ``repro.errors`` type."""
    return [
        f"{path}:{node.lineno}: assert"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]


#: The presentation layer: the only modules that write to stdout.
PRINTERS = ("cli.py", "experiments/reporting.py")


def no_print(path: str, tree: ast.AST) -> list[str]:
    """Library code returns data; ``breakpoint()`` is never shipped."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if name == "breakpoint" or (name == "print" and path not in PRINTERS):
            found.append(f"{path}:{node.lineno}: {name}()")
    return found


#: Layers that must replay: the same seed and data give the same samples
#: and answers.  ``time.perf_counter`` (elapsed timings) is allowed.
DETERMINISTIC = ("core/", "engine/", "baselines/")
ENTROPY_MODULES = {"random", "uuid", "datetime"}
WALL_CLOCK = {"time.time", "time.time_ns"}


def no_clock_or_entropy(path: str, tree: ast.AST) -> list[str]:
    """No wall clock, entropy module, legacy or unseeded numpy RNG."""
    if not path.startswith(DETERMINISTIC):
        return []
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call):
            names = [dotted(node.func)]
        call = isinstance(node, ast.Call)
        for name in names:
            head, _, last = name.rpartition(".")
            numpy_rng = call and head in ("np.random", "numpy.random")
            if (
                name.split(".")[0] in ENTROPY_MODULES
                or name in WALL_CLOCK
                or (numpy_rng and last != "default_rng")
                or (numpy_rng and not (node.args or node.keywords))
            ):
                found.append(f"{path}:{node.lineno}: {name}")
    return found


#: The modules that build published arrays (and only build them).
ARRAY_OWNERS = ("engine/column.py", "engine/bitmask.py")


def no_array_writes(path: str, tree: ast.AST) -> list[str]:
    """Only the owners assign ``.data``/``.words`` or write into them."""
    if path in ARRAY_OWNERS:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in ("data", "words"):
                found.append(f"{path}:{node.lineno}: .{target.attr}")
    return found


CHECKS = [no_assert, no_print, no_clock_or_entropy, no_array_writes]


def package_modules():
    for file in sorted(PACKAGE.rglob("*.py")):
        yield file.relative_to(PACKAGE).as_posix(), ast.parse(file.read_text())


def run(check, path, source):
    return check(path, ast.parse(textwrap.dedent(source)))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_package_is_clean(check):
    modules = list(package_modules())
    assert len(modules) > 50
    found = [line for path, tree in modules for line in check(path, tree)]
    assert found == []


FLAGGED = [
    pytest.param(no_assert, "engine/foo.py", """
        def guard(x):
            assert x is not None
            return x
    """, id="assert"),
    pytest.param(no_print, "core/foo.py", """
        def report(x):
            print(x)
    """, id="print_in_library"),
    pytest.param(no_print, "cli.py", """
        def debug(x):
            breakpoint()
    """, id="breakpoint_anywhere"),
    pytest.param(no_clock_or_entropy, "core/foo.py", """
        import time

        def stamp():
            return time.time()
    """, id="wall_clock"),
    pytest.param(no_clock_or_entropy, "engine/foo.py", """
        from time import time

        def stamp():
            return time()
    """, id="from_import_alias"),
    pytest.param(no_clock_or_entropy, "baselines/foo.py", """
        import numpy as np

        def draw():
            return np.random.default_rng()
    """, id="unseeded_default_rng"),
    pytest.param(no_clock_or_entropy, "baselines/foo.py", """
        import random

        def draw():
            return random.Random()
    """, id="random_module"),
    pytest.param(no_clock_or_entropy, "core/foo.py", """
        import numpy as np

        def draw(n):
            return np.random.rand(n)
    """, id="legacy_numpy_rng"),
    pytest.param(no_array_writes, "engine/foo.py", """
        class Editor:
            def swap(self, col, arr):
                col.data = arr
    """, id="attribute_rebind"),
    pytest.param(no_array_writes, "core/foo.py", """
        def patch(col, i, v):
            col.data[i] = v
    """, id="subscript_write"),
    pytest.param(no_array_writes, "core/foo.py", """
        def tag(vector, rows, bit, one):
            vector.words[rows, bit // 64] |= one << bit
    """, id="words_or_write"),
]


@pytest.mark.parametrize("check, path, source", FLAGGED)
def test_check_flags_its_offence(check, path, source):
    assert run(check, path, source)


ALLOWED = [
    pytest.param(no_assert, "engine/foo.py", """
        from repro.errors import InternalError

        def guard(x):
            if x is None:
                raise InternalError("x must be set")
            return x
    """, id="raising_guard"),
    pytest.param(no_print, "experiments/reporting.py", """
        def report(x):
            print(x)
    """, id="presentation_layer_print"),
    pytest.param(no_clock_or_entropy, "engine/foo.py", """
        import time

        import numpy as np

        def timed(seed):
            start = time.perf_counter()
            rng = np.random.default_rng(seed)
            return rng, time.perf_counter() - start
    """, id="seeded_and_monotonic"),
    pytest.param(no_clock_or_entropy, "datagen/foo.py", """
        import numpy as np

        def fresh():
            return np.random.default_rng()
    """, id="datagen_entropy"),
    pytest.param(no_array_writes, "engine/column.py", """
        class Column:
            def __init__(self, data):
                self.data = data
    """, id="owner_builds_its_array"),
    pytest.param(no_array_writes, "engine/foo.py", """
        def summarise(col, start, stop):
            return col.data[start:stop].min()
    """, id="reads"),
]


@pytest.mark.parametrize("check, path, source", ALLOWED)
def test_check_allows_the_legitimate_form(check, path, source):
    assert run(check, path, source) == []
