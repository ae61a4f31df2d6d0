"""Core machinery of the :mod:`repro.lint` static invariant checker.

The generic linters (flake8, pylint) cannot express the engine's
domain contracts — "published arrays are never written in place",
"rewrite pieces must carry the right scale factor" — because those are
facts about *this* system's semantics, not about Python.  This module
provides the pieces the domain rules are built from:

* :class:`Finding` — one rule violation at a source location;
* :class:`FileContext` — a parsed module plus the helpers rules need
  (enclosing-symbol lookup, import-alias resolution);
* :class:`Rule` — the base class, registered via :func:`register`;
* :func:`lint_paths` / :func:`lint_source` — the runners.

Everything here is dependency-free stdlib (``ast``), so the checker can
run in a bare CI interpreter before the heavyweight test job.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

#: Pseudo-rule id used for files the checker cannot parse.
PARSE_ERROR = "RL000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``path`` is the package-relative posix path (``repro/engine/...``) so
    findings — and the baseline entries that reference them — are stable
    across checkouts.  ``symbol`` is the dotted name of the enclosing
    class/function (``"<module>"`` at module scope); baselines match on
    ``(rule, path, symbol)`` so they survive line drift.
    """

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str

    def key(self) -> tuple[str, str, str]:
        """The baseline-matching key: line-independent identity."""
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` row)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def format(self) -> str:
        """One-line human rendering for ``--format text``."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"[{self.symbol}] {self.message}"
        )


def module_path(path: Path | str) -> str:
    """Normalise a filesystem path to the package-relative form.

    ``src/repro/engine/table.py`` → ``repro/engine/table.py``.  Paths
    that do not contain a ``repro`` component are returned as-is (posix),
    which keeps the checker usable on fixture files in tests.
    """
    posix = Path(path).as_posix()
    parts = posix.split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return posix


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def aliases_from_imports(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Map local names to canonical dotted origins.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import time`` → ``{"time": "time.time"}``.  Used to
    resolve call targets to canonical names regardless of import style.
    """
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def canonical_call_name(
    node: ast.AST, aliases: dict[str, str]
) -> str | None:
    """Canonical dotted name of a call target, alias-resolved.

    With ``import numpy as np``, the call ``np.random.default_rng()``
    resolves to ``"numpy.random.default_rng"``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    root = aliases.get(head, head)
    return f"{root}.{rest}" if rest else root


class FileContext:
    """A parsed module plus the lookups rules share.

    The context is built **once** per file per lint run and shared by
    every rule: one AST walk populates the symbol map and a node-type
    index, and rules iterate :meth:`nodes` instead of re-walking the
    tree themselves.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self._symbols: dict[ast.AST, str] | None = None
        self._by_type: dict[type, list[ast.AST]] | None = None
        self._aliases: dict[str, str] | None = None

    def _build_index(self) -> None:
        """One pre-order walk filling the symbol map and type index."""
        symbols: dict[ast.AST, str] = {}
        by_type: dict[type, list[ast.AST]] = {}

        def walk(current: ast.AST, stack: tuple[str, ...]) -> None:
            if isinstance(
                current,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                stack = stack + (current.name,)
            symbols[current] = ".".join(stack) or "<module>"
            by_type.setdefault(type(current), []).append(current)
            for child in ast.iter_child_nodes(current):
                walk(child, stack)

        walk(self.tree, ())
        self._symbols = symbols
        self._by_type = by_type

    @property
    def aliases(self) -> dict[str, str]:
        """Import-alias map, computed once per file."""
        if self._aliases is None:
            self._aliases = aliases_from_imports(
                self.nodes(ast.Import, ast.ImportFrom)
            )
        return self._aliases

    def nodes(self, *types: type) -> list[ast.AST]:
        """Every node of the given exact AST types, in pre-order.

        This is the shared-index replacement for per-rule
        ``ast.walk(ctx.tree)`` loops: the tree is walked once per file
        and each rule filters the index instead of re-traversing.
        """
        if self._by_type is None:
            self._build_index()
        index = self._by_type or {}
        if len(types) == 1:
            return list(index.get(types[0], ()))
        merged: list[ast.AST] = []
        for node_type in types:
            merged.extend(index.get(node_type, ()))
        merged.sort(
            key=lambda n: (getattr(n, "lineno", 0), getattr(n, "col_offset", 0))
        )
        return merged

    def symbol_for(self, node: ast.AST) -> str:
        """Dotted name of the class/function enclosing ``node``."""
        if self._symbols is None:
            self._build_index()
        return (self._symbols or {}).get(node, "<module>")


class Rule:
    """Base class for a domain lint rule.

    Subclasses set :attr:`rule_id`/:attr:`title`, restrict their scope by
    overriding :meth:`applies_to`, and yield findings from :meth:`check`.
    Register with the :func:`register` decorator so :func:`all_rules`
    (and therefore the CLI) picks them up.  Every rule runs once per
    module.
    """

    rule_id: str = ""
    title: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx.path`` (default: every file)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield the rule's findings for one parsed module."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Construct a :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            symbol=ctx.symbol_for(node),
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules(only: Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the registered rules, optionally restricted to ids.

    Importing :mod:`repro.lint.rules` here (not at module top) avoids a
    circular import: the rule modules themselves import this module.
    """
    import repro.lint.rules  # noqa: F401  (registration side effect)

    ids = sorted(_REGISTRY) if only is None else list(only)
    unknown = [i for i in ids if i not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown rule ids {unknown}; have {sorted(_REGISTRY)}")
    return [_REGISTRY[i]() for i in ids]


def parse_context(source: str, path: str) -> FileContext | Finding:
    """Parse one source string into a :class:`FileContext`.

    Returns a :data:`PARSE_ERROR` finding instead of raising when the
    file does not parse, so one broken file never aborts a lint run.
    """
    normalized = module_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_ERROR,
            path=normalized,
            line=exc.lineno or 0,
            col=exc.offset or 0,
            symbol="<module>",
            message=f"file does not parse: {exc.msg}",
        )
    return FileContext(normalized, source, tree)


def _location(finding: Finding) -> tuple[str, int, int, str]:
    """Sort key: report findings in source order."""
    return (finding.path, finding.line, finding.col, finding.rule)


def _lint_module(
    source: str, path: str, rules: Sequence[Rule]
) -> list[Finding]:
    """Every applicable rule's findings for one module, or its parse error."""
    parsed = parse_context(source, path)
    if isinstance(parsed, Finding):
        return [parsed]
    return [
        finding
        for rule in rules
        if rule.applies_to(parsed)
        for finding in rule.check(parsed)
    ]


def lint_source(
    source: str, path: str, rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Run rules over one source string (the unit tests' entry point)."""
    if rules is None:
        rules = all_rules()
    return sorted(_lint_module(source, path, rules), key=_location)


def iter_python_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: Sequence[Path | str], rules: Sequence[Rule] | None = None
) -> tuple[list[Finding], int]:
    """Lint every ``.py`` file under ``paths``.

    Every file is parsed once and every rule runs over that file's
    shared index.  Returns the sorted findings and the number of files
    checked.
    """
    if rules is None:
        rules = all_rules()
    files = iter_python_files(paths)
    findings = [
        finding
        for file in files
        for finding in _lint_module(
            file.read_text(encoding="utf-8"), str(file), rules
        )
    ]
    return sorted(findings, key=_location), len(files)
