"""Single-parse whole-program index shared by every lint rule.

The serving layer runs queries and appends on concurrent HTTP handler
threads, which moves the correctness story from per-file facts ("this
function invalidates") to *global* properties — "no unlocked
shared-state mutation is reachable from a request handler", "every
mutation path reaches an invalidation", "locks acquire in a consistent
order".  Per-file, name-heuristic rules cannot prove those;
they need a symbol table and a call graph.

This module provides the first layer: :class:`ProjectIndex`, built from
the :class:`~repro.lint.core.FileContext` objects the runner already
parsed (one parse per file per lint run — rules and whole-program
passes share it).  The index knows:

* every **module** (package-relative path ↔ dotted module name);
* every **function/method** (:class:`FunctionInfo`, keyed by its
  module-qualified name, e.g. ``repro.engine.parallel.chunk_ranges`` or
  ``repro.engine.cache.ExecutionCache.get``), including nested
  functions and lambdas (synthetic ``<lambda@LINE>`` names);
* every **class** (:class:`ClassInfo` with its method table and base
  names, so ``self.method(...)`` resolves through inheritance);
* per-module **import resolution** (absolute and relative), so a local
  name resolves to the module-qualified symbol it denotes.

The call graph (:mod:`repro.lint.callgraph`) and the dataflow passes
(:mod:`repro.lint.dataflow`) are built lazily on top and cached here,
so N project-wide rules in one run share one graph.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.lint.core import FileContext

#: In-file symbol suffix used for lambdas (they have no name).
LAMBDA_PREFIX = "<lambda@"


def module_name_for(path: str) -> str:
    """Dotted module name for a package-relative posix path.

    ``repro/engine/parallel.py`` → ``repro.engine.parallel``;
    ``repro/lint/__init__.py`` → ``repro.lint``.  Paths outside a
    ``repro`` package (test fixtures) drop the ``.py`` suffix and join
    the remaining components, which keeps cross-file resolution working
    for fixture trees rooted at a temp directory.
    """
    parts = path.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(part for part in parts if part)


@dataclass
class FunctionInfo:
    """One function, method, nested function, or lambda."""

    qualname: str  # module-qualified, e.g. repro.engine.cache.ExecutionCache.get
    module: str
    path: str
    symbol: str  # in-file dotted symbol (Class.method, outer.inner, ...)
    name: str  # bare name ("get", "<lambda@12>")
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    ctx: FileContext
    class_qualname: str | None = None  # owning class for methods

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclass
class ClassInfo:
    """One class definition with its method table."""

    qualname: str
    module: str
    path: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    methods: dict[str, str] = field(default_factory=dict)  # bare -> qualname
    bases: list[str] = field(default_factory=list)  # raw dotted base names
    #: ``self.attr = Class()`` / ``self.attr = factory()`` assignments
    #: collected from the class body (``__init__`` and friends):
    #: attribute name -> class qualname, when statically resolvable.
    attr_types: dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """Symbol table + import resolution over one parse of the tree."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.files: dict[str, FileContext] = {}
        self.modules: dict[str, FileContext] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions_by_name: dict[str, list[str]] = {}
        #: module -> local name -> canonical dotted target
        self.imports: dict[str, dict[str, str]] = {}
        #: class qualname -> direct project subclasses (virtual dispatch)
        self.subclasses: dict[str, list[str]] = {}
        self._call_graph = None
        self._analysis = None
        for ctx in sorted(contexts, key=lambda c: c.path):
            self._index_file(ctx)
        self._resolve_class_attr_types()
        self._build_subclass_map()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_file(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.path)
        self.files[ctx.path] = ctx
        self.modules[module] = ctx
        self.imports[module] = self._resolve_imports(ctx, module)

        for node in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            symbol = ctx.symbol_for(node)
            qualname = f"{module}.{symbol}"
            owner = self._owning_class(module, symbol)
            info = FunctionInfo(
                qualname=qualname,
                module=module,
                path=ctx.path,
                symbol=symbol,
                name=node.name,
                node=node,
                ctx=ctx,
                class_qualname=owner,
            )
            self.functions[qualname] = info
            self.functions_by_name.setdefault(node.name, []).append(qualname)

        for node in ctx.nodes(ast.Lambda):
            enclosing = ctx.symbol_for(node)
            name = f"{LAMBDA_PREFIX}{node.lineno}>"
            symbol = f"{enclosing}.{name}" if enclosing != "<module>" else name
            qualname = f"{module}.{symbol}"
            self.functions[qualname] = FunctionInfo(
                qualname=qualname,
                module=module,
                path=ctx.path,
                symbol=symbol,
                name=name,
                node=node,
                ctx=ctx,
            )

        for node in ctx.nodes(ast.ClassDef):
            symbol = ctx.symbol_for(node)
            qualname = f"{module}.{symbol}"
            info = ClassInfo(
                qualname=qualname,
                module=module,
                path=ctx.path,
                name=node.name,
                node=node,
                ctx=ctx,
                bases=[
                    dotted
                    for base in node.bases
                    if (dotted := _dotted(base)) is not None
                ],
            )
            self.classes[qualname] = info

        # Method tables: a function whose enclosing symbol is a class.
        for qualname, fn in self.functions.items():
            if fn.module != module or fn.class_qualname is None:
                continue
            cls = self.classes.get(fn.class_qualname)
            if cls is not None and "." not in fn.name:
                cls.methods[fn.name] = qualname

    def _owning_class(self, module: str, symbol: str) -> str | None:
        """The class qualname a method symbol belongs to, if any."""
        if "." not in symbol:
            return None
        prefix = symbol.rsplit(".", 1)[0]
        candidate = f"{module}.{prefix}"
        ctx = self.modules.get(module)
        if ctx is None:
            return None
        for node in ctx.nodes(ast.ClassDef):
            if ctx.symbol_for(node) == prefix:
                return candidate
        return None

    def _resolve_imports(self, ctx: FileContext, module: str) -> dict[str, str]:
        """Local name -> canonical dotted target, relative imports included."""
        resolved: dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else ""
        for node in ctx.nodes(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    resolved[local] = alias.asname and alias.name or alias.name.split(".")[0]
                    if alias.asname:
                        resolved[local] = alias.name
            else:
                base = node.module or ""
                if node.level:
                    # Relative import: climb from the module's package.
                    parts = module.split(".")
                    # level 1 == current package for a module file.
                    keep = len(parts) - node.level
                    anchor = ".".join(parts[:keep]) if keep > 0 else ""
                    base = f"{anchor}.{base}".strip(".") if base else anchor
                for alias in node.names:
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    resolved[local] = target
        return resolved

    def _resolve_class_attr_types(self) -> None:
        """Infer ``self.attr`` types from ``self.attr = Class()`` stores."""
        for cls in self.classes.values():
            imports = self.imports.get(cls.module, {})
            for node in ast.walk(cls.node):
                if not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                target_cls = self.resolve_class_of_call(
                    node.value, cls.module, imports
                )
                if target_cls is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types.setdefault(target.attr, target_cls)

    def _build_subclass_map(self) -> None:
        for cls in self.classes.values():
            for base in cls.bases:
                resolved = self.resolve_local(cls.module, base)
                if resolved is not None and resolved in self.classes:
                    self.subclasses.setdefault(resolved, []).append(cls.qualname)

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def all_subclasses(self, class_qualname: str) -> list[str]:
        """Transitive project subclasses of a class, sorted."""
        result: set[str] = set()
        stack = list(self.subclasses.get(class_qualname, ()))
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            stack.extend(self.subclasses.get(current, ()))
        return sorted(result)
    def resolve_local(self, module: str, dotted: str) -> str | None:
        """Canonicalise a dotted local name against a module's imports.

        ``zonemap.evaluate_predicate`` in the executor (which does ``from
        repro.engine import zonemap``) resolves to
        ``repro.engine.zonemap.evaluate_predicate``.  Names defined in the
        module itself resolve to ``{module}.{name}``.
        """
        head, _, rest = dotted.partition(".")
        imports = self.imports.get(module, {})
        if head in imports:
            root = imports[head]
            return f"{root}.{rest}" if rest else root
        candidate = f"{module}.{dotted}"
        if candidate in self.functions or candidate in self.classes:
            return candidate
        return None

    def resolve_class_of_call(
        self, call: ast.Call, module: str, imports: dict[str, str] | None = None
    ) -> str | None:
        """Class qualname a call constructs (or a known factory returns)."""
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        target = self.resolve_local(module, dotted)
        if target is not None and target in self.classes:
            return target
        # Known factory functions returning process-wide singletons.
        bare = dotted.split(".")[-1]
        factory = FACTORY_RETURNS.get(bare)
        if factory is not None and factory in self.classes:
            return factory
        if factory is not None:
            # Allow factories whose class lives outside the linted tree
            # (single-file fixtures): return the canonical name anyway.
            return factory
        return None

    def class_method(self, class_qualname: str, method: str) -> str | None:
        """Resolve a method through the class and its project bases."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            target = cls.methods.get(method)
            if target is not None:
                return target
            for base in cls.bases:
                resolved = self.resolve_local(cls.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def function_for_node(self, ctx: FileContext, node: ast.AST) -> FunctionInfo | None:
        """The :class:`FunctionInfo` whose body encloses ``node``."""
        module = module_name_for(ctx.path)
        symbol = ctx.symbol_for(node)
        while symbol and symbol != "<module>":
            info = self.functions.get(f"{module}.{symbol}")
            if info is not None and not isinstance(info.node, ast.Lambda):
                return info
            if "." not in symbol:
                break
            symbol = symbol.rsplit(".", 1)[0]
        return None

    # ------------------------------------------------------------------
    # Lazily built analyses (shared by all project-wide rules)
    # ------------------------------------------------------------------
    def call_graph(self):
        """The shared conservative call graph (built once per run)."""
        if self._call_graph is None:
            from repro.lint.callgraph import build_call_graph

            self._call_graph = build_call_graph(self)
        return self._call_graph

    def analysis(self):
        """The shared dataflow bundle (built once per run)."""
        if self._analysis is None:
            from repro.lint.dataflow import ProjectAnalysis

            self._analysis = ProjectAnalysis(self, self.call_graph())
        return self._analysis


#: Factory functions returning process-wide singletons, by bare name.
#: Used to type receiver variables (``cache = get_cache()``) so method
#: calls and lock acquisitions resolve to the owning class.
FACTORY_RETURNS: dict[str, str] = {
    "get_cache": "repro.engine.cache.ExecutionCache",
    "get_registry": "repro.obs.registry.MetricsRegistry",
}


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


__all__ = [
    "FACTORY_RETURNS",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "module_name_for",
]
