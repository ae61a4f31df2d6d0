"""RL009 — observability reads in the compute layers.

Profiling must be answer-neutral: ``session.sql(..., profile=True)``
and ``profile=False`` must produce byte-identical estimates.  That
holds only if the compute layers
treat spans (:mod:`repro.obs.trace`) and the metrics registry
(:mod:`repro.obs.registry`) as **write-only** channels — create
children, time blocks, record attributes, bump counters — and never
read them back or branch on them.  The moment ``repro/engine/`` or
``repro/core/`` code consults a recorded duration or a counter, the
answer can depend on whether (and how fast) profiling ran.

This rule makes the contract structural.  In the deterministic layers
(the RL003 scope: ``repro/core/``, ``repro/engine/``,
``repro/baselines/``) it flags, on *span-ish* receivers (an identifier
containing ``span``, or named ``trace``/``tracer``):

* loads of the recorded state — ``.seconds`` / ``.attrs`` /
  ``.children`` in read position (including augmented assignment,
  which reads before it writes);
* calls to the read API — ``iter_spans`` / ``find`` / ``to_dict`` /
  ``to_text``;
* truthiness tests or method calls on a span inside a branch condition
  (``if``/``while``/ternary/``assert``) — *except* identity checks
  (``span is NULL_SPAN``, ``span is not None``), which compare plumbing
  wiring, not recorded measurements;

and, on registry receivers (``get_registry()`` or a name containing
``registry``), calls to the read API ``counter`` / ``snapshot``.

Writes are untouched: ``span.child(...)``, ``with span:``,
``span.add(...)``, ``span.annotate(...)``, ``span.seconds = ...`` in
plain store position, ``registry.incr/observe/set_gauge`` all pass.
The presentation layers (``repro/obs/``, ``repro/middleware/``, the
CLI) legitimately read spans to assemble profiles and are out of
scope.  The dynamic counterpart of this rule is the profile-determinism
sweep in ``tests/test_obs.py``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.core import FileContext, Finding, Rule, register

SCOPE_PREFIXES = ("repro/core/", "repro/engine/", "repro/baselines/")

#: Recorded span state: reading any of these can couple answers to
#: profiling.  (``name`` is deliberately absent — far too common an
#: attribute to attribute to spans by receiver name alone.)
SPAN_READ_ATTRS = frozenset({"seconds", "attrs", "children"})

#: Span read-API methods (presentation helpers).
SPAN_READ_METHODS = frozenset({"iter_spans", "find", "to_dict", "to_text"})

#: Registry read-API methods.
REGISTRY_READ_METHODS = frozenset({"counter", "snapshot"})


def _receiver_parts(node: ast.AST) -> list[str]:
    """Identifier parts of an attribute chain's receiver, outer-first."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.extend(_receiver_parts(node.func))
    return parts


def _is_spanish(parts: list[str]) -> bool:
    """Whether any receiver part names a span ("span" in it, or trace)."""
    return any(
        "span" in part.lower() or part.lower() in ("trace", "tracer")
        for part in parts
    )


def _is_registryish(parts: list[str]) -> bool:
    """Whether the receiver is the metrics registry (or its getter)."""
    return any("registry" in part.lower() for part in parts)


def _is_identity_compare(node: ast.AST) -> bool:
    """``a is b`` / ``a is not b`` — wiring checks, not state reads."""
    return isinstance(node, ast.Compare) and all(
        isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
    )


@register
class ObservabilityReadInComputeLayer(Rule):
    rule_id = "RL009"
    title = "span/registry read in a compute layer (profiling must be write-only)"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.path.startswith(SCOPE_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        aug_targets = {
            id(node.target) for node in ctx.nodes(ast.AugAssign)
        }
        for node in ctx.nodes(
            ast.Attribute, ast.If, ast.While, ast.IfExp, ast.Assert
        ):
            if isinstance(node, ast.Attribute):
                receiver = _receiver_parts(node.value)
                is_read = isinstance(node.ctx, ast.Load) or id(node) in aug_targets
                if (
                    node.attr in SPAN_READ_ATTRS
                    and is_read
                    and _is_spanish(receiver)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"reads span state '.{node.attr}' in a compute "
                        "layer; spans are a write-only channel here "
                        "(child/add/annotate/with only) — reading them "
                        "lets profiling change answers.  Assemble "
                        "profiles in repro/obs/ or the middleware",
                    )
                elif (
                    node.attr in SPAN_READ_METHODS
                    and isinstance(node.ctx, ast.Load)
                    and _is_spanish(receiver)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"calls span read-API '.{node.attr}()' in a "
                        "compute layer; only repro/obs/ and the "
                        "presentation layers may read span trees",
                    )
                elif (
                    node.attr in REGISTRY_READ_METHODS
                    and isinstance(node.ctx, ast.Load)
                    and _is_registryish(receiver)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"reads the metrics registry ('.{node.attr}') in "
                        "a compute layer; the registry is write-only "
                        "here (incr/observe/set_gauge) — metrics must "
                        "never feed back into answers",
                    )
            elif isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
                yield from self._check_branch_test(ctx, node.test)

    def _check_branch_test(
        self, ctx: FileContext, test: ast.AST
    ) -> Iterable[Finding]:
        """Flag spans used as branch conditions (truthiness or calls)."""
        stack = [test]
        while stack:
            node = stack.pop()
            if _is_identity_compare(node):
                continue  # ``span is NULL_SPAN`` compares wiring, not state
            if isinstance(node, ast.Name) and _is_spanish([node.id]):
                yield self.finding(
                    ctx,
                    node,
                    f"branches on span {node.id!r} in a compute layer; "
                    "profiling must not steer execution — use the "
                    "NULL_SPAN no-op instead of testing for a span",
                )
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _is_spanish(_receiver_parts(node.func.value))
            ):
                yield self.finding(
                    ctx,
                    node,
                    "calls a span method inside a branch condition in a "
                    "compute layer; span state must never influence "
                    "control flow",
                )
                continue
            stack.extend(ast.iter_child_nodes(node))
