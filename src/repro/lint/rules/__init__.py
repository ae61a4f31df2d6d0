"""Rule modules of :mod:`repro.lint`.

Importing this package registers every rule with the core registry (the
``@register`` decorator runs at import time).  To add a rule: create
``rlNNN_<slug>.py`` following the existing modules, decorate the class
with ``@register``, import it here, and add fixtures to
``tests/test_lint_rules.py`` — one snippet proving it fires and one
proving it does not over-fire.  See ``docs/linting.md``.
"""

from repro.lint.rules import (  # noqa: F401
    rl001_invalidation,
    rl002_scale,
    rl003_nondeterminism,
    rl004_cache_keys,
    rl005_asserts,
    rl006_io_purity,
    rl008_published_arrays,
    rl009_obs,
    rl011_transitive_shared_state,
    rl012_lock_order,
    rl013_invalidation_coverage,
)
