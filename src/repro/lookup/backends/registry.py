"""The backend registry and the build entry point.

A :class:`LookupBackend` is a *strategy for building* the per-group probe
structure: ``supports`` says whether it can serve a given group,
``build`` returns a ready :class:`~repro.lookup.group_engine.GroupIndex`
(whose ``probe_batch`` is the batched lookup and whose
``backend_report`` carries the memory/build-cost accounting).  Backends
register by name; :func:`build_with_backend` resolves a requested name —
or the ``auto`` shape rule — against a group, falling back to the
group's structural default whenever the requested backend cannot serve
it, so a forced ``--lookup-backend`` never produces a wrong or missing
structure.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List

from ...analysis.mgr import Group
from ...core.classifier import Classifier
from .selector import select_backend, structural_backend_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..group_engine import GroupIndex

__all__ = [
    "AUTO_BACKEND",
    "LookupBackend",
    "backend_names",
    "build_with_backend",
    "get_backend",
    "register_backend",
]

#: The per-group selection policy; resolves to a registered backend via
#: :func:`~repro.lookup.backends.selector.select_backend`.
AUTO_BACKEND = "auto"


class LookupBackend:
    """Strategy interface for building a group's lookup structure.

    Subclasses set :attr:`name` and implement :meth:`supports` /
    :meth:`build`.  ``build`` must return a
    :class:`~repro.lookup.group_engine.GroupIndex` whose answers are
    decision-identical to a linear scan of the group members on the
    group fields — the engine's Theorem 2 false-positive check assumes
    exactly that contract.
    """

    #: Registry key; also stamped on built indexes as ``index.backend``.
    name: str = "abstract"

    def supports(self, classifier: Classifier, group: Group) -> bool:
        """Whether this backend can serve ``group`` exactly."""
        raise NotImplementedError

    def build(self, classifier: Classifier, group: Group) -> "GroupIndex":
        """Construct the lookup structure for ``group``."""
        raise NotImplementedError


_REGISTRY: Dict[str, LookupBackend] = {}


def register_backend(backend: LookupBackend, replace: bool = False) -> None:
    """Register ``backend`` under ``backend.name``.

    Third-party structures (shared-memory residents, per-tenant views)
    plug in here; ``replace=True`` swaps an existing registration.
    """
    name = backend.name
    if not name or name == AUTO_BACKEND:
        raise ValueError(f"invalid backend name {name!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = backend


def get_backend(name: str) -> LookupBackend:
    """The registered backend called ``name`` (KeyError with the known
    names otherwise)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown lookup backend {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_names(include_auto: bool = False) -> List[str]:
    """Registered backend names, sorted; optionally with ``auto``."""
    names = sorted(_REGISTRY)
    if include_auto:
        names.insert(0, AUTO_BACKEND)
    return names


def build_with_backend(
    classifier: Classifier,
    group: Group,
    backend: str = AUTO_BACKEND,
) -> "GroupIndex":
    """Build ``group``'s lookup structure through the registry.

    ``backend`` is a registered name or ``auto``.  A named backend that
    does not support the group falls back to its structural default, so
    the call always succeeds with a correct structure.  The built index
    is stamped with its backend name, the build wall-clock and whether
    it was a fallback.
    """
    requested = backend
    if backend == AUTO_BACKEND:
        backend = select_backend(classifier, group)
    chosen = get_backend(backend)
    fallback = False
    if not chosen.supports(classifier, group):
        chosen = get_backend(structural_backend_name(classifier, group))
        fallback = True
    start = time.perf_counter()
    index = chosen.build(classifier, group)
    index.build_seconds = time.perf_counter() - start
    index.backend = chosen.name
    index.backend_requested = requested
    index.backend_fallback = fallback
    return index
