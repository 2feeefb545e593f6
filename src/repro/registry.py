"""Decorator-registered component registries for policies and surrogates.

The two registries below are the only name -> component tables: config
validation, :func:`repro.policy.make_policy`, the CLI's choices and the
campaign service all resolve names through them, and no module keeps a
second table of its own.  They are populated by decorators at
class-definition time::

    from repro.registry import register_surrogate

    @register_surrogate("iterative")
    class IterativeGPRegressor(GPRegressor):
        ...

Resolution rules (documented in DESIGN.md):

- Registration is *lazy*: the registries import their built-in modules
  only when first queried (``get``/``names``/``in``), never at import
  time, so ``repro.registry`` itself has no dependencies and can be
  imported from anywhere (including ``repro.core.config``) without
  cycles.
- Lookup of an unknown name raises :class:`KeyError` listing every
  registered key — misspellings fail loudly with the fix in the message.
- Re-registering a name to a *different* object raises; re-running the
  same decorator (module reload) is a no-op.
- Third-party code may register additional components before building an
  :class:`~repro.core.config.ALConfig`; validation and construction both
  resolve through the same registry, so a registered name is usable
  everywhere a built-in name is (config, CLI, campaign service).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterator

__all__ = [
    "Registry",
    "policy_registry",
    "surrogate_registry",
    "register_policy",
    "register_surrogate",
]


class Registry:
    """A name -> component mapping with decorator registration.

    Parameters
    ----------
    kind : str
        Human-readable component kind (``"policy"``/``"surrogate"``),
        used in error messages.
    builtin_modules : tuple[str, ...]
        Modules whose import populates the built-in entries.  Imported
        lazily on first query so the registry itself stays dependency
        free (see module docstring).
    """

    def __init__(self, kind: str, builtin_modules: tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._entries: dict[str, Any] = {}
        self._loaded = False

    def register(self, name: str) -> Callable[[Any], Any]:
        """Decorator registering ``name`` -> the decorated object."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")

        def decorator(obj: Any) -> Any:
            existing = self._entries.get(name)
            if existing is not None and existing is not obj:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    f"to {existing!r}"
                )
            self._entries[name] = obj
            return obj

        return decorator

    def _load_builtins(self) -> None:
        if self._loaded:
            return
        # Flip the flag first: the built-in modules may themselves query
        # the registry while importing (e.g. to build CLI choices).
        self._loaded = True
        for module in self._builtin_modules:
            importlib.import_module(module)

    def names(self) -> tuple[str, ...]:
        """Sorted tuple of every registered name."""
        self._load_builtins()
        return tuple(sorted(self._entries))

    def get(self, name: str) -> Any:
        """The component registered as ``name``.

        Raises :class:`KeyError` listing the registered keys when the
        name is unknown.
        """
        self._load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered "
                f"{self.kind}s: {', '.join(self.names())}"
            ) from None

    def __contains__(self, name: object) -> bool:
        self._load_builtins()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._load_builtins()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        loaded = "loaded" if self._loaded else "unloaded"
        return f"Registry(kind={self.kind!r}, {loaded}, n={len(self._entries)})"


#: Selection policies (``SelectionPolicy`` implementations).
policy_registry = Registry(
    "policy",
    builtin_modules=(
        "repro.core.policies",
        "repro.core.portfolio",
        "repro.policy.amortized",
    ),
)

#: Surrogate model backends (``Surrogate`` implementations).
surrogate_registry = Registry(
    "surrogate",
    builtin_modules=(
        "repro.gp.gpr",
        "repro.gp.iterative",
        "repro.gp.sparse",
        "repro.gp.local",
        "repro.gp.treed",
        "repro.gp.multifidelity",
    ),
)

register_policy = policy_registry.register
register_surrogate = surrogate_registry.register
