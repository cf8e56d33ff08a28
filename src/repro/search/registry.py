"""Named registries for search components.

The search layer resolves every pluggable piece — strategies, selection
operators, crossover operators — *by name* from the run configuration.
A :class:`Registry` is the single source of truth for what names exist:
configuration validation, the static config lint and the CLI
``--strategy`` choices all read the same tables, so a name can never be
"valid" in one layer and unknown in another.

Unknown names fail loudly with the full list of valid choices plus a
nearest-match suggestion (``did you mean 'tournament'?``) — the
difference between a typo costing seconds and costing a search.
"""

from __future__ import annotations

from difflib import get_close_matches
from typing import Dict, Optional, Sequence, Tuple

from ..core.errors import ConfigError

__all__ = ["Registry", "suggest"]


def suggest(name: str, choices: Sequence[str]) -> Optional[str]:
    """The closest valid choice to ``name``, or None when nothing is
    plausibly near (difflib ratio below 0.5)."""
    matches = get_close_matches(name, list(choices), n=1, cutoff=0.5)
    return matches[0] if matches else None


class Registry:
    """An ordered name → component table.

    ``kind`` is the human label used in error messages (and doubles as
    the configuration attribute name where the two coincide, e.g.
    ``crossover_operator``), so a failed lookup reads like
    ``unknown crossover_operator 'two_point'; valid choices: one_point,
    uniform``.  ``diagnostic_code`` tags the :class:`ConfigError` a
    failed lookup raises with the matching static-analysis code, so the
    config-file lint reports it under that code rather than a generic
    parse failure.
    """

    def __init__(self, kind: str,
                 diagnostic_code: Optional[str] = None) -> None:
        self.kind = kind
        self.diagnostic_code = diagnostic_code
        self._entries: Dict[str, object] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, obj: object = None):
        """Register ``obj`` under ``name``; usable as a decorator."""
        if obj is None:
            def decorator(target):
                self._add(name, target)
                return target
            return decorator
        self._add(name, obj)
        return obj

    def _add(self, name: str, obj: object) -> None:
        if name in self._entries:
            raise ValueError(
                f"duplicate {self.kind} registration {name!r}")
        self._entries[name] = obj

    # -- lookup -------------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """Valid names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def get(self, name: str):
        """Resolve ``name`` or raise :class:`ConfigError` with the valid
        choices and a nearest-match suggestion."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(self.unknown_message(name),
                              diagnostic_code=self.diagnostic_code) from None

    def unknown_message(self, name: str) -> str:
        """The diagnostic text for an unknown name (shared by
        :class:`ConfigError` raises and the ``SC209``/``SC210`` lint)."""
        message = (f"unknown {self.kind} {name!r}; valid "
                   f"choices: {', '.join(self.names())}")
        near = suggest(str(name), self.names())
        if near is not None:
            message += f" (did you mean {near!r}?)"
        return message
