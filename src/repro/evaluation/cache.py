"""Content-addressed evaluation cache.

An evaluation's observables are a pure function of the rendered source,
the target machine, and the measurement parameters (see the determinism
contract in :mod:`repro.evaluation.pipeline`), so they can be memoised
under a content address: ``sha256(target fingerprint ‖ rendered
source)``.  Hits skip the compile, the screen *and* the pipeline model
entirely — re-measured elitism clones cost nothing, and a resumed or
re-seeded run replays previously measured genomes from the cache file
instead of the simulator.  A cache only replays measurements: no search
strategy reads it, so it never changes which individuals get measured.

An entry is the measurement tuple of an evaluation that produced one.
A compile or screen failure is never stored: which stage fails depends
on the run's screen, which the address does not cover, so such a source
goes through the pipeline again and fails as a fresh run would.
Fitness is always re-scored against the hitting individual, because
fitness plug-ins may read genome properties (e.g. the simplicity term
of the paper's Equation 1) that differ between individuals sharing a
source digest — in practice they never do for identical sources, which
keeps cached and uncached runs bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigError
from ..measurement.base import Measurement

__all__ = ["EvaluationCache", "cache_fingerprint"]

_FORMAT = "gest-repro-evaluation-cache"
_VERSION = 1


def cache_fingerprint(measurement: Measurement, noise_seed: int) -> str:
    """A run's cache fingerprint: the measurement's own
    :meth:`~repro.measurement.base.Measurement.fingerprint` and the
    noise seed.  Saved cache files and shared-cache rows are addressed
    by this exact string."""
    return f"{measurement.fingerprint()}|noise_seed={noise_seed}"


class EvaluationCache:
    """In-memory store of measurement tuples keyed on (fingerprint,
    rendered source).

    Parameters
    ----------
    fingerprint:
        Stable description of everything besides the source that
        determines a measurement — target machine, measurement class
        and parameters, noise seed (see
        :meth:`repro.measurement.base.Measurement.fingerprint`).  Two
        caches with different fingerprints never share entries, so a
        cache file recorded against one platform cannot poison a run on
        another.
    """

    def __init__(self, fingerprint: str = "") -> None:
        self.fingerprint = fingerprint
        self._entries: Dict[str, Tuple[float, ...]] = {}
        self.hits = 0
        self.misses = 0

    # -- addressing ---------------------------------------------------------

    def key(self, source_text: str) -> str:
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source_text.encode("utf-8"))
        return digest.hexdigest()

    # -- store --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, source_text: str) -> Optional[Tuple[float, ...]]:
        entry = self._entries.get(self.key(source_text))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, source_text: str, measurements: Sequence[float]) -> None:
        self._entries[self.key(source_text)] = tuple(measurements)

    # -- persistence (resumed runs skip the pipeline model) -----------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the entries as JSON (atomic replace)."""
        path = Path(path)
        payload = {
            "format": _FORMAT,
            "version": _VERSION,
            "fingerprint": self.fingerprint,
            "entries": {
                key: {"measurements": list(measurements)}
                for key, measurements in sorted(self._entries.items())
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(path.suffix + ".tmp")
        temp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        temp.replace(path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path],
             fingerprint: str = "") -> "EvaluationCache":
        """Read a cache file.

        A fingerprint mismatch returns an *empty* cache with the given
        fingerprint rather than raising — stale entries from a
        different target or measurement setup are simply not reusable.
        Likewise a corrupt or truncated cache file (a run killed during
        an old non-atomic write, a bad disk) costs only re-measurement:
        the load warns and starts empty instead of refusing to run.
        Entries an older build flagged ``compile_failed`` are skipped:
        this build stores measurements only.
        """
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"evaluation cache {path} does not exist")
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            warnings.warn(
                f"evaluation cache {path} is corrupt ({exc}); starting "
                "with an empty cache — previously cached evaluations "
                "will be re-measured", RuntimeWarning, stacklevel=2)
            return cls(fingerprint)
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise ConfigError(
                f"{path} is not an evaluation cache file")
        if payload.get("version") != _VERSION:
            raise ConfigError(
                f"evaluation cache {path} has unsupported version "
                f"{payload.get('version')!r}; this build reads "
                f"version {_VERSION}")
        cache = cls(fingerprint)
        if payload.get("fingerprint") != fingerprint:
            return cache
        for key, raw in payload.get("entries", {}).items():
            if not raw.get("compile_failed", False):
                cache._entries[key] = tuple(
                    float(m) for m in raw.get("measurements", []))
        return cache
