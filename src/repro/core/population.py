"""Populations and their serialisation (paper Sections III.A, III.D).

A :class:`Population` is one GA generation.  The paper saves each
generation as a binary file carrying source code, ids, parent ids and
measurements per individual, loadable later for post-processing or as
the *seed population* of a new search.  We serialise with ``pickle``
(the original GeST does the same); :func:`load_population` is the
inverse.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .errors import ConfigError
from .individual import Individual, selection_key

__all__ = ["Population", "load_population"]

_PICKLE_PROTOCOL = 4


class Population:
    """One generation of individuals, ordered by insertion."""

    def __init__(self, individuals: Iterable[Individual],
                 number: int = 0) -> None:
        self.individuals: List[Individual] = list(individuals)
        self.number = number
        for individual in self.individuals:
            individual.generation = number

    # -- container protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.individuals)

    def __getitem__(self, index: int) -> Individual:
        return self.individuals[index]

    # -- queries -----------------------------------------------------------

    @property
    def evaluated(self) -> bool:
        return all(ind.evaluated for ind in self.individuals)

    def fittest(self) -> Individual:
        """The first individual under :func:`selection_key`: the
        highest fitness (the earliest of equals)."""
        if not self.individuals:
            raise ConfigError("population is empty")
        return max(self.individuals, key=selection_key)

    def ranked(self) -> List[Individual]:
        """Individuals sorted fittest-first under :func:`selection_key`
        (stable for equal fitness; pruned individuals last)."""
        return sorted(self.individuals, key=selection_key, reverse=True)

    def mean_fitness(self) -> float:
        """Mean over the individuals that have a fitness; pruned
        individuals have none and do not count."""
        total = 0.0
        count = 0
        for individual in self.individuals:
            has_fitness, value = selection_key(individual)
            if has_fitness:
                total += value
                count += 1
        if not count:
            raise ConfigError("population has no individual with a fitness")
        return total / count

    # -- persistence ---------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write this generation to a binary file (paper III.D)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": "gest-repro-population",
            "version": 1,
            "number": self.number,
            "individuals": self.individuals,
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=_PICKLE_PROTOCOL)
        return path


def load_population(path: Union[str, Path],
                    expected_size: Optional[int] = None) -> Population:
    """Load a generation saved by :meth:`Population.save`.

    Used both for post-processing and for seeding a new GA search from
    a previous run's population (paper III.D).  ``expected_size``
    lets the engine validate that a seed population matches the
    configured population size.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"population file {path} does not exist")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or \
            payload.get("format") != "gest-repro-population":
        raise ConfigError(f"{path} is not a population file")
    individuals: Sequence[Individual] = payload["individuals"]
    if expected_size is not None and len(individuals) != expected_size:
        raise ConfigError(
            f"seed population {path} has {len(individuals)} individuals, "
            f"expected {expected_size}")
    return Population(individuals, number=payload.get("number", 0))
