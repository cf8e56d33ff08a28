"""Pluggable search strategies over the fixed evaluation core.

The paper's framework evolves stress-tests with a GA, but everything
below the search — template rendering, assembly, measurement, scoring —
is search-agnostic (and since PR 2 lives in :mod:`repro.evaluation`).
This package makes the search itself a swappable module, the way
MicroGrad centralises tuning mechanisms over a fixed evaluation core:

* :mod:`repro.search.registry` — named registries with
  list-the-choices / nearest-match error messages;
* :mod:`repro.search.operators` — the GA operators (selection,
  crossover, mutation) and the selection and crossover registries the
  ``<ga>`` block's names resolve against;
* :mod:`repro.search.base` — the :class:`SearchStrategy` contract and
  the strategy registry;
* strategies: ``genetic`` (the paper's GA, bit-identical to the
  pre-refactor engine), ``random`` (the paper's baseline),
  ``hill_climb``, ``simulated_annealing``, and the GA with a pruning
  ranker (:mod:`repro.search.pruning`): ``static_rank`` ranks
  offspring by static predicted fitness, ``surrogate`` by an
  online-learned ridge model (see :mod:`repro.surrogate`).

Every GA setting lives in the config's ``<ga>`` block.  A strategy
takes no parameters: its settings are class constants, and
``static_rank`` ranks by the metric the run's measurement declares.

Importing this package registers every built-in operator and strategy.
"""

from __future__ import annotations

from .base import STRATEGIES, SearchStrategy
from .genetic import GeneticStrategy  # isort:skip — registration order
from .random_search import RandomStrategy  # isort:skip
from .hill_climb import HillClimbStrategy  # isort:skip
from .annealing import SimulatedAnnealingStrategy  # isort:skip
from .static_rank import StaticRankStrategy  # isort:skip
from .surrogate import SurrogateStrategy  # isort:skip
from .operators import CROSSOVER_OPERATORS, SELECTION_OPERATORS
from .registry import Registry, suggest

__all__ = [
    "Registry", "suggest",
    "SELECTION_OPERATORS", "CROSSOVER_OPERATORS", "STRATEGIES",
    "SearchStrategy", "GeneticStrategy", "RandomStrategy",
    "HillClimbStrategy", "SimulatedAnnealingStrategy",
    "StaticRankStrategy", "SurrogateStrategy",
    "make_strategy",
]


def make_strategy(name: str) -> SearchStrategy:
    """Instantiate a registered strategy by name; an unknown name
    raises :class:`~repro.core.errors.ConfigError` (SC210) with the
    valid choices listed."""
    return STRATEGIES.get(name)()
