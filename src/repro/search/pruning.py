"""Pruning: the paper's GA with a ranker in front of the measurement.

GeST pays one board measurement per individual per generation.  A
pruning strategy is the ``genetic`` strategy (same operators, same RNG
stream, same uid allocation) that spends that budget where a ranker
expects it to matter.  The ranker prices the program the measurement
compiles on the machine the run measures: the engine binds the
measurement's compile and that machine's
:class:`~repro.cpu.microarch.MicroArch` into the strategy.  Per
generation:

1. the GA proposes offspring as usual;
2. offspring whose exact genome was already measured replay the
   recorded measurements (the per-source noise substream makes a
   re-measurement bit-identical, so the replay is exact, not an
   approximation);
3. the ranker orders the remaining fresh offspring by predicted
   fitness, and only the top :attr:`PruningStrategy.TOP_FRACTION`
   enter the measurement path;
4. the rest are marked pruned (:meth:`Individual.mark_pruned`): no
   fitness, no measurements, only their place in the ranker's order.
   :func:`~repro.core.individual.selection_key` ranks them below every
   individual with a fitness, so they can still breed but never win,
   and no mean counts them.

Generation 0 is never pruned: it anchors the search.  The decision
reads only the run itself (its offspring, its measurements so far and
the measured machine), never an evaluation cache, so a cache replays
measurements without changing what gets measured.  Every generation
the strategy records how well the ranker's predictions ordered the
measured fitnesses (Spearman rank correlation); the engine attaches the
record to :class:`~repro.core.engine.GenerationStats` and it lands in
``stats.jsonl``.

The rankers are the registered strategies themselves: ``static_rank``
prices offspring with the static cost model
(:mod:`repro.search.static_rank`), ``surrogate`` with an online-learned
ridge model (:mod:`repro.search.surrogate`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigError
from ..core.individual import Individual
from ..core.population import Population
from ..staticcheck.costmodel import spearman
from .genetic import GeneticStrategy

__all__ = ["PruningStrategy"]


class PruningStrategy(GeneticStrategy):
    """The GA whose fresh offspring a ranker prunes.

    The ranker compiles with the bound :attr:`compile`, the pipeline's,
    and prices and probes on the bound :attr:`arch`, the measured
    machine's.  Subclasses set :attr:`TOP_FRACTION`, implement
    :meth:`_predict`, and may override :meth:`_explore`; ranker state
    rides along by extending ``_bound``, ``observe``, ``state_dict``
    and ``load_state``.  A test that needs another constant overrides
    it in a subclass.
    """

    #: Fraction of each generation's fresh offspring sent to
    #: measurement once the ranker ranks; the rest are pruned.
    TOP_FRACTION: float = 1.0

    def _bound(self) -> None:
        super()._bound()
        # Checkpointed via state_dict:
        #: genome key -> (measurements, fitness, compile_failed,
        #: screen_failed) of every measured individual seen so far.
        self._memo: Dict[Tuple, Tuple] = {}
        #: uid -> predicted fitness for this generation's offspring
        #: (the Spearman sample, once they are measured).
        self._predictions: Dict[int, float] = {}
        self._simulated = 0
        self._pruned = 0
        self._replayed = 0
        self._last_metrics: Optional[Dict[str, Any]] = None

    # -- the ranker ---------------------------------------------------------

    def _predict(self, individuals: List[Individual]
                 ) -> Optional[Dict[int, float]]:
        """uid -> predicted fitness, or None while the ranker cannot
        rank yet (nothing is pruned then).  Individuals left out rank
        last and stay out of the Spearman sample.  Called for every
        generation, 0 included."""
        raise NotImplementedError

    def _explore(self, below_cut: List[Individual],
                 number: int) -> List[Individual]:
        """Offspring ranked below the cut to measure anyway."""
        return []

    # -- the search contract ------------------------------------------------

    def initial_population(self) -> Population:
        population = super().initial_population()
        self._prune(population)
        return population

    def next_population(self, population: Population,
                        next_number: int) -> Population:
        children = super().next_population(population, next_number)
        self._prune(children)
        return children

    def _prune(self, population: Population) -> None:
        """Replay, rank, cut and mark one generation's offspring."""
        fresh: List[Individual] = []
        replayed: List[Individual] = []
        for child in population:
            if child.evaluated:
                continue
            hit = self._memo.get(child.genome_key())
            if hit is None:
                fresh.append(child)
                continue
            measurements, fitness, compile_failed, screen_failed = hit
            child.record_evaluation(list(measurements), fitness,
                                    compile_failed=compile_failed,
                                    screen_failed=screen_failed)
            replayed.append(child)

        predictions = self._predict(fresh + replayed)
        ranked, cut = fresh, len(fresh)
        if predictions is not None and population.number > 0:
            ranked = sorted(fresh, key=lambda c: (
                -predictions.get(c.uid, float("-inf")), c.uid))
            cut = math.ceil(self.TOP_FRACTION * len(ranked))
        promoted = self._explore(ranked[cut:], population.number)
        pruned = 0
        for position, child in enumerate(ranked[cut:], start=cut):
            if child not in promoted:
                child.mark_pruned(position)
                pruned += 1

        self._predictions = predictions or {}
        self._simulated = len(fresh) - pruned
        self._pruned = pruned
        self._replayed = len(replayed)

    def observe(self, population: Population) -> None:
        pairs = []
        for individual in population:
            if individual.fitness is None:
                continue
            self._memo.setdefault(
                individual.genome_key(),
                (tuple(individual.measurements), individual.fitness,
                 individual.compile_failed, individual.screen_failed))
            prediction = self._predictions.get(individual.uid)
            if prediction is not None:
                pairs.append((prediction, individual.fitness))
        self._last_metrics = {
            "base": GeneticStrategy.name,
            "platform": self.arch.name,
            "simulated": self._simulated,
            "pruned": self._pruned,
            "replayed": self._replayed,
            "spearman": spearman([p for p, _ in pairs],
                                 [f for _, f in pairs]),
        }

    def generation_metrics(self, number: int) -> Optional[Dict[str, Any]]:
        """The surrogate record the engine attaches to
        :class:`~repro.core.engine.GenerationStats` (and stats.jsonl)."""
        return self._last_metrics

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "memo": dict(self._memo),
            "predictions": dict(self._predictions),
            "simulated": self._simulated,
            "pruned": self._pruned,
            "replayed": self._replayed,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        # Checkpoints from before pruned individuals had a status of
        # their own list them under "pruned_uids" with placeholder
        # fitnesses; checkpoints from when the ranker wrapped any
        # strategy carry the wrapped one's state under "base_state",
        # which is empty for the GA and so resumes.
        for key in ("pruned_uids", "base_state"):
            if state.get(key):
                raise ConfigError(
                    f"{self.name} checkpoint state carries {key!r}, "
                    "written by a version whose pruning this build no "
                    "longer resumes; re-run the search from generation 0")
        self._memo = dict(state.get("memo") or {})
        self._predictions = dict(state.get("predictions") or {})
        self._simulated = state.get("simulated", 0)
        self._pruned = state.get("pruned", 0)
        self._replayed = state.get("replayed", 0)
