"""Surrogate-assisted search: the GA with an online-learned fitness
model in front of the measurement.

``static_rank`` prunes offspring with a *fixed* analytical proxy; this
strategy learns the proxy instead, the NeuroScalar way: a ridge
regression (:class:`~repro.surrogate.model.RidgeModel`) over static
cost-model features plus a short-probe vector
(:class:`~repro.surrogate.features.SurrogateFeaturizer`), refit every
generation from the fitnesses the run has actually observed.  The
model keeps improving as the search runs — MicroGrad's metric-driven
feedback loop applied to the search's own evaluation budget.

On top of the shared pruning machinery (:mod:`repro.search.pruning`),
per generation:

1. fresh offspring are compiled by the measurement's compile and
   featurized in one batch on the measured machine's microarchitecture
   (static features priced on its tables, one probe pass on a private
   copy of it for the whole pool; rows are memoised per genome);
2. once the model has seen :attr:`SurrogateStrategy.MIN_TRAIN` rows it
   ranks them by predicted fitness, and an ε-draw promotes a few
   candidates below the cut for unbiased training data;
3. ``observe`` feeds the new (features, fitness) pairs back into the
   model.

Until the model is trained every candidate is simulated — the warm-up
generations anchor the search and the training set.  The model learns
only from the run's own measurements, so an evaluation cache never
changes what it prunes.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Optional, Tuple

from ..core.individual import Individual
from ..core.population import Population
from ..surrogate import RidgeModel, SurrogateFeaturizer
from .base import STRATEGIES
from .pruning import PruningStrategy

__all__ = ["SurrogateStrategy"]

#: Golden-ratio mixing constant decorrelating the exploration stream
#: from the GA seed (same constant as the evaluation noise keying).
_EXPLORE_MIX = 0x9E3779B97F4A7C15


@STRATEGIES.register("surrogate")
class SurrogateStrategy(PruningStrategy):
    """The GA with learned-model pruning.

    Takes no parameters; its settings are class constants, which a
    test overrides in a subclass.
    """

    name = "surrogate"
    #: Fraction of each generation's fresh offspring sent to full
    #: simulation once the model is trained.
    TOP_FRACTION = 0.4
    #: Per-candidate probability that a pruned offspring is promoted to
    #: simulation anyway — exploration keeps the training set unbiased
    #: at the cheap end of the ranking.  Drawn from a dedicated
    #: generation-keyed stream so the GA's RNG draws stay untouched.
    EPSILON = 0.1
    #: Short-probe cycle budget per fresh candidate (0 = static
    #: features only).  400 keeps the probe a quarter of the default
    #: full-measurement budget while roughly tripling the rank
    #: correlation over static-only features; whole generations probe
    #: in one batched pass either way.
    PROBE_CYCLES = 400
    #: Observed rows required before the model starts pruning; until
    #: then every candidate is simulated.
    MIN_TRAIN = 8

    def _bound(self) -> None:
        super()._bound()
        self._featurizer = SurrogateFeaturizer(
            self.config.template_text, self.arch, self.compile,
            probe_cycles=self.PROBE_CYCLES)
        self._model = RidgeModel()

        # Checkpointed via state_dict:
        #: genome key -> feature row, so replayed clones never
        #: re-featurize.
        self._feature_memo: Dict[Tuple, Dict[str, float]] = {}
        #: The observed training set; rows deduplicate on genome key.
        self._train_rows: List[Dict[str, float]] = []
        self._train_targets: List[float] = []
        self._trained_keys: set = set()
        self._explored = 0

    # -- the ranker ---------------------------------------------------------

    def _featurize(self, individuals: List[Individual]) -> None:
        """Memoise a feature row for every genome not featurized yet,
        batching them (one probe pass for the whole pool)."""
        new = [individual for individual in individuals
               if individual.genome_key() not in self._feature_memo]
        for individual, (_, row) in zip(
                new, self._featurizer.featurize_batch(new)):
            if row is not None:
                self._feature_memo[individual.genome_key()] = row

    def _predict(self, individuals: List[Individual]
                 ) -> Optional[Dict[int, float]]:
        """Featurize, then predict; unassemblable genomes have no
        feature row and are left out (they compile-fail to fitness 0,
        so they rank last and prune first)."""
        self._featurize(individuals)
        if not self._model.fitted:
            return None
        predictions: Dict[int, float] = {}
        for individual in individuals:
            row = self._feature_memo.get(individual.genome_key())
            if row is not None:
                predictions[individual.uid] = self._model.predict(row)
        return predictions

    def _explore(self, below_cut: List[Individual],
                 number: int) -> List[Individual]:
        """ε-exploration: each candidate below the cut may be promoted
        anyway.  The draws come from a generation-keyed stream —
        deterministic, resume-exact, and invisible to the GA's RNG."""
        seed = self.config.ga.seed or 0
        explore_rng = Random((seed * _EXPLORE_MIX + number) & (2 ** 64 - 1))
        promoted = [child for child in below_cut
                    if self.EPSILON and explore_rng.random() < self.EPSILON]
        self._explored = len(promoted)
        return promoted

    def observe(self, population: Population) -> None:
        super().observe(population)
        for individual in population:
            if individual.fitness is None:
                continue
            key = individual.genome_key()
            row = self._feature_memo.get(key)
            if row is not None and key not in self._trained_keys:
                self._trained_keys.add(key)
                self._train_rows.append(row)
                self._train_targets.append(individual.fitness)
        if len(self._train_rows) >= self.MIN_TRAIN:
            self._model.fit(self._train_rows, self._train_targets)
        self._last_metrics.update(
            explored=self._explored,
            training_size=len(self._train_rows),
            probe=self.PROBE_CYCLES)

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            **super().state_dict(),
            "feature_memo": dict(self._feature_memo),
            "train_rows": list(self._train_rows),
            "train_targets": list(self._train_targets),
            "trained_keys": sorted(self._trained_keys),
            "explored": self._explored,
            "model": self._model.state_dict(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        super().load_state(state)
        self._feature_memo = dict(state.get("feature_memo") or {})
        self._train_rows = list(state.get("train_rows") or [])
        self._train_targets = list(state.get("train_targets") or [])
        self._trained_keys = set(
            tuple(key) if isinstance(key, list) else key
            for key in state.get("trained_keys") or ())
        self._explored = state.get("explored", 0)
        self._model.load_state(state.get("model"))
