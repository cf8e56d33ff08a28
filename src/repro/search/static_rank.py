"""Static-cost-model pruning: the ``static_rank`` strategy.

The static cost model prices a candidate for far less than one
simulated measurement, so a whole generation can be ranked before any
of it is measured.  This strategy ranks the GA's fresh offspring by
:func:`repro.staticcheck.costmodel.static_score` of their compiled
programs, for the run's measurement metric, on the measured machine's
microarchitecture and measures only the top half; the shared machinery
(replay memo, cut, pruned status, Spearman record, checkpoint state)
lives in :mod:`repro.search.pruning`.  The ranker draws no randomness
and keeps no state: a recurring genome's program comes back from the
compile cache with its dependence summary built.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.errors import AssemblyError, ConfigError
from ..core.individual import Individual
from ..core.population import Population
from ..core.template import Template
from ..staticcheck.costmodel import INTENT_PORTS, static_score
from .base import STRATEGIES
from .pruning import PruningStrategy

__all__ = ["StaticRankStrategy"]


@STRATEGIES.register("static_rank")
class StaticRankStrategy(PruningStrategy):
    """The GA with static-cost-model pruning.

    It ranks by the bound measurement's metric, which must be one
    :func:`static_score` prices (``ipc`` or the power family
    ``power``/``energy``/``temperature``/``didt``); any other is
    refused at bind.  Half of each generation's fresh offspring go to
    full simulation; generation 0 is always fully measured — it
    anchors the search and the first Spearman record.
    """

    name = "static_rank"
    TOP_FRACTION = 0.5

    def _bound(self) -> None:
        super()._bound()
        if self.metric not in INTENT_PORTS:
            raise ConfigError(
                f"search strategy {self.name!r} cannot rank by "
                f"{self.metric!r}, the metric the measurement class "
                f"declares; static_score prices {', '.join(INTENT_PORTS)}",
                diagnostic_code="SC210")
        self._template = Template(self.config.template_text)

    def _score(self, individual: Individual) -> float:
        """Static predicted fitness; -inf for unassemblable genomes
        (they would compile-fail to fitness 0 anyway, so they rank
        last and are the first pruned)."""
        source = self._template.instantiate(individual.render_body())
        try:
            program = self.compile(source)
        except AssemblyError:
            return float("-inf")
        return static_score(program, self.arch, self.metric)

    def _predict(self, individuals: List[Individual]) -> Dict[int, float]:
        return {individual.uid: self._score(individual)
                for individual in individuals}

    def observe(self, population: Population) -> None:
        super().observe(population)
        self._last_metrics["metric"] = self.metric
