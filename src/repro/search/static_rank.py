"""Static-cost-model pruning: the ``static_rank`` strategy.

The static cost model prices a candidate for far less than one
simulated measurement, so a whole generation can be ranked before any
of it is measured.  This strategy ranks the GA's fresh offspring by
:func:`repro.staticcheck.costmodel.static_score` of their compiled
programs on the measured machine's microarchitecture and measures only
the top half; the shared machinery (replay memo, cut, pruned status,
Spearman record, checkpoint state) lives in
:mod:`repro.search.pruning`.  The ranker draws no randomness.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..core.errors import AssemblyError
from ..core.individual import Individual
from ..core.population import Population
from ..core.template import Template
from ..staticcheck.costmodel import INTENT_PORTS, static_score
from .base import STRATEGIES
from .pruning import PruningStrategy

__all__ = ["StaticRankStrategy"]


def _metric(value: Any) -> str:
    """A metric :func:`static_score` prices: ``ipc`` or one of the
    power family.  Anything else (a typo, ``IPC``) would silently rank
    by the power proxy, so it is refused."""
    metric = str(value)
    if metric not in INTENT_PORTS:
        raise ValueError(f"expected one of {', '.join(INTENT_PORTS)}")
    return metric


@STRATEGIES.register("static_rank")
class StaticRankStrategy(PruningStrategy):
    """The GA with static-cost-model pruning.

    Its one parameter, ``metric``, is what :func:`static_score`
    predicts — ``ipc`` (the default) or one of the power-family metrics
    (``power``/``energy``/``temperature``/``didt``) — so a power search
    ranks by ``metric="power"``.  Half of each generation's fresh
    offspring go to full simulation; generation 0 is always fully
    measured — it anchors the search and the first Spearman record.
    """

    name = "static_rank"
    PARAMS = {"metric": (_metric, "ipc")}
    TOP_FRACTION = 0.5

    def _bound(self) -> None:
        super()._bound()
        self._template = Template(self.config.template_text)
        self._metric = self.params["metric"]
        #: genome key -> static score; elitism clones and replayed
        #: genomes recur every generation, and their static score is a
        #: pure function of the genome, so it is never recomputed.
        self._score_memo: Dict[Tuple, float] = {}

    def _score(self, individual: Individual) -> float:
        """Static predicted fitness; -inf for unassemblable genomes
        (they would compile-fail to fitness 0 anyway, so they rank
        last and are the first pruned).  Memoised per genome."""
        key = individual.genome_key()
        cached = self._score_memo.get(key)
        if cached is not None:
            return cached
        source = self._template.instantiate(individual.render_body())
        try:
            program = self.compile(source)
        except AssemblyError:
            score = float("-inf")
        else:
            score = static_score(program, self.arch, self._metric)
        self._score_memo[key] = score
        return score

    def _predict(self, individuals: List[Individual]) -> Dict[int, float]:
        return {individual.uid: self._score(individual)
                for individual in individuals}

    def observe(self, population: Population) -> None:
        super().observe(population)
        self._last_metrics["metric"] = self._metric

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(),
                "score_memo": dict(self._score_memo)}

    def load_state(self, state: Dict[str, Any]) -> None:
        super().load_state(state)
        self._score_memo = dict(state.get("score_memo") or {})
