"""Instruction-level vs abstract-workload GA (paper Section VII).

The paper's Table V discussion argues that instruction-level
optimisation (GeST's choice) beats abstract-workload models because
the abstract model "fails in optimizing the instruction order and the
instruction opcodes simply because these parameters are out of GA
control".  This experiment runs both framework styles against the same
platform, measurement, fitness and evaluation budget and compares the
best power each finds.  The abstract search is
:class:`~repro.abstractmodel.AbstractProfileStrategy`, run through the
same :func:`~repro.experiments.common.make_engine` call as the
instruction-level search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..abstractmodel import AbstractProfileStrategy, ProfileIndividual
from .common import (GAScale, VirusResult, evolve_virus, make_engine,
                     make_machine)

__all__ = ["AbstractComparisonResult", "abstract_comparison"]

ABSTRACT_SEED = 61


@dataclass
class AbstractComparisonResult:
    """Same budget, two framework styles."""

    instruction_level: VirusResult
    abstract_best: ProfileIndividual
    abstract_series: List[float]

    @property
    def instruction_level_power_w(self) -> float:
        return self.instruction_level.fitness

    @property
    def abstract_power_w(self) -> float:
        return self.abstract_best.fitness

    @property
    def advantage(self) -> float:
        """Instruction-level over abstract (>1 supports the paper)."""
        return self.instruction_level_power_w / self.abstract_power_w

    def render(self) -> str:
        return (
            "instruction-level vs abstract-workload GA "
            "(same platform, budget, measurement):\n"
            f"  instruction-level best: "
            f"{self.instruction_level_power_w:.3f} W (single core)\n"
            f"  abstract-model best:    "
            f"{self.abstract_power_w:.3f} W\n"
            f"  advantage:              x{self.advantage:.3f}\n"
            f"  winning abstract profile: "
            f"{self.abstract_best.profile.describe()}")


def abstract_comparison(platform: str = "cortex_a15",
                        seed: int = ABSTRACT_SEED,
                        scale: Optional[GAScale] = None
                        ) -> AbstractComparisonResult:
    """Run both searches with identical evaluation budgets."""
    scale = scale or GAScale(population_size=20, generations=25)

    instruction_level = evolve_virus(platform, "power", seed, scale=scale)

    abstract = make_engine(make_machine(platform, seed=seed), "power",
                           seed, scale,
                           strategy=AbstractProfileStrategy()).run()
    return AbstractComparisonResult(
        instruction_level=instruction_level,
        abstract_best=abstract.best_individual,
        abstract_series=abstract.best_fitness_series())
