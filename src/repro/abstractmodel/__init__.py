"""Abstract-workload-model GA — the competing framework style of the
paper's Table V (MAMPO / SYMPO / Joshi et al.), implemented as a
:class:`~repro.core.engine.GeneticEngine` strategy so the
instruction-level-vs-abstract comparison runs both searches through
one generation loop."""

from .generator import generate_loop
from .profile import CATEGORIES, WorkloadProfile
from .strategy import AbstractProfileStrategy, ProfileIndividual

__all__ = [
    "AbstractProfileStrategy", "ProfileIndividual",
    "generate_loop",
    "CATEGORIES", "WorkloadProfile",
]
