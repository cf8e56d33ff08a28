"""Abstract workload profiles (paper Section VII).

The competing GA-framework design the paper compares against (MAMPO,
SYMPO, Joshi et al.): "the individual is a vector of workload related
parameters such as instruction-mix, register-dependency distance,
memory-stride profile, branch transition rates etc.  The GA operators
are performed on this abstract workload profile.  A workload generator
stochastically generates the assembly ... code based on the values of
the abstract model parameters."

:class:`WorkloadProfile` is that parameter vector.  It deliberately
lacks what the paper identifies as the abstract model's blind spots:
it cannot pin individual opcodes, operand values or instruction order —
only distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, Tuple

from ..core.errors import ConfigError

__all__ = ["CATEGORIES", "WorkloadProfile"]

#: The mix categories an abstract profile controls.
CATEGORIES: Tuple[str, ...] = ("int_short", "int_long", "float", "simd",
                               "mem_load", "mem_store", "branch")

#: Gene bounds.
_MIN_DEP, _MAX_DEP = 1, 12
_STRIDES = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class WorkloadProfile:
    """One abstract individual: mix weights + scalar knobs."""

    #: Relative weights per category (normalised at generation time).
    mix: Dict[str, float] = field(
        default_factory=lambda: {c: 1.0 for c in CATEGORIES})
    #: Register-reuse distance: how many distinct destination registers
    #: rotate before reuse (small = tight dependency chains).
    dependency_distance: int = 6
    #: Fraction of float/SIMD slots emitted as fused multiply-adds.
    fma_fraction: float = 0.5
    #: Memory offset stride in bytes.
    mem_stride: int = 16

    #: Standard deviation of a mutation's Gaussian step on a mix weight
    #: or the FMA fraction (a class constant, not a gene).
    MUTATION_SIGMA = 0.15

    def validate(self) -> None:
        if set(self.mix) != set(CATEGORIES):
            raise ConfigError(
                f"profile mix must cover exactly {CATEGORIES}")
        if any(w < 0 for w in self.mix.values()):
            raise ConfigError("mix weights must be non-negative")
        if sum(self.mix.values()) <= 0:
            raise ConfigError("at least one mix weight must be positive")
        if not _MIN_DEP <= self.dependency_distance <= _MAX_DEP:
            raise ConfigError(
                f"dependency distance outside [{_MIN_DEP}, {_MAX_DEP}]")
        if not 0.0 <= self.fma_fraction <= 1.0:
            raise ConfigError("fma fraction outside [0, 1]")
        if self.mem_stride not in _STRIDES:
            raise ConfigError(f"mem stride must be one of {_STRIDES}")

    # -- derived ------------------------------------------------------------

    def normalized_mix(self) -> Dict[str, float]:
        total = sum(self.mix.values())
        return {c: w / total for c, w in self.mix.items()}

    # -- GA operators over the vector genome ----------------------------------

    @classmethod
    def random(cls, rng: Random) -> "WorkloadProfile":
        profile = cls(
            mix={c: rng.random() for c in CATEGORIES},
            dependency_distance=rng.randint(_MIN_DEP, _MAX_DEP),
            fma_fraction=rng.random(),
            mem_stride=_STRIDES[rng.randrange(len(_STRIDES))],
        )
        # Guard against the (vanishingly unlikely) all-zero draw.
        if sum(profile.mix.values()) == 0:
            profile = replace(profile, mix={c: 1.0 for c in CATEGORIES})
        profile.validate()
        return profile

    def mutate(self, rng: Random) -> "WorkloadProfile":
        """Gaussian perturbation of one or two genes."""
        sigma = self.MUTATION_SIGMA
        mix = dict(self.mix)
        dep = self.dependency_distance
        fma = self.fma_fraction
        stride = self.mem_stride
        for _ in range(rng.randint(1, 2)):
            gene = rng.randrange(4)
            if gene == 0:
                category = CATEGORIES[rng.randrange(len(CATEGORIES))]
                mix[category] = max(0.0,
                                    mix[category] + rng.gauss(0.0, sigma))
            elif gene == 1:
                dep = min(_MAX_DEP, max(_MIN_DEP,
                                        dep + rng.choice((-2, -1, 1, 2))))
            elif gene == 2:
                fma = min(1.0, max(0.0, fma + rng.gauss(0.0, sigma)))
            else:
                stride = _STRIDES[rng.randrange(len(_STRIDES))]
        if sum(mix.values()) == 0:
            mix = {c: 1.0 for c in CATEGORIES}
        child = WorkloadProfile(mix=mix, dependency_distance=dep,
                                fma_fraction=fma, mem_stride=stride)
        child.validate()
        return child

    def crossover(self, other: "WorkloadProfile",
                  rng: Random) -> "WorkloadProfile":
        """Arithmetic blend of the two parents' vectors."""
        alpha = rng.random()
        mix = {c: alpha * self.mix[c] + (1 - alpha) * other.mix[c]
               for c in CATEGORIES}
        dep = round(alpha * self.dependency_distance
                    + (1 - alpha) * other.dependency_distance)
        child = WorkloadProfile(
            mix=mix,
            dependency_distance=min(_MAX_DEP, max(_MIN_DEP, dep)),
            fma_fraction=alpha * self.fma_fraction
            + (1 - alpha) * other.fma_fraction,
            mem_stride=self.mem_stride if rng.random() < 0.5
            else other.mem_stride,
        )
        child.validate()
        return child

    def describe(self) -> str:
        mix = self.normalized_mix()
        parts = ", ".join(f"{c}={mix[c]:.2f}" for c in CATEGORIES
                          if mix[c] >= 0.01)
        return (f"mix[{parts}], dep={self.dependency_distance}, "
                f"fma={self.fma_fraction:.2f}, stride={self.mem_stride}")
