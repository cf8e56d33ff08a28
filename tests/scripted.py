"""The tests' scripted measurement.

The engine measures only :class:`~repro.measurement.base.Measurement`
subclasses on a simulated machine, so the in-memory measurement the
engine-mechanics tests use is one too: :class:`ScriptedMeasurement`
sits on a cortex_a15 target and the pipeline compiles each source for
it like for any other procedure, but its ``measure`` returns what a
script computes from the individual's genome.  Seeding, breeding,
elitism, recording and failure handling are then tested without
simulating a pipeline.
"""

from repro.core.errors import AssemblyError
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.measurement.base import Measurement


def ldr_count(individual):
    """One value: the number of LDR instructions."""
    return [float(sum(1 for i in individual.instructions
                      if i.name == "LDR"))]


def ldr_pair(individual):
    """Two values: the LDR count and the LDR count plus one."""
    score = ldr_count(individual)[0]
    return [score, score + 1.0]


def nop_fails(individual):
    """:func:`ldr_pair`, but a NOP-bearing individual is a compile
    failure."""
    if any(i.name == "NOP" for i in individual.instructions):
        raise AssemblyError("synthetic compile failure")
    return ldr_pair(individual)


class ScriptedMeasurement(Measurement):
    """``measure`` returns ``script(individual)`` (default
    :func:`ldr_count`) and counts its calls in :attr:`calls`; ``params``
    are the usual measurement parameters."""

    def __init__(self, script=ldr_count, params=None):
        super().__init__(SimulatedTarget(SimulatedMachine("cortex_a15")),
                         params)
        self.script = script
        self.calls = 0

    def measure(self, source_text, individual):
        self.calls += 1
        return self.script(individual)
