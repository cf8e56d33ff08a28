#!/usr/bin/env python3
"""Extending GeST: a custom measurement procedure and a custom fitness
function, plugged in without touching framework code (paper III.C).

This example builds a *thermal-efficiency* search on the simulated
X-Gene2 server: it measures temperature AND energy-per-instruction,
then optimises the paper's Equation-1 style multi-objective — here,
high temperature with a simple instruction stream — and contrasts the
result with the plain hottest-loop search.

The custom classes below follow exactly the paper's extension recipe:

* the measurement inherits ``Measurement``, declares the ``metric``
  its first value measures (which the ``static_rank`` strategy ranks
  by), and overrides ``init`` and ``measure``;
* the fitness inherits ``DefaultFitness`` and overrides
  ``get_fitness``;
* both are referenced by dotted class name in a main configuration
  document, so the stock CLI/engine can load them dynamically.

Run with::

    python examples/custom_fitness_and_measurement.py
"""

from typing import Dict, List

from repro.core import GAParameters, GeneticEngine, RunConfig
from repro.core.individual import Individual
from repro.core.loader import load_class
from repro.cpu import SimulatedMachine, SimulatedTarget
from repro.fitness import DefaultFitness, TemperatureSimplicityFitness
from repro.isa import arm_library, arm_template
from repro.measurement import Measurement


class ThermalEfficiencyMeasurement(Measurement):
    """Custom procedure: [temperature, energy-per-instruction, ipc].

    Mirrors how a user would script an i2c read plus two perf counters.
    """

    metric = "temperature"

    def init(self, params: Dict[str, str]) -> None:
        super().init(params)
        self.warmup_s = float(params.get("warmup", "1"))

    def measure(self, source_text: str,
                individual: Individual) -> List[float]:
        result = self.execute_on_target(source_text)
        # Energy per instruction in nanojoules: chip energy over the
        # run divided by instructions retired (modelled).
        cycles = result.trace.cycles
        instructions = max(1, result.trace.instructions_issued)
        joules_per_cycle = result.core_power_w / \
            self.target.machine.arch.frequency_hz
        epi_nj = joules_per_cycle * cycles / instructions * 1e9
        return [result.temperature_c, epi_nj, result.ipc]


def run_search(fitness, seed: int, label: str) -> Individual:
    machine = SimulatedMachine("xgene2", environment="os", seed=seed)
    target = SimulatedTarget(machine, hostname="xgene2-server")
    target.connect()
    ga = GAParameters(population_size=14, individual_size=30,
                      mutation_rate=0.04, generations=12, seed=seed)
    config = RunConfig(ga=ga, library=arm_library(),
                       template_text=arm_template())
    measurement = ThermalEfficiencyMeasurement(target, {"samples": "6"})
    engine = GeneticEngine(config, measurement, fitness)
    history = engine.run()
    best = history.best_individual
    print(f"\n[{label}]")
    print(f"  fitness {best.fitness:.4f}, "
          f"temperature {best.measurements[0]:.2f} C, "
          f"EPI {best.measurements[1]:.2f} nJ, "
          f"IPC {best.measurements[2]:.2f}")
    print(f"  unique opcodes: {best.unique_instruction_count()} "
          f"of {len(best)}")
    print(f"  mix: {best.instruction_mix()}")
    return best


def main() -> None:
    machine = SimulatedMachine("xgene2", environment="os", seed=0)

    # Plain search: hottest loop wins (DefaultFitness uses the first
    # measurement — temperature).
    plain = run_search(DefaultFitness(), seed=77, label="max temperature")

    # Equation-1 search: equal parts temperature score and instruction
    # simplicity.  MAX_T comes from the machine's single-core bound.
    complex_fitness = TemperatureSimplicityFitness(
        idle_temperature_c=machine.idle_temperature_c(),
        max_temperature_c=machine.max_temperature_c(active_cores=1))
    simple = run_search(complex_fitness, seed=78,
                        label="Equation 1: temperature + simplicity")

    print(f"\nsimplicity gain: {plain.unique_instruction_count()} -> "
          f"{simple.unique_instruction_count()} unique opcodes")

    # The dynamic-loading path the configuration file uses: classes are
    # resolvable by dotted name exactly like in the main config XML.
    cls = load_class(f"{__name__}.ThermalEfficiencyMeasurement") \
        if __name__ != "__main__" else ThermalEfficiencyMeasurement
    print(f"\nmeasurement class resolves as: {cls.__name__} "
          "(plug-and-play, no framework changes)")


if __name__ == "__main__":
    main()
