"""Unit tests for configuration parsing (repro.core.config)."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import (GAParameters, RunConfig, config_to_xml,
                               measurement_config_to_xml, parse_config_file,
                               parse_config_text, parse_measurement_config)
from repro.core.errors import ConfigError
from repro.isa.catalogs import write_stock_config


def _minimal_xml(tmp_path, extra="", ga_attrs=""):
    (tmp_path / "template.s").write_text(".loop\n#loop_code\n.endloop\n")
    return f"""
<gest_config>
  <ga {ga_attrs}/>
  <paths results_dir="results" template="template.s"/>
  {extra}
  <operands>
    <operand id="dst" type="register" values="x1 x2"/>
    <operand id="imm" type="immediate" min="0" max="16" stride="8"/>
  </operands>
  <instructions>
    <instruction name="ADD" num_of_operands="2" operand1="dst"
                 operand2="dst" format="add op1, op1, op2"
                 type="int_short"/>
    <instruction name="MOVI" num_of_operands="2" operand1="dst"
                 operand2="imm" format="mov op1, #op2" type="int_short"/>
  </instructions>
</gest_config>
"""


class TestGAParameters:
    def test_paper_table1_defaults(self):
        """Table I: population 50, one-point crossover, elitism on,
        tournament selection of size 5, mutation within 0.02-0.08."""
        ga = GAParameters()
        assert ga.population_size == 50
        assert ga.crossover_operator == "one_point"
        assert ga.elitism is True
        assert ga.parent_selection_method == "tournament"
        assert ga.tournament_size == 5
        assert 0.02 <= ga.mutation_rate <= 0.08
        assert 15 <= ga.individual_size <= 50

    def test_expected_mutations_rule_of_thumb(self):
        """2% at 50 instructions and 8% at ~15 both target ≈1 mutation
        per individual."""
        at_50 = GAParameters(individual_size=50, mutation_rate=0.02)
        at_15 = GAParameters(individual_size=15, mutation_rate=0.08)
        assert at_50.expected_mutations_per_individual() == \
            pytest.approx(1.0)
        assert at_15.expected_mutations_per_individual() == \
            pytest.approx(1.2)

    @pytest.mark.parametrize("field,value", [
        ("population_size", 1),
        ("individual_size", 0),
        ("mutation_rate", -0.1),
        ("mutation_rate", 1.1),
        ("tournament_size", 0),
        ("generations", 0),
        ("operand_mutation_share", 2.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        ga = GAParameters(**{field: value})
        with pytest.raises(ConfigError):
            ga.validate()

    def test_unknown_crossover_rejected(self):
        with pytest.raises(ConfigError, match="one_point"):
            GAParameters(crossover_operator="two_point").validate()

    def test_unknown_selection_rejected(self):
        # The error lists the registry's valid choices (single source
        # of truth with repro.search).
        with pytest.raises(ConfigError, match="tournament"):
            GAParameters(parent_selection_method="lottery").validate()

    def test_registry_backed_selection_methods_accepted(self):
        for method in ("tournament", "roulette", "rank"):
            GAParameters(parent_selection_method=method).validate()


class TestParseConfigText:
    def test_minimal_document(self, tmp_path):
        config = parse_config_text(_minimal_xml(tmp_path),
                                   base_dir=tmp_path)
        assert len(config.library) == 2
        assert config.ga.population_size == 50   # default applies
        assert config.results_dir == tmp_path / "results"

    def test_ga_attributes_parsed(self, tmp_path):
        xml = _minimal_xml(
            tmp_path,
            ga_attrs='population_size="12" individual_size="15" '
                     'mutation_rate="0.08" crossover_operator="uniform" '
                     'elitism="false" tournament_size="3" '
                     'generations="7" seed="123"')
        config = parse_config_text(xml, base_dir=tmp_path)
        ga = config.ga
        assert (ga.population_size, ga.individual_size) == (12, 15)
        assert ga.mutation_rate == pytest.approx(0.08)
        assert ga.crossover_operator == "uniform"
        assert ga.elitism is False
        assert ga.tournament_size == 3
        assert ga.generations == 7
        assert ga.seed == 123

    def test_measurement_and_fitness_classes(self, tmp_path):
        xml = _minimal_xml(
            tmp_path,
            extra='<measurement class="repro.measurement.ipc.'
                  'IPCMeasurement"/>'
                  '<fitness class="repro.fitness.default_fitness.'
                  'DefaultFitness"/>')
        config = parse_config_text(xml, base_dir=tmp_path)
        assert config.measurement_class.endswith("IPCMeasurement")
        assert config.fitness_class.endswith("DefaultFitness")

    def test_operand_pools_parsed(self, tmp_path):
        config = parse_config_text(_minimal_xml(tmp_path),
                                   base_dir=tmp_path)
        dst = config.library.operand("dst")
        imm = config.library.operand("imm")
        assert list(dst.choices()) == ["x1", "x2"]
        assert list(imm.choices()) == ["0", "8", "16"]

    def test_instruction_formats_parsed(self, tmp_path):
        config = parse_config_text(_minimal_xml(tmp_path),
                                   base_dir=tmp_path)
        spec = config.library.spec("ADD")
        assert spec.render(["x1", "x2"]) == "add x1, x1, x2"

    def test_template_loaded_from_path(self, tmp_path):
        config = parse_config_text(_minimal_xml(tmp_path),
                                   base_dir=tmp_path)
        assert "#loop_code" in config.template_text

    def test_missing_template_file(self, tmp_path):
        xml = _minimal_xml(tmp_path).replace("template.s", "nope.s")
        with pytest.raises(ConfigError, match="template"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_undefined_operand_reference_terminates(self, tmp_path):
        xml = _minimal_xml(tmp_path).replace('operand1="dst"',
                                             'operand1="ghost"')
        with pytest.raises(ConfigError, match="undefined|unknown"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_bad_root_element(self, tmp_path):
        with pytest.raises(ConfigError, match="gest_config"):
            parse_config_text("<wrong/>", base_dir=tmp_path)

    def test_invalid_xml(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid XML"):
            parse_config_text("<gest_config>", base_dir=tmp_path)

    def test_missing_instructions_element(self, tmp_path):
        (tmp_path / "template.s").write_text("#loop_code\n")
        xml = ("<gest_config><paths template='template.s'/>"
               "</gest_config>").replace("'", '"')
        with pytest.raises(ConfigError, match="instructions"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_missing_paths_element(self, tmp_path):
        with pytest.raises(ConfigError, match="paths"):
            parse_config_text("<gest_config></gest_config>",
                              base_dir=tmp_path)

    def test_unknown_operand_type(self, tmp_path):
        xml = _minimal_xml(tmp_path).replace('type="immediate"',
                                             'type="weird"')
        with pytest.raises(ConfigError, match="unknown type"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_non_integer_immediate_bound(self, tmp_path):
        xml = _minimal_xml(tmp_path).replace('min="0"', 'min="zero"')
        with pytest.raises(ConfigError):
            parse_config_text(xml, base_dir=tmp_path)

    def test_bad_boolean(self, tmp_path):
        xml = _minimal_xml(tmp_path, ga_attrs='elitism="maybe"')
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text(xml, base_dir=tmp_path)

    def test_seed_population_reference(self, tmp_path):
        xml = _minimal_xml(
            tmp_path, extra='<seed_population file="prev/pop.bin"/>')
        config = parse_config_text(xml, base_dir=tmp_path)
        assert config.seed_population_file == tmp_path / "prev/pop.bin"


class TestParseConfigFile:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        xml = _minimal_xml(tmp_path)
        config_path = tmp_path / "config.xml"
        config_path.write_text(xml)
        config = parse_config_file(config_path)
        assert "#loop_code" in config.template_text

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "none.xml")


class TestMeasurementConfig:
    def test_params_parsed(self, tmp_path):
        path = tmp_path / "m.xml"
        path.write_text('<measurement_config>'
                        '<param name="cores" value="8"/>'
                        '<param name="samples" value="20"/>'
                        '</measurement_config>')
        assert parse_measurement_config(path) == {"cores": "8",
                                                  "samples": "20"}

    def test_bad_root(self, tmp_path):
        path = tmp_path / "m.xml"
        path.write_text("<nope/>")
        with pytest.raises(ConfigError):
            parse_measurement_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_measurement_config(tmp_path / "m.xml")


class TestRoundTrip:
    def test_config_to_xml_round_trips(self, tmp_path):
        original = parse_config_text(_minimal_xml(tmp_path),
                                     base_dir=tmp_path)
        xml = config_to_xml(original, template_filename="template.s")
        # Re-parse the serialised document from the same base dir.
        reparsed = parse_config_text(xml, base_dir=tmp_path)
        assert reparsed.ga == original.ga
        assert set(reparsed.library.names) == set(original.library.names)
        for name in original.library.names:
            assert reparsed.library.variant_count(name) == \
                original.library.variant_count(name)

    def test_measurement_config_round_trips(self, tmp_path):
        params = {"cores": "8", "label": 'a "quoted" <value> & more'}
        path = tmp_path / "measurement.xml"
        path.write_text(measurement_config_to_xml(params))
        assert parse_measurement_config(path) == params

    def test_recorded_config_reproduces_its_run(self, tmp_path):
        bundle = write_stock_config(tmp_path / "bundle", "arm", "power",
                                    population_size=4, individual_size=8,
                                    generations=2)
        (tmp_path / "bundle" / "measurement.xml").write_text(
            measurement_config_to_xml({"duration": "5", "samples": "3",
                                       "cores": "1"}))

        def run(config_path, results):
            rc = main(["run", str(config_path), "--platform", "cortex_a7",
                       "--generations", "1", "--seed", "7",
                       "--results", str(tmp_path / results), "--quiet"])
            assert rc == 0
            return tmp_path / results

        first = run(bundle, "first")
        recorded = parse_config_file(first / "config.xml")
        assert recorded.measurement_params == \
            parse_config_file(bundle).measurement_params
        second = run(first / "config.xml", "second")
        population = Path("populations") / "population_0.bin"
        assert (second / population).read_bytes() == \
            (first / population).read_bytes()

    def test_stock_config_round_trips(self, tmp_path):
        config_path = write_stock_config(tmp_path, "x86", "didt")
        config = parse_config_file(config_path)
        assert config.measurement_class.endswith("OscilloscopeMeasurement")
        assert config.measurement_params["cores"] == "1"
        assert len(config.library) > 10
