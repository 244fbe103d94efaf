"""Mutation check: each mutant is one small edit that a named test must catch.

Run from the root of a checkout, with the test dependencies installed:

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py s22_a_d_swapped slot_reads_column_0

The tree's `src/`, `tests/` and `pyproject.toml` are copied to a temporary
directory. Each mutant replaces one text, which must occur exactly once,
in one file of the copy, runs the tests that should catch it with pytest
(hypothesis seeded with 0, so each run draws the same examples), and puts
the file back. A mutant survives when none of those tests fails.
An equivalent mutant changes no result, so it is expected to survive and
is run to show that it still does. The script prints one line per mutant
and exits 1 if a mutant that should be caught survives, or if a text is
not found exactly once.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids that should fail
    equivalent: bool = False


MODULES = ("network", "analysis", "fitting", "touchstone", "netlist", "geometry", "elements",
           "errors", "cli")
NETWORK, ANALYSIS, FITTING, TOUCHSTONE, NETLIST, GEOMETRY, ELEMENTS, ERRORS, CLI = (
    f"src/rfladder/{m}.py" for m in MODULES
)
(TEST_NETWORK, TEST_ANALYSIS, TEST_FITTING, TEST_TOUCHSTONE, TEST_NETLIST, TEST_GEOMETRY,
 TEST_ELEMENTS) = (f"tests/test_{m}.py" for m in MODULES[:-2])
TEST_DOMAINS = "tests/test_domains.py"
TEST_PACKAGE = "tests/test_package.py"
INIT = "src/rfladder/__init__.py"
HOLDS = f"{TEST_PACKAGE}::test_each_checked_public_dataclass_holds_what_it_checked"
WALK = f"{TEST_DOMAINS}::test_each_site_refuses_by_its_table_rule"
BIT_ORACLE = f"{TEST_NETWORK}::test_every_evaluation_equals_the_out_of_place_walk_to_the_bit"
# `FitProblem`'s options, each checked by `require` and stored as what it returned
PROBLEM_OPTIONS = ("max_iterations", "restarts", "seed", "tolerance")
PROBLEM_CHECK = "require(name, getattr(self, name), InputError)"
PROBLEM_STORE = f"object.__setattr__(self, name, {PROBLEM_CHECK})"

MUTANTS = (
    Mutant(
        "s22_a_d_swapped", NETWORK,
        "_into(operator.sub, m[1] - az, czz), dz)",
        "_into(operator.sub, m[1] - m[3] * z02, czz), m[0] * z01)",
        (f"{TEST_NETWORK}::test_s_conversion_shares_its_terms_without_reordering_them",
         f"{TEST_NETWORK}::test_lossless_port_2_conserves_power_and_is_orthogonal_to_port_1",
         f"{TEST_NETWORK}::test_lossy_s_matrix_is_passive",
         f"{TEST_NETWORK}::test_s22_is_the_s11_of_the_mirrored_ladder"),
    ),
    Mutant(
        "output_reference_zero_accepted", NETWORK,
        'require("reference impedances", z02, NonPositiveImpedance)',
        'if not 0 <= z02 < math.inf: raise NonPositiveImpedance("z02")',
        (f"{TEST_NETWORK}::test_abcd_to_s_rejects_bad_references_and_a_vanishing_denominator",),
    ),
    Mutant(
        "conjugated_line", NETWORK,
        "(cos, 1j * z0 * sin, 1j / z0 * sin, cos)", "(cos, -1j * z0 * sin, -1j / z0 * sin, cos)",
        (f"{TEST_NETWORK}::test_tline_quarter_wave",
         f"{TEST_NETWORK}::test_sweep_matches_the_full_product_cascade",
         f"{TEST_NETWORK}::test_batch_s11_matches_the_full_product_cascade",
         f"{TEST_NETWORK}::test_sweep_matches_impedance_folding_oracle",
         "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline"),
    ),
    # the walk's one jw, and the sweep's angular frequencies
    Mutant("walk_jw_conjugated", NETWORK,
           "jw = 1j * w", "jw = -1j * w",
           (f"{TEST_NETWORK}::test_sweep_matches_the_full_product_cascade",
            f"{TEST_NETWORK}::test_batch_s11_matches_the_full_product_cascade",
            f"{TEST_NETWORK}::test_sweep_matches_impedance_folding_oracle", BIT_ORACLE,
            "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline")),
    Mutant("sweep_walks_hertz", NETWORK,
           "_walk(ladder, 2.0 * np.pi * freqs[block], lines=lines)",
           "_walk(ladder, freqs[block], lines=lines)",
           (f"{TEST_NETWORK}::test_sweep_matches_the_full_product_cascade",
            f"{TEST_NETWORK}::test_sweep_matches_impedance_folding_oracle", BIT_ORACLE,
            "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline")),
    # the in-place helper: numpy's refusal uncaught or its casting loosened, and its write
    # aimed at the operand it must not touch
    Mutant("into_refusal_uncaught", NETWORK,
           "except (TypeError, ValueError):", "except ():",
           (BIT_ORACLE, f"{TEST_NETWORK}::test_chain_matrix_entry_types_and_shapes")),
    Mutant("into_casts_unsafely", NETWORK,
           "out=y if into_y else x)", 'out=y if into_y else x, casting="unsafe")', (BIT_ORACLE,)),
    Mutant("into_writes_the_other_operand", NETWORK,
           "out=y if into_y else x)", "out=x if into_y else y)",
           (BIT_ORACLE, f"{TEST_NETWORK}::test_sweep_matches_the_full_product_cascade",
            "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline")),
    # the sweep grid's line memo: a key that leaves out a line value, and a hit unchecked
    Mutant("line_memo_key_without_len", NETWORK,
           'for name in ("eps_eff", "len")]', 'for name in ("eps_eff",)]',
           (f"{TEST_NETWORK}::test_a_grid_serves_each_ladder_the_sweep_of_a_fresh_grid",)),
    Mutant("line_memo_key_without_eps_eff", NETWORK,
           'for name in ("eps_eff", "len")]', 'for name in ("len",)]',
           (f"{TEST_NETWORK}::test_a_grid_serves_each_ladder_the_sweep_of_a_fresh_grid",)),
    Mutant("line_memo_hit_unchecked", NETWORK,
           "if memo is None or memo[0] != key:", "if memo is None:",
           (f"{TEST_NETWORK}::test_a_grid_serves_each_ladder_the_sweep_of_a_fresh_grid",
            f"{TEST_FITTING}::test_a_row_with_a_free_line_value_equals_its_sweep_while_the_grid"
            "_holds_a_line")),
    Mutant("line_tables_warn", NETWORK,
           'with np.errstate(over="ignore", invalid="ignore"):\n                tables',
           "if True:\n                tables",
           (f"{TEST_NETWORK}::test_an_overflowing_line_is_not_finite_on_a_fresh_and_a_held_grid",
            "tests/test_cli.py::test_simulate_an_overflowing_line_exits_3_with_no_warning",
            "tests/test_fuzz.py::test_fuzz_netlist_parse_serialize_sweep")),
    Mutant("grid_pickles_its_caches", NETWORK, "return asdict(self)", "return dict(self.__dict__)",
           (f"{TEST_NETWORK}::test_a_copied_or_unpickled_grid_keeps_no_caches_and_sweeps_as_the"
            "_original",)),
    Mutant(
        "slot_reads_column_0", NETWORK,
        "{p: values[:, j, None] for p, j in slots}", "{p: values[:, 0, None] for p, j in slots}",
        (f"{TEST_FITTING}::test_compiled_objective_equals_the_sweep",
         f"{TEST_FITTING}::test_compiled_objective_equals_cost_row_by_row",
         f"{TEST_FITTING}::test_criterion_10_trials_unchanged",
         f"{TEST_FITTING}::test_mask_fits_pinned"),
    ),
    Mutant(
        "efficiency_as_a_plain_mean", ANALYSIS,
        "np.trapezoid(power, xs) / (xs[-1] - xs[0])", "np.mean(power)",
        (f"{TEST_ANALYSIS}::test_mismatch_efficiency_is_the_exact_integral_on_a_non_uniform_grid",
         "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline"),
    ),
    Mutant(
        "unclipped_band_edge", ANALYSIS,
        "edge[k] = np.clip(x, f[np.minimum(i, o)], f[np.maximum(i, o)])", "edge[k] = x",
        (f"{TEST_ANALYSIS}::test_property_band_edges_stay_between_their_samples",
         f"{TEST_ANALYSIS}::test_band_edge_at_a_threshold_sample_is_not_inverted",
         "tests/test_cli.py::test_bandwidth_threshold_exact_sample_exits_0"),
    ),
    Mutant(
        "narrowest_band_as_widest", ANALYSIS,
        "widest = max(range(len(bands))", "widest = min(range(len(bands))",
        (f"{TEST_ANALYSIS}::test_band_report_picks_widest",),
    ),
    Mutant(
        "interp_brackets_left", ANALYSIS,
        'side="right"', 'side="left"',
        (TEST_ANALYSIS, "tests/test_acceptance.py", "tests/test_cli.py"),
        equivalent=True,  # at a sample both brackets interpolate to its own value
    ),
    Mutant(
        "mean_square_divisor_off_by_one", FITTING,
        "/ max(residuals.shape[-1], 1)", "/ max(residuals.shape[-1] - 1, 1)",
        (f"{TEST_FITTING}::test_cost_flat_mask_violation",
         f"{TEST_FITTING}::test_cost_mask_counts_only_covered_points",
         f"{TEST_FITTING}::test_fit_stop_reasons",
         f"{TEST_FITTING}::test_noisy_target_fit_unchanged"),
    ),
    Mutant(
        "upward_only_probes", FITTING,
        "v + (_FD_STEP if v + _FD_STEP <= h else -_FD_STEP)", "v + _FD_STEP",
        (f"{TEST_FITTING}::test_criterion_10_trials_unchanged",
         f"{TEST_FITTING}::test_restart_runs_only_after_runs_above_the_floor",
         f"{TEST_FITTING}::test_mask_fits_pinned"),
    ),
    Mutant(
        "bound_hold_ignored", FITTING,
        "if (v <= l and gi > 0) or (v >= h and gi < 0)]", "if False]",
        (f"{TEST_FITTING}::test_optimizer_respects_bounds",
         f"{TEST_FITTING}::test_lm_checks_each_candidate_against_its_domain",
         f"{TEST_FITTING}::test_mask_fits_pinned"),
    ),
    Mutant(
        "bound_check_once_per_fit_deleted", FITTING,
        'require(f"{s}.{p}", v, NonPositiveParameter)', "pass",
        (f"{TEST_FITTING}::test_fit_checks_each_candidate_against_its_domain",
         f"{TEST_FITTING}::test_lm_checks_each_candidate_against_its_domain"),
    ),
    Mutant(
        "read_back_keeps_signed_zeros", TOUCHSTONE,
        "table[:, shown] + 0.0", "table[:, shown]",
        (f"{TEST_TOUCHSTONE}::test_read_back_is_the_parsed_trace_bit_for_bit",),
    ),
    Mutant(
        "raw_finite_fields_unchecked", TOUCHSTONE,
        "ok.all() and np.isfinite(data).all()", "ok.all()",
        (f"{TEST_TOUCHSTONE}::test_non_finite_fields_rejected_at_their_line",),
    ),
    Mutant(
        "s12_reused_when_only_equal", TOUCHSTONE,
        "if s12.tobytes() == trace.s21.tobytes():", "if np.array_equal(s12, trace.s21):",
        (f"{TEST_TOUCHSTONE}::test_s12_is_written_as_its_own_columns_whatever_it_shares",),
    ),
    Mutant(
        "rows_joined_in_sorted_column_order", TOUCHSTONE,
        "for j in shown", "for j in sorted(shown)",
        (f"{TEST_TOUCHSTONE}::test_property_ri_round_trip_exact",
         f"{TEST_TOUCHSTONE}::test_criterion_9_sweep_bytes_equal_value_by_value_rendering",
         f"{TEST_TOUCHSTONE}::test_polar_columns_are_the_analysis_magnitude_and_db",
         f"{TEST_TOUCHSTONE}::test_s12_is_written_as_its_own_columns_whatever_it_shares",
         f"{TEST_TOUCHSTONE}::test_read_back_is_the_parsed_trace_bit_for_bit",
         f"{TEST_TOUCHSTONE}::test_property_read_back_is_the_parsed_trace",
         "tests/test_cli.py::test_simulate_holds_the_trace_its_file_reads_back_as"),
    ),
    Mutant(
        "eps_eff_least_value_halved", ERRORS,
        '"eps_eff": (1.0, True)', '"eps_eff": (0.5, True)',
        (f"{TEST_NETLIST}::test_non_positive_values_rejected",
         "tests/test_cli.py::test_fit_eps_eff_keeps_its_low_bound_in_domain"),
    ),
    Mutant(
        "mm_exponent_off_by_one", GEOMETRY,
        '{"mm": -3, "m": 0}', '{"mm": -2, "m": 0}',
        (f"{TEST_GEOMETRY}::test_canonical_totals",
         f"{TEST_GEOMETRY}::test_cavity_override_lines",
         f"{TEST_GEOMETRY}::test_cavity_override_units",
         "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline"),
    ),
    Mutant(
        "db_divisor_10", NETWORK,
        "return 10.0 ** (db / 20.0)", "return 10.0 ** (db / 10.0)",
        (f"{TEST_NETWORK}::test_magnitude_db_clamps_zero",
         f"{TEST_ANALYSIS}::test_mismatch_efficiency_linear_power_oracle",
         f"{TEST_ANALYSIS}::test_band_report_flat_m15",
         f"{TEST_TOUCHSTONE}::test_read_db_row",
         "tests/test_acceptance.py::test_criterion_9_end_to_end_pipeline"),
    ),
    # each refusal of a non-finite value or a wrong count, put back to the check it
    # replaced (or deleted), lets that value through
    Mutant("trace_reference_count_unchecked", NETWORK,
           "if len(refs) != 2:", "if False:",
           (f"{TEST_NETWORK}::test_trace_validation",)),
    Mutant("target_db_unchecked", FITTING,
           "_db(target)\n        z_target", "z_target",
           (f"{TEST_FITTING}::test_problem_validation",)),
    Mutant("db_nonfinite_accepted", ANALYSIS,
           "if not math.isfinite(db.max()):", "if False:",
           (f"{TEST_ANALYSIS}::test_a_trace_whose_s11_db_is_not_finite_is_refused",
            "tests/test_cli.py::test_a_trace_whose_s11_db_overflows_exits_2_naming_its_frequency")),
    Mutant("band_edge_check_lets_nan_through", ANALYSIS,
           "not f[0] <= f_lo <= f_hi <= f[-1]", "f_lo > f_hi or f_lo < f[0] or f_hi > f[-1]",
           (f"{TEST_ANALYSIS}::test_mismatch_efficiency_band_checks",)),
    Mutant("band_threshold_unchecked", ANALYSIS,
           "if not math.isfinite(threshold_db):\n        raise InputError(f\"threshold_db must be"
           " finite, got {threshold_db}\")\n    # each run", "# each run",
           (f"{TEST_ANALYSIS}::test_non_finite_thresholds_refused",)),
    Mutant("compare_threshold_unchecked", ANALYSIS,
           "if not math.isfinite(threshold_db):\n        raise InputError(f\"threshold_db must be"
           " finite, got {threshold_db}\")\n    za", "za",
           (f"{TEST_ANALYSIS}::test_non_finite_thresholds_refused",)),
    Mutant("resonance_inductance_infinity_accepted", ANALYSIS,
           'require("inductance", inductance, NonPositiveElement)',
           'if not inductance > 0: raise NonPositiveElement("inductance")',
           (f"{TEST_ANALYSIS}::test_resonant_frequency_scaling",)),
    Mutant("resonance_capacitance_infinity_accepted", ANALYSIS,
           'require("capacitance", capacitance, NonPositiveElement)',
           'if not capacitance > 0: raise NonPositiveElement("capacitance")',
           (f"{TEST_ANALYSIS}::test_resonant_frequency_scaling",)),
    *(Mutant(f"lumped_{name}_{value}_accepted", ELEMENTS,
             "require(name, value, NonPositiveElement)",
             f'value if name == "{name}" and {rule} else require(name, value, NonPositiveElement)',
             (f"{TEST_ELEMENTS}::test_lumped_elements_refuse_negative_and_non_finite_values",))
      for name, value, rule in (("capacitance", "infinity", "value > 0"),
                                ("inductance", "infinity", "value > 0"),
                                ("resistance", "nan", "not value < 0"))),
    Mutant("res_eq_inductance_infinity_accepted", ELEMENTS,
           'require("inductance", inductance, NonPositiveElement)',
           'if not inductance > 0: raise NonPositiveElement("inductance")',
           (f"{TEST_ELEMENTS}::test_res_eq_validation",)),
    Mutant("res_eq_capacitance_infinity_accepted", ELEMENTS,
           'require("capacitance", capacitance, NonPositiveElement)',
           'if not capacitance > 0: raise NonPositiveElement("capacitance")',
           (f"{TEST_ELEMENTS}::test_res_eq_validation",)),
    Mutant("res_eq_frequency_nan_accepted", ELEMENTS,
           'require("angular frequency", angular_frequency, NonPositiveFrequency)',
           'if angular_frequency < 0: raise NonPositiveFrequency("angular frequency")',
           (f"{TEST_ELEMENTS}::test_res_eq_validation",)),
    Mutant("strip_width_infinity_accepted", ELEMENTS,
           'require("width", width, NonPositiveDimension)',
           'if not width > 0: raise NonPositiveDimension("width")',
           (f"{TEST_ELEMENTS}::test_dimension_validation",)),
    Mutant("strip_height_infinity_accepted", ELEMENTS,
           'require("height", height, NonPositiveDimension)',
           'if not height > 0: raise NonPositiveDimension("height")',
           (f"{TEST_ELEMENTS}::test_dimension_validation",)),
    Mutant("strip_permittivity_infinity_accepted", ELEMENTS,
           'require("relative_permittivity", relative_permittivity, NonPositiveDimension)',
           'if not relative_permittivity > 1: raise NonPositiveDimension("relative_permittivity")',
           (f"{TEST_ELEMENTS}::test_dimension_validation",)),
    Mutant("evaluation_frequency_infinity_accepted", ELEMENTS,
           'require("evaluation frequency", evaluation_frequency, NonPositiveFrequency)',
           'if not evaluation_frequency > 0: raise NonPositiveFrequency("evaluation frequency")',
           (f"{TEST_ELEMENTS}::test_extract_all_validation",)),
    Mutant("zero_width_band_efficiency_off", ANALYSIS,
           "return float(100.0 * power[0])", "return float(100.0 * power[0]) + 1.0",
           (f"{TEST_ANALYSIS}::test_band_edge_at_a_threshold_sample_is_not_inverted",)),
    # each rule of the domain table, its bound's closedness flipped, and the helper's
    # finiteness clause dropped, caught where the table walk meets the rule
    *(Mutant(f"{name}_least_{'refused' if closed else 'accepted'}", ERRORS,
             f'"{key}": ({least}, {closed})', f'"{key}": ({least}, {not closed})',
             (WALK,))
      for name, key, least, closed in (
          ("eps_eff", "eps_eff", 1.0, True), ("len", "len", 0.0, True),
          ("er", "er", 1.0, False),
          ("relative_permittivity", "relative_permittivity", 1.0, False),
          ("resistance", "resistance", 0.0, True),
          ("angular_frequency", "angular frequency", 0.0, True),
          ("index", "index", 0, True), ("n", "n", 1, True),
          ("block_factor", "block_factor", 1, True), ("tolerance", "tolerance", 0.0, True),
          ("max_iterations", "max_iterations", 0, True), ("restarts", "restarts", 0, True),
          ("seed", "seed", 0, True))),
    Mutant("bounds_factor_least_accepted", ERRORS,
           '"--bounds-factor": (1.0, False)', '"--bounds-factor": (1.0, True)',
           (f"{TEST_DOMAINS}::test_bounds_factor_walks_its_rule",)),
    Mutant("unlisted_least_accepted", ERRORS,
           '[2], (0.0, False))', '[2], (0.0, True))', (WALK,)),
    Mutant("dotted_name_takes_its_own_rule", ERRORS,
           'DOMAINS.get(name.rpartition(".")[2]', "DOMAINS.get(name", (WALK,)),
    Mutant("require_finiteness_dropped", ERRORS,
           " and value <= _LARGEST", "", (WALK,)),
    # the bound put back to infinity, under which an int past the largest float passes, and
    # to a plain float, which numpy narrows to a compared float32 and overflows, warning
    Mutant("require_bound_is_inf", ERRORS,
           'type("_Largest", (float,), {})(sys.float_info.max)', 'float("inf")', (WALK,)),
    Mutant("require_bound_is_a_plain_float", ERRORS,
           'type("_Largest", (float,), {})(sys.float_info.max)', "sys.float_info.max",
           (f"{TEST_NETWORK}::test_a_line_value_that_is_not_a_float_sweeps_as_its_float_twin"
            "_from_the_tables",)),
    # each rule of the topology table, and the one rule every section keeps
    Mutant("resonator_needs_only_l", NETLIST,
           '"series_rl_shunt_c": (("R", "L", "C"), ("L", "C"))',
           '"series_rl_shunt_c": (("R", "L", "C"), ("L",))',
           (f"{TEST_NETLIST}::test_resonator_requires_l_and_c",)),
    Mutant("tline_needs_no_eps_eff", NETLIST,
           '"tline": (("z0", "eps_eff", "len"), ("z0", "eps_eff", "len"))',
           '"tline": (("z0", "eps_eff", "len"), ("z0", "len"))',
           (f"{TEST_NETLIST}::test_tline_forbidden_then_missing",)),
    Mutant("empty_section_accepted", NETLIST,
           "if not params:", "if False:",
           (f"{TEST_NETLIST}::test_rlc_topology_requires_some_element",
            f"{TEST_NETLIST}::test_errors_raised_at_one_site_keep_their_messages")),
    Mutant("shunt_parallel_takes_no_r", NETLIST,
           '"shunt_parallel_rlc": (("R", "L", "C"), ())', '"shunt_parallel_rlc": (("L", "C"), ())',
           (f"{TEST_NETLIST}::test_round_trip_random_corpus",)),
    # each copy a checked object takes of the caller's containers, undone
    Mutant("section_holds_the_callers_params", NETLIST,
           'object.__setattr__(self, "params", _validate_section(',
           "(self.params, _validate_section(",
           (f"{TEST_NETLIST}::test_section_keeps_its_own_copy_of_params",)),
    Mutant("geometry_holds_the_callers_dimensions", GEOMETRY,
           'object.__setattr__(self, "dimensions", held)',
           'object.__setattr__(self, "dimensions", self.dimensions)',
           (f"{TEST_GEOMETRY}::test_geometry_keeps_its_own_copy_of_dimensions",)),
    Mutant("problem_holds_the_callers_free_parameters", FITTING,
           "tuple(map(tuple, self.free_parameters))", "self.free_parameters",
           (f"{TEST_FITTING}::test_problem_keeps_its_own_copy_of_free_parameters_and_bounds",)),
    Mutant("problem_holds_the_callers_bounds", FITTING,
           'object.__setattr__(self, "bounds", tuple(held))',
           'object.__setattr__(self, "bounds", self.bounds)',
           (f"{TEST_FITTING}::test_problem_keeps_its_own_copy_of_free_parameters_and_bounds",)),
    Mutant("netlist_holds_the_callers_sections", NETLIST,
           'object.__setattr__(self, "sections", tuple(self.sections))',
           'object.__setattr__(self, "sections", self.sections)',
           (f"{TEST_NETLIST}::test_netlist_keeps_its_own_tuple_of_sections",)),
    Mutant("mask_holds_the_callers_intervals", FITTING,
           'object.__setattr__(self, "intervals", tuple(held))',
           'object.__setattr__(self, "intervals", self.intervals)',
           (f"{TEST_FITTING}::test_mask_keeps_its_own_float_triples_of_intervals",)),
    # each value a checked object holds, kept as the caller's number instead of what its
    # check returned: `require` itself, and each store of its return
    Mutant("require_returns_the_callers_value", ERRORS,
           "return type(least)(value)", "return value",
           (f"{TEST_NETLIST}::test_section_keeps_its_own_copy_of_params", HOLDS)),
    Mutant("section_keeps_the_callers_value", NETLIST,
           "{key: require(key, value, NonPositiveParameter, line)"
           " for key, value in params.items()}",
           "{key: value for key, value in params.items()"
           " if require(key, value, NonPositiveParameter, line)}",
           (f"{TEST_NETLIST}::test_section_keeps_its_own_copy_of_params",
            f"{TEST_NETWORK}::test_a_line_value_that_is_not_a_float_sweeps_as_its_float_twin"
            "_from_the_tables")),
    Mutant("netlist_keeps_the_callers_port", NETLIST,
           "object.__setattr__(self, field, held)",
           "object.__setattr__(self, field, getattr(self, field))",
           (f"{TEST_NETLIST}::test_section_keeps_its_own_copy_of_params",)),
    Mutant("geometry_keeps_the_callers_values", GEOMETRY,
           "{key: require(key, v, NonPositiveValue) for key, v in self.dimensions.items()}",
           "{key: v for key, v in self.dimensions.items() if require(key, v, NonPositiveValue)}",
           (HOLDS,)),
    *(Mutant(f"{name}_keeps_the_callers_values", GEOMETRY,
             f'{last}):\n            object.__setattr__(self, name, ',
             f'{last}):\n            (self, name, ', (HOLDS,))
      for name, last in (("substrate", '"thickness"'), ("cavity", '"block_factor"'))),
    Mutant("lumped_keeps_the_callers_values", ELEMENTS,
           "object.__setattr__(self, name, require(name, value, NonPositiveElement))",
           "require(name, value, NonPositiveElement)", (HOLDS,)),
    Mutant("grid_keeps_its_given_start_and_stop", NETWORK,
           "object.__setattr__(self, end, require(", "(self, end, require(", (HOLDS,)),
    Mutant("grid_keeps_its_given_points", NETWORK,
           'object.__setattr__(self, "points", operator.index(self.points))',
           "operator.index(self.points)", (HOLDS,)),
    Mutant("trace_keeps_the_callers_references", NETWORK,
           'object.__setattr__(self, "reference_impedances", held)',
           'object.__setattr__(self, "reference_impedances", refs)',
           (f"{TEST_NETWORK}::test_trace_keeps_its_references_as_a_tuple_of_floats", HOLDS)),
    Mutant("mask_keeps_the_callers_ceiling", FITTING,
           "held.append((lo, hi, float(ceiling)))", "held.append((lo, hi, ceiling))",
           (f"{TEST_FITTING}::test_mask_keeps_its_own_float_triples_of_intervals", HOLDS)),
    *(Mutant(f"problem_keeps_the_callers_{name}", FITTING, PROBLEM_STORE,
             f'{PROBLEM_CHECK} if name == "{name}" else {PROBLEM_STORE}', (HOLDS,))
      for name in PROBLEM_OPTIONS),
    Mutant("lumped_keeps_the_callers_index", ELEMENTS,
           'object.__setattr__(self, "source_cavity_index", index)',
           '(self, "source_cavity_index", index)', (HOLDS,)),
    # each new refusal: a fractional count, an int past the largest float, and an empty span
    Mutant("fractional_count_accepted", ERRORS,
           "int(value) == value", "True",
           (f"{TEST_DOMAINS}::test_each_count_site_refuses_a_fraction",)),
    Mutant("counts_held_as_floats", ERRORS,
           "return type(least)(value)", "return float(value)",
           (HOLDS, f"{TEST_PACKAGE}::test_serialized_library_objects_parse_back_equal")),
    *(Mutant(f"problem_{name}_unchecked", FITTING, PROBLEM_STORE,
             f'object.__setattr__(self, name, getattr(self, name) if name == "{name}"'
             f" else {PROBLEM_CHECK})",
             (WALK, f"{TEST_FITTING}::test_problem_validation"))
      for name in PROBLEM_OPTIONS),
    Mutant("lumped_index_unchecked", ELEMENTS,
           'require("index", self.source_cavity_index, ExtractionError)',
           "self.source_cavity_index",
           (WALK, f"{TEST_DOMAINS}::test_each_count_site_refuses_a_fraction")),
    Mutant("grid_ends_unchecked", NETWORK,
           'require(f"grid {end}", getattr(self, end), InvalidGrid)', "getattr(self, end)",
           (WALK,)),
    Mutant("grid_start_after_stop_accepted", NETWORK,
           "if not self.start < self.stop:", "if False:",
           (f"{TEST_NETWORK}::test_sweep_grid_validation",)),
    Mutant("high_bound_unchecked", FITTING,
           'hi = require(f"high bound of {sname}.{pname}", hi, InvalidBounds)', "hi = hi", (WALK,)),
    Mutant("problem_zero_low_bound_accepted", FITTING,
           "if not 0 < lo < hi:", "if not lo < hi:",
           (f"{TEST_FITTING}::test_problem_validation",)),
    *(Mutant(f"mask_{end}_unchecked", FITTING,
             f'{v} = require("mask {end}", {v}, InvalidBounds)', f"{v} = {v}", (WALK,))
      for end, v in (("start", "lo"), ("stop", "hi"))),
    Mutant("mask_ceiling_bound_is_inf", FITTING,
           "if not abs(ceiling) <= _LARGEST:", 'if not abs(ceiling) <= float("inf"):',
           (f"{TEST_FITTING}::test_mask_validation",)),
    # fit's raw bounds checked after their logs, and each half of the port-set refusal dropped
    Mutant("bounds_logged_before_their_check", FITTING,
           "check(lo_values, hi_values)\n    lo, hi = np.log(lo_values), np.log(hi_values)",
           "lo, hi = np.log(lo_values), np.log(hi_values)\n    check(lo_values, hi_values)",
           (f"{WALK}[fit:t.eps_eff]",)),
    # a trace target scored on a linear grid over its span, made up in the library or put
    # back into the CLI, and a mask let through with no grid to score it on
    Mutant("library_scores_on_a_linear_grid", FITTING,
           "return target.frequencies if grid is None",
           "return np.linspace(target.frequencies[0], target.frequencies[-1], len(target))"
           " if grid is None",
           (f"{TEST_FITTING}::test_an_uneven_target_is_recovered_at_its_own_samples",)),
    Mutant("cli_grid_restored", CLI,
           "grid=None if args.fstart is None",
           "grid=SweepGrid(target.frequencies[0], target.frequencies[-1], len(target))"
           " if args.fstart is None",
           ("tests/test_cli.py::test_fit_scores_an_uneven_target_at_its_own_samples",)),
    Mutant("cli_one_sample_refused", CLI,
           "    problem = fitting.FitProblem(",
           "    if args.fstart is None and len(target) == 1:\n"
           '        raise InputError("one sample")\n'
           "    problem = fitting.FitProblem(",
           ("tests/test_cli.py::test_fit_on_a_one_sample_target_scores_it_at_that_sample",)),
    Mutant("mask_with_no_grid_accepted", FITTING,
           "if isinstance(target, Mask) and grid is None:", "if False:",
           (f"{TEST_FITTING}::test_a_mask_needs_a_grid",)),
    # the package: a module loaded eagerly, a name resolved but not bound, the aliases swapped
    Mutant("package_loads_network_eagerly", INIT,
           '__version__ = "0.1.0"', 'from . import network\n__version__ = "0.1.0"',
           (f"{TEST_PACKAGE}::test_the_numpy_free_modules_import_without_numpy",)),
    Mutant("package_name_left_unbound", INIT,
           "value = globals()[name] = getattr(", "value = getattr(",
           (f"{TEST_PACKAGE}::test_all_is_every_public_name_the_package_binds",)),
    Mutant("package_aliases_swapped", INIT,
           '"parse"),\n    "serialize_netlist": ("netlist", "serialize")',
           '"serialize"),\n    "serialize_netlist": ("netlist", "parse")',
           (f"{TEST_PACKAGE}::test_the_netlist_aliases_are_its_parse_and_serialize",)),
    Mutant("s21_without_s22_accepted", NETWORK,
           "(self.s21 is None) != (self.s22 is None) or ", "",
           (f"{TEST_NETWORK}::test_trace_refuses_a_partial_port_set",)),
    Mutant("s12_without_s21_accepted", NETWORK,
           " or (self.s12 is not None and self.s21 is None)", "",
           (f"{TEST_NETWORK}::test_trace_refuses_a_partial_port_set",)),
)


def _failed(root: Path, tests) -> list[str]:
    """The node ids pytest reports failed or in error for `tests` in the tree at `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):  # 1: tests failed; anything else: pytest could not run
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    # a node id may hold spaces (a parametrized string); pytest ends it at " - " and its message
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", run.stdout, re.MULTILINE)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    checkout = Path.cwd()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(checkout / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(checkout / "pyproject.toml", root)
        for mutant in chosen:
            target = root / mutant.path
            original = target.read_text()
            if original.count(mutant.text) != 1:
                print(f"{mutant.name}: text found {original.count(mutant.text)} times"
                      f" in {mutant.path}, not once")
                bad += 1
                continue
            target.write_text(original.replace(mutant.text, mutant.replacement))
            try:
                failed = _failed(root, mutant.tests)
            finally:
                target.write_text(original)
            verdict = "caught" if failed else "survived"
            note = ", equivalent" if mutant.equivalent else ""
            print(f"{mutant.name}: {verdict}{note}; {len(failed)} failing test case(s)")
            for node in failed:
                print(f"    {node}")
            bad += bool(failed) == mutant.equivalent
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
