"""Mutants of the package, kept with the tests that must kill them.

Each entry changes one exact text of a source file and names the tests that
must fail on the changed copy.  Run them with

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

from the repository root.  Each mutant is applied to a copy of src/, tests/
and demos/ under a temporary directory, never in place, and only its listed
tests run there.  A mutant is killed when every listed test fails; the last
line is the kill score.  tests/test_hygiene.py checks that each old text
occurs exactly once in its file and that pytest collects each listed test,
so that the table cannot rot unseen.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHAINS = "src/btcomplex/chains.py"
PROJLINE = "src/btcomplex/projline.py"
ORBITS = "src/btcomplex/orbits.py"
CLI = "src/btcomplex/cli.py"

APPLY_PROPERTY = "tests/test_chains.py::test_apply_matches_the_object_oracle_property"
APPLY_PIN = "tests/test_chains.py::test_apply_truncates_once_where_a_cancelled_partial_sum_overclaims"
ACT_EXACT = "tests/test_chains.py::test_act_claims_only_digits_of_the_exact_action[2-2-2]"
ACT_PIN = "tests/test_chains.py::test_act_at_the_algebraic_weight_keeps_no_tail_of_a_short_input"
ACT_NO_TAIL = "tests/test_chains.py::test_act_reports_no_tail_at_the_algebraic_weight_on_reduced_precision_inputs"
ACT_ONCE = "tests/test_chains.py::test_act_sums_once_and_multiplies_series_only_in_the_operator"
SIGN_FORMS = "tests/test_chains.py::test_complex_maps_match_their_sign_after_restrict_forms"
TRANSPORT_ORACLE = "tests/test_orbits.py::test_integer_orbits_match_the_transport_oracle"
REGISTRY_ORACLE = "tests/test_orbits.py::test_integer_registry_matches_the_transport_oracle"
SHADOWS = "tests/test_orbits.py::test_registry_records_are_shadows_of_the_vertices_at_distance_k"
STABILITY = "tests/test_orbits.py::test_registry_is_stable_under_integral_generators"
LAST_BASIS_WITNESS = "tests/test_chains.py::test_verify_exactness_failing_basis_check_names_its_last_failing_element"
FIRST_SAMPLE_WITNESS = "tests/test_chains.py::test_verify_exactness_failing_sampled_check_names_its_first_failing_sample"
REFERENCE_LAYOUT = "tests/test_chains.py::test_reference_block_matrix_layout"
MATRIX_DEFECTS = "tests/test_chains.py::test_boundary_matrix_defects_reach_the_report_under_python_O"
EXIT_ONE = "tests/test_cli.py::test_each_command_exits_one_on_the_report_that_says_it_failed"
BIJECTION_ORACLE = "tests/test_orbits.py::test_counts_bijection_rows_match_the_record_oracle"
GOLDEN_DIGEST = "tests/test_cli.py::test_golden_stdout_digest"

# (name, file, old text, new text, test ids that must fail)
MUTANTS = [
    ("apply-truncates-at-the-largest-precision", CHAINS,
     "            if bk < K:\n                K = bk\n",
     "            if bk > K:\n                K = bk\n",
     [APPLY_PROPERTY, APPLY_PIN]),
    ("apply-skips-the-final-reduction", CHAINS,
     "        r = 0 if av is INF else acc % p ** (K - av)\n",
     "        r = 0 if av is INF else acc\n",
     [APPLY_PROPERTY, APPLY_PIN]),
    ("apply-does-not-rescale-at-a-lower-valuation", CHAINS,
     "                acc, av = acc * p ** (av - bv) + bu, bv\n",
     "                acc, av = acc + bu, bv\n",
     [APPLY_PROPERTY]),
    ("act-shifts-the-twist-rows-by-one", CHAINS,
     "twist[i - k] * e",
     "twist[i - k - 1] * e",
     ["tests/test_chains.py::test_act_at_the_algebraic_weight_matches_the_exact_oracle[3-1]",
      "tests/test_chains.py::test_act_claims_only_digits_of_the_exact_action[3-1-2]"]),
    ("act-multiplies-the-twist-by-series-mul", CHAINS,
     "    rows = [tuple((j, twist[i - k] * e) for k in range(i + 1) if not twist[i - k].is_zero() for j, e in op[k])\n"
     "            for i in range(D + 1)]\n"
     "    full = _apply(rows, f.coeffs)\n",
     "    full = _series_mul(_apply(op, f.coeffs), twist, D)\n",
     [ACT_EXACT, ACT_PIN, ACT_NO_TAIL, ACT_ONCE]),
    ("act-truncates-the-pull-back-before-the-twist", CHAINS,
     "    rows = [tuple((j, twist[i - k] * e) for k in range(i + 1) if not twist[i - k].is_zero() for j, e in op[k])\n"
     "            for i in range(D + 1)]\n"
     "    full = _apply(rows, f.coeffs)\n",
     "    rows = [tuple((j, twist[i - j]) for j in range(i + 1) if not twist[i - j].is_zero()) for i in range(D + 1)]\n"
     "    full = _apply(rows, _apply(op, f.coeffs))\n",
     [ACT_EXACT, ACT_NO_TAIL, ACT_ONCE]),
    ("act-inverts-tau", CHAINS,
     "    tau = GL2.quotient(cfg, ((Mg.a, Mg.b), (Mg.c, Mg.d)), ball.param())\n",
     "    tau = GL2.quotient(cfg, ball.param(), ((Mg.a, Mg.b), (Mg.c, Mg.d)))\n",
     ["tests/test_chains.py::test_act_translation_recenters",
      "tests/test_chains.py::test_act_at_the_algebraic_weight_matches_the_exact_oracle[3-1]"]),
    ("partial1-restricts-f-not-its-negation", CHAINS,
     "        g = -f if s == 1 else f\n",
     "        g = f if s == 1 else f\n",
     [f"{SIGN_FORMS}[3-1-1-2]",
      "tests/test_chains.py::test_partial0_after_partial1_vanishes"]),
    ("kernel-lift-restricts-the-input-not-its-negation", CHAINS,
     "partial0(negated, reg)",
     "partial0(nonmin, reg)",
     [f"{SIGN_FORMS}[2-2-1-1]",
      "tests/test_chains.py::test_kernel_lift_random_nonminimal_assignment"]),
    ("matrix-apply-negates-the-plus-blocks", CHAINS,
     "g = f if sign == 1 else neg",
     "g = neg if sign == 1 else f",
     [f"{SIGN_FORMS}[3-2-1-1]",
      "tests/test_chains.py::test_matrix_apply_matches_projected_boundary"]),
    ("transition-table-keyed-target-first", CHAINS,
     "            step = (src, dst)\n",
     "            step = (dst, src)\n",
     ["tests/test_chains.py::test_step_table_belongs_to_one_registry",
      "tests/test_chains.py::test_transition_table_builds_each_step_once_for_every_degree"]),
    ("partial0-shortcut-inverted", CHAINS,
     "f if ball_of[m] == b else",
     "f if ball_of[m] != b else",
     [f"{SIGN_FORMS}[5-1-1-1]",
      "tests/test_chains.py::test_partial0_passes_a_part_on_its_own_disc_through_unrouted",
      "tests/test_chains.py::test_partial0_after_partial1_vanishes",
      "tests/test_chains.py::test_kernel_lift_of_single_component"]),
    ("ball-image-moves-the-edge-by-g-not-its-adjugate", PROJLINE,
     "    h, n = _primitive_rows(p, ((g.d, -g.b), (-g.c, g.a)))\n",
     "    h, n = _primitive_rows(p, ((g.a, g.b), (g.c, g.d)))\n",
     ["tests/test_projline.py::test_ball_image_standard_contraction",
      "tests/test_projline.py::test_ball_image_composition_law",
      f"{TRANSPORT_ORACLE}[3-2-2]"]),
    ("ball-image-leaves-a-reversed-edge-unflipped", PROJLINE,
     "    return Ball(g.cfg, (*_point_cell(p, *gx), not flip))\n",
     "    return Ball(g.cfg, (*_point_cell(p, *gx), flip))\n",
     ["tests/test_projline.py::test_ball_image_round_trip_and_membership",
      "tests/test_projline.py::test_ball_image_pointwise_biconditional",
      f"{TRANSPORT_ORACLE}[3-2-2]"]),
    ("member-point-ignores-the-flip", PROJLINE,
     "== (chart, q, r)) != flip\n",
     "== (chart, q, r))\n",
     ["tests/test_projline.py::test_ball_image_round_trip_and_membership",
      "tests/test_projline.py::test_presentations_match_the_normal_form_on_registry_balls[1-2]",
      "tests/test_orbits.py::test_orbit_of_point_is_in_enumeration"]),
    ("verify-basis-walk-stops-one-degree-short", CHAINS,
     "            for j in range(d + 1):\n                yield ",
     "            for j in range(d):\n                yield ",
     [LAST_BASIS_WITNESS,
      "tests/test_chains.py::test_verify_exactness_witness_belongs_to_the_failing_check",
      "tests/test_chains.py::test_verify_exactness_kernel_lift_check_sees_a_part_off_its_disc"]),
    ("verify-counterexample-is-the-last-failing-check", CHAINS,
     'for c in checks if not c["pass"]',
     'for c in reversed(checks) if not c["pass"]',
     [LAST_BASIS_WITNESS]),
    ("verify-sampled-check-keeps-its-last-failing-sample", CHAINS,
     'next((f"sample {i}" for i, failed in enumerate(failures) if failed), "")',
     '([""] + [f"sample {i}" for i, failed in enumerate(failures) if failed])[-1]',
     [f"{FIRST_SAMPLE_WITNESS}[from-sample-0]", f"{FIRST_SAMPLE_WITNESS}[from-sample-3]",
      "tests/test_cli.py::test_a_failed_verdict_exits_one_with_the_report[python]"]),
    ("total-order-ranks-cells-before-complements", ORBITS,
     "((0, -q) if flip else (1, q)",
     "((1, -q) if flip else (0, q)",
     ["tests/test_orbits.py::test_total_order_refines_inclusion",
      "tests/test_chains.py::test_matrix_triangular_everywhere",
      "tests/test_chains.py::test_verify_exactness_dims_small",
      REFERENCE_LAYOUT]),
    ("kernel-trivial-ignores-triangularity", CHAINS,
     "not above and units and not matrix",
     "units and not matrix",
     [MATRIX_DEFECTS]),
    ("restriction-blocks-take-the-owner-sign", CHAINS,
     '"res", -s))',
     '"res", s))',
     [REFERENCE_LAYOUT,
      "tests/test_chains.py::test_matrix_apply_matches_projected_boundary",
      "tests/test_cli.py::test_example_command"]),
    ("frozen-equality-ignores-the-class", PROJLINE,
     "        if other.__class__ is not self.__class__:\n",
     "        if not isinstance(other, Frozen):\n",
     ["tests/test_orbits.py::test_values_of_different_classes_with_equal_fields_are_unequal"]),
    ("counts-row-always-passes", ORBITS,
     '"pass": expected == actual',
     '"pass": True',
     ["tests/test_cli.py::test_a_failing_count_exits_one_with_the_verify_report[python]",
      f"{EXIT_ONE}[python-counts]", f"{EXIT_ONE}[python-O-counts]"]),
    ("shadow-taken-from-the-wrong-endpoint", ORBITS,
     "    return [(child, parent), (parent, child)]\n",
     "    return [(parent, child), (parent, child)]\n",
     [f"{TRANSPORT_ORACLE}[3-2-2]", f"{REGISTRY_ORACLE}[3-2-2]", f"{SHADOWS}[3-2-2]"]),
    # the edge records are the same set in another order, so only the bytes
    # of the orbits dump, which lists them in record order, change
    ("edge-copies-the-parent-run-first", ORBITS,
     "for step in _steps(e)",
     "for step in reversed(_steps(e))",
     [f"{GOLDEN_DIGEST}[{flags}orbits {args}]" for flags in ("", "-O ")
      for args in ("--p 2 --k 1 --n 2", "--p 3 --k 2 --n 1", "--p 2 --k 2 --n 3", "--p 3 --k 1 --n 2",
                   "--p 2 --k 3 --n 3")]),
    # one deepest vertex takes the complements of the discs of its first step:
    # its record count holds, and the edges copy the changed records
    ("one-vertex-takes-the-complements-of-its-first-run", ORBITS,
     "                records.append(OrbitRecord(v, ball))\n",
     "                records.append(OrbitRecord(v, ball if v != Vertex(p, n, (1, 0)) or first > start\n"
     "                                           else Ball(cfg, (*key[:3], True))))\n",
     [f"{STABILITY}[{params}]" for params in ("2-1-2", "3-2-2", "5-1-3")]),
    ("complement-hole-one-level-off", ORBITS,
     "_point_cell(p, x.n, *x.coord), True)",
     "_point_cell(p, x.n - 1, *x.coord), True)",
     [f"{TRANSPORT_ORACLE}[3-2-2]", f"{REGISTRY_ORACLE}[2-1-3]", f"{SHADOWS}[7-1-2]",
      "tests/test_orbits.py::test_registry_is_stable_under_integral_generators[5-1-3]"]),
    ("minimal-exit-ignores-the-partition", CLI,
     'lambda r: r["partition"]',
     "lambda r: True",
     [f"{EXIT_ONE}[python-minimal]", f"{EXIT_ONE}[python-O-minimal]"]),
    ("ball-accepts-a-malformed-key", PROJLINE,
     '        if not (chart in ("z", "w") and d and q == p**d and 0 <= r < q\n',
     '        if False and not (chart in ("z", "w") and d and q == p**d and 0 <= r < q\n',
     ["tests/test_projline.py::test_ball_refuses_a_key_that_is_not_a_cell_key[level-0]",
      "tests/test_projline.py::test_ball_refuses_a_key_that_is_not_a_cell_key[w-cell-prime-to-p]"]),
    ("counts-bijection-never-records-a-collision", ORBITS,
     "            if hits[0] in owned:\n                collisions.append(rec.id_str())\n",
     "",
     [f"{BIJECTION_ORACLE}[2-1-3]", f"{BIJECTION_ORACLE}[3-1-2]"]),
    ("dump-swaps-parents-and-children", CLI,
     "parents=sorted(parents[i]), children=sorted(children[i])",
     "parents=sorted(children[i]), children=sorted(parents[i])",
     [f"{GOLDEN_DIGEST}[orbits --p 2 --k 1 --n 2]", f"{GOLDEN_DIGEST}[-O orbits --p 2 --k 2 --n 3]"]),
    # the complex stays exact mod p with one step scaled by p, so the mod-p
    # rank test does not see it; the tests that compare routed restriction
    # with restriction built directly do, and so does partial0 across the
    # level inclusion, whose two registries scale different steps
    ("one-step-operator-multiplied-by-p", CHAINS,
     "            route = ((reg.balls[dst], _operator(trans, D)),)\n",
     "            op = _operator(trans, D)\n"
     "            if step == next(iter(reg.transitions)):\n"
     "                op = tuple(tuple((j, e * reg.cfg.from_int(reg.cfg.p)) for j, e in row) for row in op)\n"
     "            route = ((reg.balls[dst], op),)\n",
     ["tests/test_chains.py::test_step_table_matches_uncached_restriction[3-2-2-2]",
      "tests/test_chains.py::test_partial1_single_edge_signs",
      "tests/test_chains.py::test_partial0_commutes_with_the_level_inclusion[2-2-2-1]"]),
]


def failed_tests(output: str, tests) -> set:
    """The tests among the given node ids that pytest's -rf summary reports
    as failed.  A summary line is "FAILED <node id>", then " - <message>"
    when there is one, and a node id may hold spaces."""
    lines = [line[len("FAILED "):] for line in output.splitlines() if line.startswith("FAILED ")]
    return {t for t in tests if any(line == t or line.startswith(t + " ") for line in lines)}


def run(mutant) -> tuple:
    """(killed, the listed tests that did not fail) for one mutant, run on a
    copy of the repository under a temporary directory."""
    name, path, old, new, tests = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for folder in ("src", "tests", "demos"):
            shutil.copytree(ROOT / folder, copy / folder, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text does not occur exactly once in {path}")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
                           cwd=copy, env=env, capture_output=True, text=True)
    survivors = [t for t in tests if t not in failed_tests(r.stdout, tests)]
    return not survivors, survivors


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    killed = 0
    for mutant in chosen:
        ok, survivors = run(mutant)
        killed += ok
        status = "killed  " if ok else "SURVIVED"
        print(f"{status} {mutant[0]}" + (f"  (passed: {', '.join(survivors)})" if survivors else ""), flush=True)
    print(f"kill score: {killed}/{len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
