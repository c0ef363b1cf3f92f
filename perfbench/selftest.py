"""Tests of the benchmark itself (not of rayclass).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import rayclass  # noqa: E402
from rayclass import classfield  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def built(request):
    return request.param, workloads.build(request.param, 7)


# ------------------------------------------------------------ generator ---

def test_same_seed_same_ops_and_no_repeats(built):
    name, wl = built
    again = workloads.build(name, 7)
    assert again.ops == wl.ops
    assert len(set(wl.ops)) == len(wl.ops)


def test_held_out_seed_differs(built):
    name, wl = built
    other = workloads.build(name, 8)
    assert other.ops != wl.ops
    assert len(set(other.ops)) == len(other.ops)


def test_engine_inputs_match_the_stated_ranges():
    ops = workloads.build("engine", 3).ops[:4000]
    ims = [float(op.tau[1]) for op in ops]
    res = [float(op.tau[0]) for op in ops]
    assert 0.06 <= min(ims) and max(ims) <= 2
    assert -0.5 <= min(res) and max(res) <= 0.5
    assert {op.n for op in ops} == {4, 8, 12, 16}
    assert 0.43 < sum(x < 0.3 for x in ims) / len(ims) < 0.49


def test_orbit_inputs_match_the_stated_ranges():
    wl = workloads.build("orbits", 3)
    for op in wl.ops:
        field = wl.fields[op.d]
        assert -200 <= op.d <= -7
        if op.kind == "lemma52":
            assert op.d <= -39 and 8 <= op.n <= 12
        else:
            assert classfield.check_hypothesis(field, op.n).ok
            assert classfield.ray_class_degree(field, op.n) <= 128
            assert op.descriptor in ("y4", "x", "pair")


def test_classpoly_covers_every_fundamental_discriminant_once():
    wl = workloads.build("classpoly", 3)
    ds = sorted(op.d for op in wl.ops)
    every = workloads.fundamental_discriminants(-2000, -7)
    assert ds == sorted(set(every) - workloads.HCP_FAILS)
    assert workloads.HCP_FAILS <= set(every)


def test_known_failing_inputs_are_left_out():
    wl = workloads.build("orbits", 3)
    assert not [op for op in wl.ops if op.kind == "generation"
                and op.descriptor == "y4" and (op.d, op.n) in workloads.Y4_GENERATION_FAILS]


def test_left_out_inputs_still_fail():
    """Each input left out of a workload still makes the program report a
    failure; once one passes, it belongs back in its workload."""
    orbits, hcp = workloads.build("orbits", 1), workloads.build("classpoly", 1)
    cases = [(orbits, workloads.Op("generation", d, n, descriptor="y4"))
             for d, n in sorted(workloads.Y4_GENERATION_FAILS)]
    cases += [(hcp, workloads.Op("hcp", d)) for d in sorted(workloads.HCP_FAILS)]
    for wl, op in cases:
        verdict = workloads.check(wl, op, workloads.execute(wl, op))
        assert not verdict.ok and not verdict.wrong, op


# ----------------------------------------------------------------- gate ---

def _small(wl, kind):
    """A cheap op of this kind: the one with the smallest class number."""
    return min((op for op in wl.ops if op.kind == kind),
               key=lambda op: (wl.fields[op.d].h, op.n or 0))


def test_gate_catches_corrupted_conjugates():
    wl = workloads.build("orbits", 1)
    op = _small(wl, "conjugates")
    code, out, err = workloads.execute(wl, op)
    assert workloads.check(wl, op, (code, out, err)).ok
    doc = json.loads(out)
    doc["count"] += 1
    bad = workloads.check(wl, op, (code, json.dumps(doc), err))
    assert not bad.ok and bad.wrong
    doc = json.loads(out)
    doc["conjugates"].pop()
    assert workloads.check(wl, op, (code, json.dumps(doc), err)).wrong
    doc = json.loads(out)
    doc["conjugates"][0] = {}
    assert workloads.check(wl, op, (code, json.dumps(doc), err)).wrong


def test_gate_catches_corrupted_class_polynomial():
    wl = workloads.build("classpoly", 1)
    op = next(op for op in wl.ops if op.d == -71)  # h = 7, 3 does not divide d
    code, out, err = workloads.execute(wl, op)
    assert workloads.check(wl, op, (code, out, err)).ok
    doc = json.loads(out)
    for corrupt in (
        lambda d: d["recognized"][0].update(m=d["recognized"][0]["m"] + 1),
        lambda d: d["coefficients_ascending"][3].__setitem__(0, "12345"),
        lambda d: d["recognized"][2].update(n=1),
        lambda d: d.update(degree=d["degree"] - 1),
    ):
        bad = copy.deepcopy(doc)
        corrupt(bad)
        verdict = workloads.check(wl, op, (code, json.dumps(bad), err))
        assert not verdict.ok and verdict.wrong
    # an unrecognized coefficient is reported by the program itself: a failure
    bad = copy.deepcopy(doc)
    bad["recognized"][1] = None
    verdict = workloads.check(wl, op, (code, json.dumps(bad), err))
    assert not verdict.ok and not verdict.wrong


def test_constant_term_cube_check():
    assert workloads._is_cube(-3375) and workloads._is_cube(0)
    assert workloads._is_cube(-(10**60 + 7) ** 3)
    assert not workloads._is_cube(-3376)


def test_gate_catches_corrupted_engine_values():
    wl = workloads.build("engine", 1)
    op = wl.ops[0]
    rep, j, eta, delta = workloads.execute(wl, op)
    assert workloads.check(wl, op, (rep, j, eta, delta)).ok
    assert workloads.check(wl, op, (rep, j, eta * (1 + 1e-30), delta)).wrong
    rep.passed = False
    assert not workloads.check(wl, op, (rep, j, eta, delta)).ok


def test_nonzero_exit_and_exceptions_are_failures(monkeypatch):
    wl = workloads.build("orbits", 1)
    op = _small(wl, "conjugates")
    verdict = workloads.check(wl, op, (3, "", '{"error": "NearZero"}'))
    assert not verdict.ok and not verdict.wrong

    def boom(argv=None):
        raise NameError("check_surface_point")

    monkeypatch.setattr(rayclass.cli, "main", boom)
    _, outcome, _ = run.run_op(wl, op)
    assert not outcome.ok and "NameError" in outcome.reason


# ---------------------------------------------------------------- trace ---

def test_lemma52_trace_counts():
    """check lemma52 makes 2 * pairs_checked + 2 Siegel calls; for
    (-95, 16) that is 3530 calls on 1787 distinct (reduced index, tau)."""
    wl = workloads.build("orbits", 1)
    wl.fields.setdefault(-95, classfield.make_field(-95))
    op = workloads.Op("lemma52", -95, 16)
    tracer = Tracer()
    tracer.begin_op(0)
    with tracer:
        result = workloads.execute(wl, op)
    assert workloads.check(wl, op, result).ok
    pairs = json.loads(result[1])["details"]["pairs_checked"]
    metrics = tracer.per_layer(1.0, 1)
    assert metrics["qseries.siegel.calls"] == 2 * pairs + 2 == 3530
    assert metrics["qseries.siegel.distinct_share"] == 1787 / 3530
    assert workloads.lemma52_keys(wl.fields[-95], 16) == (3530, 1787)


def test_labels_equal_degree_and_layers_add_up():
    wl = workloads.build("orbits", 1)
    op = _small(wl, "conjugates")
    tracer = Tracer()
    tracer.begin_op(0)
    with tracer:
        result = workloads.execute(wl, op)
    degree = classfield.ray_class_degree(wl.fields[op.d], op.n)
    metrics = tracer.per_layer(1.0, 1)
    assert metrics["reciprocity.labels"] == degree
    top = [s for s in tracer.spans if s[1] == "main"]
    assert len(top) == 1
    total = top[0][4] - top[0][3]
    assert sum(s[5] for s in tracer.spans) == pytest.approx(total, rel=1e-9)
    assert workloads.check(wl, op, result).ok


def test_wrappers_are_removed_after_tracing():
    mods = {n: m for n, m in sys.modules.items() if n.startswith("rayclass")}
    before = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    point = vars(rayclass.qseries.ModularPoint).copy()
    tracer = Tracer()
    with tracer:
        assert rayclass.verify.siegel is not before[("rayclass.verify", "siegel")]
        assert rayclass.qseries.ModularPoint.terms is not point["terms"]
    after = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(vars(rayclass.qseries.ModularPoint)[k] is v for k, v in point.items())


# ------------------------------------------------------------- contract ---

def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_percentile_keeps_ten_ops_beyond():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 90.0
