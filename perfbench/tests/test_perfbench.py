"""Tests of the benchmark itself: tracing, counters, inputs and the gate.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import densegen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import liedouble.cli as cli  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("LIEDOUBLE_VERBOSITY", str(workloads.TEXT_COUNTEREXAMPLES))


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run_command(list(argv), stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def _bindings() -> dict:
    """Every global of every liedouble module and every class attribute."""
    out = {}
    for mod in spans.liedouble_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def _traced(argv):
    with spans.Tracer() as tracer:
        code = cli.run_command(list(argv), stdout=io.StringIO(), stderr=io.StringIO())
    return code, tracer


def test_tracer_restores_every_binding():
    before = _bindings()
    with spans.Tracer():
        patched = spans.leftover_wrappers()
        # the from-imported names in cli and glnfactory are patched too
        assert "liedouble.cli.check_compatibility" in patched
        assert "liedouble.glnfactory.build_double" in patched
        assert "liedouble.manin.check_compatibility" in patched
        assert "liedouble.scalars.Scalar.__mul__" in patched
        _run(["verify", "--n", "2"])
    after = _bindings()
    assert spans.leftover_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert spans.leftover_wrappers() == []
    assert all(_bindings()[key] is value for key, value in before.items())


def test_self_times_sum_to_at_most_the_root_wall_time():
    _, tracer = _traced(["verify", "--n", "3", "--json"])
    rows = tracer.spans
    roots = [i for i, span in enumerate(rows) if span[spans.PARENT] == -1]
    assert len(roots) == 1
    for i, span in enumerate(rows):
        assert span[spans.SELF] >= -1e-9
        parent = span[spans.PARENT]
        if parent >= 0:
            outer = rows[parent]
            assert outer[spans.START] <= span[spans.START] <= span[spans.END] <= outer[spans.END]
    for root in roots:
        tree = {root}
        for i, span in enumerate(rows):  # parents precede their children
            if span[spans.PARENT] in tree:
                tree.add(i)
        wall = rows[root][spans.END] - rows[root][spans.START]
        assert sum(rows[i][spans.SELF] for i in tree) <= wall + 1e-9


def test_call_counts_repeat_exactly_and_match_the_pins():
    first = _traced(["verify", "--n", "2", "--json"])[1]
    second = _traced(["verify", "--n", "2", "--json"])[1]
    counts = spans.call_counts(first.spans) + first.counts
    assert counts == spans.call_counts(second.spans) + second.counts
    assert counts["liealg.Matrix.inverse"] == 9
    assert counts["manin.check_compatibility"] == 3
    assert counts["glnfactory.build_gln_tn"] == 2
    assert counts["scalars.mul"] > 0 and counts["scalars.add"] > 0


def test_double_op_checks_compatibility_twice():
    workload = workloads.build("dense_files", densegen.DEFAULT_SEED)
    op = next(op for op in workload.ops if op.argv[0] == "double" and op.expect_code == 0)
    code, tracer = _traced(op.argv)
    assert code == 0
    assert spans.call_counts(tracer.spans)["manin.check_compatibility"] == 2
    parsed = sum(len(Path(p).read_text(encoding="utf-8")) for p in op.argv[2:5:2])
    assert tracer.counts["algfile.bytes_parsed"] == parsed


def test_generator_is_reproducible_and_seeded():
    first = densegen.generate(5)
    assert first == densegen.generate(5)
    assert first != densegen.generate(6)
    assert len(first) == len(densegen.SCHEDULE)
    assert [p.compatible for p in first].count(False) == len(first) // densegen.PERTURB_EVERY
    workload = workloads.build("dense_files", 5)
    assert sorted(op.pair.name for op in workload.ops[::4]) == [p.name for p in first]


def test_generated_pairs_are_compatible_unless_perturbed():
    for pair in densegen.generate(3)[:6]:  # the sparser half keeps this quick
        f = _table(pair.plus_text)
        c = _table(pair.minus_text)
        assert (not densegen.compat_residual(f, c)) == pair.compatible


def _table(text):
    """A generated file as a generator table {(p, q): {r: (a, b)}}."""
    from liedouble.algfile import parse_algebra_file

    algebra = parse_algebra_file(text).to_algebra()
    for _, coeffs in algebra.tensor.stored():
        assert all(not (v.c or v.d) for v in coeffs.values())  # real: Q(sqrt2)
    return {key: {r: (v.a, v.b) for r, v in coeffs.items()} for key, coeffs in algebra.tensor.stored()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_commit_digest_matches(name):
    expected = workloads.load_expected()
    workload = workloads.build(name, densegen.DEFAULT_SEED)
    assert workload.digests_apply
    assert set(expected[name]) == {op.key for op in workload.ops}
    for op in workload.ops:
        code, stdout = _run(op.argv)
        assert workloads.failure(workload, expected, op, code, stdout) is None, op.key


def test_digest_ignores_only_timings():
    text = '{"checks": [{"millis": 3, "name": "a"}], "schema": "x"}'
    assert workloads.output_digest(text) == workloads.output_digest(text.replace("3", "41"))
    assert workloads.output_digest(text) != workloads.output_digest(text.replace('"a"', '"b"'))
    assert workloads.output_digest("[PASS] j (3 ms)\n") == workloads.output_digest("[PASS] j (70 ms)\n")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "gln_verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [sys.executable, *command[1:], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_benchmark_json_lists_what_the_run_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == run.json_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED)
