import io
import json
import re
from types import SimpleNamespace

import pytest

import liedouble.cli as cli
import liedouble.suite as suite
from liedouble.cli import CARTAN_COEFFICIENT_NOTE, MAX_N, run_command

RANK_TWO_PLUS = """algebra splus2 dim 3
basis Z1 Z2 Z3
[Z1,Z3] = 1/2*sqrt2*Z3
[Z2,Z3] = -1/2*sqrt2*Z3
"""

RANK_TWO_MINUS = """algebra sminus2 dim 3
basis z1 z2 z3
[z1,z3] = -1/2*sqrt2*z3
[z2,z3] = 1/2*sqrt2*z3
"""

# an extra bracket on the minus side breaks the crossed compatibility
RANK_TWO_MINUS_BROKEN = RANK_TWO_MINUS + "[z1,z2] = z3\n"


def mask_millis(text):
    return re.sub(r'\((\d+) ms\)|"millis": \d+', "<millis>", text)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def algebra_files(tmp_path):
    plus = tmp_path / "splus.alg"
    plus.write_text(RANK_TWO_PLUS, encoding="utf-8")
    minus = tmp_path / "sminus.alg"
    minus.write_text(RANK_TWO_MINUS, encoding="utf-8")
    broken = tmp_path / "sminus_broken.alg"
    broken.write_text(RANK_TWO_MINUS_BROKEN, encoding="utf-8")
    return plus, minus, broken


def test_check_jacobi_pass(algebra_files):
    plus, _, _ = algebra_files
    code, out, _ = run(["check-jacobi", str(plus)])
    assert code == 0
    assert out.startswith("[PASS] jacobi")


def test_check_jacobi_json_schema(algebra_files):
    plus, _, _ = algebra_files
    code, out, _ = run(["check-jacobi", str(plus), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "liedouble.report/1"
    assert payload["tool_version"]
    assert payload["checks"][0]["name"] == "jacobi"
    assert payload["checks"][0]["status"] == "pass"
    assert payload["checks"][0]["counterexamples"] == []
    assert isinstance(payload["checks"][0]["millis"], int)


def test_compat_pass_and_fail(algebra_files):
    plus, minus, broken = algebra_files
    code, out, _ = run(["compat", "--plus", str(plus), "--minus", str(minus)])
    assert code == 0 and "[PASS] compatibility" in out
    code, out, _ = run(["compat", "--plus", str(plus), "--minus", str(broken)])
    assert code == 1
    assert "[FAIL] compatibility" in out
    assert "(0, 1, 0, 2)" in out  # located residual


def test_compat_json_counterexamples(algebra_files):
    plus, _, broken = algebra_files
    code, out, _ = run(["compat", "--plus", str(plus), "--minus", str(broken), "--json"])
    assert code == 1
    payload = json.loads(out)
    check = payload["checks"][0]
    assert check["status"] == "fail"
    found = {tuple(c["indices"]): c["residual"] for c in check["counterexamples"]}
    assert found[(0, 1, 0, 2)] == "1/2*sqrt2"


def test_double_emits_algebra(algebra_files):
    plus, minus, _ = algebra_files
    code, out, _ = run(["double", "--plus", str(plus), "--minus", str(minus)])
    assert code == 0
    assert out.startswith("algebra double dim 6")
    assert "[Z3,z3]" in out or "[z3,Z3]" in out
    code, out, _ = run(["double", "--plus", str(plus), "--minus", str(minus), "--json"])
    payload = json.loads(out)
    assert payload["schema"] == "liedouble.emit/1"
    assert payload["algebra"]["dim"] == 6
    assert payload["algebra"]["basis"] == ["Z1", "Z2", "Z3", "z1", "z2", "z3"]


def test_double_rejects_incompatible(algebra_files):
    plus, _, broken = algebra_files
    code, out, _ = run(["double", "--plus", str(plus), "--minus", str(broken)])
    assert code == 1
    assert "[FAIL] compatibility" in out


def test_double_times_a_failing_compatibility_row_as_compat_does(algebra_files, monkeypatch):
    plus, _, broken = algebra_files
    for flag in ([], ["--json"]):
        outputs = []
        for command in ("compat", "double"):
            clock = iter([0.0, 0.25])  # run_check reads the clock twice: 250 ms
            monkeypatch.setattr(suite, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
            code, out, _ = run([command, "--plus", str(plus), "--minus", str(broken), *flag])
            outputs.append((code, out.replace(f"{command} --plus", "<command> --plus")))
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 1
        assert "(250 ms)" in outputs[1][1] or '"millis": 250' in outputs[1][1]


def test_gln_emit_delta_json():
    code, out, _ = run(["gln", "--n", "2", "--emit", "delta", "--json"])
    assert code == 0
    payload = json.loads(out)
    delta = payload["delta"]
    f12 = {(entry["left"], entry["right"]): entry["coeff"] for entry in delta["F12"]}
    assert f12[("F12", "H1")] == "-1/2"
    assert f12[("F12", "I1")] == "-1/2*i"
    assert "H1" not in delta and "I1" not in delta  # zero values omitted


def test_gln_emit_rmatrix_flags_cartan_note():
    code, out, _ = run(["gln", "--n", "2", "--emit", "rmatrix", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["note"] == CARTAN_COEFFICIENT_NOTE
    twist = {
        (entry["left"], entry["right"]): entry["coeff"] for entry in payload["r_twist"]
    }
    assert twist[("H1", "I1")] == "1/2*i"
    standard = {
        (entry["left"], entry["right"]): entry["coeff"]
        for entry in payload["r_standard"]
    }
    assert standard[("F21", "F12")] == "1/2"


def test_gln_emit_rmatrix_builds_no_double(monkeypatch):
    code, expected, _ = run(["gln", "--n", "2", "--emit", "rmatrix"])
    assert code == 0

    def fail(*args, **kwargs):
        raise AssertionError("rmatrix needs only the double's labels")

    monkeypatch.setattr(cli, "build_double", fail)
    assert run(["gln", "--n", "2", "--emit", "rmatrix"]) == (0, expected, "")


def test_gln_emit_rmatrix_renders_the_library_split():
    from liedouble import build_gln_triple, build_rmatrix, gln_labels, rmatrix_in_gln_basis

    for n in range(1, 7):
        labels = gln_labels(n)
        parts = rmatrix_in_gln_basis(n, build_rmatrix(build_gln_triple(n))[1])
        names = ("r_skew_gln_basis", "r_standard", "r_twist")
        code, out, _ = run(["gln", "--n", str(n), "--emit", "rmatrix", "--json"])
        assert code == 0
        payload = json.loads(out)
        for name, tensor in zip(names, parts):
            assert payload[name] == [
                {"left": labels[p], "right": labels[q], "coeff": str(value)}
                for (p, q), value in tensor.items()
            ], (n, name)
        code, out, _ = run(["gln", "--n", str(n), "--emit", "rmatrix"])
        assert code == 0
        lines = out.splitlines()
        for prefix, tensor in zip(("in H/I/F = ", "standard = ", "twist    = "), parts):
            assert f"{prefix}{tensor.format(labels)}" in lines, (n, prefix)


def test_gln_emit_splus_text_roundtrip(tmp_path):
    code, out, _ = run(["gln", "--n", "3", "--emit", "splus"])
    assert code == 0
    from liedouble import build_s_plus, parse_algebra_file, structure_equal

    assert structure_equal(parse_algebra_file(out).to_algebra(), build_s_plus(3))


def test_verify_passes_small_sizes():
    for n in ("1", "2"):
        code, out, _ = run(["verify", "--n", n])
        assert code == 0, out
        assert "[FAIL]" not in out
        # every advertised check appears
        for name in (
            "ad_invariance_convention",
            "chain_embedding",
            "coboundary_identity",
            "cocycle",
            "cojacobi",
            "compatibility",
            "double_is_glntn",
            "forms_comparison",
            "isotropic_pairing",
            "jacobi_double",
            "jacobi_s_minus",
            "jacobi_s_plus",
            "rmatrix_conventions",
            "schouten",
            "twist_triviality",
        ):
            assert name in out


def test_verify_json_deterministic_modulo_timing():
    code1, out1, _ = run(["verify", "--n", "2", "--json"])
    code2, out2, _ = run(["verify", "--n", "2", "--json"])
    assert code1 == code2 == 0

    def normalized(text):
        payload = json.loads(text)
        for check in payload["checks"]:
            check["millis"] = 0
        return json.dumps(payload, sort_keys=True)

    assert normalized(out1) == normalized(out2)
    payload = json.loads(out1)
    names = [check["name"] for check in payload["checks"]]
    assert names == sorted(names)
    note = next(c for c in payload["checks"] if c["name"] == "rmatrix_conventions")
    assert note["note"] == CARTAN_COEFFICIENT_NOTE
    convention = next(
        c for c in payload["checks"] if c["name"] == "ad_invariance_convention"
    )
    assert convention["detail"] == "holds: invariant"


def test_verify_detail_n1_reports_both_conventions():
    code, out, _ = run(["verify", "--n", "1", "--json"])
    payload = json.loads(out)
    convention = next(
        c for c in payload["checks"] if c["name"] == "ad_invariance_convention"
    )
    assert convention["detail"] == "holds: invariant, anti_invariant"
    schouten = next(c for c in payload["checks"] if c["name"] == "schouten")
    assert "triangular" in schouten["detail"]


def test_exit_code_2_on_parse_error(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra a dim 2\nbasis A B\n[A,C] = A\n", encoding="utf-8")
    code, _, err = run(["check-jacobi", str(bad)])
    assert code == 2
    assert "unknown label" in err


def test_exit_code_2_on_missing_file():
    code, _, err = run(["check-jacobi", "/nonexistent/file.alg"])
    assert code == 2
    assert "error:" in err


def test_exit_code_2_on_a_file_that_is_not_utf8(algebra_files, tmp_path):
    plus, minus, _ = algebra_files
    utf16 = tmp_path / "utf16.alg"
    utf16.write_bytes(RANK_TWO_PLUS.encode("utf-16"))  # starts with the bytes ff fe
    code, out, err = run(["check-jacobi", str(utf16)])
    assert (code, out, err) == (
        2, "", f"error: {utf16}: line 1, column 1: not UTF-8: invalid start byte\n"
    )
    latin1 = tmp_path / "latin1.alg"
    latin1.write_bytes(RANK_TWO_PLUS.replace("Z3\n", "Z3 # \xe9t\xe9\n", 1).encode("latin-1"))
    for argv in (
        ["compat", "--plus", str(latin1), "--minus", str(minus)],
        ["compat", "--plus", str(plus), "--minus", str(latin1)],
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == f"error: {latin1}: line 2, column 18: not UTF-8: invalid continuation byte\n"
    # with two bad files the error names the --plus one, so the orders differ
    _, _, latin1_first = run(["compat", "--plus", str(latin1), "--minus", str(utf16)])
    _, _, utf16_first = run(["compat", "--plus", str(utf16), "--minus", str(latin1)])
    assert latin1_first.startswith(f"error: {latin1}: line 2, column 18: ")
    assert utf16_first.startswith(f"error: {utf16}: line 1, column 1: ")


def test_paired_files_of_different_dimensions_are_both_named(algebra_files, tmp_path):
    plus, _, _ = algebra_files  # dimension 3
    small = tmp_path / "d2.alg"
    small.write_text("algebra two dim 2\nbasis A B\n[A,B] = B\n", encoding="utf-8")
    for command in ("compat", "double"):
        code, out, err = run([command, "--plus", str(small), "--minus", str(plus)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: paired files declare different dimensions: {small} has dimension 2, "
            f"{plus} has dimension 3\n"
        )
        code, out, err = run([command, "--plus", str(plus), "--minus", str(small)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: paired files declare different dimensions: {plus} has dimension 3, "
            f"{small} has dimension 2\n"
        )


def test_n_above_max_n_exits_2_before_building(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("nothing may be built for an out-of-range --n")

    monkeypatch.setattr(suite, "build_s_plus", fail)
    too_big = str(MAX_N + 1)
    for argv in (["verify", "--n", too_big], ["gln", "--n", too_big, "--emit", "report"]):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == f"error: --n must be between 1 and {MAX_N}\n"
    code, out, _ = run(["gln", "--n", str(MAX_N), "--emit", "splus"])
    assert code == 0 and out.startswith("algebra splus")


def test_gln_report_at_n_11_passes():
    # from n = 10 on, F and Y labels separate their two indices: F1_11 vs F11_1
    code, out, err = run(["gln", "--n", "11", "--emit", "report"])
    assert (code, err) == (0, "")
    assert out.count("[PASS]") == 15


def test_exit_code_2_on_usage_error():
    code, _, _ = run(["gln", "--n", "2", "--emit", "nonsense"])
    assert code == 2
    code, _, err = run(["verify", "--n", "0"])
    assert code == 2


def test_jacobi_failure_exits_1(tmp_path):
    bad = tmp_path / "nonlie.alg"
    bad.write_text(
        "algebra bad dim 3\nbasis A B C\n[A,B] = A\n[A,C] = 1/2*sqrt2*C\n[B,C] = -1/2*sqrt2*C\n",
        encoding="utf-8",
    )
    code, out, _ = run(["check-jacobi", str(bad)])
    assert code == 1
    assert "[FAIL] jacobi" in out
    assert "(0, 1, 2)" in out


def test_verbosity_env_truncates_text(monkeypatch, tmp_path):
    bad = tmp_path / "nonlie.alg"
    bad.write_text(
        "algebra bad dim 4\nbasis A B C D\n[A,B] = A\n[A,C] = C\n[B,C] = -C\n"
        "[A,D] = D\n[B,D] = -D\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("LIEDOUBLE_VERBOSITY", "1")
    code, out, _ = run(["check-jacobi", str(bad)])
    assert code == 1
    assert "... 1 more" in out
    monkeypatch.setenv("LIEDOUBLE_VERBOSITY", "10")
    _, out_full, _ = run(["check-jacobi", str(bad)])
    assert "more" not in out_full


def test_double_with_colliding_labels_roundtrips(tmp_path):
    # both halves may reuse label names; the double disambiguates and the
    # emitted file stays parseable
    colliding = RANK_TWO_MINUS.replace("sminus2", "other").replace("z", "Z")
    plus = tmp_path / "plus.alg"
    plus.write_text(RANK_TWO_PLUS, encoding="utf-8")
    minus = tmp_path / "minus.alg"
    minus.write_text(colliding, encoding="utf-8")
    code, out, _ = run(["double", "--plus", str(plus), "--minus", str(minus)])
    assert code == 0
    from liedouble import parse_algebra_file

    double = parse_algebra_file(out).to_algebra()
    assert double.dim == 6
    assert double.labels == ("Z1", "Z2", "Z3", "r_Z1", "r_Z2", "r_Z3")
    assert double.check_jacobi().ok


def test_module_entry_point(algebra_files):
    import os
    import subprocess
    import sys

    import liedouble

    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(liedouble.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    plus, _, _ = algebra_files
    proc = subprocess.run(
        [sys.executable, "-m", "liedouble", "check-jacobi", str(plus)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "[PASS] jacobi" in proc.stdout


def test_gln_report_matches_verify():
    code1, out1, _ = run(["gln", "--n", "2", "--emit", "report", "--json"])
    code2, out2, _ = run(["verify", "--n", "2", "--json"])
    assert code1 == code2 == 0
    payload1, payload2 = json.loads(out1), json.loads(out2)
    names1 = [(c["name"], c["status"]) for c in payload1["checks"]]
    names2 = [(c["name"], c["status"]) for c in payload2["checks"]]
    assert names1 == names2


def test_a_leading_byte_order_mark_changes_no_output(algebra_files, tmp_path, monkeypatch):
    plus, minus, broken = algebra_files
    too_big = tmp_path / "too_big.alg"
    too_big.write_text("algebra big dim 9999\n", encoding="utf-8")
    with_bom = tmp_path / "bom"
    with_bom.mkdir()
    for path in (plus, minus, broken, too_big):
        (with_bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    pairs = [["--plus", "splus.alg", "--minus", m] for m in ("sminus.alg", "sminus_broken.alg")]
    runs = [["check-jacobi", name] for name in ("splus.alg", "sminus_broken.alg", "too_big.alg")]
    runs += [[command, *pair] for command in ("compat", "double") for pair in pairs]
    for argv in runs:
        for flag in ([], ["--json"]):
            outputs = []
            for directory in (tmp_path, with_bom):
                monkeypatch.chdir(directory)
                code, out, err = run(argv + flag)
                outputs.append((code, mask_millis(out), err))
            assert outputs[0] == outputs[1], argv + flag
    assert outputs[0][0] == 1  # the last run is an incompatible double


def test_a_byte_order_mark_does_not_move_the_not_utf8_column(tmp_path):
    plain = tmp_path / "plain.alg"
    plain.write_bytes(b"algebra a dim 2 # \xe9\n")
    marked = tmp_path / "marked.alg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for path in (plain, marked):
        assert run(["check-jacobi", str(path)]) == (
            2, "", f"error: {path}: line 1, column 19: not UTF-8: invalid continuation byte\n"
        )
