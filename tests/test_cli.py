"""Command-line front end: payload shapes, formats, determinism, exit codes."""

import argparse
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import bergman_csym.cli as cli
from bergman_csym import (
    InvalidInputError,
    SpaceParams,
    composition_matrix,
    dilation_about,
    gram_column_zero,
    gram_exact,
    kernel_check,
    rotation,
    to_series,
    weights,
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"payload holds {name}, which strict JSON does not allow")


def strict_json(text):
    """Parse a payload, refusing the NaN and Infinity that ``json.loads`` accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def payload(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return strict_json(out)


def as_complex(pair):
    return complex(pair[0], pair[1])


# --- classify ----------------------------------------------------------


def test_classify_half_shift(capsys):
    doc = payload(capsys, ["classify", "--a", "1", "--b", "1", "--c", "0", "--d", "2"])
    assert doc["schema"] == "bergman-csym/1"
    assert doc["kind"] == "parabolic"
    assert doc["is_automorphism"] is False
    assert doc["dw"] == [1, 0]
    assert doc["dw_route"] == "boundary-attracting"
    finite = [p for p in doc["fixed_points"] if p["point"] != "inf"]
    assert len(finite) == 1
    assert finite[0]["location"] == "boundary"
    assert as_complex(finite[0]["multiplier"]) == 0.5
    infinite = [p for p in doc["fixed_points"] if p["point"] == "inf"]
    assert infinite[0]["location"] == "exterior"


def test_classify_identity(capsys):
    doc = payload(capsys, ["classify", "--a", "1", "--b", "0", "--c", "0", "--d", "1"])
    assert doc["kind"] == "identity"
    assert doc["dw"] is None


def test_classify_hyperbolic_model(capsys):
    doc = payload(
        capsys, ["classify", "--a", "0.5", "--b", "0", "--c", "-0.5", "--d", "1"]
    )
    assert doc["kind"] == "hyperbolic-nonautomorphism"
    assert doc["dw"] == [0, 0]


def test_classify_rejects_expanding_map(capsys):
    code, _, err = run_cli(capsys, ["classify", "--a", "2", "--b", "0", "--c", "0", "--d", "1"])
    assert code == 2
    assert err.strip() != ""


def test_classify_requires_a_symbol(capsys):
    code, _, err = run_cli(capsys, ["classify"])
    assert code == 2


# --- series ------------------------------------------------------------


def test_series_expansion_of_involution(capsys):
    doc = payload(
        capsys,
        ["series", "--a", "-1", "--b", "0.5", "--c", "-0.5", "--d", "1", "--degree", "2"],
    )
    assert doc["coefficients"] == [[0.5, 0], [-0.75, 0], [-0.375, 0]]


def test_series_dilation_shorthand_matches_library(capsys):
    doc = payload(capsys, ["series", "--about", "0.3", "--factor", "0,1", "--degree", "6"])
    expected = to_series(dilation_about(0.3, 1j), 6)
    got = np.array([as_complex(p) for p in doc["coefficients"]])
    np.testing.assert_allclose(got, expected.coeffs, atol=1e-15)


# --- matrix ------------------------------------------------------------


def test_matrix_json_rotation_diagonal(capsys):
    doc = payload(
        capsys,
        ["matrix", "--a", "0,1", "--b", "0", "--c", "0", "--d", "1", "--beta", "0", "--dim", "4"],
    )
    entries = [as_complex(p) for p in doc["entries"]]
    got = np.array(entries).reshape(4, 4)
    np.testing.assert_allclose(got, np.diag([1, 1j, -1, -1j]), atol=1e-15)


def test_matrix_csv_round_trips_through_loadtxt(capsys, tmp_path):
    out_file = tmp_path / "matrix.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "matrix", "--about", "0.4", "--factor", "0,1", "--beta", "1",
            "--dim", "9", "--format", "csv", "--output", str(out_file),
        ],
    )
    assert code == 0
    raw = np.loadtxt(out_file, delimiter=",")
    assert raw.shape == (9, 18)
    got = raw[:, :9] + 1j * raw[:, 9:]
    expected = composition_matrix(dilation_about(0.4, 1j), SpaceParams(1), 8).mat
    np.testing.assert_allclose(got, expected, atol=1e-15)


# --- residual checks ---------------------------------------------------


def test_kernel_check_reports_tiny_residual(capsys):
    doc = payload(capsys, ["kernel-check", "--beta", "0", "--dim", "128", "--cases", "10", "--seed", "1"])
    assert doc["max_error"] < 1e-9
    assert doc["cases"] == 10


def test_kernel_check_divides_by_subnormal_weights(capsys):
    # w(233) = 1e-323 at beta = 2000.5, yet every kernel coefficient up to
    # degree 233 is a double, divided part by part.
    doc = payload(capsys, ["kernel-check", "--beta", "2000.5", "--dim", "234", "--cases", "2"])
    assert doc["max_error"] < 1e-9


@pytest.mark.parametrize("beta,dim,cases,seed", [(0, 64, 5, 0), (2.5, 128, 7, 3), (2000.5, 234, 2, 0)])
def test_kernel_check_payload_is_the_library_value(capsys, beta, dim, cases, seed):
    argv = ["kernel-check", "--beta", str(beta), "--dim", str(dim), "--cases", str(cases), "--seed", str(seed)]
    assert kernel_check(SpaceParams(beta), dim - 1, cases, seed) == payload(capsys, argv)["max_error"]


@pytest.mark.parametrize("cases,seed", [(0, 0), (5, -1)])
def test_kernel_check_refuses_in_the_library_with_the_commands_message(capsys, cases, seed):
    message = f"need cases >= 1 and seed >= 0, got cases={cases}, seed={seed}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        kernel_check(SpaceParams(0), 63, cases, seed)
    argv = ["kernel-check", "--beta", "0", "--dim", "64", "--cases", str(cases), "--seed", str(seed)]
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_hurst_check_on_involution(capsys):
    doc = payload(
        capsys,
        ["hurst-check", "--a", "-1", "--b", "0.5", "--c", "-0.5", "--d", "1",
         "--beta", "0", "--dim", "128", "--block", "8"],
    )
    assert doc["residual"] < 1e-8


def test_eigencheck_residual_and_validation(capsys):
    doc = payload(
        capsys,
        ["eigencheck", "--s", "0.5", "--exponent", "2.5", "--beta", "0", "--dim", "512", "--block", "64"],
    )
    assert doc["residual"] < 1e-6

    code, _, err = run_cli(capsys, ["eigencheck", "--s", "1.5", "--exponent", "1", "--beta", "0", "--dim", "64"])
    assert code == 2


# --- gram --------------------------------------------------------------


def test_gram_json_band_summary(capsys):
    doc = payload(capsys, ["gram", "--beta", "0", "--alpha", "0.5,0", "--n", "12"])
    assert doc["max_out_of_band"] == 0
    np.testing.assert_allclose(doc["max_in_band"], 16 / 9, rtol=1e-15)
    assert len(doc["entries"]) == 144


def test_gram_csv_matches_exact_table(capsys, tmp_path):
    out_file = tmp_path / "gram.csv"
    code, _, _ = run_cli(
        capsys,
        ["gram", "--beta", "1", "--alpha", "0.3,0.1", "--n", "6",
         "--format", "csv", "--output", str(out_file)],
    )
    assert code == 0
    rows = np.loadtxt(out_file, delimiter=",")
    assert rows.shape == (36, 4)
    expected = gram_exact(SpaceParams(1), 0.3 + 0.1j, 6).entries
    for n, m, re, im in rows:
        np.testing.assert_allclose(complex(re, im), expected[int(n), int(m)], atol=1e-14)


def test_gram_near_the_beta_bound_prints_no_warning(capsys):
    # A RuntimeWarning is an error under the test settings, so it would exit 3 here.
    doc = payload(capsys, ["gram", "--beta", "1020", "--alpha", "0.5", "--n", "4"])
    assert doc["max_out_of_band"] == 0
    assert 0 < doc["max_in_band"] < 1e128


def test_gram_at_subnormal_weights_keeps_the_double_range(capsys):
    # At beta = 2000.5 the kernel coefficient 0.9**229 / w(229) overflows, yet
    # G[0, 0] = sum_k 0.81**k / w(k), the squared norm of the truncated kernel
    # at 0.9, is a double.
    doc = payload(capsys, ["gram", "--beta", "2000.5", "--alpha", "0.9", "--n", "3", "--dim", "234"])
    w = weights(SpaceParams(2000.5), 233)
    expected = sum(Fraction(0.9) ** (2 * k) / Fraction(x) for k, x in enumerate(w))
    np.testing.assert_allclose(as_complex(doc["entries"][0]), float(expected), rtol=1e-13)


def test_gram_noninteger_beta_needs_dimension(capsys):
    code, _, err = run_cli(capsys, ["gram", "--beta", "-0.5", "--alpha", "0.4,0", "--n", "6"])
    assert code == 2

    doc = payload(capsys, ["gram", "--beta", "-0.5", "--alpha", "0.4,0", "--n", "6", "--dim", "256"])
    entries = np.array([as_complex(p) for p in doc["entries"]]).reshape(6, 6)
    for n in range(1, 6):
        np.testing.assert_allclose(
            entries[n, 0], gram_column_zero(SpaceParams(-0.5), 0.4, n), atol=1e-8
        )


# --- subspace and witness ---------------------------------------------


def test_subspace_certificate_payload(capsys):
    doc = payload(capsys, ["subspace", "--beta", "0", "--alpha", "0.5,0", "--order", "6", "--count", "4"])
    assert doc["guaranteed"] is True
    assert doc["threshold"] == 6
    assert doc["max_cross"] < 1e-10


def test_witness_payload_frozen(capsys):
    doc = payload(capsys, ["witness", "--alpha", "0.5,0", "--beta", "0"])
    assert doc["direct"] == [0.125, 0]
    assert doc["truncated"] == [0.125, 0]
    assert doc["difference"] == 0


def test_witness_payload_at_large_beta(capsys):
    doc = payload(capsys, ["witness", "--alpha", "0.9", "--beta", "400"])
    assert doc["direct"][0] == 0.9**403
    assert 0 < doc["difference"] <= 403 * 2.0**-52 * doc["direct"][0]


# --- csym search -------------------------------------------------------


def test_csym_rotation_converges(capsys):
    doc = payload(capsys, ["csym", "--a", "0,1", "--b", "0", "--c", "0", "--d", "1",
                           "--beta", "0", "--dim", "12", "--iters", "10"])
    assert doc["final_residual"] < 1e-10
    best = doc["best_trace"]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))


def test_csym_elliptic_order_eight_carries_certificate(capsys):
    factor = np.exp(2j * np.pi / 8)
    doc = payload(
        capsys,
        ["csym", "--about", "0.3", "--factor", f"{factor.real},{factor.imag}",
         "--beta", "1", "--dim", "16", "--iters", "4"],
    )
    cert = doc["subspace_certificate"]
    assert cert["order"] == 8
    assert cert["guaranteed"] is True
    assert cert["max_cross"] < 1e-10


def test_csym_low_order_symbol_has_no_certificate(capsys):
    doc = payload(capsys, ["csym", "--a", "-1", "--b", "0.5", "--c", "-0.5", "--d", "1",
                           "--beta", "0", "--dim", "8", "--iters", "4"])
    assert doc["subspace_certificate"] is None


# --- iterate -----------------------------------------------------------


def test_iterate_default_output_is_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["iterate", "--a", "1", "--b", "1", "--c", "0", "--d", "2", "--start", "0,0", "--steps", "5"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 6
    for n, (idx, re, im) in enumerate(rows):
        assert int(idx) == n
        assert float(re) == 1 - 2.0 ** (-n)
        assert float(im) == 0.0


def test_iterate_json_connects_to_attracting_point(capsys):
    doc = payload(
        capsys,
        ["iterate", "--a", "0.5", "--b", "0", "--c", "-0.5", "--d", "1",
         "--start", "0.9,0", "--steps", "40", "--format", "json"],
    )
    last = as_complex(doc["iterates"][-1])
    assert abs(last) < 1e-6


# --- plumbing ----------------------------------------------------------


def test_output_file_receives_payload_and_stdout_the_summary(capsys, tmp_path):
    out_file = tmp_path / "witness.json"
    code, out, _ = run_cli(capsys, ["witness", "--alpha", "0.3,0", "--beta", "0", "--output", str(out_file)])
    assert code == 0
    doc = strict_json(out_file.read_text())
    np.testing.assert_allclose(doc["direct"][0], 0.027, rtol=1e-12)
    assert out.strip() != ""  # human summary still printed


def test_summary_goes_to_stderr_when_payload_on_stdout(capsys):
    code, out, err = run_cli(capsys, ["witness", "--alpha", "0.3,0", "--beta", "0"])
    assert code == 0
    strict_json(out)  # stdout is exactly the payload
    assert err.strip() != ""


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["kernel-check", "--beta", "1", "--dim", "64", "--cases", "5", "--seed", "9"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_unknown_arguments_exit_with_usage_error(capsys):
    assert run_cli(capsys, ["classify", "--bogus", "1"])[0] == 2
    assert run_cli(capsys, ["no-such-command"])[0] == 2


@pytest.mark.parametrize("value", ["0.3+0.2j", "1,2,3", "0.5,", "half"])
def test_malformed_complex_argument_names_the_accepted_format(capsys, value):
    code, out, err = run_cli(capsys, ["gram", "--beta", "1", "--alpha", value])
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: argument --alpha: expected 're' or 're,im', got {value!r}\n")


def test_internal_failures_exit_with_code_three(capsys, monkeypatch):
    def explode(args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._HANDLERS, "witness", explode)
    code, _, err = run_cli(capsys, ["witness", "--alpha", "0.5,0", "--beta", "0"])
    assert code == 3
    assert "synthetic failure" in err


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "bergman_csym.cli", "witness", "--alpha", "0.5,0", "--beta", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert strict_json(result.stdout)["direct"] == [0.125, 0]


@pytest.mark.parametrize(
    "command",
    [["classify"], ["series"], ["matrix", "--beta", "0", "--dim", "8"],
     ["hurst-check", "--beta", "0", "--dim", "32", "--block", "4"],
     ["csym", "--beta", "0", "--dim", "8", "--iters", "5"]],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize(
    "unit,tiny", [(("0.5", "1"), ("1e-310", "2e-310")), (("1", "1"), ("1e-310", "1e-310"))],
    ids=["half", "identity"],
)
def test_subnormal_coefficients_give_the_payload_of_the_unit_scale_map(capsys, command, unit, tiny):
    # 1e-310 z / 2e-310 is z / 2: the map is rescaled by a power of two on construction.
    def run(a, d):
        return run_cli(capsys, [*command, "--a", a, "--b", "0", "--c", "0", "--d", d])

    expected = run(*unit)
    assert expected[0] == 0, expected[2]
    assert run(*tiny) == expected


def test_classify_contraction_is_not_an_automorphism(capsys):
    code, out, err = run_cli(capsys, ["classify", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1"])
    assert code == 0, err
    assert '"is_automorphism":false' in out
    assert strict_json(out)["dw"] == [0, 0]


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--beta", "-2", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1"],
        ["matrix", "--beta", "nan", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1"],
        ["gram", "--beta", "0", "--alpha", "0.5", "--n", "0"],
        ["iterate", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--start", "0.3",
         "--steps", "-1"],
        ["subspace", "--beta", "0", "--alpha", "0.5", "--order", "0"],
        ["matrix", "--beta", "0", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--dim", "0"],
        ["series", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--degree", "-3"],
        ["subspace", "--beta", "0", "--alpha", "nan", "--order", "6", "--count", "2"],
        ["gram", "--beta", "0", "--alpha", "nan", "--n", "4"],
        ["gram", "--beta", "0.5", "--alpha", "0.4", "--n", "-2", "--dim", "8"],
        ["gram", "--beta", "0.5", "--alpha", "0.4", "--n", "0", "--dim", "8"],
        ["gram", "--beta", "0.5", "--alpha", "0.4", "--n", "4", "--dim", "0"],
        ["classify", "--about", "0.5", "--factor", "nan"],
        ["eigencheck", "--s", "0.5", "--exponent", "nan"],
        ["kernel-check", "--beta", "0", "--dim", "0"],
        ["kernel-check", "--beta", "0", "--cases", "-1"],
        ["kernel-check", "--beta", "0", "--seed", "-1"],
        ["csym", "--beta", "0", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--iters", "-1"],
        ["csym", "--beta", "0", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--iters", "0"],
        ["csym", "--beta", "0", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--seed", "-1"],
        ["iterate", "--a", "1", "--b", "1", "--c", "0", "--d", "2", "--start", "nan,0", "--steps", "0"],
        ["iterate", "--a", "1", "--b", "1", "--c", "0", "--d", "2", "--start", "nan,0", "--steps", "3"],
        ["kernel-check", "--beta", "400", "--dim", "1024", "--cases", "2"],
        ["matrix", "--beta", "500", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--dim", "1024"],
        ["matrix", "--beta", "2000.5", "--about", "0.3", "--factor", "0,1", "--dim", "600"],
        ["gram", "--beta", "1030", "--alpha", "0.5", "--n", "4"],
        ["subspace", "--beta", "1030", "--alpha", "0.5", "--order", "3"],
        ["gram", "--beta", "1e300", "--alpha", "0.5"],
        ["gram", "--beta", "600", "--alpha", "0.95", "--n", "12"],
        ["witness", "--beta", "1e300", "--alpha", "0.5"],
        ["gram", "--beta", "1020", "--alpha", "0.5", "--n", "300"],
        ["classify", "--a", "0.5", "--b", "0", "--c", "0", "--d", "1", "--factor", "2"],
        ["classify", "--about", "0.3", "--factor", "0,1", "--a", "5", "--d", "1"],
        ["gram", "--beta", "1", "--alpha", "0.5", "--n", "3", "--dim", "8"],
        ["witness", "--beta", "0.5", "--alpha", "0.5"],
    ],
    ids=["beta-below-range", "beta-nan", "gram-size-0", "negative-steps", "order-0", "dim-0",
         "negative-degree", "subspace-alpha-nan", "gram-alpha-nan", "gram-truncated-size-negative",
         "gram-truncated-size-0", "gram-truncated-dim-0", "factor-nan", "exponent-nan",
         "kernel-check-dim-0", "kernel-check-cases-negative", "kernel-check-seed-negative",
         "csym-iters-negative", "csym-iters-0", "csym-seed-negative", "iterate-nan-seed-0-steps",
         "iterate-nan-seed-3-steps", "kernel-check-weight-underflow", "matrix-weight-underflow",
         "matrix-noninteger-weight-underflow", "gram-binomial-overflow", "subspace-binomial-overflow",
         "gram-huge-beta", "gram-scale-overflow", "witness-huge-beta", "gram-sum-overflow",
         "factor-without-about", "about-with-coefficients", "gram-exact-with-dim",
         "witness-noninteger-beta"],
)
def test_invalid_input_exits_with_code_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_SHIFT = ["--a", "0.5", "--b", "0", "--c", "0", "--d", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--beta", "0", *_SHIFT],
        ["kernel-check", "--beta", "0"],
        ["hurst-check", "--beta", "0", *_SHIFT],
        ["gram", "--beta", "0.5", "--alpha", "0.4", "--n", "4"],
        ["gram", "--beta", "0", "--alpha", "0.4", "--n", "4"],
        ["csym", "--beta", "0", *_SHIFT],
        ["eigencheck", "--s", "0.5", "--exponent", "1"],
    ],
    ids=["matrix", "kernel-check", "hurst-check", "gram-truncated", "gram-exact", "csym", "eigencheck"],
)
@pytest.mark.parametrize("dim", ["0", "-1", "-4"])
def test_dim_below_one_is_named_in_the_error(capsys, argv, dim):
    code, out, err = run_cli(capsys, [*argv, "--dim", dim])
    assert code == 2
    assert out == ""
    assert err == f"error: --dim must be at least 1, got {dim}\n"


def test_no_command_loads_scipy():
    commands = [
        ["gram", "--beta", "0", "--alpha", "0.5"],
        ["gram", "--beta", "0.5", "--alpha", "0.3", "--dim", "32"],
        ["matrix", "--beta", "2.5", *_SHIFT, "--dim", "16"],
        ["hurst-check", "--beta", "0.5", *_SHIFT, "--dim", "32", "--block", "4"],
        ["eigencheck", "--beta", "1.5", "--s", "0.5", "--exponent", "1", "--dim", "64"],
    ]
    script = (
        "import sys, bergman_csym\n"
        "from bergman_csym import cli\n"
        "assert 'scipy' not in sys.modules\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --- pinned bytes ------------------------------------------------------

_ROTATION = ["--a", "0,1", "--b", "0", "--c", "0", "--d", "1"]
_HEAD = '{"schema":"bergman-csym/1",'


@pytest.mark.parametrize(
    "argv,out,err",
    [
        (["classify", *_SHIFT],
         _HEAD + '"kind":"loxodromic","is_automorphism":false,"fixed_points":['
         '{"point":[0,0],"location":"interior","multiplier":[0.5,0]},'
         '{"point":"inf","location":"exterior","multiplier":[2,0]}],'
         '"dw":[0,0],"dw_route":"interior-fixed-point"}\n',
         "kind=loxodromic dw=0+0j route=interior-fixed-point\n"),
        (["classify", *_ROTATION],
         _HEAD + '"kind":"rotation-like-elliptic","is_automorphism":true,"fixed_points":['
         '{"point":[0,0],"location":"interior","multiplier":[0,1]},'
         '{"point":"inf","location":"exterior","multiplier":[0,-1]}],'
         '"dw":[0,0],"dw_route":"elliptic-no-dw"}\n',
         "kind=rotation-like-elliptic dw=0+0j route=elliptic-no-dw\n"),
        (["series", *_ROTATION, "--degree", "3"],
         _HEAD + '"degree":3,"coefficients":[[0,0],[0,1],[0,0],[0,0]]}\n',
         "series degree 3: 0, 0+1j, 0, 0, ...\n"),
        (["matrix", "--beta", "0", *_SHIFT, "--dim", "3"],
         _HEAD + '"beta":0,"dim":3,"entries":'
         '[[1,0],[0,0],[0,0],[0,0],[0.5,0],[0,0],[0,0],[0,0],[0.25,0]]}\n',
         "matrix 3x3 frobenius=1.14564392373896\n"),
        (["matrix", "--beta", "0", *_SHIFT, "--dim", "3", "--format", "csv"],
         "1,0,0,0,0,0\n0,0.5,0,0,0,0\n0,0,0.25,0,0,0\n",
         "matrix 3x3 frobenius=1.14564392373896\n"),
        (["matrix", "--beta", "1", *_ROTATION, "--dim", "3"],
         _HEAD + '"beta":1,"dim":3,"entries":'
         '[[1,0],[0,0],[0,0],[0,0],[0,1],[0,0],[0,0],[0,0],[-1,0]]}\n',
         "matrix 3x3 frobenius=1.7320508075688772\n"),
        (["matrix", "--beta", "1", *_ROTATION, "--dim", "3", "--format", "csv"],
         "1,0,0,0,0,0\n0,0,0,0,1,0\n0,0,-1,0,0,0\n",
         "matrix 3x3 frobenius=1.7320508075688772\n"),
        (["hurst-check", "--beta", "0", *_ROTATION, "--dim", "16", "--block", "2"],
         _HEAD + '"beta":0,"dim":16,"block":2,"residual":0}\n',
         "factorization residual 0 on 2x2 block\n"),
        (["gram", "--beta", "0", "--alpha", "0", "--n", "2"],
         _HEAD + '"beta":0,"alpha":[0,0],"size":2,"entries":[[1,0],[0,0],[0,0],[0.5,0]],'
         '"max_in_band":1,"max_out_of_band":0}\n',
         "gram 2x2: max in-band 1, max out-of-band 0\n"),
        (["gram", "--beta", "0", "--alpha", "0", "--n", "2", "--format", "csv"],
         "0,0,1,0\n0,1,0,0\n1,0,0,0\n1,1,0.5,0\n",
         "gram 2x2: max in-band 1, max out-of-band 0\n"),
        (["subspace", "--beta", "0", "--alpha", "0.5", "--order", "6", "--count", "2"],
         _HEAD + '"beta":0,"alpha":[0.5,0],"order":6,"count":2,"threshold":6,'
         '"guaranteed":true,"max_cross":0}\n',
         "max cross inner product 0 [guaranteed]\n"),
        (["witness", "--beta", "0", "--alpha", "0.5"],
         _HEAD + '"beta":0,"alpha":[0.5,0],"direct":[0.125,0],"truncated":[0.125,0],"difference":0}\n',
         "witness |alpha|^(3+beta) = 0.125, routes differ by 0\n"),
        (["csym", "--beta", "0", *_ROTATION, "--dim", "4", "--iters", "2"],
         _HEAD + '"beta":0,"dim":4,"iters":2,"seed":0,"best_trace":[0],"residuals":[0],'
         '"final_residual":0,"subspace_certificate":null}\n',
         "search residual 0 after 1 iterations\n"),
        (["iterate", *_SHIFT, "--start", "0.5", "--steps", "3"],
         "0,0.5,0\n1,0.25,0\n2,0.125,0\n3,0.0625,0\n",
         "orbit did not settle in 3 steps\n"),
        (["iterate", *_ROTATION, "--start", "0.5", "--steps", "4", "--format", "json"],
         _HEAD + '"start":[0.5,0],"steps":4,"converged":false,"limit":null,'
         '"iterates":[[0.5,0],[0,0.5],[-0.5,0],[0,-0.5],[0.5,0]]}\n',
         "orbit did not settle in 4 steps\n"),
        (["eigencheck", "--s", "0.5", "--exponent", "1", "--dim", "8"],
         _HEAD + '"beta":0,"s":[0.5,0],"exponent":1,"dim":8,"block":1,"residual":0}\n',
         "eigen-relation residual 0\n"),
    ],
    ids=["classify-half", "classify-rotation", "series-rotation", "matrix-json-half",
         "matrix-csv-half", "matrix-json-rotation", "matrix-csv-rotation", "hurst-check-rotation",
         "gram-json", "gram-csv", "subspace", "witness", "csym-rotation", "iterate-csv-half",
         "iterate-json-rotation", "eigencheck"],
)
def test_exact_payloads_are_pinned_byte_for_byte(capsys, argv, out, err):
    # Every number here is exact in binary floating point, so the bytes
    # pin the serializer, not the numerics behind it.
    assert run_cli(capsys, argv) == (0, out, err)


_SYMBOL_FLAGS = {"--a", "--b", "--c", "--d", "--about", "--factor"}
_COMMON_FLAGS = {"-h", "--help", "--output"}


@pytest.mark.parametrize(
    "command,options",
    [
        ("classify", _SYMBOL_FLAGS),
        ("series", _SYMBOL_FLAGS | {"--degree"}),
        ("matrix", _SYMBOL_FLAGS | {"--beta", "--dim", "--format"}),
        ("kernel-check", {"--beta", "--dim", "--cases", "--seed"}),
        ("hurst-check", _SYMBOL_FLAGS | {"--beta", "--dim", "--block"}),
        ("gram", {"--beta", "--alpha", "--n", "--dim", "--format"}),
        ("subspace", {"--beta", "--alpha", "--order", "--count"}),
        ("witness", {"--beta", "--alpha"}),
        ("csym", _SYMBOL_FLAGS | {"--beta", "--dim", "--iters", "--seed"}),
        ("iterate", _SYMBOL_FLAGS | {"--start", "--steps", "--format"}),
        ("eigencheck", {"--s", "--exponent", "--beta", "--dim", "--block"}),
    ],
)
def test_each_subcommand_takes_exactly_its_options(command, options):
    subcommands = next(
        action.choices for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subcommands) == set(cli._HANDLERS)
    got = {flag for action in subcommands[command]._actions for flag in action.option_strings}
    assert got == options | _COMMON_FLAGS


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--factor", "2", *_SHIFT], "--factor needs --about"),
        (["--about", "0.3", "--a", "5", "--d", "1"], "--about builds the map, so --a, --d cannot be given with it"),
    ],
    ids=["factor-without-about", "about-with-coefficients"],
)
def test_mixed_symbol_forms_name_the_flags(capsys, argv, message):
    assert run_cli(capsys, ["classify", *argv]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("name", ["missing/out.json", "", None], ids=["missing-directory", "directory", "empty"])
def test_unwritable_output_exits_with_code_two(capsys, tmp_path, name):
    # None stands for the empty path itself, which names no file.
    target = "" if name is None else tmp_path / name
    code, out, err = run_cli(capsys, ["witness", "--beta", "0", "--alpha", "0.5", "--output", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1


def test_csym_near_the_circle_carries_its_certificate(capsys):
    doc = payload(capsys, ["csym", "--beta", "0", "--about", "0.999",
                           "--factor", "0.7071067811865476,0.7071067811865476", "--dim", "6", "--iters", "2"])
    assert doc["subspace_certificate"]["order"] == 8
