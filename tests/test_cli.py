"""Command-line surface: flag parsing, the three output formats, exit
codes, decimal-string serialization of large values, and determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qident
from qident.cli import main
from qident.identities import REGISTRY, RegistryEntry
from qident.series import monomial, one, zero

# Checks of the test-only ALWAYS_OFF entry, whose two sides always differ.
ALWAYS_OFF_CHECKS = {
    "huge_rhs_at_q7": lambda order: (zero(order), monomial(10 ** 30, 7, order)),
    "off_at_q0": lambda order: (one(order), monomial(2, 0, order)),
}


def _always_off(check):
    return RegistryEntry(check=check, default_grid=(dict(),), independence="test-only mutant")

# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def test_coeffs_csv_contains_reference_row(capsys):
    assert main(["coeffs", "--family", "V", "--sign", "plus", "--k", "3",
                 "--m", "inf", "--order", "6", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,coefficient"
    assert "5,27" in out


def test_coeffs_plain_trivial_chain(capsys):
    assert main(["coeffs", "--family", "V", "--sign", "plus", "--k", "0",
                 "--m", "inf", "--order", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "1 0", "2 0", "3 0"]


def test_coeffs_json_serializes_values_as_strings(capsys):
    assert main(["coeffs", "--family", "W", "--sign", "plus", "--k", "3",
                 "--m", "inf", "--order", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"][5] == "22"
    assert doc["m"] == "inf"
    assert all(isinstance(c, str) for c in doc["coefficients"])


def test_coeffs_rejects_bad_magnitude_bound():
    with pytest.raises(SystemExit) as excinfo:
        main(["coeffs", "--family", "V", "--sign", "plus", "--k", "1",
              "--m", "-2", "--order", "4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command, value", [
    (["coeffs", "--family", "V", "--sign", "plus", "--k", "1"], "0"),
    (["coeffs", "--family", "V", "--sign", "plus", "--k", "1"], "abc"),
    (["verify", "--id", "T1_V", "--k", "1"], "-3"),
])
def test_bad_magnitude_bound_names_the_flag(capsys, command, value):
    with pytest.raises(SystemExit) as excinfo:
        main(command + ["--m", value])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --m: --m must be a positive integer or 'inf', got {value}\n")


def test_coeffs_strict_family_with_finite_bound_is_usage_error(capsys):
    assert main(["coeffs", "--family", "A", "--sign", "plus", "--k", "1",
                 "--m", "3", "--order", "4"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_default_sign_fills_in(capsys):
    assert main(["verify", "--id", "T4_W", "--k", "2", "--order", "40"]) == 0
    assert "holds" in capsys.readouterr().out


def test_verify_unknown_id_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--id", "NOPE"])
    assert excinfo.value.code == 2


def test_verify_json_document(capsys):
    assert main(["verify", "--id", "L1", "--k", "0", "--order", "30",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"] == "L1"
    assert doc["params"] == {"k": 0}
    assert doc["order"] == 30
    assert doc["holds"] is True
    assert doc["first_discrepancy"] is None
    assert "elapsed_ms" in doc


def test_verify_deterministic_omits_timing(capsys):
    assert main(["verify", "--id", "L1", "--k", "0", "--order", "10",
                 "--format", "json", "--deterministic"]) == 0
    assert "elapsed_ms" not in json.loads(capsys.readouterr().out)


def test_verify_missing_required_param(capsys):
    assert main(["verify", "--id", "T1_V", "--k", "1", "--order", "5"]) == 2
    assert "missing" in capsys.readouterr().err


def test_verify_extra_param(capsys):
    assert main(["verify", "--id", "L1", "--k", "0", "--m", "3",
                 "--order", "5"]) == 2
    assert "unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("identity", ["L1", "L2"])
def test_verify_quotient_sum_rejects_negative_index(capsys, identity):
    assert main(["verify", "--id", identity, "--k", "-1", "--order", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be non-negative, got -1\n"


@pytest.mark.parametrize("args", [["--id", "T2_V", "--j", "-1", "--m", "1"],
                                  ["--id", "TT4_V", "--j", "-1"]])
def test_verify_j_indexed_checks_reject_negative_j(capsys, args):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: j must be non-negative, got -1\n"


@pytest.mark.parametrize("identity, sign, k, order", [
    ("T1_W", "minus", 2, 30), ("T1_V", "plus", 1, 20), ("T1_V", "plus", 5, 3),
    ("T1_V", "minus", 0, 0),
])
def test_verify_kernel_product_holds_at_unbounded_m(capsys, identity, sign, k, order):
    # the kernel at m = inf is the inverse-Pochhammer sum; k > order and
    # order 0 take the same path
    assert main(["verify", "--id", identity, "--sign", sign, "--k", str(k),
                 "--m", "inf", "--order", str(order)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "holds" in captured.out


def test_verify_csv_has_header(capsys):
    assert main(["verify", "--id", "CAUCHY", "--n", "2", "--s", "1",
                 "--order", "12", "--format", "csv", "--deterministic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,params,order,holds,disc_exponent,disc_lhs,disc_rhs"
    assert lines[1].startswith("CAUCHY,n=2;s=1,12,true")


def test_verify_failure_reports_big_integers_exactly(capsys):
    REGISTRY["ALWAYS_OFF"] = _always_off(ALWAYS_OFF_CHECKS["huge_rhs_at_q7"])
    try:
        assert main(["verify", "--id", "ALWAYS_OFF", "--order", "9",
                     "--format", "json", "--deterministic"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is False
        assert doc["first_discrepancy"] == {
            "exponent": 7, "lhs": "0", "rhs": str(10 ** 30)}
    finally:
        del REGISTRY["ALWAYS_OFF"]


def _every_parameter_kind(order, /, scale=1, *rest, sign, k, **more):
    local = order * scale
    return local, rest, sign, k, more


REQUIRED_CASES = {**{f"REGISTRY[{name}]": entry for name, entry in REGISTRY.items()},
                  **{f"ALWAYS_OFF[{name}]": _always_off(check)
                     for name, check in ALWAYS_OFF_CHECKS.items()},
                  "every_parameter_kind": _always_off(_every_parameter_kind)}


@pytest.mark.parametrize("name", REQUIRED_CASES)
def test_required_is_the_keyword_only_names_of_the_signature(name):
    entry = REQUIRED_CASES[name]
    params = inspect.signature(entry.check).parameters.values()
    assert entry.required == tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY)


def test_cli_start_up_loads_no_dataclasses_inspect_or_ast():
    # A fresh interpreter, since this one has imported them already.
    package_root = str(Path(qident.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import qident.cli\n"
            "qident.cli.build_parser()\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "qident.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "json", "csv"}), sorted(added)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_all_pass(capsys):
    assert main(["suite", "--order", "12", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "/ 0 failed /" in out.splitlines()[-1]


def test_suite_order_zero(capsys):
    assert main(["suite", "--order", "0", "--deterministic"]) == 0
    assert "/ 0 failed /" in capsys.readouterr().out


def test_suite_json_is_deterministic(capsys):
    argv = ["suite", "--order", "8", "--format", "json", "--deterministic"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["failed"] == 0
    assert doc["total"] == len(doc["cases"]) == doc["passed"]


def test_suite_reports_failures_with_exit_one(capsys):
    REGISTRY["ALWAYS_OFF"] = _always_off(ALWAYS_OFF_CHECKS["off_at_q0"])
    try:
        assert main(["suite", "--order", "4", "--deterministic"]) == 1
        out = capsys.readouterr().out
        assert "/ 1 failed /" in out
        assert "ALWAYS_OFF" in out
    finally:
        del REGISTRY["ALWAYS_OFF"]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_chain_cross_check(capsys):
    assert main(["oracle", "--which", "v", "--sign", "plus", "--k", "3",
                 "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "oracle=27" in out and "series=27" in out


def test_oracle_all_kinds_match():
    assert main(["oracle", "--which", "w", "--sign", "minus", "--k", "2",
                 "--m", "3", "--n", "9"]) == 0
    assert main(["oracle", "--which", "pp", "--n", "8"]) == 0
    assert main(["oracle", "--which", "pod", "--n", "8"]) == 0
    assert main(["oracle", "--which", "sigma", "--n", "9"]) == 0


def test_oracle_json(capsys):
    assert main(["oracle", "--which", "pp", "--n", "4",
                 "--format", "json", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"] == doc["series"] == "76"
    assert doc["match"] is True


def test_oracle_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("qident.cli.v_oracle", lambda *args: 999)
    assert main(["oracle", "--which", "v", "--sign", "plus", "--k", "3",
                 "--n", "5"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_oracle_domain_error_is_usage_error(capsys):
    assert main(["oracle", "--which", "sigma", "--n", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("which", ("pp", "pod"))
def test_oracle_pair_count_cap_is_usage_error(capsys, which):
    assert main(["oracle", "--which", which, "--n", "51"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: target 51 is above 50, the largest n the "
                            "brute-force pair counts enumerate\n")


@pytest.mark.parametrize("which", ("v", "w"))
def test_oracle_chain_cap_is_usage_error(capsys, which):
    assert main(["oracle", "--which", which, "--sign", "plus", "--k", "4",
                 "--n", "25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: target 25 is above 24, the largest n the "
                            "brute-force chain sums enumerate\n")


def test_oracle_takes_no_order(capsys):
    # the oracle checks the coefficient of q^n; an --order it ignored
    # would let a caller believe a deeper check ran
    with pytest.raises(SystemExit) as excinfo:
        main(["oracle", "--which", "pp", "--n", "5", "--order", "999999"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --order 999999" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--sign", "minus"], ["--k", "3"], ["--m", "2"]])
def test_oracle_pair_count_rejects_chain_flags(capsys, flag):
    # the pair count depends on n alone; a --sign, --k or --m it ignored
    # would let a caller believe it had been used
    assert main(["oracle", "--which", "pp", "--n", "5", *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --which pp takes only --n, got {flag[0]}\n"


def test_oracle_missing_chain_flags(capsys):
    assert main(["oracle", "--which", "v", "--n", "5"]) == 2
    assert "error:" in capsys.readouterr().err
