"""Command-line surface: flag parsing, the three output formats, exit
codes, decimal-string serialization of large values, and determinism."""

import json

import pytest

from qident.cli import main
from qident.identities import REGISTRY, Discrepancy, RegistryEntry

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
    assert captured.err == "error: index must be non-negative, got -1\n"


@pytest.mark.parametrize("identity", ("T1_V", "T1_W"))
def test_verify_kernel_product_rejects_unbounded_m(capsys, identity):
    assert main(["verify", "--id", identity, "--k", "1", "--m", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the two-binomial kernel needs a finite "
                            "bound m, got m=inf\n")


def test_verify_csv_has_header(capsys):
    assert main(["verify", "--id", "CAUCHY", "--n", "2", "--s", "1",
                 "--order", "12", "--format", "csv", "--deterministic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,params,order,holds,disc_exponent,disc_lhs,disc_rhs"
    assert lines[1].startswith("CAUCHY,n=2;s=1,12,true")


def test_verify_failure_reports_big_integers_exactly(capsys):
    REGISTRY["ALWAYS_OFF"] = RegistryEntry(
        required=(),
        check=lambda order: Discrepancy(exponent=7, lhs=0, rhs=10 ** 30),
        default_grid=(dict(),),
        independence="test-only mutant",
    )
    try:
        assert main(["verify", "--id", "ALWAYS_OFF", "--order", "9",
                     "--format", "json", "--deterministic"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is False
        assert doc["first_discrepancy"] == {
            "exponent": 7, "lhs": "0", "rhs": str(10 ** 30)}
    finally:
        del REGISTRY["ALWAYS_OFF"]


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
    REGISTRY["ALWAYS_OFF"] = RegistryEntry(
        required=(),
        check=lambda order: Discrepancy(exponent=0, lhs=1, rhs=2),
        default_grid=(dict(),),
        independence="test-only mutant",
    )
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


def test_oracle_missing_chain_flags(capsys):
    assert main(["oracle", "--which", "v", "--n", "5"]) == 2
    assert "error:" in capsys.readouterr().err
