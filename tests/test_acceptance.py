"""Acceptance gate: one test per shipping criterion, each a pass/fail line
under ``pytest -v``.  All comparisons are exact integer equality at the
stated orders; the stated runtime ceilings are asserted where given."""

import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import qident
from qident.families import FamilySpec, b_coefficient, family_series
from qident.identities import IdentityCase, verify
from qident.oracles import b_extraction, v_oracle, w_oracle
from qident.qtools import INFINITE


def _hold(identity, params, order):
    report = verify(IdentityCase(id=identity, params=params, order=order))
    assert report.holds, (
        f"{identity} {params} order={order}: first discrepancy "
        f"{report.first_discrepancy}"
    )


# -- criterion 1: reference constants via both computation paths -----------

def test_reference_constants():
    start = time.perf_counter()
    expected = {("V", 1): 27, ("V", -1): 19, ("W", 1): 22}
    for (family, sign), value in expected.items():
        oracle = v_oracle if family == "V" else w_oracle
        assert oracle(sign, 3, INFINITE, 5) == value
        series = family_series(FamilySpec(family=family, sign=sign, k=3, m=INFINITE), 5)
        assert series.coeffs[5] == value
    assert time.perf_counter() - start < 1.0


# -- criterion 2: kernel product form over the full grid, m = inf included -

def test_kernel_product_combinations_full_grid():
    start = time.perf_counter()
    for identity in ("T1_V", "T1_W"):
        for sign in (1, -1):
            for k in range(5):
                for m in (1, 2, 3, 4, 5, INFINITE):
                    _hold(identity, dict(sign=sign, k=k, m=m), 30)
    assert time.perf_counter() - start < 30.0


# -- criterion 3: kernel reconstruction of single members ------------------

def test_family_reconstruction_grid():
    for identity in ("T2_V", "T2_W"):
        for sign in (1, -1):
            for j in range(4):
                for m in (1, 2, 3, 4, INFINITE):
                    _hold(identity, dict(sign=sign, j=j, m=m), 25)


# -- criterion 4: the two weight matrices invert each other ----------------

def test_weight_matrices_mutually_inverse():
    size = 13
    forward = [[(-1) ** (j - k) * comb(2 * j, j - k) if j >= k else 0
                for j in range(size)] for k in range(size)]
    backward = [[b_coefficient(k, j) for k in range(size)] for j in range(size)]
    identity = [[int(i == j) for j in range(size)] for i in range(size)]

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(size))
                 for j in range(size)] for i in range(size)]

    assert matmul(forward, backward) == identity
    assert matmul(backward, forward) == identity


# -- criterion 5: closed-form weights equal the extraction oracle ----------

def test_inverse_weights_match_extraction():
    for k in range(31):
        for j in range(k + 1):
            assert b_coefficient(k, j) == b_extraction(k, j), (k, j)


# -- criterion 6: quotient sums and the unbounded collapse -----------------

def test_quotient_sum_collapses_grid():
    for identity in ("L1", "L2"):
        for k in range(6):
            _hold(identity, dict(k=k), 60)
    for identity in ("T4_V", "T4_W"):
        for sign in (1, -1):
            for k in range(6):
                _hold(identity, dict(sign=sign, k=k), 40)


# -- criterion 7: unbounded members as doubly weighted theta sums ----------

def test_unbounded_reconstruction_grid():
    for identity in ("TT4_V", "TT4_W"):
        for sign in (1, -1):
            for j in range(4):
                _hold(identity, dict(sign=sign, j=j), 30)


# -- criterion 8: theta squares against the weighted one-sided sums --------

def test_theta_square_expansions():
    _hold("THETA_PHI_SQ", dict(), 50)
    _hold("THETA_PSI_SQ", dict(), 50)


# -- criterion 9: divisor-sum expansion with trial-division ground truth ---

def test_divisor_sum_expansion():
    _hold("SIGMA_ID", dict(), 50)


# -- criterion 10: nonnegativity plus both difference predicates -----------

def test_positivity_and_equivalences():
    for identity in ("POS_V", "POS_W"):
        for k in range(6):
            _hold(identity, dict(k=k), 40)


# -- criterion 11: series coefficients equal brute-force enumeration -------

def test_oracle_series_agreement():
    for identity in ("ORACLE_V", "ORACLE_W"):
        for sign in (1, -1):
            for k in range(4):
                for m in (1, 2, 3, INFINITE):
                    _hold(identity, dict(sign=sign, k=k, m=m), 15)
    _hold("GF_PP", dict(), 20)
    _hold("GF_POD", dict(), 20)


# -- criterion 12: classical product/sum expansions -------------------------

def test_series_product_expansions():
    for n in range(1, 7):
        for s in (1, 2, 3):
            _hold("CAUCHY", dict(n=n, s=s), 30)
    for e in (1, 2, 3):
        _hold("EULER1", dict(e=e), 30)
    for e in (1, 2):
        _hold("EULER2", dict(e=e), 30)


# -- criterion 13: the shipped front end runs the whole default grid -------

def test_full_suite_cli():
    # Run the package this process imported, also when pytest found it
    # through its own pythonpath setting rather than PYTHONPATH.
    package_root = str(Path(qident.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "qident", "suite", "--order", "20"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0, result.stdout + result.stderr
    assert "/ 0 failed /" in result.stdout
    assert elapsed < 60.0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
