"""Golden output of every subcommand in every format under --deterministic.

Plain and CSV output is pinned line by line (CSV rows end in CRLF, as the
csv module writes them); a JSON document is pinned as the exact text of its
expected value dumped with indent 2.  The suite documents are pinned by
SHA-256 digest, since each lists all 146 default cases.
"""

import hashlib
import json

import pytest

from qident.cli import main
from qident.identities import REGISTRY, RegistryEntry
from qident.series import monomial


def _plain(*lines):
    return "".join(line + "\n" for line in lines)


def _csv(*rows):
    return "".join(row + "\r\n" for row in rows)


def _json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _report(identity, params, order, disc=None):
    return {"id": identity, "params": params, "order": order,
            "holds": disc is None, "first_discrepancy": disc}


REPORT_HEADER = "id,params,order,holds,disc_exponent,disc_lhs,disc_rhs"
ORACLE_HEADER = "which,params,n,oracle,series,match"
BIG = -10 ** 25

GOLDEN = [
    # coeffs
    ("coeffs --family V --sign plus --k 3 --order 6", "plain", 0,
     _plain("0 0", "1 0", "2 0", "3 1", "4 7", "5 27", "6 77")),
    ("coeffs --family V --sign plus --k 3 --order 6", "json", 0,
     _json({"family": "V", "sign": "plus", "k": 3, "m": "inf", "order": 6,
            "coefficients": ["0", "0", "0", "1", "7", "27", "77"]})),
    ("coeffs --family V --sign plus --k 3 --order 6", "csv", 0,
     _csv("n,coefficient", "0,0", "1,0", "2,0", "3,1", "4,7", "5,27", "6,77")),
    ("coeffs --family W --sign minus --k 2 --m 3 --order 5", "plain", 0,
     _plain("0 0", "1 0", "2 1", "3 -4", "4 11", "5 -22")),
    ("coeffs --family W --sign minus --k 2 --m 3 --order 5", "json", 0,
     _json({"family": "W", "sign": "minus", "k": 2, "m": 3, "order": 5,
            "coefficients": ["0", "0", "1", "-4", "11", "-22"]})),
    ("coeffs --family W --sign minus --k 2 --m 3 --order 5", "csv", 0,
     _csv("n,coefficient", "0,0", "1,0", "2,1", "3,-4", "4,11", "5,-22")),
    # verify
    ("verify --id T4_W --k 2 --order 40", "plain", 0,
     _plain("T4_W k=2 sign=plus order=40: holds")),
    ("verify --id T4_W --k 2 --order 40", "json", 0,
     _json(_report("T4_W", {"k": 2, "sign": "plus"}, 40))),
    ("verify --id T4_W --k 2 --order 40", "csv", 0,
     _csv(REPORT_HEADER, "T4_W,k=2;sign=plus,40,true,,,")),
    ("verify --id ORACLE_V --sign minus --k 2 --m inf --order 12", "plain", 0,
     _plain("ORACLE_V sign=minus k=2 m=inf order=12: holds")),
    ("verify --id ORACLE_V --sign minus --k 2 --m inf --order 12", "json", 0,
     _json(_report("ORACLE_V", {"sign": "minus", "k": 2, "m": "inf"}, 12))),
    ("verify --id ORACLE_V --sign minus --k 2 --m inf --order 12", "csv", 0,
     _csv(REPORT_HEADER, "ORACLE_V,sign=minus;k=2;m=inf,12,true,,,")),
    ("verify --id CAUCHY --n 3 --s 2 --order 10", "plain", 0,
     _plain("CAUCHY n=3 s=2 order=10: holds")),
    ("verify --id CAUCHY --n 3 --s 2 --order 10", "json", 0,
     _json(_report("CAUCHY", {"n": 3, "s": 2}, 10))),
    ("verify --id CAUCHY --n 3 --s 2 --order 10", "csv", 0,
     _csv(REPORT_HEADER, "CAUCHY,n=3;s=2,10,true,,,")),
    ("verify --id ALWAYS_OFF --order 9", "plain", 1,
     _plain(f"ALWAYS_OFF order=9: FAILS at q^3 (lhs={BIG}, rhs=7)")),
    ("verify --id ALWAYS_OFF --order 9", "json", 1,
     _json(_report("ALWAYS_OFF", {}, 9,
                   {"exponent": 3, "lhs": str(BIG), "rhs": "7"}))),
    ("verify --id ALWAYS_OFF --order 9", "csv", 1,
     _csv(REPORT_HEADER, f"ALWAYS_OFF,,9,false,3,{BIG},7")),
    # oracle (pp, pod and sigma list only n; the chain oracles list every flag given)
    ("oracle --which w --sign minus --k 2 --m 3 --n 8", "plain", 0,
     _plain("w n=8: oracle=97 series=97 match")),
    ("oracle --which w --sign minus --k 2 --m 3 --n 8", "json", 0,
     _json({"which": "w", "params": {"sign": "minus", "k": 2, "m": 3, "n": 8},
            "oracle": "97", "series": "97", "match": True})),
    ("oracle --which w --sign minus --k 2 --m 3 --n 8", "csv", 0,
     _csv(ORACLE_HEADER, "w,sign=minus;k=2;m=3;n=8,8,97,97,true")),
    ("oracle --which pp --n 10", "plain", 0,
     _plain("pp n=10: oracle=4600 series=4600 match")),
    ("oracle --which pp --n 10", "json", 0,
     _json({"which": "pp", "params": {"n": 10},
            "oracle": "4600", "series": "4600", "match": True})),
    ("oracle --which pp --n 10", "csv", 0,
     _csv(ORACLE_HEADER, "pp,n=10,10,4600,4600,true")),
    ("oracle --which sigma --n 12", "plain", 0,
     _plain("sigma n=12: oracle=28 series=28 match")),
    ("oracle --which sigma --n 12", "json", 0,
     _json({"which": "sigma", "params": {"n": 12},
            "oracle": "28", "series": "28", "match": True})),
    ("oracle --which sigma --n 12", "csv", 0,
     _csv(ORACLE_HEADER, "sigma,n=12,12,28,28,true")),
]

SUITE_ORDER_4 = {
    "plain": "bd2344784b5e87bac4854db9686df45d3c63a27548779755e237658b903030e2",
    "json": "0efb81130aba43b62dd33015533dc6c53be47f763cc1ed6859e6a7f2ebccb6f5",
    "csv": "c67023c2fc4393ef9dd9fb9a92df6235b707bbf8017309f3d2d52d12c707904e",
}


@pytest.fixture
def always_off():
    """A registry entry that always fails at q^3 with a 26-digit lhs."""
    REGISTRY["ALWAYS_OFF"] = RegistryEntry(
        check=lambda order: (monomial(BIG, 3, order), monomial(7, 3, order)),
        default_grid=(dict(),),
        independence="test-only mutant",
    )
    yield
    del REGISTRY["ALWAYS_OFF"]


def _run(capsys, command, fmt):
    code = main(command.split() + ["--format", fmt, "--deterministic"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command, fmt, code, stdout", GOLDEN,
                         ids=[f"{c} [{f}]" for c, f, _, _ in GOLDEN])
def test_golden_stdout(capsys, always_off, command, fmt, code, stdout):
    assert _run(capsys, command, fmt) == (code, stdout)


@pytest.mark.parametrize("fmt", sorted(SUITE_ORDER_4))
def test_golden_suite(capsys, fmt):
    code, out = _run(capsys, "suite --order 4", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_ORDER_4[fmt], out


@pytest.mark.parametrize("command", ["verify --id L1 --k 0 --order 6", "suite --order 0"])
def test_timed_reports_add_an_elapsed_column(capsys, command):
    assert main(command.split() + ["--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == REPORT_HEADER + ",elapsed_ms"
    assert all(len(row.split(",")) == 8 for row in rows)
    assert main(command.split() + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cases = doc.get("cases", [doc])
    assert all(isinstance(case["elapsed_ms"], float) for case in cases)
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(" ms]")
