"""Every output's bytes pinned: count CSVs, fit JSON and the verify report.

The hashes were recorded from the code before the graph6 decoder and the
fold were rewritten.  A change that means to move these bytes updates the
hash here and says why; any other change must leave them as they are.
"""

import hashlib
import json

import pytest

import rank3
from rank3 import cli, pipeline, quasifit

# sha256 of write_csv(count_lattices(c, a_max)): a_max = 1000 for c <= 6, 2960 for c = 7
CSV_SHA256 = {
    1: "5f2bb67a36881e5c99215bc253afe936a8f256900f9b612c60dd8476d6622173",
    2: "0580e8656f8b43235db38abce79931eca6c6a2bf9b9a6feb31590fa5c3cc39f1",
    3: "b90eea769f6540518e11653c98bb7d1cd5bd1aba02bf810d2c3fc251d6697dba",
    4: "5eb8c51ddaf17e3d6e79dd4a4311fa0743ca9b078d3f935e8d7aaa22f1dd6200",
    5: "2213531b56b0d19efb6deec837494af26e862422403af9bf1f1fb9d9bddc025e",
    6: "fa69a02a7388a9a39a8d2d886bd742a46c70fb130346139257dc96da8275d2ee",
    7: "ac90aadb94909b06cddf2d2c744a1c90e8601d2dfa97c90505c8308222abc880",
}

# sha256 of the file `rank3 fit` writes for those tables: the JSON, indent 2, and a newline
FIT_SHA256 = {
    1: "3ba7aab5b4577974d735d9c4cdaa9b9e14cef7fe361cca8b703cdcce4e84423f",
    2: "e48709f9b851a049ee38f14c30fd141cafff875d8535e5973f376c4260eb16d8",
    3: "dfbc1a47f9917339ed7017f40667bb45beb674a559e1ef2c02a9ec5435ad7447",
    4: "e44fbb179176827d198c293064be2643581d59abfaffb7e588e6af1a8a8f5f05",
    5: "b0d7b147d12dbf9af6fea3214667632e7635fa65517dff2bf991888e19bbdc52",
    6: "e839f6a3daaa8891b089e2bd6f934a976bc1ac3bb31df925aa56e259874639c0",
    7: "5b55876622064231f5a9726565d6765afefe672b721cb8f6164dc859337df6fe",
    # generated tables of the fit's guaranteed length: a = 6747 and a = 22,715
    8: "7c16ec3c64e5c6cc228a9245852f070dff638edddc4b646e65d85861d9131dd5",
    9: "1d747fcf1638b20b25f778904723da280a6c71d0332b2e6b949b079948a77b09",
}

# sha256 of the standard output of `rank3 verify --max-total 9`
VERIFY_SHA256 = "0d245f26651354b9d683ef59a26ae32b05bc094fe22e005704eeda3a40b1dd00"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def tables(tables_to_1000, table_c7):
    """The pinned tables: c = 1..6 to a = 1000 and c = 7 to a = 2960."""
    return {1: rank3.count_lattices(1, 1000), **tables_to_1000, 7: table_c7}


@pytest.mark.parametrize("c", range(1, 8))
def test_count_csv_bytes(tables, tmp_path, c):
    path = tmp_path / "counts.csv"
    pipeline.write_csv(tables[c], path)
    assert sha256(path.read_bytes()) == CSV_SHA256[c]


@pytest.mark.parametrize("c", [*range(1, 9), pytest.param(9, marks=pytest.mark.slow)])
def test_fit_json_bytes(tables, c):
    if c in tables:
        table = tables[c]
    else:
        period, degree, threshold = quasifit.default_fit_parameters(c)
        table = rank3.count_lattices(c, threshold + period * (degree + 1) - 1)
    fit = quasifit.fit_for_coatoms(table, c)
    text = json.dumps(quasifit.quasipolynomial_to_json(fit, c), indent=2) + "\n"
    assert sha256(text.encode()) == FIT_SHA256[c]
    # every constituent shares the leading terms, where they are pinned
    top = quasifit.LEADING_TERMS.get(c, ())
    assert all(coeffs[:-len(top) - 1:-1] == top for coeffs in fit.constituents)


def test_verify_report_bytes(monkeypatch, capsys):
    # the generated path, from an empty series cache
    monkeypatch.setattr(pipeline, "_generated", {})
    assert cli.main(["verify", "--max-total", "9"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VERIFY_SHA256
