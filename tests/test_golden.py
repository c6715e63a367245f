"""The seeded runs of acceptance criteria 1-5 and six ``solve-*`` reports
against their golden values (``golden.json``), at the tolerances
``golden.py`` states.  Criteria 1-5 check thresholds; these pin the
values themselves, so a defect that scales a bound, a mean or kappa
shows here even where it stays under a threshold."""

import pytest

import golden


@pytest.fixture(scope="module")
def gold():
    return golden.load()


@pytest.mark.parametrize("name", list(golden.RUNS))
def test_seeded_run_matches_golden(name, gold):
    rows = golden.run_cells(golden.run(golden.RUNS[name])[0])
    bad = golden.compare_run(rows, gold["runs"][name])
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("kind,t", golden.REPORTS)
def test_solve_report_matches_golden(kind, t, tmp_path, gold):
    report = golden.parse_report(golden.report_text(kind, t, tmp_path))
    bad = golden.compare_report(report, gold["reports"][f"{kind}-{t}"])
    assert not bad, "\n".join(bad)
