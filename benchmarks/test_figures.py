"""One test per ``FIGURES`` row: run it, hold its gate, match the ledger.

``pytest benchmarks -k fig_xbatch`` runs one figure.  A failing ledger
comparison means a simulated number moved: if that is intended, re-record
with ``PYTHONPATH=src python benchmarks/figures.py`` and commit the diff.
"""

import pytest

pytest.register_assert_rewrite("figures")

from figures import FIGURES, cell_pool, ledger_rows, load_ledger, run_figure  # noqa: E402


@pytest.fixture(scope="module")
def ledger():
    return load_ledger()


@pytest.fixture(scope="module")
def pool():
    with cell_pool() as workers:
        yield workers


def test_ledger_records_exactly_the_declared_figures(ledger):
    assert list(ledger) == list(FIGURES)


@pytest.mark.parametrize("figure", FIGURES.values(), ids=list(FIGURES))
def test_figure(figure, ledger, pool):
    cells = run_figure(figure, pool)
    figure.gate(cells)
    assert ledger_rows(cells) == ledger.get(figure.id), (
        f"{figure.id} no longer simulates what BENCH_results.json records; "
        "re-record with `PYTHONPATH=src python benchmarks/figures.py`"
    )
