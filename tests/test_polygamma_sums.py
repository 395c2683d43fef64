import math

import numpy as np
import pytest

from pdvol.errors import DomainError
from pdvol.polygamma_sums import (
    digamma_sum_closed,
    digamma_sum_closed_alt,
    digamma_sum_direct,
    digamma_sum_offset,
    identity_grid_report,
    polygamma_sum_bound_check,
    trigamma_sum_closed,
    trigamma_sum_direct,
)

A_GRID = (0.3, 0.5, 1.0, 2.7, 10.0)
K_GRID = (2, 3, 10, 11, 100, 101, 10**4)


def euler_gamma_oracle(n=10**5):
    k = np.arange(1, n + 1)
    return float(np.sum(1.0 / k)) - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


def test_smallest_even_case():
    # duplication at x = 1 gives psi(2) - log 2 = 1 - gamma - log 2
    expect = 1.0 - euler_gamma_oracle() - math.log(2.0)
    assert digamma_sum_direct(1.0, 2) == pytest.approx(expect, abs=1e-10)
    assert digamma_sum_closed(1.0, 2) == pytest.approx(expect, abs=1e-10)


def test_digamma_closed_form_grid():
    for a in A_GRID:
        for k in K_GRID:
            direct = digamma_sum_direct(a, k)
            closed = digamma_sum_closed(a, k)
            assert abs(direct - closed) <= 1e-9 * max(1.0, abs(direct))


def test_digamma_alt_offset_is_three_halves_odd():
    for a in A_GRID:
        for k in K_GRID:
            off = digamma_sum_offset(a, k)
            assert off == pytest.approx(1.5 * (k % 2), abs=2e-8)
            if k % 2 == 0:
                assert digamma_sum_closed_alt(a, k) == pytest.approx(digamma_sum_direct(a, k), abs=2e-8)


def test_trigamma_smallest_case():
    assert trigamma_sum_direct(1.0, 2) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-12)
    assert trigamma_sum_closed(1.0, 2) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-10)


def test_trigamma_closed_form_grid():
    for a in A_GRID:
        for k in K_GRID + (999,):
            direct = trigamma_sum_direct(a, k)
            closed = trigamma_sum_closed(a, k)
            assert abs(direct - closed) <= 1e-9 * max(1.0, abs(direct))


def test_bound_holds_on_grid():
    for a in A_GRID:
        for k in K_GRID:
            for m in (2, 3, 4, 5, 6):
                lhs, bound, holds = polygamma_sum_bound_check(a, k, m)
                assert holds and lhs <= bound


def test_bound_large_a_value():
    lhs, bound, holds = polygamma_sum_bound_check(100.0, 2, 2)
    assert bound == pytest.approx(8.0 / 101.0, rel=1e-14)
    assert holds


def test_domain_errors():
    with pytest.raises(DomainError):
        digamma_sum_closed(1.0, 0)
    with pytest.raises(DomainError):
        digamma_sum_closed(-1.0, 4)
    with pytest.raises(DomainError):
        polygamma_sum_bound_check(1.0, 4, 1)


def test_grid_report_structure():
    rows = identity_grid_report(a_grid=(1.0,), k_grid=(2, 3), m_grid=(2,))
    props = {r["proposition"] for r in rows}
    assert props == {"digamma_sum", "digamma_sum_alt", "trigamma_sum", "polygamma_sum_bound"}
    # the alternative grouping must be flagged (not silently corrected) at odd k
    alt_odd = [r for r in rows if r["proposition"] == "digamma_sum_alt" and r["k"] == 3]
    assert alt_odd and not alt_odd[0]["holds"]
    main = [r for r in rows if r["proposition"] in ("digamma_sum", "trigamma_sum")]
    assert all(r["holds"] for r in main)
