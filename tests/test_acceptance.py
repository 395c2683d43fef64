"""Acceptance suite: runs every claim of ``pdvol.report.CLAIMS`` once, on the
full grids, prints its status lines (run with -s to see them) and checks each
row's status against the expected claim matrix and each claim against its
wall-clock budget.  All computation and every gate live in ``pdvol.report``.

Four claims are implemented faithfully as stated but fail for quantified
reasons recorded in their rows, which therefore report ``finding``: the
variance-expansion remainder, the fixed-dimension variance limit, the
Kolmogorov-distance ratio window, and the t = 0.5 scaled-CGF threshold.
``test_as_stated`` requires ``pass`` of them and is marked xfail(strict=True),
so that a change in their status is itself flagged.
"""

import functools
import time

import pytest

from pdvol import report as rp

#: task -> (test name, wall-clock budget in seconds, expected status per claim)
EXPECTED = {
    "moment-normalization": ("test_c01_moment_normalization", 1.0, {"moment-normalization": "pass"}),
    "planar-mean": ("test_c02_planar_mean_three_ways", 30.0, {"planar-mean-three-ways": "pass"}),
    "summation-identities": ("test_c03_summation_identities", 10.0, {
        "digamma-trigamma-closed-forms": "pass",
        "polygamma-sum-bound": "pass",
        "digamma-sum-alt-offset": "finding",
    }),
    "cumulant-oracle": ("test_c04_cumulant_oracle", 30.0, {
        "cumulant-closed-form-vs-fd": "pass",
        "cumulant-last-term-adjudication": "finding",
    }),
    "expansions": ("test_c05_mean_expansion_bounded", 30.0, {
        "mean-expansion-bounded": "pass",
        "variance-expansion-remainder": "finding",
    }),
    "regime-limits": ("test_c06_regime_limits_mu_linear_and_near_equal", 30.0, {
        "regime-limit-mu-linear": "pass",
        "regime-limit-near-equal": "pass",
        "regime-limit-fixed-n": "finding",
    }),
    "berry-esseen": ("test_c07_berry_esseen_decrease", 600.0, {
        "berry-esseen-decrease": "pass",
        "berry-esseen-ratio-window": "finding",
    }),
    "product-identity": ("test_c08_product_identity", 120.0, {"product-identity-ks": "pass"}),
    "radius-law": ("test_c09_radius_law", 60.0, {"radius-law-ks": "pass"}),
    "sphere-identity": ("test_c10_sphere_identity", 1.0, {"sphere-moment-identity": "pass"}),
    "mod-gaussian": ("test_c11_mod_gaussian_residual", 60.0, {
        "mod-gaussian-residual-decay": "pass",
        "mod-gaussian-normalization": "finding",
    }),
    "centering": ("test_c12_centering_adjudication_t1", 60.0, {
        "centering-adjudication": "pass",
        "centering-t05-threshold": "finding",
    }),
    "tessellation": ("test_c13_tessellation_invariants", 120.0, {"tessellation-invariants": "pass"}),
    "barnes-shift": ("test_c14_barnes_shift_decay", 1.0, {"barnes-shift-error-decay": "pass"}),
}

#: claim -> why its stated form fails
AS_STATED = {
    "variance-expansion-remainder": "the variance expansion misses a -(3/4) n/(n+mu)^2 term, so the "
    "(n+mu)^2-scaled deltas grow ~0.75n instead of staying bounded",
    "regime-limit-fixed-n": "for fixed n the exact variance satisfies Var*mu -> 1, not 3/(4 mu); the "
    "stated Var*(4mu/3) -> 1 check measures 4/3",
    "berry-esseen-ratio-window": "d_n*sqrt(log n) is monotone decreasing (the bound holds with fitted c) "
    "but spans factor ~3.8 > 2 because the true distance decays at the faster (log n)^(-3/2) rate",
    "centering-t05-threshold": "the converging variant's finite-size gap is [log psi(t) - t^2/4]/w_n = "
    "14.5% of t^2/2 at t=0.5, n=1e5 (10% would need n ~ 1.3e7); the -t^2/4 term comes from the "
    "mod-Gaussian normalization adjudication",
}


@functools.cache
def run(task):
    """Rows and wall-clock seconds of one claim, computed once per session."""
    fn = dict(rp.CLAIMS)[task]
    t0 = time.perf_counter()
    rows = fn(rp.DEFAULT_SEED, False)
    return rows, time.perf_counter() - t0


def _claim_test(task):
    name, budget, expected = EXPECTED[task]

    def test():
        rows, elapsed = run(task)
        for row in rows:
            print(rp.status_line(row))
        print(f"{task}: {elapsed:.2f}s (budget {budget:g}s)")
        assert {row["claim"]: row["status"] for row in rows} == expected
        assert elapsed < budget

    test.__name__ = test.__qualname__ = name
    return test


# one test per claim, parametrized over the registry; each keeps the name of
# its numbered criterion so that test ids stay stable
for _task, _ in rp.CLAIMS:
    globals()[EXPECTED[_task][0]] = _claim_test(_task)


def test_triangulating_claims_run_back_to_back():
    # the two claims that triangulate ~1e5 points run one after the other and
    # before the KS claims: the torus's Qhull run then reuses the heap the
    # planar-mean run released, instead of stacking on scipy.stats and the
    # KS claims' heap (a report peak of about 175 MB instead of 141 MB)
    order = [task for task, _ in rp.CLAIMS]
    at = order.index("planar-mean")
    assert order[at + 1] == "tessellation"
    assert at + 1 < min(order.index("product-identity"), order.index("radius-law"))


@pytest.mark.parametrize(
    "claim",
    [pytest.param(c, marks=pytest.mark.xfail(strict=True, reason=why)) for c, why in AS_STATED.items()],
)
def test_as_stated(claim):
    task = next(task for task, (_, _, expected) in EXPECTED.items() if claim in expected)
    row = next(row for row in run(task)[0] if row["claim"] == claim)
    print(rp.status_line(row))
    assert row["status"] == "pass"
