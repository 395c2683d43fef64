"""The CGF error ratchet: ``cgf`` against the 40-digit mpmath fixture that
``tests/cgf_reference.py`` writes (``data/cgf_reference.json``).

Each point's error is |cgf - reference| over the terms' magnitude, the sum of
the absolute values of the formula's six pieces (four weighted gamma ratios,
the row and the linear term), which is |L| wherever no piece cancels.  The
points fall into groups by kind of z (real, off-axis complex, imaginary axis)
and by regime (mu > 100 n or not).  A group's worst and RMS errors may not
exceed the numbers recorded below; a change that lowers them records the new
numbers, and one that raises them fails.

The numbers are recorded to three significant digits, rounded up.  Their
later digits are noise: a point whose error is thousands of ulps (the near
shifts at small z, for example) moves its group's RMS in the sixth digit
when an unrelated term of it moves by an ulp, and another platform's libm
may move a last bit.  ``PYTHONPATH=src python tests/test_cgf_ratchet.py``
prints the current numbers in that form.
"""

import json
import math
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

import mpmath as mp
import numpy as np

from pdvol.exactlaw import ModelParams, cgf

FIXTURE = Path(__file__).resolve().parent / "data" / "cgf_reference.json"

#: (worst, RMS) error of each group, three digits rounded up
RECORDED = {
    "imaginary/large-mu": (8.00e-13, 1.56e-13),
    "imaginary/moderate": (2.19e-12, 1.49e-13),
    "offaxis/large-mu": (8.80e-13, 1.65e-13),
    "offaxis/moderate": (1.86e-15, 2.98e-16),
    "real/large-mu": (1.03e-12, 1.91e-13),
    "real/moderate": (4.00e-13, 2.67e-14),
}


def _group(n, mu, kind):
    return f"{kind}/{'large-mu' if mu > 100 * n else 'moderate'}"


def _rows():
    return json.loads(FIXTURE.read_text())["rows"]


def cgf_errors():
    """Group name -> the errors of its points, in fixture order.  The real
    points of an (n, mu) are one real call and the others one complex call;
    a point's bits do not depend on its call."""
    calls = {}
    for row in _rows():
        n, mu, kind = row[:3]
        calls.setdefault((n, mu, kind == "real"), []).append(row)
    errors = {}
    with mp.workdps(30):
        for (n, mu, real), rows in calls.items():
            z = np.array([complex(r[3], r[4]) for r in rows])
            values = cgf(ModelParams(n, mu), z.real if real else z)
            for r, v in zip(rows, values.tolist()):
                err = abs(mp.mpc(v) - mp.mpc(r[5], r[6])) / mp.mpf(r[7])
                errors.setdefault(_group(n, mu, r[2]), []).append(float(err))
    return errors


def summarize(errors):
    """Group name -> (worst, RMS)."""
    return {g: (max(e), math.sqrt(math.fsum(x * x for x in e) / len(e))) for g, e in sorted(errors.items())}


def test_cgf_error_ratchet():
    got = summarize(cgf_errors())
    assert set(got) == set(RECORDED)
    worse = {g: (got[g], RECORDED[g]) for g in RECORDED if got[g][0] > RECORDED[g][0] or got[g][1] > RECORDED[g][1]}
    assert not worse, f"(worst, RMS) now against recorded, by group: {worse}"


def test_cgf_exactly_zero_at_zero_over_the_ratchet_grid():
    for n, mu in sorted({(r[0], r[1]) for r in _rows()}):
        p = ModelParams(n, mu)
        assert cgf(p, 0.0) == 0.0 and cgf(p, 0j) == 0.0
        assert not np.any(cgf(p, np.zeros(3))) and not np.any(cgf(p, np.zeros(3, complex)))


def _recorded(x):
    # three significant digits, rounded up
    d = Decimal(x)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 2), rounding=ROUND_CEILING))


if __name__ == "__main__":
    for group, numbers in summarize(cgf_errors()).items():
        print(f"    {group!r}: ({', '.join(f'{_recorded(x):.2e}' for x in numbers)}),  # {numbers}")
