"""40-digit mpmath references of log E V^z for the CGF error ratchet.

The moment formula of ``exactlaw`` at gamma = 1, summed term by term in
mpmath: its four gamma ratios, the row of n ratios one log-gamma at a time
(no Barnes function, no shift form) and the part linear in z.  The points
are real, off-axis complex and imaginary-axis z across the strip, on the
grid n x mu below.  Each row stores the value's real and imaginary parts
as 40-digit strings and the terms' magnitude, the sum of the absolute
values of the six pieces, which ``tests/test_cgf_ratchet.py`` uses as the
scale of the relative error.

    python tests/cgf_reference.py                      # writes the fixture, a minute or two
    python tests/cgf_reference.py --check --max-n 50   # recomputes the rows with n <= 50, seconds

``--check`` fails when a recomputed string differs from the stored one, so
a stale or hand-edited fixture cannot pass.  The script needs mpmath only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath as mp

FIXTURE = Path(__file__).resolve().parent / "data" / "cgf_reference.json"
NS = (2, 3, 7, 23, 24, 50, 200, 1000, 10000)
MUS = (-1.9, -1.0, 0.0, 10.0, 1e4, 1e6)
#: working precision of the sums, and the digits kept
DPS, DIGITS = 60, 40
COLUMNS = ("n", "mu", "kind", "z_re", "z_im", "value_re", "value_im", "scale")


def points(mu):
    """(kind, z) across the strip Re z > -(mu+2): s is the strip's width
    from 0, capped at 10, so that the negative points stay inside it."""
    s = min(mu + 2.0, 10.0)
    real = [-0.9 * s, -0.5 * s, -0.1 * s, 1e-3, 0.5, 2.0, 10.0, 50.0]
    offaxis = [(-0.5 * s, 0.3), (-0.5 * s, 3.0), (0.5, 0.3), (0.5, 3.0), (0.5, 30.0), (5.0, 0.3), (5.0, 3.0),
               (5.0, 30.0)]
    imaginary = [1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]
    return ([("real", complex(z, 0.0)) for z in real] + [("offaxis", complex(*z)) for z in offaxis]
            + [("imaginary", complex(0.0, t)) for t in imaginary])


def _pieces(n, mu, z, row_base):
    """The six pieces of log E V^z at gamma = 1: four weighted gamma ratios,
    the row and the linear term."""
    lg = mp.loggamma
    n_, mu = mp.mpf(n), mp.mpf(mu)
    ratios = (
        ((n_ + 1) * (n_ + mu) / 2 + 1, (n_ + 1) / 2, 1),
        (n_ * (n_ + mu + 1) / 2, n_ / 2, -1),
        (n_ + mu + 1, 1, 1),
        ((n_ + mu) / 2 + 1, mp.mpf(1) / 2, -(n_ + 1)),
    )
    pieces = [w * (lg(x + c * z) - lg(x)) for x, c, w in ratios]
    a = z / 2
    pieces.append(mp.fsum(lg(b + a) for b, _ in row_base) - mp.fsum(g for _, g in row_base))
    pieces.append(z * (lg(n_ / 2 + 1) - (n_ / 2) * mp.log(mp.pi) - lg(n_ + 1)))
    return pieces


def rows_for(n, mu):
    """The fixture rows of one (n, mu), as lists in COLUMNS order."""
    out = []
    with mp.workdps(DPS):
        # the row's arguments (i+mu)/2 + 1 and their log-gammas, once per (n, mu)
        bases = [(mp.mpf(i) + mp.mpf(mu)) / 2 + 1 for i in range(1, n + 1)]
        row_base = [(b, mp.loggamma(b)) for b in bases]
        for kind, z in points(mu):
            zm = mp.mpf(z.real) if kind == "real" else mp.mpc(z.real, z.imag)
            pieces = _pieces(n, mu, zm, row_base)
            value = mp.mpc(mp.fsum(pieces))
            scale = mp.fsum(abs(p) for p in pieces)
            out.append([n, mu, kind, z.real, z.imag, mp.nstr(value.real, DIGITS), mp.nstr(value.imag, DIGITS),
                        mp.nstr(scale, 6)])
    return out


def compute(max_n=None):
    return [r for n in NS if max_n is None or n <= max_n for mu in MUS for r in rows_for(n, mu)]


def write(rows, path=FIXTURE):
    path.parent.mkdir(parents=True, exist_ok=True)
    head = {"about": __doc__.splitlines()[0], "dps": DPS, "digits": DIGITS, "columns": list(COLUMNS)}
    lines = ",\n".join("    " + json.dumps(r) for r in rows)
    text = json.dumps(head, indent=2)[:-2] + ',\n  "rows": [\n' + lines + "\n  ]\n}\n"
    path.write_text(text)


def load(path=FIXTURE):
    return json.loads(path.read_text())["rows"]


def check(max_n):
    """Recompute the stored rows with n <= max_n; return the differing ones."""
    stored = [r for r in load() if r[0] <= max_n]
    fresh = compute(max_n)
    if len(stored) != len(fresh):
        return [f"{len(stored)} stored rows with n <= {max_n}, {len(fresh)} recomputed"]
    return [f"stored {s}, recomputed {f}" for s, f in zip(stored, fresh) if s != f]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="recompute and compare instead of writing")
    parser.add_argument("--max-n", type=int, default=None, help="only rows with n up to this")
    args = parser.parse_args(argv)
    if args.check:
        bad = check(args.max_n if args.max_n is not None else max(NS))
        for line in bad:
            print(line)
        print(f"{len(bad)} differing rows")
        return 1 if bad else 0
    if args.max_n is not None:
        parser.error("--max-n writes no fixture; use it with --check")
    rows = compute()
    write(rows)
    print(f"wrote {len(rows)} rows to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
