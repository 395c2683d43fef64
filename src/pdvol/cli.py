"""Command-line entry point.

Subcommands: specfun, moments, cgf, identities, cumulants, regimes, cdf,
berry-esseen, ldp, modphi, sample, delaunay2d, report.  Output is versioned
JSON (one document per file) or RFC-4180 CSV; every document embeds the
package version and its configuration: the subcommand followed by every
parsed flag in declaration order, except ``--output``, ``--format`` and
``--per-triangle``, which only say where or how to write.  ``specfun`` embeds
only the inputs its function reads.  Each handler returns its document, a
dict for JSON or ``(rows, columns)`` for CSV, and ``_emit`` writes it.
Exit codes: 0 success, 1 usage error (including a malformed flag value),
2 domain error, 3 numerical-convergence failure, 4 a claim reported
``fail`` (report only).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import cumulants as cm
from . import delaunay2d as dl
from . import distribution as ds
from . import exactlaw as ex
from . import polygamma_sums as ps
from . import report as rp
from . import sampling as sm
from . import specfun as sf
from .errors import ConvergenceError, DomainError

SCHEMA_VERSION = 1
DEFAULT_SEED = sm.DEFAULT_SEED

#: CSV columns shared by the sweep subcommands (cdf, berry-esseen, ldp, modphi)
SWEEP_COLUMNS = ["n", "mu", "gamma", "quantity", "value", "variant", "provenance"]

#: parsed attributes left out of the embedded config: the handler, and the
#: flags that only say where or how to write
_NOT_CONFIG = ("run", "output", "format", "per_triangle")


def _write_text(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    outdir = os.environ.get("PDVOL_OUTPUT_DIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(rows, columns, config: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    meta = json.dumps(config, sort_keys=True)
    writer.writerow(["schema_version", "artifact_version", "config"] + columns)
    for row in rows:
        writer.writerow([SCHEMA_VERSION, __version__, meta] + [row[c] for c in columns])
    return buf.getvalue()


def _emit(args, payload) -> None:
    """Write a handler's document to ``--output``: a dict as JSON, ``(rows, columns)`` as CSV."""
    if args.subcommand == "specfun":
        config = {"subcommand": "specfun", "function": args.function, **payload["input"]}
    else:
        config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    if isinstance(payload, dict):
        document = {"schema_version": SCHEMA_VERSION, "artifact_version": __version__, "config": config,
                    **payload}
        text = json.dumps(document, indent=2) + "\n"
    else:
        text = _csv_text(*payload, config)
    _write_text(text, args.output)


def _params(args) -> ex.ModelParams:
    return ex.ModelParams(args.n, args.mu, args.gamma)


def _common_model_flags(p):
    p.add_argument("--n", type=int, default=2, help="dimension (>= 2)")
    p.add_argument("--mu", type=float, default=-1.0, help="weight exponent (> -2)")
    p.add_argument("--gamma", type=float, default=1.0, help="point-process intensity (> 0)")


def _comma_list(convert, what):
    def parse(text: str):
        try:
            items = [convert(x) for x in text.split(",") if x != ""]
        except ValueError:
            items = []
        if not items:
            raise argparse.ArgumentTypeError(f"expected a comma list of {what}, got {text!r}")
        return items

    return parse


_float_list = _comma_list(float, "numbers")
_int_list = _comma_list(int, "integers")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text}")
    return value


def _sweep_row(n, mu, gamma, quantity, value, variant=""):
    return dict(n=n, mu=mu, gamma=gamma, quantity=quantity, value=value, variant=variant,
                provenance="closed_form")


# ---------------------------------------------------------------------------
# subcommand implementations


def _log_gamma(x, im):
    if not im:
        return sf.log_gamma(x)
    value = sf.log_gamma(complex(x, im))
    return [value.real, value.imag]


#: specfun --function: (evaluator, the flags it reads in argument order)
SPECFUN = {
    "log_gamma": (_log_gamma, ("x", "im")),
    "digamma": (sf.digamma, ("x",)),
    "polygamma": (sf.polygamma, ("m", "x")),
    "log_barnes_g": (sf.log_barnes_g, ("x",)),
    "reg_lower_incomplete_gamma": (sf.reg_lower_incomplete_gamma, ("a", "x")),
    "log_unit_ball_volume": (sf.log_unit_ball_volume, ("x",)),
}


def cmd_specfun(args):
    evaluate, flags = SPECFUN[args.function]
    inputs = {flag: getattr(args, flag) for flag in flags}
    if args.function == "log_unit_ball_volume":
        # x is the dimension n, reported as an integer; any other x is left
        # for log_unit_ball_volume to refuse
        inputs = {"n": int(args.x) if args.x.is_integer() else args.x}
    return {"function": args.function, "input": inputs, "value": evaluate(*inputs.values())}


def _params_doc(p: ex.ModelParams) -> dict:
    return {"n": p.n, "mu": p.mu, "gamma": p.gamma}


def cmd_moments(args):
    p = _params(args)
    logm = ex.log_volume_moment(p, args.s)
    return {"params": _params_doc(p), "s": args.s, "value": math.exp(logm), "log_value": logm,
            "provenance": "closed_form"}


def cmd_cgf(args):
    p = _params(args)
    z = complex(args.re, args.im)
    value = complex(ex.cgf(p, z if args.im else args.re, extended=args.extended))
    return {"params": _params_doc(p), "z": {"re": args.re, "im": args.im},
            "value": {"re": value.real, "im": value.imag}, "provenance": "closed_form"}


def cmd_identities(args):
    if args.grid == "quick":
        rows = ps.identity_grid_report(k_grid=(2, 3, 10, 11), m_grid=(2, 3))
    else:
        rows = ps.identity_grid_report()
    for row in rows:
        row["provenance"] = "closed_form"
    return rows, ["a", "k", "m", "proposition", "lhs", "rhs", "abs_diff", "holds", "provenance"]


def cmd_cumulants(args):
    p = _params(args)
    rep = cm.cumulant_report(p, max_order=args.max_order)
    orders = [
        {"m": m, "exact": e, "oracle": o, "abs_diff": d, "provenance": "closed_form+oracle_fd"}
        for (m, e, o, d) in rep.orders
    ]
    return {"params": _params_doc(p), "orders": orders}


def cmd_regimes(args):
    # (label, regime, n, mu, driver): the driver is n, or mu for fixed_n
    cases = [(f"mu_linear(alpha={a:g})", cm.RegimeSpec("mu_linear", a), n, a * n, n)
             for a in (0.5, 1.0, 2.0) for n in args.sweep]
    cases += [("near_equal_weight", cm.RegimeSpec("near_equal_weight"), n, float(n - math.isqrt(n)), n)
              for n in args.sweep]
    cases += [("fixed_n(n=3)", cm.RegimeSpec("fixed_n"), 3, float(mu), mu) for mu in args.sweep]
    rows = []
    for label, regime, n, mu, driver in cases:
        pred = cm.regime_expansion(regime, driver, args.gamma)[1]
        exact = cm.cumulant_exact(ex.ModelParams(n, mu, args.gamma), 2)
        rows.append(dict(regime=label, driver=driver, exact_var=exact, predicted_var=pred,
                         ratio=exact / pred, provenance="closed_form"))
    return rows, ["regime", "driver", "exact_var", "predicted_var", "ratio", "provenance"]


def cmd_cdf(args):
    p = _params(args)
    values = ds.cdf_inverted(p, np.array(args.x))
    rows = [_sweep_row(p.n, p.mu, p.gamma, f"cdf@x={x:g}", float(v))
            for x, v in zip(args.x, np.atleast_1d(values))]
    return rows, SWEEP_COLUMNS


def cmd_berry_esseen(args):
    rows = []
    for n in args.sweep:
        d = ds.kolmogorov_distance_to_normal(ex.ModelParams(n, args.mu, args.gamma))
        rows.append(_sweep_row(n, args.mu, args.gamma, "kolmogorov_distance", d))
        rows.append(_sweep_row(n, args.mu, args.gamma, "kd_times_sqrt_log_n", d * math.sqrt(math.log(n))))
    return rows, SWEEP_COLUMNS


def cmd_ldp(args):
    variants = ["LDP", "MODPHI"] if args.variant == "both" else [args.variant]
    rows = []
    for n in args.sweep:
        p = ex.ModelParams(n, args.mu, args.gamma)
        for t in args.t:
            for kind in variants:
                v = ds.ldp_scaled_cgf(p, t, ds.CenteringVariant(kind))
                rows.append(_sweep_row(n, args.mu, args.gamma, f"scaled_cgf@t={t:g}", v, kind))
    return rows, SWEEP_COLUMNS


def cmd_modphi(args):
    rows = []
    for n in args.sweep:
        p = ex.ModelParams(n, args.mu, args.gamma)
        for z in args.z:
            for variant, adjusted in (("adjusted", True), ("stated", False)):
                rows.append(_sweep_row(n, args.mu, args.gamma, f"residual@z={z:g}",
                                       ds.mod_gaussian_residual(p, z, adjusted=adjusted), variant))
    return rows, SWEEP_COLUMNS


def cmd_sample(args):
    p = _params(args)
    if args.kind == "identity":
        rng = sm.RngStream(args.seed, 0).generator()
        rep = sm.check_product_identity(p, args.count, rng)
        return {"params": _params_doc(p), "kind": "identity",
                "ks": {"statistic": rep.statistic, "p_value": rep.p_value,
                       "n_lhs": rep.n_lhs, "n_rhs": rep.n_rhs},
                "provenance": "monte_carlo"}
    per = (args.count + args.streams - 1) // args.streams
    rows = []
    for sid in range(args.streams):
        rng = sm.RngStream(args.seed, sid).generator()
        take = min(per, args.count - sid * per)
        if take <= 0:
            break
        if args.kind == "radius":
            vals = sm.sample_circumradius(p, rng, size=take)
        elif args.kind == "volume":
            vals = sm.sample_volume(p, rng, take)
        else:
            vals = sm.sample_rhs_product(p, rng, take)
        rows.extend(dict(stream=sid, value=float(v), provenance="monte_carlo") for v in vals)
    return rows, ["stream", "value", "provenance"]


def _delaunay_one(task):
    gamma, side, guard, mode, mu, s, seed, rep_id = task
    win = dl.SimWindow(side=side, guard=guard, mode=mode)
    rng = sm.RngStream(seed, 100 + rep_id).generator()
    pts = dl.sample_poisson_points(gamma, win, rng)
    tri = dl.delaunay_triangulate(pts, mode=mode, side=side if mode == "toroidal" else None)
    est = dl.estimate_typical_moment(tri, win, mu=mu, s=s)
    return est, tri


def cmd_delaunay2d(args):
    tasks = [(args.gamma, args.side, args.guard, args.mode, args.mu, args.s, args.seed, r)
             for r in range(args.replicates)]
    if args.jobs > 1 and args.replicates > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, args.replicates)) as pool:
            results = list(pool.map(_delaunay_one, tasks))
    else:
        results = [_delaunay_one(t) for t in tasks]
    per_rep = [
        {"estimate": e.estimate, "std_error": e.std_error, "n_cells": e.n_cells,
         "effective_sample_size": e.effective_sample_size}
        for e, _ in results
    ]
    ests = np.array([e.estimate for e, _ in results])
    ses = np.array([e.std_error for e, _ in results])
    pooled_se = float(np.sqrt(np.sum(ses**2)) / len(ses))
    if args.per_triangle:
        tri = results[0][1]
        rows = [dict(area=float(a), circumradius=float(r), cx=float(c[0]), cy=float(c[1]),
                     provenance="tessellation")
                for a, r, c in zip(tri.areas, tri.radii, tri.centers)]
        _write_text(_csv_text(rows, ["area", "circumradius", "cx", "cy", "provenance"],
                              {"subcommand": "delaunay2d", "detail": "per-triangle", "seed": args.seed}),
                    args.per_triangle)
    return {"mu": args.mu, "s": args.s, "estimate": float(ests.mean()), "std_error": pooled_se,
            "replicates": per_rep, "provenance": "tessellation"}


def cmd_report(args):
    rows, timings = rp.run_claims(seed=args.seed, quick=args.quick)
    for r in rows:
        print(rp.status_line(r), file=sys.stderr)
    if args.format == "csv":
        return rows, ["claim", "status", "value", "detail", "provenance"]
    return {"claims": rows, "timings_seconds": timings}


def _exit_code(args, payload) -> int:
    """4 when ``report`` wrote a claim row with status ``fail``, else 0."""
    if args.subcommand != "report":
        return 0
    rows = payload["claims"] if isinstance(payload, dict) else payload[0]
    return 4 if any(r["status"] == "fail" for r in rows) else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdvol",
        description="Numerical laboratory for volumes of weighted typical Poisson-Delaunay cells",
    )
    parser.add_argument("--version", action="version", version=f"pdvol {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("specfun", help="evaluate one special function")
    p.add_argument("--function", required=True, choices=list(SPECFUN))
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=float, default=1.0)
    p.set_defaults(run=cmd_specfun)

    p = sub.add_parser("moments", help="exact volume moment E V^s")
    _common_model_flags(p)
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(run=cmd_moments)

    p = sub.add_parser("cgf", help="cumulant generating function at a complex point")
    _common_model_flags(p)
    p.add_argument("--re", type=float, default=0.0)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--extended", action="store_true",
                   help="evaluate the analytic continuation on the wider strip")
    p.set_defaults(run=cmd_cgf)

    p = sub.add_parser("identities", help="polygamma summation identity sweep (CSV)")
    p.add_argument("--grid", choices=["default", "quick"], default="default")
    p.set_defaults(run=cmd_identities)

    p = sub.add_parser("cumulants", help="exact cumulants with the difference oracle")
    _common_model_flags(p)
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(run=cmd_cumulants)

    p = sub.add_parser("regimes", help="regime variance predictions vs exact (CSV)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sweep", type=_int_list, default=[100, 1000, 10000])
    p.set_defaults(run=cmd_regimes)

    p = sub.add_parser("cdf", help="CDF of log V by characteristic-function inversion")
    _common_model_flags(p)
    p.add_argument("--x", type=_float_list, required=True, help="comma list of evaluation points")
    p.set_defaults(run=cmd_cdf)

    p = sub.add_parser("berry-esseen", help="Kolmogorov distance to the Gaussian over an n-sweep")
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sweep", type=_int_list, default=[10, 100, 1000, 10000])
    p.set_defaults(run=cmd_berry_esseen)

    p = sub.add_parser("ldp", help="scaled cumulant generating function per centering variant")
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--t", type=_float_list, default=[0.5, 1.0])
    p.add_argument("--sweep", type=_int_list, default=[100, 1000, 10000, 100000])
    p.add_argument("--variant", choices=["LDP", "MODPHI", "both"], default="both")
    p.set_defaults(run=cmd_ldp)

    p = sub.add_parser("modphi", help="mod-Gaussian residual over an n-sweep")
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--z", type=_float_list, default=[-1.0, 0.5, 1.0])
    p.add_argument("--sweep", type=_int_list, default=[100, 1000, 10000])
    p.set_defaults(run=cmd_modphi)

    p = sub.add_parser("sample", help="seeded Monte Carlo draws or the product-identity KS check")
    p.add_argument("--kind", choices=["radius", "volume", "rhs", "identity"], required=True)
    _common_model_flags(p)
    p.add_argument("--count", type=_positive_int, default=10**5)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--streams", type=_positive_int, default=1)
    p.set_defaults(run=cmd_sample)

    p = sub.add_parser("delaunay2d", help="planar tessellation simulation and typical-cell estimate")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--side", type=float, default=300.0)
    p.add_argument("--guard", type=float, default=10.0)
    p.add_argument("--mode", choices=["plain", "toroidal"], default="plain")
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--replicates", type=_positive_int, default=1)
    p.add_argument("--per-triangle", type=str, default=None,
                   help="also write per-triangle (area, circumradius, center) CSV here")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for the replicates")
    p.set_defaults(run=cmd_delaunay2d)

    p = sub.add_parser("report", help="run the claim-verification matrix")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--quick", action="store_true", help="smaller sweeps, about 5 s instead of 11 s")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(run=cmd_report)

    for sp in sub.choices.values():
        sp.add_argument("--output", "-o", type=str, default=None,
                        help="output file (default stdout); PDVOL_OUTPUT_DIR prefixes relative paths")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract wants 1
        return 0 if exc.code == 0 else 1
    try:
        payload = args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    _emit(args, payload)
    return _exit_code(args, payload)


if __name__ == "__main__":
    sys.exit(main())
