"""Command-line entry point.

Subcommands: specfun, moments, cgf, identities, cumulants, regimes, cdf,
berry-esseen, ldp, modphi, sample, delaunay2d, report.  Output is versioned
JSON (one document per file) or RFC-4180 CSV; every document embeds the
resolved configuration and the package version.  Exit codes: 0 success,
1 usage error, 2 domain error, 3 numerical-convergence failure, 4 a claim
reported ``fail`` (report only).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

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


def _jobs_default() -> int:
    return max(1, int(os.environ.get("PDVOL_JOBS", "1")))


def _resolve_output(path):
    if path is None or path == "-":
        return None
    outdir = os.environ.get("PDVOL_OUTPUT_DIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write_text(text: str, path):
    path = _resolve_output(path)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(document: dict, config: dict, path):
    document = {"schema_version": SCHEMA_VERSION, "artifact_version": __version__, "config": config, **document}
    _write_text(json.dumps(document, indent=2, sort_keys=False) + "\n", path)


def _emit_csv(rows, columns, config: dict, path):
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    meta = json.dumps(config, sort_keys=True)
    writer.writerow(["schema_version", "artifact_version", "config"] + columns)
    for row in rows:
        writer.writerow([SCHEMA_VERSION, __version__, meta] + [row[c] for c in columns])
    _write_text(buf.getvalue(), path)


def _params(args) -> ex.ModelParams:
    return ex.ModelParams(args.n, args.mu, args.gamma)


def _common_model_flags(p, n_default=2):
    p.add_argument("--n", type=int, default=n_default, help="dimension (>= 2)")
    p.add_argument("--mu", type=float, default=-1.0, help="weight exponent (> -2)")
    p.add_argument("--gamma", type=float, default=1.0, help="point-process intensity (> 0)")


def _float_list(text: str):
    return [float(x) for x in text.split(",") if x != ""]


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x != ""]


def _sweep_row(n, mu, gamma, quantity, value, variant=""):
    return dict(n=n, mu=mu, gamma=gamma, quantity=quantity, value=value, variant=variant,
                provenance="closed_form")


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_specfun(args):
    fn = args.function
    if fn == "log_gamma":
        value = sf.log_gamma(complex(args.x, args.im)) if args.im else sf.log_gamma(args.x)
        value = [value.real, value.imag] if isinstance(value, complex) else value
        inputs = {"x": args.x, "im": args.im}
    elif fn == "digamma":
        value, inputs = sf.digamma(args.x), {"x": args.x}
    elif fn == "polygamma":
        value, inputs = sf.polygamma(args.m, args.x), {"m": args.m, "x": args.x}
    elif fn == "log_barnes_g":
        value, inputs = sf.log_barnes_g(args.x), {"x": args.x}
    elif fn == "reg_lower_incomplete_gamma":
        value, inputs = sf.reg_lower_incomplete_gamma(args.a, args.x), {"a": args.a, "x": args.x}
    else:
        value, inputs = sf.log_unit_ball_volume(int(args.x)), {"n": int(args.x)}
    _emit_json({"function": fn, "input": inputs, "value": value},
               {"subcommand": "specfun", "function": fn, **inputs}, args.output)
    return 0


def _params_doc(p: ex.ModelParams) -> dict:
    return {"n": p.n, "mu": p.mu, "gamma": p.gamma}


def cmd_moments(args):
    p = _params(args)
    logm = ex.log_volume_moment(p, args.s)
    _emit_json(
        {"params": _params_doc(p), "s": args.s, "value": math.exp(logm), "log_value": logm,
         "provenance": "closed_form"},
        {"subcommand": "moments", "n": p.n, "mu": p.mu, "gamma": p.gamma, "s": args.s},
        args.output,
    )
    return 0


def cmd_cgf(args):
    p = _params(args)
    z = complex(args.re, args.im)
    value = ex.cgf(p, z if args.im else args.re, extended=args.extended)
    value = complex(value)
    _emit_json(
        {"params": _params_doc(p), "z": {"re": args.re, "im": args.im},
         "value": {"re": value.real, "im": value.imag}, "provenance": "closed_form"},
        {"subcommand": "cgf", "n": p.n, "mu": p.mu, "gamma": p.gamma, "re": args.re, "im": args.im,
         "extended": args.extended},
        args.output,
    )
    return 0


def cmd_identities(args):
    if args.grid == "quick":
        rows = ps.identity_grid_report(k_grid=(2, 3, 10, 11), m_grid=(2, 3))
    else:
        rows = ps.identity_grid_report()
    for row in rows:
        row["provenance"] = "closed_form"
    _emit_csv(rows, ["a", "k", "m", "proposition", "lhs", "rhs", "abs_diff", "holds", "provenance"],
              {"subcommand": "identities", "grid": args.grid}, args.output)
    return 0


def cmd_cumulants(args):
    p = _params(args)
    rep = cm.cumulant_report(p, max_order=args.max_order)
    orders = [
        {"m": m, "exact": e, "oracle": o, "abs_diff": d, "provenance": "closed_form+oracle_fd"}
        for (m, e, o, d) in rep.orders
    ]
    _emit_json(
        {"params": _params_doc(p), "orders": orders},
        {"subcommand": "cumulants", "n": p.n, "mu": p.mu, "gamma": p.gamma, "max_order": args.max_order},
        args.output,
    )
    return 0


def cmd_regimes(args):
    rows = []
    for alpha in (0.5, 1.0, 2.0):
        for n in args.sweep:
            p = ex.ModelParams(n, alpha * n, args.gamma)
            pred = cm.regime_expansion(cm.RegimeSpec("mu_linear", alpha), n, args.gamma)[1]
            exact = cm.cumulant_exact(p, 2)
            rows.append(dict(regime=f"mu_linear(alpha={alpha:g})", driver=n, exact_var=exact,
                             predicted_var=pred, ratio=exact / pred, provenance="closed_form"))
    for n in args.sweep:
        mu = float(n - math.isqrt(n))
        p = ex.ModelParams(n, mu, args.gamma)
        pred = cm.regime_expansion(cm.RegimeSpec("near_equal_weight"), n, args.gamma)[1]
        exact = cm.cumulant_exact(p, 2)
        rows.append(dict(regime="near_equal_weight", driver=n, exact_var=exact,
                         predicted_var=pred, ratio=exact / pred, provenance="closed_form"))
    for mu in args.sweep:
        p = ex.ModelParams(3, float(mu), args.gamma)
        pred = cm.regime_expansion(cm.RegimeSpec("fixed_n"), float(mu), args.gamma)[1]
        exact = cm.cumulant_exact(p, 2)
        rows.append(dict(regime="fixed_n(n=3)", driver=mu, exact_var=exact,
                         predicted_var=pred, ratio=exact / pred, provenance="closed_form"))
    _emit_csv(rows, ["regime", "driver", "exact_var", "predicted_var", "ratio", "provenance"],
              {"subcommand": "regimes", "gamma": args.gamma, "sweep": args.sweep}, args.output)
    return 0


def cmd_cdf(args):
    p = _params(args)
    xs = _float_list(args.x)
    values = ds.cdf_inverted(p, np.array(xs))
    rows = [_sweep_row(p.n, p.mu, p.gamma, f"cdf@x={x:g}", float(v))
            for x, v in zip(xs, np.atleast_1d(values))]
    _emit_csv(rows, SWEEP_COLUMNS,
              {"subcommand": "cdf", "n": p.n, "mu": p.mu, "gamma": p.gamma, "x": xs}, args.output)
    return 0


def _bs_one(task):
    n, mu, gamma = task
    d = ds.kolmogorov_distance_to_normal(ex.ModelParams(n, mu, gamma))
    return n, d


def cmd_berry_esseen(args):
    tasks = [(n, args.mu, args.gamma) for n in args.sweep]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_bs_one, tasks))
    else:
        results = [_bs_one(t) for t in tasks]
    rows = []
    for n, d in results:
        rows.append(_sweep_row(n, args.mu, args.gamma, "kolmogorov_distance", d))
        rows.append(_sweep_row(n, args.mu, args.gamma, "kd_times_sqrt_log_n", d * math.sqrt(math.log(n))))
    _emit_csv(rows, SWEEP_COLUMNS,
              {"subcommand": "berry-esseen", "mu": args.mu, "gamma": args.gamma, "sweep": args.sweep,
               "jobs": args.jobs}, args.output)
    return 0


def cmd_ldp(args):
    variants = ["LDP", "MODPHI"] if args.variant == "both" else [args.variant]
    rows = []
    for n in args.sweep:
        p = ex.ModelParams(n, args.mu, args.gamma)
        for t in args.t:
            for kind in variants:
                v = ds.ldp_scaled_cgf(p, t, ds.CenteringVariant(kind))
                rows.append(_sweep_row(n, args.mu, args.gamma, f"scaled_cgf@t={t:g}", v, kind))
    _emit_csv(rows, SWEEP_COLUMNS,
              {"subcommand": "ldp", "mu": args.mu, "gamma": args.gamma, "sweep": args.sweep,
               "t": args.t, "variant": args.variant}, args.output)
    return 0


def cmd_modphi(args):
    rows = []
    for n in args.sweep:
        p = ex.ModelParams(n, args.mu, args.gamma)
        for z in args.z:
            for variant, adjusted in (("adjusted", True), ("stated", False)):
                rows.append(_sweep_row(n, args.mu, args.gamma, f"residual@z={z:g}",
                                       ds.mod_gaussian_residual(p, z, adjusted=adjusted), variant))
    _emit_csv(rows, SWEEP_COLUMNS,
              {"subcommand": "modphi", "mu": args.mu, "gamma": args.gamma, "sweep": args.sweep,
               "z": args.z}, args.output)
    return 0


def cmd_sample(args):
    p = _params(args)
    if args.kind == "identity":
        rng = sm.RngStream(args.seed, 0).generator()
        rep = sm.check_product_identity(p, args.count, rng)
        _emit_json(
            {"params": _params_doc(p), "kind": "identity",
             "ks": {"statistic": rep.statistic, "p_value": rep.p_value,
                    "n_lhs": rep.n_lhs, "n_rhs": rep.n_rhs},
             "provenance": "monte_carlo"},
            {"subcommand": "sample", "kind": args.kind, "n": p.n, "mu": p.mu, "gamma": p.gamma,
             "count": args.count, "seed": args.seed, "streams": args.streams},
            args.output,
        )
        return 0
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
    _emit_csv(rows, ["stream", "value", "provenance"],
              {"subcommand": "sample", "kind": args.kind, "n": p.n, "mu": p.mu, "gamma": p.gamma,
               "count": args.count, "seed": args.seed, "streams": args.streams}, args.output)
    return 0


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
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
        _emit_csv(rows, ["area", "circumradius", "cx", "cy", "provenance"],
                  {"subcommand": "delaunay2d", "detail": "per-triangle", "seed": args.seed},
                  args.per_triangle)
    _emit_json(
        {"mu": args.mu, "s": args.s, "estimate": float(ests.mean()), "std_error": pooled_se,
         "replicates": per_rep, "provenance": "tessellation"},
        {"subcommand": "delaunay2d", "gamma": args.gamma, "side": args.side, "guard": args.guard,
         "mode": args.mode, "mu": args.mu, "s": args.s, "seed": args.seed,
         "replicates": args.replicates, "jobs": args.jobs},
        args.output,
    )
    return 0


def cmd_report(args):
    rows, timings = rp.run_claims(seed=args.seed, quick=args.quick)
    for r in rows:
        print(rp.status_line(r), file=sys.stderr)
    config = {"subcommand": "report", "seed": args.seed, "quick": args.quick}
    if args.format == "csv":
        _emit_csv(rows, ["claim", "status", "value", "detail", "provenance"], config, args.output)
    else:
        _emit_json({"claims": rows, "timings_seconds": timings}, config, args.output)
    return 0 if all(r["status"] != "fail" for r in rows) else 4


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdvol",
        description="Numerical laboratory for volumes of weighted typical Poisson-Delaunay cells",
    )
    parser.add_argument("--version", action="version", version=f"pdvol {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("specfun", help="evaluate one special function")
    p.add_argument("--function", required=True,
                   choices=["log_gamma", "digamma", "polygamma", "log_barnes_g",
                            "reg_lower_incomplete_gamma", "log_unit_ball_volume"])
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
    p.add_argument("--x", type=str, required=True, help="comma list of evaluation points")
    p.set_defaults(run=cmd_cdf)

    p = sub.add_parser("berry-esseen", help="Kolmogorov distance to the Gaussian over an n-sweep")
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--sweep", type=_int_list, default=[10, 100, 1000, 10000])
    p.add_argument("--jobs", type=int, default=_jobs_default())
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
    p.add_argument("--count", type=int, default=10**5)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--streams", type=int, default=1)
    p.set_defaults(run=cmd_sample)

    p = sub.add_parser("delaunay2d", help="planar tessellation simulation and typical-cell estimate")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--side", type=float, default=300.0)
    p.add_argument("--guard", type=float, default=10.0)
    p.add_argument("--mode", choices=["plain", "toroidal"], default="plain")
    p.add_argument("--mu", type=float, default=-1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--per-triangle", type=str, default=None,
                   help="also write per-triangle (area, circumradius, center) CSV here")
    p.add_argument("--jobs", type=int, default=_jobs_default())
    p.set_defaults(run=cmd_delaunay2d)

    p = sub.add_parser("report", help="run the claim-verification matrix")
    p.add_argument("--quick", action="store_true", help="smaller sweeps, about 5 s instead of 13 s")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
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
        return args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
