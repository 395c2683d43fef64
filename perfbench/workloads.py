"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of ``Op``s: one call (or a small
group of calls) into pdvol, with a check of its answer that runs after the
timed pass.  ``run_pass`` times every op; ``account`` turns a pass into
attempted, failed and refused counts.

* ``claims``     - the full claim matrix through the CLI, as users run it.
* ``highdim``    - few calls at large n: the O(n) row sums, the Gil-Pelaez
                   loop and the polygamma sums do the work.
* ``smalln``     - many cheap exact-law calls at n <= 200: per-call overhead,
                   not n, dominates.
* ``montecarlo`` - rejection sampling and the planar tessellation; the exact
                   law is only used for reference values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable

import numpy as np

from pdvol import cli
from pdvol import cumulants as cm
from pdvol import delaunay2d as dl
from pdvol import distribution as ds
from pdvol import exactlaw as ex
from pdvol import polygamma_sums as ps
from pdvol import sampling as sm
from pdvol.errors import ConvergenceError, DomainError

#: an op marked ``refusal`` is correct when it raises one of these
REFUSALS = (ConvergenceError, DomainError)

#: the hostspeed reference each workload's times are scaled by, when not
#: "vector": smalln's cost is per call, not per array element
REFERENCE = {"smalln": "calls"}


@dataclass
class Op:
    name: str
    fn: Callable[[], Any]
    #: returns one message per wrong answer; empty when the answer is right
    check: Callable[[Any], list] = lambda value: []
    #: attempted units the op stands for (claims: one per claim row)
    units: int = 1
    #: package calls the op makes
    calls: int = 1
    #: the correct outcome is a ConvergenceError or DomainError
    refusal: bool = False
    #: the op's share of a workload rate: group name and units of work done
    group: str = ""
    work: float = 0.0


@dataclass
class PassResult:
    wall_s: float  # the sum of the op times
    times: dict
    values: dict  # op name -> return value or the exception raised
    #: op name -> reference time of the host during the op (with a HostSpeed)
    levels: dict


def run_pass(ops, speed=None):
    """Run every op once, in order; an exception is recorded, not raised.
    With a sampling ``hostspeed.HostSpeed``, record the host's speed during
    each op and take the samples' own time out of the op's time."""
    times, values, levels = {}, {}, {}
    clock = time.perf_counter
    for op in ops:
        k = len(speed.samples) if speed is not None else 0
        s = clock()
        try:
            values[op.name] = op.fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted below
            values[op.name] = exc
        e = clock()
        times[op.name] = e - s
        if speed is not None:
            times[op.name] -= speed.sampled_between(s, e, k)
            levels[op.name] = speed.level(k)
    return PassResult(sum(times.values()), times, values, levels)


def median_pass_s(ops, pass_times):
    """Pass wall time with each op taken at its median over the passes
    (``pass_times``: one ``PassResult.times`` per pass), so that a slow spell
    of the host during one pass moves only the ops it hit."""
    return sum(statistics.median(times[op.name] for times in pass_times) for op in ops)


def account(ops, result):
    """(attempted, failed, refused, messages) for one pass."""
    attempted = failed = refused = 0
    messages = []
    for op in ops:
        attempted += op.units
        value = result.values[op.name]
        if op.refusal:
            if isinstance(value, REFUSALS):
                refused += 1
            else:
                failed += op.units
                messages.append(f"{op.name}: expected ConvergenceError or DomainError, got {_describe(value)}")
            continue
        if isinstance(value, Exception):
            failed += op.units
            messages.append(f"{op.name}: raised {_describe(value)}")
            continue
        errors = op.check(value)
        failed += min(op.units, len(errors))
        messages.extend(f"{op.name}: {e}" for e in errors)
    return attempted, failed, refused, messages


def _describe(value):
    if isinstance(value, BaseException):
        return f"{type(value).__name__}({value})"
    return "a result"


def digest(value):
    """Stable fingerprint of an op's output, for comparing passes."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, BaseException):
            h.update(f"exc:{type(v).__name__}:{v}".encode())
        elif is_dataclass(v):
            h.update(type(v).__name__.encode())
            for f in fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, dict):
            for k in sorted(v):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(b"[%d" % len(v))
            for x in v:
                feed(x)
        elif isinstance(v, np.ndarray):
            h.update(str((v.dtype, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------
# claims

#: claim matrix of the parent commit: 16 pass, 7 finding, 0 fail
EXPECTED_CLAIMS = {
    "moment-normalization": "pass",
    "planar-mean-three-ways": "pass",
    "digamma-trigamma-closed-forms": "pass",
    "polygamma-sum-bound": "pass",
    "digamma-sum-alt-offset": "finding",
    "cumulant-closed-form-vs-fd": "pass",
    "cumulant-last-term-adjudication": "finding",
    "mean-expansion-bounded": "pass",
    "variance-expansion-remainder": "finding",
    "regime-limit-mu-linear": "pass",
    "regime-limit-near-equal": "pass",
    "regime-limit-fixed-n": "finding",
    "berry-esseen-decrease": "pass",
    "berry-esseen-ratio-window": "finding",
    "product-identity-ks": "pass",
    "radius-law-ks": "pass",
    "sphere-moment-identity": "pass",
    "mod-gaussian-residual-decay": "pass",
    "mod-gaussian-normalization": "finding",
    "centering-adjudication": "pass",
    "centering-t05-threshold": "finding",
    "tessellation-invariants": "pass",
    "barnes-shift-error-decay": "pass",
}

REPORT_TASKS = (
    "moment-normalization", "planar-mean", "summation-identities", "cumulant-oracle", "expansions",
    "regime-limits", "berry-esseen", "product-identity", "radius-law", "sphere-identity",
    "mod-gaussian", "centering", "tessellation", "barnes-shift",
)


def claims_ops(seed, workdir):
    path = os.path.join(workdir, "report.json")

    def report():
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["report", "--seed", str(seed), "-o", path])
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        timings = doc.pop("timings_seconds")
        return {"exit_code": code, "document": doc, "timings": timings}

    def check(value):
        errors = [] if value["exit_code"] == 0 else [f"exit code {value['exit_code']}"]
        got = {r["claim"]: r["status"] for r in value["document"]["claims"]}
        for claim in sorted(set(got) | set(EXPECTED_CLAIMS)):
            if got.get(claim) != EXPECTED_CLAIMS.get(claim):
                errors.append(f"claim {claim}: status {got.get(claim)}, expected {EXPECTED_CLAIMS.get(claim)}")
        return errors

    return [Op("report", report, check, units=len(EXPECTED_CLAIMS))]


def claims_outputs(value):
    """What must not differ between passes: the claim JSON without timings."""
    return {k: v for k, v in value.items() if k != "timings"}


# ---------------------------------------------------------------------------
# highdim

#: Kolmogorov distances at mu = -1 from the parent commit; the inversion
#: refines to 1e-8 in sup norm, so a correct evaluation lands within 1e-8
KOLMOGOROV_REFERENCE = {1000: 0.006911071637849375, 10000: 0.004349899092297382}
KOLMOGOROV_TOL = 1e-8
CGF_GRID_N = 10**4
CGF_GRID_POINTS = 2048
CGF_MPMATH_POINTS = 3
#: error allowed against a 30-digit sum: relative, plus an absolute floor,
#: since each log-gamma term near (n+1)(n+mu)/2 ~ 5e7 is ~8e8 and carries
#: ~2e-7 of double rounding (measured errors at n = 1e4: 5e-8 to 2e-7)
CGF_MPMATH_RTOL = 1e-11
CGF_MPMATH_ATOL = 1e-6
CUMULANT_N = 10**6
#: the difference oracle cancels catastrophically at large n; at n = 1e3 it
#: still reaches about 4e-5 relative for m <= 4
FD_CHECK_N = 1000
FD_TOL = 1e-4
LDP_NS = (10**4, 10**5, 10**6)


def log_moment_mpmath(params, z, dps=30):
    """log E V^z from the gamma-product formula, summed in mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        n, mu, lg = mp.mpf(params.n), mp.mpf(params.mu), mp.loggamma
        z = mp.mpc(z)
        a = (n + 1) * (n + mu) / 2 + 1
        b = n * (n + mu + 1) / 2
        t = lg(a + (n + 1) * z / 2) - lg(b + n * z / 2) - (lg(a) - lg(b))
        t += z * (lg(n / 2 + 1) - mp.log(params.gamma) - (n / 2) * mp.log(mp.pi) - lg(n + 1))
        t += lg(n + mu + 1 + z) - lg(n + mu + 1)
        t -= (n + 1) * (lg((n + mu) / 2 + 1 + z / 2) - lg((n + mu) / 2 + 1))
        t += mp.fsum(lg((i + mu) / 2 + 1 + z / 2) - lg((i + mu) / 2 + 1) for i in range(1, params.n + 1))
        return complex(t)


def highdim_ops(seed):
    rng = _rng(seed, 1)
    ops = []
    for n, ref in KOLMOGOROV_REFERENCE.items():
        p = ex.ModelParams(n, -1.0, 1.0)
        ops.append(Op(f"kolmogorov.n{n}", lambda p=p: ds.kolmogorov_distance_to_normal(p),
                      lambda d, ref=ref: [] if abs(d - ref) <= KOLMOGOROV_TOL else [f"d = {d!r}, reference {ref!r}"]))

    # imaginary-axis grid: 1024 seeded t >= 0 (t = 0 first) and their mirrors
    t = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 12.0, CGF_GRID_POINTS // 2 - 1)]))
    grid = 1j * np.concatenate([t, -t])
    spot = rng.choice(np.arange(1, CGF_GRID_POINTS // 2), CGF_MPMATH_POINTS, replace=False)
    pg = ex.ModelParams(CGF_GRID_N, 0.0, 1.0)

    def check_grid(L):
        half = CGF_GRID_POINTS // 2
        scale = 1.0 + np.abs(L)
        errors = []
        if abs(L[0]) > 1e-12:
            errors.append(f"L(0) = {L[0]!r}")
        if np.max(np.abs(L[half:] - np.conj(L[:half])) / scale[:half]) > 1e-12:
            errors.append("L(-it) differs from conj L(it)")
        if np.max(L.real) > 1e-12:
            errors.append(f"|phi| = {math.exp(np.max(L.real))!r} exceeds 1")
        for k in spot:
            ref = log_moment_mpmath(pg, grid[k])
            if abs(L[k] - ref) > CGF_MPMATH_ATOL + CGF_MPMATH_RTOL * abs(ref):
                errors.append(f"L({grid[k]}) = {L[k]!r}, mpmath {ref!r}")
        return errors

    ops.append(Op("cgf.grid", lambda: ex.cgf(pg, grid), check_grid))

    p6 = ex.ModelParams(CUMULANT_N, -1.0, 1.0)

    def check_large(m):
        def check(c):
            if m == 1:
                gap = abs(c - cm.mean_expansion(p6))
                return [] if gap < 1.0 else [f"c1 is {gap:.3g} from the mean expansion"]
            if m == 2:
                gap = abs(c / cm.variance_expansion(p6) - 1.0)
                return [] if gap < 1e-6 else [f"c2 is {gap:.3g} (relative) from the variance expansion"]
            bound = cm.cumulant_bound(p6, m)
            return [] if abs(c) <= bound else [f"|c{m}| = {abs(c):.4g} exceeds the bound {bound:.4g}"]
        return check

    for m in range(1, 7):
        ops.append(Op(f"cumulant.n{CUMULANT_N}.m{m}", lambda m=m: cm.cumulant_exact(p6, m), check_large(m)))

    p3 = ex.ModelParams(FD_CHECK_N, -1.0, 1.0)
    for m in range(1, 5):
        def check_fd(c, m=m):
            oracle = cm.cumulant_fd_oracle(p3, m)
            return [] if _rel(c, oracle) <= FD_TOL else [f"c{m} = {c!r}, difference oracle {oracle!r}"]
        ops.append(Op(f"cumulant.n{FD_CHECK_N}.m{m}", lambda m=m: cm.cumulant_exact(p3, m), check_fd))

    for variant in (ds.MODPHI_CENTERING, ds.LDP_CENTERING):
        for tv in (0.5, 1.0):
            def ldp(variant=variant, tv=tv):
                return [ds.ldp_scaled_cgf(ex.ModelParams(n, -1.0, 1.0), tv, variant) for n in LDP_NS]

            def check_ldp(vals, variant=variant, tv=tv):
                if variant.kind == "MODPHI":
                    gaps = [abs(v - tv * tv / 2.0) for v in vals]
                    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
                    return [] if ok else [f"MODPHI gap to t^2/2 does not shrink: {gaps}"]
                ok = all(b > a for a, b in zip(vals, vals[1:]))
                return [] if ok else [f"LDP scaled cgf does not diverge: {vals}"]

            ops.append(Op(f"ldp.{variant.kind}.t{tv:g}", ldp, check_ldp, calls=len(LDP_NS)))
    return ops


# ---------------------------------------------------------------------------
# smalln

SMALLN_NS = range(2, 201)
SMALLN_MUS = (-1.9, -1.0, 0.0, 1.0, 10.0)
SMALLN_GAMMAS = (0.5, 2.0)
#: seeded evaluation points per (n, mu): one pass is ~14k calls, about 1.5 s,
#: so that a run's median rests on about ten passes
SMALLN_REPLICAS = 1
#: worst gap of the two typical-cell routes measured at n <= 200, |s| < 0.9: 1.1e-10
TYPICAL_ROUTE_TOL = 1e-9
SCALING_TOL = 1e-10
MODG_MUS = (-1.9, -1.0, 0.0, 1.0, 10.0)
MODG_POINTS = 20


def smalln_ops(seed):
    rng = _rng(seed, 2)
    ops = []
    log_ratio = math.log(SMALLN_GAMMAS[1] / SMALLN_GAMMAS[0])
    for n in SMALLN_NS:
        for mu in SMALLN_MUS:
            pair = [ex.ModelParams(n, mu, g) for g in SMALLN_GAMMAS]
            for r in range(SMALLN_REPLICAS):
                s = float(rng.uniform(-(mu + 2.0) + 0.05, 3.0))
                z = rng.uniform(-(mu + 2.0) + 0.1, 2.0, 4) + 1j * rng.uniform(-5.0, 5.0, 4)
                z = np.concatenate([z, np.conj(z)])
                radii = np.sort(rng.uniform(0.0, 3.0, 4))

                def point(pair=pair, s=s, z=z, radii=radii):
                    return [(ex.log_volume_moment(p, s), ex.cgf(p, z),
                             [cm.cumulant_exact(p, m) for m in range(1, 5)], ex.radius_cdf(p, radii))
                            for p in pair]

                def check(vals, s=s, z=z):
                    (lv0, L0, c0, r0), (lv1, L1, c1, r1) = vals
                    errors = []
                    if abs((lv1 - lv0) + s * log_ratio) > SCALING_TOL * (1.0 + abs(lv0)):
                        errors.append(f"E V^s does not scale as gamma^-s (s = {s})")
                    scale = 1.0 + np.abs(L0)
                    if np.max(np.abs((L1 - L0) + z * log_ratio) / scale) > SCALING_TOL:
                        errors.append("cgf does not shift by -z log(gamma ratio)")
                    if np.max(np.abs(L0[4:] - np.conj(L0[:4])) / scale[:4]) > 1e-12:
                        errors.append("cgf is not conjugate-symmetric")
                    if abs((c1[0] - c0[0]) + log_ratio) > SCALING_TOL * (1.0 + abs(c0[0])):
                        errors.append("c1 does not shift by -log(gamma ratio)")
                    if any(_rel(a, b) > 1e-12 for a, b in zip(c0[1:], c1[1:])):
                        errors.append("c2..c4 depend on gamma")
                    if not c0[1] > 0:
                        errors.append(f"c2 = {c0[1]!r} is not positive")
                    for rc in (r0, r1):
                        if not (np.all((rc >= 0) & (rc <= 1)) and np.all(np.diff(rc) >= 0)):
                            errors.append("radius cdf is not a monotone probability")
                    return errors

                ops.append(Op(f"point.n{n}.mu{mu:g}.r{r}", point, check, calls=14))

    for n in SMALLN_NS:
        for g in SMALLN_GAMMAS:
            s = float(rng.uniform(-0.9, 0.9))

            def routes(n=n, g=g, s=s):
                return ex.typical_volume_moment(n, g, s), ex.volume_moment(ex.ModelParams(n, -1.0, g), s)

            def check_routes(v, s=s):
                gap = abs(v[0] / v[1] - 1.0)
                return [] if gap <= TYPICAL_ROUTE_TOL else [f"typical-cell routes differ by {gap:.3g} at s = {s}"]

            ops.append(Op(f"typical.n{n}.g{g:g}", routes, check_routes, calls=2))

    for mu in MODG_MUS:
        zs = np.concatenate([[0.0], rng.uniform(-(mu + 3.0) + 0.05, 3.0, MODG_POINTS)])

        def modg(mu=mu, zs=zs):
            return np.array([ds.mod_gaussian_limit(mu, float(z)) for z in zs])

        def check_modg(v):
            ok = v[0] == 1.0 and np.all(np.isfinite(v)) and np.all(v > 0)
            return [] if ok else ["mod-Gaussian limit is not positive and finite with value 1 at z = 0"]

        ops.append(Op(f"modgauss.mu{mu:g}", modg, check_modg, calls=len(zs)))

    def check_identities(rows):
        bad = [r for r in rows if r["proposition"] != "digamma_sum_alt" and not r["holds"]]
        return [f"{len(bad)} identity rows fail"] if bad else []

    # looked up at call time, so that the traced run sees the traced binding
    ops.append(Op("identity_grid_report", lambda: ps.identity_grid_report(), check_identities))
    return ops


# ---------------------------------------------------------------------------
# montecarlo

MC_DRAWS = 10**5
MC_POINTS = ((2, -1.0), (2, 0.0), (2, 1.0), (2, 3.0), (3, -1.0), (3, 0.0), (3, 2.0))
#: needs about 2e7 proposals against the sampler's fixed 1e7 budget
OVER_BUDGET = (2, 5.0, 1_500_000)
TORUS_POINTS = 10**5
AUDITS = 1000
ESTIMATOR_MUS = (-1.0, 0.0, 1.0, 2.0)
Z_MAX = 5.0


def _within_se(estimate, se, ref):
    z = abs(estimate - ref) / se
    return [] if z <= Z_MAX else [f"estimate {estimate:.6g} is {z:.1f} SE from {ref:.6g}"]


def montecarlo_ops(seed):
    ops = []
    for k, (n, mu) in enumerate(MC_POINTS):
        p = ex.ModelParams(n, mu, 1.0)

        def draw(p=p, k=k):
            return sm.sample_volume(p, sm.RngStream(seed, 100 + k).generator(), MC_DRAWS)

        def check(v, p=p):
            return _within_se(float(v.mean()), float(v.std()) / math.sqrt(len(v)), ex.volume_moment(p, 1.0))

        ops.append(Op(f"sample_volume.{n}.{mu:g}", draw, check, group="sample_volume", work=MC_DRAWS))

    n, mu, size = OVER_BUDGET
    ops.append(Op(f"sample_volume.{n}.{mu:g}.over_budget",
                  lambda: sm.sample_volume(ex.ModelParams(n, mu, 1.0), sm.RngStream(seed, 199).generator(), size),
                  refusal=True, group="sample_volume"))

    side = math.sqrt(float(TORUS_POINTS))
    win = dl.SimWindow(side=side, guard=0.0, mode="toroidal")
    points = dl.sample_poisson_points(1.0, win, sm.RngStream(seed, 200).generator())
    state = {}

    def triangulate():
        state["tri"] = dl.delaunay_triangulate(points, mode="toroidal", side=side)
        return state["tri"]

    def check_count(tri):
        return [] if tri.n_triangles == 2 * len(points) else [f"{tri.n_triangles} triangles for {len(points)} points"]

    tess = dict(group="tess")
    ops.append(Op("torus.triangulate", triangulate, check_count, work=len(points), **tess))
    ops.append(Op("torus.edge_incidence", lambda: dl.edge_incidence_counts(state["tri"]),
                  lambda c: [] if np.all(c == 2) else ["an edge incidence differs from 2"], **tess))
    ops.append(Op("torus.audit", lambda: dl.audit_empty_circumdisk(state["tri"], AUDITS,
                                                                  sm.RngStream(seed, 201).generator()),
                  lambda bad: [] if bad == 0 else [f"{bad} circumdisk violations"], **tess))
    ops.append(Op("torus.tiling", lambda: dl.tiling_defect(state["tri"]),
                  lambda d: [] if d < 1e-6 else [f"tiling defect {d:.3g}"], **tess))
    for mu in ESTIMATOR_MUS:
        ops.append(Op(f"torus.estimate.mu{mu:g}",
                      lambda mu=mu: dl.estimate_typical_moment(state["tri"], win, mu, 1.0),
                      lambda e, mu=mu: _within_se(e.estimate, e.std_error,
                                                  ex.volume_moment(ex.ModelParams(2, mu, 1.0), 1.0)),
                      **tess))
    return ops


# ---------------------------------------------------------------------------


def build(workload, seed, workdir):
    """The workload's op list for this seed (its input generation)."""
    if workload == "claims":
        return claims_ops(seed, workdir)
    return {"highdim": highdim_ops, "smalln": smalln_ops, "montecarlo": montecarlo_ops}[workload](seed)


def outputs(workload, ops, result):
    """Per-op fingerprints of what must not change between passes."""
    out = {}
    for op in ops:
        value = result.values[op.name]
        if workload == "claims" and not isinstance(value, Exception):
            value = claims_outputs(value)
        out[op.name] = digest(value)
    return out


def rates(workload, ops, result):
    """The workload's own rates, from the benchmark's timers (no tracing)."""
    t = result.times
    if workload == "highdim":
        return {"kolmogorov_n1e4_s": t["kolmogorov.n10000"],
                "cgf_points_per_s": CGF_GRID_POINTS / t["cgf.grid"]}
    if workload == "smalln":
        return {"smalln_calls_per_s": sum(op.calls for op in ops) / result.wall_s}
    if workload == "montecarlo":
        out = {}
        for group, name in (("sample_volume", "volume_draws_per_s"), ("tess", "tess_points_per_s")):
            members = [op for op in ops if op.group == group]
            delivered = sum(op.work for op in members if not isinstance(result.values[op.name], Exception))
            out[name] = delivered / sum(t[op.name] for op in members)
        return out
    value = result.values["report"]
    if isinstance(value, Exception):
        return {}
    return {f"report.{task}.s": value["timings"][task] for task in REPORT_TASKS}


def exact_acceptance_rate(n, mu):
    """E[Delta^(mu+2)] / Delta_max^(mu+2), the angular sampler's exact rate."""
    dmax = sm.MAX_TRIANGLE_AREA_IN_DISK if n == 2 else sm.MAX_TETRAHEDRON_VOLUME_IN_BALL
    return math.exp(ex.log_angular_simplex_moment(n, mu + 2.0)) / dmax ** (mu + 2.0)
