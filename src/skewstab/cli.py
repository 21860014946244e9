"""Declarative experiment runner.

Parses configs, dispatches to the library, and writes reproducible
artifacts: every file output gets a sibling <name>.meta.json embedding
the resolved config and artifact version.  Exit codes: 0 success, 2
validation error, 3 numeric failure (invariant's non-convergence
without --allow-partial).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .arithmetic import linear_type_estimate
from .configio import (
    SCHEMA_VERSION,
    _format_scalar,
    _json_text,
    load_family,
    load_measure,
    load_system,
    parse_angle,
    read_json,
    save_measure,
    system_diagnostics,
    write_json,
)
from .dynamics import invariant_measure
from .measures import FiberMeasure, pbv_norm, product_disintegration
from .stability import (
    PowerLaw,
    StabilityBudget,
    TabulatedRate,
    equilibrium_decay,
    prop30_example,
    prop_bahh_system,
    stability_bound,
    stability_sweep,
)


def _parse_phi(spec: str):
    if spec.startswith("power:"):
        try:
            c, alpha = map(float, spec[len("power:"):].split(","))
        except ValueError:
            raise ValueError(f"malformed phi spec {spec!r}; expected "
                             f"power:C,alpha") from None
        return PowerLaw(c, alpha)
    if spec.startswith("table:"):
        doc = read_json(spec[len("table:"):])
        if not isinstance(doc, dict) or set(doc) != {"xs", "ys"}:
            raise ValueError("phi table must have exactly keys xs, ys")
        cols = (doc["xs"], doc["ys"])
        if not all(isinstance(col, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in col) for col in cols):
            raise ValueError("phi table xs and ys must be lists of numbers")
        return TabulatedRate(*(tuple(map(float, col)) for col in cols))
    raise ValueError(f"unknown phi spec {spec!r}; use power:C,alpha "
                     f"or table:<path>")


def _json_float(v):
    f = float(v)
    return f if math.isfinite(f) else None


def _print_json(doc: dict) -> None:
    sys.stdout.write(_json_text(doc))


def _resolve_out(args, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else Path(args.out_dir) / p


def _write_meta(args, out: Path, command: str, config: dict,
                extra: dict | None = None, partial: bool = False) -> None:
    meta = {
        "artifact_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": args.seed,
        "config": config,
        "partial": partial,
    }
    if extra:
        meta["results"] = extra
    write_json(str(out) + ".meta.json", meta)


def _write_csv(out: Path, header: list[str], rows: list[tuple]) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None
                              else repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ------------------------------------------------------------- commands

def _cmd_bound(args) -> int:
    phi = _parse_phi(args.phi)
    budget = StabilityBudget(phi, args.M, args.C, args.eps)
    val = stability_bound(budget)
    print(f"{val:.6f}")
    if args.out:
        out = _resolve_out(args, args.out)
        write_json(out, {"bound": val, "phi": args.phi, "M": args.M,
                         "C": args.C, "eps": args.eps})
        _write_meta(args, out, "bound",
                    {"phi": args.phi, "M": args.M, "C": args.C,
                     "eps": args.eps})
    return 0


def _cmd_decay(args) -> int:
    config = read_json(args.config)
    system = load_system(config)
    system.base.check_grid(args.N)
    if args.observable:
        g = load_measure(read_json(args.observable))
        if g.n_cells != args.N:
            raise ValueError(f"observable has n_cells = {g.n_cells}, but "
                             f"--N is {args.N}")
    else:
        # default zero-mass input: m (x) (delta_0 - delta_half)
        g = product_disintegration(
            args.N, FiberMeasure([0.0, 0.5], [1.0, -1.0]))
    kw = {} if args.eps_f is None else {"eps_f": args.eps_f}
    series = equilibrium_decay(system, g, args.nmax, **kw)
    out = _resolve_out(args, args.out)
    _write_csv(out, ["n", "norm"], list(zip(series.ns, series.norms)))
    resolved = {"system": config, "N": args.N, "nmax": args.nmax,
                "eps_f": args.eps_f, "observable": args.observable}
    _write_meta(args, out, "decay", resolved,
                extra={"slope": series.slope,
                       "intercept": series.intercept,
                       "description": series.description})
    return 0


def _cmd_sweep(args) -> int:
    config = read_json(args.config)
    job = load_family(config)
    gamma = args.gamma if args.gamma is not None else job.gamma
    gamma_prime = args.gamma_prime if args.gamma_prime is not None \
        else job.gamma_prime
    table = stability_sweep(job.pairs, gamma, gamma_prime=gamma_prime)
    out = _resolve_out(args, args.out)
    _write_csv(out, ["delta", "distance", "lower_bound", "upper_bound_fit"],
               [(r.delta, r.distance, r.lower_bound, r.upper_bound_fit)
                for r in table.rows])
    resolved = {"family": config, "gamma": gamma,
                "gamma_prime": gamma_prime}
    _write_meta(args, out, "sweep", resolved,
                extra={"K": table.K, "beta": table.beta,
                       "upper_ok": table.upper_ok(),
                       "lower_ok": table.lower_ok()})
    return 0


def _cmd_example(args) -> int:
    if args.which == "prop-bahh":
        ex = prop_bahh_system(parse_angle(args.theta), args.j,
                              deformation_scale=args.scale)
        gp = 2.5
        lower_gp = (1.0 / 9.0) * abs(float(ex.delta)) ** (1.0 / (gp - 1.0))
        lower_k = (1.0 / 9.0) / ex.k
        dist = float(ex.closed_form_distance)
        doc = {
            "j": ex.j,
            "k": ex.k,
            "delta": str(_format_scalar(ex.delta)),
            "delta_float": _json_float(ex.delta),
            "closed_form_distance": str(_format_scalar(
                ex.closed_form_distance)),
            "distance_float": dist,
            "deformation_scale": ex.deformation_scale,
            "declared_delta": (float(abs(ex.delta))
                               * (1.0 + ex.deformation_scale)),
            "lower_bound_gamma_prime": {
                "gamma_prime": gp, "bound": lower_gp,
                "pass": dist >= lower_gp},
            "lower_bound_inverse_k": {
                "bound": lower_k, "pass": dist >= lower_k},
        }
        _print_json(doc)
        return 0
    report = prop30_example(args.j)
    doc = {
        "j": report.j,
        "k": report.k,
        "delta": str(_format_scalar(report.delta)),
        "delta_float": _json_float(report.delta),
        "value": str(_format_scalar(report.value)),
        "value_float": _json_float(report.value),
        "term_values_float": [_json_float(t) for t in report.term_values],
        "lebesgue_value": str(_format_scalar(report.lebesgue_value)),
        "tail_bound_float": _json_float(report.tail_bound),
        "bounds": {
            "half_amplitude": {
                "bound": str(_format_scalar(report.bound_half_amplitude)),
                "bound_float": _json_float(report.bound_half_amplitude),
                "pass": report.half_amplitude_ok,
            },
            "sqrt_delta": {
                "bound": report.bound_sqrt_delta,
                "pass": report.sqrt_delta_ok,
            },
        },
    }
    _print_json(doc)
    return 0


def _cmd_diophantine(args) -> int:
    theta = parse_angle(args.theta)
    est = linear_type_estimate(theta, args.depth)
    doc = {
        "theta": args.theta,
        "provenance": theta.provenance,
        "depth": est.K,
        "gamma_hat": _json_float(est.gamma_hat),
        "c0": _json_float(est.c0),
        "max_local_exponent": _json_float(est.max_local_exponent),
        "is_rational": est.is_rational,
        "samples": [[q, _json_float(norm), _json_float(expo)]
                    for q, norm, expo in est.samples],
    }
    _print_json(doc)
    if args.out:
        out = _resolve_out(args, args.out)
        write_json(out, doc)
        _write_meta(args, out, "diophantine",
                    {"theta": args.theta, "depth": args.depth})
    return 0


def _cmd_norm(args) -> int:
    config = read_json(args.config)
    system = load_system(config)
    dis = load_measure(read_json(args.measure))
    report = pbv_norm(dis, p=args.p, A=system.fiber.A)
    _print_json({"l1": report.l1, "var_p": report.var_p,
                 "pbv": report.pbv, "p": report.p, "A": report.A})
    return 0


def _cmd_invariant(args) -> int:
    config = read_json(args.config)
    system = load_system(config)
    kw = {} if args.eps_f is None else {"eps_f": args.eps_f}
    res = invariant_measure(system, tol=args.tol, n_max=args.nmax,
                            n_cells=args.N, fiber_atoms=args.fiber_atoms,
                            **kw)
    out = _resolve_out(args, args.out)
    write_json(out, save_measure(res.measure))
    resolved = {"system": config, "N": args.N,
                "fiber_atoms": args.fiber_atoms, "tol": args.tol,
                "nmax": args.nmax, "eps_f": args.eps_f}
    _write_meta(args, out, "invariant", resolved,
                extra={"converged": res.converged,
                       "n_steps": res.n_steps,
                       "residual": _json_float(res.residual),
                       "mass_drift": res.mass_drift},
                partial=not res.converged)
    if not res.converged and not args.allow_partial:
        print(f"invariant: no convergence in {res.n_steps} steps "
              f"(residual {res.residual:.3g})", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(args) -> int:
    config = read_json(args.config)
    diags = system_diagnostics(config, n_cells=args.N)
    if diags:
        for d in diags:
            print(d)
    else:
        print("ok")
    return 0


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="recorded in artifact metadata (default 0)")
    common.add_argument("--out-dir", default=".",
                        help="directory for relative output paths")

    ap = argparse.ArgumentParser(
        prog="skewstab",
        description="Statistical-stability experiments for "
                    "piecewise-expanding skew products.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="equilibrium-stability bound from declared "
                            "constants")
    p.add_argument("--phi", required=True,
                   help="decay rate: power:C,alpha or table:<path>")
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("decay", parents=[common],
                       help="push a zero-mass input and record norms")
    p.add_argument("--config", required=True, help="system JSON")
    p.add_argument("--nmax", type=int, default=200)
    p.add_argument("--N", type=int, default=1024, help="grid cells")
    p.add_argument("--eps-f", type=float, default=None)
    p.add_argument("--observable", default=None,
                   help="measure JSON (zero total mass)")
    p.add_argument("--out", required=True, help="CSV path (n,norm)")
    p.set_defaults(fn=_cmd_decay)

    p = sub.add_parser("sweep", parents=[common],
                       help="closed-form invariant-measure distances "
                            "against bound shapes over a prop-bahh family")
    p.add_argument("--config", required=True, help="family JSON")
    p.add_argument("--gamma", type=float, default=None,
                   help="override the family's Diophantine type")
    p.add_argument("--gamma-prime", type=float, default=None)
    p.add_argument("--out", required=True,
                   help="CSV path (delta,distance,lower_bound,"
                        "upper_bound_fit)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("example", parents=[common],
                       help="built-in worked examples, JSON to stdout")
    p.add_argument("which", choices=["prop-bahh", "prop-30"])
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--theta", default="liouville_j:3",
                   help="angle for prop-bahh (default liouville_j:3)")
    p.add_argument("--scale", type=float, default=4.0,
                   help="deformation gain for prop-bahh, finite and > 0")
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("diophantine", parents=[common],
                       help="linear-type estimate for an angle")
    p.add_argument("--theta", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_diophantine)

    p = sub.add_parser("norm", parents=[common],
                       help="anisotropic norm report for a measure")
    p.add_argument("--config", required=True, help="system JSON")
    p.add_argument("--measure", required=True, help="measure JSON")
    p.add_argument("--p", type=float, default=1.0)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("invariant", parents=[common],
                       help="invariant-measure pipeline")
    p.add_argument("--config", required=True, help="system JSON")
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--fiber-atoms", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--nmax", type=int, default=200)
    p.add_argument("--eps-f", type=float, default=None)
    p.add_argument("--allow-partial", action="store_true",
                   help="exit 0 on non-convergence, flagged in meta")
    p.add_argument("--out", required=True, help="measure JSON path")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("validate", parents=[common],
                       help="config diagnostics (always exits 0)")
    p.add_argument("--config", required=True, help="system JSON")
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(fn=_cmd_validate)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
