"""One measured repetition of one workload, in a fresh interpreter.

Started by run.py from the checkout root with PYTHONPATH=src, so the
skewstab caches (lru_cache on _sigma_pieces, _linear_sources,
_membership, _exact_dyadic_lebesgue) start cold, as for a CLI user.
Prints one JSON object on its last stdout line:

  setup_s      spawn of this interpreter -> first timed call (run.py
               passes the spawn time): interpreter start, imports and
               building the systems and inputs
  solve_s      first timed call -> checked result
  stages       {name: seconds} the timed stages of the workload, in
               order; they add up to solve_s (see DESIGN.md)
  counts       {name: number} counts of the result, e.g. orbit.steps
  peak_rss_mb  ru_maxrss of this process
  checks       {name: bool} output checks
  layers       per-layer numbers (traced repetitions only)
  digest       sha256 of the written artifacts (cli-roundtrip only)

With --setup-only it does the set-up and prints only setup_s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

ORBIT_N = 64
ACCEPT_ORBIT_DIST = 4.0 / 1024      # criterion 7's 4/N at its N = 1024
REG_N = 128
ACCEPT_REG_SLACK = 2.0 / 256        # criterion 5's 2/N at its N = 256
EXACT_BAHH_J = 2
ROUNDTRIP_N = 256
# the lacunary observable's exact dyadic sum for mu_1 (criterion 8)
P30_VALUE = (Fraction(1, 2 ** 8) + Fraction(1, 2 ** 32) + Fraction(1, 2 ** 128)
             + Fraction(1, 2 ** 512))


def _cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class Rep:
    """Timing, tracing and check bookkeeping of one repetition."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.checks: dict[str, bool] = {}
        self.stages: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.results = []       # the measures the workload produced
        self.artifact = None    # the measure file it wrote, if any
        self.digest = None

    def start(self) -> None:
        self.setup_end_ns = time.time_ns()
        self.t0 = self.last = time.perf_counter()
        if self.tracer is not None:
            self.tracer.active = True

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = now - self.last
        self.last = now

    def stop(self, stage: str) -> None:
        self.lap(stage)
        self.solve_s = self.last - self.t0
        if self.tracer is not None:
            self.tracer.active = False

    def check(self, name: str, ok) -> None:
        self.checks[name] = bool(ok)


# Each workload does its imports and set-up, then returns the timed part.

def pipeline(seed: int, out_dir: str):
    """The float transfer-operator pipeline on two systems: criterion 7's
    attracting-orbit perturbation, then the precomposed-base half of
    criterion 5 (invariant measure, then the p-BV norm whose var_p must
    respect the Lasota-Yorke bound)."""
    from skewstab.arithmetic import golden_angle, lacunary_theta
    from skewstab.dynamics import (SineShift, SkewSystem, invariant_measure,
                                   precomposed_base, translation_family)
    from skewstab.measures import l1_norm, marginal_density, pbv_norm
    from skewstab.stability import prop_bahh_system

    ex = prop_bahh_system(lacunary_theta(3), 1, n_cells=ORBIT_N)
    target = ex.mu_orbit.to_float()

    system = SkewSystem(precomposed_base(2, SineShift(0.01)),
                        translation_family(golden_angle()))
    base, fiber, p = system.base, system.fiber, 1.0
    contraction = base.lam ** p * fiber.alpha
    h = fiber.h_hat(p) + 3 * base.branch_count * fiber.alpha * base.c_h \
        * fiber.A ** (base.xi - p)

    def run(rep: Rep) -> None:
        rep.start()
        orb = invariant_measure(ex.pspec.perturbed, tol=1e-7, n_max=3000,
                                eps_f=2.0 ** -40, n_cells=ORBIT_N,
                                fiber_atoms=2048)
        rep.lap("orbit.invariant_s")
        dist = float(l1_norm(orb.measure - target))
        rep.lap("orbit.distance_s")
        reg = invariant_measure(system, tol=1e-6, n_max=800, n_cells=REG_N,
                                fiber_atoms=4 * REG_N)
        rep.lap("regularity.invariant_s")
        report = pbv_norm(reg.measure, p=p, A=fiber.A)
        rep.stop("regularity.pbv_s")
        rep.counts["orbit.steps"] = orb.n_steps
        rep.check("orbit.converged", orb.converged)
        rep.check("orbit.distance_le_4_over_1024", dist <= ACCEPT_ORBIT_DIST)
        bound = h * marginal_density(reg.measure).sup_norm / (1 - contraction)
        rep.check("regularity.converged", reg.converged)
        rep.check("regularity.A_is_half", fiber.A == 0.5)
        rep.check("regularity.var_p_within_ly_bound",
                  report.var_p <= bound + ACCEPT_REG_SLACK)
        rep.check("regularity.l1_is_mass", abs(report.l1 - 1.0) <= 1e-9)
        rep.results = [orb.measure, reg.measure]

    return run


def exact(seed: int, out_dir: str):
    """The two rational worked examples, through the CLI."""
    from skewstab.arithmetic import lacunary_theta
    from skewstab.cli import main
    from skewstab.measures import l1_norm
    from skewstab.stability import prop_bahh_system

    def run(rep: Rep) -> None:
        rep.start()
        rc1, out1 = _cli(main, ["example", "prop-bahh",
                                "--j", str(EXACT_BAHH_J), "--seed", str(seed)])
        rep.lap("exact.prop_bahh_s")
        rc2, out2 = _cli(main, ["example", "prop-30", "--j", "1",
                                "--seed", str(seed)])
        rep.stop("exact.prop30_s")
        rep.check("exact.prop_bahh_exit_0", rc1 == 0)
        rep.check("exact.prop30_exit_0", rc2 == 0)
        if rc1 == 0:
            doc = json.loads(out1)
            k = 2 ** (2 ** (2 * EXACT_BAHH_J))
            rep.check("exact.k", doc["k"] == k)
            rep.check("exact.closed_form_distance",
                      Fraction(doc["closed_form_distance"])
                      == Fraction(1, 4 * k))
            rep.check("exact.prop_bahh_lower_bounds",
                      doc["lower_bound_gamma_prime"]["pass"] is True
                      and doc["lower_bound_inverse_k"]["pass"] is True)
        if rc2 == 0:
            doc = json.loads(out2)
            rep.check("exact.prop30_value", Fraction(doc["value"]) == P30_VALUE)
            rep.check("exact.prop30_bounds",
                      doc["bounds"]["half_amplitude"]["pass"] is True
                      and doc["bounds"]["sqrt_delta"]["pass"] is True)
        ex1 = prop_bahh_system(lacunary_theta(3), 1)
        rep.check("exact.l1_identity_j1",
                  l1_norm(ex1.mu_reference - ex1.mu_orbit) == Fraction(1, 64))

    return run


def cli_roundtrip(seed: int, out_dir: str):
    """`invariant` writes a measure, `norm` reads it back."""
    from skewstab.cli import main

    config = "configs/doubling_rotation.json"
    # a fresh name per repetition, removed after it: a file rewritten in
    # place is written out to disk on every close (ext4 auto_da_alloc)
    out = os.path.join(out_dir, f"inv-{os.getpid()}.json")

    def run(rep: Rep) -> None:
        rep.start()
        rc1, _ = _cli(main, ["invariant", "--config", config,
                             "--N", str(ROUNDTRIP_N), "--out", out,
                             "--seed", str(seed)])
        rep.lap("roundtrip.write_s")
        rc2, text = _cli(main, ["norm", "--config", config, "--measure", out])
        rep.stop("roundtrip.read_s")
        rep.check("roundtrip.invariant_exit_0", rc1 == 0)
        rep.check("roundtrip.norm_exit_0", rc2 == 0)
        if rc1 == 0:
            with open(out + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            rep.check("roundtrip.meta_converged",
                      meta["results"]["converged"] is True)
            digest = hashlib.sha256()
            for path in (out, out + ".meta.json"):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            rep.digest = digest.hexdigest()
            rep.artifact = out
        if rc2 == 0:
            doc = json.loads(text)
            rep.check("roundtrip.l1_is_one", abs(doc["l1"] - 1.0) <= 1e-9)
            rep.check("roundtrip.var_p_zero", doc["var_p"] == 0)

    return run


WORKLOADS = {
    "pipeline": pipeline,
    "exact": exact,
    "cli-roundtrip": cli_roundtrip,
}


def _layers(tracer, rep: Rep) -> dict[str, float]:
    layers = tracer.summary()
    layers["measures.w1_norm.lp_simplex_calls"] = layers.get(
        "measures.solve_simplex.calls", 0)
    layers["measures.w1_norm.lp_scipy_calls"] = layers.get(
        "scipy.optimize.linprog.calls", 0)
    layers["dynamics.invariant_measure.steps"] = tracer.steps
    layers["configio.write_json.bytes"] = tracer.bytes_written
    results = list(rep.results)
    if not results and rep.artifact is not None:
        from skewstab.configio import load_measure, read_json
        results = [load_measure(read_json(rep.artifact))]
    distinct = [d for res in results for d in res.fiber_ids()[1]]
    layers["measures.final.distinct_fibers"] = len(distinct)
    layers["measures.final.atoms"] = sum(len(f) for f in distinct)
    return layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    run = WORKLOADS[args.workload](args.seed, args.out_dir)
    if args.setup_only:
        print(json.dumps({"setup_s": (time.time_ns() - args.spawn_ns) / 1e9}))
        return 0

    rep = Rep(tracer)
    run(rep)
    doc = {
        "setup_s": (rep.setup_end_ns - args.spawn_ns) / 1e9,
        "solve_s": rep.solve_s,
        "stages": rep.stages,
        "counts": rep.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "checks": rep.checks,
        "digest": rep.digest,
    }
    if tracer is not None:
        doc["layers"] = _layers(tracer, rep)
        tracer.dump(os.path.join(args.out_dir, "spans.jsonl"))
    if rep.artifact is not None:
        os.remove(rep.artifact)
        os.remove(rep.artifact + ".meta.json")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
