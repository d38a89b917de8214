"""Command-line interface.

Subcommands: ``check``, ``classify``, ``resolve``, ``evolve``, ``picard``,
``ergodic``.  Models and operators are JSON files in the format described
in :mod:`qds.serialize`; reports go to stdout or ``--output`` as JSON
(the machine contract) or text.  Exit codes: 0 success, 1 a false verdict
under ``--strict``, 2 structural or numerical errors.  The default seed
comes from ``--seed``, then the ``QDS_SEED`` environment variable.

Each ``cmd_*`` function takes ``(model, args, tol, seed)`` and returns
``(payload, residuals, verdict)``; it neither times nor reports.
:func:`main` alone reads the tolerances and the seed, loads the model,
times the command, builds the one :class:`~qds.serialize.Report` and
picks the exit code.  The seven shared flags come from one parent
parser, so a subcommand's ``--help`` lists its own options (``evolve``
and ``picard``) after them.
"""

import argparse
import os
import sys
import time

import numpy as np

from .errors import (
    ConvergenceError, CrossCheckError, StructuralError, ValidationFailure,
)
from .ergodicity import (
    ergodicity_reduction_equivalence, invariant_states, strong_ergodicity_check,
)
from .models import DEFAULT_SEED, Tolerances, validate_model
from .picard import picard_limit
from .projections import Projection, is_harmonic
from .resolution import classify_projection, resolve
from .serialize import (
    Report, load_matrix, load_model, report_to_json, report_to_text,
)
from .spectral import check_time, evolve_heisenberg, evolve_predual

__all__ = ["main", "cmd_check", "cmd_classify", "cmd_resolve", "cmd_evolve",
           "cmd_picard", "cmd_ergodic"]


def _seed(args):
    seed = args.seed
    if seed is None:
        seed = os.environ.get("QDS_SEED", DEFAULT_SEED)
    try:
        if int(seed) >= 0:
            return int(seed)
    except ValueError:
        pass
    raise StructuralError(
        f"seed (--seed, then QDS_SEED) must be a non-negative integer, "
        f"got {seed!r}")


def _classification_payload(cls):
    cert = cls.certificate
    out = {"label": cls.label, "certificate": {}}
    c = out["certificate"]
    if cert.subharmonic_residual is not None:
        c["subharmonic_residual"] = cert.subharmonic_residual
    if cert.witnesses:
        c["witnesses"] = [{"operator": w[0], "residual": w[1]}
                          for w in cert.witnesses]
    if cert.invariant_state is not None:
        c["invariant_state"] = np.asarray(cert.invariant_state)
    if cert.closure_dim is not None:
        c["closure_dim"] = cert.closure_dim
    if cert.min_eig_y is not None:
        c["min_eig_y"] = cert.min_eig_y
    if cert.complement_transient is not None:
        c["complement_transient"] = cert.complement_transient
        c["complement_metastable"] = cert.complement_metastable
    return out


def cmd_check(model, args, tol, seed):
    report = validate_model(model, tol)
    payload = {
        "ok": report.ok,
        "invariants": [{"name": it.name, "residual": it.residual, "ok": it.ok}
                       for it in report.items],
    }
    residuals = {it.name: it.residual for it in report.items}
    return payload, residuals, report.ok


def cmd_classify(model, args, tol, seed):
    p = Projection.from_matrix(load_matrix(args.projection, model.dim), tol)
    cls = classify_projection(model, p, tol, seed=seed)
    sub = cls.subharmonic
    harmonic = is_harmonic(model, p, tol)
    payload = {
        "subharmonic": {
            "verdict": sub.verdict,
            "residual": sub.residual,
            "witnesses": [{"operator": w[0], "residual": w[1]}
                          for w in sub.witnesses],
            "order_min_eig": sub.order_min_eig,
        },
        "harmonic": harmonic,
        "classification": _classification_payload(cls),
    }
    residuals = {"subharmonic_residual": sub.residual,
                 "order_min_eig": sub.order_min_eig}
    if sub.verdict:
        cert = cls.certificate
        payload["complement"] = {
            "transient": cert.complement_transient,
            "metastable": cert.complement_metastable,
            "min_eig_y": cert.min_eig_y, "closure_dim": cert.closure_dim,
        }
        residuals["min_eig_y"] = cert.min_eig_y
    else:
        payload["complement"] = None
    return payload, residuals, sub.verdict


def cmd_resolve(model, args, tol, seed):
    res = resolve(model, seed=seed, tol=tol)
    payload = {
        "recurrent": [
            {"matrix": np.asarray(p.matrix), "rank": p.rank,
             "classification": _classification_payload(cls)}
            for p, cls in zip(res.recurrent_projections, res.certificates)
        ],
        "remainder": {"matrix": np.asarray(res.metastable_remainder.matrix),
                      "rank": res.metastable_remainder.rank,
                      "classification":
                          _classification_payload(res.remainder_certificate)},
        "y_total": np.asarray(res.y_total),
        "seed": res.seed,
    }
    residuals = {
        "y_total_min_eig": res.remainder_certificate.certificate.min_eig_y,
    }
    if res.classical_comparison is not None:
        payload["classical_comparison"] = res.classical_comparison
    return payload, residuals, True


def cmd_evolve(model, args, tol, seed):
    x = load_matrix(args.operator, model.dim)
    times = {k: v for k, v in (("t", args.t), ("n", args.n)) if v is not None}
    for value in times.values():
        check_time(value)
    evolve = (evolve_predual if args.picture == "schrodinger"
              else evolve_heisenberg)
    result = evolve(model, x, tol=tol, **times)
    return {"picture": args.picture, "result": result, **times}, {}, True


def cmd_picard(model, args, tol, seed):
    x = load_matrix(args.operator, model.dim)
    result = picard_limit(model, x, args.t, tol=tol, max_n=args.max_n,
                          steps=args.steps)
    payload = {
        "value": result.value,
        "n_used": result.n_used,
        "t": args.t,
        "steps": args.steps,
        "trace": [{"n": k, "value": np.asarray(m)}
                  for k, m in enumerate(result.iterates)],
    }
    residuals = {
        "last_gap": result.last_gap,
        "integral_residual": result.integral_residual,
        "exp_mismatch": result.exp_mismatch,
    }
    return payload, residuals, True


def cmd_ergodic(model, args, tol, seed):
    inv = invariant_states(model, tol, seed=seed)
    erg = strong_ergodicity_check(model, tol, seed=seed)
    payload = {
        "fixed_space_dimension": len(inv.basis),
        "invariant_states": [np.asarray(s.matrix) for s in inv.states],
        "strong_ergodicity": {
            "holds": erg.holds,
            "gap": erg.gap,
            "phi0": np.asarray(erg.phi0.matrix) if erg.phi0 is not None else None,
        },
        "reduction_equivalence": [],
    }
    for support in inv.supports:
        eq = ergodicity_reduction_equivalence(model, support, tol, seed=seed,
                                              full=erg)
        payload["reduction_equivalence"].append({
            "support_rank": support.rank,
            "support": np.asarray(support.matrix),
            "full": eq.full, "reduced": eq.reduced,
            "y_is_one": eq.y_is_one, "consistent": eq.consistent,
        })
    return payload, {"gap": erg.gap}, erg.holds


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qds",
        description="Structure analysis of finite-dimensional quantum "
                    "dynamical semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=Tolerances().alg_tol,
                        help="algebraic residual tolerance")
    common.add_argument("--rank-tol", type=float,
                        default=Tolerances().rank_tol,
                        help="relative rank cutoff")
    common.add_argument("--conv-tol", type=float,
                        default=Tolerances().conv_tol,
                        help="iteration convergence tolerance")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized searches (default: QDS_SEED "
                             "environment variable, then a fixed constant)")
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of "
                             "stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--strict", action="store_true",
                        help="exit 1 when the command verdict is false")

    def command(name, run, help, *operands):
        p = sub.add_parser(name, help=help, parents=[common])
        for operand in ("model",) + operands:
            p.add_argument(operand)
        p.set_defaults(run=run)
        return p

    command("check", cmd_check, "validate a model file")
    command("classify", cmd_classify, "classify a projection", "projection")
    command("resolve", cmd_resolve,
            "recurrent/metastable resolution of the identity")
    p = command("evolve", cmd_evolve, "evolve an operator or state",
                "operator")
    p.add_argument("--t", type=float, default=None, help="continuous time")
    p.add_argument("--n", type=int, default=None, help="discrete steps")
    p.add_argument("--picture", choices=("heisenberg", "schrodinger"),
                   default="heisenberg")
    p = command("picard", cmd_picard, "iterated integral-equation evolution",
                "operator")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--max-n", type=int, default=60)
    p.add_argument("--steps", type=int, default=256)
    command("ergodic", cmd_ergodic, "invariant states and strong ergodicity")
    return parser


def _emit(report, args):
    text = (report_to_json(report) if args.format == "json"
            else report_to_text(report))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        tol = Tolerances(rank_tol=args.rank_tol, alg_tol=args.tol,
                         conv_tol=args.conv_tol)
        seed = _seed(args)
        model = load_model(args.model)
        payload, residuals, verdict = args.run(model, args, tol, seed)
        report = Report(model_hash=model.content_hash(), command=args.command,
                        seed=seed, tolerances=tol, payload=payload,
                        residuals=residuals,
                        timing_ms=(time.perf_counter() - started) * 1e3)
    except (StructuralError, ValidationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrossCheckError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 1 if args.strict and not verdict else 0


if __name__ == "__main__":
    sys.exit(main())
