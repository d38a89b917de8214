"""Command-line interface.

Subcommands: ``check``, ``classify``, ``resolve``, ``evolve``, ``picard``,
``ergodic``.  Models and operators are JSON files in the format described
in :mod:`qds.serialize`; reports go to stdout or ``--output`` as JSON
(the machine contract) or text.  Exit codes: 0 success, 1 a false verdict
under ``--strict``, 2 structural or numerical errors.  The default seed
comes from ``--seed``, then the ``QDS_SEED`` environment variable.
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
from .projections import Projection, is_harmonic, is_subharmonic
from .resolution import classify_projection, resolve
from .serialize import (
    Report, load_matrix, load_model, report_to_json, report_to_text,
)
from .spectral import check_time, evolve_heisenberg, evolve_predual

__all__ = ["main", "cmd_check", "cmd_classify", "cmd_resolve", "cmd_evolve",
           "cmd_picard", "cmd_ergodic"]


def _tolerances(args):
    return Tolerances(rank_tol=args.rank_tol, alg_tol=args.tol,
                      conv_tol=args.conv_tol)


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


def _report(model, command, seed, tol, payload, residuals, started):
    return Report(model_hash=model.content_hash(), command=command, seed=seed,
                  tolerances=tol, payload=payload, residuals=residuals,
                  timing_ms=(time.perf_counter() - started) * 1e3)


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


def cmd_check(model_path, args):
    started = time.perf_counter()
    tol = _tolerances(args)
    model = load_model(model_path)
    report = validate_model(model, tol)
    payload = {
        "ok": report.ok,
        "invariants": [{"name": it.name, "residual": it.residual, "ok": it.ok}
                       for it in report.items],
    }
    residuals = {it.name: it.residual for it in report.items}
    rep = _report(model, "check", _seed(args), tol, payload, residuals, started)
    return rep, (0 if report.ok or not args.strict else 1)


def cmd_classify(model_path, projection_path, args):
    started = time.perf_counter()
    tol = _tolerances(args)
    seed = _seed(args)
    model = load_model(model_path)
    p = Projection.from_matrix(load_matrix(projection_path), tol)

    sub = is_subharmonic(model, p, tol)
    harmonic = is_harmonic(model, p, tol)
    cls = classify_projection(model, p, tol, seed=seed)
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
    rep = _report(model, "classify", seed, tol, payload, residuals, started)
    return rep, (0 if sub.verdict or not args.strict else 1)


def cmd_resolve(model_path, args):
    started = time.perf_counter()
    tol = _tolerances(args)
    seed = _seed(args)
    model = load_model(model_path)
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
    rep = _report(model, "resolve", seed, tol, payload, residuals, started)
    return rep, 0


def cmd_evolve(model_path, operator_path, args):
    started = time.perf_counter()
    tol = _tolerances(args)
    model = load_model(model_path)
    x = load_matrix(operator_path)
    if args.t is not None:
        check_time(args.t)
    if args.n is not None and args.n < 0:
        raise StructuralError("negative time")
    kwargs = {}
    if args.t is not None:
        kwargs["t"] = args.t
    if args.n is not None:
        kwargs["n"] = args.n
    if args.picture == "schrodinger":
        result = evolve_predual(model, x, tol=tol, **kwargs)
    else:
        result = evolve_heisenberg(model, x, tol=tol, **kwargs)
    payload = {"picture": args.picture, "result": result}
    if args.t is not None:
        payload["t"] = args.t
    if args.n is not None:
        payload["n"] = args.n
    rep = _report(model, "evolve", _seed(args), tol, payload, {}, started)
    return rep, 0


def cmd_picard(model_path, operator_path, args):
    started = time.perf_counter()
    tol = _tolerances(args)
    model = load_model(model_path)
    x = load_matrix(operator_path)
    if args.t is None:
        raise StructuralError("picard requires --t")
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
    rep = _report(model, "picard", _seed(args), tol, payload, residuals, started)
    return rep, 0


def cmd_ergodic(model_path, args):
    started = time.perf_counter()
    tol = _tolerances(args)
    seed = _seed(args)
    model = load_model(model_path)
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
    residuals = {"gap": erg.gap}
    rep = _report(model, "ergodic", seed, tol, payload, residuals, started)
    return rep, (0 if erg.holds or not args.strict else 1)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qds",
        description="Structure analysis of finite-dimensional quantum "
                    "dynamical semigroups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=Tolerances().alg_tol,
                       help="algebraic residual tolerance")
        p.add_argument("--rank-tol", type=float, default=Tolerances().rank_tol,
                       help="relative rank cutoff")
        p.add_argument("--conv-tol", type=float, default=Tolerances().conv_tol,
                       help="iteration convergence tolerance")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized searches (default: QDS_SEED "
                            "environment variable, then a fixed constant)")
        p.add_argument("--output", default=None,
                       help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when the command verdict is false")

    p = sub.add_parser("check", help="validate a model file")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("classify", help="classify a projection")
    p.add_argument("model")
    p.add_argument("projection")
    common(p)

    p = sub.add_parser("resolve",
                       help="recurrent/metastable resolution of the identity")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("evolve", help="evolve an operator or state")
    p.add_argument("model")
    p.add_argument("operator")
    p.add_argument("--t", type=float, default=None, help="continuous time")
    p.add_argument("--n", type=int, default=None, help="discrete steps")
    p.add_argument("--picture", choices=("heisenberg", "schrodinger"),
                   default="heisenberg")
    common(p)

    p = sub.add_parser("picard", help="iterated integral-equation evolution")
    p.add_argument("model")
    p.add_argument("operator")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--max-n", type=int, default=60)
    p.add_argument("--steps", type=int, default=256)
    common(p)

    p = sub.add_parser("ergodic",
                       help="invariant states and strong ergodicity")
    p.add_argument("model")
    common(p)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            report, code = cmd_check(args.model, args)
        elif args.command == "classify":
            report, code = cmd_classify(args.model, args.projection, args)
        elif args.command == "resolve":
            report, code = cmd_resolve(args.model, args)
        elif args.command == "evolve":
            report, code = cmd_evolve(args.model, args.operator, args)
        elif args.command == "picard":
            report, code = cmd_picard(args.model, args.operator, args)
        else:
            report, code = cmd_ergodic(args.model, args)
    except (StructuralError, ValidationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrossCheckError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
