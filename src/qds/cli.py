"""Command-line interface.

Subcommands: ``check``, ``classify``, ``resolve``, ``evolve``, ``picard``,
``ergodic``.  Models and operators are JSON files in the format described
in :mod:`qds.serialize`; reports go to stdout or ``--output`` as JSON
(the machine contract) or text.  Exit codes: 0 success or help, 1 a false
verdict under ``--strict``, 2 a usage, structural or numerical error.
The seed comes from ``--seed``, then the ``QDS_SEED`` environment variable.

One table lists the shared options and each command's operands and own
options; :func:`_parse` reads ``argv`` by it in one loop, and the help is
rendered from it.  Each ``cmd_*`` function takes ``(model, args, tol,
seed)`` and returns ``(payload, residuals, verdict)``; it neither times
nor reports.  :func:`main` alone reads the tolerances and the seed, loads
the model, times the command, builds the one
:class:`~qds.serialize.Report` and picks the exit code.
"""

import os
import sys
import time
from types import SimpleNamespace

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
    """The label and the certificate's fields that are set, in order."""
    cert = {k: v for k, v in vars(cls.certificate).items()
            if v is not None and (k != "witnesses" or v)}
    if "witnesses" in cert:
        cert["witnesses"] = [{"operator": op, "residual": r}
                             for op, r in cert["witnesses"]]
    return {"label": cls.label, "certificate": cert}


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


# option: (type or choices, default, help), bool a flag, default ... required;
# command: (runner, help, operands after the model, its own options)
_SHARED = {
    "--tol": (float, Tolerances().alg_tol, "algebraic residual tolerance"),
    "--rank-tol": (float, Tolerances().rank_tol, "relative rank cutoff"),
    "--conv-tol": (float, Tolerances().conv_tol, "convergence tolerance"),
    "--seed": (int, None, "search seed (default: QDS_SEED, then a constant)"),
    "--output": (str, None, "write the report to this path, not stdout"),
    "--format": (("json", "text"), "json", "report format: json or text"),
    "--strict": (bool, False, "exit 1 when the command verdict is false"),
}
_COMMANDS = {
    "check": (cmd_check, "validate a model file", (), {}),
    "classify": (cmd_classify, "classify a projection", ("projection",), {}),
    "resolve": (cmd_resolve, "recurrent/metastable resolution of the "
                             "identity", (), {}),
    "evolve": (cmd_evolve, "evolve an operator or state", ("operator",), {
        "--t": (float, None, "continuous time"),
        "--n": (int, None, "discrete steps"),
        "--picture": (("heisenberg", "schrodinger"), "heisenberg",
                      "heisenberg (observables) or schrodinger (states)")}),
    "picard": (cmd_picard, "iterated integral-equation evolution",
               ("operator",), {"--t": (float, ..., "continuous time"),
                               "--max-n": (int, 60, "most Picard iterates"),
                               "--steps": (int, 256, "quadrature steps")}),
    "ergodic": (cmd_ergodic, "invariant states and strong ergodicity", (),
                {}),
}


class _Stop(Exception):
    """``(command or None, message)``: a usage error, or help if None."""


def _usage(name):
    operands = " ".join(("model", *_COMMANDS[name][2])) if name else "..."
    return f"usage: qds {name or '<command>'} [options] {operands}"


def _help(name):
    """The commands, or one command's options, as listed in the table."""
    if name is None:
        head = "commands:"
        rows = [(c, spec[1]) for c, spec in _COMMANDS.items()]
    else:
        head = f"{_COMMANDS[name][1]}\n\noptions:"
        rows = [("-h, --help", "show this help and exit")] + [
            (o + ("" if kind is bool else " " + o[2:].upper()),
             text + " (required)" * (default is ...))
            for o, (kind, default, text) in {**_SHARED,
                                             **_COMMANDS[name][3]}.items()]
    return "\n".join((_usage(name), "", head,
                      *(f"  {a:<22}{b}" for a, b in rows)))


def _parse(argv):
    """The namespace :func:`main` and the ``cmd_*`` functions read: the
    command, its operands, and options given as ``--opt value`` or
    ``--opt=value``, by exact name or unique prefix, among the operands."""
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        raise _Stop(None, None if name in ("-h", "--help") else
                    f"invalid command {name!r}" if name is not None
                    else "a command is required")
    run, _, operands, own = _COMMANDS[name]
    table = {**_SHARED, **own}
    known = ("--help", *table)
    opts = {o: spec[1] for o, spec in table.items()}
    found, items = [], iter(argv[1:])
    for item in items:
        if not item.startswith("-"):
            found.append(item)
            continue
        key, eq, value = item.partition("=")
        # an exact match first, then a unique prefix, as argparse matches
        hits = [o for o in known if o == key] or [
            o for o in known if o.startswith(key) and key.startswith("--")]
        if item == "-h" or hits == ["--help"]:
            raise _Stop(name, None)
        if len(hits) != 1:
            raise _Stop(name, f"ambiguous option {key}: {', '.join(hits)}"
                        if hits else f"unrecognized option {key}")
        opt, kind = hits[0], table[hits[0]][0]
        if kind is bool and eq:
            raise _Stop(name, f"{opt} takes no value")
        if kind is not bool and not eq:
            value = next(items, "--")
            if value.startswith("--"):
                raise _Stop(name, f"{opt} expects a value")
        try:
            opts[opt] = (True if kind is bool else kind[kind.index(value)]
                         if isinstance(kind, tuple) else kind(value))
        except ValueError:
            what = getattr(kind, "__name__", "choice")
            raise _Stop(name, f"{opt}: invalid {what} {value!r}") from None
    names = ("model", *operands)
    missing = [*names[len(found):], *(o for o, v in opts.items() if v is ...)]
    if missing or len(found) > len(names):
        raise _Stop(name, f"missing {', '.join(missing)}" if missing
                    else f"unexpected operand {found[len(names)]!r}")
    return SimpleNamespace(command=name, run=run, **dict(zip(names, found)),
                           **{o[2:].replace("-", "_"): v
                              for o, v in opts.items()})


def _emit(report, args):
    text = (report_to_json(report) if args.format == "json"
            else report_to_text(report))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise StructuralError(f"{args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        name, message = stop.args
        if message is None:
            print(_help(name))
            return 0
        print(f"{_usage(name)}\nerror: {message}", file=sys.stderr)
        return 2
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
        _emit(report, args)
    except (StructuralError, ValidationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrossCheckError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    return 1 if args.strict and not verdict else 0


if __name__ == "__main__":
    sys.exit(main())
