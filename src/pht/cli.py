"""Command line interface.

Matrices travel as JSON documents ``{"dim": D, "entries": [[[re, im], ...], ...]}``
and state vectors as ``{"dim": D, "entries": [[re, im], ...]}``.  Reports are
JSON on stdout, byte for byte what ``json.dumps(report, indent=2)`` prints
followed by a newline: each float is its ``float.__repr__``, the shortest
string that reads back as the same double, so ``0.1`` prints as ``0.1``.  The
output bytes are the contract.  ``evolve`` emits CSV.  Exit codes: 0 success,
2 malformed input (non-finite flags, negative tolerances and entries too
large for a double included), 3 any other failure raised by the package.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .antilinear import (
    PT_RESIDUAL_TOL,
    AntilinearOperator,
    TimeReversalParams,
    check_exactness,
    unitary_sqrt_of_tau,
)
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    PHTError,
)
from .evolution import EvolutionSpec, norm_trajectory
from .families import (
    GeneralFamilyParams,
    SymmetricFamilyParams,
    _general_t_system,
    general_hamiltonian,
    reduce_general_to_symmetric,
    symmetric_hamiltonian,
    symmetric_operators,
)
from .linalg import (
    REALITY_RTOL,
    SpectrumClass,
    biorthonormalize,
    eigendecompose,
)
from .metric import (
    InnerProductKind,
    _positive_metric,
    build_charge_conjugation,
    build_eta_plus,
    build_generalized_parity,
    hermitize,
)

# Environment variable overriding the default reality tolerance.
RTOL_ENV_VAR = "PHT_RTOL"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SYMMETRY = 3


class CliInputError(Exception):
    """Malformed command input (bad JSON, wrong shapes, non-finite values)."""


def _entry_pair(value) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise CliInputError(f"expected an [re, im] pair, got {value!r}")
    try:
        z = complex(value[0], value[1])
    except OverflowError as exc:
        raise CliInputError(f"entry {value!r} overflows double precision") from exc
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise CliInputError("non-finite entry in document")
    return z


def _document_entries(obj, name: str, items: str) -> list:
    """Check a ``{"dim": D, "entries": [...]}`` header; return the ``D`` entries."""
    if not isinstance(obj, dict):
        raise CliInputError(f"{name} document must be a JSON object")
    dim = obj.get("dim")
    entries = obj.get("entries")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise CliInputError(f"invalid dim: {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim:
        raise CliInputError(f"entries must be a list of {dim} {items}")
    return entries


def _float_entries(entries: list, shape: tuple) -> np.ndarray | None:
    """``entries`` as one float array of ``shape``, or None if any entry is malformed.

    One vectorized pass checks the nesting, the entry types (numbers but not
    booleans), the conversion to double and finiteness.  None sends the caller
    to its per-entry walk, which names the first bad entry.
    """
    try:
        values = np.array(entries, dtype=object)
    except (ValueError, TypeError):
        return None
    if values.shape != shape:
        return None
    types = set(map(type, values.flat))
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types):
        return None
    try:
        values = values.astype(float)
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def parse_matrix_document(obj) -> np.ndarray:
    """Parse ``{"dim": D, "entries": [[[re, im], ...] x D] x D}`` as ``json.load`` returns it."""
    entries = _document_entries(obj, "matrix", "rows")
    dim = len(entries)
    values = _float_entries(entries, (dim, dim, 2))
    if values is None:
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != dim:
                raise CliInputError(f"row {i} must hold {dim} [re, im] pairs")
            for pair in row:
                _entry_pair(pair)
        raise AssertionError("the per-entry walk accepted what the array checks refused")
    return values.view(complex)[..., 0]


def parse_state_document(obj) -> np.ndarray:
    """Parse ``{"dim": D, "entries": [[re, im] x D]}`` as ``json.load`` returns it."""
    entries = _document_entries(obj, "state", "pairs")
    return np.array([_entry_pair(pair) for pair in entries], dtype=complex)


class _MatrixDocument(dict):
    """The dict :func:`matrix_document` returns.

    Its type, not its key set (a state document has the same keys), tells
    :func:`_emit` that ``entries`` is a ``D x D`` grid of float pairs.
    """


# What a non-finite result means for reports built from finite input.
_NOT_FINITE = "result is not finite: the input overflows double precision"


def matrix_document(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if not np.isfinite(m).all():
        raise CliInputError(_NOT_FINITE)
    return _MatrixDocument(dim=m.shape[0], entries=np.stack([m.real, m.imag], -1).tolist())


def state_document(state: np.ndarray) -> dict:
    v = np.asarray(state, dtype=complex)
    return {"dim": v.shape[0], "entries": np.stack([v.real, v.imag], -1).tolist()}


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are malformed input."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for tolerance flags: a finite number >= 0."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer past the interpreter's digit limit
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    return parse_matrix_document(_load_document(path))


# Stands in for each matrix's entries while ``json.dumps`` indents the rest of
# a report; no report string holds a NUL.
_ENTRIES_PLACEHOLDER = "\x00entries\x00"
_ENTRIES_TOKEN = json.dumps(_ENTRIES_PLACEHOLDER)


def _skeleton(obj, level: int, matrices: list):
    """``obj`` with each matrix document's entries swapped for the placeholder.

    ``level`` is the nesting depth of ``obj``'s keys.  Appends one
    ``(entries, level)`` per matrix document to ``matrices``, in output order.
    """
    if isinstance(obj, _MatrixDocument):
        matrices.append((obj["entries"], level))
        return {**obj, "entries": _ENTRIES_PLACEHOLDER}
    if isinstance(obj, dict):
        return {key: _skeleton(value, level + 1, matrices) for key, value in obj.items()}
    return obj


def _indented_entries(entries: list, level: int) -> str:
    """``json.dumps(entries, indent=2)`` for matrix entries under keys at depth ``level``.

    ``json`` runs its C encoder only without ``indent``.  That encoder prints
    each float with ``float.__repr__``, as the indenting one does, and here
    it puts between all items the separator that indented output puts between
    the two numbers of a pair.  Re-indenting the pair and row boundaries then
    gives the indented text byte for byte: a float's repr holds no bracket,
    comma or whitespace.
    """
    row, pair, number, close = ("\n" + " " * (2 * (level + k)) for k in (1, 2, 3, 0))
    sep = "," + number
    text = json.dumps(entries, separators=(sep, ":"))
    text = text.replace("]]" + sep + "[[", f"{pair}]{row}],{row}[{pair}[{number}")
    text = text.replace("]" + sep + "[", f"{pair}],{pair}[{number}")
    return f"[{row}[{pair}[{number}{text[3:-3]}{pair}]{row}]{close}]"


def _emit(report: dict) -> None:
    """Write ``json.dumps(report, indent=2)`` and a newline to stdout.

    The bytes are those of the one call, but each matrix document's entries
    are rendered by :func:`_indented_entries` and written as a piece of their
    own, so the report is never one string.  stdout is strict JSON: a NaN or
    infinite scalar raises :class:`CliInputError` before any byte is written
    (:func:`matrix_document` has already checked the matrix entries).
    """
    matrices: list = []
    try:
        skeleton = json.dumps(_skeleton(report, 1, matrices), indent=2, allow_nan=False)
    except ValueError as exc:
        raise CliInputError(_NOT_FINITE) from exc
    pieces = skeleton.split(_ENTRIES_TOKEN)
    out = sys.stdout
    for piece, (entries, level) in zip(pieces, matrices):
        out.write(piece)
        out.write(_indented_entries(entries, level))
    out.write(pieces[-1] + "\n")


def _reality_rtol(args) -> float:
    if args.rtol is not None:
        return args.rtol
    env = os.environ.get(RTOL_ENV_VAR)
    if env is not None:
        try:
            return _tolerance(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise CliInputError(f"{RTOL_ENV_VAR} must be a finite float >= 0, got {env!r}") from exc
    return REALITY_RTOL


def _canonical_system(spectral):
    """Biorthonormalize with the transpose convention when it applies.

    Complex symmetric input with nondegenerate real spectrum gets the
    transpose normalization, under which the emitted metric bundle matches
    the closed-form two-level operators; anything else uses the default
    unit-norm convention.  Both attempts share the decomposition
    ``spectral`` and its reality tolerance.
    """
    try:
        return biorthonormalize(spectral, normalization="transpose")
    except ValueError:
        # not complex symmetric, degenerate or self-orthogonal
        return biorthonormalize(spectral, normalization="unit")


def _exactness(args, spectral):
    """:func:`check_exactness` of the record under ``--parity``, ``--tau`` and ``--atol``."""
    dim = spectral.matrix.shape[0]
    parity = _load_matrix(args.parity) if args.parity else np.eye(dim)
    tau = _load_matrix(args.tau) if args.tau else np.eye(dim)
    return check_exactness(spectral, parity, AntilinearOperator(tau), atol=args.atol)


def cmd_analyze(args) -> int:
    h = _load_matrix(args.input)
    spectral = eigendecompose(h, reality_rtol=_reality_rtol(args))
    exactness = _exactness(args, spectral)
    # JSON has no infinity: an exactly defective input reports a null condition.
    cond = spectral.eigvec_condition

    report = {
        "dim": h.shape[0],
        "classification": spectral.classification.value,
        "eigenvalues": [[w.real, w.imag] for w in spectral.eigenvalues],
        "eigvec_condition": cond if np.isfinite(cond) else None,
        "pt_residual": exactness.pt_residual,
        "pt_symmetric": exactness.failure_reason != "not_pt_symmetric",
        "exact": exactness.exact,
        "failure_reason": exactness.failure_reason,
        "metric_available": spectral.classification is SpectrumClass.REAL_DIAGONALIZABLE,
    }
    _emit(report)
    if args.require_exact and not exactness.exact:
        return EXIT_SYMMETRY
    return EXIT_OK


def cmd_metric(args) -> int:
    h = _load_matrix(args.input)
    system = _canonical_system(eigendecompose(h, _reality_rtol(args)))
    metric = build_eta_plus(system)
    _emit(
        {
            "dim": h.shape[0],
            "eta_plus": matrix_document(metric.eta_plus),
            "parity": matrix_document(build_generalized_parity(system)),
            "charge": matrix_document(build_charge_conjugation(system)),
            "rho_plus": matrix_document(metric.rho_plus),
        }
    )
    return EXIT_OK


def cmd_hermitize(args) -> int:
    h = _load_matrix(args.input)
    system = _canonical_system(eigendecompose(h, _reality_rtol(args)))
    metric = build_eta_plus(system)
    _emit(matrix_document(hermitize(h, metric)))
    return EXIT_OK


def _family_bundle(args):
    """The family's parameters and its named matrices in the requested frame."""
    if args.kind == "symmetric":
        params = SymmetricFamilyParams(args.r, args.s, args.t, args.phi)
        matrices = {"hamiltonian": symmetric_hamiltonian(params)}
    else:
        params = GeneralFamilyParams(args.r, args.s, args.t, args.u, args.phi)
        matrices = {"hamiltonian": general_hamiltonian(params)}
    # Unitaries carrying the closed-form symmetric-family bundle into the requested frame.
    frames: tuple = ()
    extra = {}
    if args.kind == "general-t":
        u_mat = unitary_sqrt_of_tau(TimeReversalParams(args.gamma, args.xi, args.zeta))
        system = _general_t_system(params, u_mat)
        matrices["hamiltonian"] = system.hamiltonian
        frames = (u_mat,)
        extra = {"u": u_mat, "tau": system.time_reversal.tau, "pt_parity": system.parity}

    if params.is_exact:
        symmetric = params
        if args.kind != "symmetric":
            reduction = reduce_general_to_symmetric(params)
            symmetric, frames = reduction.params, (reduction.u1, *frames)
        ops = symmetric_operators(symmetric)
        for field in fields(ops):
            m = getattr(ops, field.name)
            for u in frames:
                m = u @ m @ u.conj().T
            matrices[field.name] = m
    matrices.update(extra)
    return params, matrices


def cmd_family(args) -> int:
    # Flags near the double-precision limit overflow inside the closed forms;
    # matrix_document reports that as one error, without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        params, matrices = _family_bundle(args)
    report = {"kind": args.kind, "broken": not params.is_exact}
    report.update((key, matrix_document(m)) for key, m in matrices.items())

    if report["broken"] and not args.allow_broken:
        sys.stderr.write(
            "family parameters lie in the broken regime; pass --allow-broken "
            "to emit the Hamiltonian anyway\n"
        )
        return EXIT_SYMMETRY
    _emit(report)
    return EXIT_OK


def cmd_evolve(args) -> int:
    h = _load_matrix(args.input)
    psi0 = parse_state_document(_load_document(args.state))
    # The propagator reads no reality verdict, so the Euclidean norm consults
    # no tolerance; the metric norm's one decomposition, made with --rtol,
    # serves the metric and the propagation.
    hamiltonian = eigendecompose(h, _reality_rtol(args)) if args.norm == "metric" else h
    try:
        spec = EvolutionSpec(hamiltonian, psi0, t0=args.t0, t1=args.t1, steps=args.steps)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    kind = "euclidean"
    if args.norm == "metric":
        # Use the same canonical normalization as `metric`/`hermitize` so the
        # conserved value matches the closed-form bundle for family inputs.
        kind = InnerProductKind.metric_eta(_positive_metric(_canonical_system, hamiltonian))
    trajectory = norm_trajectory(spec, kind)
    out = sys.stdout
    out.write("t,norm\n")
    for t, n in zip(trajectory.times, trajectory.norms):
        out.write(f"{t:.15g},{n:.15g}\n")
    return EXIT_OK


def cmd_check_pt(args) -> int:
    h = _load_matrix(args.input)
    exactness = _exactness(args, eigendecompose(h, _reality_rtol(args)))
    pt_symmetric = exactness.failure_reason != "not_pt_symmetric"
    report = {
        "dim": h.shape[0],
        "pt_residual": exactness.pt_residual,
        "pt_symmetric": pt_symmetric,
        # exactness is reported only for a PT-symmetric pair
        "exact": exactness.exact if pt_symmetric else None,
        "failure_reason": exactness.failure_reason if pt_symmetric else None,
    }
    _emit(report)
    if args.require_exact and not report["exact"]:
        return EXIT_SYMMETRY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pht",
        description="Pseudo-Hermitian toolkit: spectra, metrics, hermitization, "
        "two-level families, and norm evolution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    rtol = argparse.ArgumentParser(add_help=False)
    rtol.add_argument(
        "--rtol",
        type=_tolerance,
        default=None,
        help=f"reality tolerance for spectrum classification "
        f"(default: ${RTOL_ENV_VAR} or {REALITY_RTOL})",
    )
    pt = argparse.ArgumentParser(add_help=False)
    pt.add_argument(
        "--atol",
        type=_tolerance,
        default=PT_RESIDUAL_TOL,
        help=f"residual tolerance for symmetry checks (default {PT_RESIDUAL_TOL})",
    )
    pt.add_argument("--parity", help="parity matrix document (default: identity)")
    pt.add_argument("--tau", help="time-reversal linear part (default: identity)")
    pt.add_argument("--require-exact", action="store_true", help="exit 3 unless the symmetry is exact")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[rtol, pt], help="classify a Hamiltonian and its symmetry")
    p.add_argument("input", help="matrix document (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("metric", parents=[rtol], help="emit eta_plus, parity, charge, rho_plus")
    p.add_argument("input", help="matrix document (JSON)")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("hermitize", parents=[rtol], help="emit the Hermitian partner rho H rho^-1")
    p.add_argument("input", help="matrix document (JSON)")
    p.set_defaults(func=cmd_hermitize)

    p = sub.add_parser("family", help="closed-form two-level family bundles")
    p.add_argument("kind", choices=["symmetric", "general", "general-t"])
    p.add_argument("--r", type=_finite_float, default=0.0)
    p.add_argument("--s", type=_finite_float, default=0.0)
    p.add_argument("--t", type=_finite_float, default=0.0)
    p.add_argument("--u", type=_finite_float, default=0.0, help="antisymmetric coupling (general kinds)")
    p.add_argument("--phi", type=_finite_float, default=0.0)
    p.add_argument("--gamma", type=_finite_float, default=0.0, help="time-reversal phase (general-t)")
    p.add_argument("--xi", type=_finite_float, default=0.0, help="time-reversal angle (general-t)")
    p.add_argument("--zeta", type=_finite_float, default=0.0, help="time-reversal axis angle (general-t)")
    p.add_argument(
        "--allow-broken",
        action="store_true",
        help="emit the Hamiltonian alone instead of failing for broken parameters",
    )
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("evolve", parents=[rtol], help="CSV norm trajectory of exp(-iHt) psi0")
    p.add_argument("input", help="matrix document (JSON)")
    p.add_argument("--state", required=True, help="initial state document (JSON)")
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--t1", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--norm", choices=["euclidean", "metric"], default="euclidean")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("check-pt", parents=[rtol, pt], help="PT-symmetry residual and exactness")
    p.add_argument("input", help="matrix document (JSON)")
    p.set_defaults(func=cmd_check_pt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, NonFiniteError, DimensionMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except PHTError as exc:
        sys.stderr.write(f"error: {exc.__class__.__name__}: {exc}\n")
        return EXIT_SYMMETRY

