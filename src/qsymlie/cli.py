"""Command-line front end.

Subcommands: decompose, center, spectrum, closure, degeneracy.  Output is
deterministic, with a fixed field order.  JSON is written on one line by the
C encoder (python -m json.tool --indent 2 gives the indented layout);
every payload holds integers, booleans and strings only, so a float added
later must be rounded to 12 decimals where its payload is built.  Exit
codes: 0 success, 1 usage/config error or input too large for memory, 2
unsaturated closure, 3 numerical failure.  Only the integer layer loads at
start-up: decompose, degeneracy and center above d^n = 4096 never import numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reptheory as _rt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSATURATED = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload, lines, args) -> None:
    if args.format == "json":
        # No indent and no json.dump: either one falls back to the pure-Python encoder.
        text = json.dumps(payload) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_at_least(low: int):
    """argparse type of an integer option or argument that must be at least ``low``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return convert


def _add_size(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=_int_at_least(2), required=True, help="local dimension, >= 2")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of sites, >= 1")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def cmd_decompose(args) -> int:
    rows, total, sq = [], 0, 0
    for m, dim, k in _rt.cg_table(args.n, args.d):
        rows.append({"iweight": list(m), "dim": dim, "multiplicity": k})
        total += k * dim
        sq += dim * dim
    cap = _rt.ambient_commutant_dim(args.n, args.d)
    f = _rt.center_dimension(args.n, args.d)
    checks = {
        "sum_mult_dim": total,
        "d_pow_n": args.d**args.n,
        "sum_dim_sq": sq,
        "commutant_dim": cap,
        "distinct": len(rows),
        "center_dim": f,
    }
    ok = total == args.d**args.n and sq == cap and len(rows) == f
    payload = {"d": args.d, "n": args.n, "irreps": rows, "checks": checks, "ok": ok}
    lines = []
    if args.format == "text":  # one line per label, which JSON output would throw away
        lines.append(f"CG decomposition of ({args.d}^n) with n={args.n}")
        lines.append("i-weight  dim  multiplicity")
        for r in rows:
            lines.append(f"{tuple(r['iweight'])!s:>12}  {r['dim']:>4}  {r['multiplicity']:>4}")
        lines.append(f"sum k*dim = {total} = d^n: {'OK' if total == args.d ** args.n else 'FAIL'}")
        lines.append(f"sum dim^2 = {sq} = C(n+d^2-1,d^2-1) = {cap}: {'OK' if sq == cap else 'FAIL'}")
        lines.append(f"distinct irreps = {len(rows)} = f(n,d) = {f}: "
                     f"{'OK' if len(rows) == f else 'FAIL'}")
    _emit(payload, lines, args)
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_center(args) -> int:
    f = _rt.center_dimension(args.n, args.d)
    payload = {"d": args.d, "n": args.n, "center_dim": f}
    lines = [f"center dimension f(n={args.n}, d={args.d}) = {f}"]
    if args.d**args.n <= 4096:
        from .casimir import highest_weight_counts

        # One center direction per label whose highest-weight vectors number
        # exactly its CG multiplicity.
        counts = highest_weight_counts(args.d, args.n)
        labels = _rt.cg_decompose(args.n, args.d)
        dim = sum(counts[m] == k for m, k in labels.items())
        payload["materialized_dim"] = dim
        payload["verified"] = dim == f
        lines.append(f"highest-weight vectors verify center dimension {dim}: "
                     f"{'OK' if dim == f else 'FAIL'}")
        if dim != f:
            _emit(payload, lines, args)
            return EXIT_NUMERICAL
    _emit(payload, lines, args)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .casimir import isotypic_blocks

    blocks = isotypic_blocks(args.d, args.n)
    rows = [
        {
            "block_label": list(b.label),
            "block_dim": b.block_dim,
            "c2_cluster_index": b.c2_cluster_index,
            "irrep_dim": b.irrep_dim,
            "multiplicity": b.multiplicity,
            "c3_refined": b.c3_refined,
        }
        for b in blocks
    ]
    payload = {"d": args.d, "n": args.n, "blocks": rows}
    lines = [f"isotypic blocks of ({args.d}^n), n={args.n}",
             "label  block_dim  c2_cluster  irrep_dim  mult  c3_refined"]
    for r in rows:
        lines.append(
            f"{tuple(r['block_label'])!s:>10}  {r['block_dim']:>6} {r['c2_cluster_index']:>8}"
            f" {r['irrep_dim']:>9} {r['multiplicity']:>6}   {r['c3_refined']}"
        )
    if any(r["c3_refined"] for r in rows):
        lines.append("note: C2-degenerate clusters were refined with the cubic Casimir")
    _emit(payload, lines, args)
    return EXIT_OK


def _load_generator_spec(path: str):
    """Generator-spec JSON: {"d", "n", "hamiltonians": [...]}.

    Each Hamiltonian is either a list of term dicts
    {"multi_index": [...], "coeff_re": x, "coeff_im": y} (a combination of
    symmetric basis elements) or a raw matrix {"dim", "re", "im"}.
    Hermitian inputs H become generators iH; skew-Hermitian inputs are used
    as given.  ``d``, ``n``, multi-index counts and matrix ``dim`` refuse
    floats, strings and bools (``linalg._json_int``), and ``d`` must be at
    least 2 and ``n`` at least 1, as for ``--d`` and ``--n``.  An unreadable
    file, a missing key, a wrong type or an out-of-range size raises
    ``ValueError`` (exit 1).  Returns a ``GeneratorSet``.
    """
    from .closure import GeneratorSet
    from .generators import hamiltonian_from_terms
    from .linalg import _json_int, is_hermitian, is_skew_hermitian, matrix_from_json

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read generator spec {path}: {exc.strerror}") from exc
    try:
        d, n = _json_int(obj["d"]), _json_int(obj["n"])
        ham_specs = list(obj["hamiltonians"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed generator spec {path}: {exc}") from exc
    if d < 2 or n < 1:
        raise ValueError(f"malformed generator spec {path}: need d >= 2 and n >= 1, "
                         f"got d={d}, n={n}")
    gens = []
    names = []
    for idx, spec in enumerate(ham_specs):
        try:
            if isinstance(spec, dict) and "dim" in spec:
                h = matrix_from_json(spec)
            elif isinstance(spec, list):
                h = hamiltonian_from_terms(spec, d, n)
            else:
                raise ValueError(f"generator {idx}: expected a term list or a matrix object")
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"generator {idx}: malformed ({type(exc).__name__}: {exc})") from exc
        if h.shape[0] != d**n:
            raise ValueError(f"generator {idx}: matrix dim {h.shape[0]} != d^n = {d ** n}")
        if is_skew_hermitian(h):
            gens.append(h)
        elif is_hermitian(h):
            gens.append(1j * h)
        else:
            raise ValueError(f"generator {idx} is neither Hermitian nor skew-Hermitian")
        names.append(f"H{idx}")
    return GeneratorSet(d, n, tuple(gens), tuple(names))


def cmd_closure(args) -> int:
    from . import closure as _closure

    if (args.preset is None) == (args.spec is None):
        raise ValueError("exactly one of --preset / --spec is required")
    if args.preset is not None:
        gens = _closure.preset(args.preset)
    else:
        gens = _load_generator_spec(args.spec)
    result = _closure.lie_closure(gens, args.max_dim)
    if not result.saturated:
        payload = {
            "saturated": False,
            "rounds": result.rounds,
            "dim_reached": result.dim,
            "max_dim": args.max_dim,  # explicit: the default cap lies above every run's bound
            "error": "closure not saturated",
        }
        lines = [f"closure NOT saturated: dim reached {result.dim} after {result.rounds} rounds"]
        _emit(payload, lines, args)
        return EXIT_UNSATURATED
    report = _closure.subspace_controllability(result)
    payload = report.to_json_dict()
    lines = [
        f"closure dim {report.total_dim} (saturated after {report.rounds} rounds)",
        "label  irrep_dim  mult  restricted_dim  ok",
    ]
    for b in report.per_block:
        lines.append(
            f"{tuple(b.label)!s:>10}  {b.irrep_dim:>6} {b.multiplicity:>5}"
            f" {b.restricted_dim:>10}   {b.ok}"
        )
    lines.append(f"center component dim = {report.center_component_dim}")
    lines.append(f"closure path: {report.path}")
    lines.append(f"subspace controllable: {report.subspace_controllable}")
    _emit(payload, lines, args)
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    pairs = _rt.degeneracy_search(args.p0, args.q0)
    value = _rt.c2_eigenvalue(args.p0, args.q0)
    payload = {"seed": [args.p0, args.q0], "c2": value, "matches": [list(p) for p in pairs]}
    lines = [f"c2({args.p0},{args.q0}) = {value}"]
    lines += [f"  ({p},{q})" for p, q in pairs]
    _emit(payload, lines, args)
    return EXIT_OK


def _add_closure(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default=None)
    p.add_argument("--spec", default=None, help="generator-spec JSON path")
    p.add_argument("--max-dim", type=_int_at_least(0), default=None,
                   help="cap on the traceless dimension "
                        "(default: the ambient bound C(n+d^2-1,d^2-1))")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("p0", type=_int_at_least(0))
    p.add_argument("q0", type=_int_at_least(0))


# name -> (help, adder of the command's own arguments, handler)
_COMMANDS = {
    "decompose": ("Clebsch-Gordan decomposition table", _add_size, cmd_decompose),
    "center": ("center dimension f(n,d), verified from highest weights when d^n <= 4096",
               _add_size, cmd_center),
    "spectrum": ("isotypic blocks from Casimir spectra", _add_size, cmd_spectrum),
    "closure": ("Lie closure and controllability report", _add_closure, cmd_closure),
    "degeneracy": ("all (p,q) sharing the quadratic Casimir value", _add_seed, cmd_degeneracy),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: only ``command``'s subparser if it names one, else all five.

    A subcommand's usage, help and errors do not depend on its siblings, so
    a call builds one subparser; ``qsymlie``, ``--help`` and an unknown
    command get all of them and list every choice.  The top-level usage,
    which an unrecognized argument prints, still lists every command.
    """
    ap = _Parser(prog="qsymlie", description=__doc__)
    single = command in _COMMANDS
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if single else None)
    names = [command] if single else _COMMANDS
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        _add_common(p)
        p.set_defaults(func=handler)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def _exit_code(exc: Exception) -> int | None:
    """The exit code of a failed command, or None if the error should propagate.

    The exception's type alone picks the code; no command rewraps a failure.
    """
    if isinstance(exc, ArithmeticError):  # an exact division in reptheory left a remainder
        return EXIT_NUMERICAL
    if not isinstance(exc, (ValueError, RuntimeError)):
        # MemoryError: an input too large; OSError: an --out path that cannot be written
        return EXIT_USAGE if isinstance(exc, (MemoryError, OSError)) else None
    # The numerical error types come only from modules that import numpy, so
    # they are imported here, on the failure path, and not at start-up.
    import numpy as np

    from .casimir import HighestWeightError, UnresolvedDegeneracyError
    from .closure import ClosureError, UnsaturatedClosureError

    if isinstance(exc, UnsaturatedClosureError):
        return EXIT_UNSATURATED
    # LinAlgError is a ValueError, so it is matched before the exit-1 case.
    if isinstance(exc, (UnresolvedDegeneracyError, HighestWeightError, ClosureError,
                        np.linalg.LinAlgError)):
        return EXIT_NUMERICAL
    return EXIT_USAGE if isinstance(exc, ValueError) else None


if __name__ == "__main__":
    raise SystemExit(main())
