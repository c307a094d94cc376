"""Command-line front end: map between representations, print statistic
tables, enumerate families, and run the identity-check suites.

Exit codes: 0 success (all checks pass), 1 domain error or check
failure, 2 usage error (malformed input, unknown name, size caps).
All output is deterministic for fixed inputs: the generating polynomial
of `enumerate --gf` prints in ascending degree and JSON keys are emitted
in a fixed order.

Size caps: `verify NAME`, `enumerate`, `map inv` and `dalpha` count the
objects they would build, and `map phi`, `stats` and `greene` the
entries they would print, before building any, and refuse more than
CAP_WORK of them; `verify NAME` takes the count from the check's model
in `checks.WORK`.  Each parameter is capped too, so that the count stays
cheap to work out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

from .bijection import greene_shape, phi, phi_inverse, \
    word_to_strict_tableau
from .checks import CHECKS, PER_MATRIX, CheckResult, _multisets, \
    _run_entry, macmahon_count, run_all, work
from .core import NMatrix, Partition, PlanePartition, Word
from .enumeration import count_D_alpha, gen_pp_box, gen_pp_shape, \
    gen_strict_tableaux, gen_words

# Two kinds of caps, lifted by --unsafe-no-caps.  Per-parameter caps
# keep each work model cheap to evaluate: box sides, shape rows and widths
# and --bound up to 5 (k is also the size of the Schur determinants),
# degree windows up to 12, the --n of `enumerate words` and of `verify`
# up to 10, and up to 8 variables in gexp (9 take over a minute).  The
# word given to `map word` or `greene` has no length cap: its letters are
# the digits 1-9, so each letter takes at most 9 steps.
CAP_BOX = 5
CAP_N = 12
CAP_SMALL_N = 10
CAP_GEXP_N = 8
# One work cap over the objects a command builds or the entries it
# prints: `checks.WORK` for `verify NAME`, its own count for each other
# command.  It admits the 5^8 words of `enumerate words --n 8 --m 5`.
# A unit costs 1-25 us, so an admitted command runs for at most about
# 8 s.
CAP_WORK = 400_000


class UsageError(Exception):
    """Bad input or parameters: reported on stderr with exit code 2."""


class DomainError(Exception):
    """Structurally valid input outside an operation's domain: exit 1."""


def _check_caps(args, dims=(), N=None, n=None, n_max=None, work=None):
    """Raise UsageError for the first negative parameter, and for the
    first parameter over its cap unless --unsafe-no-caps was given.
    `dims` are (name, value) pairs capped as box sides.  `work` is a
    (what, count) pair: count() is the number of objects the command
    builds, evaluated only once every parameter is within its cap.
    """
    limits = [*((name, value, CAP_BOX) for name, value in dims),
              ("N", N, CAP_N), ("n", n, CAP_SMALL_N),
              ("n_max", n_max, CAP_GEXP_N)]
    for what, value, _ in limits:
        if value is not None and value < 0:
            raise UsageError(f"{what}={value} is negative; --unsafe-no-caps "
                             "does not lift this")
    if getattr(args, "unsafe_no_caps", False):
        return

    def cap(what, value, limit):
        if value is not None and value > limit:
            raise UsageError(f"{what} exceeds the cap {limit}; "
                             "pass --unsafe-no-caps to override")

    for what, value, limit in limits:
        cap(f"{what}={value}", value, limit)
    if work is not None:
        what, count = work
        count = count()
        cap(f"the work of {what}, {count},", count, CAP_WORK)


def _read_input(args, flag: str):
    """One input source per invocation: inline JSON flag, --input path,
    or stdin.
    """
    inline = getattr(args, flag, None)
    path = getattr(args, "input", None)
    if inline is not None and path is not None:
        raise UsageError("give either an inline value or --input, not both")
    if inline is not None:
        text = inline
    elif path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON input: {exc}") from None


def _parse_pp(data) -> PlanePartition:
    try:
        return PlanePartition.from_json(data)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"not a plane partition: {exc}") from None


def _parse_matrix(data) -> NMatrix:
    try:
        if isinstance(data, dict):
            return NMatrix.from_json(data)
        return NMatrix(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise UsageError(f"not an N-matrix: {exc}") from None


def _parse_shape(text: str) -> Partition:
    try:
        parts = [int(p) for p in text.split(",") if p != ""]
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from None


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise UsageError(f"bad vector {text!r}: {exc}") from None
    if any(p < 0 for p in vec):
        raise UsageError(f"bad vector {text!r}: negative component")
    return vec


def _emit(args, text_lines, json_obj):
    if args.json:
        print(json.dumps(json_obj, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


# -- subcommands -------------------------------------------------------


def cmd_map(args) -> int:
    if args.direction == "phi":
        pp = _parse_pp(_read_input(args, "pp"))
        if args.n is None or args.m is None:
            raise UsageError("map phi needs --n and --m")
        _check_caps(args, work=("the n x m count matrix (its entries)",
                                lambda: max(args.n, 0) * max(args.m, 0)))
        try:
            D = phi(pp, args.n, args.m)
        except ValueError as exc:
            raise DomainError(str(exc)) from None
        _emit(args, [json.dumps([list(r) for r in D.entries])], D.to_json())
    elif args.direction == "inv":
        D = _parse_matrix(_read_input(args, "matrix"))
        # d[i][l] insertions at row i add at most i cells each
        cells = sum(i * sum(row) for i, row in enumerate(D.entries, 1))
        _check_caps(args, work=("the image (its cells, at most the sum of "
                                "i*d[i][l])", lambda: cells))
        try:
            pp = phi_inverse(D)
        except ValueError as exc:
            raise DomainError(str(exc)) from None
        _emit(args, [json.dumps(pp.to_json())], pp.to_json())
    elif args.direction == "word":
        if args.w is None or args.m is None:
            raise UsageError("map word needs --w and --m")
        try:
            w = Word.from_digits(args.w, args.m)
        except ValueError as exc:
            raise UsageError(f"bad word: {exc}") from None
        st = word_to_strict_tableau(w)
        _emit(args, [json.dumps(st.to_json())], st.to_json())
    else:
        raise UsageError(f"unknown direction {args.direction!r}")
    return 0


def cmd_stats(args) -> int:
    pp = _parse_pp(_read_input(args, "pp"))
    m = args.m if args.m is not None else pp.max_entry()
    if m < pp.max_entry():
        raise DomainError("entry exceeds --m")
    _check_caps(args, work=("the column counts (m of them)", lambda: m))
    table = [
        ("shape", list(pp.shape().parts)),
        ("volume", pp.volume()),
        ("trace", pp.trace()),
        ("descents", pp.descent_count()),
        ("up_hook_volume", pp.up_hook_volume()),
        ("corner_volume", pp.corner_volume()),
        ("column_counts", list(pp.column_counts(m)) if m else []),
        ("row_descent_counts", list(pp.row_descent_counts())),
    ]
    _emit(args, [f"{k} {json.dumps(v)}" for k, v in table], dict(table))
    return 0


_STATS = {
    "volume": PlanePartition.volume,
    "trace": PlanePartition.trace,
    "descents": PlanePartition.descent_count,
    "uh": PlanePartition.up_hook_volume,
    "corner": PlanePartition.corner_volume,
}


def cmd_enumerate(args) -> int:
    if args.gf is not None and args.stat is None:
        raise UsageError("--gf needs --stat")
    if args.stat is not None and args.gf is None:
        raise UsageError("--stat needs --gf")
    if args.gf is not None and args.list:
        raise UsageError("--gf prints a polynomial, not a --list")
    if args.gf is not None and args.family == "words":
        raise UsageError("enumerate words takes no --gf: the statistics "
                         "are of plane partitions")
    if args.family == "box":
        if len(args.dims) != 3:
            raise UsageError("enumerate box needs three dimensions: k n m")
        k, n, m = args.dims
        _check_caps(args, dims=[("k", k), ("n", n), ("m", m)],
                    work=(f"the {k}x{n}x{m} box (its plane partitions)",
                          lambda: macmahon_count(k, n, m)))
        items = gen_pp_box(k, n, m)
    elif args.family == "shape":
        if args.shape is None or args.m is None:
            raise UsageError("enumerate shape needs --shape and --m")
        lam = _parse_shape(args.shape)
        # the fillings lie in the shape's bounding box
        box = (lam.part(1), len(lam), args.m)
        _check_caps(args, dims=[("shape rows", len(lam)),
                                ("shape width", lam.part(1)), ("m", args.m)],
                    work=("the shape's {}x{}x{} bounding box (its plane "
                          "partitions)".format(*box),
                          lambda: macmahon_count(*box)))
        items = gen_pp_shape(lam, args.m)
    elif args.family == "st":
        if args.shape is None or args.n is None:
            raise UsageError("enumerate st needs --shape and --n")
        lam = _parse_shape(args.shape)
        # the word map sends the words over [len(lam)] onto the strict
        # tableaux of at most len(lam) rows, so lam has at most
        # len(lam)^n of them
        _check_caps(args, dims=[("shape rows", len(lam)),
                                ("shape width", lam.part(1))], N=args.n,
                    work=(f"the strict tableaux of shape {lam.parts} (at "
                          f"most {len(lam)}^{args.n})",
                          lambda: len(lam) ** args.n))
        items = gen_strict_tableaux(lam, args.n)
    elif args.family == "words":
        if args.n is None or args.m is None:
            raise UsageError("enumerate words needs --n and --m")
        _check_caps(args, dims=[("m", args.m)], n=args.n,
                    work=(f"the words of length {args.n} over {args.m} "
                          "letters", lambda: args.m ** args.n))
        ws = gen_words(args.n, args.m)
        if args.list:
            ws = list(ws)
            _emit(args, ["".join(map(str, w.letters)) for w in ws],
                  [list(w.letters) for w in ws])
        else:
            count = sum(1 for _ in ws)
            _emit(args, [str(count)], {"count": count})
        return 0
    else:
        raise UsageError(f"unknown family {args.family!r}")

    if args.gf is not None:
        coeffs = Counter(map(_STATS[args.stat], items))
        var = args.gf
        parts = []
        for d in sorted(coeffs):
            c = coeffs[d]
            if d == 0:
                parts.append(str(c))
            else:
                body = var if d == 1 else f"{var}^{d}"
                parts.append(body if c == 1 else f"{c}*{body}")
        _emit(args, [" + ".join(parts) if parts else "0"],
              {"var": var, "coefficients": {str(d): coeffs[d]
                                            for d in sorted(coeffs)}})
    elif args.list:
        items = list(items)
        _emit(args, [json.dumps(pp.to_json()) for pp in items],
              [pp.to_json() for pp in items])
    else:
        count = sum(1 for _ in items)
        _emit(args, [str(count)], {"count": count})
    return 0


def cmd_dalpha(args) -> int:
    if args.alpha is None or args.n is None or args.m is None:
        raise UsageError("dalpha needs --alpha, --n and --m")
    alpha = _parse_vector(args.alpha)
    if len(alpha) != args.m:
        raise UsageError("--alpha must have exactly m components")
    if args.k is None:
        # the matrices of column sums alpha, each validated and inverted
        built = ("the matrices of column sums alpha (three objects each)",
                 lambda: PER_MATRIX * math.prod(
                     _multisets(args.n, a) for a in alpha))
    else:
        built = (f"the {args.k}x{args.n}x{args.m} box (its plane partitions)",
                 lambda: macmahon_count(args.k, args.n, args.m))
    _check_caps(args, dims=[("k", args.k), ("n", args.n), ("m", args.m)],
                N=sum(alpha), work=built)
    count = count_D_alpha(args.k, args.n, args.m, alpha)
    _emit(args, [str(count)],
          {"k": args.k, "n": args.n, "m": args.m,
           "alpha": list(alpha), "count": count})
    return 0


def cmd_greene(args) -> int:
    if args.w is None or args.m is None:
        raise UsageError("greene needs --w and --m")
    try:
        w = Word.from_digits(args.w, args.m)
    except ValueError as exc:
        raise UsageError(f"bad word: {exc}") from None
    _check_caps(args, work=("the tail lengths L_1..L_m (m of them)",
                            lambda: w.m))
    shape = list(greene_shape(w).parts)
    # the shape is (L_m, ..., L_1) with its trailing zeros trimmed
    tails = shape + [0] * (w.m - len(shape))
    lines = [f"shape {json.dumps(shape)}"]
    lines += [f"L_{w.m - p} {L}" for p, L in enumerate(tails)]
    _emit(args, lines,
          {"word": "".join(map(str, w.letters)), "m": w.m,
           "shape": shape, "L": tails})
    return 0


def _render_result(r: CheckResult, as_json: bool) -> str:
    if as_json:
        return json.dumps(r.to_json(), sort_keys=False)
    status = "pass" if r.passed else "FAIL"
    params = " ".join(f"{k}={v}" for k, v in r.parameters.items())
    line = f"{status} {r.check_name} {params} ({r.elapsed:.3f}s)"
    if r.first_diff:
        line += f"  diff {r.first_diff[0]}: {r.first_diff[1]} != {r.first_diff[2]}"
    elif not r.passed and r.notes:
        line += f"  {r.notes[0]}"
    return line


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    if args.name == "all":
        results = run_all(args.level, workers=args.workers)
    else:
        if args.name not in CHECKS:
            raise UsageError(f"unknown check {args.name!r}")
        # imported here, not with the module: inspect pulls in ast, dis
        # and tokenize, which only this branch needs
        import inspect
        accepted = inspect.signature(CHECKS[args.name]).parameters
        mapping = {
            "k": args.k, "n": args.n, "m": args.m, "N": args.N,
            "N_max": args.N, "n_max": args.N, "mode": args.mode,
            "bound": args.bound,
            "lam": _parse_shape(args.shape) if args.shape else None,
        }
        supplied = {key: value for key, value in mapping.items()
                    if key in accepted and value is not None}
        missing = [p for p, param in accepted.items()
                   if param.default is param.empty and p not in supplied]
        if missing:
            raise UsageError(
                f"check {args.name!r} needs: {', '.join(sorted(missing))}")
        # k, m and --bound are box sides; n, a row count or the word
        # length of greene and frobenius, has a cap of its own
        dims = [(p, supplied.get(p)) for p in ("k", "m", "bound")]
        lam = supplied.pop("lam", None)
        if lam is not None:
            dims += [("shape rows", len(lam)), ("shape width", lam.part(1))]
            supplied["lambda"] = list(lam.parts)  # as in the grids
        _check_caps(args, dims=dims,
                    N=supplied.get("N", supplied.get("N_max")),
                    n=supplied.get("n"),
                    n_max=None if lam is None
                    else supplied.get("n_max", lam.size()),
                    work=(f"verify {args.name} (checks.WORK)",
                          lambda: work(args.name, supplied)))
        results = [_run_entry({"check": args.name, "params": supplied})]
    passed = total = 0
    for r in results:
        print(_render_result(r, args.json), flush=True)
        passed += r.passed
        total += 1
    if not args.json:
        print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


# -- argument parsing --------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppbij",
        description="Plane partitions, the descent-level-count bijection, "
                    "and exact identity verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.add_argument("--unsafe-no-caps", action="store_true",
                       help="disable the parameter size caps")

    p = sub.add_parser("map", help="apply the bijection or the word map")
    p.add_argument("direction", choices=["phi", "inv", "word"])
    p.add_argument("--pp", help="plane partition as inline JSON rows")
    p.add_argument("--matrix", help="matrix as inline JSON")
    p.add_argument("--input", help="path to a JSON input file")
    p.add_argument("--w", help="word as a digit string")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    common(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("stats", help="statistics table of a plane partition")
    p.add_argument("--pp", help="plane partition as inline JSON rows")
    p.add_argument("--input", help="path to a JSON input file")
    p.add_argument("--m", type=int, help="value range for column counts")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("enumerate", help="count, list, or build a "
                                         "generating polynomial")
    p.add_argument("family", choices=["box", "shape", "st", "words"])
    p.add_argument("dims", type=int, nargs="*",
                   help="box dimensions k n m (family 'box')")
    p.add_argument("--shape", help="partition, comma-separated")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--stat", choices=sorted(_STATS))
    p.add_argument("--gf", metavar="VAR",
                   help="print the generating polynomial of --stat")
    p.add_argument("--list", action="store_true", help="list the family")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dalpha", help="descent enumeration count for a "
                                      "content vector")
    p.add_argument("--alpha", help="content vector, comma-separated")
    p.add_argument("--k", type=int, help="row length bound (omit for "
                                         "unbounded)")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    common(p)
    p.set_defaults(func=cmd_dalpha)

    p = sub.add_parser("greene", help="tail subsequence lengths and the "
                                      "tableau shape of a word")
    p.add_argument("--w", help="word as a digit string")
    p.add_argument("--m", type=int)
    common(p)
    p.set_defaults(func=cmd_greene)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("name", help="check name or 'all'")
    p.add_argument("--level", default="small", choices=["small", "full"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--mode", choices=["entries", "rows"])
    p.add_argument("--bound", type=int)
    p.add_argument("--shape", help="partition, comma-separated")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
