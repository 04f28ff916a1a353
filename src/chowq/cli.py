"""Command-line front end.

Subcommands: mul, steenrod, compose, derive, diagram, check, verify,
pattern.  Exit codes: 0 success/certified, 1 usage or I/O error,
2 mathematical failure (a falsified check or certificate).  The env
var CHOWQ_COLOR=0 disables color.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .basis import (
    BasisFactor,
    Cycle,
    CycleSyntaxError,
    QuadricGeometry,
    cycle_from_json,
    cycle_to_json,
    parse_cycle,
    render_cycle,
    term_is_essential,
)
from .correspondence import compose, derivative
from .holes import (
    HoleParams,
    certificate_json,
    dim_In_set,
    small_splitting_pattern,
    verify_contradiction,
    vishik_pattern,
)
from .ring import mul
from .steenrod import steenrod_k, steenrod_total, steenrod_upto
from .structure import (
    RationalFamily,
    SplittingData,
    check_all,
    family_from_generators,
    forbidden_cells,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _use_color() -> bool:
    if os.environ.get("CHOWQ_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _verdict(label: str, passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if _use_color():
        code = "32" if passed else "31"
        word = f"\x1b[{code}m{word}\x1b[0m"
    return f"{label}: {word}"


def _infer_arity(text: str) -> int | None:
    text = text.strip()
    if text == "0":
        return None
    first = text.split(" + ")[0]
    return len(first.split(" x "))


def _parse(text: str, geometry: QuadricGeometry, arity: int | None) -> Cycle:
    if arity is None:
        arity = _infer_arity(text)
    if arity is None:
        raise CycleSyntaxError("cannot infer arity of '0'; pass --arity")
    return parse_cycle(text, geometry, arity)


def _emit(alpha: Cycle, as_json: bool) -> None:
    if as_json:
        print(json.dumps(cycle_to_json(alpha)))
    else:
        print(render_cycle(alpha))


# ---------------------------------------------------------------------------
# algebra subcommands


def _cmd_mul(args) -> int:
    g = QuadricGeometry(args.D)
    a = _parse(args.left, g, args.arity)
    b = _parse(args.right, g, a.arity if args.arity is None else args.arity)
    _emit(mul(a, b), args.json)
    return EXIT_OK


def _cmd_steenrod(args) -> int:
    g = QuadricGeometry(args.D)
    alpha = _parse(args.cycle, g, args.arity)
    if args.k is not None:
        out = steenrod_k(alpha, args.k)
    elif args.upto is not None:
        out = steenrod_upto(alpha, args.upto)
    else:
        out = steenrod_total(alpha)
    _emit(out, args.json)
    return EXIT_OK


def _cmd_compose(args) -> int:
    g = QuadricGeometry(args.D)
    a = _parse(args.left, g, None)
    b = _parse(args.right, g, None)
    _emit(compose(a, b), args.json)
    return EXIT_OK


def _cmd_derive(args) -> int:
    g = QuadricGeometry(args.D)
    alpha = _parse(args.cycle, g, 2)
    _emit(derivative(alpha, args.i, args.j), args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagram


def _pyramid_cells(geometry: QuadricGeometry, codim: int) -> list[tuple[BasisFactor, BasisFactor]]:
    """Arity-2 basis elements of the given codimension, left-factor codim ascending."""
    D = geometry.D
    by_codim: dict[int, list[BasisFactor]] = {}
    for f in geometry.factors():
        by_codim.setdefault(D - geometry.factor_dimension(f), []).append(f)
    return [
        (f1, f2)
        for c1 in range(codim + 1)
        for f1 in by_codim.get(c1, ())
        for f2 in by_codim.get(codim - c1, ())
    ]


def render_diagram(
    geometry: QuadricGeometry,
    cycle: Cycle | None = None,
    splitting: SplittingData | None = None,
) -> str:
    """Monospace pyramid of the square's basis, codimension rows 0..D.

    Non-essential cells print as a hollow dot, essential cells as a
    star, and a cell is promoted to a filled dot when it is a term of
    the given cycle, or (with a splitting and no cycle) when the shell
    constraints allow it.
    """
    D = geometry.D
    marked = set(cycle.terms) if cycle is not None else set()
    allowed_mode = cycle is None and splitting is not None
    lines = []
    width = max(len(_pyramid_cells(geometry, i)) for i in range(D + 1))
    for i in range(D + 1):
        cells = _pyramid_cells(geometry, i)
        forbidden = set()
        if splitting is not None:
            forbidden = forbidden_cells(geometry, splitting, D - i + 1)
        row = []
        for cell in cells:
            essential = term_is_essential(cell)
            ch = "∗" if essential else "∘"
            if cell in marked:
                ch = "●"
            elif allowed_mode and essential and cell not in forbidden:
                ch = "●"
            row.append(ch)
        body = " ".join(row)
        lines.append(body.center(2 * width - 1).rstrip())
    return "\n".join(lines)


def _cmd_diagram(args) -> int:
    g = QuadricGeometry(args.D)
    alpha = _parse(args.cycle, g, 2) if args.cycle else None
    splitting = None
    if args.splitting:
        indices = tuple(int(v) for v in args.splitting.split(","))
        splitting = SplittingData(indices)
    print(render_diagram(g, alpha, splitting))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check / verify / pattern


def _load_family(path: str) -> RationalFamily:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"family file must be a JSON object, got {type(data).__name__}")
    missing = [key for key in ("D", "max_arity", "generators") if key not in data]
    if missing:
        raise ValueError(f"family file lacks the field {missing[0]!r}")
    g = QuadricGeometry(data["D"])
    if not isinstance(data["generators"], list):
        raise ValueError(f"generators must be a list of cycles, got {data['generators']!r}")
    gens = []
    for i, item in enumerate(data["generators"]):
        if isinstance(item, str):
            arity = _infer_arity(item)
            if arity is None:
                continue
            gens.append(parse_cycle(item, g, arity))
        elif isinstance(item, dict):
            gens.append(cycle_from_json(item))
        else:
            raise ValueError(f"generators[{i}] must be cycle text or a JSON cycle, got {item!r}")
    indices = data.get("splitting")
    if indices is not None and not isinstance(indices, list):
        raise ValueError(f"splitting must be a list of Witt indices, got {indices!r}")
    splitting = SplittingData(tuple(indices)) if indices else None
    return family_from_generators(g, data["max_arity"], gens, splitting)


def _cmd_check(args) -> int:
    try:
        fam = _load_family(args.family)
        inner = _load_family(args.inner) if args.inner else None
    except (OSError, KeyError, TypeError, ValueError) as exc:  # TypeError: JSON of the wrong shape
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = list(check_all(fam, inner).values())
    if args.json:
        print(
            json.dumps(
                [
                    {"name": r.name, "passed": r.passed, "witnesses": list(map(str, r.witnesses))}
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            print(_verdict(r.name, r.passed))
            for w in r.witnesses:
                print(f"    witness: {w}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FALSIFIED


def _cmd_verify(args) -> int:
    if args.what != "contradiction":
        print(f"error: unknown verification '{args.what}'", file=sys.stderr)
        return EXIT_USAGE
    params = HoleParams(args.n, args.m, args.p)
    cert = verify_contradiction(params, method=args.method)
    if args.json:
        print(certificate_json(cert))
    else:
        print(
            f"method={cert['method']} cases={cert['cases']} "
            f"target={cert['target']}"
        )
        print(_verdict("contradiction", cert["passed"]))
    return EXIT_OK if cert["passed"] else EXIT_FALSIFIED


def _cmd_pattern(args) -> int:
    if args.kind == "dim-in":
        if args.cap is None:
            print("error: dim-in needs --cap", file=sys.stderr)
            return EXIT_USAGE
        values = dim_In_set(args.n, args.cap)
    else:
        if args.m is None:
            print(f"error: {args.kind} needs --m", file=sys.stderr)
            return EXIT_USAGE
        if args.kind == "vishik":
            values = vishik_pattern(args.n, args.m)
        else:
            values = small_splitting_pattern(args.n, args.m)
    out = sorted(values)
    if args.json:
        print(json.dumps(out))
    else:
        print(" ".join(str(v) for v in out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _add_common(p: argparse.ArgumentParser, need_D: bool = True) -> None:
    if need_D:
        p.add_argument("-D", type=int, required=True, help="quadric dimension")
    p.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="chowq", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("mul", help="multiply two cycles of equal arity")
    _add_common(p)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("steenrod", help="Steenrod operation on a cycle")
    _add_common(p)
    order = p.add_mutually_exclusive_group()
    order.add_argument("-k", type=int, default=None, help="single operation order")
    order.add_argument("--upto", type=int, default=None, help="sum of orders 0..K")
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("cycle")
    p.set_defaults(func=_cmd_steenrod)

    p = sub.add_parser("compose", help="compose two correspondences")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("derive", help="derivative: product with h^i x h^j")
    _add_common(p)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("cycle")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("diagram", help="pyramid diagram of the square's basis")
    _add_common(p)
    p.add_argument("cycle", nargs="?", default=None)
    p.add_argument("--splitting", default=None, help="comma-separated Witt indices")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("check", help="run the checker suite on a family file")
    _add_common(p, need_D=False)
    p.add_argument("family")
    p.add_argument("inner", nargs="?", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run a certification")
    _add_common(p, need_D=False)
    p.add_argument("what", nargs="?", default="contradiction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=["brute", "bilinear"], default="bilinear")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pattern", help="print a splitting-pattern formula")
    _add_common(p, need_D=False)
    p.add_argument("kind", choices=["dim-in", "vishik", "small"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_pattern)

    return root


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the exit flush writes to devnull, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
