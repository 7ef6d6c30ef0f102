"""Command line front end.

One subcommand per library operation, JSON output by default (CSV and plain
key=value as alternatives), seeded randomness, and an opt-in on-disk cache
for generator sets (--cache-dir, falling back to GAMMA0_CACHE_DIR).

Each subcommand's handler sits beside its arguments in ``build_parser``: it
maps the parsed arguments to the report dict, and ``main`` calls it.

Exit codes: 0 the report does not carry ``"ok": false``, 1 it does (a check
failed) or an identity was violated, 2 usage error, invalid input or an
unusable cache directory (one ``error:`` line on stderr), 3 an internal
error, i.e. any other exception (one ``internal error:`` line on stderr, no
traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction

from . import verify as verify_mod
from .charformula import (
    CharacterParams,
    TheoremViolation,
    beta,
    eval_character,
    sigma_matrix,
)
from .dirichlet import character_from_id, divisors, enumerate_characters, unit_group_structure
from .exact import dedekind_sum, dedekind_sum_fast, fraction_from_str, fraction_to_str
from .farey import closed_form_counts, generator_set_to_json, generators, set_default_cache_dir
from .sl2 import Gamma0Element, UniModular, psi, sigma


class _Parser(argparse.ArgumentParser):
    """A usage error exits 2 with one ``error:`` line; subparsers share the class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _parse_matrix(text: str) -> UniModular:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("matrix must be four comma-separated integers")
    try:
        return UniModular(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_rl(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    if not text:
        return out
    for item in text.split(","):
        key, _, value = item.partition("=")
        try:
            l, weight = int(key), fraction_from_str(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--rl item {item!r} is not l=p/q with q nonzero") from None
        if l in out:
            raise ValueError(f"--rl gives l={l} more than once")
        out[l] = weight
    return out


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        out[prefix] = json.dumps(value, sort_keys=True)
    else:
        out[prefix] = value


def emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, sort_keys=True))
        return
    flat: dict = {}
    _flatten("", report, flat)
    keys = sorted(flat)
    if output == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(keys)
        writer.writerow([flat[k] for k in keys])
    else:
        for key in keys:
            print(f"{key}={flat[key]}")


def _dedekind(args: argparse.Namespace) -> dict:
    fn = dedekind_sum if args.naive else dedekind_sum_fast
    return {"s": fraction_to_str(fn(args.h, args.k))}


def _characters(args: argparse.Namespace) -> dict:
    return {
        "modulus": args.level,
        "factors": [list(f) for f in unit_group_structure(args.level)],
        "characters": [
            {"id": chi.id(), "modulus": chi.modulus, "exponents": list(chi.exponents)}
            for chi in enumerate_characters(args.level)
        ],
    }


def _eval_char(args: argparse.Namespace) -> dict:
    chi = character_from_id(args.level, args.chi)
    r_l = {l: Fraction(0) for l in divisors(args.level) if l > 1}
    r_l.update(_parse_rl(args.rl))
    params = CharacterParams.from_map(chi, args.r1, r_l)
    gamma = Gamma0Element(args.matrix, args.level)
    return {"value": str(eval_character(params, gamma))}


def _beta(args: argparse.Namespace) -> dict:
    if args.l is not None:
        return {"level": args.level, "l": args.l, "beta": beta(args.level, args.l)}
    # the sigma matrix rejects levels below 2 and has one column per l
    cols = sigma_matrix(args.level).cols
    return {"level": args.level, "beta": {str(l): beta(args.level, l) for l in cols}}


def _rank(args: argparse.Namespace) -> dict:
    # sigma_rank rejects levels below 2; the matrix has r rows and t - 1 columns
    n = args.level
    return {
        "level": n,
        "rank": verify_mod.sigma_rank(n),
        "rows": closed_form_counts(n)[0],
        "t_minus_1": len(divisors(n)) - 1,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gamma0char",
        description="Exact computations around unitary characters of Gamma0(N)",
    )
    parser.add_argument("--output", choices=("json", "csv", "plain"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the generator-set cache (default: GAMMA0_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="integer invariant of a determinant-1 matrix")
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    p.set_defaults(report=lambda a: {"psi": psi(a.matrix)})

    p = sub.add_parser("dedekind", help="Dedekind sum s(h, k)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--naive", action="store_true", help="use direct summation")
    p.set_defaults(report=_dedekind)

    p = sub.add_parser("sigma", help="difference homomorphism at a divisor")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    p.set_defaults(report=lambda a: {"sigma": sigma(Gamma0Element(a.matrix, a.level), a.l)})

    p = sub.add_parser("generators", help="generator set for Gamma0(N)")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(report=lambda a: generator_set_to_json(generators(a.level)))

    p = sub.add_parser("characters", help="list Dirichlet characters modulo N")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(report=_characters)

    p = sub.add_parser("eval-char", help="evaluate a parametrized character")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--chi", type=int, default=0, help="character id (mixed-radix rank)")
    p.add_argument("--r1", type=int, default=0)
    p.add_argument("--rl", type=str, default="", help="comma list l=p/q")
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    p.set_defaults(report=_eval_char)

    p = sub.add_parser("beta", help="positive generator of the sigma image")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(report=_beta)

    p = sub.add_parser("rank", help="rank of the sigma matrix")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(report=_rank)

    # verifier handlers look verify_mod.<name> up when called, so a patched verifier is used
    p = sub.add_parser("verify", help="batch verifiers")
    vsub = p.add_subparsers(dest="check", required=True)
    v = vsub.add_parser("prop21")
    v.add_argument("--trials", type=int, default=10**5)
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.set_defaults(report=lambda a: verify_mod.verify_prop21(a.trials, a.seed))
    v = vsub.add_parser("surjectivity")
    v.add_argument("--level", type=int, required=True)
    v.set_defaults(report=lambda a: verify_mod.verify_surjectivity(a.level))
    for name in ("table2", "conjecture1", "conjecture2", "conjecture3"):
        v = vsub.add_parser(name)
        v.add_argument("--max", type=int, required=True)
        v.set_defaults(report=lambda a, fn=f"verify_{name}": getattr(verify_mod, fn)(a.max))
    v = vsub.add_parser("dedekind-identity")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.set_defaults(report=lambda a: verify_mod.verify_dedekind_identity(a.trials, a.seed))
    v = vsub.add_parser("kernel")
    v.add_argument("--level", type=int, required=True)
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.set_defaults(report=lambda a: verify_mod.verify_kernel(a.level, a.trials, a.seed))

    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join "--flag -2,..." into "--flag=-2,..." so argparse keeps the value."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) and re.match(
            r"^-\d", argv[i + 1]
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        set_default_cache_dir(args.cache_dir or os.environ.get("GAMMA0_CACHE_DIR"))
        report = args.report(args)
    except TheoremViolation as exc:
        emit({"ok": False, "error": "theorem-violation", "witness": str(exc)}, args.output)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    finally:
        set_default_cache_dir(None)
    emit(report, args.output)
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
