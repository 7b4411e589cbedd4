"""Command-line interface.

Subcommands:

* ``encrypt`` / ``decrypt`` - format-preserving encryption of radix strings
* ``bounds``               - evaluate an advantage bound (optionally as CSV)
* ``minrounds``            - smallest round count meeting an advantage target
* ``mixlab``               - exact mixing sweep vs. the advantage bound
* ``shuffle``              - demo: sample one shuffle, print the permutation
* ``vectors``              - regenerate the golden test vectors

Exit codes: 0 on success, 1 on usage errors, 2 on parameter/domain errors.
A usage error, whether argparse or a subcommand finds it, prints argparse's
usage line and ``swapornot <command>: error: ...`` to stderr.
Results go to stdout (machine-readable, deterministic; advantages at 6
significant digits), diagnostics to stderr.  Only ``encrypt``, ``decrypt`` and
``vectors`` import ``fpe`` and ``prf`` (with ``cipher`` and ``hashlib``), when they run.
"""

from __future__ import annotations

import argparse
import decimal
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from . import mixing
from .domain import Domain, GroupLaw
from .errors import DomainError, ParameterError

_MODEL_CHOICES = [m.value for m in bounds_mod.Model]


_SIX_DIGITS = decimal.Context(prec=6, rounding=decimal.ROUND_HALF_EVEN)


def _fmt(value: float | Fraction) -> str:
    """Six significant digits; an exact Fraction is rounded half-even from its exact value."""
    if isinstance(value, Fraction):
        # Dividing in a 6-digit context rounds the exact quotient once; the
        # 6-digit result survives the trip through float to the same text.
        value = float(_SIX_DIGITS.divide(value.numerator, value.denominator))
    return format(value, ".6g")


# argparse names a type in its usage error: "argument --rounds: invalid int_or_auto value: 'ten'".
def int_or_auto(text: str) -> int | None:
    return None if text == "auto" else int(text)


def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _add_crypt_parser(sub, name: str, doc: str) -> None:
    p = sub.add_parser(name, help=doc)
    p.add_argument("--key", required=True, help="64 hex chars (32-byte PRF key)")
    p.add_argument("--radix", type=int, required=True, help="digit base, 2..36")
    p.add_argument("--length", type=int, required=True, help="digit count")
    p.add_argument("--tweak", default="", help="tweak as hex bytes (default: empty)")
    p.add_argument("--rounds", type=int_or_auto, help="round count, or 'auto' (needs --queries)")
    p.add_argument("--target-adv", type=float, help="advantage target for auto rounds")
    p.add_argument("--queries", type=int, help="query budget, required for auto rounds")
    p.add_argument("--xor", action="store_true", help="use the XOR law (power-of-two N only)")
    p.add_argument("text", help="input digit string")
    p.set_defaults(run=_cmd_crypt, parser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swapornot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _add_crypt_parser(sub, "encrypt", "encrypt a radix string in place")
    _add_crypt_parser(sub, "decrypt", "decrypt a radix string in place")

    p = sub.add_parser("bounds", help="evaluate an advantage bound")
    p.add_argument("--N", type=int, required=True, dest="domain_size")
    p.add_argument(
        "--rounds", type=int_list, required=True, help="rounds (comma list allowed with --csv)"
    )
    p.add_argument(
        "--q", type=int_list, required=True, help="query budget (comma list allowed with --csv)"
    )
    p.add_argument("--model", choices=_MODEL_CHOICES, default="cca")
    p.add_argument("--csv", action="store_true", help="emit N,rounds,q,model,advantage rows")
    p.set_defaults(run=_cmd_bounds, parser=p)

    p = sub.add_parser("minrounds", help="smallest round count meeting a target")
    p.add_argument("--N", type=int, required=True, dest="domain_size")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--target-adv", type=float, required=True)
    p.add_argument("--model", choices=_MODEL_CHOICES, default="cca")
    p.set_defaults(run=_cmd_minrounds)

    p = sub.add_parser("mixlab", help="exact mixing sweep vs. the advantage bound")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-q", type=int, default=3)
    p.add_argument("--max-r", type=int, default=12)
    p.add_argument("--csv", action="store_true", help="emit law,N,q,r,tvd,bound,pass rows")
    p.set_defaults(run=_cmd_mixlab)

    p = sub.add_parser("shuffle", help="demo: sample one shuffle and print the permutation")
    p.add_argument("--n", type=int, required=True, dest="deck_size")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--xor", action="store_true", help="use the XOR law (power-of-two N only)")
    p.set_defaults(run=_cmd_shuffle)

    p = sub.add_parser("vectors", help="regenerate the golden test vectors on stdout")
    p.set_defaults(run=_cmd_vectors)
    return parser


def _cmd_crypt(args) -> int:
    from . import fpe
    from .prf import PrfKey, parse_hex

    rounds = args.rounds
    if rounds is None and args.queries is None:
        args.parser.error(
            "--rounds auto needs --queries, the number of values this key will encrypt "
            "(at q near N the log of the bound falls by only about 1/(8N) per round); "
            "pass --queries or give --rounds"
        )
    key = PrfKey.from_hex(args.key)
    spec = fpe.FormatSpec(args.radix, args.length)
    tweak = parse_hex(args.tweak, "tweak")
    if rounds is None:
        target = fpe.DEFAULT_TARGET_ADVANTAGE if args.target_adv is None else args.target_adv
        rounds = fpe.plan_rounds(spec, args.queries, target)
        print(f"auto rounds: {rounds}", file=sys.stderr)
    work = fpe.fpe_encrypt if args.command == "encrypt" else fpe.fpe_decrypt
    print(work(key, spec, args.text, tweak, rounds, xor_law=args.xor))
    return 0


def _cmd_bounds(args) -> int:
    if not args.csv and (len(args.rounds) > 1 or len(args.q) > 1):
        args.parser.error("comma lists for --rounds/--q require --csv")
    model = bounds_mod.Model(args.model)
    if args.csv:
        print("N,rounds,q,model,advantage")
    for rounds in args.rounds:
        for q in args.q:
            query = bounds_mod.BoundQuery(args.domain_size, rounds, q, model)
            adv = _fmt(query.advantage())
            print(f"{args.domain_size},{rounds},{q},{model.value},{adv}" if args.csv else adv)
    return 0


def _cmd_minrounds(args) -> int:
    model = bounds_mod.Model(args.model)
    print(bounds_mod.min_rounds(args.domain_size, args.q, args.target_adv, model))
    return 0


def _cmd_mixlab(args) -> int:
    start = time.perf_counter()
    rows = list(mixing.validation_grid(args.max_n, args.max_q, args.max_r))
    elapsed = time.perf_counter() - start
    oks = [row.ok for row in rows]
    failures = oks.count(False)
    line = "{},{},{},{},{},{},{}" if args.csv else "{:<4} {:>3} {:>2} {:>3} {:>12} {:>12}  {}"
    print(line.format("law", "N", "q", "r", "tvd", "bound", "pass" if args.csv else "result"))
    for row, ok in zip(rows, oks):
        print(
            line.format(
                row.law.value, row.domain_size, row.tracked, row.rounds,
                _fmt(row.tvd), _fmt(row.bound), "pass" if ok else "fail",
            )
        )
    if not args.csv:
        print(f"{len(rows)} rows, {failures} violations")
    tightest = ""
    if rows:
        row = max(rows, key=lambda row: float(row.tvd) / row.bound)
        tightest = (
            f"tightest {row.law.value} N={row.domain_size} q={row.tracked} r={row.rounds} "
            f"tvd/bound={row.tvd / row.bound:.3g}, "
        )
    print(
        f"mixlab: {len(rows)} rows, {failures} violations, {tightest}{elapsed:.3f} s",
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_shuffle(args) -> int:
    law = GroupLaw.XOR if args.xor else GroupLaw.MOD_ADD
    sample = mixing.shuffle_sample(Domain(args.deck_size, law), args.rounds, args.seed)
    print(" ".join(str(p) for p in sample.permutation))
    return 0


def _cmd_vectors(args) -> int:
    from . import fpe

    sys.stdout.write(fpe.format_golden_vectors(fpe.generate_golden_vectors()))
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse exits 2 on a usage error (the CLI's 1), 0 on --help
        return 1 if exc.code else 0
    except (DomainError, ParameterError) as exc:
        print(f"swapornot {args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
