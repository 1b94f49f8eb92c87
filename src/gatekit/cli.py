"""Command-line interface.

Subcommands: translate, print, simulate, demo, factor15.  Circuit files use
the ".qc" format (see gatekit.dsl); "-" reads the document from stdin.

Exit codes: 0 success, 1 usage error (bad flags, unknown dialect or demo),
2 parse error or unreadable input, 3 validation/runtime error (e.g. simulating
a circuit with no measurement).  stdout carries only payload; diagnostics go
to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from pathlib import Path

from . import dsl
from .emit import DIALECTS, print_circuit, translate
from .errors import GatekitError, ParseError

DEFAULT_SHOTS = 1000
HIST_WIDTH = 50

# Each demo is built by gatekit.algos.build_<name>.  The commands that build
# or simulate import algos and sim themselves: translate and print never load
# numpy.
_DEMOS = ("bell", "shor15")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 would collide with parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused: parse_args keeps no
    state between calls."""
    parser = _Parser(prog="gatekit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="emit a circuit as framework source text")
    p.add_argument("file", help='".qc" circuit file, or "-" for stdin')
    p.add_argument("--to", required=True, choices=DIALECTS, metavar="DIALECT", help=f"one of {', '.join(DIALECTS)}")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("print", help="render a circuit as an ASCII diagram")
    p.add_argument("file", help='".qc" circuit file, or "-" for stdin')
    p.set_defaults(func=_cmd_print)

    p = sub.add_parser("simulate", help="run shots and report counts")
    p.add_argument("file", help='".qc" circuit file, or "-" for stdin')
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", action="store_true", help="draw the seed from system entropy")
    p.add_argument("--format", choices=("counts", "json", "hist"), default="counts")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo", help="write a built-in example circuit document")
    p.add_argument("name", choices=_DEMOS, metavar="name", help="bell or shor15")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("factor15", help="run the full factor-15 pipeline")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", action="store_true", help="draw the seed from system entropy")
    p.set_defaults(func=_cmd_factor15)

    return parser


def _read_circuit(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return dsl.parse(text)


def _pick_seed(args) -> int:
    if args.random:
        seed = secrets.randbits(32)
        print(f"seed: {seed}", file=sys.stderr)
        return seed
    return args.seed


def _cmd_translate(args) -> int:
    circuit = _read_circuit(args.file)
    sys.stdout.write(translate(circuit, args.to).source)
    return 0


def _cmd_print(args) -> int:
    circuit = _read_circuit(args.file)
    sys.stdout.write(print_circuit(circuit))
    return 0


def _cmd_simulate(args) -> int:
    from .sim import run_shots

    circuit = _read_circuit(args.file)
    seed = _pick_seed(args)
    counts = run_shots(circuit, args.shots, seed)
    ordered = dict(sorted(counts.entries.items()))
    if args.format == "counts":
        for key, count in ordered.items():
            print(f"{key} {count}")
    elif args.format == "json":
        print(json.dumps({"shots": args.shots, "seed": seed, "counts": ordered}))
    else:
        top = max(ordered.values())
        for key, count in ordered.items():
            bar = "#" * max(1, round(count * HIST_WIDTH / top))
            print(f"{key} {bar} {count}")
    return 0


def _cmd_demo(args) -> int:
    from . import algos

    sys.stdout.write(dsl.serialize(getattr(algos, f"build_{args.name}")()))
    return 0


def _cmd_factor15(args) -> int:
    from .algos import run_shor15_pipeline

    seed = _pick_seed(args)
    report = run_shor15_pipeline(args.shots, seed)
    _print_report(report)
    return 0


def _format_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def _print_report(report) -> None:
    print("counts:")
    for key, count in sorted(report.counts.entries.items()):
        print(f"  {key} {count}")
    print(f"measured values: {_format_set(report.measured_values)}")
    accepted_by_base: dict[int, list[int]] = {}
    for a, r, accepted in report.periods_tried:
        if accepted and r not in accepted_by_base.setdefault(a, []):
            accepted_by_base[a].append(r)
    for a, found in report.period_found.items():
        if found:
            periods = ", ".join(f"r={r}" for r in accepted_by_base[a])
            print(f"a={a}: accepted {periods}")
        else:
            print(f"a={a}: did not find a period.")
    print(f"factors: {_format_set(report.factors)}")
    if report.prime_factors:
        print(f"prime factors: {_format_set(report.prime_factors)}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"gatekit: parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"gatekit: cannot read input: {exc}", file=sys.stderr)
        return 2
    except GatekitError as exc:
        print(f"gatekit: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
