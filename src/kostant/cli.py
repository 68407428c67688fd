"""Command-line interface.

Commands
    mult        multiplicity of a weight in an irreducible
    tensor      coefficient of V(nu) in V(lambda) (x) V(mu)
    kostant     partition count of a zero-sum integral vector
    convert     change of basis between canonical and fundamental coordinates
    poly-mult   exact polynomial N -> multiplicity along the dilated ray
    poly-tensor exact polynomial N -> tensor coefficient along the dilated ray
    batch       JSON-lines records on stdin, one JSON result per line

mult, tensor and kostant take --oracle ("oracle": true in a batch record), a
cross-check against a slow independent method; convert, poly-mult and
poly-tensor have no oracle.  The oracles (kostant.reference) load on the
first oracle call and argparse in build_parser, so importing this module to
call run_record loads neither.  The four weight commands (mult, tensor,
poly-mult, poly-tensor) read their weights in --basis, canonical by default.
Vectors are comma-separated exact rationals.  vectors._exact reads each
token with the one grammar the library uses for strings: an integer or p/q,
anything else (a float, 1e3, 1_000, 2/0) refused with malformed-rational.
An integral token becomes an int and any other p/q token a Fraction.  A
number past Python's int-to-decimal digit limit
(sys.get_int_max_str_digits()) is refused with malformed-rational; answers
are printed in full at any length, without raising that limit.  Polynomial
commands print the coefficients in ascending degree, e.g. "1,3,3,1".  A ray
that meets the root lattice only at the multiples of a step s > 1 gets
";step=s" appended ("1,7/4,9/8,3/8;step=2"): the polynomial gives the values
at N = s, 2s, ... and every other N has value 0.  A ray whose counts fit no
polynomial prints "fit-failed[<reason>]:<values>".
Exit codes: 0 success, 2 invalid input, 3 oracle disagreement,
4 resource exhaustion (budget-exceeded for a search past its frontier
limit or a sum past its term limit), 5 an internal error.  Single commands
and batch records map failures to the same codes (_failure): a single
command prints the error as one JSON line on stderr, a batch record gets it
as its result line and the stream goes on.  Every batch error carries
"line", the 1-based number of its stdin line, blank lines included.
"""

from __future__ import annotations

import json
import sys
import time
from decimal import Decimal
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Tuple

from .formulas import (
    RayFitFailure,
    multiplicity,
    multiplicity_polynomial,
    tensor_polynomial,
    tensor_product,
)
from .permsearch import BudgetExceeded
from .residues import kostant_partition
from .vectors import (
    DominantWeight,
    ValidationError,
    Vector,
    _exact,
    from_fundamental,
    to_fundamental,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _parse_vector(text) -> Vector:
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    if not items:
        raise ValidationError("bad-length", "empty vector")
    return tuple(_exact(str(tok)) for tok in items)


def _field(record: dict, key: str):
    if key not in record:
        raise ValidationError("missing-field", f"{record['command']} records need {key!r}")
    return record[key]


def _weight_arg(record: dict, name: str, rank: int, basis: str) -> Vector:
    entries = _parse_vector(_field(record, name))
    if basis == "fundamental":
        if len(entries) != rank:
            raise ValidationError(
                "bad-length", f"{name}: rank {rank} takes {rank} fundamental coordinates"
            )
        return from_fundamental(entries)
    if len(entries) != rank + 1:
        raise ValidationError(
            "bad-length", f"{name}: rank {rank} takes one more canonical entry than the rank"
        )
    return entries


class _Query(NamedTuple):
    help: str
    weights: Tuple[Tuple[str, str], ...]  # (record key, kind), read and checked in order
    formula: Callable
    oracle: Optional[Callable] = None


def _reference():
    """kostant.reference, imported by the first oracle call rather than with the CLI."""
    from . import reference

    return reference


_VECTOR = (("vector", "vector"),)
_PAIR = (("lambda", "dominant"), ("mu", "weight"))
_TRIPLE = (("lambda", "dominant"), ("mu", "dominant"), ("nu", "dominant"))

# The queries a record or a subcommand can run.  A weight of kind "dominant"
# or "weight" is read in the record's basis (flag --<key>); the "vector" of a
# partition count is positional and always canonical.  The lambdas look each
# function up when a record runs, so a name patched in this module is used.
QUERIES = {
    "mult": _Query("weight multiplicity in an irreducible", _PAIR,
                   lambda *w: multiplicity(*w), lambda *w: _reference().multiplicity_freudenthal(*w)),
    "tensor": _Query("tensor product coefficient", _TRIPLE,
                     lambda *w: tensor_product(*w), lambda *w: _reference().tensor_bruteforce_lr(*w)),
    "kostant": _Query("partition count of a zero-sum vector", _VECTOR,
                      lambda a: kostant_partition(a), lambda a: _reference().kostant_partition_bruteforce(a)),
    "poly-mult": _Query("multiplicity polynomial along a dilation ray", _PAIR,
                        lambda *w: multiplicity_polynomial(*w)),
    "poly-tensor": _Query("tensor polynomial along a dilation ray", _TRIPLE,
                          lambda *w: tensor_polynomial(*w)),
}
# A tuple, not the dict: membership must not hash arbitrary JSON values.
_COMMANDS = (*QUERIES, "convert")


def run_record(record: dict) -> dict:
    """Execute one query record; returns a result dict (see batch mode)."""
    if not isinstance(record, dict):
        raise ValidationError("bad-record", "a record must be a JSON object")
    command = record.get("command")
    if command not in _COMMANDS:
        raise ValidationError("unknown-command", f"unknown command {command!r}")
    rank = record.get("rank")
    # bool is a subclass of int, but true is not a rank
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValidationError("bad-rank", "rank must be a positive integer")
    basis = record.get("basis", "canonical")
    if basis not in ("canonical", "fundamental"):
        raise ValidationError("bad-basis", f"unknown basis {basis!r}")
    want_oracle = record.get("oracle", False)
    if not isinstance(want_oracle, bool):
        raise ValidationError("bad-oracle", "oracle must be true or false")
    query = QUERIES.get(command)
    if want_oracle and (query is None or query.oracle is None):
        raise ValidationError("bad-oracle", f"{command} has no oracle")

    started = time.perf_counter()
    result = {}
    if query is None:  # convert
        to = record.get("to", "fundamental")
        if to not in ("canonical", "fundamental"):
            raise ValidationError("bad-basis", f"unknown target basis {to!r}")
        source = "canonical" if to == "fundamental" else "fundamental"
        entries = _weight_arg(record, "vector", rank, source)
        out = ",".join(map(_text, to_fundamental(entries) if to == "fundamental" else entries))
    else:
        weights = []
        for key, kind in query.weights:
            entries = _weight_arg(record, key, rank, "canonical" if kind == "vector" else basis)
            weights.append(DominantWeight(entries) if kind == "dominant" else entries)
        value = query.formula(*weights)
        out = _render(value)
        if want_oracle:
            result["oracle"] = _oracle_verdict(query.oracle, weights, value)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {"value": out, "time_ms": round(elapsed_ms, 3), **result}


def _oracle_verdict(oracle, weights, value) -> Optional[str]:
    from .reference import OracleDomainError

    try:
        expected = oracle(*weights)
    except OracleDomainError:
        return None  # outside the oracle's box; skipped
    return "agree" if expected == value else "disagree"


def _text(x) -> str:
    """An int or a Fraction in full.  Decimal prints any number of digits, where
    str stops at the process-wide limit on int-to-decimal conversion."""
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _render(value) -> str:
    if isinstance(value, int):
        return _text(value)
    if isinstance(value, RayFitFailure):
        values = ",".join(map(_text, value.values))
        return f"fit-failed[{value.reason}]:{values}"
    text = ",".join(map(_text, value.coefficients))
    return text if value.step == 1 else f"{text};step={value.step}"


def _failure(exc: Exception) -> Tuple[dict, int]:
    """The error object and exit code of an exception raised by a query."""
    if isinstance(exc, ValidationError):
        return {"error": exc.code, "message": str(exc)}, EXIT_INVALID
    if isinstance(exc, BudgetExceeded):
        return {"error": exc.code, "message": str(exc)}, EXIT_RESOURCE
    if isinstance(exc, (MemoryError, RecursionError, OSError)):
        return {"error": "resource-exhausted", "message": str(exc)}, EXIT_RESOURCE
    # a fault inside the library: reported, never a traceback
    return {"error": "internal-error", "message": f"{type(exc).__name__}: {exc}"}, EXIT_INTERNAL


def _single(args: argparse.Namespace) -> int:
    record = vars(args)
    timing = record.pop("timing", False)
    result = run_record(record)
    print(result["value"])
    if result.get("oracle") is not None:
        print(f"oracle: {result['oracle']}")
    elif "oracle" in result:
        print("oracle: skipped (outside reference box)")
    if timing:
        print(f"time_ms: {result['time_ms']}")
    return EXIT_ORACLE_MISMATCH if result.get("oracle") == "disagree" else EXIT_OK


def _batch() -> int:
    worst = EXIT_OK
    # Bytes, decoded per line as UTF-8 whatever the locale, so that a line
    # that does not decode is one malformed record, not the end of the stream.
    stream = getattr(sys.stdin, "buffer", sys.stdin)
    for number, line in enumerate(stream, 1):  # physical lines: blank ones count
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON; deep nesting recurses
            print(json.dumps({"error": "malformed-json", "message": str(exc), "line": number}))
            worst = max(worst, EXIT_INVALID)
            continue
        try:
            result = run_record(record)
        except Exception as exc:  # no record ends the stream
            result, code = _failure(exc)
        else:
            code = EXIT_ORACLE_MISMATCH if result.get("oracle") == "disagree" else EXIT_OK
        if "error" in result:
            result["line"] = number
        print(json.dumps(result))
        worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    import argparse  # loaded by the commands that parse argv, not by run_record

    parser = argparse.ArgumentParser(
        prog="kostant",
        description="Exact partition counts, weight multiplicities and tensor "
                    "coefficients for the root system A_r.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, query in QUERIES.items():
        p = sub.add_parser(command, help=query.help)
        p.add_argument("--rank", type=int, required=True, help="rank r of A_r")
        p.add_argument("--timing", action="store_true", help="print wall-clock time")
        if query.oracle is not None:
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against the brute-force reference when inside its box")
        if query.weights != _VECTOR:
            p.add_argument("--basis", choices=("canonical", "fundamental"), default="canonical",
                           help="how weight vectors are given (default: canonical)")
        for key, kind in query.weights:
            if kind == "vector":
                p.add_argument(key, help="comma-separated integral zero-sum vector")
            else:
                p.add_argument("--" + key, required=True, help=f"{kind} {key}")

    p = sub.add_parser("convert", help="basis conversion")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--to", choices=("fundamental", "canonical"), required=True)
    p.add_argument("vector")
    sub.add_parser("batch", help="JSON-lines records on stdin")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _batch() if args.command == "batch" else _single(args)
    except Exception as exc:
        error, code = _failure(exc)
        print(json.dumps(error), file=sys.stderr)
        return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
