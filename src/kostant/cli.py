"""Command-line interface.

Commands
    mult        multiplicity of a weight in an irreducible
    tensor      coefficient of V(nu) in V(lambda) (x) V(mu)
    kostant     partition count of a zero-sum integral vector
    convert     change of basis between canonical and fundamental coordinates
    poly-mult   exact polynomial N -> multiplicity along the dilated ray
    poly-tensor exact polynomial N -> tensor coefficient along the dilated ray
    batch       JSON-lines records on stdin, one JSON result per line

Vectors are comma-separated exact rationals (integers or p/q; floats are
rejected).  Polynomial commands print the coefficients in ascending degree,
e.g. "1,3,3,1".  A ray that meets the root lattice only at the multiples of
a step s > 1 gets ";step=s" appended ("1,7/4,9/8,3/8;step=2"): the
polynomial gives the values at N = s, 2s, ... and every other N has value 0.
A ray whose counts fit no polynomial prints "fit-failed[<reason>]:<values>".
Exit codes: 0 success, 2 invalid input, 3 oracle disagreement,
4 resource exhaustion, 5 an internal error in some batch record (the record
gets an "internal-error" line and the stream goes on).  Every batch error
carries "line", the 1-based number of its stdin line, blank lines included.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .formulas import (
    RayFitFailure,
    multiplicity,
    multiplicity_polynomial,
    tensor_polynomial,
    tensor_product,
)
from .reference import (
    OracleDomainError,
    kostant_partition_bruteforce,
    multiplicity_freudenthal,
    tensor_bruteforce_lr,
)
from .residues import kostant_partition
from .vectors import (
    DominantWeight,
    ValidationError,
    as_vector,
    from_fundamental,
    to_fundamental,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    if not _RATIONAL.match(token):
        raise ValidationError(
            "malformed-rational",
            f"entry {token!r} is not an integer or p/q rational",
        )
    return Fraction(token)


def _parse_vector(text) -> Tuple[Fraction, ...]:
    if isinstance(text, (list, tuple)):
        items = text
    else:
        items = str(text).split(",")
    if not items:
        raise ValidationError("bad-length", "empty vector")
    return tuple(_parse_rational(str(tok)) for tok in items)


def _field(record: dict, key: str):
    if key not in record:
        raise ValidationError("missing-field", f"{record['command']} records need {key!r}")
    return record[key]


def _weight_arg(record: dict, name: str, rank: int, basis: str) -> Tuple[Fraction, ...]:
    entries = _parse_vector(_field(record, name))
    if basis == "fundamental":
        if len(entries) != rank:
            raise ValidationError(
                "bad-length", f"{name}: rank {rank} takes {rank} fundamental coordinates"
            )
        return from_fundamental(entries)
    if len(entries) != rank + 1:
        raise ValidationError(
            "bad-length", f"{name}: rank {rank} takes {rank + 1} canonical entries"
        )
    return entries


def run_record(record: dict) -> dict:
    """Execute one query record; returns a result dict (see batch mode)."""
    if not isinstance(record, dict):
        raise ValidationError("bad-record", "a record must be a JSON object")
    # Tuples, not sets: membership must not hash arbitrary JSON values.
    command = record.get("command")
    if command not in ("mult", "tensor", "kostant", "convert", "poly-mult", "poly-tensor"):
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
    if want_oracle and command in ("convert", "poly-mult", "poly-tensor"):
        raise ValidationError("bad-oracle", f"{command} has no oracle")

    oracle_verdict: Optional[str] = None
    started = time.perf_counter()

    if command == "kostant":
        a = _parse_vector(_field(record, "vector"))
        if len(a) != rank + 1:
            raise ValidationError("bad-length", f"rank {rank} takes {rank + 1} entries")
        value = kostant_partition(a)
        out = str(value)
        if want_oracle:
            oracle_verdict = _oracle_verdict(lambda: kostant_partition_bruteforce(a), value)
    elif command == "convert":
        direction = record.get("to", "fundamental")
        entries = _parse_vector(_field(record, "vector"))
        if direction == "fundamental":
            if len(entries) != rank + 1:
                raise ValidationError("bad-length", f"rank {rank} takes {rank + 1} entries")
            result = to_fundamental(entries)
        elif direction == "canonical":
            if len(entries) != rank:
                raise ValidationError("bad-length", f"rank {rank} takes {rank} coordinates")
            result = from_fundamental(entries)
        else:
            raise ValidationError("bad-basis", f"unknown target basis {direction!r}")
        out = ",".join(map(str, result))
    elif command == "mult":
        lam = DominantWeight(_weight_arg(record, "lambda", rank, basis))
        mu = _weight_arg(record, "mu", rank, basis)
        value = multiplicity(lam, mu)
        out = str(value)
        if want_oracle:
            oracle_verdict = _oracle_verdict(lambda: multiplicity_freudenthal(lam, mu), value)
    elif command == "tensor":
        lam = DominantWeight(_weight_arg(record, "lambda", rank, basis))
        mu = DominantWeight(_weight_arg(record, "mu", rank, basis))
        nu = DominantWeight(_weight_arg(record, "nu", rank, basis))
        value = tensor_product(lam, mu, nu)
        out = str(value)
        if want_oracle:
            oracle_verdict = _oracle_verdict(lambda: tensor_bruteforce_lr(lam, mu, nu), value)
    elif command == "poly-mult":
        lam = DominantWeight(_weight_arg(record, "lambda", rank, basis))
        mu = _weight_arg(record, "mu", rank, basis)
        out = _render_ray(multiplicity_polynomial(lam, mu))
    else:  # poly-tensor
        lam = DominantWeight(_weight_arg(record, "lambda", rank, basis))
        mu = DominantWeight(_weight_arg(record, "mu", rank, basis))
        nu = DominantWeight(_weight_arg(record, "nu", rank, basis))
        out = _render_ray(tensor_polynomial(lam, mu, nu))

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    result = {"value": out, "time_ms": round(elapsed_ms, 3)}
    if want_oracle:
        result["oracle"] = oracle_verdict
    return result


def _oracle_verdict(run_oracle, value) -> Optional[str]:
    try:
        expected = run_oracle()
    except OracleDomainError:
        return None  # outside the oracle's box; skipped
    return "agree" if expected == value else "disagree"


def _render_ray(fit) -> str:
    if isinstance(fit, RayFitFailure):
        values = ",".join(str(v) for v in fit.values)
        return f"fit-failed[{fit.reason}]:{values}"
    text = ",".join(map(str, fit.coefficients))
    return text if fit.step == 1 else f"{text};step={fit.step}"


def _emit(result: dict, timing: bool) -> None:
    print(result["value"])
    if result.get("oracle") is not None:
        print(f"oracle: {result['oracle']}")
    elif "oracle" in result:
        print("oracle: skipped (outside reference box)")
    if timing:
        print(f"time_ms: {result['time_ms']}")


def _single(args: argparse.Namespace, command: str) -> int:
    record = {
        "command": command,
        "rank": args.rank,
        "basis": getattr(args, "basis", "canonical"),
        "oracle": getattr(args, "oracle", False),
    }
    for key in ("lam", "mu", "nu"):
        value = getattr(args, key, None)
        if value is not None:
            record["lambda" if key == "lam" else key] = value
    if getattr(args, "vector", None) is not None:
        record["vector"] = args.vector
    if getattr(args, "to", None) is not None:
        record["to"] = args.to
    result = run_record(record)
    _emit(result, getattr(args, "timing", False))
    if result.get("oracle") == "disagree":
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _batch(args: argparse.Namespace) -> int:
    worst = EXIT_OK
    for number, line in enumerate(sys.stdin, 1):  # physical lines: blank ones count
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
            print(json.dumps({"error": "malformed-json", "message": str(exc), "line": number}))
            worst = max(worst, EXIT_INVALID)
            continue
        try:
            result = run_record(record)
        except ValidationError as exc:
            result, code = {"error": exc.code, "message": str(exc)}, EXIT_INVALID
        except (MemoryError, RecursionError) as exc:
            result, code = {"error": "resource-exhausted", "message": str(exc)}, EXIT_RESOURCE
        except Exception as exc:  # a fault inside the library must not end the stream
            message = f"{type(exc).__name__}: {exc}"
            result, code = {"error": "internal-error", "message": message}, EXIT_INTERNAL
        else:
            code = EXIT_ORACLE_MISMATCH if result.get("oracle") == "disagree" else EXIT_OK
        if "error" in result:
            result["line"] = number
        print(json.dumps(result))
        worst = max(worst, code)
    return worst


def _add_common(p: argparse.ArgumentParser, oracle: bool = True) -> None:
    p.add_argument("--rank", type=int, required=True, help="rank r of A_r")
    p.add_argument("--timing", action="store_true", help="print wall-clock time")
    if oracle:
        p.add_argument("--oracle", action="store_true",
                       help="cross-check against the brute-force reference when inside its box")


def _add_basis(p: argparse.ArgumentParser) -> None:
    p.add_argument("--basis", choices=("canonical", "fundamental"), default="canonical",
                   help="how weight vectors are given (default: canonical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kostant",
        description="Exact partition counts, weight multiplicities and tensor "
                    "coefficients for the root system A_r.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", help="weight multiplicity in an irreducible")
    _add_common(p)
    _add_basis(p)
    p.add_argument("--lambda", dest="lam", required=True, help="highest weight")
    p.add_argument("--mu", required=True, help="weight whose multiplicity is wanted")
    p.set_defaults(func=lambda a: _single(a, "mult"))

    p = sub.add_parser("tensor", help="tensor product coefficient")
    _add_common(p)
    _add_basis(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=lambda a: _single(a, "tensor"))

    p = sub.add_parser("kostant", help="partition count of a zero-sum vector")
    _add_common(p)
    p.add_argument("vector", help="comma-separated integral zero-sum vector")
    p.set_defaults(func=lambda a: _single(a, "kostant"))

    p = sub.add_parser("convert", help="basis conversion")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--to", choices=("fundamental", "canonical"), required=True)
    p.add_argument("vector")
    p.set_defaults(func=lambda a: _single(a, "convert"))

    p = sub.add_parser("poly-mult", help="multiplicity polynomial along a dilation ray")
    _add_common(p, oracle=False)
    _add_basis(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=lambda a: _single(a, "poly-mult"))

    p = sub.add_parser("poly-tensor", help="tensor polynomial along a dilation ray")
    _add_common(p, oracle=False)
    _add_basis(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=lambda a: _single(a, "poly-tensor"))

    p = sub.add_parser("batch", help="JSON-lines records on stdin")
    p.set_defaults(func=_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return EXIT_INVALID
    except (MemoryError, RecursionError, OSError) as exc:
        print(json.dumps({"error": "resource-exhausted", "message": str(exc)}), file=sys.stderr)
        return EXIT_RESOURCE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
