"""The input contract shared by every layer: the exceptions behind the CLI
exit codes, the JSON shape check and complex parsing.  It needs only the
standard library, so exact commands skip numpy.
"""

from __future__ import annotations

import json
import numbers


class DomainError(ValueError):
    """Invalid geometric or algebraic input (maps to CLI exit code 1)."""


class BadJson(ValueError):
    """JSON input that is malformed or has the wrong shape (CLI exit code 65)."""


class ConvergenceError(RuntimeError):
    """Quadrature or regularization failed to converge (CLI exit code 2)."""


def expect(shape_ok: bool, message: str) -> None:
    """BadJson(message) unless the JSON input has the shape it should."""
    if not shape_ok:
        raise BadJson(message)


def is_json_int(value) -> bool:
    """An int that is not a bool: Python reads JSON true and false as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value, kind=numbers.Real) -> bool:
    """A number of the kind, real by default, that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def as_complex(value) -> complex:
    """A number, an [re, im] pair of reals or an 're+imi' string."""
    if isinstance(value, str):
        return parse_complex(value)
    pair = isinstance(value, (list, tuple))
    expect(len(value) == 2 and all(is_json_number(v) for v in value) if pair
           else is_json_number(value, numbers.Number),
           f"expected a number or [re, im], got {value!r}")
    try:
        return complex(*value) if pair else complex(value)
    except OverflowError as exc:
        raise DomainError(f"{value!r} exceeds the float range") from exc


def parse_complex(text: str) -> complex:
    """Parse 're+imi' strings such as '0.5', '-1.2i', '0.5+0.3i', or '[re, im]'."""
    s = str(text).strip().replace(" ", "")
    if s.startswith("["):
        try:
            re_part, im_part = json.loads(s)
            return complex(float(re_part), float(im_part))
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise DomainError(f"cannot parse complex number {text!r}") from exc
    try:
        return complex(s.replace("i", "j"))
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}") from exc

