"""Plain references that the package's fast code is tested against.

``to_doc`` and ``from_doc`` are the JSON codec of the report types that
``cli._write`` must match byte for byte (through ``json.dumps(to_doc(x),
indent=2)``), with ``from_doc(type(x), to_doc(x)) == x``.  ``power_sum`` and
``p_norm`` are the l_s norms that ``norms.dominates_all_s`` decides
dominance of.  ``first_fit`` is the greedy placement whose completeness on
divisible chains the acceptance battery checks against ``orders.embeds``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from fractions import Fraction
from typing import Sequence

from partembed.core import InvalidExponent, Partition, integer_root
from partembed.norms import _PRECISION_BITS
from partembed.orders import EmbeddingWitness, _make_witness

_SCALARS = (bool, int, float, str, type(None))


@functools.cache
def _fields(cls) -> tuple[tuple[str, str, object], ...]:
    """(attribute, JSON key, type hint) of each field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name), hints[f.name])
                 for f in dataclasses.fields(cls))


def to_doc(obj):
    """The JSON document of a report value: a dataclass as its fields in
    declaration order, a Partition as its entry list, a Fraction as "p/q"
    (exact, so 3 is "3/1"), a tuple as a list."""
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, tuple):
        return [to_doc(x) for x in obj]
    if type(obj) is Partition:
        return list(obj.entries)
    if type(obj) is Fraction:
        return f"{obj.numerator}/{obj.denominator}"
    return {key: to_doc(getattr(obj, name)) for name, key, _ in _fields(type(obj))}


def from_doc(tp, doc):
    """Rebuild a value of type ``tp`` from ``to_doc``'s output, guided by the
    type hints: ``X | None``, ``tuple[X, ...]``, fixed tuples, Partition,
    Fraction and nested dataclasses."""
    if doc is None:
        return None
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        return from_doc(inner, doc)
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            return tuple(from_doc(args[0], x) for x in doc)
        return tuple(from_doc(a, x) for a, x in zip(args, doc, strict=True))
    if tp is Partition:
        return Partition(tuple(doc))
    if tp is Fraction:
        return Fraction(doc)
    if dataclasses.is_dataclass(tp):
        return tp(**{name: from_doc(hint, doc[key]) for name, key, hint in _fields(tp)})
    return doc


def power_sum(a: Partition, s: int) -> int:
    """Exact sum of entries raised to the integer power s >= 1."""
    if isinstance(s, bool) or not isinstance(s, int) or s < 1:
        raise InvalidExponent(f"power_sum needs an integer s >= 1, got {s!r}")
    return sum(e**s for e in a.entries)


def p_norm(a: Partition, s):
    """The l_s norm of a partition, for s in [1, oo].

    Integer s: the power sum is computed exactly and the exact integer root
    is returned when it exists; otherwise a high-precision real (relative
    error well below 2**-60).  s = math.inf returns the max entry.
    """
    import mpmath

    if s == math.inf:
        return a.max_entry
    if isinstance(s, bool):
        raise InvalidExponent(f"exponent {s!r} is not a number >= 1")
    if isinstance(s, int):
        if s < 1:
            raise InvalidExponent(f"exponent {s} must be >= 1")
        total = power_sum(a, s)
        root = integer_root(total, s)
        if root**s == total:
            return root
        with mpmath.workprec(_PRECISION_BITS):
            return mpmath.power(mpmath.mpf(total), mpmath.mpf(1) / s)
    s_frac = Fraction(s) if isinstance(s, Fraction) else Fraction(str(float(s)))
    if s_frac < 1:
        raise InvalidExponent(f"exponent {s!r} must be >= 1")
    with mpmath.workprec(_PRECISION_BITS):
        sm = mpmath.mpf(s_frac.numerator) / s_frac.denominator
        total = mpmath.fsum(mpmath.power(e, sm) for e in a.entries)
        return mpmath.power(total, 1 / sm)


def first_fit(lam: Partition, mu: Partition,
              bin_order: Sequence[int] | None = None) -> EmbeddingWitness | None:
    """Greedy placement, largest item first, into the first bin with room.

    Bins are scanned in canonical order unless ``bin_order`` (a permutation
    of bin indices) says otherwise.  Returns None at the first item that fits
    nowhere; for divisible-chain lam that is a proof of non-embeddability.
    """
    order = range(len(mu)) if bin_order is None else list(bin_order)
    remaining = list(mu.entries)
    assignment = []
    for item in lam.entries:
        for j in order:
            if remaining[j] >= item:
                remaining[j] -= item
                assignment.append(j)
                break
        else:
            return None
    return _make_witness(lam, mu, assignment)
