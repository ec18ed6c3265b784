"""Text grammar shared by the CLI and the round-trip tests.

One tokenizer covers every payload kind.  It makes one regex pass and
returns plain (kind, value, pos) tuples, closed by an "end" sentinel at
len(text), which the parser walks by index.  Generator tokens are xiK
(Grassmann and odd form coordinates), xK (even coordinates), thK (odd
superfunction coordinates), dxK and dxiK (form generators), and zeta,
an alias for xi1 meant for rank-1 readouts.  Numbers are nonnegative
integers; rationals are written p/q; the operators are + - * / ^ = ; :
and whitespace is insignificant.

An expression is a sum of terms.  A term is an optional leading sign,
an optional rational coefficient, and '*'-joined generator factors.
'^' raises a factor to a power and is legal only on generators that
square to something nonzero: x and dxi.  Writing an odd generator twice
in a row (xi1*xi1) is legal and equals zero; xi1^2 is a parse error.

Maps are ';'-separated assignments "xiK=expr"; unassigned generators
default to zero.  Points are ';'-separated coordinate expressions with
an optional "q=N:" rank prefix, also accepted on bare elements.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .derham import SuperForm
from .errors import BudgetExceeded, IndexOutOfRange, ParseError
from .grassmann import GrassmannElement, normalize, zero
from .homs import GradedHom, make_hom
from .points import QPoint, SuperDomainSpec, SuperFunction
from .semigroup import FiniteRangeEndo, LimitPoint

__all__ = ["parse", "parse_scalar", "print_canonical"]

# a map stores one image per source generator, a monomial one bit per
# generator index and a form one exponent per coordinate, so a short
# text like "xi10000000000=0" would otherwise ask for billions
_MAX_GENERATORS = 1 << 16


# every character lands in one group: whitespace in none, and the
# ones the grammar has no use for in "bad"
_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<number>\d+)"
    r"|(?P<zeta>zeta)"
    r"|(?P<family>dxi|dx|xi|x|th)(?P<index>\d+)"
    r"|(?P<op>[+\-*/^=;:q])"
    r"|(?P<bad>.)"
)

def _tokenize(text: str) -> list[tuple]:
    """Tokens in text order, closed by ("end", None, len(text)).

    kind is "number" (value the int), "gen" (value (family, index), with
    zeta read as ("zeta", 1)) or an operator character, q included
    (value None).
    """
    tokens: list[tuple] = []
    try:
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            if kind is None:  # whitespace
                continue
            pos = match.start()
            if kind == "op":
                tokens.append((match[0], None, pos))
            elif kind == "index":  # a generator: family, then index digits
                tokens.append(("gen", (match["family"], int(match["index"])), pos))
            elif kind == "number":
                tokens.append(("number", int(match[0]), pos))
            elif kind == "zeta":
                tokens.append(("gen", ("zeta", 1), pos))
            else:
                raise ParseError(f"unexpected character {match[0]!r}", pos)
    except ValueError:
        # int() refuses digit strings longer than the interpreter's limit
        digits = match[kind]
        raise ParseError(f"{len(digits)}-digit number is too long", pos) from None
    tokens.append(("end", None, len(text)))
    return tokens


def _fail(token: tuple, message: str):
    """Raise message at token, or the end-of-text error at the sentinel."""
    kind, _, pos = token
    if kind == "end":
        message = "unexpected end of expression"
    raise ParseError(message, pos)


def _split_on_semicolons(tokens: list[tuple], start: int = 0) -> list[list[tuple]]:
    """tokens[start:] cut at each ';', every piece closed by the sentinel."""
    groups: list[list[tuple]] = [[]]
    for token in tokens[start:-1]:
        if token[0] == ";":
            groups.append([])
        else:
            groups[-1].append(token)
    return [group + tokens[-1:] for group in groups]


# a parsed term: (coefficient, [(generator kind, index, power), ...])
_RawTerm = tuple[Fraction, list[tuple[str, int, int]]]


def _parse_expression(tokens: list[tuple], i: int = 0) -> list[_RawTerm]:
    """The sum of terms in tokens[i:], up to the sentinel."""
    if tokens[i][0] == "end":
        raise ParseError("empty expression", tokens[i][2])
    terms: list[_RawTerm] = []
    while True:
        kind, value, pos = tokens[i]
        numerator, denominator = 1, 1
        if kind == "+" or kind == "-":
            if kind == "-":
                numerator = -1
            i += 1
            kind, value, pos = tokens[i]
            if kind == "end":
                raise ParseError("empty term", pos)
        elif terms:
            raise ParseError("'+' or '-' expected between terms", pos)
        more = True
        if kind == "number":
            numerator *= value
            if tokens[i + 1][0] == "/":
                denom = tokens[i + 2]
                if denom[0] != "number" or denom[1] == 0:
                    _fail(denom, "nonzero denominator expected")
                denominator = denom[1]
                i += 2
            i += 1
            more = tokens[i][0] == "*"
            if more:
                i += 1
        factors: list[tuple[str, int, int]] = []
        while more:
            token = tokens[i]
            if token[0] != "gen":
                _fail(token, "generator expected")
            family, index = token[1]
            power = 1
            if tokens[i + 1][0] == "^":
                if family not in ("x", "dxi"):
                    raise ParseError(
                        f"'^' is not allowed on odd generator {family}{index}",
                        tokens[i + 1][2],
                    )
                exponent = tokens[i + 2]
                if exponent[0] != "number":
                    _fail(exponent, "exponent expected")
                power = exponent[1]
                i += 2
            factors.append((family, index, power))
            i += 1
            more = tokens[i][0] == "*"
            if more:
                i += 1
        terms.append((Fraction(numerator, denominator), factors))
        if tokens[i][0] == "end":
            return terms


_RANK_PREFIX = (
    ("=", "'=' expected after q"),
    ("number", "rank expected after q="),
    (":", "':' expected after rank prefix"),
)


def _strip_rank_prefix(tokens: list[tuple]) -> tuple[int | None, int]:
    """An optional "q=N:" prefix: (its rank or None, where the rest starts)."""
    if tokens[0][0] != "q":
        return None, 0
    for token, (kind, message) in zip(tokens[1:], _RANK_PREFIX):
        if token[0] != kind:
            _fail(token, message)
    return tokens[2][1], 4


def _element_from_terms(
    raw_terms: list[_RawTerm], rank: int, positions: int
) -> GrassmannElement:
    converted = []
    for coeff, factors in raw_terms:
        indices = []
        for kind, index, power in factors:
            if kind == "zeta":
                kind, index = "xi", 1
            if kind != "xi":
                raise ParseError(
                    f"{kind}{index} is not a Grassmann generator", positions
                )
            if _MAX_GENERATORS < index <= rank:
                raise BudgetExceeded(f"xi{index} is over the {_MAX_GENERATORS}-generator cap")
            indices.extend([index] * power)
        converted.append((indices, coeff))
    return normalize(rank, converted)


def parse_element(text: str, rank: int | None) -> GrassmannElement:
    tokens = _tokenize(text)
    prefix_rank, start = _strip_rank_prefix(tokens)
    if prefix_rank is not None:
        rank = prefix_rank
    if rank is None:
        raise ParseError("no rank given for element")
    return _element_from_terms(_parse_expression(tokens, start), rank, len(text))


def _check_dims(even_dim: int, odd_dim: int) -> None:
    if max(even_dim, odd_dim) > _MAX_GENERATORS:
        raise BudgetExceeded(f"domain ({even_dim}, {odd_dim}) is over the "
                             f"{_MAX_GENERATORS}-coordinate cap")


def parse_superfunction(text: str, spec: SuperDomainSpec) -> SuperFunction:
    _check_dims(spec.even_dim, spec.odd_dim)
    converted = []
    for coeff, factors in _parse_expression(_tokenize(text)):
        exponents = [0] * spec.even_dim
        odd: list[int] = []
        for kind, index, power in factors:
            if kind == "x":
                if index < 1 or index > spec.even_dim:
                    raise IndexOutOfRange(
                        f"index {index} outside 1..{spec.even_dim}"
                    )
                exponents[index - 1] += power
            elif kind == "th":
                odd.extend([index] * power)
            else:
                raise ParseError(
                    f"{kind}{index} is not a superfunction coordinate"
                )
        converted.append((tuple(exponents), odd, coeff))
    return SuperFunction.from_terms(spec, converted)


def parse_form(text: str, even_dim: int, odd_dim: int) -> SuperForm:
    _check_dims(even_dim, odd_dim)
    converted = []
    for coeff, factors in _parse_expression(_tokenize(text)):
        x_exp = [0] * even_dim
        dxi_exp = [0] * odd_dim
        xi_idx: list[int] = []
        dx_idx: list[int] = []
        cross_swaps = 0
        for kind, index, power in factors:
            if kind == "x":
                if index < 1 or index > even_dim:
                    raise IndexOutOfRange(
                        f"index {index} outside 1..{even_dim}"
                    )
                x_exp[index - 1] += power
            elif kind == "dxi":
                if index < 1 or index > odd_dim:
                    raise IndexOutOfRange(
                        f"index {index} outside 1..{odd_dim}"
                    )
                dxi_exp[index - 1] += power
            elif kind == "xi":
                # moving this xi left past every dx already written
                cross_swaps += len(dx_idx)
                xi_idx.extend([index] * power)
            elif kind == "dx":
                dx_idx.extend([index] * power)
            else:
                raise ParseError(f"{kind}{index} is not a form generator")
        if cross_swaps & 1:
            coeff = -coeff
        converted.append((tuple(x_exp), xi_idx, dx_idx, tuple(dxi_exp), coeff))
    return SuperForm.from_terms(even_dim, odd_dim, converted)


def _parse_assignments(
    text: str,
) -> list[tuple[int, list[_RawTerm], int]]:
    """Split map text into (generator index, raw expression, pos) rows."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        # the map with no assignments; legal for a rank-0 source
        return []
    out = []
    seen: set[int] = set()
    for group in _split_on_semicolons(tokens):
        kind, head, pos = group[0]
        if kind == "end":
            raise ParseError("empty assignment", pos)
        if kind != "gen" or head[0] != "xi":
            raise ParseError("assignment must start with xiK", pos)
        index = head[1]
        if index < 1:
            raise IndexOutOfRange(f"generator index {index} must be >= 1")
        if index in seen:
            raise ParseError(f"xi{index} assigned twice", pos)
        seen.add(index)
        if group[1][0] != "=":
            raise ParseError("'=' expected in assignment", pos)
        out.append((index, _parse_expression(group, 2), pos))
    return out


def _images(assignments, count: int, rank: int, what: str) -> tuple[GrassmannElement, ...]:
    """Images of xi1 .. xi<count> at rank, zero where unassigned."""
    if count > _MAX_GENERATORS:
        raise BudgetExceeded(f"{what} {count} is over the {_MAX_GENERATORS}-generator cap")
    images = [zero(rank)] * count
    for index, raw, pos in assignments:
        if index > count:
            raise IndexOutOfRange(f"xi{index} outside the rank-{count} source")
        images[index - 1] = _element_from_terms(raw, rank, pos)
    return tuple(images)


def parse_hom(text: str, source_rank: int, target_rank: int) -> GradedHom:
    images = _images(_parse_assignments(text), source_rank, target_rank, "map source rank")
    return make_hom(source_rank, images, target_rank)


def parse_endo(text: str) -> FiniteRangeEndo:
    assignments = _parse_assignments(text)
    support = max((index for index, _, _ in assignments), default=0)
    # the range rank is the largest generator index any image names
    range_rank = max((index for _, raw, _ in assignments for _, factors in raw
                      for kind, index, _ in factors if kind in ("xi", "zeta")), default=0)
    images = _images(assignments, support, range_rank, "endomorphism support")
    return FiniteRangeEndo(images, range_rank)


def parse_point(
    text: str, spec: SuperDomainSpec, default_rank: int | None
) -> QPoint:
    tokens = _tokenize(text)
    rank, start = _strip_rank_prefix(tokens)
    if rank is None:
        rank = default_rank
    if rank is None:
        raise ParseError("no rank given for point")
    expected = spec.even_dim + spec.odd_dim
    if expected == 0:
        kind, _, pos = tokens[start]
        if kind != "end":
            raise ParseError("0 coordinates expected", pos)
        return QPoint(rank, (), ())
    groups = _split_on_semicolons(tokens, start)
    if len(groups) != expected:
        raise ParseError(
            f"{expected} coordinates expected, got {len(groups)}"
        )
    coords = [
        _element_from_terms(_parse_expression(group), rank, len(text))
        for group in groups
    ]
    return QPoint(
        rank,
        tuple(coords[: spec.even_dim]),
        tuple(coords[spec.even_dim :]),
    )


def parse_scalar(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def parse(kind: str, text: str, **context) -> object:
    """Parse a payload of the given kind.

    Context keys by kind: element takes rank; superfunction, form, and
    point take even_dim and odd_dim (point also default_rank); hom takes
    source_rank and target_rank; endo takes nothing.
    """
    if kind == "element":
        return parse_element(text, context.get("rank"))
    if kind == "superfunction":
        return parse_superfunction(
            text, SuperDomainSpec(context["even_dim"], context["odd_dim"])
        )
    if kind == "form":
        return parse_form(text, context["even_dim"], context["odd_dim"])
    if kind == "hom":
        return parse_hom(text, context["source_rank"], context["target_rank"])
    if kind == "endo":
        return parse_endo(text)
    if kind == "point":
        return parse_point(
            text,
            SuperDomainSpec(context["even_dim"], context["odd_dim"]),
            context.get("default_rank"),
        )
    raise ValueError(f"unknown payload kind {kind!r}")


def print_canonical(value: object, *, zeta: bool = False, with_rank: bool = False) -> str:
    """Canonical text for any kernel value; inverse of parse.

    zeta prints a rank-1 element's generator as zeta, with_rank prefixes
    a point with its q=; the other kinds take neither.
    """
    if isinstance(value, GrassmannElement):
        return value.to_text(zeta=zeta)
    if isinstance(value, QPoint):
        return value.to_text(with_rank=with_rank)
    if isinstance(
        value, (SuperFunction, SuperForm, GradedHom, FiniteRangeEndo, LimitPoint)
    ):
        return value.to_text()
    raise TypeError(f"no canonical text form for {type(value).__name__}")
