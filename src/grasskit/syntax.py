"""Text grammar shared by the CLI and the round-trip tests.

One tokenizer covers every payload kind.  Generator tokens are xiK
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
from dataclasses import dataclass
from fractions import Fraction

from .derham import SuperForm
from .errors import IndexOutOfRange, ParseError
from .grassmann import GrassmannElement, normalize, zero
from .homs import GradedHom, make_hom
from .points import QPoint, SuperDomainSpec, SuperFunction
from .semigroup import FiniteRangeEndo, LimitPoint

__all__ = ["parse", "parse_scalar", "print_canonical"]


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "gen" | "op" | "q"
    value: object
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+)"
    r"|(?P<gen>zeta|dxi\d+|dx\d+|xi\d+|x\d+|th\d+)"
    r"|(?P<q>q)"
    r"|(?P<op>[+\-*/^=;:])"
)

_GEN_RE = re.compile(r"(dxi|dx|xi|x|th)(\d+)")


def _to_int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:
        # int() refuses digit strings longer than the interpreter's limit
        raise ParseError(f"{len(digits)}-digit number is too long", pos) from None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup == "number":
            tokens.append(_Token("number", _to_int(match.group(), pos), pos))
        elif match.lastgroup == "gen":
            word = match.group()
            if word == "zeta":
                tokens.append(_Token("gen", ("zeta", 1), pos))
            else:
                kind, index = _GEN_RE.fullmatch(word).groups()
                tokens.append(_Token("gen", (kind, _to_int(index, pos)), pos))
        elif match.lastgroup == "q":
            tokens.append(_Token("q", "q", pos))
        elif match.lastgroup == "op":
            tokens.append(_Token("op", match.group(), pos))
        pos = match.end()
    return tokens


def _split_on(tokens: list[_Token], op: str) -> list[list[_Token]]:
    groups: list[list[_Token]] = []
    current: list[_Token] = []
    for tok in tokens:
        if tok.kind == "op" and tok.value == op:
            groups.append(current)
            current = []
        else:
            current.append(tok)
    groups.append(current)
    return groups


# a parsed term: (coefficient, [(generator kind, index, power), ...])
_RawTerm = tuple[Fraction, list[tuple[str, int, int]]]


class _Stream:
    def __init__(self, tokens: list[_Token], end_pos: int):
        self.tokens = tokens
        self.i = 0
        self.end_pos = end_pos

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.end_pos)
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.value in ops


def _parse_number(stream: _Stream) -> Fraction:
    tok = stream.take()
    if tok.kind != "number":
        raise ParseError("number expected", tok.pos)
    value = Fraction(tok.value)
    if stream.at_op("/"):
        stream.take()
        denom_tok = stream.take()
        if denom_tok.kind != "number" or denom_tok.value == 0:
            raise ParseError("nonzero denominator expected", denom_tok.pos)
        value /= denom_tok.value
    return value


def _parse_term(stream: _Stream, allow_sign: bool) -> _RawTerm:
    sign = 1
    if allow_sign and stream.at_op("+", "-"):
        if stream.take().value == "-":
            sign = -1
    tok = stream.peek()
    if tok is None:
        raise ParseError("empty term", stream.end_pos)

    coeff = Fraction(sign)
    factors: list[tuple[str, int, int]] = []

    if tok.kind == "number":
        coeff *= _parse_number(stream)
        if not stream.at_op("*"):
            return coeff, factors
        stream.take()

    while True:
        tok = stream.take()
        if tok.kind != "gen":
            raise ParseError("generator expected", tok.pos)
        kind, index = tok.value
        power = 1
        if stream.at_op("^"):
            caret = stream.take()
            if kind not in ("x", "dxi"):
                raise ParseError(
                    f"'^' is not allowed on odd generator {kind}{index}",
                    caret.pos,
                )
            power_tok = stream.take()
            if power_tok.kind != "number":
                raise ParseError("exponent expected", power_tok.pos)
            power = power_tok.value
        factors.append((kind, index, power))
        if stream.at_op("*"):
            stream.take()
            continue
        return coeff, factors


def _parse_expression(tokens: list[_Token], end_pos: int) -> list[_RawTerm]:
    stream = _Stream(tokens, end_pos)
    if stream.peek() is None:
        raise ParseError("empty expression", end_pos)
    terms = [_parse_term(stream, allow_sign=True)]
    while True:
        tok = stream.peek()
        if tok is None:
            return terms
        if tok.kind == "op" and tok.value in ("+", "-"):
            stream.take()
            coeff, factors = _parse_term(stream, allow_sign=False)
            if tok.value == "-":
                coeff = -coeff
            terms.append((coeff, factors))
            continue
        raise ParseError("'+' or '-' expected between terms", tok.pos)


def _strip_rank_prefix(
    tokens: list[_Token], end_pos: int
) -> tuple[int | None, list[_Token]]:
    if tokens and tokens[0].kind == "q":
        stream = _Stream(tokens, end_pos)
        stream.take()
        eq = stream.take()
        if eq.kind != "op" or eq.value != "=":
            raise ParseError("'=' expected after q", eq.pos)
        rank_tok = stream.take()
        if rank_tok.kind != "number":
            raise ParseError("rank expected after q=", rank_tok.pos)
        colon = stream.take()
        if colon.kind != "op" or colon.value != ":":
            raise ParseError("':' expected after rank prefix", colon.pos)
        return rank_tok.value, tokens[stream.i :]
    return None, tokens


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
            indices.extend([index] * power)
        converted.append((indices, coeff))
    return normalize(rank, converted)


def parse_element(text: str, rank: int | None) -> GrassmannElement:
    tokens = _tokenize(text)
    prefix_rank, tokens = _strip_rank_prefix(tokens, len(text))
    if prefix_rank is not None:
        rank = prefix_rank
    if rank is None:
        raise ParseError("no rank given for element")
    raw = _parse_expression(tokens, len(text))
    return _element_from_terms(raw, rank, len(text))


def parse_superfunction(text: str, spec: SuperDomainSpec) -> SuperFunction:
    tokens = _tokenize(text)
    raw = _parse_expression(tokens, len(text))
    converted = []
    for coeff, factors in raw:
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
    tokens = _tokenize(text)
    raw = _parse_expression(tokens, len(text))
    converted = []
    for coeff, factors in raw:
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
    if not tokens:
        # the map with no assignments; legal for a rank-0 source
        return []
    out = []
    seen: set[int] = set()
    for group in _split_on(tokens, ";"):
        if not group:
            raise ParseError("empty assignment", len(text))
        head = group[0]
        if head.kind != "gen" or head.value[0] != "xi":
            raise ParseError("assignment must start with xiK", head.pos)
        index = head.value[1]
        if index < 1:
            raise IndexOutOfRange(f"generator index {index} must be >= 1")
        if index in seen:
            raise ParseError(f"xi{index} assigned twice", head.pos)
        seen.add(index)
        if len(group) < 2 or group[1].kind != "op" or group[1].value != "=":
            raise ParseError("'=' expected in assignment", head.pos)
        out.append((index, _parse_expression(group[2:], len(text)), head.pos))
    return out


def parse_hom(text: str, source_rank: int, target_rank: int) -> GradedHom:
    assignments = _parse_assignments(text)
    images = [zero(target_rank)] * source_rank
    for index, raw, pos in assignments:
        if index > source_rank:
            raise IndexOutOfRange(
                f"xi{index} outside the rank-{source_rank} source"
            )
        images[index - 1] = _element_from_terms(raw, target_rank, pos)
    return make_hom(source_rank, images, target_rank)


def parse_endo(text: str) -> FiniteRangeEndo:
    assignments = _parse_assignments(text)
    if not assignments:
        return FiniteRangeEndo((), 0)
    support = max(index for index, _, _ in assignments)
    range_rank = 0
    for _, raw, _ in assignments:
        for _, factors in raw:
            for kind, index, _ in factors:
                if kind in ("xi", "zeta"):
                    range_rank = max(range_rank, index)
    images: list[GrassmannElement | None] = [None] * support
    for index, raw, pos in assignments:
        images[index - 1] = _element_from_terms(raw, range_rank, pos)
    filled = tuple(
        img if img is not None else zero(range_rank) for img in images
    )
    return FiniteRangeEndo(filled, range_rank)


def parse_point(
    text: str, spec: SuperDomainSpec, default_rank: int | None
) -> QPoint:
    tokens = _tokenize(text)
    rank, tokens = _strip_rank_prefix(tokens, len(text))
    if rank is None:
        rank = default_rank
    if rank is None:
        raise ParseError("no rank given for point")
    expected = spec.even_dim + spec.odd_dim
    if expected == 0:
        if tokens:
            raise ParseError("0 coordinates expected", tokens[0].pos)
        return QPoint(rank, (), ())
    groups = _split_on(tokens, ";")
    if len(groups) != expected:
        raise ParseError(
            f"{expected} coordinates expected, got {len(groups)}"
        )
    coords = [
        _element_from_terms(_parse_expression(group, len(text)), rank, len(text))
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
