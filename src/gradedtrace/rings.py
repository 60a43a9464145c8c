"""Graded-commutative coefficient rings with exact integer arithmetic.

Three kinds of ring are supported: the integers, multivariate polynomials
over the integers, and Laurent polynomials over the integers (every variable
invertible).  All generator degrees are even, so the rings are honestly
commutative and no Koszul signs enter ring arithmetic.  Elements are sparse
maps from exponent vectors to nonzero arbitrary-precision integers; there is
no floating point anywhere.  RingElement(...), RingSpec.element and
RingSpec.monomial validate outside input; arithmetic results are legal by
construction and build unchecked through RingElement._clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Iterator, Mapping

INTEGERS = "integers"
POLYNOMIAL = "polynomial"
LAURENT = "laurent"

GRADING_Z = "Z"
GRADING_Z2 = "Z/2"


class RingMismatch(ValueError):
    """Operands belong to different rings."""


class HomogeneityError(ValueError):
    """A value that must be homogeneous of a specific degree is not."""


class _AnyDegree:
    """Degree of the zero element: compatible with every degree."""

    def __repr__(self) -> str:
        return "ANY_DEGREE"


class _Inhomogeneous:
    """Degree report for an element whose terms have mixed degrees."""

    def __repr__(self) -> str:
        return "INHOMOGENEOUS"


ANY_DEGREE = _AnyDegree()
INHOMOGENEOUS = _Inhomogeneous()


@dataclass(frozen=True)
class RingSpec:
    """Identity of a graded coefficient ring.

    kind is one of "integers", "polynomial", "laurent"; var_degrees are even;
    grading is "Z" or "Z/2".  Two specs are interchangeable iff they are
    equal.  The spec doubles as an element factory.  Each spec object
    keeps one element 1, built with it and handed out by one().
    """

    kind: str
    var_names: tuple[str, ...] = ()
    var_degrees: tuple[int, ...] = ()
    grading: str = GRADING_Z

    def __post_init__(self) -> None:
        if self.kind not in (INTEGERS, POLYNOMIAL, LAURENT):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.grading not in (GRADING_Z, GRADING_Z2):
            raise ValueError(f"unknown grading group {self.grading!r}")
        if self.kind == INTEGERS:
            if self.var_names or self.var_degrees:
                raise ValueError("the integer ring has no generators")
        else:
            if not self.var_names:
                raise ValueError(f"{self.kind} ring needs at least one generator")
            if len(self.var_names) != len(self.var_degrees):
                raise ValueError("one degree per generator required")
            if len(set(self.var_names)) != len(self.var_names):
                raise ValueError("generator names must be distinct")
        for name, deg in zip(self.var_names, self.var_degrees):
            if deg % 2 != 0:
                raise ValueError(
                    f"generator {name} has odd degree {deg}; only even degrees are supported"
                )
        object.__setattr__(self, "_one", RingElement._clean(self, {(0,) * self.nvars: 1}))

    # -- element factories ------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def element(self, terms: Mapping[tuple[int, ...], int]) -> RingElement:
        return RingElement(self, terms)

    def const(self, c: int) -> RingElement:
        return RingElement._clean(self, {(0,) * self.nvars: c} if c else {})

    def zero(self) -> RingElement:
        return RingElement._clean(self, {})

    def one(self) -> RingElement:
        """The same element 1 on every call for this spec object.

        Elements never change, so the identity, unit, counit and braiding
        all share it, and compose and tensor_homs hand the other factor
        over where an entry is this element instead of multiplying by 1.
        An equal but distinct spec has its own one; const(1) is fresh.
        """
        return self._one  # type: ignore[attr-defined]

    def gen(self, name: str, power: int = 1) -> RingElement:
        i = self.var_names.index(name)
        exp = [0] * self.nvars
        exp[i] = power
        return self.monomial(tuple(exp))

    def monomial(self, exponents: tuple[int, ...], coeff: int = 1) -> RingElement:
        return RingElement(self, {tuple(exponents): coeff})

    def term_degree(self, exponents: tuple[int, ...]) -> int:
        d = sum(map(mul, exponents, self.var_degrees))
        return d % 2 if self.grading == GRADING_Z2 else d

    def reduce_degree(self, d: int) -> int:
        return d % 2 if self.grading == GRADING_Z2 else d

    def degrees_match(self, a: int, b: int) -> bool:
        return self.reduce_degree(a) == self.reduce_degree(b)

    def __str__(self) -> str:
        if self.kind == INTEGERS:
            base = "Z"
        else:
            gens = []
            for name, deg in zip(self.var_names, self.var_degrees):
                gens.append(f"{name}:{deg}")
                if self.kind == LAURENT:
                    gens.append(f"{name}^-1")
            base = "Z[" + ",".join(gens) + "]"
        return base + (" mod2" if self.grading == GRADING_Z2 else "")


def integers(grading: str = GRADING_Z) -> RingSpec:
    return RingSpec(INTEGERS, grading=grading)


def polynomial_ring(
    names: Iterable[str], degrees: Iterable[int], grading: str = GRADING_Z
) -> RingSpec:
    return RingSpec(POLYNOMIAL, tuple(names), tuple(degrees), grading)


def laurent_ring(
    names: Iterable[str], degrees: Iterable[int], grading: str = GRADING_Z
) -> RingSpec:
    return RingSpec(LAURENT, tuple(names), tuple(degrees), grading)


# Expansion caps, applied by the parser to each "^" and "*" it reads and by
# RingMap to each power and product it forms.  A power p^n of a k-term p is
# refused unexpanded when its comb(n + k - 1, k - 1) terms pass _POWER_TERMS,
# or when its n * ceil(log2(sum |c|)) coefficient bits pass _POWER_BITS.  A
# product p*q is refused unexpanded when len(p) * len(q) passes
# _PRODUCT_TERMS or when the bit lengths of the largest coefficients of p and
# q add up past _PRODUCT_BITS, so no single product or power makes more
# terms, or much longer coefficients, than that.
_POWER_TERMS = 256
_POWER_BITS = 2048
_PRODUCT_TERMS = _POWER_TERMS**2
_PRODUCT_BITS = 2**16
_EXPANSION_CAPS = (
    f"{_POWER_TERMS} terms, {_POWER_BITS} coefficient bits, "
    f"{_PRODUCT_TERMS} terms in a product, {_PRODUCT_BITS} coefficient bits in a product"
)


def _power_fits(n: int, terms: int, norm: int) -> bool:
    """Whether p^n fits the caps, for n >= 0 and p with these terms and sum of |coefficients|."""
    bits = n * max(norm - 1, 0).bit_length()
    return bits <= _POWER_BITS and (terms <= 1 or math.comb(n + terms - 1, terms - 1) <= _POWER_TERMS)


def _product_fits(terms: int, bits: int) -> bool:
    """Whether a product with this many term pairs and coefficient bits fits the caps."""
    return terms <= _PRODUCT_TERMS and bits <= _PRODUCT_BITS


def _coefficient_bits(e: RingElement) -> int:
    """Bit length of the largest coefficient of e."""
    return max((abs(c) for c in e._terms.values()), default=0).bit_length()


_CHUNK = 10**600  # the interpreter's limit on str(int) is never below 640 digits


def _decimal(n: int) -> str:
    """The decimal digits of n >= 0, however many, converted 600 at a time."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0600d}")
    return str(n) + "".join(reversed(chunks))


def _monomial_sort_key(exp: tuple[int, ...]) -> tuple:
    # Degree-reverse-lexicographic: higher total exponent first, ties broken
    # by the reversed negated exponent vector.  Used for printing, so output
    # is deterministic; the Groebner engine's packed term keys order the
    # monomials at one position the same way.
    return (sum(exp), tuple(-e for e in reversed(exp)))


class RingElement:
    """A sparse exact ring element.

    Canonical form (no zero coefficients) is enforced at construction, so
    two elements are equal iff their term maps are identical.  Instances are
    immutable by convention; all arithmetic returns new elements.  A product
    of two terms is one term, and a product with a constant factor scales
    the other factor's terms instead of convolving them.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        for exp, coeff in terms.items():
            if coeff == 0:
                continue
            exp = tuple(exp)
            if len(exp) != ring.nvars:
                raise ValueError(
                    f"exponent vector {exp} has wrong length for {ring}"
                )
            if ring.kind != LAURENT and any(e < 0 for e in exp):
                raise ValueError(
                    f"negative exponent in {exp}: only Laurent variables are invertible"
                )
            clean[exp] = coeff
        self.ring = ring
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def _clean(cls, ring: RingSpec, terms: dict[tuple[int, ...], int]) -> RingElement:
        """The element that takes over terms, a fresh zero-free dict of legal exponents."""
        element = object.__new__(cls)
        element.ring, element._terms, element._hash = ring, terms, None
        return element

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exponents: tuple[int, ...]) -> int:
        return self._terms.get(tuple(exponents), 0)

    def degree(self):
        """The grading degree: an int, ANY_DEGREE for 0, or INHOMOGENEOUS."""
        if not self._terms:
            return ANY_DEGREE
        degs = {self.ring.term_degree(exp) for exp in self._terms}
        if len(degs) > 1:
            return INHOMOGENEOUS
        return degs.pop()

    def has_degree(self, d: int) -> bool:
        """True iff homogeneous of degree d (the zero element always is)."""
        ring = self.ring
        want = ring.reduce_degree(d)
        for exp in self._terms:
            if ring.term_degree(exp) != want:
                return False
        return True

    def homogeneous_component(self, d: int) -> RingElement:
        want = self.ring.reduce_degree(d)
        picked = {
            exp: c
            for exp, c in self._terms.items()
            if self.ring.term_degree(exp) == want
        }
        return RingElement._clean(self.ring, picked)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> RingElement:
        if isinstance(other, RingElement):
            if not (other.ring is self.ring or other.ring == self.ring):
                raise RingMismatch(f"{other.ring} is not {self.ring}")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> RingElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return RingElement._clean(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> RingElement:
        return RingElement._clean(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> RingElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RingElement:
        return (-self) + other

    def __mul__(self, other) -> RingElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self._terms) == 1 and len(other._terms) == 1:
            ((e1, c1),), ((e2, c2),) = self._terms.items(), other._terms.items()
            return RingElement._clean(self.ring, {tuple(map(add, e1, e2)): c1 * c2})
        for const, rest in (self._terms, other._terms), (other._terms, self._terms):
            if len(const) == 1 and not any(next(iter(const))):
                (c,) = const.values()
                terms = dict(rest) if c == 1 else {e: c * x for e, x in rest.items()}
                return RingElement._clean(self.ring, terms)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return RingElement._clean(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RingElement:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.unit_inverse() ** (-n)
        if not n:
            return self.ring.one()
        if n == 1:  # elements are immutable, so x**1 is x itself
            return self
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    # -- units ---------------------------------------------------------------

    def is_unit(self) -> bool:
        if len(self._terms) != 1:
            return False
        (exp, coeff), = self._terms.items()
        if coeff not in (1, -1):
            return False
        if self.ring.kind == LAURENT:
            return True
        return all(e == 0 for e in exp)

    def unit_inverse(self) -> RingElement:
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit in {self.ring}")
        (exp, coeff), = self._terms.items()
        return RingElement._clean(self.ring, {tuple(-e for e in exp): coeff})

    # -- equality and printing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self._terms
            other = self.ring.const(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        same_ring = self.ring is other.ring or self.ring == other.ring
        return same_ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(
            self._terms.items(), key=lambda t: _monomial_sort_key(t[0]), reverse=True
        )

    def __str__(self) -> str:
        text, names = "", self.ring.var_names
        for exp, coeff in self.sorted_terms():
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e]
            if abs(coeff) != 1 or not factors:
                factors.insert(0, _decimal(abs(coeff)))
            if text:
                text += " - " if coeff < 0 else " + "
            elif coeff < 0:
                text = "-"
            text += "*".join(factors)
        return text or "0"

    def __repr__(self) -> str:
        return f"<{self} over {self.ring}>"


@dataclass(frozen=True)
class RingMap:
    """A degree-preserving ring homomorphism given by generator images.

    Each image must be homogeneous of the generator's degree, measured in
    the target grading; the target grading may be coarser than the source
    (Z -> Z/2 reduction is allowed, the reverse is not).  Images of
    invertible generators must be units of the target.
    """

    source: RingSpec
    target: RingSpec
    images: tuple[RingElement, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.source.nvars:
            raise ValueError("one image per source generator required")
        if self.source.grading == GRADING_Z2 and self.target.grading == GRADING_Z:
            raise ValueError("cannot refine a Z/2 grading to a Z grading")
        for name, deg, img in zip(
            self.source.var_names, self.source.var_degrees, self.images
        ):
            if img.ring != self.target:
                raise RingMismatch(f"image of {name} lives in {img.ring}, not {self.target}")
            if not img.has_degree(deg):
                raise HomogeneityError(
                    f"image of {name} must be homogeneous of degree {deg}, got {img}"
                )
            if self.source.kind == LAURENT and not img.is_unit():
                raise ValueError(
                    f"image of invertible generator {name} must be a unit, got {img}"
                )

    def __call__(self, a: RingElement) -> RingElement:
        """The image of a, refused with ValueError when a power or product passes the caps."""
        if a.ring != self.source:
            raise RingMismatch(f"{a.ring} is not {self.source}")
        total = self.target.zero()
        for exp, coeff in a.items():
            value = self.target.const(coeff)
            for name, img, e in zip(self.source.var_names, self.images, exp):
                if e == 0:
                    continue
                if e < 0 and not img.is_unit():
                    raise ValueError(
                        f"negative exponent {e} needs an invertible image, got {img}"
                    )
                norm = sum(abs(c) for c in img._terms.values())
                power = img**e if _power_fits(abs(e), len(img), norm) else None
                if power is None or not _product_fits(
                    len(value) * len(power), _coefficient_bits(value) + _coefficient_bits(power)
                ):
                    raise ValueError(f"the image of {name}^{e} expands past the caps: {_EXPANSION_CAPS}")
                value = value * power
            total = total + value
        return total

    def __str__(self) -> str:
        arrows = ", ".join(
            f"{n} -> {img}" for n, img in zip(self.source.var_names, self.images)
        )
        return f"{self.source} -> {self.target} [{arrows}]"
