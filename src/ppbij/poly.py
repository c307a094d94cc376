"""Exact sparse multivariate polynomial arithmetic over the integers.

Coefficients are Python ints (arbitrary precision); exponent vectors are
dense tuples over a fixed variable table.  A graded-lexicographic order
fixes term iteration everywhere, so printing and serialization are
deterministic.  Nothing here is ever floating point.

Truncated infinite products are expanded by `product_series` in place:
each factor 1/(1 - c*x^e) is one pass over the running series's terms,
adding c*s[t] to s[t+e], and a negative multiplicity multiplies by
1 - c*x^e the same way, subtracting.  Arithmetic output is wrapped
without a second validation (`MultiPoly._from_terms`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import add, index


class VarTable:
    """An ordered list of named variable families with arities.

    Example: VarTable([("x", 2), ("z", 3), ("q", 1)]) flattens to the
    variables x1, x2, z1, z2, z3, q.  A family of arity 1 prints without
    an index.
    """

    __slots__ = ("families", "_offsets", "nvars")

    def __init__(self, families: Iterable[tuple[str, int]]):
        families = tuple((name, index(arity)) for name, arity in families)
        names = [name for name, _ in families]
        if not all(isinstance(name, str) for name in names):
            raise TypeError("family names must be strings")
        if len(set(names)) != len(names):
            raise ValueError("family names must be unique")
        if any(arity < 0 for _, arity in families):
            raise ValueError("arities must be nonnegative")
        self.families = families
        self._offsets = {}
        pos = 0
        for name, arity in families:
            self._offsets[name] = pos
            pos += arity
        self.nvars = pos

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.families == other.families

    def __hash__(self) -> int:
        return hash(self.families)

    def __repr__(self) -> str:
        return f"VarTable({list(self.families)})"

    def arity(self, family: str) -> int:
        for name, arity in self.families:
            if name == family:
                return arity
        raise KeyError(family)

    def index(self, family: str, i: int = 1) -> int:
        """Flat variable index of family member i (1-based)."""
        if not 1 <= i <= self.arity(family):
            raise IndexError(f"{family}[{i}] out of range")
        return self._offsets[family] + i - 1

    def family_slice(self, family: str) -> slice:
        start = self._offsets[family]
        return slice(start, start + self.arity(family))

    def var_names(self) -> list[str]:
        out = []
        for name, arity in self.families:
            if arity == 1:
                out.append(name)
            else:
                out.extend(f"{name}{i}" for i in range(1, arity + 1))
        return out


class Truncation:
    """Degree window for series expansions: a cap on the degree over one
    family's variables, or over every variable when `family` is None.
    """

    __slots__ = ("cap", "family")

    def __init__(self, cap: int, family: str | None = None):
        cap = index(cap)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        if family is not None and not isinstance(family, str):
            raise TypeError("family must be a string or None")
        self.cap = cap
        self.family = family

    def __eq__(self, other) -> bool:
        return isinstance(other, Truncation) and \
            (self.cap, self.family) == (other.cap, other.family)

    def __hash__(self) -> int:
        return hash((self.cap, self.family))

    def __repr__(self) -> str:
        return f"Truncation(cap={self.cap!r}, family={self.family!r})"

    def variables(self, table: VarTable) -> slice:
        """The variables whose degree the cap bounds."""
        if self.family is None:
            return slice(0, table.nvars)
        return table.family_slice(self.family)

    def kept_terms(self, table: VarTable, terms: Mapping[tuple[int, ...], int]
                   ) -> dict[tuple[int, ...], int]:
        """The terms whose exponent the window keeps."""
        variables, cap = self.variables(table), self.cap
        return {exp: coef for exp, coef in terms.items()
                if sum(exp[variables]) <= cap}


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


def format_monomial(names: Sequence[str], exp: Sequence[int]) -> str:
    """An exponent vector over the names as x1^2*z3; "" for the constant."""
    return "*".join(names[i] + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exp) if e)


class MultiPoly:
    """A sparse polynomial: map from exponent vector to nonzero integer
    coefficient, over a fixed VarTable.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], int] = ()):
        self.table = table
        nvars = table.nvars
        clean = {}
        for exp, coef in dict(terms).items():
            exp = tuple(map(index, exp))
            if len(exp) != nvars:
                raise ValueError("exponent vector has wrong length")
            if exp and min(exp) < 0:
                raise ValueError("negative exponent")
            coef = index(coef)
            if coef:
                clean[exp] = coef
        self.terms = clean

    @classmethod
    def _from_terms(cls, table: VarTable, terms: dict) -> "MultiPoly":
        """Wrap arithmetic output without validating it: `terms` must
        already map exponent tuples of length table.nvars to nonzero
        ints.  Public input goes through __init__.
        """
        poly = object.__new__(cls)
        poly.table = table
        poly.terms = terms
        return poly

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "MultiPoly":
        return MultiPoly(table)

    @staticmethod
    def const(table: VarTable, c: int) -> "MultiPoly":
        return MultiPoly(table, {(0,) * table.nvars: c})

    @staticmethod
    def one(table: VarTable) -> "MultiPoly":
        return MultiPoly.const(table, 1)

    @staticmethod
    def var(table: VarTable, family: str, i: int = 1, power: int = 1) -> "MultiPoly":
        exp = [0] * table.nvars
        exp[table.index(family, i)] = power
        return MultiPoly(table, {tuple(exp): 1})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Sequence[int]) -> int:
        return self.terms.get(tuple(exp), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def single_term(self) -> tuple[tuple[int, ...], int]:
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        return next(iter(self.terms.items()))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.table != other.table:
            raise ValueError("mismatched variable tables")

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.table == other.table
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(self.table, other)
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            c = out.get(exp, 0) + coef
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return MultiPoly._from_terms(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_terms(self.table,
                                     {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return MultiPoly(self.table, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

    def mul_truncated(self, other: "MultiPoly", trunc: Truncation | None) -> "MultiPoly":
        """Product, dropping result monomials over the truncation's cap."""
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        out = {e: c for e, c in out.items() if c}
        if trunc is not None:
            out = trunc.kept_terms(self.table, out)
        return MultiPoly._from_terms(self.table, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, trunc: Truncation) -> "MultiPoly":
        return MultiPoly(self.table, trunc.kept_terms(self.table, self.terms))

    # -- rendering -----------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.var_names()
        parts = []
        for exp, coef in self.sorted_terms():
            body = format_monomial(names, exp)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


# -- series and specialization helpers --------------------------------


def product_series(table: VarTable, factors: Iterable[tuple[MultiPoly, int]],
                   trunc: Truncation) -> MultiPoly:
    """Truncated expansion of prod 1/(1 - mono)^mult over the given
    (monomial, multiplicity) factors; 1 for no factors.  A negative
    multiplicity multiplies by (1 - mono)^-mult.

    The running series s is updated in place, one pass over its terms
    per unit of multiplicity, with its exponents kept in lists by capped
    degree.  Dividing by 1 - c*x^e visits them in increasing degree and
    adds c*s[t] to s[t+e], so each s[t] is final when it is read;
    multiplying by 1 - c*x^e visits them in decreasing degree and
    subtracts c*s[t] from s[t+e], so each s[t] is still the old value
    when it is read.  No term over the cap is formed.
    """
    variables, cap = trunc.variables(table), trunc.cap
    zero = (0,) * table.nvars
    series = {zero: 1}
    by_degree = [[zero]] + [[] for _ in range(cap)]
    for mono, mult in factors:
        if mono.table != table:
            raise ValueError("mismatched variable tables")
        exp, coef = mono.single_term()
        if sum(exp) == 0:
            raise ValueError("non-invertible truncation")
        step = sum(exp[variables])
        if step == 0:
            raise ValueError("truncation does not bound the series")
        degrees = range(cap - step + 1)
        if mult < 0:
            degrees, coef = degrees[::-1], -coef
        for _ in range(abs(mult)):
            for d in degrees:
                later = by_degree[d + step]
                for t in by_degree[d]:
                    c = series[t]
                    if c:
                        u = tuple(map(add, t, exp))
                        if u in series:
                            series[u] += coef * c
                        else:
                            series[u] = coef * c
                            later.append(u)
    return MultiPoly._from_terms(table,
                                 {e: c for e, c in series.items() if c})


def elementary_all(table: VarTable, kmax: int,
                   vals: Sequence[MultiPoly]) -> list[MultiPoly]:
    """[e_0, ..., e_kmax] evaluated at vals, by the one-value-at-a-time
    recurrence.
    """
    e = [MultiPoly.one(table)] + [MultiPoly.zero(table)] * kmax
    for v in vals:
        for j in range(kmax, 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e


def determinant(table: VarTable,
                matrix: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Exact determinant of a square matrix of polynomials, by cofactor
    expansion along the first row (zero entries are skipped); 1 for the
    empty matrix.
    """
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return _det_cofactor(table, matrix)


def _det_cofactor(table: VarTable,
                  m: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    n = len(m)
    if n == 0:
        return MultiPoly.one(table)
    if n == 1:
        return m[0][0]
    total = MultiPoly.zero(table)
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [[m[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = m[0][j] * _det_cofactor(table, minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
