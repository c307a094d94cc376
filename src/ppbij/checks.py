"""Named identity checks.

Each check computes both sides of one identity through disjoint code
paths (exhaustive enumeration / the matrix bijection on one side, a
closed-form product or determinant on the other) and reports exact
equality with a term-level diff.  There are no tolerances anywhere.

Series checks enumerate over a finite window (volume-bounded plane
partitions, weight-bounded matrices or width-bounded shapes); the
finiteness argument is enforced at run time by comparing the truncated
output with that of the window enlarged by one step.  One pass over the
enlarged window yields both: every object carries the least window that
holds it, and those inside the base window are tallied twice
(`_window_pair`).

Each record also carries a SHA-256 digest of each side's values, so a
fault that keeps every term count but changes a coefficient still shows
against a recorded run.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from operator import add

from .bijection import greene_shape, phi, phi_inverse, \
    strict_tableau_to_word, word_to_strict_tableau
from .core import NMatrix, Partition
from .enumeration import column_strict_contents, compositions, \
    count_D_alpha, dominates, f_lambda, gen_matrix_images, \
    gen_partitions_in_box, gen_pp_box, gen_words
from .poly import MultiPoly, Truncation, VarTable, format_monomial, \
    product_series
from .symfun import descent_monomial, family_vars, g_combinatorial, \
    g_refined, ones, q_powers, schur_specialized, square_free_coefficient


class CheckResult:
    """Outcome of one identity check: pass/fail plus the first differing
    monomial when the two sides disagree.  Records compare by value and
    pickle, so a process pool can return them.
    """

    __slots__ = ("check_name", "parameters", "passed", "lhs_summary",
                 "rhs_summary", "first_diff", "elapsed", "notes", "digest")

    def __init__(self, check_name: str, parameters: dict, passed: bool,
                 lhs_summary: str, rhs_summary: str,
                 first_diff: tuple[str, str, str] | None, elapsed: float,
                 notes: list[str] | None = None,
                 digest: dict[str, str] | None = None):
        self.check_name = check_name
        self.parameters = parameters
        self.passed = passed
        self.lhs_summary = lhs_summary
        self.rhs_summary = rhs_summary
        self.first_diff = first_diff
        self.elapsed = elapsed
        self.notes = [] if notes is None else notes
        self.digest = digest

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not CheckResult:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"CheckResult({fields})"

    def to_json(self) -> dict:
        return {
            "check": self.check_name,
            "parameters": self.parameters,
            "pass": self.passed,
            "lhs": self.lhs_summary,
            "rhs": self.rhs_summary,
            "first_diff": list(self.first_diff) if self.first_diff else None,
            "digest": self.digest,
            "elapsed": round(self.elapsed, 6),
            "notes": self.notes,
        }


def _poly_diff(label: str, lhs: MultiPoly, rhs: MultiPoly):
    """First differing monomial (ascending graded-lex), or None."""
    exps = sorted(set(lhs.terms) | set(rhs.terms), key=lambda e: (sum(e), e))
    names = lhs.table.var_names()
    for exp in exps:
        a, b = lhs.coefficient(exp), rhs.coefficient(exp)
        if a != b:
            mono = format_monomial(names, exp) or "1"
            return (f"{label}:{mono}", str(a), str(b))
    return None


def _side_digest(sides) -> str:
    """SHA-256 over (label, value) for each labelled side: a polynomial's
    terms sorted by exponent, any other value as its string.
    """
    # imported here, not with the module: hashlib maps OpenSSL (3-4 MB
    # of RSS, ~5 ms), which only a check's record needs
    import hashlib
    h = hashlib.sha256()
    for label, side in sides:
        value = sorted(side.terms.items()) if isinstance(side, MultiPoly) \
            else str(side)
        h.update(json.dumps([label, value], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _build(name: str, params: dict, pairs, t0: float,
           notes: list[str] | None = None) -> CheckResult:
    """Assemble a CheckResult from labelled (lhs, rhs) comparisons, which
    may mix MultiPoly and plain integer sides.
    """
    first_diff = None
    lhs_bits, rhs_bits = [], []
    for label, lhs, rhs in pairs:
        if isinstance(lhs, MultiPoly):
            lhs_bits.append(f"{label}: {len(lhs.terms)} terms")
            rhs_bits.append(f"{label}: {len(rhs.terms)} terms")
            if first_diff is None:
                first_diff = _poly_diff(label, lhs, rhs)
        else:
            lhs_bits.append(f"{label}: {lhs}")
            rhs_bits.append(f"{label}: {rhs}")
            if first_diff is None and lhs != rhs:
                first_diff = (label, str(lhs), str(rhs))
    digest = {"lhs": _side_digest((label, lhs) for label, lhs, _ in pairs),
              "rhs": _side_digest((label, rhs) for label, _, rhs in pairs)}
    return CheckResult(
        check_name=name,
        parameters=params,
        passed=first_diff is None,
        lhs_summary="; ".join(lhs_bits),
        rhs_summary="; ".join(rhs_bits),
        first_diff=first_diff,
        elapsed=time.perf_counter() - t0,
        notes=notes,
        digest=digest,
    )


_QT = VarTable([("q", 1)])
_TQT = VarTable([("t", 1), ("q", 1)])


def _q(power: int = 1) -> MultiPoly:
    return MultiPoly.var(_QT, "q", 1, power=power)


def _window_pair(table: VarTable, trunc: Truncation, window: int,
                 items) -> tuple[MultiPoly, MultiPoly]:
    """A series check's enumerated side at `window` and at window + 1,
    both truncated, from one pass over the enlarged window.  `items`
    yields (weight, exponent, coefficient) for each term of each object
    of the enlarged window, weight being the least window that holds the
    object.
    """
    base: Counter[tuple[int, ...]] = Counter()
    enlarged: Counter[tuple[int, ...]] = Counter()
    for weight, exp, coef in items:
        enlarged[exp] += coef
        if weight <= window:
            base[exp] += coef
    return (MultiPoly(table, trunc.kept_terms(table, base)),
            MultiPoly(table, trunc.kept_terms(table, enlarged)))


# -- individual checks -------------------------------------------------


def _hook(i: int, l: int) -> int:
    """The window weight of the up-hook volume: a descent of level l in
    row i adds i + l - 1 to it.
    """
    return i + l - 1


def _level(i: int, l: int) -> int:
    """The window weight of the corner volume: a descent of level l adds
    l to it.
    """
    return l


def _box_exponents(k: int, n: int, m: int) -> list[tuple[int, int]]:
    """(i+j+l-1, i+j+l-2) for each cell (i, j, l) of the k x n x m box:
    the exponents of MacMahon's product prod (1-q^a)/(1-q^b).
    """
    return [(i + j + l - 1, i + j + l - 2)
            for i in range(1, k + 1)
            for j in range(1, n + 1)
            for l in range(1, m + 1)]


def macmahon_count(k: int, n: int, m: int) -> Fraction:
    """The number of plane partitions in the k x n x m box, from
    MacMahon's product formula prod (i+j+l-1)/(i+j+l-2).

    Kept as a Fraction so that a non-integer product shows up as a
    mismatch in check_macmahon_box instead of being rounded away.
    """
    count = Fraction(1)
    for a, b in _box_exponents(k, n, m):
        count *= Fraction(a, b)
    return count


def check_macmahon_box(k: int, n: int, m: int) -> CheckResult:
    """Volume generating polynomial and cardinality of the boxed family
    against the classical product formulas.
    """
    t0 = time.perf_counter()
    lhs_poly = MultiPoly(_QT, Counter(
        (pp.volume(),) for pp in gen_pp_box(k, n, m)))
    count_lhs = sum(lhs_poly.terms.values())

    exps = _box_exponents(k, n, m)
    rhs_poly = product_series(
        _QT, [(_q(a), -1) for a, _ in exps] + [(_q(b), 1) for _, b in exps],
        Truncation(k * n * m))

    return _build("macmahon_box", {"k": k, "n": n, "m": m},
                  [("q_poly", lhs_poly, rhs_poly),
                   ("count", count_lhs, macmahon_count(k, n, m))], t0)


def check_infinite_volume(N: int) -> CheckResult:
    """Coefficients of q^<=N of the unrestricted volume series against
    the infinite product, truncated.
    """
    t0 = time.perf_counter()
    lhs = MultiPoly(_QT, Counter(
        (pp.volume(),) for pp in gen_pp_box(N, N, N, max_volume=N)))
    trunc = Truncation(N)
    rhs = product_series(_QT, [(_q(i), i) for i in range(1, N + 1)], trunc)
    return _build("infinite_volume", {"N": N}, [("series", lhs, rhs)], t0)


def check_qschur(k: int, n: int, m: int) -> CheckResult:
    """q-shifted volume polynomial of the box against the principal
    specialization of the rectangular Schur polynomial.  The q-power
    prefactor is moved to the enumeration side so no negative exponents
    appear.
    """
    t0 = time.perf_counter()
    shift = k * math.comb(n + 1, 2)
    lhs = MultiPoly(_QT, Counter(
        (pp.volume() + shift,) for pp in gen_pp_box(k, n, m)))
    rho = Partition.rectangle(k, n)
    rhs = schur_specialized(_QT, rho, q_powers(_QT, 1, n + m))
    return _build("qschur", {"k": k, "n": n, "m": m}, [("q_poly", lhs, rhs)], t0)


def check_multivariate(n: int, m: int, N: int) -> CheckResult:
    """The two-alphabet descent generating function over all plane
    partitions with at most n rows and entries <= m, against the product
    over variable pairs; both sides truncated to total degree N.
    """
    t0 = time.perf_counter()
    table = VarTable([("x", n), ("z", m)])
    trunc = Truncation(N)
    lhs, enlarged = _window_pair(table, trunc, N // 2, (
        (w, descent_monomial(table, pp), 1)
        for w, pp in gen_matrix_images(n, m, N // 2 + 1)))
    xs, zs = family_vars(table, "x"), family_vars(table, "z")
    rhs = product_series(table, [(x * z, 1) for x in xs for z in zs], trunc)
    return _build("multivariate", {"n": n, "m": m, "N": N},
                  [("series", lhs, rhs),
                   ("window_stable", lhs, enlarged)], t0)


def check_cauchy_type(n: int, m: int, N: int) -> CheckResult:
    """Sum of the refined two-alphabet polynomials over shapes with at
    most n rows against the Cauchy-type product, truncated to total
    degree N.

    Every monomial of a shape's polynomial has z-degree at least the
    number of columns and equal x- and z-degree, so shapes with first
    part above N/2 contribute nothing below degree N; the window check
    enforces that cutoff empirically.
    """
    t0 = time.perf_counter()
    table = VarTable([("x", n), ("z", m)])
    trunc = Truncation(N)
    lhs, enlarged = _window_pair(table, trunc, N // 2, (
        (lam.part(1), exp, coef)
        for lam in gen_partitions_in_box(N // 2 + 1, n)
        for exp, coef in g_refined(table, lam).terms.items()))
    xs, zs = family_vars(table, "x"), family_vars(table, "z")
    rhs = product_series(table, [(x * z, 1) for x in xs for z in zs], trunc)
    return _build("cauchy_type", {"n": n, "m": m, "N": N},
                  [("series", lhs, rhs),
                   ("window_stable", lhs, enlarged)], t0)


def check_gl(n: int, m: int, N: int) -> CheckResult:
    """Sum of dual Grothendieck polynomials over shapes with at most n
    rows against prod 1/(1-z_i)^n, truncated to total degree N.
    """
    t0 = time.perf_counter()
    table = VarTable([("z", m)])
    zs = family_vars(table, "z")
    trunc = Truncation(N)
    lhs, enlarged = _window_pair(table, trunc, N, (
        (lam.part(1), exp, coef)
        for lam in gen_partitions_in_box(N + 1, n)
        for exp, coef in g_combinatorial(table, lam, zs).terms.items()))
    rhs = product_series(table, [(z, n) for z in zs], trunc)
    return _build("gl", {"n": n, "m": m, "N": N},
                  [("series", lhs, rhs),
                   ("window_stable", lhs, enlarged)], t0)


def check_uh_des(n: int, m: int, N: int) -> CheckResult:
    """Joint (descent count, up-hook volume) distribution over plane
    partitions with at most n rows and entries <= m, against the product
    over cells; q-degree truncated at N.
    """
    t0 = time.perf_counter()
    trunc = Truncation(N, "q")
    lhs, enlarged = _window_pair(_TQT, trunc, N, (
        (w, (pp.descent_count(), pp.up_hook_volume()), 1)
        for w, pp in gen_matrix_images(n, m, N + 1, weight=_hook)))
    t = MultiPoly.var(_TQT, "t")
    factors = [(t * MultiPoly.var(_TQT, "q", 1, power=i + j - 1), 1)
               for i in range(1, m + 1) for j in range(1, n + 1)]
    rhs = product_series(_TQT, factors, trunc)
    return _build("uh_des", {"n": n, "m": m, "N": N},
                  [("series", lhs, rhs),
                   ("window_stable", lhs, enlarged)], t0)


def check_equidistribution(N: int) -> CheckResult:
    """The unrestricted pair statistics (descents, up-hook volume) and
    (trace, volume) both match the product prod 1/(1-t q^k)^k up to
    q-degree N.
    """
    t0 = time.perf_counter()
    trunc = Truncation(N, "q")
    if N == 0:
        one = MultiPoly.one(_TQT)
        return _build("equidistribution", {"N": N}, [("series", one, one)], t0)

    lhs, enlarged = _window_pair(_TQT, trunc, N, (
        (w, (pp.descent_count(), pp.up_hook_volume()), 1)
        for w, pp in gen_matrix_images(N + 1, N + 1, N + 1, weight=_hook)))
    vol_side = MultiPoly(_TQT, Counter(
        (pp.trace(), pp.volume())
        for pp in gen_pp_box(N, N, N, max_volume=N)))
    factors = [(MultiPoly.var(_TQT, "t") *
                MultiPoly.var(_TQT, "q", 1, power=kk), kk)
               for kk in range(1, N + 1)]
    rhs = product_series(_TQT, factors, trunc)
    return _build("equidistribution", {"N": N},
                  [("uh_vs_product", lhs, rhs),
                   ("vol_vs_product", vol_side, rhs),
                   ("window_stable", lhs, enlarged)], t0)


def check_uh_restricted(mode: str, bound: int, N: int) -> CheckResult:
    """Up-hook volume series with one dimension fixed: entries <= bound
    (mode 'entries') or at most `bound` rows (mode 'rows'); against
    prod (1 - q^j)^(-min(j, bound)), truncated at q-degree N.
    """
    t0 = time.perf_counter()
    if mode not in ("entries", "rows"):
        raise ValueError("mode must be 'entries' or 'rows'")
    trunc = Truncation(N)
    n_rows = N if mode == "entries" else bound
    n_cols = bound if mode == "entries" else N

    lhs, enlarged = _window_pair(_QT, trunc, N, (
        (w, (pp.up_hook_volume(),), 1)
        for w, pp in gen_matrix_images(n_rows, n_cols, N + 1, weight=_hook)))
    rhs = product_series(
        _QT, [(_q(j), min(j, bound)) for j in range(1, N + 1)], trunc)
    return _build("uh_restricted", {"mode": mode, "bound": bound, "N": N},
                  [("series", lhs, rhs),
                   ("window_stable", lhs, enlarged)], t0)


def check_corner_volume(k: int, n: int, m: int, N: int = 5) -> CheckResult:
    """Corner-volume generating functions: boxed family against the
    Schur specialization with n leading ones; exact-base family with n-1
    leading ones; unbounded-row-length family against the product, up to
    q-degree N.  Also the q=1 slice of the exact-base identity against
    MacMahon's count of the box with largest entry m-1.
    """
    t0 = time.perf_counter()
    rho = Partition.rectangle(k, n)
    box, exact = Counter(), Counter()
    for pp in gen_pp_box(k, n, m):
        exponent = (pp.corner_volume(),)
        box[exponent] += 1
        if pp.exact_base(k, n, m):
            exact[exponent] += 1
    lhs1, lhs2 = MultiPoly(_QT, box), MultiPoly(_QT, exact)
    rhs1 = schur_specialized(_QT, rho, ones(_QT, n) + q_powers(_QT, 1, m))
    rhs2 = schur_specialized(_QT, rho, ones(_QT, n - 1) + q_powers(_QT, 1, m))

    trunc = Truncation(N)
    lhs3, enlarged = _window_pair(_QT, trunc, N, (
        (w, (pp.corner_volume(),), 1)
        for w, pp in gen_matrix_images(n, m, N + 1, weight=_level)))
    rhs3 = product_series(_QT, [(_q(i), n) for i in range(1, m + 1)], trunc)

    slice_lhs = sum(lhs2.terms.values())
    slice_rhs = macmahon_count(k, n, m - 1) if m >= 1 else int(k * n == 0)

    return _build("corner_volume", {"k": k, "n": n, "m": m, "N": N},
                  [("box_q1", lhs1, rhs1),
                   ("exact_q2", lhs2, rhs2),
                   ("unbounded_q3", lhs3, rhs3),
                   ("window_stable", lhs3, enlarged),
                   ("q2_at_1", slice_lhs, slice_rhs)], t0)


def check_frobenius(n: int, m: int) -> CheckResult:
    """Sum of strict-tableau counts over shapes in the n x m rectangle
    against m^n, plus exhaustive word <-> strict-tableau bijectivity.
    """
    t0 = time.perf_counter()
    total = sum(f_lambda(lam, n) for lam in gen_partitions_in_box(n, m))

    images = set()
    roundtrip_failures = 0
    for w in gen_words(n, m):
        st = word_to_strict_tableau(w)
        sh = st.shape()
        if not (sh.part(1) <= n and len(sh) <= m):
            roundtrip_failures += 1
        if strict_tableau_to_word(st, m) != w:
            roundtrip_failures += 1
        images.add(st)

    return _build("frobenius", {"n": n, "m": m},
                  [("sum_f", total, m ** n),
                   ("distinct_images", len(images), m ** n),
                   ("roundtrip_failures", roundtrip_failures, 0)], t0)


def check_gexp(lam: Partition, n_max: int | None = None) -> CheckResult:
    """Plancherel-type expansion of the dual Grothendieck polynomial:
    the square-free coefficient over n variables equals the strict-
    tableau count f(n), for every n up to the shape's size (factorial
    denominators never materialize).
    """
    t0 = time.perf_counter()
    if n_max is None:
        n_max = lam.size()
    pairs = []
    for n in range(0, n_max + 1):
        table = VarTable([("x", n)])
        coef = square_free_coefficient(
            g_combinatorial(table, lam, family_vars(table, "x")))
        pairs.append((f"n={n}", coef, f_lambda(lam, n)))
    return _build("gexp", {"lambda": list(lam.parts), "n_max": n_max}, pairs, t0)


def check_greene(n: int, m: int) -> CheckResult:
    """Exhaustive over all words: the shape of the associated strict
    tableau equals the vector of longest weakly increasing subsequence
    lengths over shrinking tail alphabets.
    """
    t0 = time.perf_counter()
    mismatches = 0
    first = None
    for w in gen_words(n, m):
        sh = word_to_strict_tableau(w).shape()
        gr = greene_shape(w)
        if sh != gr:
            mismatches += 1
            if first is None:
                first = f"word {''.join(map(str, w.letters))}: {sh} != {gr}"
    notes = [first] if first else []
    return _build("greene", {"n": n, "m": m},
                  [("mismatches", mismatches, 0)], t0, notes)


def _multisets(n: int, a: int) -> int:
    """The number of multisets of size a from n values; one empty one
    at n = 0.
    """
    return math.comb(n + a - 1, a) if n else int(a == 0)


def check_dalpha(k: int, n: int, m: int, N_max: int) -> CheckResult:
    """Descent enumeration counts: permutation symmetry, dominance
    monotonicity, the Kostka/skew-Schur expansion, the unbounded product
    formula, and the binomial chain; exhaustive over content vectors of
    weight at most N_max.

    The printed closed form for the single-value count is reported in
    the notes, never asserted (see the documented discrepancy between
    C(n+N, N) and C(n+N-1, N)).
    """
    t0 = time.perf_counter()
    D = Counter(pp.column_counts(m) for pp in gen_pp_box(k, n, m))

    # D_alpha = sum over lam inside rho = (k^n) of K_{lam,alpha}
    # s_{rho/lam}(1^n), for every alpha at once: one content tally and one
    # skew count per lam.  rho/lam turned a half turn is the straight shape
    # rest, so s_{rho/lam}(1^n) counts the column-strict fillings of rest
    expansion: Counter[tuple[int, ...]] = Counter()
    for lam in gen_partitions_in_box(k, n):
        rest = Partition._from_parts(tuple(filter(None, (
            k - lam.part(i) for i in range(n, 0, -1)))))
        skew = sum(column_strict_contents(rest, n).values())
        for content, count in column_strict_contents(lam, m).items():
            expansion[content] += count * skew
    sym_fail = mono_fail = kostka_fail = product_fail = chain_fail = 0

    alphas_by_weight = {w: list(compositions(w, m)) for w in range(N_max + 1)}

    for alphas in alphas_by_weight.values():
        for alpha in alphas:
            da = D[alpha]
            sorted_a = tuple(sorted(alpha, reverse=True))
            if da != D[sorted_a]:
                sym_fail += 1
            if da != expansion[alpha]:
                kostka_fail += 1
            prod = math.prod(_multisets(n, a) for a in alpha)
            if count_D_alpha(None, n, m, alpha) != prod:
                product_fail += 1
        for alpha in alphas:
            for beta in alphas:
                # dominance is compared on the sorted vectors; by the
                # symmetry law the counts only depend on those
                sa = tuple(sorted(alpha, reverse=True))
                sb = tuple(sorted(beta, reverse=True))
                if sb != sa and dominates(sb, sa) and D[alpha] < D[beta]:
                    mono_fail += 1

    notes = []
    for N in range(1, min(k, m, N_max) + 1):
        single = tuple([N] + [0] * (m - 1))
        ones_vec = tuple([1] * N + [0] * (m - N))
        lo, mid_hi = D[single], D[ones_vec]
        for alpha in alphas_by_weight[N]:
            if not lo <= D[alpha] <= mid_hi <= n ** N:
                chain_fail += 1
        printed = math.comb(n + N, N)
        shifted = math.comb(n + N - 1, N)
        match = ("C(n+N,N)" if lo == printed else
                 "C(n+N-1,N)" if lo == shifted else "neither binomial")
        notes.append(
            f"D_(N={N},0,...)={lo}; printed C(n+N,N)={printed}, "
            f"C(n+N-1,N)={shifted}: matches {match}")

    return _build("dalpha", {"k": k, "n": n, "m": m, "N_max": N_max},
                  [("symmetry_failures", sym_fail, 0),
                   ("monotonicity_failures", mono_fail, 0),
                   ("kostka_expansion_failures", kostka_fail, 0),
                   ("product_formula_failures", product_fail, 0),
                   ("chain_failures", chain_fail, 0)], t0, notes)


def check_superadditivity(k: int, n: int, m: int,
                          scales: Sequence[int] = (1, 2, 3)) -> CheckResult:
    """Superadditivity of the up-hook and corner volumes, additivity of
    the volume, the scaling laws, the up-hook sandwich, and antinorm
    positivity, exhaustive over all pairs in the box.

    Two monoid structures appear.  The corner volume and the volume are
    checked under the entrywise sum.  The up-hook volume is not
    superadditive entrywise (two copies of the single column (1, 1) sum
    to (2, 2), whose up-hook volume is 3 < 2 + 2); it is checked under
    the sum transported through the descent-level-count bijection, where
    both statistics are linear in the matrix entries.
    """
    t0 = time.perf_counter()
    pps = list(gen_pp_box(k, n, m))
    mats = {pp: phi(pp, n, m) for pp in pps}
    violations = 0
    for p1 in pps:
        for p2 in pps:
            s = p1.add(p2)
            if s.corner_volume() < p1.corner_volume() + p2.corner_volume():
                violations += 1
            if s.volume() != p1.volume() + p2.volume():
                violations += 1
            d1, d2 = mats[p1], mats[p2]
            merged = NMatrix._from_entries(tuple(
                tuple(map(add, r1, r2))
                for r1, r2 in zip(d1.entries, d2.entries)), n, m)
            t = phi_inverse(merged)
            if t.up_hook_volume() < p1.up_hook_volume() + p2.up_hook_volume():
                violations += 1
            if t.corner_volume() < p1.corner_volume() + p2.corner_volume():
                violations += 1
    for pp in pps:
        if pp.corner_volume() == 0 and pp:
            violations += 1
        if pp.up_hook_volume() < pp.corner_volume() or \
                pp.volume() < pp.corner_volume():
            violations += 1
        for kk in scales:
            sc = pp.scale(kk)
            if sc.corner_volume() != kk * pp.corner_volume():
                violations += 1
            if sc.up_hook_volume() != \
                    pp.up_hook_volume() + (kk - 1) * pp.corner_volume():
                violations += 1
            if not (kk * pp.corner_volume() <= sc.up_hook_volume()
                    <= kk * pp.up_hook_volume()):
                violations += 1
    return _build("superadditivity",
                  {"k": k, "n": n, "m": m, "scales": list(scales)},
                  [("violations", violations, 0)], t0,
                  ["up-hook superadditivity is taken under the "
                   "matrix-transported sum; entrywise it fails already at "
                   "[[1],[1]] + [[1],[1]]"])


# -- the suite ---------------------------------------------------------

CHECKS: dict[str, Callable[..., CheckResult]] = {
    "macmahon_box": check_macmahon_box,
    "infinite_volume": check_infinite_volume,
    "qschur": check_qschur,
    "multivariate": check_multivariate,
    "cauchy_type": check_cauchy_type,
    "gl": check_gl,
    "uh_des": check_uh_des,
    "equidistribution": check_equidistribution,
    "uh_restricted": check_uh_restricted,
    "corner_volume": check_corner_volume,
    "frobenius": check_frobenius,
    "gexp": check_gexp,
    "greene": check_greene,
    "dalpha": check_dalpha,
    "superadditivity": check_superadditivity,
}


# -- work models -------------------------------------------------------
#
# WORK[name] takes a check's parameters, with the check's defaults, and
# returns the work its enumerated sides do, counted in the objects they
# build.  Where one visited item builds several objects, each counts;
# where an item's cost grows with its size, its entries or cells count.
# So a unit of work costs about the same, 1-25 us, in every check.  The
# models read closed forms: MacMahon's box count, m^n words, binomials
# and the size of a weighted matrix window.  By the equidistribution of
# the up-hook volume with the volume, the window of weights i+l-1 over
# an N x N grid, bounded by N, also counts the plane partitions of
# volume at most N.

# a window matrix builds its entries, its image's rows and the validated
# plane partition
PER_MATRIX = 3


def _box(k: int, n: int, m: int) -> int:
    return int(macmahon_count(k, n, m))


def _window(n: int, m: int, bound: int,
            weight: Callable[[int, int], int] = lambda i, l: 1) -> int:
    """The number of n x m N-matrices D with sum(D[i][l] * weight(i, l))
    at most bound, by a coin change over the cells' weights.
    """
    ways = [1] + [0] * bound
    for i in range(1, n + 1):
        for l in range(1, m + 1):
            w = weight(i, l)
            for t in range(w, bound + 1):
                ways[t] += ways[t - w]
    return sum(ways)


def _strict_rows(lam: Partition, n: int) -> int:
    """The row allowance of gen_strict_tableaux(lam, n): for each row of
    lam, the C(n + lam_1, lam_1) weakly decreasing rows of at most lam_1
    entries <= n, a bound on every list of strictly decreasing rows that
    kernels.strict_rows returns for it; none unless lam_1 <= n <= |lam|.
    """
    if not lam.part(1) <= n <= lam.size():
        return 0
    return len(lam) * math.comb(n + lam.part(1), n)


def _uh_restricted_work(mode: str, bound: int, N: int) -> int:
    rows, cols = (N, bound) if mode == "entries" else (bound, N)
    return PER_MATRIX * _window(rows, cols, N + 1, _hook)


def _frobenius_work(n: int, m: int) -> int:
    # the strict-tableau search of each shape, and for each word the
    # Word, its tableau and the word read back
    return sum(_strict_rows(lam, n) for lam in gen_partitions_in_box(n, m)) \
        + 3 * m ** n


def _gexp_work(lam: Partition, n_max: int | None = None) -> int:
    # the fillings of lam with entries in [1, n] and its strict tableaux;
    # a filling's rows, and its columns, are multisets of such entries
    if n_max is None:
        n_max = lam.size()
    return sum(min(math.prod(_multisets(n, p) for p in lam.parts),
                   math.prod(_multisets(n, p) for p in lam.conjugate().parts))
               + _strict_rows(lam, n) for n in range(n_max + 1))


def _dalpha_work(k: int, n: int, m: int, N_max: int) -> int:
    # the box tally; the column-strict fillings of the shapes inside rho,
    # at most the box; the column-strict fillings of their complements in
    # rho with entries <= n, at most the k x n x n box; the matrices of
    # column sums alpha over every alpha, which are the n x m matrices of
    # entry sum <= N_max; and the pairs of contents of each weight
    return (2 * _box(k, n, m) + _box(k, n, n)
            + PER_MATRIX * _window(n, m, N_max)
            + sum(_multisets(m, w) ** 2 for w in range(N_max + 1)))


def _superadditivity_work(k: int, n: int, m: int,
                          scales: Sequence[int] = (1, 2, 3)) -> int:
    # each pair builds a sum, a merged n x m matrix and its image, at a
    # cost that grows with the matrix's n*m entries and the at most k*n
    # cells of the sum and the image; each member builds its matrix and
    # its scalings
    count = _box(k, n, m)
    return (n * m + k * n) * count ** 2 + (2 + len(scales)) * count


def _fillings_work(width: int, n: int, m: int) -> int:
    # the fillings with entries <= m of the shapes in a width x n box are
    # the plane partitions of the width x n x m box, and each builds a
    # plane partition and its statistic; the filling kernel also makes one
    # pass per row of every shape, at most one per cell,
    # C(width + n, n) * width * n / 2 cells in all
    return 2 * _box(width, n, m) + math.comb(width + n, n) * width * n // 2


WORK: dict[str, Callable[..., int]] = {
    "macmahon_box": _box,
    "infinite_volume": lambda N: _window(N, N, N, _hook),
    "qschur": _box,
    "multivariate": lambda n, m, N: PER_MATRIX * _window(n, m, N // 2 + 1),
    "cauchy_type": lambda n, m, N: _fillings_work(N // 2 + 1, n, m),
    "gl": lambda n, m, N: _fillings_work(N + 1, n, m),
    "uh_des": lambda n, m, N: PER_MATRIX * _window(n, m, N + 1, _hook),
    "equidistribution": lambda N: N and (
        PER_MATRIX * _window(N + 1, N + 1, N + 1, _hook)
        + _window(N, N, N, _hook)),
    "uh_restricted": _uh_restricted_work,
    "corner_volume": lambda k, n, m, N=5: (
        _box(k, n, m) + PER_MATRIX * _window(n, m, N + 1, _level)),
    "frobenius": _frobenius_work,
    "gexp": _gexp_work,
    # each word builds a Word, its tableau and its Greene shape
    "greene": lambda n, m: 3 * m ** n,
    "dalpha": _dalpha_work,
    "superadditivity": _superadditivity_work,
}


def _arguments(name: str, params: dict) -> dict:
    """A grid entry's parameters as the keyword arguments of its check."""
    params = dict(params)
    if name == "gexp":
        params["lam"] = Partition(params.pop("lambda"))
    return params


def work(name: str, params: dict) -> int:
    """The objects that check `name` builds on a grid entry's parameters."""
    return WORK[name](**_arguments(name, params))


def load_grids() -> dict:
    """The versioned parameter grids for the run_all levels."""
    grids = os.path.join(os.path.dirname(__file__), "verify_grids.json")
    with open(grids, encoding="utf-8") as fh:
        return json.load(fh)


def _run_entry(entry: dict) -> CheckResult:
    """Run one grid entry.  A check that raises becomes a FAIL record
    carrying the exception, so one broken entry does not abort the run.
    """
    t0 = time.perf_counter()
    fn = CHECKS[entry["check"]]
    params = _arguments(entry["check"], entry["params"])
    try:
        return fn(**params)
    except Exception as exc:
        import traceback
        return CheckResult(
            check_name=entry["check"],
            parameters=dict(entry["params"]),
            passed=False,
            lhs_summary="",
            rhs_summary="",
            first_diff=None,
            elapsed=time.perf_counter() - t0,
            notes=[f"{type(exc).__name__}: {exc}", traceback.format_exc()],
        )


def run_all(level: str = "small", workers: int = 1) -> Iterator[CheckResult]:
    """Run the whole named-check suite at the given level's parameter
    grid.  Results stream back in declaration order regardless of worker
    count; the pool never holds more processes than there are entries.
    """
    grids = load_grids()
    if level not in grids:
        raise ValueError(f"unknown level {level!r}")
    entries = grids[level]
    workers = min(workers, len(entries))
    if workers > 1:
        return _run_pooled(entries, workers)
    return map(_run_entry, entries)


def _run_pooled(entries: list[dict], workers: int) -> Iterator[CheckResult]:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_entry, entries)
