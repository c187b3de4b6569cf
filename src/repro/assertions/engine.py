"""The assertion database — an :class:`Oracle` for the dependence tests.

User assertions accumulate in an :class:`AssertionDB`, which answers the
symbolic queries of the dependence machinery:

* ``range_of(lin)``    — bounds of a linear form under the assertions;
* ``nonzero(lin)``     — is the form provably never zero?
* ``injective(name)``  — was the array asserted distinct/permutation?
* ``constants()``      — value facts usable as a constant environment.

Range evaluation combines direct constraint matching (the asserted form or
a scalar multiple of it) with per-atom interval arithmetic, which is
enough for the bound/step/offset assertions the Ped users actually made.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.symbolic import Linear
from ..dependence.tests import Oracle
from .facts import (
    Assertion,
    ConstantFact,
    DistinctFact,
    NonZeroFact,
    RangeFact,
    RelationFact,
    parse_assertion,
)

INF = math.inf


class AssertionDB(Oracle):
    """A mutable set of user assertions implementing the Oracle protocol."""

    def __init__(self) -> None:
        self.facts: List[Assertion] = []
        self._constraints: List[Tuple[Linear, float, float]] = []
        self._nonzero: List[Linear] = []
        self._injective: Set[str] = set()
        self._constants: Dict[str, int] = {}

    # -- mutation -----------------------------------------------------------

    def add(self, fact_or_text) -> Assertion:
        """Add a fact (or parse and add an assertion command string)."""

        fact = (
            parse_assertion(fact_or_text)
            if isinstance(fact_or_text, str)
            else fact_or_text
        )
        self.facts.append(fact)
        if isinstance(fact, RangeFact):
            self._constraints.append((fact.lin, fact.lo, fact.hi))
        elif isinstance(fact, RelationFact):
            lo = 1.0 if fact.strict else 0.0
            self._constraints.append((fact.lin, lo, INF))
        elif isinstance(fact, NonZeroFact):
            self._nonzero.append(fact.lin)
        elif isinstance(fact, DistinctFact):
            self._injective.add(fact.name)
        elif isinstance(fact, ConstantFact):
            self._constants[fact.var] = fact.value
            self._constraints.append(
                (Linear.atom(fact.var), float(fact.value), float(fact.value))
            )
        return fact

    def remove(self, fact: Assertion) -> None:
        self.facts.remove(fact)
        self._rebuild()

    def clear(self) -> None:
        self.facts.clear()
        self._rebuild()

    def _rebuild(self) -> None:
        facts = list(self.facts)
        self.facts = []
        self._constraints = []
        self._nonzero = []
        self._injective = set()
        self._constants = {}
        for f in facts:
            self.add(f)

    # -- Oracle protocol -------------------------------------------------------

    def digest(self):
        """Content digest for shared-memo keying: the ordered fact texts.

        Order matters — a later ``ConstantFact`` for the same variable
        overwrites an earlier one — so the digest preserves insertion
        order rather than sorting.  Two databases with the same fact
        spellings answer every oracle query identically.
        """

        return ("asserts", tuple(f.text for f in self.facts))

    def injective(self, name: str) -> bool:
        return name.lower() in self._injective

    def constants(self) -> Dict[str, int]:
        return dict(self._constants)

    def nonzero(self, lin: Linear) -> bool:
        for fact in self._nonzero:
            ratio = _scalar_ratio(lin, fact)
            if ratio is not None and ratio != 0:
                return True
        lo, hi = self.range_of(lin)
        return lo > 0 or hi < 0

    def range_of(self, lin: Linear) -> Tuple[float, float]:
        if lin.is_constant:
            value = float(lin.const)
            return (value, value)
        lo, hi = self._interval_by_atoms(lin)
        # Direct constraint matches tighten the interval.
        for clin, clo, chi in self._constraints:
            ratio = _scalar_ratio(lin, clin)
            if ratio is None:
                continue
            r = float(ratio)
            if r > 0:
                cand = (clo * r, chi * r)
            else:
                cand = (chi * r, clo * r)
            lo = max(lo, cand[0])
            hi = min(hi, cand[1])
        return (lo, hi)

    # -- helpers -------------------------------------------------------------

    def atom_range(self, atom: str) -> Tuple[float, float]:
        """Best known range of a single atom."""

        if atom in self._constants:
            v = float(self._constants[atom])
            return (v, v)
        lo, hi = -INF, INF
        for clin, clo, chi in self._constraints:
            # A constraint clo ≤ r·x + c ≤ chi on a single atom x bounds
            # x ∈ [(clo − c)/r, (chi − c)/r] (swapped when r < 0).
            if clin.atoms() != (atom,):
                continue
            r = float(clin.coeff(atom))
            c = float(clin.const)
            if r == 0:
                continue
            b1 = (clo - c) / r if clo != -INF else (-INF if r > 0 else INF)
            b2 = (chi - c) / r if chi != INF else (INF if r > 0 else -INF)
            cand_lo, cand_hi = (b1, b2) if r > 0 else (b2, b1)
            lo = max(lo, cand_lo)
            hi = min(hi, cand_hi)
        return (lo, hi)

    def _interval_by_atoms(self, lin: Linear) -> Tuple[float, float]:
        lo = hi = float(lin.const)
        for atom, coeff in lin.coeffs:
            a_lo, a_hi = self.atom_range(atom)
            c = float(coeff)
            if c >= 0:
                term_lo, term_hi = c * a_lo, c * a_hi
            else:
                term_lo, term_hi = c * a_hi, c * a_lo
            lo += term_lo
            hi += term_hi
            if math.isnan(lo) or math.isnan(hi):
                return (-INF, INF)
        return (lo, hi)


def _scalar_ratio(a: Linear, b: Linear) -> Optional[Fraction]:
    """If ``a == r·b`` for a scalar r (ignoring constants only when both
    match), return r; else None.  Exact comparison including constants."""

    if not b.coeffs:
        return None
    # Determine candidate ratio from the first atom of b present in a.
    b_dict = dict(b.coeffs)
    a_dict = dict(a.coeffs)
    if set(b_dict) != set(a_dict):
        return None
    ratio: Optional[Fraction] = None
    for atom, bc in b_dict.items():
        # Exact: on two ints ``/`` would divide in floating point.
        r = Fraction(a_dict[atom], bc)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    if ratio is None:
        return None
    if a.const != b.const * ratio:
        return None
    return ratio
