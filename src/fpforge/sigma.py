"""Finitely described assignments of covers to integer heights, and the
finiteness-property decisions they determine.

A cover registry holds the covers a specification may reference: constructed
entries carry voltage data and recomputable homology certificates, declared
entries carry certified-by-hand homology with a provenance note.  A sigma
specification then names an entry for every height through a finite
description: finitely many exceptions, eventually-periodic tails, a sparse
power-tower rule, or a prime-indexed congruence rule whose members carry
height-dependent torsion symbolically.

The decision procedures only ever consult which entries occur at infinitely
many heights, so verdicts are independent of the deterministic round-robin
schedule that realizes recurrent tails.  Tower heights C^(2^i) are pairs (C, i)
compared by bounded squaring, built only by ``PowerTowerRule.heights()`` or as an
answer of :func:`min_disagreement_height`, and never past a fixed bit cap.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import count
from math import isqrt
from types import NoneType
from typing import Callable, Mapping, Sequence

from .complex_core import (
    ComplexError, FormatError, _json_field, _json_items, _json_list, _json_object, _json_text, _json_value, _read_json,
    _record_json, SimplicialComplex, _tree_parents,
)
from .covers import CoverComplex, VoltageAssignment, build_cover, normal_generators
from .groups import Presentation, SpanningTreeWords, Word, coset_enumerate
from .homology import (
    HomologySummary,
    RingSpec,
    _is_prime,
    field_summary_from_integral,
    reduced_homology,
)


class SigmaError(ValueError):
    """Raised for malformed specifications or unmet decision hypotheses."""


class MissingCertificateError(SigmaError):
    """Raised when a decision needs homology data the registry does not certify."""


# ---------------------------------------------------------------------------
# Registry

# Entry ids of the example registry: the base, its index-two cover with perfect
# fundamental group, the perfect alternative base, the universal cover, and the
# prefix of the congruence-family members (member p is FAMILY_ID + str(p)).
BASE_ID = "L"
SL_ID = "Lsl"
PERFECT_ID = "Lperf"
UNIVERSAL_ID = "Luniv"
FAMILY_ID = "Lp"

# Coset rows granted to each simple-connectivity check.
SIMPLE_CONNECTIVITY_BUDGET = 4000


@dataclass(frozen=True, eq=True)
class CoverRegistryEntry:
    """One cover of the base complex, with the data the decisions consume.

    ``certified_up_to`` bounds the degrees the homology certificates cover:
    an integer N certifies degrees < N, the string "all" certifies every
    degree (automatic for constructed entries, whose complexes are finite).
    The quotient flags assert properties of the deck quotient group; they are
    inputs with provenance, not computed facts.
    """

    id: str
    kind: str  # "constructed" | "declared"
    degree: int | str  # covering degree, or "infinite"
    homology: Mapping[str, HomologySummary]
    certified_up_to: int | str
    simply_connected: bool | None
    quotient_is_finite: bool
    quotient_fp_certified: bool = False
    quotient_finitely_presented: bool = True
    note: str = ""
    voltage: VoltageAssignment | None = None

    def __post_init__(self):
        if self.kind not in ("constructed", "declared"):
            raise SigmaError(f"unknown entry kind {self.kind!r}")
        if self.kind == "constructed" and self.voltage is None:
            raise SigmaError(f"constructed entry {self.id!r} needs voltage data")
        if self.kind == "declared" and not self.note:
            raise SigmaError(f"declared entry {self.id!r} needs a provenance note")

    def homology_over(self, ring: RingSpec) -> HomologySummary:
        """A stored integral certificate answers over every field, by universal coefficients, ahead of a field one."""
        if ring.is_field and "Z" in self.homology:
            return field_summary_from_integral(self.homology["Z"], ring)
        if ring.key in self.homology:
            return self.homology[ring.key]
        raise MissingCertificateError(
            f"entry {self.id!r} has no homology certificate over {ring}"
        )

    def covers_degrees_below(self, k: int | str) -> bool:
        if self.certified_up_to == "all":
            return True
        if k == "FP":
            return False
        return isinstance(self.certified_up_to, int) and self.certified_up_to >= k

    def to_json_dict(self) -> dict:
        return _record_json(
            self, homology=[s.to_json_dict() for _, s in sorted(self.homology.items())],
            voltage=self.voltage.to_json_dict() if self.voltage else None,
        )

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "CoverRegistryEntry":
        data = _json_object(data, path)
        summaries = [
            HomologySummary.from_json_dict(s, f"{path}.homology[{i}]")
            for i, s in enumerate(_json_list(data.get("homology", []), f"{path}.homology"))
        ]
        voltage = data.get("voltage")
        return cls(
            id=_json_field(data, "id", path, str),
            kind=_json_field(data, "kind", path, str),
            degree=_json_field(data, "degree", path, int, str),
            homology={s.ring.key: s for s in summaries},
            certified_up_to=_json_field(data, "certified_up_to", path, int, str),
            simply_connected=_json_field(data, "simply_connected", path, bool, NoneType, default=None),
            quotient_is_finite=_json_field(data, "quotient_is_finite", path, bool),
            quotient_fp_certified=_json_field(data, "quotient_fp_certified", path, bool, default=False),
            quotient_finitely_presented=_json_field(data, "quotient_finitely_presented", path, bool, default=True),
            note=_json_field(data, "note", path, str, default=""),
            voltage=VoltageAssignment.from_json_dict(voltage, f"{path}.voltage") if voltage else None,
        )


def _registry_from_json(data: Mapping, path: str) -> dict[str, CoverRegistryEntry]:
    items = _json_list(_json_field(_json_object(data, path), "entries", path), f"{path}.entries")
    entries = [CoverRegistryEntry.from_json_dict(e, f"{path}.entries[{i}]") for i, e in enumerate(items)]
    return {e.id: e for e in entries}


def _json_id_pairs(value, path: str) -> dict[int, str]:
    """[[integer, entry id], ...] as a mapping, as written for heights, indices and primes."""
    out = {}
    for i, pair in enumerate(_json_list(value, path)):
        at = f"{path}[{i}]"
        if len(_json_list(pair, at)) != 2:
            raise FormatError(f"{at}: expected an [integer, string] pair, got {len(pair)} items")
        out[_json_value(pair[0], f"{at}[0]", int)] = _json_value(pair[1], f"{at}[1]", str)
    return out


def _json_optional(data: Mapping, key: str, load):
    """``load(data[key], "$.key")`` when the key holds a nonempty value, else None."""
    value = data.get(key)
    return load(value, f"$.{key}") if value else None


def _fundamental_group_order(K: SimplicialComplex) -> int | None:
    """Order of the edge-path group of a connected complex, by coset enumeration
    of the trivial subgroup; None when the budget runs out or it is infinite.
    Kept in ``K._cache``, like its integral homology, since K never changes."""
    if "pi1_order" not in K._cache:
        K._cache["pi1_order"] = coset_enumerate(SpanningTreeWords(K).presentation(), (), SIMPLE_CONNECTIVITY_BUDGET)
    return K._cache["pi1_order"]


def constructed_entry(id: str, voltage: VoltageAssignment) -> CoverRegistryEntry:
    """Build a cover, compute its integral certificate, and wrap it as an entry.

    A nonzero H~0 or H~1 certifies that the cover is not simply connected;
    otherwise the connected d-sheeted cover is simply connected exactly when
    the base's fundamental group has order d, which coset enumeration of the
    base decides unless its budget runs out (None).  The deck quotient of a
    finite-degree cover is finite.
    """
    summary = reduced_homology(build_cover(voltage).total, RingSpec.Z())
    simply_connected = False
    if summary.is_trivial_in(0) and summary.is_trivial_in(1):
        order = _fundamental_group_order(voltage.base)
        simply_connected = None if order is None else order == voltage.degree
    return CoverRegistryEntry(
        id=id,
        kind="constructed",
        degree=voltage.degree,
        homology={"Z": summary},
        certified_up_to="all",
        simply_connected=simply_connected,
        quotient_is_finite=True,
        voltage=voltage,
    )


def declared_entry(
    id: str,
    *,
    degree: int | str,
    ranks: Sequence[int],
    torsion: Sequence[Sequence[int]],
    certified_up_to: int | str,
    simply_connected: bool | None,
    quotient_is_finite: bool,
    note: str,
    quotient_fp_certified: bool = False,
    quotient_finitely_presented: bool = True,
) -> CoverRegistryEntry:
    summary = HomologySummary(RingSpec.Z(), tuple(ranks), tuple(tuple(t) for t in torsion))
    return CoverRegistryEntry(
        id=id,
        kind="declared",
        degree=degree,
        homology={"Z": summary},
        certified_up_to=certified_up_to,
        simply_connected=simply_connected,
        quotient_is_finite=quotient_is_finite,
        quotient_fp_certified=quotient_fp_certified,
        quotient_finitely_presented=quotient_finitely_presented,
        note=note,
    )


def validate_registry(registry: Mapping[str, CoverRegistryEntry]) -> list[str]:
    """Recompute each constructed entry through :func:`constructed_entry` and compare fields, a field
    certificate with the universal-coefficient image of the fresh integral one; sanity-check declared
    ones, a field certificate against the image of the stored integral one."""
    problems = []
    for eid, entry in sorted(registry.items()):
        if entry.id != eid:
            problems.append(f"{eid}: key does not match entry id {entry.id!r}")
        fresh, against = entry, "its integral certificate"  # a declared entry is read against itself
        if entry.kind == "constructed":
            fresh, against = constructed_entry(eid, entry.voltage), "recomputation"
            if not fresh.homology["Z"].is_trivial_in(0):
                problems.append(f"{eid}: constructed cover is disconnected")
            if entry.degree != fresh.degree:
                problems.append(f"{eid}: stored degree disagrees with voltage degree")
            if entry.homology.get("Z") != fresh.homology["Z"]:
                problems.append(f"{eid}: stored integral certificate disagrees with recomputation")
            if entry.simply_connected != fresh.simply_connected:
                problems.append(f"{eid}: stored simple connectivity disagrees with recomputation")
        elif not entry.homology:
            problems.append(f"{eid}: declared entry carries no homology data")
        for key, summary in entry.homology.items():
            if key != "Z" and summary != fresh.homology_over(RingSpec.parse(key)):
                problems.append(f"{eid}: stored {key} certificate disagrees with {against}")
    return problems


# ---------------------------------------------------------------------------
# Sigma specifications


# A tower height C^(2^i) is kept as the pair (C, i) and built only up to this
# many bits; a power of two, so that the test in _tower_height is exact.
_TOWER_BIT_CAP = 2**20
_Tower = tuple[int, int]


def _tower_cmp(C: int, i: int, n: int | _Tower) -> int:
    """Sign of C^(2^i) - n for C >= 1 and an integer or tower height n, squaring at
    most i times and stopping once past n, so that nothing much larger than n is built."""
    if isinstance(n, tuple):  # x -> x^(2^k) increases for x >= 1, so the common 2^min(i, j) drops out
        D, j = n
        return _tower_cmp(C, i - j, D) if i >= j else -_tower_cmp(D, j - i, C)
    for _ in range(i):
        if C > n:
            return 1
        C *= C
    return (C > n) - (C < n)


def _tower_height(C: int, i: int) -> int:
    """C^(2^i), refused past the bit cap: it has more than cap bits exactly when C >= 2^(cap / 2^i)."""
    if C > 1 and C.bit_length() > _TOWER_BIT_CAP >> i:
        raise SigmaError(f"tower height C^(2^i) at (C, i) = ({C}, {i}) has more than {_TOWER_BIT_CAP} bits")
    return C ** (1 << i)


@dataclass(frozen=True)
class Tail:
    """Eventually-periodic half-line rule: a constant entry or a recurrent set
    realized round-robin by |height|."""

    kind: str  # "constant" | "recurrent"
    ids: tuple[str, ...]

    @classmethod
    def constant(cls, id: str) -> "Tail":
        return cls("constant", (id,))

    @classmethod
    def recurrent(cls, ids: Sequence[str]) -> "Tail":
        ids = tuple(ids)
        if not ids:
            raise SigmaError("recurrent tail needs at least one entry")
        return cls("recurrent", ids)

    def value_at(self, position: int | _Tower) -> str:
        if self.kind == "constant":
            return self.ids[0]
        if isinstance(position, tuple):
            position = pow(position[0], 1 << position[1], len(self.ids))
        return self.ids[(position - 1) % len(self.ids)]

    def period(self) -> int:
        return 1 if self.kind == "constant" else len(self.ids)

    def to_json_dict(self) -> dict:
        return {self.kind: self.ids[0] if self.kind == "constant" else list(self.ids)}

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "Tail":
        data = _json_object(data, path)
        if "constant" in data:
            return cls.constant(_json_field(data, "constant", path, str))
        return cls.recurrent(_json_items(_json_field(data, "recurrent", path), f"{path}.recurrent", str))


@dataclass(frozen=True)
class PowerTowerRule:
    """Sparse positive-height rule: entries sit exactly at the tower heights
    C_i^(2^i); every other positive height gets the default entry.

    ``recurrent`` names the entries that the symbolic extension of the rule
    places at infinitely many heights beyond the finite constant window.
    """

    constants: tuple[int, ...]
    assignments: Mapping[int, str]  # tower index -> entry id
    default: str
    recurrent: tuple[str, ...] = ()

    def __post_init__(self):
        if any(c < 1 for c in self.constants):
            raise SigmaError("tower constants must be positive")
        if any(b <= a for a, b in zip(self.constants, self.constants[1:])):
            raise SigmaError("tower constants must strictly increase")
        for i in self.assignments:
            if not 1 <= i <= len(self.constants):
                raise SigmaError(f"assignment index {i} outside the constant window")

    def heights(self) -> dict[int, int]:
        return {i: _tower_height(c, i) for i, c in enumerate(self.constants, start=1)}

    def value_at(self, n: int | _Tower) -> str:
        for i, entry in self.assignments.items():
            if _tower_cmp(self.constants[i - 1], i, n) == 0:
                return entry
        return self.default

    def to_json_dict(self) -> dict:
        return _record_json(
            self, assignments=sorted(map(list, self.assignments.items())),
            recurrent=sorted(self.recurrent),
        )

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "PowerTowerRule":
        data = _json_object(data, path)
        return cls(
            tuple(_json_items(_json_field(data, "constants", path), f"{path}.constants")),
            _json_id_pairs(data.get("assignments", []), f"{path}.assignments"),
            _json_field(data, "default", path, str),
            tuple(_json_items(data.get("recurrent", []), f"{path}.recurrent", str)),
        )


@dataclass(frozen=True)
class PrimeCongruenceRule:
    """Height rule for a prime-indexed congruence family.

    Heights that are primes above two receive the family member for that
    prime (a registered entry when present, otherwise the symbolic id
    ``family_id:p``); every other height receives the default entry.
    Symbolically, the member at prime p has reduced homology concentrated in
    ``torsion_degree`` where it equals (Z/p)^multiplicity, certified for
    degrees below ``certified_up_to``; its deck quotient is finite.
    """

    members: Mapping[int, str]
    default: str
    family_id: str = FAMILY_ID
    torsion_degree: int = 1
    torsion_multiplicity: int = 1
    certified_up_to: int = 2
    members_simply_connected: bool = False

    def __post_init__(self):
        for p in self.members:
            if p <= 2 or not _is_prime(p):
                raise SigmaError(f"family member index {p} must be a prime above two")
        if self.torsion_multiplicity < 1:
            raise SigmaError("family multiplicity must be at least one")

    def applies_at(self, n: int | _Tower) -> bool:
        return isinstance(n, int) and n > 2 and _is_prime(n)  # a tower height is 1 or a square

    def value_at(self, n: int | _Tower) -> str:
        if self.applies_at(n):
            return self.members.get(n, f"{self.family_id}:{n}")
        return self.default

    def to_json_dict(self) -> dict:
        return _record_json(self, members=sorted(map(list, self.members.items())))

    @classmethod
    def from_json_dict(cls, data: Mapping, path: str = "$") -> "PrimeCongruenceRule":
        data = _json_object(data, path)
        return cls(
            _json_id_pairs(data.get("members", []), f"{path}.members"),
            _json_field(data, "default", path, str),
            _json_field(data, "family_id", path, str, default=FAMILY_ID),
            _json_field(data, "torsion_degree", path, int, default=1),
            _json_field(data, "torsion_multiplicity", path, int, default=1),
            _json_field(data, "certified_up_to", path, int, default=2),
            _json_field(data, "members_simply_connected", path, bool, default=False),
        )


class SigmaSpec:
    """A finitely described assignment of registry entries to all heights.

    Resolution order at height n: explicit exceptions, the prime rule (both
    signs), the power-tower rule (positive heights), the base entry at zero,
    then the half-line tails.  At most one positive-side mechanism may be
    active, and every referenced id (symbolic family members aside) must be
    registered; with a prime rule, no registry id may begin with
    ``family_id:``, the prefix of its symbolic members.
    """

    __slots__ = ("registry", "base_id", "exceptions", "positive_tail", "negative_tail", "power_rule", "prime_rule")

    def __init__(
        self,
        registry: Mapping[str, CoverRegistryEntry],
        base_id: str,
        exceptions: Mapping[int, str] | None = None,
        positive_tail: Tail | None = None,
        negative_tail: Tail | None = None,
        power_rule: PowerTowerRule | None = None,
        prime_rule: PrimeCongruenceRule | None = None,
    ):
        self.registry = dict(registry)
        self.base_id = base_id
        self.exceptions = {int(n): e for n, e in (exceptions or {}).items()}
        self.positive_tail = positive_tail
        self.negative_tail = negative_tail
        self.power_rule = power_rule
        self.prime_rule = prime_rule

        if prime_rule is not None and (positive_tail or negative_tail or power_rule):
            raise SigmaError("a prime rule governs both signs; no tails or tower rule allowed")
        if power_rule is not None and positive_tail is not None:
            raise SigmaError("tower rule and positive tail cannot both be active")
        if prime_rule is None:
            if power_rule is None and positive_tail is None:
                raise SigmaError("positive heights are not covered")
            if negative_tail is None:
                raise SigmaError("negative heights are not covered")
        for eid in self._referenced_ids():
            if eid not in self.registry:
                raise SigmaError(f"referenced entry {eid!r} is not in the registry")
        if prime_rule is not None and any(eid.startswith(prime_rule.family_id + ":") for eid in self.registry):
            raise SigmaError(f"a registry id reads as a symbolic member {prime_rule.family_id}:p")

    def _referenced_ids(self) -> set[str]:
        out = self.recurrent_ids() | {self.base_id} | set(self.exceptions.values())
        if self.power_rule:
            out.update(self.power_rule.assignments.values())
        if self.prime_rule:
            out.update(self.prime_rule.members.values())
        return out

    def recurrent_ids(self) -> set[str]:
        """Entries occurring at infinitely many heights (symbolic family aside)."""
        out: set[str] = set()
        for tail in (self.positive_tail, self.negative_tail):
            if tail:
                out.update(tail.ids)
        if self.power_rule:
            out.add(self.power_rule.default)
            out.update(self.power_rule.recurrent)
        if self.prime_rule:
            out.add(self.prime_rule.default)
        return out

    def value(self, n: int | _Tower) -> str:
        """Entry at height n; a tower height (C, i) is positive and is resolved unbuilt."""
        if isinstance(n, tuple):
            exception, sign = next((e for h, e in self.exceptions.items() if _tower_cmp(*n, h) == 0), None), 1
        else:
            n = int(n)
            exception, sign = self.exceptions.get(n), (n > 0) - (n < 0)
        if exception is not None:
            return exception
        if self.prime_rule is not None:
            return self.prime_rule.value_at(n)
        if sign > 0 and self.power_rule is not None:
            return self.power_rule.value_at(n)
        if sign == 0:
            return self.base_id
        if sign > 0:
            return self.positive_tail.value_at(n)
        return self.negative_tail.value_at(-n)

    def to_json_dict(self) -> dict:
        return {
            "registry": {"entries": [e.to_json_dict() for _, e in sorted(self.registry.items())]},
            "base_id": self.base_id,
            "exceptions": sorted([n, e] for n, e in self.exceptions.items()),
            "positive_tail": self.positive_tail.to_json_dict() if self.positive_tail else None,
            "negative_tail": self.negative_tail.to_json_dict() if self.negative_tail else None,
            "power_rule": self.power_rule.to_json_dict() if self.power_rule else None,
            "prime_rule": self.prime_rule.to_json_dict() if self.prime_rule else None,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SigmaSpec":
        """Read a spec and its embedded registry; a wrong shape raises ``FormatError`` naming its JSON path."""
        data = _json_object(data, "$")
        return cls(
            _registry_from_json(_json_field(data, "registry", "$"), "$.registry"),
            _json_field(data, "base_id", "$", str),
            _json_id_pairs(data.get("exceptions", []), "$.exceptions"),
            _json_optional(data, "positive_tail", Tail.from_json_dict),
            _json_optional(data, "negative_tail", Tail.from_json_dict),
            _json_optional(data, "power_rule", PowerTowerRule.from_json_dict),
            _json_optional(data, "prime_rule", PrimeCongruenceRule.from_json_dict),
        )

    def __repr__(self) -> str:
        return f"SigmaSpec(base={self.base_id!r}, {len(self.registry)} registry entries)"


# ---------------------------------------------------------------------------
# Decisions


@dataclass(frozen=True)
class FpVerdict:
    holds: bool
    ring: str
    k: int | str
    witness_entry: str | None = None
    witness_degree: int | None = None

    def __str__(self) -> str:
        label = f"FP_{self.k}({self.ring})" if self.k != "FP" else f"FP({self.ring})"
        if self.holds:
            return f"{label}: YES"
        return f"{label}: NO (entry {self.witness_entry}, degree {self.witness_degree})"

    def to_json_dict(self) -> dict:
        return {
            "property": f"FP_{self.k}" if self.k != "FP" else "FP",
            "ring": self.ring,
            "verdict": "YES" if self.holds else "NO",
            "witness_entry": self.witness_entry,
            "witness_degree": self.witness_degree,
        }


def check_referenced_entries(s: SigmaSpec) -> None:
    """Raise SigmaError listing every disagreement that :func:`validate_registry`
    finds in the constructed entries the spec references; declared ones are read as given."""
    referenced = {eid: s.registry[eid] for eid in s._referenced_ids()}
    problems = validate_registry({eid: e for eid, e in referenced.items() if e.kind == "constructed"})
    if problems:
        raise SigmaError("constructed entries fail their recomputation: " + "; ".join(problems))


def _check_quotients(s: SigmaSpec, certified: Callable[[CoverRegistryEntry], bool], missing: str) -> None:
    """Refuse the first referenced entry whose deck quotient is neither finite nor ``certified``."""
    for eid in sorted(s._referenced_ids()):
        entry = s.registry[eid]
        if not (entry.quotient_is_finite or certified(entry)):
            raise SigmaError(f"entry {eid!r} has no {missing}")


def fp_decide(s: SigmaSpec, R: RingSpec, k: int | str) -> FpVerdict:
    """Decide the k-th finiteness property over R for the group the spec describes.

    YES exactly when every recurrently occurring entry has vanishing reduced
    homology over R in all degrees below k ("FP" means all degrees).  The NO
    verdict names a witness entry and degree.  Finitely many exceptional
    heights never matter.
    """
    if k != "FP":
        k = int(k)
        if k < 1:
            raise SigmaError("k must be at least 1, or the string 'FP'")
    _check_quotients(s, lambda e: e.quotient_fp_certified, "finiteness certificate for its deck quotient")

    for eid in sorted(s.recurrent_ids()):
        entry = s.registry[eid]
        if not entry.covers_degrees_below(k):
            raise MissingCertificateError(
                f"recurrent entry {eid!r} certifies too few degrees for k={k}"
            )
        summary = entry.homology_over(R)
        top = summary.max_degree if k == "FP" else k - 1
        for i in range(top + 1):
            if not summary.is_trivial_in(i):
                return FpVerdict(False, R.key, k, eid, i)

    fam = s.prime_rule
    if fam is not None:
        if k == "FP":
            raise MissingCertificateError("the prime family certifies only finitely many degrees")
        if fam.certified_up_to < k:
            raise MissingCertificateError("the prime family does not certify enough degrees")
        # The family places (Z/p)^m in its torsion degree at every family
        # prime p, so over Z infinitely many heights fail; over F_q only the
        # single height q can, and over Q none do.
        if fam.torsion_degree < k and R.tag == "Z":
            return FpVerdict(False, R.key, k, f"{fam.family_id}:*", fam.torsion_degree)
    return FpVerdict(True, R.key, k)


@dataclass(frozen=True)
class PresentabilityVerdict:
    holds: bool
    witness_entry: str | None = None

    def __str__(self) -> str:
        if self.holds:
            return "finitely presented: YES"
        return f"finitely presented: NO (entry {self.witness_entry})"

    def to_json_dict(self) -> dict:
        return {
            "property": "finitely_presented",
            "verdict": "YES" if self.holds else "NO",
            "witness_entry": self.witness_entry,
        }


def finitely_presented_decide(s: SigmaSpec) -> PresentabilityVerdict:
    """YES exactly when all but finitely many heights carry simply connected covers."""
    _check_quotients(
        s, lambda e: e.quotient_finitely_presented, "finite-presentability certificate for its quotient"
    )
    for eid in sorted(s.recurrent_ids()):
        entry = s.registry[eid]
        if entry.simply_connected is None:
            raise MissingCertificateError(f"entry {eid!r} has undetermined simple connectivity")
        if not entry.simply_connected:
            return PresentabilityVerdict(False, eid)
    if s.prime_rule is not None and not s.prime_rule.members_simply_connected:
        return PresentabilityVerdict(False, f"{s.prime_rule.family_id}:*")
    return PresentabilityVerdict(True)


# ---------------------------------------------------------------------------
# Builders


def sigma_field_example(
    registry: Mapping[str, CoverRegistryEntry], *, member_ids: Mapping[int, str] | None = None
) -> SigmaSpec:
    """Prime heights above two get the congruence-family member, all others the base.

    Each prime is used at exactly one height, but the family as a whole
    recurs, which is what separates the integral verdict from the field ones.
    The base must have vanishing first homology over every ring, which is why
    it is the perfect-fundamental-group stand-in.
    """
    rule = PrimeCongruenceRule(members=dict(member_ids or {}), default=PERFECT_ID)
    return SigmaSpec(registry, PERFECT_ID, prime_rule=rule)


def _prime_member(p: int, member_ids: Mapping[int, str]) -> str:
    """Registry id for the prime p: the supplied member, or the base at p = 2."""
    if p == 2:
        return member_ids.get(2, BASE_ID)
    if p not in member_ids:
        raise SigmaError(f"registry member for prime {p} not supplied")
    return member_ids[p]


def sigma_prime_set(
    S: Sequence[int],
    registry: Mapping[str, CoverRegistryEntry],
    *,
    member_ids: Mapping[int, str] | None = None,
) -> SigmaSpec:
    """Negative heights get the index-two cover; positive heights cycle through
    the members for the chosen primes (the prime two maps to the base itself).

    An empty prime set sends the positive side to the index-two cover as well.
    """
    member_ids = dict(member_ids or {})
    primes = sorted(set(int(p) for p in S))
    for p in primes:
        if not _is_prime(p):
            raise SigmaError(f"{p} is not prime")
    if not primes:
        positive = Tail.constant(SL_ID)
    else:
        positive = Tail.recurrent([_prime_member(p, member_ids) for p in primes])
    return SigmaSpec(
        registry,
        BASE_ID,
        positive_tail=positive,
        negative_tail=Tail.constant(SL_ID),
    )


def _alpha_exceeds(C: int, r: int, d: int) -> bool:
    """C * sqrt(2/(d+1)) > r, decided by integer comparison of squares."""
    return 2 * C * C > r * r * (d + 1)


def _growth_failures(C: Sequence[int], n: int, r: Sequence[int], d: int) -> list[str]:
    """The growth conditions that constant n (1-based) of ``C`` breaks, as messages, in check order."""
    c = C[n - 1]
    checks = (
        (n == 1 and not _alpha_exceeds(c, 3, d), "condition C_1*alpha > 3 fails"),
        (not _alpha_exceeds(c, r[n - 1], d), f"condition C_{n}*alpha > r at position {n - 1} fails"),
        (not _alpha_exceeds(c, r[n], d), f"condition C_{n}*alpha > r at position {n} fails"),
        (n >= 2 and not c > C[n - 2], f"condition C_{n} > C_{n - 1} fails"),
    )
    return [message for failed, message in checks if failed]


def choose_constants(d: int, r_bounds: Sequence[int] | None = None, m: int = 1) -> tuple[int, ...]:
    """Lexicographically minimal integers meeting the growth conditions.

    Position n must exceed its predecessor, clear the fixed threshold at
    n = 1, and dominate the loop-length bounds r at positions n-1 and n.
    With R the largest bound it must dominate, C_n * sqrt(2/(d+1)) > R holds
    exactly when 2C_n^2 > R^2(d+1), that is C_n > isqrt(R^2(d+1) // 2).
    """
    if d < 1 or m < 1:
        raise SigmaError("dimension and count must be positive")
    r = list(r_bounds or [])
    if any(x < 0 for x in r):
        raise SigmaError("loop-length bounds must be nonnegative")
    r += [0] * (m + 1 - len(r))
    out = [0]
    for n in range(1, m + 1):
        R = max(r[n - 1], r[n], 3 if n == 1 else 0)
        out.append(max(out[-1] + 1, isqrt(R * R * (d + 1) // 2) + 1))
    return tuple(out[1:])


@dataclass(frozen=True)
class RatioCheckResult:
    ok: bool
    min_ratio_bound: int | None
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def separation_ratio_check(
    constants: Sequence[int], r_values: Sequence[int], d: int
) -> RatioCheckResult:
    """Exact re-verification of the interval-gap inequalities behind the spectrum
    separation argument.

    Checks the growth conditions on the constants, then for each pair (m, n)
    the chain that bounds the ratio between lengths in consecutive intervals
    from below by C_m^(2^m - 2).  All comparisons are exact integer ones; the
    chain's exponent step, 2^(m+n) - 2^m >= 2^m - 1, holds for every m, n >= 1
    and is not rechecked.  The reported bound is the minimum over m.
    """
    C = [int(c) for c in constants]
    r = [int(x) for x in r_values]
    r += [0] * (len(C) + 1 - len(r))
    if d < 1:
        raise ValueError("dimension must be positive")
    if any(x < 0 for x in r):
        raise ValueError("loop-length bounds must be nonnegative")

    failures = [message for n in range(1, len(C) + 1) for message in _growth_failures(C, n, r, d)]

    for m in range(1, len(C) + 1):
        for n in range(1, len(C) + 1 - m):
            if not C[m + n - 1] > C[m - 1]:
                failures.append(f"interval gap ({m}, {n}): constants do not increase")
            if not _alpha_exceeds(C[m - 1], r[m], d):
                failures.append(f"interval gap ({m}, {n}): final ratio step fails")

    bound = min((C[m - 1] ** (2**m - 2) for m in range(1, len(C) + 1)), default=None)
    return RatioCheckResult(not failures, bound, tuple(failures))


def sigma_power_tower(
    F: Sequence[int],
    constants: Sequence[int],
    registry: Mapping[str, CoverRegistryEntry],
    primes: Sequence[int],
    *,
    member_ids: Mapping[int, str] | None = None,
) -> SigmaSpec:
    """Sparse spec with entries only at the tower heights.

    Odd tower indices always carry a member (cycling through the chosen
    primes); even index 2n carries the index-two cover exactly when n is in F.
    Height zero is the base; everything else is the universal-cover entry.
    """
    member_ids = dict(member_ids or {})
    primes = [int(p) for p in primes]
    if not primes:
        raise SigmaError("the tower construction needs a nonempty prime list")
    for p in primes:
        if not _is_prime(p):
            raise SigmaError(f"{p} is not prime")
    constants = tuple(int(c) for c in constants)
    m = len(constants)
    fset = set(int(x) for x in F)

    assignments: dict[int, str] = {}
    for i in range(1, m + 1):
        if i % 2 == 1:
            assignments[i] = _prime_member(primes[((i - 1) // 2) % len(primes)], member_ids)
        elif i // 2 in fset:
            assignments[i] = SL_ID
    rule = PowerTowerRule(
        constants=constants,
        assignments=assignments,
        default=UNIVERSAL_ID,
        recurrent=tuple(sorted({_prime_member(p, member_ids) for p in primes})),
    )
    return SigmaSpec(
        registry,
        BASE_ID,
        exceptions={0: BASE_ID},
        power_rule=rule,
        negative_tail=Tail.constant(UNIVERSAL_ID),
    )


@dataclass(frozen=True)
class SubpresentationSelection:
    presentation: Presentation
    sigma: SigmaSpec
    retained_heights: frozenset[int]


def subpresentation_select(
    full: Presentation,
    T: Sequence[Word],
    registry: Mapping[str, CoverRegistryEntry],
    base_id: str,
    cover_id: str,
) -> SubpresentationSelection:
    """Select the kernel-protecting subpresentation determined by a finite set T.

    Keeps T itself, every triangle relator, the complete first ("alpha") spread
    family, and the second ("beta") family exactly at the heights F where some
    member appears in T.  Also returns the height assignment this pins down:
    the designated cover everywhere off F, the base on F.
    """
    matched: set[int] = set()
    for t in T:
        hits = [i for i, w in enumerate(full.relators) if w == t]
        if not hits:
            raise ValueError(f"relator {t!r} is absent from the full presentation")
        matched.update(hits)
    heights_f = frozenset(
        full.tags[i].height for i in matched if full.tags[i].family == "beta" and full.tags[i].height is not None
    )
    keep = [
        i
        for i, tag in enumerate(full.tags)
        if i in matched or tag.family in ("triangle", "alpha") or (tag.family == "beta" and tag.height in heights_f)
    ]
    sub = Presentation(
        full.generators,
        [full.relators[i] for i in keep],
        [full.tags[i] for i in keep],
        full.height_window,
        full.extends_all_heights,
    )
    exceptions = {int(n): base_id for n in heights_f}
    if 0 not in heights_f:
        exceptions[0] = cover_id
    sigma = SigmaSpec(
        registry=registry,
        base_id=base_id,
        exceptions=exceptions,
        positive_tail=Tail.constant(cover_id),
        negative_tail=Tail.constant(cover_id),
    )
    return SubpresentationSelection(sub, sigma, heights_f)


# ---------------------------------------------------------------------------
# Quantities for the spectrum arguments


def normal_generating_length_bound(c: CoverComplex) -> int:
    """Upper bound for the shortest max-length normal generating set of the cover.

    Zero when the total space is certifiably simply connected (enumeration
    completes at index one); otherwise the longest loop produced by the
    spanning-tree generators.  Always an upper bound for the true minimum.
    """
    try:
        _tree_parents(c.total)  # cached for SpanningTreeWords; its walk proves connectivity
    except ComplexError:
        raise SigmaError("the bound needs a connected cover") from None
    if _fundamental_group_order(c.total) == 1:
        return 0
    loops = normal_generators(c)
    return max((len(p) - 1 for p in loops), default=0)


def min_kernel_length_bound(M: int | float, d: int) -> float:
    """M * sqrt(2/(d+1)), exact when the radicand is a perfect square; ``math.inf``
    for M = inf, the height :func:`min_disagreement_height` gives equal specs."""
    if M < 0:
        raise SigmaError("M must be nonnegative")
    if d < 1:
        raise SigmaError("dimension must be positive")
    if M == math.inf:
        return math.inf
    if isinstance(M, float) and not M.is_integer():
        raise SigmaError(f"M must be an integer or infinity, got {M}")
    M = int(M)
    num, den = 2 * M * M, d + 1
    root = isqrt(num // den)  # the floor of the bound, exact when root^2 = num / den
    if root * root * den != num and num // den <= sys.float_info.max:  # else num / den overflows
        return math.sqrt(num / den)
    if root > sys.float_info.max:
        raise SigmaError(f"the bound for a {M.bit_length()}-bit M is past the float range")
    return float(root)


def min_disagreement_height(a: SigmaSpec, b: SigmaSpec) -> int | float:
    """Smallest |n| where the two specs assign different entries; inf if equal.

    Explicit heights (exceptions, tower heights, registered family members,
    zero) are evaluated directly.  Every other height falls in one of finitely
    many types: its sign and its residue modulo the joint tail period, and,
    when either spec has a prime rule, whether it is a prime above two.  Away
    from the explicit heights ``SigmaSpec.value`` is constant on a type (a
    symbolic member ``family:p`` up to its p), so each type is compared at its
    smallest non-explicit representative, found exactly with no scan cap, and
    a disagreeing type contributes that representative.  Tower heights are
    never scanned, so astronomically large ones cost nothing: they stay pairs
    (C, i) compared by bounded squaring, and only an answer is built.  An
    answer of more than 2**20 bits is refused with ``SigmaError``.
    """
    if a.registry != b.registry:
        raise SigmaError("specs compare only over a common registry")
    explicit: set[int] = {0}
    towers: set[_Tower] = set()
    for s in (a, b):
        explicit.update(s.exceptions)
        if s.power_rule:
            towers.update((c, i) for i, c in enumerate(s.power_rule.constants, start=1))
        if s.prime_rule:
            explicit.update(s.prime_rule.members.keys())
    best: int | float = min((abs(n) for n in explicit if a.value(n) != b.value(n)), default=math.inf)

    period = math.lcm(*(t.period() for s in (a, b) for t in (s.positive_tail, s.negative_tail) if t))
    split = (False, True) if a.prime_rule or b.prime_rule else (None,)  # only a prime rule reads primality
    for sign in (1, -1):
        for residue in range(period):
            for prime_above_2 in split if sign > 0 else (None,):
                # A class whose members share a factor g > 1 holds no prime but g; any other
                # holds infinitely many primes (Dirichlet) and composites, so the scan ends.
                g = math.gcd(residue, period)
                for magnitude in [g] if prime_above_2 and g > 1 else count(residue or period, period):
                    if magnitude >= best:  # no later representative can lower the answer
                        break
                    n = sign * magnitude
                    in_type = magnitude % period == residue and n not in explicit
                    in_type = in_type and all(_tower_cmp(*t, n) for t in towers)  # n is no tower height
                    if in_type and (prime_above_2 is None or (n > 2 and _is_prime(n)) == prime_above_2):
                        if a.value(n) != b.value(n):
                            best = magnitude
                        break
    order = functools.cmp_to_key(lambda t, u: _tower_cmp(*t, u))
    least = min((t for t in towers if a.value(t) != b.value(t)), key=order, default=None)
    if least and (best == math.inf or _tower_cmp(*least, best) < 0):
        best = _tower_height(*least)
    return best


def example_registry() -> dict[str, CoverRegistryEntry]:
    """Desk-scale registry of declared arithmetic stand-ins.

    The base abelianizes to order two, its index-two cover has perfect
    fundamental group, the universal-cover entry is simply connected with a
    finitely presented deck quotient, and each congruence member carries
    one copy of Z/p in degree one.
    """
    entries = [
        declared_entry(
            BASE_ID,
            degree=1,
            ranks=(0, 0),
            torsion=((), (2,)),
            certified_up_to=2,
            simply_connected=False,
            quotient_is_finite=True,
            note="base complex; fundamental group abelianizes to order two (determinant sign)",
        ),
        declared_entry(
            SL_ID,
            degree=2,
            ranks=(0, 0),
            torsion=((), ()),
            certified_up_to=2,
            simply_connected=False,
            quotient_is_finite=True,
            note="index-two cover with perfect fundamental group; first homology vanishes",
        ),
        declared_entry(
            PERFECT_ID,
            degree=1,
            ranks=(0, 0),
            torsion=((), ()),
            certified_up_to=2,
            simply_connected=False,
            quotient_is_finite=True,
            note="alternative base with perfect fundamental group; first homology vanishes",
        ),
        declared_entry(
            UNIVERSAL_ID,
            degree="infinite",
            ranks=(0, 0),
            torsion=((), ()),
            certified_up_to=2,
            simply_connected=True,
            quotient_is_finite=False,
            quotient_fp_certified=True,
            quotient_finitely_presented=True,
            note="universal cover; deck quotient is an arithmetic group, finitely presented and FP",
        ),
    ]
    for p in (3, 5, 7):
        entries.append(
            declared_entry(
                f"{FAMILY_ID}{p}",
                degree=p**3 * (p**2 - 1) * (p**3 - 1),
                ranks=(0, 0),
                torsion=((), (p,)),
                certified_up_to=2,
                simply_connected=False,
                quotient_is_finite=True,
                note=(
                    f"desk-scale congruence-cover stand-in carrying Z/{p} torsion in degree one; "
                    f"the arithmetic original has first homology (Z/{p})^8 by Lee-Szczarba"
                ),
            )
        )
    return {e.id: e for e in entries}


def dump_sigma_spec(s: SigmaSpec) -> str:
    return _json_text(s.to_json_dict())


def load_sigma_spec(path) -> SigmaSpec:
    return SigmaSpec.from_json_dict(_read_json(path))


def dump_registry(registry: Mapping[str, CoverRegistryEntry]) -> str:
    return _json_text({"entries": [e.to_json_dict() for _, e in sorted(registry.items())]})


def load_registry(path) -> dict[str, CoverRegistryEntry]:
    return _registry_from_json(_read_json(path), "$")
