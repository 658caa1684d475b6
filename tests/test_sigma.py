import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from fpforge import sigma as sigma_mod
from fpforge.cli import main
from fpforge.complex_core import SimplicialComplex, barycentric_subdivision, spanning_tree, validate
from fpforge.covers import VoltageAssignment, build_cover, double_cover_voltages, verify_covering
from fpforge.homology import HomologySummary, RingSpec, reduced_homology
from fpforge.sigma import (
    MissingCertificateError,
    PowerTowerRule,
    PrimeCongruenceRule,
    SigmaError,
    SigmaSpec,
    Tail,
    choose_constants,
    constructed_entry,
    declared_entry,
    dump_registry,
    dump_sigma_spec,
    example_registry,
    family_members,
    finitely_presented_decide,
    fp_decide,
    load_registry,
    load_sigma_spec,
    min_disagreement_height,
    min_kernel_length_bound,
    normal_generating_length_bound,
    sigma_field_example,
    sigma_power_tower,
    sigma_prime_set,
    validate_registry,
)

from helpers import (
    RP2_FACETS, reference_choose_constants, reference_facets, s3_left_regular_cover, total_length_bound,
    total_simply_connected, voltage_assignments,
)

MEMBERS = {p: f"Lp{p}" for p in (3, 5, 7)}
SPHERE_Z = HomologySummary(RingSpec.Z(), (0, 0, 1), ((), (), ()))


def cycle_complex(n):
    return SimplicialComplex.from_facets([[i, (i + 1) % n] for i in range(n)])


def c4_double_voltage():
    base = cycle_complex(4)
    nontree = [e for e in base.edges() if e not in spanning_tree(base)]
    return VoltageAssignment(base, 2, {nontree[0]: (1, 0)})


def subdivided_rp2(times=1):
    base = SimplicialComplex.from_facets(RP2_FACETS)
    for _ in range(times):
        base = barycentric_subdivision(base)
    return base


def orientation_voltage(times=1):
    (voltage,) = double_cover_voltages(subdivided_rp2(times))
    return voltage


def generic_value(spec, sign, residue, prime_above_2):
    """Oracle token at any non-explicit height of the type (sign, |n| mod period, primality above two):
    symbolic family members are tokenized by family id, distinct from every registered id."""
    if spec.prime_rule is not None:
        if prime_above_2:
            return ("symbolic", spec.prime_rule.family_id)
        return ("id", spec.prime_rule.default)
    if sign > 0 and spec.power_rule is not None:
        return ("id", spec.power_rule.default)
    tail = spec.positive_tail if sign > 0 else spec.negative_tail
    return ("id", tail.value_at(residue))


def capped_min_disagreement_height(a, b):
    """Oracle: the type scan as it was with a cap, which no representative below reaches here."""
    explicit = {0}
    for s in (a, b):
        explicit.update(s.exceptions)
        if s.power_rule:
            explicit.update(s.power_rule.heights().values())
        if s.prime_rule:
            explicit.update(s.prime_rule.members.keys())
    best = min((abs(n) for n in explicit if a.value(n) != b.value(n)), default=math.inf)
    period = 1
    for s in (a, b):
        for tail in (s.positive_tail, s.negative_tail):
            if tail:
                period = math.lcm(period, tail.period())
    cap = 10_000 * period + 10_000
    for sign in (1, -1):
        for residue in range(period):
            for prime_above_2 in ((False,) if sign < 0 else (False, True)):
                va = generic_value(a, sign, residue, prime_above_2)
                vb = generic_value(b, sign, residue, prime_above_2)
                if va == vb:
                    continue
                magnitude = residue if residue else period
                while magnitude <= cap:
                    n = sign * magnitude
                    if n not in explicit and (n > 2 and sigma_mod._is_prime(n)) == prime_above_2:
                        best = min(best, magnitude)
                        break
                    magnitude += period
    return best


def linear_choose_constants(d, r_bounds, m):
    """Oracle: try C = previous + 1, previous + 2, ... against the conditions written out."""
    r = list(r_bounds) + [0] * (m + 1)
    out = []
    for n in range(1, m + 1):
        C = out[-1] + 1 if out else 1
        while not (2 * C * C > (d + 1) * max(r[n - 1], r[n], 3 if n == 1 else 0) ** 2):
            C += 1
        out.append(C)
    return tuple(out)


# Constant tuples whose tower heights coincide at different indices: 16 = 4^2 = 2^4,
# 256 = 16^2 = 4^4, 6561 = 9^4 = 3^8 and 2^32 = 16^8 = 4^16.
COINCIDING_CONSTANTS = [(4, 9, 16), (1, 2, 3, 4), (16,), (2, 4)]
SHARED_TOWER_HEIGHTS = [1, 4, 16, 81, 256, 6561, 2**32]


def tower_heights(constants):
    return [c ** 2**i for i, c in enumerate(constants, start=1)]


@st.composite
def tower_constants(draw):
    """Strictly increasing constants, 1-4 of them, starting anywhere from 1 to 16, or a coinciding tuple."""
    if draw(st.booleans()):
        return draw(st.sampled_from(COINCIDING_CONSTANTS))
    steps = draw(st.lists(st.integers(1, 4), max_size=3))
    return tuple(accumulate(steps, initial=draw(st.integers(1, 16))))


@st.composite
def sigma_specs(draw, registry):
    """Specs over the example ids: periodic tails, a prime rule, or a short power tower, with exceptions,
    some of them at tower heights."""
    ids = st.sampled_from(["Lsl", "Luniv"])  # two ids, so that specs often agree on whole classes
    heights = st.integers(-30, 30) | st.sampled_from(SHARED_TOWER_HEIGHTS)
    exceptions = draw(st.dictionaries(heights, ids, max_size=2))
    kind = draw(st.sampled_from(["tails", "prime", "tower"]))
    if kind == "prime":
        members = draw(st.dictionaries(st.sampled_from([3, 5, 7]), st.sampled_from(["Lp3", "Lp5", "Lp7"])))
        rule = PrimeCongruenceRule(members, draw(ids), family_id=draw(st.sampled_from(["Lp", "Lq"])))
        return SigmaSpec(registry, "Luniv", exceptions, prime_rule=rule)
    negative = Tail.recurrent(draw(st.lists(ids, min_size=1, max_size=3)))
    if kind == "tower":
        constants = draw(tower_constants())
        exceptions.update(draw(st.dictionaries(st.sampled_from(tower_heights(constants)), ids, max_size=1)))
        assignments = draw(st.dictionaries(st.integers(1, len(constants)), ids | st.just("Lp3")))
        rule = PowerTowerRule(constants, assignments, draw(ids))
        return SigmaSpec(registry, "Luniv", exceptions, negative_tail=negative, power_rule=rule)
    positive = Tail.recurrent(draw(st.lists(ids, min_size=1, max_size=4)))
    return SigmaSpec(registry, "Luniv", exceptions, positive_tail=positive, negative_tail=negative)


@st.composite
def tower_spec_pairs(draw, registry):
    """A tower spec against a tower spec with other constants or against a positive tail, both
    alike off the towers and the exceptions drawn at tower heights, so that the towers decide."""
    ids = st.sampled_from(["Lsl", "Luniv"])
    shared = dict(negative_tail=Tail.constant("Luniv"))
    exceptions = draw(st.dictionaries(st.integers(-30, 30), ids, max_size=2))
    default = draw(ids)

    def tower_spec():
        constants = draw(tower_constants())
        at_towers = st.sampled_from(tower_heights(constants) + SHARED_TOWER_HEIGHTS)
        rule = PowerTowerRule(constants, draw(st.dictionaries(st.integers(1, len(constants)), ids)), default)
        return SigmaSpec(registry, "Luniv", {**exceptions, **draw(st.dictionaries(at_towers, ids, max_size=2))},
                         power_rule=rule, **shared)

    a = tower_spec()
    if draw(st.booleans()):
        return a, tower_spec()
    positive = Tail.recurrent(draw(st.lists(ids, min_size=1, max_size=3)))
    return a, SigmaSpec(registry, "Luniv", exceptions, positive_tail=positive, **shared)


@pytest.fixture(scope="module")
def registry():
    reg = example_registry()
    reg["T5"] = declared_entry(
        "T5",
        degree=25,
        ranks=(0, 0),
        torsion=((), (5,)),
        certified_up_to=2,
        simply_connected=False,
        quotient_is_finite=True,
        note="stand-in cover with five-torsion first homology",
    )
    reg["cycle8"] = constructed_entry("cycle8", c4_double_voltage())  # double cover of the square
    reg["sphere"] = constructed_entry("sphere", orientation_voltage())  # orientation double cover of sd RP^2
    triangle = SimplicialComplex.from_facets([[0, 1, 2]])
    reg["cone"] = constructed_entry("cone", VoltageAssignment(triangle, 1))  # trivial cover of a contractible complex
    return reg


class TestRegistry:
    def test_constructed_certificates_recompute_bit_for_bit(self, registry):
        assert validate_registry(registry) == []
        entry = registry["sphere"]
        fresh = reduced_homology(build_cover(entry.voltage).total, RingSpec.Z())
        assert entry.homology["Z"] == fresh

    def test_constructed_simple_connectivity_flags(self, registry):
        assert registry["sphere"].simply_connected is True
        assert registry["cycle8"].simply_connected is False

    def test_flipped_simple_connectivity_is_reported(self, registry):
        flipped = {
            "sphere": dataclasses.replace(registry["sphere"], simply_connected=False),
            "cycle8": dataclasses.replace(registry["cycle8"], simply_connected=None),
            "cone": registry["cone"],
        }
        assert validate_registry(flipped) == [
            "cycle8: stored simple connectivity disagrees with recomputation",
            "sphere: stored simple connectivity disagrees with recomputation",
        ]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"degree": 3}, "stored degree disagrees with voltage degree"),
            ({"homology": {"Z": HomologySummary(RingSpec.Z(), (0, 1, 1), ((), (), ()))}},
             "stored integral certificate disagrees with recomputation"),
            ({"homology": {"Z": SPHERE_Z, "F3": HomologySummary(RingSpec.Fp(3), (0, 1, 1), ((), (), ()))}},
             "stored F3 certificate disagrees with recomputation"),
            ({"homology": {"Z": SPHERE_Z, "Q": HomologySummary(RingSpec.Q(), (0, 0, 0), ((), (), ()))}},
             "stored Q certificate disagrees with recomputation"),
            ({"simply_connected": None}, "stored simple connectivity disagrees with recomputation"),
        ],
        ids=["degree", "Z", "F3", "Q", "simply_connected"],
    )
    def test_each_corrupted_field_is_reported(self, registry, change, message):
        assert registry["sphere"].homology["Z"] == SPHERE_Z
        corrupted = dataclasses.replace(registry["sphere"], **change)
        assert validate_registry({"sphere": corrupted}) == [f"sphere: {message}"]

    def test_stored_field_certificates_pass_by_universal_coefficients(self):
        entry = constructed_entry("rp2", VoltageAssignment(subdivided_rp2(), 1))
        total = build_cover(entry.voltage).total
        fields = {R.key: reduced_homology(total, R) for R in (RingSpec.Fp(2), RingSpec.Q())}
        assert fields["F2"].ranks == (0, 1, 1) and fields["Q"].ranks == (0, 0, 0)
        stored = dataclasses.replace(entry, homology={**entry.homology, **fields})
        assert validate_registry({"rp2": stored}) == []

    def test_a_declared_field_certificate_never_overrides_the_integral_one(self, tmp_path, capsys):
        """Entry L stores H~1 = Z/2 over Z; a trivial F2 summary beside it is reported, and decisions read the image."""
        registry = example_registry()
        L = registry["L"]
        image = L.homology_over(RingSpec.Fp(2))
        assert image.rank(1) == 1
        trivial = HomologySummary(RingSpec.Fp(2), (0, 0), ((), ()))
        registry["L"] = dataclasses.replace(L, homology={**L.homology, "F2": trivial})
        assert registry["L"].homology_over(RingSpec.Fp(2)) == image
        assert validate_registry(registry) == ["L: stored F2 certificate disagrees with its integral certificate"]
        spec = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
        assert str(fp_decide(spec, RingSpec.Fp(2), 2)) == "FP_2(F2): NO (entry L, degree 1)"
        consistent = {**registry, "L": dataclasses.replace(L, homology={**L.homology, "F2": image})}
        assert validate_registry(consistent) == []
        # The same verdict through the command line, from a registry file.
        (tmp_path / "registry.json").write_text(dump_registry(registry), encoding="utf-8")
        spec_path = str(tmp_path / "spec.json")
        argv = ["sigma", "--builder", "prime-set", "--primes", "2,3", "--registry", str(tmp_path / "registry.json")]
        assert main([*argv, "--out", spec_path]) == 0
        capsys.readouterr()
        assert main(["decide", "--sigma", spec_path, "--ring", "F2", "--k", "2"]) == 0
        assert capsys.readouterr().out == "FP_2(F2): NO (entry L, degree 1)\n"

    def test_declared_entry_without_homology_is_reported(self, registry):
        bare = dataclasses.replace(registry["T5"], homology={})
        assert validate_registry({"T5": bare}) == ["T5: declared entry carries no homology data"]

    def test_disconnected_cover_is_not_simply_connected(self, tmp_path):
        # Identity voltages on a contractible base: two disjoint triangles, so H~1 = 0 but H~0 = Z.
        entry = constructed_entry("two", VoltageAssignment(SimplicialComplex.from_facets([[0, 1, 2]]), 2))
        assert entry.simply_connected is False
        assert entry.homology["Z"].rank(0) == 1
        path = tmp_path / "registry.json"
        path.write_text(dump_registry({"two": entry}), encoding="utf-8")
        assert validate_registry(load_registry(path)) == ["two: constructed cover is disconnected"]
        undetermined = {"two": dataclasses.replace(entry, simply_connected=None)}
        assert validate_registry(undetermined) == [
            "two: constructed cover is disconnected",
            "two: stored simple connectivity disagrees with recomputation",
        ]

    def test_disconnected_cover_is_decided_before_the_base(self, monkeypatch):
        # Identity voltages of degree 60 on a 2-complex with group A5 give 60 disjoint copies with
        # H~1 = 0 and a base of order 60, too large to build here; stand in for its base order.
        monkeypatch.setattr(sigma_mod, "_fundamental_group_order", lambda K: 2)
        triangle = SimplicialComplex.from_facets([[0, 1, 2]])
        assert constructed_entry("two", VoltageAssignment(triangle, 2)).simply_connected is False

    def test_declared_needs_note(self):
        with pytest.raises(SigmaError):
            declared_entry(
                "bad",
                degree=1,
                ranks=(0,),
                torsion=((),),
                certified_up_to=1,
                simply_connected=False,
                quotient_is_finite=True,
                note="",
            )

    def test_registry_json_round_trip(self, registry, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(dump_registry(registry), encoding="utf-8")
        again = load_registry(path)
        assert set(again) == set(registry)
        assert again["sphere"] == registry["sphere"]
        assert dump_registry(again) == dump_registry(registry)


@given(voltage_assignments())
def test_cover_totals_are_valid_by_construction(voltage):
    """``build_cover`` records its total as valid, so no check runs on it later: test it here."""
    cover = build_cover(voltage)
    assert cover.total._cache["valid"] and validate(cover.total) == []
    assert verify_covering(cover)
    assert cover.total.facets() == reference_facets(cover.total)


class TestSimpleConnectivityFromTheBase:
    @settings(max_examples=150)
    @given(voltage_assignments())
    def test_matches_the_total_space_oracle(self, voltage):
        verdict = constructed_entry("v", voltage).simply_connected
        if not build_cover(voltage).total.is_connected():
            assert verdict is False
            return
        oracle = total_simply_connected(voltage)
        if oracle is not None:
            assert verdict is oracle

    @pytest.mark.parametrize("times", [1, 2, 3])
    def test_orientation_covers_of_subdivided_rp2(self, times):
        voltage = orientation_voltage(times)
        assert constructed_entry("sphere", voltage).simply_connected is True
        assert total_simply_connected(voltage) is True

    def test_the_base_group_is_enumerated_once_per_base(self, monkeypatch):
        """Covers over one base object, built and then recomputed by ``validate_registry``, run one coset
        enumeration: the base's group order is kept on the base."""
        calls = []
        real = sigma_mod.coset_enumerate
        monkeypatch.setattr(sigma_mod, "coset_enumerate", lambda *args: calls.append(args) or real(*args))
        voltage = orientation_voltage()
        registry = {
            f"S{i}": constructed_entry(f"S{i}", VoltageAssignment(voltage.base, 2, voltage.nontree_voltages()))
            for i in range(3)
        }
        registry["L"] = constructed_entry("L", VoltageAssignment(voltage.base, 1))  # H~1 = Z/2 decides: no enumeration
        assert validate_registry(registry) == []
        assert [e.simply_connected for _, e in sorted(registry.items())] == [False, True, True, True]
        assert len(calls) == 1

    @pytest.mark.parametrize("voltage", [c4_double_voltage(), s3_left_regular_cover().assignment], ids=["c4", "s3"])
    def test_covers_of_graphs(self, voltage):
        # A graph's group is free, so the total's is too: H~1 decides, and its infinite index ends the oracle.
        assert constructed_entry("graph", voltage).simply_connected is False
        assert total_simply_connected(voltage) is None


class TestSigmaValue:
    def test_exceptions_override_tails(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            exceptions={3: "T5"},
            positive_tail=Tail.constant("L"),
            negative_tail=Tail.constant("L"),
        )
        assert spec.value(3) == "T5"
        assert spec.value(4) == "L"

    def test_tower_height_lookup(self, registry):
        rule = PowerTowerRule((4,), {1: "T5"}, "Luniv")
        spec = SigmaSpec(registry, "L", power_rule=rule, negative_tail=Tail.constant("Luniv"))
        assert spec.value(16) == "T5"  # 4^(2^1)
        assert spec.value(17) == "Luniv"

    def test_negative_constant_tail(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("L"),
            negative_tail=Tail.constant("Luniv"),
        )
        assert spec.value(-7) == "Luniv"

    def test_round_robin_schedule(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.recurrent(["Lp3", "Lp5"]),
            negative_tail=Tail.constant("Lsl"),
        )
        assert [spec.value(n) for n in (1, 2, 3, 4)] == ["Lp3", "Lp5", "Lp3", "Lp5"]

    def test_unknown_id_rejected(self, registry):
        with pytest.raises(SigmaError):
            SigmaSpec(registry, "missing", positive_tail=Tail.constant("L"), negative_tail=Tail.constant("L"))

    def test_uncovered_sign_rejected(self, registry):
        with pytest.raises(SigmaError):
            SigmaSpec(registry, "L", positive_tail=Tail.constant("L"))

    def test_registry_id_reading_as_a_symbolic_member_rejected(self, registry):
        # value(5) would be "Lp:5" both as the symbolic member and as this entry, and the two are not the same cover
        registry = {**registry, "Lp:5": dataclasses.replace(registry["Lp5"], id="Lp:5")}
        rule = PrimeCongruenceRule({}, "Luniv")
        with pytest.raises(SigmaError, match="symbolic member Lp:p"):
            SigmaSpec(registry, "L", prime_rule=rule)
        assert SigmaSpec(registry, "L", prime_rule=dataclasses.replace(rule, family_id="Lq")).value(5) == "Lq:5"


class TestFpDecide:
    def test_torsion_truth_table(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("T5"),
            negative_tail=Tail.constant("Luniv"),
        )
        assert fp_decide(spec, RingSpec.Q(), 2).holds
        assert not fp_decide(spec, RingSpec.Fp(5), 2).holds
        assert fp_decide(spec, RingSpec.Fp(7), 2).holds
        verdict = fp_decide(spec, RingSpec.Z(), 2)
        assert not verdict.holds and verdict.witness_entry == "T5" and verdict.witness_degree == 1

    def test_finitely_many_bad_heights_pass_over_every_ring(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            exceptions={1: "T5", -4: "Lp3", 9: "cycle8"},
            positive_tail=Tail.constant("Luniv"),
            negative_tail=Tail.constant("Luniv"),
        )
        for ring in (RingSpec.Z(), RingSpec.Q(), RingSpec.Fp(2), RingSpec.Fp(5)):
            assert fp_decide(spec, ring, 2).holds

    def test_fp_mode_with_constructed_entries(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("cone"),
            negative_tail=Tail.constant("cone"),
        )
        assert fp_decide(spec, RingSpec.Z(), "FP").holds
        # the sphere-like cover fails FP in degree two, even over a field
        spec2 = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("sphere"),
            negative_tail=Tail.constant("cone"),
        )
        verdict = fp_decide(spec2, RingSpec.Q(), "FP")
        assert not verdict.holds and verdict.witness_entry == "sphere" and verdict.witness_degree == 2
        # but passes FP_2, where only degrees below two matter
        assert fp_decide(spec2, RingSpec.Z(), 2).holds
        spec3 = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("cycle8"),
            negative_tail=Tail.constant("cone"),
        )
        verdict3 = fp_decide(spec3, RingSpec.Z(), "FP")
        assert not verdict3.holds and verdict3.witness_entry == "cycle8"

    def test_fp_mode_needs_complete_certificates(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("T5"),
            negative_tail=Tail.constant("Luniv"),
        )
        with pytest.raises(MissingCertificateError):
            fp_decide(spec, RingSpec.Z(), "FP")

    def test_monotone_in_k(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("sphere"),
            negative_tail=Tail.constant("Luniv"),
        )
        for ring in (RingSpec.Z(), RingSpec.Q(), RingSpec.Fp(3)):
            if fp_decide(spec, ring, 2).holds:
                assert fp_decide(spec, ring, 1).holds

    def test_integral_yes_implies_field_yes(self, registry):
        for tail_id in ("sphere", "Luniv", "T5", "L"):
            spec = SigmaSpec(
                registry,
                "L",
                positive_tail=Tail.constant(tail_id),
                negative_tail=Tail.constant("Luniv"),
            )
            if fp_decide(spec, RingSpec.Z(), 2).holds:
                for ring in (RingSpec.Q(), RingSpec.Fp(2), RingSpec.Fp(5), RingSpec.Fp(7)):
                    assert fp_decide(spec, ring, 2).holds

    def test_hypothesis_flag_required(self, registry):
        reg = dict(registry)
        reg["nofp"] = declared_entry(
            "nofp",
            degree="infinite",
            ranks=(0, 0),
            torsion=((), ()),
            certified_up_to=2,
            simply_connected=True,
            quotient_is_finite=False,
            note="quotient finiteness properties unknown",
        )
        spec = SigmaSpec(reg, "L", positive_tail=Tail.constant("nofp"), negative_tail=Tail.constant("Luniv"))
        with pytest.raises(SigmaError):
            fp_decide(spec, RingSpec.Z(), 2)


class TestFinitelyPresentedDecide:
    def test_simply_connected_tails_yes(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            exceptions={0: "L", 5: "T5"},
            positive_tail=Tail.constant("Luniv"),
            negative_tail=Tail.constant("sphere"),
        )
        assert finitely_presented_decide(spec).holds

    def test_base_tail_no(self, registry):
        spec = SigmaSpec(
            registry,
            "L",
            positive_tail=Tail.constant("L"),
            negative_tail=Tail.constant("Luniv"),
        )
        verdict = finitely_presented_decide(spec)
        assert not verdict.holds and verdict.witness_entry == "L"

    def test_prime_family_no(self, registry):
        spec = sigma_field_example(registry, member_ids=MEMBERS)
        assert not finitely_presented_decide(spec).holds


class TestBuilders:
    def test_family_members_read_lp_ids_at_primes_above_two(self):
        ids = ["L", "Lp2", "Lp9", "Lp07", "Lp\u0663", "Lp" + "1" * 29 + "3", "Lq5", "Lp", "Lp11", "Lp3"]
        assert family_members(ids) == {11: "Lp11", 3: "Lp3"}
        assert family_members(example_registry()) == MEMBERS

    def test_field_example_values(self, registry):
        spec = sigma_field_example(registry, member_ids=MEMBERS)
        assert spec.value(4) == "Lperf"
        assert spec.value(5) == "Lp5"
        assert spec.value(0) == "Lperf"
        assert spec.value(11) == "Lp:11"  # symbolic member beyond the desk registry

    def test_field_example_verdicts(self, registry):
        spec = sigma_field_example(registry, member_ids=MEMBERS)
        assert fp_decide(spec, RingSpec.Q(), 2).holds
        for p in (2, 3, 5, 7, 11):
            assert fp_decide(spec, RingSpec.Fp(p), 2).holds
        assert not fp_decide(spec, RingSpec.Z(), 2).holds

    def test_prime_set_schedule_and_verdicts(self, registry):
        spec = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
        assert [spec.value(n) for n in (1, 2, 3, 4)] == ["L", "Lp3", "L", "Lp3"]
        assert spec.value(-1) == "Lsl"
        for p in (2, 3):
            assert not fp_decide(spec, RingSpec.Fp(p), 2).holds
        for p in (5, 7, 11):
            assert fp_decide(spec, RingSpec.Fp(p), 2).holds

    def test_prime_set_singleton(self, registry):
        spec = sigma_prime_set([5], registry, member_ids=MEMBERS)
        assert not fp_decide(spec, RingSpec.Fp(5), 2).holds
        assert fp_decide(spec, RingSpec.Fp(7), 2).holds

    def test_prime_set_empty(self, registry):
        spec = sigma_prime_set([], registry, member_ids=MEMBERS)
        for p in (2, 3, 5, 7):
            assert fp_decide(spec, RingSpec.Fp(p), 2).holds

    def test_prime_set_rejects_composite(self, registry):
        with pytest.raises(SigmaError):
            sigma_prime_set([4], registry, member_ids=MEMBERS)


class TestChooseConstants:
    def test_bare_condition_gives_4(self):
        assert choose_constants(2, None, 1) == (4,)

    def test_alpha_value(self):
        # alpha = sqrt(2/3): 4*alpha > 3 but 3*alpha <= 3, by integer squares
        assert 2 * 4 * 4 > 3 * 3 * 3
        assert not 2 * 3 * 3 > 3 * 3 * 3

    def test_strictly_increasing(self):
        out = choose_constants(2, [0, 5, 9, 10], 3)
        assert all(b > a for a, b in zip(out, out[1:]))

    def test_r_conditions_hold_exactly(self):
        r = [0, 5, 9, 10]
        out = choose_constants(2, r, 3)
        for n in range(1, 4):
            C = out[n - 1]
            assert 2 * C * C > r[n - 1] ** 2 * 3
            assert 2 * C * C > r[n] ** 2 * 3

    def test_dimension_one(self):
        # alpha = 1: condition C > 3
        assert choose_constants(1, None, 1) == (4,)

    @given(d=st.integers(1, 6), r=st.lists(st.integers(0, 3000), max_size=6), m=st.integers(1, 4))
    def test_matches_the_linear_search(self, d, r, m):
        assert choose_constants(d, r, m) == linear_choose_constants(d, r, m)

    @given(d=st.integers(1, 40), r=st.lists(st.integers(0, 10**12), max_size=7), m=st.integers(1, 6))
    def test_matches_the_bisection(self, d, r, m):
        assert choose_constants(d, r, m) == reference_choose_constants(d, r, m)

    def test_large_bounds_are_found_without_a_linear_walk(self):
        assert choose_constants(2, [0, 10**30], 1) == (1224744871391589049098642037353,)


class TestPowerTower:
    def test_heights_and_assignments(self, registry):
        constants = choose_constants(2, None, 3)
        spec = sigma_power_tower([1], constants, registry, [3], member_ids=MEMBERS)
        heights = spec.power_rule.heights()
        assert heights == {1: constants[0] ** 2, 2: constants[1] ** 4, 3: constants[2] ** 8}
        assert sorted(heights.values()) == list(heights.values())
        # odd indices carry the prime member, even index 2 carries the cover for 1 in F
        assert spec.value(heights[1]) == "Lp3"
        assert spec.value(heights[2]) == "Lsl"
        assert spec.value(heights[3]) == "Lp3"
        assert spec.value(0) == "L"
        assert spec.value(heights[1] + 1) == "Luniv"
        assert spec.value(-9) == "Luniv"

    def test_even_index_outside_f_gets_default(self, registry):
        constants = choose_constants(2, None, 2)
        spec = sigma_power_tower([], constants, registry, [3], member_ids=MEMBERS)
        heights = spec.power_rule.heights()
        assert spec.value(heights[2]) == "Luniv"
        assert spec.value(heights[1]) == "Lp3"


    def test_lookups_build_no_height_and_match_the_definition(self, monkeypatch):
        constants = choose_constants(2, None, 6)
        rule = PowerTowerRule(constants, {2: "a", 5: "b"}, "d")
        direct = {i + 1: c ** (2 ** (i + 1)) for i, c in enumerate(constants)}
        assert rule.heights() == direct

        def refuse(C, i):
            raise RuntimeError("a tower height was built")

        monkeypatch.setattr(sigma_mod, "_tower_height", refuse)
        for i, h in direct.items():
            assert rule.value_at(h) == rule.value_at((constants[i - 1], i)) == {2: "a", 5: "b"}.get(i, "d")
            assert rule.value_at(h + 1) == rule.value_at(h - 1) == "d"
        with pytest.raises(RuntimeError):
            rule.heights()

    @given(C=st.integers(1, 40), i=st.integers(0, 6), D=st.integers(1, 40), j=st.integers(0, 6),
           offset=st.integers(-2, 2), n=st.integers(-5, 10**12))
    def test_tower_comparisons_match_the_integers(self, C, i, D, j, offset, n):
        h, g = C ** 2**i, D ** 2**j
        sign = lambda x: (x > 0) - (x < 0)
        assert sigma_mod._tower_cmp(C, i, n) == sign(h - n)
        assert sigma_mod._tower_cmp(C, i, h + offset) == sign(-offset)
        assert sigma_mod._tower_cmp(C, i, (D, j)) == sign(h - g)

    def test_heights_past_the_bit_cap_are_refused(self):
        assert sigma_mod._TOWER_BIT_CAP == 2**20
        assert sigma_mod._tower_height(1, 31) == 1
        assert sigma_mod._tower_height(15, 18).bit_length() <= 2**20  # 15 < 2^(2^20 / 2^18)
        with pytest.raises(SigmaError, match=r"\(16, 18\)"):
            sigma_mod._tower_height(16, 18)  # 2^(2^20), one bit past the cap
        rule = PowerTowerRule(choose_constants(2, None, 31), {}, "d")
        with pytest.raises(SigmaError, match=r"\(21, 18\)"):
            rule.heights()


class TestDisagreementHeight:
    def test_equal_specs_infinite(self, registry):
        a = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
        b = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
        assert min_disagreement_height(a, b) == math.inf

    def test_exception_difference(self, registry):
        base = dict(
            positive_tail=Tail.constant("Luniv"),
            negative_tail=Tail.constant("Luniv"),
        )
        a = SigmaSpec(registry, "L", exceptions={16: "T5", -16: "T5"}, **base)
        b = SigmaSpec(registry, "L", **base)
        assert min_disagreement_height(a, b) == 16

    def test_tower_f_sets_differ_at_even_height(self, registry):
        constants = choose_constants(2, None, 4)
        a = sigma_power_tower([1, 2], constants, registry, [3], member_ids=MEMBERS)
        b = sigma_power_tower([1], constants, registry, [3], member_ids=MEMBERS)
        assert min_disagreement_height(a, b) == constants[3] ** (2**4)

    def test_constant_vs_singleton_recurrent_equal(self, registry):
        a = SigmaSpec(registry, "L", positive_tail=Tail.constant("L"), negative_tail=Tail.constant("Lsl"))
        b = SigmaSpec(registry, "L", positive_tail=Tail.recurrent(["L"]), negative_tail=Tail.constant("Lsl"))
        assert min_disagreement_height(a, b) == math.inf

    def test_prime_member_at_huge_height_terminates(self):
        # Each primality test at 10**18 + 9 once took ~5e8 trial divisions;
        # the child process must finish well inside the timeout.
        script = textwrap.dedent(
            """
            from fpforge.sigma import PrimeCongruenceRule, SigmaSpec, example_registry, min_disagreement_height
            reg = example_registry()
            a = SigmaSpec(reg, "L", prime_rule=PrimeCongruenceRule({3: "Lp3"}, "Luniv"))
            b = SigmaSpec(reg, "L", prime_rule=PrimeCongruenceRule({3: "Lp3", 10**18 + 9: "Lp5"}, "Luniv"))
            print(min_disagreement_height(a, b))
            """
        )
        src = os.path.dirname(os.path.dirname(sys.modules["fpforge"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == 10**18 + 9

    def test_m_31_towers_compare_in_bounded_memory(self):
        # C_31^(2^31) has billions of digits: building any of the top heights would exhaust
        # the child's address space or its timeout.
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
            from fpforge.sigma import SigmaError, choose_constants, example_registry, min_disagreement_height
            from fpforge.sigma import sigma_power_tower
            reg = example_registry()
            C = choose_constants(2, None, 31)
            tower = lambda F: sigma_power_tower(F, C, reg, [3], member_ids={3: "Lp3"})
            assert min_disagreement_height(tower([1, 2]), tower([1])) == C[3] ** 16
            try:
                min_disagreement_height(tower([15]), tower([]))
            except SigmaError as e:
                print(e)
            """
        )
        src = os.path.dirname(os.path.dirname(sys.modules["fpforge"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=20)
        assert done.returncode == 0, done.stderr
        assert "(C, i) = (33, 30)" in done.stdout

    def test_prime_rule_against_periodic_tail_tests_few_primes(self, registry, monkeypatch):
        # A scan capped at 10_000 * period + 10_000 made 46_676 primality tests here,
        # walking to the cap in the classes 0, 2, 3 and 4 mod 6, whose only primes are 2 and 3.
        calls = []
        is_prime = sigma_mod._is_prime
        monkeypatch.setattr(sigma_mod, "_is_prime", lambda n: calls.append(n) or is_prime(n))
        a = SigmaSpec(registry, "L", prime_rule=PrimeCongruenceRule({3: "Lp3"}, "Luniv"))
        tail = Tail.recurrent(["L", "Lsl", "Luniv", "L", "Lsl", "Luniv"])
        b = SigmaSpec(registry, "Luniv", positive_tail=tail, negative_tail=Tail.constant("Luniv"))
        assert min_disagreement_height(a, b) == capped_min_disagreement_height(a, b) == 1
        calls.clear()
        min_disagreement_height(a, b)
        assert len(calls) <= 20, len(calls)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_the_capped_scan(self, registry, data):
        a, b = data.draw(sigma_specs(registry)), data.draw(sigma_specs(registry))
        assert min_disagreement_height(a, b) == capped_min_disagreement_height(a, b)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_towers_match_the_capped_scan(self, registry, data):
        a, b = data.draw(tower_spec_pairs(registry))
        assert min_disagreement_height(a, b) == min_disagreement_height(b, a) == capped_min_disagreement_height(a, b)

    def test_different_registries_rejected(self, registry):
        other = example_registry()
        a = sigma_prime_set([3], registry, member_ids=MEMBERS)
        b = sigma_prime_set([3], other, member_ids=MEMBERS)
        with pytest.raises(SigmaError):
            min_disagreement_height(a, b)


class TestBounds:
    def test_kernel_length_zero(self):
        assert min_kernel_length_bound(0, 2) == 0.0

    def test_kernel_length_seven(self):
        assert abs(min_kernel_length_bound(7, 2) - 7 * math.sqrt(2 / 3)) < 1e-12

    def test_dimension_one_exact(self):
        for M in (0, 1, 5, 123):
            assert min_kernel_length_bound(M, 1) == float(M)

    def test_kernel_length_refuses_a_non_integral_length(self):
        assert min_kernel_length_bound(2.0, 2) == min_kernel_length_bound(2, 2)
        with pytest.raises(SigmaError, match="integer or infinity"):
            min_kernel_length_bound(2.5, 2)
        with pytest.raises(SigmaError):
            min_kernel_length_bound(math.nan, 2)

    def test_kernel_length_past_the_float_range(self, registry):
        # 2 * M^2 / 3 is past the float range, the bound itself is not.
        constants = choose_constants(2, None, 8)
        a = sigma_power_tower([1, 2, 3, 4], constants, registry, [3], member_ids=MEMBERS)
        b = sigma_power_tower([1, 2, 3], constants, registry, [3], member_ids=MEMBERS)
        M = min_disagreement_height(a, b)
        assert M == 11**256
        assert min_kernel_length_bound(M, 2) == pytest.approx(float(M) * math.sqrt(2 / 3), rel=1e-15)
        for d in (1, 2):  # d = 1 has an exact root, d = 2 does not; both pass the float range
            with pytest.raises(SigmaError, match="float range"):
                min_kernel_length_bound(10**400, d)

    @given(M=st.integers(0, 10**150) | st.integers(0, 1000), d=st.integers(1, 8))
    def test_kernel_length_below_the_float_range_is_unchanged(self, M, d):
        num, den = 2 * M * M, d + 1
        exact = num % den == 0 and math.isqrt(num // den) ** 2 == num // den
        assert min_kernel_length_bound(M, d) == (float(math.isqrt(num // den)) if exact else math.sqrt(num / den))

    def test_kernel_length_of_equal_specs_is_infinite(self, registry):
        assert min_kernel_length_bound(math.inf, 2) == math.inf
        a = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
        assert min_kernel_length_bound(min_disagreement_height(a, a), 2) == math.inf

    def test_normal_generating_length_bounds(self, registry):
        assert normal_generating_length_bound(build_cover(registry["cycle8"].voltage)) == 8
        assert normal_generating_length_bound(build_cover(registry["sphere"].voltage)) == 0
        degree1 = build_cover(VoltageAssignment(cycle_complex(4), 1))
        assert normal_generating_length_bound(degree1) == 4

    def test_bound_matches_the_total_enumeration_on_registry_covers(self, registry):
        # Each base and total group here enumerates to its order or is proven infinite.
        for entry in registry.values():
            if entry.voltage is not None:
                cover = build_cover(entry.voltage)
                assert normal_generating_length_bound(cover) == total_length_bound(cover), entry.id

    @pytest.mark.parametrize("times", [0, 1, 2])
    def test_bound_matches_the_total_enumeration_on_orientation_covers(self, times):
        cover = build_cover(orientation_voltage(times))
        assert sigma_mod._fundamental_group_order(cover.base) == 2  # both enumerations finish
        assert total_simply_connected(cover.assignment) is True
        assert normal_generating_length_bound(cover) == total_length_bound(cover) == 0

    def test_degree_one_cover_of_a_path(self):
        # A tree's edge-path group has no generators: its coset table is complete at index one.
        path = VoltageAssignment(SimplicialComplex.from_facets([[0, 1], [1, 2]]), 1)
        assert normal_generating_length_bound(build_cover(path)) == 0
        assert constructed_entry("path", path).simply_connected is True


class TestSigmaJson:
    def test_records_write_one_key_per_field_and_read_back(self, registry):
        tower = sigma_power_tower([1, 2], choose_constants(2, None, 4), registry, [3, 5], member_ids=MEMBERS)
        prime = sigma_field_example(registry, member_ids=MEMBERS).prime_rule
        constructed = constructed_entry("Lsd1", orientation_voltage())
        records = [tower.power_rule, prime, constructed, registry["T5"], registry[sigma_mod.PERFECT_ID]]
        assert tower.power_rule.assignments and tower.power_rule.recurrent and prime.members
        for record in records:
            data = record.to_json_dict()
            assert list(data) == [f.name for f in dataclasses.fields(record)]
            assert type(record).from_json_dict(data) == record
            assert type(record).from_json_dict(json.loads(json.dumps(data))) == record

    def test_round_trip_tails(self, registry):
        spec = sigma_prime_set([2, 3], registry, member_ids=MEMBERS)
        text = dump_sigma_spec(spec)
        again = SigmaSpec.from_json_dict(json.loads(text))
        assert dump_sigma_spec(again) == text
        assert [again.value(n) for n in range(-3, 4)] == [
            spec.value(n) for n in range(-3, 4)
        ]

    def test_round_trip_rules(self, registry, tmp_path):
        constants = choose_constants(2, None, 2)
        spec = sigma_power_tower([1], constants, registry, [3, 5], member_ids=MEMBERS)
        path = tmp_path / "spec.json"
        path.write_text(dump_sigma_spec(spec), encoding="utf-8")
        again = load_sigma_spec(path)
        assert dump_sigma_spec(again) == dump_sigma_spec(spec)
        field = sigma_field_example(registry, member_ids=MEMBERS)
        again2 = SigmaSpec.from_json_dict(json.loads(dump_sigma_spec(field)))
        assert fp_decide(again2, RingSpec.Z(), 2).holds == fp_decide(field, RingSpec.Z(), 2).holds
