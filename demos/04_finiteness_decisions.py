"""Finiteness-property decisions from finitely described cover assignments.

Builds the desk-scale registry, then two specification families: one that is
FP_2 over the rationals and every prime field but not over the integers, and
one that fails FP_2 exactly at a chosen set of primes.  Run directly:

    python3 demos/04_finiteness_decisions.py
"""

from fpforge import (
    RingSpec,
    finitely_presented_decide,
    fp_decide,
    sigma_field_example,
    sigma_prime_set,
)
from fpforge.sigma import example_registry, validate_registry

registry = example_registry()
members = {p: f"Lp{p}" for p in (3, 5, 7)}
print("registry entries:", ", ".join(sorted(registry)))
print("registry validates:", validate_registry(registry) == [])

print()
print("=== FP_2 over all fields, but not over the integers ===")
field_spec = sigma_field_example(registry, member_ids=members)
print("assignment at heights 0..7:", [field_spec.value(n) for n in range(8)])
rings = [RingSpec.Q(), RingSpec.Fp(2), RingSpec.Fp(3), RingSpec.Fp(5), RingSpec.Fp(7), RingSpec.Z()]
for ring in rings:
    print(" ", fp_decide(field_spec, ring, 2))
print(" ", finitely_presented_decide(field_spec))

print()
print("=== Failing FP_2 exactly at a chosen set of primes ===")
for chosen in ([], [3], [2, 3]):
    spec = sigma_prime_set(chosen, registry, member_ids=members)
    verdicts = []
    for p in (2, 3, 5, 7, 11):
        verdict = fp_decide(spec, RingSpec.Fp(p), 2)
        verdicts.append(f"F{p}:{'YES' if verdict.holds else 'NO'}")
    print(f"primes {chosen or '{}'}:", "  ".join(verdicts))

print()
print("=== Witnesses explain every NO ===")
spec = sigma_prime_set([2, 3], registry, member_ids=members)
verdict = fp_decide(spec, RingSpec.Fp(3), 2)
print("over F3:", verdict)
entry = registry[verdict.witness_entry]
print("witness entry:", entry.id, "-", entry.note)
