"""Ramifier arithmetic and a desk-scale claim-checking harness.

The library centres on one predicate: n >= 2 ramifies in modulus m >= 2
when the canonical residues n mod m and n mod r sum to m for some inner
modulus 2 <= r < m.  On top of it sit witness searches, bulk sieves and
counts, and a registry of quantitative claims (C1..C13) that are checked
exactly at finite scale and reported with verdicts and counterexamples.
"""

from .arith import (
    DEFAULT_BUDGET_BITS,
    PrimeTable,
    ResourceBudgetError,
    divisors_in_range,
    prime_table,
)
from .counting import (
    CountSummary,
    RamifierSieve,
    build_sieve,
    count_ramifiers,
    multi_modulus_ramifiers,
    ramifier_counts,
    summarize_sieve,
    threshold,
)
from .ramification import (
    IndexRecord,
    StrongWitness,
    Witness,
    admits_ramifier,
    admits_strong_ramifier,
    character,
    goldbach_partitions,
    goldbach_sweep,
    index_of,
    ramifier_witnesses,
    strong_witnesses,
)

__version__ = "0.1.0"

__all__ = [
    "CountSummary",
    "DEFAULT_BUDGET_BITS",
    "IndexRecord",
    "PrimeTable",
    "RamifierSieve",
    "ResourceBudgetError",
    "StrongWitness",
    "Witness",
    "admits_ramifier",
    "admits_strong_ramifier",
    "build_sieve",
    "character",
    "count_ramifiers",
    "divisors_in_range",
    "goldbach_partitions",
    "goldbach_sweep",
    "index_of",
    "multi_modulus_ramifiers",
    "prime_table",
    "ramifier_counts",
    "ramifier_witnesses",
    "strong_witnesses",
    "summarize_sieve",
    "threshold",
    "__version__",
]
