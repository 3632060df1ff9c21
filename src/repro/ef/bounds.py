"""A-priori Elias-Fano storage bounds (Sec. IV, Sec. VIII-A).

One of EFG's selling points: "we do not need to compress the graph to
know how well it will compress" — the size of an EF-coded list depends
only on its length ``n`` and an upper bound ``u`` on its largest value.
These helpers compute the exact section sizes the encoder will produce,
and are also used by the memory manager to plan residency.
"""

from __future__ import annotations

__all__ = [
    "ef_num_lower_bits",
    "ef_lower_bits",
    "ef_upper_bits",
    "ef_total_bits",
]


def ef_num_lower_bits(n: int, u: int) -> int:
    """Per-element lower-bit width ``l = max(0, floor(log2(u / n)))``.

    ``u`` is an upper bound on the largest element; ``n`` the sequence
    length.  Matches the paper's formula (Sec. IV) with the convention
    that ``u == 0`` (all-zero sequence) uses ``l = 0``.
    """
    if n <= 0:
        raise ValueError(f"sequence length must be positive, got {n}")
    if u < 0:
        raise ValueError(f"upper bound must be non-negative, got {u}")
    if u < n:
        return 0
    # floor(log2(u / n)) computed exactly in integer arithmetic.
    return (u // n).bit_length() - 1


def ef_lower_bits(n: int, u: int) -> int:
    """Total bits in the lower-bits section: ``n * l``."""
    return n * ef_num_lower_bits(n, u)


def ef_upper_bits(n: int, u: int) -> int:
    """Total bits in the upper-bits section: ``n + (u >> l)``.

    One stop bit per element plus one zero per unit of upper-value range.
    """
    l = ef_num_lower_bits(n, u)
    return n + (u >> l)


def ef_total_bits(n: int, u: int) -> int:
    """Upper bound on total EF bits, ``<= n * (2 + ceil(log2(u / n)))``."""
    return ef_lower_bits(n, u) + ef_upper_bits(n, u)

