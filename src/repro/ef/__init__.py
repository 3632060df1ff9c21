"""Elias-Fano encoding substrate (Sec. IV).

Implements the quasi-succinct representation of monotone integer
sequences: lower bits stored contiguously, upper bits as unary-coded
gaps, ``select1``-based decoding, forward pointers for O(1) average
select, a-priori storage bounds, and the partitioned (PEF) extension
discussed in Sec. IX.  Sequences are encoded by the batched EFG list
codec (:mod:`repro.core.efg`): one Elias-Fano implementation serves
the graph format, the EF frontier wire codec and PEF partitions.
"""

from repro.ef.bitstream import BitReader, BitWriter
from repro.ef.bounds import (
    ef_lower_bits,
    ef_total_bits,
    ef_upper_bits,
    plain_binary_bits,
)
from repro.ef.encoding import (
    EFSequence,
    ef_decode,
    ef_decode_at,
    ef_decode_range,
    ef_encode,
)
from repro.ef.partitioned import PEFSequence, pef_encode
from repro.ef.queries import ef_contains, ef_intersect, ef_next_geq
from repro.ef.select import select1_bitarray, select1_scalar

__all__ = [
    "BitReader",
    "BitWriter",
    "EFSequence",
    "ef_encode",
    "ef_decode",
    "ef_decode_at",
    "ef_decode_range",
    "PEFSequence",
    "pef_encode",
    "select1_bitarray",
    "select1_scalar",
    "ef_next_geq",
    "ef_contains",
    "ef_intersect",
    "ef_lower_bits",
    "ef_upper_bits",
    "ef_total_bits",
    "plain_binary_bits",
]
