"""Systematic Reed-Solomon-style erasure codec over GF(256).

``Codec.encode(data, k, n)`` splits ``data`` into ``k`` equal data shards
(zero-padded) and appends ``n - k`` parity shards; ``Codec.decode`` rebuilds
the original bytes from *any* ``k`` of the ``n`` fragments.  The generator
matrix is ``[I_k ; C]`` with ``C`` an (n-k) x k Cauchy matrix — every
square submatrix of a Cauchy matrix is nonsingular, so every k-subset of
rows of ``[I ; C]`` is invertible and the code is MDS: it tolerates the
loss of any ``n - k`` fragments.

Deterministic: the same ``(data, k, n)`` always produces byte-identical
fragments, and decoding uses the ``k`` smallest available fragment indices
regardless of the order fragments arrived in.  The multiply-accumulate
core multiplies a fragment by a GF constant with ``bytes.translate`` (a
256-byte table) and adds terms with one numpy ``bitwise_xor`` each, into
an accumulator that starts from the first term.  A decode copies the data
shards it holds and combines only the missing ones.

Replication is the degenerate code ``k = 1``: every fragment is a scalar
multiple of the whole payload and any single fragment decodes it — which
is how the redundancy plane expresses "3x replication" as EC(1, 3).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache, reduce
from operator import xor

import numpy as np

#: GF(2^8) modulo the AES polynomial x^8 + x^4 + x^3 + x^2 + 1.
_PRIMITIVE = 0x11D

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIMITIVE
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return _EXP[255 - _LOG[a]]


#: constant-multiplier translate tables, built on demand and cached
_MUL_TABLES: dict[int, bytes] = {}


def _mul_table(c: int) -> bytes:
    table = _MUL_TABLES.get(c)
    if table is None:
        table = bytes(gf_mul(c, b) for b in range(256))
        _MUL_TABLES[c] = table
    return table


def _scale(buf: bytes, c: int) -> bytes:
    """buf * c (c != 0), element-wise over GF(256)."""
    return buf if c == 1 else buf.translate(_mul_table(c))


@lru_cache(maxsize=64)
def parity_matrix(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The m x k Cauchy block: C[i][j] = 1 / (x_i + y_j) with x_i = i,
    y_j = m + j.  The two index sets are disjoint, so x_i ^ y_j != 0.
    Cached per scheme (bounded), hence immutable."""
    return tuple(tuple(gf_inv(i ^ (m + j)) for j in range(k))
                 for i in range(m))


def _invert(matrix: list[list[int]]) -> list[list[int]]:
    """Invert a k x k matrix over GF(256) by Gauss-Jordan elimination."""
    k = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)]
           for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular decode matrix (duplicate fragments?)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = gf_inv(aug[col][col])
        aug[col] = [gf_mul(v, inv) for v in aug[col]]
        for r in range(k):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [v ^ gf_mul(factor, p)
                      for v, p in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


#: cached :func:`decode_matrix` results keyed by ``(k, n,
#: available-index tuple)``.  Repair after a site crash decodes *many*
#: objects under the same erasure pattern, so the O(k^3) Gauss-Jordan
#: runs once per pattern instead of once per object.  Bounded: a
#: pathological churn of patterns clears the cache rather than growing it
#: without limit.
_INV_CACHE: dict[tuple[int, int, tuple[int, ...]], list[list[int]]] = {}
_INV_CACHE_MAX = 1024

#: cache telemetry (read by tests and the repair benchmark)
_inv_cache_stats = {"hits": 0, "misses": 0}


def decode_matrix(k: int, n: int,
                  pick: tuple[int, ...]) -> list[list[int]]:
    """Fragment ``i`` as a combination of the ``pick`` fragments, cached.

    ``pick`` must be a sorted tuple of ``k`` distinct fragment indices in
    ``[0, n)`` — the fragments actually used for decoding.  With ``A`` the
    generator rows selected by ``pick``, row ``i`` of the n x k result is
    ``g_i · A⁻¹``: rows ``0..k-1`` are ``A⁻¹`` itself (the data shards),
    rows ``k..n-1`` the parity targets :meth:`Codec.rebuild` combines.
    """
    key = (k, n, pick)
    matrix = _INV_CACHE.get(key)
    if matrix is None:
        _inv_cache_stats["misses"] += 1
        cauchy = parity_matrix(k, n - k)
        rows = [([1 if j == i else 0 for j in range(k)] if i < k
                 else cauchy[i - k]) for i in pick]
        inverse = _invert(rows)
        matrix = inverse + [
            [reduce(xor, (gf_mul(g, row[j]) for g, row in zip(c, inverse)))
             for j in range(k)] for c in cauchy]
        if len(_INV_CACHE) >= _INV_CACHE_MAX:
            _INV_CACHE.clear()
        _INV_CACHE[key] = matrix
    else:
        _inv_cache_stats["hits"] += 1
    return matrix


def _combine(rows: Iterable[tuple[int, bytes]], length: int) -> bytes:
    """sum(coeff * frag) over GF(256) for (coeff, frag) pairs."""
    acc = None
    for coeff, frag in rows:
        if coeff == 0:
            continue
        term = np.frombuffer(_scale(frag, coeff), np.uint8)
        if acc is None:
            acc = term              # read-only view: the first XOR copies
        elif acc.flags.writeable:
            np.bitwise_xor(acc, term, out=acc)
        else:
            acc = acc ^ term
    return bytes(length) if acc is None else acc.tobytes()


def _validate(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    if n > 255:
        raise ValueError(f"GF(256) supports at most 255 fragments, got {n}")


class Codec:
    """Stateless encode/decode entry points (all methods are static)."""

    @staticmethod
    def fragment_length(size: int, k: int) -> int:
        """Bytes per fragment for a ``size``-byte payload split ``k`` ways."""
        return (size + k - 1) // k

    @staticmethod
    def encode(data: bytes, k: int, n: int) -> list[bytes]:
        """Split ``data`` into ``n`` fragments, any ``k`` of which decode it.

        Fragments ``0..k-1`` are the (zero-padded) data shards; fragments
        ``k..n-1`` are Cauchy parity.  All fragments have equal length
        ``ceil(len(data) / k)``.
        """
        _validate(k, n)
        length = Codec.fragment_length(len(data), k)
        padded = bytes(data).ljust(k * length, b"\x00")
        shards = [padded[i * length:(i + 1) * length] for i in range(k)]
        return shards + [_combine(zip(row, shards), length)
                         for row in parity_matrix(k, n - k)]

    @staticmethod
    def decode(fragments: dict[int, bytes], k: int, n: int,
               size: int) -> bytes:
        """Rebuild the original ``size`` bytes from any >= k fragments.

        ``fragments`` maps fragment index -> fragment bytes.  Exactly the
        ``k`` smallest available indices are used, so the result does not
        depend on arrival order or on which extra fragments are present.
        A held data shard is among them and its row of ``A⁻¹`` is a unit
        vector, so it is copied; only the missing ones are combined.
        """
        _validate(k, n)
        present = sorted(i for i in fragments if 0 <= i < n)
        if len(present) < k:
            raise ValueError(
                f"need {k} fragments to decode, have {len(present)}")
        pick = present[:k]
        length = Codec.fragment_length(size, k)
        for i in pick:
            if len(fragments[i]) != length:
                raise ValueError(
                    f"fragment {i} is {len(fragments[i])} bytes, "
                    f"expected {length}")
        if pick == list(range(k)):
            return b"".join(fragments[i] for i in pick)[:size]
        matrix = decode_matrix(k, n, tuple(pick))
        picked = [fragments[i] for i in pick]
        return b"".join(
            fragments[j] if j in fragments
            else _combine(zip(matrix[j], picked), length)
            for j in range(k))[:size]

    @staticmethod
    def rebuild(fragments: dict[int, bytes], k: int, n: int, size: int,
                missing: int) -> bytes:
        """Reconstruct one lost fragment from any ``k`` survivors.

        Target-row fast path: with ``g`` the missing fragment's generator
        row and ``A`` the selected survivor rows, the rebuilt fragment is
        ``(g · A⁻¹) · picked`` — one :func:`_combine` pass over ``k``
        fragments, instead of a full decode (``k`` combines) followed by
        a full re-encode (``n - k`` more).  ``g · A⁻¹`` is a row of the
        :func:`decode_matrix` cache, so repeated erasure patterns skip
        the O(k³) inversion and the row product entirely.
        """
        _validate(k, n)
        if not 0 <= missing < n:
            raise ValueError(f"missing index {missing} outside [0, {n})")
        present = sorted(i for i in fragments if 0 <= i < n and i != missing)
        if len(present) < k:
            raise ValueError(
                f"need {k} fragments to rebuild, have {len(present)}")
        pick = present[:k]
        length = Codec.fragment_length(size, k)
        for i in pick:
            if len(fragments[i]) != length:
                raise ValueError(
                    f"fragment {i} is {len(fragments[i])} bytes, "
                    f"expected {length}")
        coeffs = decode_matrix(k, n, tuple(pick))[missing]
        return _combine(zip(coeffs, (fragments[i] for i in pick)), length)
