"""Property tests for the GF(256) erasure codec (repro.ec.codec)."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.codec import Codec, gf_inv, gf_mul, parity_matrix

SIZES = [0, 1, 7, 100, 1024]
SCHEMES = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6)]


def rng_bytes(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


class TestField:
    def test_multiplicative_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_cauchy_entries_nonzero(self):
        for k, n in SCHEMES:
            for row in parity_matrix(k, n - k):
                assert all(v != 0 for v in row)


class TestRoundTrip:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("k,n", SCHEMES)
    def test_systematic_round_trip(self, size, k, n):
        data = rng_bytes(size * 31 + k, size)
        frags = Codec.encode(data, k, n)
        assert len(frags) == n
        length = Codec.fragment_length(size, k)
        assert all(len(f) == length for f in frags)
        got = Codec.decode({i: frags[i] for i in range(k)}, k, n, size)
        assert got == data

    @pytest.mark.parametrize("k,n", SCHEMES)
    def test_every_erasure_pattern(self, k, n):
        """MDS property: *every* k-subset of fragments reconstructs."""
        size = 257  # deliberately not a multiple of any k used here
        data = rng_bytes(n, size)
        frags = Codec.encode(data, k, n)
        for subset in itertools.combinations(range(n), k):
            got = Codec.decode({i: frags[i] for i in subset}, k, n, size)
            assert got == data, subset

    def test_non_multiple_of_k_sizes(self):
        for size in (5, 9, 13, 1001):
            data = rng_bytes(size, size)
            frags = Codec.encode(data, 4, 6)
            assert Codec.decode({2: frags[2], 3: frags[3], 4: frags[4],
                                 5: frags[5]}, 4, 6, size) == data

    def test_one_mebibyte(self):
        data = rng_bytes(99, 1 << 20)
        frags = Codec.encode(data, 4, 6)
        got = Codec.decode({0: frags[0], 2: frags[2], 4: frags[4],
                            5: frags[5]}, 4, 6, len(data))
        assert got == data

    def test_replication_degenerate_k1(self):
        """k=1: every fragment alone reconstructs the whole payload."""
        data = rng_bytes(3, 300)
        frags = Codec.encode(data, 1, 3)
        assert frags[0] == data  # systematic: shard 0 is the data itself
        for i in range(3):
            assert Codec.decode({i: frags[i]}, 1, 3, len(data)) == data


class TestDeterminism:
    def test_encode_deterministic(self):
        data = rng_bytes(42, 512)
        assert Codec.encode(data, 3, 5) == Codec.encode(data, 3, 5)

    def test_decode_ignores_arrival_order(self):
        """Decoding uses the k smallest indices regardless of dict order
        or of extra fragments being present."""
        data = rng_bytes(7, 400)
        k, n = 2, 4
        frags = Codec.encode(data, k, n)
        orders = [
            {1: frags[1], 3: frags[3]},
            {3: frags[3], 1: frags[1]},
            {3: frags[3], 1: frags[1], 2: frags[2]},  # extra fragment
        ]
        results = [Codec.decode(d, k, n, len(data)) for d in orders]
        assert all(r == data for r in results)

    def test_rebuild_matches_original_fragment(self):
        data = rng_bytes(11, 333)
        k, n = 3, 5
        frags = Codec.encode(data, k, n)
        for missing in range(n):
            rest = {i: frags[i] for i in range(n) if i != missing}
            assert Codec.rebuild(rest, k, n, len(data),
                                 missing) == frags[missing]


class TestValidation:
    def test_too_few_fragments(self):
        frags = Codec.encode(b"hello", 2, 3)
        with pytest.raises(ValueError):
            Codec.decode({0: frags[0]}, 2, 3, 5)

    def test_bad_schemes(self):
        with pytest.raises(ValueError):
            Codec.encode(b"x", 0, 3)
        with pytest.raises(ValueError):
            Codec.encode(b"x", 4, 3)
        with pytest.raises(ValueError):
            Codec.encode(b"x", 200, 300)

    def test_wrong_fragment_length(self):
        frags = Codec.encode(b"payload!", 2, 4)
        with pytest.raises(ValueError):
            Codec.decode({0: frags[0], 1: frags[1][:-1]}, 2, 4, 8)


class TestRebuildFastPath:
    """Target-row rebuild and the cached inverted decode matrices."""

    def test_rebuild_equals_reencode_across_schemes(self):
        """For every scheme, every recoverable loss pattern, and every
        survivor subset of exactly k: the target-row rebuild reproduces
        the fragment a full decode + re-encode would."""
        for k, n in SCHEMES:
            if n - k == 0:
                continue
            data = rng_bytes(k * 31 + n, 257)
            frags = Codec.encode(data, k, n)
            for missing in range(n):
                survivors = [i for i in range(n) if i != missing]
                for pick in itertools.combinations(survivors, k):
                    subset = {i: frags[i] for i in pick}
                    assert Codec.rebuild(subset, k, n, len(data),
                                         missing) == frags[missing], \
                        (k, n, missing, pick)

    def test_rebuild_ignores_copy_of_missing_index(self):
        """A (stale) fragment supplied under the missing index itself is
        excluded from the survivor set, never trusted."""
        data = rng_bytes(3, 128)
        k, n = 2, 4
        frags = Codec.encode(data, k, n)
        poisoned = {0: frags[0], 1: b"\xff" * len(frags[1]), 2: frags[2]}
        assert Codec.rebuild(poisoned, k, n, len(data), 1) == frags[1]

    def test_rebuild_needs_k_survivors(self):
        frags = Codec.encode(b"hello", 2, 3)
        with pytest.raises(ValueError):
            Codec.rebuild({0: frags[0]}, 2, 3, 5, 2)
        with pytest.raises(ValueError):
            Codec.rebuild({0: frags[0], 1: frags[1]}, 2, 3, 5, 7)

    def test_decode_matrix_cache_hits_on_repeated_patterns(self):
        """Repairing many objects under one erasure pattern inverts the
        matrix once; repeats are cache hits."""
        from repro.ec.codec import _INV_CACHE, _inv_cache_stats
        _INV_CACHE.clear()
        k, n = 3, 5
        before = dict(_inv_cache_stats)
        for seed in range(12):
            data = rng_bytes(seed, 300)
            frags = Codec.encode(data, k, n)
            rest = {i: frags[i] for i in range(n) if i != 1}
            assert Codec.rebuild(rest, k, n, len(data), 1) == frags[1]
        misses = _inv_cache_stats["misses"] - before["misses"]
        hits = _inv_cache_stats["hits"] - before["hits"]
        assert misses == 1   # one inversion for the pattern...
        assert hits == 11    # ...then pure lookups

    def test_decode_matrix_cache_is_bounded(self):
        from repro.ec import codec
        codec._INV_CACHE.clear()
        data = rng_bytes(1, 64)
        k = 2
        for n in range(3, 40):
            frags = Codec.encode(data, k, n)
            for missing in range(n):
                rest = {i: frags[i] for i in range(n) if i != missing}
                Codec.rebuild(rest, k, n, len(data), missing)
        assert len(codec._INV_CACHE) <= codec._INV_CACHE_MAX


# ---------------------------------------------------------------------------
# fragment format: pinned bytes and a textbook reference
# ---------------------------------------------------------------------------

#: sha256 of ``b"".join(Codec.encode(pin_payload(size), k, n))``, recorded
#: with the big-int-XOR codec the numpy core replaced.  A rewrite of the
#: codec that moves one fragment byte changes every store digest.
PINNED = {
    (1, 2, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 2, 1): "7dce7521f4ddc8065599794238af92db7403379ac7701d3b459b637758d58889",
    (1, 2, 257): "e9ce95bf9f3ab97e6428850cc698f097a5e557282a868883fa8b54f0183ec564",
    (1, 2, 65536): "ff479cf06f747a88c0988352bc8ce3e83ef19b181bbba86eed147d8d6d8ee960",
    (1, 3, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 3, 1): "3bd59da4e6b7aaaf621f99a2b0fde071c4cd4710114d5c7862f461f191823c8f",
    (1, 3, 257): "12b8df0c66899bf61e0e518c438134485cc5d0c8bf5e1a726c2f9fb5f06f4793",
    (1, 3, 65536): "33c161c392bd52e502d075c2e72c3cf249f34d920cf3671aad003e74bb669761",
    (2, 3, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 3, 1): "1f04f6c8157169e25be085a6fce369f012232dbaa8a75bd00db206690faeb819",
    (2, 3, 257): "21bf9c2da55ec53d2da0793dc55c842e5c19ea6a5cf3c40d55f9cfbb71fc1ce9",
    (2, 3, 65536): "b4a0cb01d53676ab3861093b64bd93e9a11b36290b6182eb47ab5e10dbb1dd49",
    (2, 4, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 4, 1): "d1dce3711eab5b07bfb9f5d2c8e6daee56ad31b0a882e8d1dc55b8130e2b6e0c",
    (2, 4, 257): "562e67da0f32e818121b947627fc83efb2ea9b158279c03dbfef585e3ffb1d31",
    (2, 4, 65536): "56ac14e310115666454d78e69c775aeab3d4b79a9ce4affe9d8810a6b03c28c5",
    (3, 5, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (3, 5, 1): "0b836f1c1ad80811c064cf0d91d934dffc82bbc25590165c4f8a9c4dde412210",
    (3, 5, 257): "d234066c2191b0a2a3ce77d551e85412703f243b37b75a2244ea580de960ad02",
    (3, 5, 65536): "92ed3d190242ecd67586c8d239e2acd58619baaa4994d208a9ce579412915df3",
    (4, 6, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (4, 6, 1): "1ec655f7149725d78c3e0ecd47cc1098be97390dbbd73e9da73abcc304f0367b",
    (4, 6, 257): "1b56ddae7f8f48e6441b250f8271755736ef7f45b4f568cbc39d14e7f8b7ed66",
    (4, 6, 65536): "a16eff874ee9c0a77f71b0546d077bea49aac2cea658ea85995cf938f5b36c39",
}


def pin_payload(size: int) -> bytes:
    return hashlib.shake_256(f"pin-{size}".encode()).digest(size)


class TestFragmentFormat:
    @pytest.mark.parametrize("k,n,size", sorted(PINNED))
    def test_encode_bytes_are_pinned(self, k, n, size):
        frags = Codec.encode(pin_payload(size), k, n)
        digest = hashlib.sha256(b"".join(frags)).hexdigest()
        assert digest == PINNED[(k, n, size)]


def ref_mul(a: int, b: int) -> int:
    """Shift-and-add product modulo x^8 + x^4 + x^3 + x^2 + 1."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return p


@functools.cache
def ref_table() -> list[bytes]:
    return [bytes(ref_mul(a, b) for b in range(256)) for a in range(256)]


def ref_inv(a: int) -> int:
    return ref_table()[a].index(1)


def ref_generator(k: int, n: int) -> list[list[int]]:
    """[I_k ; C] with the Cauchy block C[i][j] = 1 / (i + (m + j))."""
    m = n - k
    return ([[int(i == j) for j in range(k)] for i in range(k)]
            + [[ref_inv(i ^ (m + j)) for j in range(k)] for i in range(m)])


def ref_apply(matrix: list[list[int]], frags: list[bytes],
              length: int) -> list[bytes]:
    """Each row of ``matrix`` times the column of ``frags``, byte by byte."""
    table = ref_table()
    out = []
    for row in matrix:
        buf = bytearray(length)
        for b in range(length):
            for coeff, frag in zip(row, frags):
                buf[b] ^= table[coeff][frag[b]]
        out.append(bytes(buf))
    return out


def ref_invert(matrix: list[list[int]]) -> list[list[int]]:
    """Plain Gauss-Jordan over GF(256)."""
    table, k = ref_table(), len(matrix)
    aug = [list(row) + [int(i == j) for j in range(k)]
           for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ref_inv(aug[col][col])
        aug[col] = [table[inv][v] for v in aug[col]]
        for r in range(k):
            if r != col:
                f = aug[r][col]
                aug[r] = [v ^ table[f][p] for v, p in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def ref_encode(data: bytes, k: int, n: int) -> list[bytes]:
    length = -(-len(data) // k)
    padded = data.ljust(k * length, b"\0")
    shards = [padded[i * length:(i + 1) * length] for i in range(k)]
    return ref_apply(ref_generator(k, n), shards, length)


def ref_decode(fragments: dict[int, bytes], k: int, n: int,
               size: int) -> bytes:
    pick = sorted(fragments)[:k]
    gen = ref_generator(k, n)
    inverse = ref_invert([gen[i] for i in pick])
    shards = ref_apply(inverse, [fragments[i] for i in pick], -(-size // k))
    return b"".join(shards)[:size]


@st.composite
def coded_objects(draw):
    """A scheme, a payload, its reference fragments, a random survivor
    set of at least k and a missing index outside it."""
    k = draw(st.integers(1, 8))
    n = k + draw(st.integers(0, 6))
    data = rng_bytes(draw(st.integers(0, 2**32)), draw(st.integers(0, 4096)))
    survivors = draw(st.sets(st.integers(0, n - 1), min_size=k))
    missing = draw(st.sampled_from(range(n)))
    return k, n, data, ref_encode(data, k, n), survivors, missing


class TestAgainstReference:
    """encode, decode and rebuild equal a per-byte textbook codec."""

    @given(coded_objects())
    @settings(max_examples=60)
    def test_encode(self, case):
        k, n, data, ref_frags, _, _ = case
        assert Codec.encode(data, k, n) == ref_frags

    @given(coded_objects())
    @settings(max_examples=60)
    def test_decode(self, case):
        k, n, data, ref_frags, survivors, _ = case
        have = {i: ref_frags[i] for i in survivors}
        assert ref_decode(have, k, n, len(data)) == data
        assert Codec.decode(have, k, n, len(data)) == data

    @given(coded_objects())
    @settings(max_examples=60)
    def test_rebuild(self, case):
        k, n, data, ref_frags, survivors, missing = case
        have = {i: ref_frags[i] for i in survivors - {missing}}
        if len(have) < k:
            with pytest.raises(ValueError):
                Codec.rebuild(have, k, n, len(data), missing)
            return
        # textbook rebuild: decode, re-encode, take the lost fragment
        expected = ref_encode(ref_decode(have, k, n, len(data)), k, n)
        assert expected[missing] == ref_frags[missing]
        assert Codec.rebuild(have, k, n, len(data), missing) == expected[missing]


class TestCacheContract:
    @staticmethod
    def lookups() -> int:
        from repro.ec.codec import _inv_cache_stats
        return _inv_cache_stats["hits"] + _inv_cache_stats["misses"]

    def test_clean_decode_does_no_matrix_lookup(self):
        data = rng_bytes(5, 1000)
        frags = Codec.encode(data, 4, 6)
        before = self.lookups()
        have = {i: frags[i] for i in (5, 0, 1, 2, 3)}
        assert Codec.decode(have, 4, 6, len(data)) == data
        assert self.lookups() == before

    def test_one_lost_data_shard_is_one_lookup(self):
        data = rng_bytes(6, 1000)
        frags = Codec.encode(data, 4, 6)
        before = self.lookups()
        have = {i: frags[i] for i in (0, 2, 3, 4, 5)}
        assert Codec.decode(have, 4, 6, len(data)) == data
        assert self.lookups() == before + 1

    def test_parity_matrix_cache_is_bounded(self):
        for k in range(1, 40):
            for m in range(0, 8):
                assert len(parity_matrix(k, m)) == m
        info = parity_matrix.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize
