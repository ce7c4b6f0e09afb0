"""Bloom filter: no false negatives; bounded false positives."""

from repro.kvstore.bloom import BloomFilter, hash_pair


def add(bloom, item):
    bloom.add_hashed(*hash_pair(item))


def might_contain(bloom, item):
    return bloom.might_contain_hashed(*hash_pair(item))


class TestBloomFilter:
    def test_contains_added_items(self):
        bloom = BloomFilter(expected_items=100)
        for i in range(100):
            add(bloom, f"item{i}")
        assert all(might_contain(bloom, f"item{i}") for i in range(100))

    def test_no_false_negatives_ever(self):
        bloom = BloomFilter(expected_items=10)  # deliberately undersized
        items = [f"x{i}" for i in range(1000)]
        for item in items:
            add(bloom, item)
        assert all(might_contain(bloom, item) for item in items)

    def test_false_positive_rate_roughly_bounded(self):
        bloom = BloomFilter(expected_items=1000)  # sized for 1 %
        for i in range(1000):
            add(bloom, f"present{i}")
        false_positives = sum(
            1 for i in range(10_000) if might_contain(bloom, f"absent{i}"))
        assert false_positives / 10_000 < 0.05  # 5x headroom over target

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=10)
        assert not might_contain(bloom, "anything")

    def test_bit_positions_are_the_double_hashing_ones(self):
        """Position i is (h1 + i*h2) % num_bits of one blake2b digest —
        the filter's contents decide ``bloom_skips``, so they are pinned
        against the definition, not against the implementation."""
        import hashlib
        bloom = BloomFilter(expected_items=50)
        expected = bytearray(len(bloom._bits))
        for i in range(50):
            item = f"row{i}\x00U1"
            add(bloom, item)
            digest = hashlib.blake2b(item.encode(), digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:], "big") | 1
            for k in range(bloom._num_hashes):
                pos = (h1 + k * h2) % bloom._num_bits
                expected[pos >> 3] |= 1 << (pos & 7)
        assert bloom._bits == expected

    def test_sizing_grows_with_expected_items(self):
        small = BloomFilter(expected_items=10)
        large = BloomFilter(expected_items=10_000)
        assert large._num_bits > small._num_bits
        assert small._num_hashes >= 1
