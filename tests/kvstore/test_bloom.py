"""Bloom filter: no false negatives; bounded false positives."""

from repro.kvstore.bloom import BloomFilter, hash_pair


class TestBloomFilter:
    def test_contains_added_items(self):
        bloom = BloomFilter(expected_items=100)
        for i in range(100):
            bloom.add(f"item{i}")
        assert all(bloom.might_contain(f"item{i}") for i in range(100))

    def test_no_false_negatives_ever(self):
        bloom = BloomFilter(expected_items=10)  # deliberately undersized
        items = [f"x{i}" for i in range(1000)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_roughly_bounded(self):
        bloom = BloomFilter(expected_items=1000)  # sized for 1 %
        for i in range(1000):
            bloom.add(f"present{i}")
        false_positives = sum(
            1 for i in range(10_000) if bloom.might_contain(f"absent{i}"))
        assert false_positives / 10_000 < 0.05  # 5x headroom over target

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=10)
        assert not bloom.might_contain("anything")

    def test_len_counts_insertions(self):
        bloom = BloomFilter(expected_items=10)
        bloom.add("a")
        bloom.add("a")
        assert len(bloom) == 2

    def test_bit_positions_are_the_double_hashing_ones(self):
        """Position i is (h1 + i*h2) % num_bits of one blake2b digest —
        the filter's contents decide ``bloom_skips``, so they are pinned
        against the definition, not against the implementation."""
        import hashlib
        bloom = BloomFilter(expected_items=50)
        expected = bytearray(len(bloom._bits))
        for i in range(50):
            item = f"row{i}\x00U1"
            bloom.add(item)
            digest = hashlib.blake2b(item.encode(), digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:], "big") | 1
            for k in range(bloom._num_hashes):
                pos = (h1 + k * h2) % bloom._num_bits
                expected[pos >> 3] |= 1 << (pos & 7)
        assert bloom._bits == expected

    def test_precomputed_pair_is_the_same_item(self):
        by_item, by_pair = (BloomFilter(expected_items=10) for _ in range(2))
        by_item.add("present")
        by_pair.add_hashed(*hash_pair("present"))
        assert by_item._bits == by_pair._bits
        assert by_item.might_contain_hashed(*hash_pair("present"))
        assert not by_item.might_contain_hashed(*hash_pair("absent"))

    def test_sizing_grows_with_expected_items(self):
        small = BloomFilter(expected_items=10)
        large = BloomFilter(expected_items=10_000)
        assert large._num_bits > small._num_bits
        assert small._num_hashes >= 1
