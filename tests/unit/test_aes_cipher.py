"""Unit tests for the full cipher and key expansion."""

import pytest

import aes_reference
from repro.aes.cipher import (
    encrypt_block,
    encrypt_with_schedule,
    expand_key,
)
from repro.aes.key_expansion import (
    expand_key_words,
    round_keys,
    rounds_for_key,
)
from repro.aes.vectors import (
    KEY_EXPANSION_EXAMPLE_KEY,
    KEY_EXPANSION_EXAMPLE_WORDS,
    KNOWN_ANSWER_VECTORS,
)


class TestKeyExpansion:
    def test_rounds_for_key_sizes(self):
        assert rounds_for_key(bytes(16)) == 10
        assert rounds_for_key(bytes(24)) == 12
        assert rounds_for_key(bytes(32)) == 14

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            rounds_for_key(bytes(15))
        with pytest.raises(ValueError):
            round_keys(bytes(17))

    def test_fips_appendix_a1_words(self):
        words = expand_key_words(KEY_EXPANSION_EXAMPLE_KEY)
        for index, expected_hex in KEY_EXPANSION_EXAMPLE_WORDS.items():
            actual = "".join(f"{b:02x}" for b in words[index])
            assert actual == expected_hex, f"w[{index}]"

    def test_round_key_count(self):
        assert len(round_keys(bytes(16))) == 11
        assert len(round_keys(bytes(24))) == 13
        assert len(round_keys(bytes(32))) == 15

    def test_round_key_zero_is_the_key_itself(self):
        key = KEY_EXPANSION_EXAMPLE_KEY
        assert round_keys(key)[0] == key

    def test_expand_key_alias(self):
        assert expand_key(bytes(16)) == round_keys(bytes(16))


class TestCipherKnownAnswers:
    @pytest.mark.parametrize(
        "vector", KNOWN_ANSWER_VECTORS, ids=lambda v: v.name
    )
    def test_encrypt(self, vector):
        assert encrypt_block(vector.plaintext, vector.key) == vector.ciphertext

    @pytest.mark.parametrize(
        "vector", KNOWN_ANSWER_VECTORS, ids=lambda v: v.name
    )
    def test_encrypt_with_schedule(self, vector):
        schedule = round_keys(vector.key)
        assert encrypt_with_schedule(vector.plaintext, schedule) == (
            vector.ciphertext
        )

    @pytest.mark.parametrize(
        "vector", KNOWN_ANSWER_VECTORS, ids=lambda v: v.name
    )
    def test_reference_transcription_encrypt(self, vector):
        assert aes_reference.encrypt_block(vector.plaintext, vector.key) == (
            vector.ciphertext
        )

    @pytest.mark.parametrize(
        "vector", KNOWN_ANSWER_VECTORS, ids=lambda v: v.name
    )
    def test_decrypt(self, vector):
        assert (
            aes_reference.decrypt_block(vector.ciphertext, vector.key)
            == vector.plaintext
        )


class TestCipherErrors:
    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            encrypt_block(bytes(15), bytes(16))

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            encrypt_block(bytes(16), bytes(20))

    def test_encryption_changes_data(self):
        assert encrypt_block(bytes(16), bytes(16)) != bytes(16)
